"""Group-matrix eliminations from the n values of a vector.

``kernel(field).group_copy(values, group)`` is the working copy of the
group matrix (entry (tau, sigma) = values[sigma - tau]) that
``working_copy`` makes of the rows of ``transform.group_matrix``, held
from the n values: over F_p the packed rows, slot width included, over
a small F_{p^r} the logs, over Q the scaled integer rows with their
scale, elsewhere the elements.  ``linalg.group_rank`` and ``group_det``
eliminate it, and ``blahut_weight`` ranks the transform's values that
way.  The references are the n x n matrix, ``mat_rank``/``mat_det``,
the Hamming weight and sympy's rank over GF(p).
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from groupfft.abelian import AbelianGroup
from groupfft.cyclotomic import cyclotomic_field
from groupfft.linalg import group_det, group_rank, mat_det, mat_rank
from groupfft.rings import (
    QQ,
    ElementKernel,
    ExtField,
    IntKernel,
    LogKernel,
    PrimeField,
    RationalKernel,
    find_irreducible,
    finite_field,
    kernel,
)
from groupfft.transform import GroupVector, blahut_weight, fft, group_matrix

from helpers import all_groups_of_order_up_to, random_elem

_F4 = finite_field(2, 2)
# one field of every kernel: int residues, logs, scaled integer rows,
# and elements (a tower, Q(zeta_d), an F_{p^r} above the log cap)
FIELDS = {
    "F7": PrimeField(7),
    "F13": PrimeField(13),
    "F4": _F4,
    "F9": finite_field(3, 2),
    "F25": finite_field(5, 2),
    "Q": QQ,
    "Q(zeta_6)": cyclotomic_field(6),
    "(F2^2)^3": ExtField(_F4, find_irreducible(_F4, 3)),
    "F1024": finite_field(2, 10),
}
KERNELS = {"F7": IntKernel, "F13": IntKernel, "F4": LogKernel, "F9": LogKernel,
           "F25": LogKernel, "Q": RationalKernel, "Q(zeta_6)": ElementKernel,
           "(F2^2)^3": ElementKernel, "F1024": ElementKernel}
GROUPS = all_groups_of_order_up_to(12) + [AbelianGroup((3, 1)), AbelianGroup((2, 1, 3))]
CASES = [(g, name) for g in GROUPS for name in FIELDS]
LARGE = [(AbelianGroup((64,)), PrimeField(257)), (AbelianGroup((4, 4, 4)), PrimeField(13))]


def _value(field, rng):
    """A value that is zero about a third of the time; over Q a Fraction."""
    if rng.random() < 0.35:
        return field.zero
    if field is QQ:
        return Fraction(rng.randrange(-20, 21), rng.randrange(1, 13))
    return random_elem(field, rng)


def _vectors(group, field, seed, count=4):
    rng = random.Random(repr(seed))
    out = [[_value(field, rng) for _ in range(group.order)] for _ in range(count)]
    out.append([field.zero] * group.order)
    out.append([field.one] + [field.zero] * (group.order - 1))
    return out


def _copy_state(m):
    """The rows and every attribute a kernel keeps on a working copy."""
    slots = ("width", "mask", "cols", "scale", "divisor")
    return list(m), {s: getattr(m, s) for s in slots if hasattr(m, s)}


def _matrix_copy(kern, values, group, field):
    """What the parent route held: working_copy of the n x n rows, packed
    by its first pivot search over F_p."""
    m = kern.working_copy(group_matrix(GroupVector(group, field, tuple(values))).rows())
    if isinstance(kern, IntKernel):
        kern.pivot(m, 0, 0)
    return m


class TestGroupCopy:
    def test_kernel_of_each_field(self):
        for name, field in FIELDS.items():
            assert type(kernel(field)) is KERNELS[name]

    @pytest.mark.parametrize("group, name", CASES, ids=lambda x: repr(x))
    def test_equals_working_copy_of_the_group_matrix(self, group, name):
        field = FIELDS[name]
        kern = kernel(field)
        for values in _vectors(group, field, (group.divisors, name)):
            got = kern.group_copy(values, group)
            assert _copy_state(got) == _copy_state(_matrix_copy(kern, values, group, field))

    @pytest.mark.parametrize("group, field", LARGE, ids=repr)
    def test_equals_working_copy_on_large_groups(self, group, field):
        kern = kernel(field)
        for values in _vectors(group, field, group.divisors, count=2):
            got = kern.group_copy(values, group)
            assert _copy_state(got) == _copy_state(_matrix_copy(kern, values, group, field))
            assert got.width == ((field.p - 1) + group.order * (field.p - 1) ** 2).bit_length()

    def test_rational_scale_is_the_lcm_to_the_n(self):
        group = AbelianGroup((2, 2))
        values = [Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(5)]
        m = kernel(QQ).group_copy(values, group)
        assert m.scale == 6 ** 4 and m.divisor == 1
        assert m[0] == [3, -18, 4, 30] and sorted(m[3]) == sorted(m[0])

    def test_int_values_over_q(self):
        """The point checks over Q draw ints: they are rationals of
        denominator 1, and the scale is 1."""
        group = AbelianGroup((3, 3))
        values = [k * k - 7 for k in range(9)]
        m = kernel(QQ).group_copy(values, group)
        assert m.scale == 1 and m[0] == values

    def test_input_is_not_modified(self):
        group, field = AbelianGroup((6,)), PrimeField(7)
        values = [field.from_int(k) for k in range(6)]
        before = list(values)
        group_det(values, group, field)
        group_rank(values, group, field)
        assert values == before


class TestGroupEliminations:
    @pytest.mark.parametrize("group, name", CASES, ids=lambda x: repr(x))
    def test_det_and_rank_equal_the_matrix_routes(self, group, name):
        field = FIELDS[name]
        for values in _vectors(group, field, (group.divisors, name, "elim")):
            rows = group_matrix(GroupVector(group, field, tuple(values))).rows()
            det = group_det(values, group, field)
            assert det == mat_det(rows, field)
            assert (type(det) is Fraction) if field is QQ else (det.field is field)
            assert group_rank(values, group, field) == mat_rank(rows, field)

    @pytest.mark.parametrize("group, field", LARGE, ids=repr)
    def test_det_and_rank_on_large_groups(self, group, field):
        for values in _vectors(group, field, (group.divisors, "elim"), count=2):
            rows = group_matrix(GroupVector(group, field, tuple(values))).rows()
            assert group_det(values, group, field) == mat_det(rows, field)
            assert group_rank(values, group, field) == mat_rank(rows, field)

    def test_wrong_length_is_a_precondition_error(self):
        from groupfft.errors import PreconditionError

        field = PrimeField(7)
        with pytest.raises(PreconditionError):
            group_det([field.one] * 5, AbelianGroup((6,)), field)
        with pytest.raises(PreconditionError):
            group_rank([field.one] * 7, AbelianGroup((6,)), field)


# (group, field) where blahut_weight applies: the order is invertible;
# F5 on C3, F3 on C8 and Q on C6 lift to F25, F9 and Q(zeta_6)
WEIGHT_CASES = [(g, name) for g, name in CASES
                if not FIELDS[name].characteristic or gcd(g.order, FIELDS[name].characteristic) == 1]
LIFTS = [(AbelianGroup((3,)), PrimeField(5), "F5^2"), (AbelianGroup((8,)), PrimeField(3), "F3^2"),
         (AbelianGroup((6,)), QQ, "Q(zeta_6)")]


class TestBlahutWeight:
    @pytest.mark.parametrize("group, name", WEIGHT_CASES, ids=lambda x: repr(x))
    def test_rank_is_the_hamming_weight(self, group, name):
        field = FIELDS[name]
        for values in _vectors(group, field, (group.divisors, name, "weight")):
            vec = GroupVector(group, field, tuple(values))
            assert blahut_weight(vec) == vec.hamming_weight()

    @pytest.mark.parametrize("group, field", LARGE, ids=repr)
    def test_rank_is_the_hamming_weight_on_large_groups(self, group, field):
        rng = random.Random(repr(group))
        for weight in (0, 1, 17, group.order - 1, group.order):
            support = set(rng.sample(range(group.order), weight))
            vec = GroupVector(group, field, tuple(
                field.from_int(rng.randrange(1, field.p)) if i in support else field.zero
                for i in range(group.order)))
            assert blahut_weight(vec) == weight

    @pytest.mark.parametrize("group, field, big", LIFTS, ids=lambda x: repr(x))
    def test_lifts(self, group, field, big):
        """The root of unity is missing: the values are lifted first."""
        from groupfft.cyclotomic import splitting_field

        assert repr(splitting_field(field, group.exponent)[0]) == big
        rng = random.Random(big)
        for _ in range(6):
            vec = GroupVector(group, field, tuple(_value(field, rng) for _ in range(group.order)))
            assert blahut_weight(vec) == vec.hamming_weight()

    @pytest.mark.parametrize("group, p", [(AbelianGroup((12,)), 13), (AbelianGroup((2, 6)), 7),
                                          (AbelianGroup((4, 4, 4)), 13), (AbelianGroup((64,)), 257)],
                             ids=repr)
    def test_rank_against_sympy_over_gf_p(self, group, p):
        """The rank of the dual-side matrix, B_{psi^-1 chi}, over sympy's
        GF(p), a rank the library does not compute."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        field, domain = PrimeField(p), sympy.GF(p)
        rng = random.Random(p)
        for weight in (1, group.order // 3, group.order - 2):
            support = set(rng.sample(range(group.order), weight))
            vec = GroupVector(group, field, tuple(
                field.from_int(rng.randrange(1, p)) if i in support else field.zero
                for i in range(group.order)))
            values = fft(vec).values
            rows = [[domain(values[k].residue) for k in row] for row in group.difference_table()]
            rank = DomainMatrix(rows, (group.order, group.order), domain).rank()
            assert group_rank(values, group, field) == rank == weight
            assert blahut_weight(vec) == weight


def test_corrupted_translate_fails_verify_weight_under_o():
    """A repeated row in the packed copy (the last translate replaced by
    the first) makes the rank of a full-weight vector fall short of its
    Hamming weight: ``--verify weight`` exits 3 under python -O, with one
    error line and no traceback."""
    script = """
import sys
from groupfft import abelian, cli
orig = abelian.translates
abelian.translates = lambda x, steps: (lambda t: t[:-1] + t[:1])(orig(x, steps))
sys.exit(cli.main(sys.argv[1:]))
"""
    vector = ",".join(str(1 + k % 12) for k in range(64))
    argv = ["--verify", "weight", "--group", "C4xC4xC4", "--field", "F13", "--vector", vector]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for corrupt in (True, False):
        code = script if corrupt else script.replace("abelian.translates = ", "_ = ")
        proc = subprocess.run([sys.executable, "-O", "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        if corrupt:
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr == "error: rank does not match the direct nonzero count\n"
        else:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "64\n"
