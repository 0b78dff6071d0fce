"""The kernels of rings.kernel: the Zech-logarithm tables, and evaluate,
mat_det and mat_rank on every kind of kernel, each against plain element
arithmetic.

Every field of order up to rings.LOG_ORDER_CAP that is F_p[Y]/(m) runs
MultiPoly.evaluate and the determinant and rank eliminations on logs; F_p
eliminates on int residues, Q evaluates on an integer plan, and towers,
Q(zeta_d) and larger fields work on their elements.  The references here
never do any of that: a term-by-term sum of element products, a
Leibniz-formula determinant, and a rank read off its minors.
"""

import itertools
import random
from fractions import Fraction

import pytest

from groupfft.cyclotomic import cyclotomic_field
from groupfft.linalg import mat_det, mat_rank
from groupfft.multipoly import MultiPoly
from groupfft.numtheory import is_prime
from groupfft.rings import (
    LOG_ORDER_CAP,
    QQ,
    ElementKernel,
    ExtField,
    IntKernel,
    LogKernel,
    PrimeField,
    RationalKernel,
    UniPoly,
    find_irreducible,
    finite_field,
    kernel,
    log_tables,
    zech_sum,
)

from helpers import held_terms_reference, log_exp_reference, random_elem

SMALL = [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2, 6), (3, 4), (7, 3)]
# the largest field under the cap, and one just above it
AT_CAP = (2, 9)
ABOVE_CAP = (23, 2)
# a field of each other kernel: ints mod p, a tower's elements, Q, Q(zeta_d)
_F4 = finite_field(2, 2)
OTHER = {
    "F7": finite_field(7, 1),
    "(F2^2)^3": ExtField(_F4, find_irreducible(_F4, 3)),
    "Q": QQ,
    "Q(zeta_5)": cyclotomic_field(5),
}
FIELDS = SMALL + [AT_CAP, ABOVE_CAP] + list(OTHER)
VARS = ("X_0", "X_1", "X_2", "X_3")


def _field(pr):
    return OTHER[pr] if pr in OTHER else finite_field(*pr)


def _name(pr):
    return pr if pr in OTHER else f"F{pr[0]}^{pr[1]}"


def _of(x, field):
    """x is an element of this very descriptor (of Q: a Fraction)."""
    return type(x) is Fraction if field is QQ else x.field is field


def _other_than_one(field):
    return getattr(field, "gen", None) or field.from_int(3)


def _leibniz(a, field):
    """det a as the signed sum over permutations of element products."""
    n = len(a)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = field.one
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total - term if sign else total + term
    return total


def _minor_rank(a, field):
    """The size of the largest square submatrix with a nonzero Leibniz
    determinant."""
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if _leibniz([[a[i][j] for j in ci] for i in ri], field):
                    return k
    return 0


def _sparse_elem(field, rng):
    """An element that is zero about a third of the time."""
    return field.zero if rng.random() < 0.35 else random_elem(field, rng)


def _term_sum(poly, point):
    """poly at point as the sum of coefficient times variable powers."""
    total = poly.ring.zero
    for exp, c in poly.terms.items():
        term = c
        for v, e in zip(poly.variables, exp):
            for _ in range(e):
                term = term * point[v]
        total = total + term
    return total


class TestTables:
    @pytest.mark.parametrize("pr", SMALL + [AT_CAP], ids=_name)
    def test_exp_and_log_are_inverse(self, pr):
        field = _field(pr)
        t = log_tables(field)
        assert t.n == field.order - 1 and len(t.exp) == t.n
        for x in field.iter_elements():
            if x:
                log = t.log_of(x, field)
                assert 1 <= log <= t.n and t.elem(log, field) == x
        for k in range(t.n):
            x = t.elem(k or t.n, field)
            assert x.field is field and t.log_of(x, field) == (k or t.n)
        assert t.log_of(field.zero, field) == 0 and t.elem(0, field) == field.zero
        assert t.elem(t.neg_one, field) == -field.one

    @pytest.mark.parametrize("pr", [(p, r) for p in range(2, LOG_ORDER_CAP) if is_prime(p)
                                    for r in range(2, 10) if p ** r <= LOG_ORDER_CAP], ids=_name)
    def test_exp_is_the_first_generator_walked(self, pr):
        """The generator found by its order test, g^((q - 1)/l) != 1 for
        every prime l | q - 1, is the first in code order, the one that
        walking every candidate finds, for every field with tables."""
        field = _field(pr)
        assert log_tables(field).exp == log_exp_reference(pr[0], field._int_modulus)

    def test_exp_under_every_quadratic_modulus_of_f5(self):
        """Where Y does not generate F_25^*, a later candidate is chosen,
        as the walk chooses it."""
        f5 = PrimeField(5)
        moduli = [(b, a, 1) for a in range(5) for b in range(5)
                  if all((x * x + a * x + b) % 5 for x in range(5))]
        assert len(moduli) == 10
        for m in moduli:
            field = ExtField(f5, UniPoly.make([f5.from_int(c) for c in m], f5))
            assert log_tables(field).exp == log_exp_reference(5, m)

    @pytest.mark.parametrize("pr", SMALL + [AT_CAP], ids=_name)
    def test_zech_table_is_element_addition(self, pr):
        field = _field(pr)
        t = log_tables(field)
        for d in range(t.n):
            expected = field.one + t.elem(d or t.n, field)
            z = t.zech[d]
            assert (z == 0) == (not expected)
            assert t.elem(z, field) == expected

    @pytest.mark.parametrize("pr", [(2, 2), (3, 2), (2, 3)], ids=_name)
    def test_zech_sum_on_every_pair(self, pr):
        field = _field(pr)
        t = log_tables(field)
        # unreduced logs too: l and l + n stand for the same element
        logs = [0, *range(1, t.n + 1), *range(t.n + 1, 2 * t.n + 1)]
        for a in logs:
            for b in logs:
                got = t.elem(zech_sum(a, b, t.zech, t.n), field)
                assert got == t.elem(a, field) + t.elem(b, field)

    def test_equal_descriptors_share_tables(self):
        # equal descriptors are one object, and the tables live on its kernel
        base = PrimeField(3)
        mine = ExtField(base, find_irreducible(base, 4))
        assert mine is finite_field(3, 4)
        assert log_tables(mine) is log_tables(finite_field(3, 4)) is kernel(mine).tables

    def test_which_fields_have_tables(self):
        assert log_tables(_field(AT_CAP)) is not None
        assert _field(ABOVE_CAP).order > LOG_ORDER_CAP
        assert log_tables(_field(ABOVE_CAP)) is None
        assert log_tables(PrimeField(7)) is None
        f4 = finite_field(2, 2)
        assert log_tables(ExtField(f4, find_irreducible(f4, 2))) is None  # a tower

    def test_kernel_per_field(self):
        expected = {
            (2, 2): LogKernel, AT_CAP: LogKernel, ABOVE_CAP: ElementKernel,
            "F7": IntKernel, "(F2^2)^3": ElementKernel, "Q": RationalKernel,
            "Q(zeta_5)": ElementKernel,
        }
        for pr, kind in expected.items():
            field = _field(pr)
            k = kernel(field)
            assert type(k) is kind and k.field is field and kernel(field) is k
        # building the field again gives the same descriptor and kernel
        base = PrimeField(3)
        mine = ExtField(base, find_irreducible(base, 2))
        assert mine is finite_field(3, 2)
        assert kernel(mine) is kernel(finite_field(3, 2))

    def test_foreign_value_is_a_type_error(self):
        field = _field((3, 2))
        with pytest.raises(TypeError):
            log_tables(field).log_of(0.5, field)


class TestEvaluate:
    def _random_poly(self, field, rng):
        terms = {}
        for _ in range(rng.randrange(1, 10)):
            exp = tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in VARS)
            terms[exp] = random_elem(field, rng)
        return MultiPoly(VARS, terms, field)

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_against_a_term_by_term_sum(self, pr):
        field = _field(pr)
        rng = random.Random(repr(pr))
        for _ in range(25):
            poly = self._random_poly(field, rng)
            for _ in range(3):
                point = {v: _sparse_elem(field, rng) for v in VARS}
                got = poly.evaluate(point)
                assert _of(got, field) and got == _term_sum(poly, point)
        # held once by the first evaluate and kept
        held = poly._held
        assert held == held_terms_reference(poly)
        poly.evaluate(point)
        assert poly._held is held
        tables = log_tables(field)
        if tables is not None:
            assert sorted(c for c, _ in held[0]) == sorted(
                tables.log_of(c, field) for c in poly.terms.values())

    @pytest.mark.parametrize("p", [1031, 2**61 - 1])
    def test_prime_fields_above_the_cap(self, p):
        """F_p holds its terms as int residues and sums them on the
        residues of the point, reduced mod p once, above LOG_ORDER_CAP
        too."""
        field = finite_field(p, 1)
        rng = random.Random(p)
        for _ in range(25):
            poly = self._random_poly(field, rng)
            for _ in range(3):
                point = {v: _sparse_elem(field, rng) for v in VARS}
                got = poly.evaluate(point)
                assert _of(got, field) and got == _term_sum(poly, point)
            assert all(type(c) is int and 0 < c < p for c, _ in poly._held[0])

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_internal_cancellation(self, pr):
        field = _field(pr)
        rng = random.Random(17)
        x = {v: MultiPoly.variable(v, VARS, field) for v in VARS}
        a = random_elem(field, rng) or field.one
        b = random_elem(field, rng) or field.one
        difference = x["X_0"] - x["X_1"]
        # the difference, and a walk in which a zero sum is multiplied and
        # added to further terms
        nested = (difference * x["X_2"] * x["X_2"] + x["X_3"]) * x["X_3"]
        point = {"X_0": a, "X_1": a, "X_2": b, "X_3": b}
        assert difference.evaluate(point) == field.zero
        assert nested.evaluate(point) == b * b
        square = (x["X_0"] + x["X_1"]) ** field.characteristic
        assert square.evaluate(point) == _term_sum(square, point)

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_zero_and_constant_polynomials(self, pr):
        field = _field(pr)
        g = _other_than_one(field)
        point = {v: g for v in VARS}
        zero = MultiPoly.zero(VARS, field).evaluate(point)
        assert _of(zero, field) and not zero
        for c in (field.one, -field.one, g, g * g + field.one):
            got = MultiPoly.constant(c, VARS, field).evaluate(point)
            assert _of(got, field) and got == c

    def test_int_coordinates(self):
        field = _field((5, 2))
        poly = MultiPoly.linear({"X_0": field.gen, "X_1": field.one}, VARS[:2], field)
        assert poly.evaluate({"X_0": 3, "X_1": -1}) == field.gen * 3 - field.one


class TestElimination:
    def _random_matrix(self, field, rng, rows, cols):
        return [[_sparse_elem(field, rng) for _ in range(cols)] for _ in range(rows)]

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_det_against_leibniz(self, pr):
        field = _field(pr)
        rng = random.Random(repr(pr) + "det")
        for _ in range(20):
            n = rng.randrange(1, 6)
            a = self._random_matrix(field, rng, n, n)
            before = [list(row) for row in a]
            det = mat_det(a, field)
            assert _of(det, field) and det == _leibniz(a, field)
            assert a == before

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_empty_matrix(self, pr):
        field = _field(pr)
        det = mat_det([], field)
        assert _of(det, field) and det == field.one
        assert mat_rank([], field) == 0

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_zero_pivots_and_singular_matrices(self, pr):
        field = _field(pr)
        rng = random.Random(repr(pr) + "sing")
        r = [[random_elem(field, rng) or field.one for _ in range(4)] for _ in range(4)]
        c = random_elem(field, rng) or _other_than_one(field)
        # a zero leading entry: the first pivot comes from a row swap
        swapped = [[field.zero] + r[0][1:], r[1], r[2], r[3]]
        # a zero pivot reached mid-elimination: rows 0 and 1 agree on column 0
        mid = [r[0], [r[0][0]] + r[1][1:], r[2], r[3]]
        # a row that is a combination of two others, and a zero column
        combo = [r[0], r[1], [x + c * y for x, y in zip(r[0], r[1])], r[3]]
        zero_col = [[field.zero] + row[1:] for row in r]
        for a in (swapped, mid, combo, zero_col):
            det = mat_det(a, field)
            assert _of(det, field) and det == _leibniz(a, field)
            assert mat_rank(a, field) == _minor_rank(a, field)
        assert not mat_det(combo, field) and mat_rank(combo, field) == 3
        assert not mat_det(zero_col, field)

    @pytest.mark.parametrize("pr", FIELDS, ids=_name)
    def test_rank_of_rectangular_and_deficient_matrices(self, pr):
        field = _field(pr)
        rng = random.Random(repr(pr) + "rank")
        for rows, cols in ((3, 5), (5, 3), (4, 4), (1, 4), (4, 1)):
            a = self._random_matrix(field, rng, rows, cols)
            before = [list(row) for row in a]
            assert mat_rank(a, field) == _minor_rank(a, field)
            assert a == before
        # rank 2 by construction: every row a combination of two rows
        u, v = (self._random_matrix(field, rng, 1, 5)[0] for _ in range(2))
        u[0], v[1] = field.one, field.one
        u[1], v[0] = field.zero, field.zero
        deficient = []
        for _ in range(4):
            s, t = random_elem(field, rng), random_elem(field, rng)
            deficient.append([s * x + t * y for x, y in zip(u, v)])
        deficient[0] = u
        deficient[1] = v
        assert mat_rank(deficient, field) == 2 == _minor_rank(deficient, field)
        assert mat_rank([[field.zero] * 3] * 2, field) == 0
