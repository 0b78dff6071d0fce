"""Exact linear algebra cross-checks: two routes must agree everywhere.

The rank over Q is also checked against sympy, an implementation the
library does not share (test-only dependency; that test skips without it).
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from groupfft.abelian import AbelianGroup, character_matrix, character_matrix_inverse
from groupfft.cyclotomic import cyclotomic_field
from groupfft.errors import NotInvertible, PreconditionError, RingMismatch
from groupfft.linalg import (
    identity_matrix,
    left_nullspace,
    mat_det,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_rank,
    transpose,
)
from groupfft.rings import (
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
)
from groupfft.transform import GroupVector, blahut_weight, interpolate_at_roots_of_unity

F7 = PrimeField(7)


def random_rational_matrix(rng, rows, cols, lo=-6, hi=7):
    return [[Fraction(rng.randrange(lo, hi)) for _ in range(cols)] for _ in range(rows)]


class TestRank:
    def test_rank_agrees_with_sympy_over_q(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(19)
        for _ in range(200):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = random_rational_matrix(rng, rows, cols, -3, 4)
            assert mat_rank(m, QQ) == sympy.Matrix(m).rank()

    def test_rank_of_outer_products(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randrange(2, 6)
            u = [Fraction(rng.randrange(-5, 6)) for _ in range(n)]
            v = [Fraction(rng.randrange(-5, 6)) for _ in range(n)]
            m = [[a * b for b in v] for a in u]
            expected = 1 if any(u) and any(v) else 0
            assert mat_rank(m, QQ) == expected

    def test_identity_rank(self):
        for n in (1, 3, 5):
            assert mat_rank(identity_matrix(n, F7), F7) == n


class TestInverse:
    def test_character_matrix_formula_vs_elimination(self):
        for group, field in [
            (AbelianGroup.cyclic(5), cyclotomic_field(5)),
            (AbelianGroup((2, 6)), PrimeField(13)),
            (AbelianGroup((2, 2)), QQ),
        ]:
            p = character_matrix(group, field)
            formula = character_matrix_inverse(group, field)
            eliminated = mat_inverse(p, field)
            assert mat_eq(formula, eliminated)

    def test_singular_rejected(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(NotInvertible):
            mat_inverse(m, QQ)

    def test_random_inverse_roundtrip(self):
        rng = random.Random(29)
        done = 0
        while done < 50:
            n = rng.randrange(1, 5)
            m = random_rational_matrix(rng, n, n)
            if mat_det(m, QQ) == 0:
                continue
            inv = mat_inverse(m, QQ)
            assert mat_eq(mat_mul(m, inv, QQ), identity_matrix(n, QQ))
            done += 1


class TestDeterminant:
    def test_det_multiplicative(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randrange(1, 5)
            a = random_rational_matrix(rng, n, n)
            b = random_rational_matrix(rng, n, n)
            assert mat_det(mat_mul(a, b, QQ), QQ) == mat_det(a, QQ) * mat_det(b, QQ)

    def test_det_of_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert mat_det(m, QQ) == 0


def _seeded_square(rng, n, make):
    """A random n x n matrix, made singular or pivot-swapping by the draw:
    kind 0 random, 1 a repeated row (singular), 2 a zero leading column
    entry on top (forces a row swap), 3 a zero column (singular)."""
    m = [[make(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 1 and n > 1:
        m[rng.randrange(1, n)] = list(m[0])
    elif kind == 2:
        m[0][0] = make(0)
    elif kind == 3:
        c = rng.randrange(n)
        for row in m:
            row[c] = make(0)
    return m


class TestAgainstSympy:
    """mat_det and mat_rank (live trailing block) against sympy."""

    def test_det_and_rank_over_q(self):
        """The fraction-free elimination over Q: square matrices (singular,
        row-swapping, zero columns) of integral Fractions, of Fractions
        with mixed denominators and of ints mixed with Fractions; a zero
        pivot in the middle of the elimination; dependent rows; then
        rectangular and empty matrices."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(43)

        def mixed(k):
            return Fraction(k, rng.randrange(1, 13)) if rng.randrange(3) else k

        def check_square(m):
            before = [list(row) for row in m]
            oracle = sympy.Matrix(m)
            det = mat_det(m, QQ)
            assert type(det) is Fraction and det == oracle.det()
            assert mat_rank(m, QQ) == oracle.rank()
            assert m == before

        for make in (Fraction, lambda k: Fraction(k, rng.randrange(1, 13)), mixed):
            for _ in range(150):
                n = rng.randrange(1, 8)
                m = _seeded_square(rng, n, make)
                check_square(m)
                wide = m + [[make(rng.randrange(-2, 3)) for _ in range(n)]]
                assert mat_rank(transpose(wide), QQ) == sympy.Matrix(wide).rank()
        # the leading 2 x 2 block is singular, so the second pivot needs a
        # row swap once the first column is cleared
        for n in range(3, 8):
            for _ in range(10):
                m = [[mixed(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
                m[1][:2] = [2 * m[0][0], 2 * m[0][1]]
                check_square(m)
        # dependent rows: combinations of the first rows
        for n in range(2, 8):
            for _ in range(10):
                m = [[mixed(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
                for i in range(rng.randrange(1, n), n):
                    a, b = Fraction(rng.randrange(-3, 4), 2), rng.randrange(-3, 4)
                    m[i] = [a * x + b * y for x, y in zip(m[0], m[1])]
                check_square(m)
        for _ in range(100):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            m = [[mixed(rng.randrange(-3, 4)) if rng.randrange(4) else 0
                  for _ in range(cols)] for _ in range(rows)]
            before = [list(row) for row in m]
            assert mat_rank(m, QQ) == sympy.Matrix(m).rank()
            assert m == before
        empty = mat_det([], QQ)
        assert type(empty) is Fraction and empty == 1
        assert mat_rank([], QQ) == 0 and mat_rank([[], []], QQ) == 0

    @pytest.mark.parametrize("p", [2, 7, 257, 2**31 - 1])
    def test_det_and_rank_over_f_p(self, p):
        """The int-residue elimination over F_p: square matrices (singular,
        row-swapping, zero columns), then rectangular ones, taller and
        wider, with entries drawn over all of F_p."""
        pytest.importorskip("sympy")
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix

        field, dom = PrimeField(p), GF(p)

        def oracle(m, shape):
            return DomainMatrix([[dom(x.residue) for x in row] for row in m], shape, dom)

        rng = random.Random(47 + p)
        for _ in range(150):
            n = rng.randrange(1, 8)
            m = _seeded_square(rng, n, field.from_int)
            before = [list(row) for row in m]
            det = mat_det(m, field)
            assert det.field is field
            assert det.residue == int(oracle(m, (n, n)).det()) % p
            assert mat_rank(m, field) == oracle(m, (n, n)).rank()
            assert m == before
        for _ in range(100):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            m = [[field.from_int(rng.randrange(p)) for _ in range(cols)] for _ in range(rows)]
            kind = rng.randrange(3)
            if kind == 1:
                m[0][0] = field.zero
            elif kind == 2:
                for c in rng.sample(range(cols), rng.randrange(1, cols + 1)):
                    for row in m:
                        row[c] = field.zero
            before = [list(row) for row in m]
            assert mat_rank(m, field) == oracle(m, (rows, cols)).rank()
            assert m == before


class TestPrimeFieldEntries:
    """What the F_p elimination accepts as entries."""

    def test_det_is_an_element_of_the_callers_descriptor(self):
        other = PrimeField(7)
        m = [[other.from_int(2), other.from_int(3)], [other.from_int(1), other.from_int(5)]]
        det = mat_det(m, F7)
        assert det.field is F7 and det.residue == 0 and not det
        det = mat_det([[other.from_int(2), other.from_int(3)], [other.one, other.one]], F7)
        assert det.field is F7 and det.residue == 6
        assert mat_det([], F7).field is F7 and mat_det([], F7).residue == 1

    def test_int_entries_read_mod_p(self):
        assert mat_rank([[7, 14], [1, 2]], F7) == 1
        assert mat_det([[3, 1], [1, 3]], F7) == F7.from_int(1)

    def test_entry_of_another_field_rejected(self):
        m = [[F7.one, PrimeField(11).one], [F7.zero, F7.one]]
        with pytest.raises(RingMismatch):
            mat_det(m, F7)
        with pytest.raises(RingMismatch):
            mat_rank(m, F7)

    def test_other_fields_keep_their_elements(self):
        k = cyclotomic_field(3)
        z = k.primitive_nth_root(3)
        det = mat_det([[z, k.one], [k.one, z]], k)
        assert det == z * z - k.one
        assert mat_det([[Fraction(1, 2), 1], [3, 4]], QQ) == Fraction(-1)

    def test_entry_outside_q_rejected(self):
        k = cyclotomic_field(3)
        with pytest.raises(RingMismatch):
            mat_det([[k.zeta, 1], [1, 1]], QQ)
        with pytest.raises(RingMismatch):
            mat_rank([[1, F7.one]], QQ)


PACKED_PRIMES = [2, 3, 257, 2**31 - 1, 2**61 - 1]


class TestPackedElimination:
    """The packed-row elimination over F_p against sympy's DomainMatrix
    over GF(p): square, tall and wide matrices up to 96 x 96, entries
    drawn over all of F_p, half of them given as ints."""

    @staticmethod
    def _oracle(p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        dom = sympy.GF(p)

        def matrix(m):
            shape = (len(m), len(m[0]) if m else 0)
            return DomainMatrix([[dom(x if isinstance(x, int) else x.residue) for x in row]
                                 for row in m], shape, dom)

        def det(m):
            # LU, since DomainMatrix.det over GF(p) takes seconds at 96 x 96:
            # the product of U's diagonal, negated per row swap
            _, upper, swaps = matrix(m).lu()
            out = 1
            for i in range(len(m)):
                out = out * int(upper[i, i].element) % p
            return -out % p if len(swaps) % 2 else out

        return matrix, det

    @staticmethod
    def _entries(rng, field, rows, cols, drop=0.0):
        p = field.p
        return [[0 if rng.random() < drop else
                 rng.randrange(p) if rng.randrange(2) else field.from_int(rng.randrange(p))
                 for _ in range(cols)] for _ in range(rows)]

    def _check(self, m, field, matrix, det):
        before = [list(row) for row in m]
        assert mat_rank(m, field) == matrix(m).rank()
        if len(m) == (len(m[0]) if m else 0):
            d = mat_det(m, field)
            assert d.field is field and d.residue == det(m)
        assert m == before

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    def test_against_sympy(self, p):
        field = PrimeField(p)
        matrix, det = self._oracle(p)
        rng = random.Random(p % 1009)
        for rows, cols in [(1, 1), (2, 2), (3, 5), (5, 3), (6, 6), (12, 12), (13, 9),
                           (9, 13), (32, 32)]:
            self._check(self._entries(rng, field, rows, cols), field, matrix, det)
            # sparse, so that zero pivots force row swaps
            self._check(self._entries(rng, field, rows, cols, drop=0.7), field, matrix, det)
        for rows, cols in [(96, 24), (24, 96), (96, 96)]:
            self._check(self._entries(rng, field, rows, cols), field, matrix, det)
        for n, k in [(8, 3), (24, 10), (48, 20)]:
            # a rank-deficient product of an n x k and a k x n matrix
            a = self._entries(rng, field, n, k)
            b = self._entries(rng, field, k, n)
            prod = mat_mul([[field.from_int(x) if isinstance(x, int) else x for x in row] for row in a],
                           [[field.from_int(x) if isinstance(x, int) else x for x in row] for row in b],
                           field)
            self._check(prod, field, matrix, det)
        for n in (4, 17, 24):
            # zero columns, and a zero leading pivot that forces a swap
            m = self._entries(rng, field, n, n)
            for c in rng.sample(range(n), n // 4 + 1):
                for row in m:
                    row[c] = field.zero
            self._check(m, field, matrix, det)
            m = self._entries(rng, field, n, n)
            m[0][0] = field.zero
            m[1][0] = 0
            self._check(m, field, matrix, det)
        self._check([], field, matrix, det)
        assert mat_det([], field).residue == 1 and mat_rank([[], []], field) == 0

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 33])
    def test_one_row_takes_every_update(self, p, n):
        """Rows i < n - 1 are e_i + (p - 1) e_(n-1) and the last row is
        (1, ..., 1, p - 1): at every pivot the last row's multiplier is
        p - 1 and the pivot row's entry in its last column is p - 1, so
        that slot reaches (p - 1) + (n - 1)(p - 1)^2, the most a slot can
        hold here, before the last pivot reads it: n - 2 mod p."""
        field = PrimeField(p)
        m = [[field.one if j == i else field.zero for j in range(n - 1)] + [field.from_int(-1)]
             for i in range(n - 1)]
        m.append([1] * (n - 1) + [p - 1])
        last = (n - 2) % p
        assert mat_det(m, field).residue == last
        assert mat_rank(m, field) == n - (last == 0)
        # tall: a second copy of the last row takes an update at all n pivots
        assert mat_rank(m + [list(m[-1])], field) == n - (last == 0)

    @pytest.mark.parametrize("n", [64, 128])
    def test_blahut_weight_on_large_cyclic_groups(self, n):
        field = PrimeField(257)
        group = AbelianGroup.cyclic(n)
        rng = random.Random(n)
        for weight in (0, 1, n // 2, n - 1, n):
            support = set(rng.sample(range(n), weight))
            values = tuple(field.from_int(rng.randrange(1, 257)) if i in support else field.zero
                           for i in range(n))
            assert blahut_weight(GroupVector(group, field, values)) == weight

    def test_entry_of_another_field_rejected_in_a_large_matrix(self):
        field = PrimeField(257)
        m = [[field.from_int(i * j + 1) for j in range(40)] for i in range(40)]
        m[39][39] = PrimeField(263).one
        with pytest.raises(RingMismatch):
            mat_det(m, field)
        with pytest.raises(RingMismatch):
            mat_rank(m, field)


_RAGGED = [
    ("rank", lambda f: mat_rank([[f(0), f(1)], [f(1), f(0), f(1)]], F7)),
    ("rank, short row", lambda f: mat_rank([[f(0), f(1)], [f(1)]], F7)),
    ("rank over Q", lambda f: mat_rank([[0, 1], [1, 0, 1]], QQ)),
    ("det", lambda f: mat_det([[f(1), f(2)], [f(3)]], F7)),
    ("mul, ragged left", lambda f: mat_mul([[f(1), f(2)], [f(3)]], identity_matrix(2, F7), F7)),
    ("mul, ragged right", lambda f: mat_mul(identity_matrix(2, F7), [[f(1), f(2)], [f(3)]], F7)),
    ("mul, inner mismatch", lambda f: mat_mul([[f(1), f(2), f(3)]], identity_matrix(2, F7), F7)),
]


class TestShapeChecks:
    @pytest.mark.parametrize("call", [c for _, c in _RAGGED], ids=[i for i, _ in _RAGGED])
    def test_ragged_input_rejected(self, call):
        with pytest.raises(PreconditionError):
            call(F7.from_int)

    def test_ragged_input_rejected_under_dash_o(self):
        """The same checks with assertions off: typed errors, not IndexError
        and not a silently truncated rank."""
        script = textwrap.dedent("""
            from groupfft.errors import PreconditionError
            from groupfft.linalg import identity_matrix, mat_det, mat_mul, mat_rank
            from groupfft.rings import PrimeField

            assert False, "assertions are on"
            F7 = PrimeField(7)
            f = F7.from_int
            calls = [
                lambda: mat_rank([[f(0), f(1)], [f(1), f(0), f(1)]], F7),
                lambda: mat_rank([[f(0), f(1)], [f(1)]], F7),
                lambda: mat_det([[f(1), f(2)], [f(3)]], F7),
                lambda: mat_mul([[f(1), f(2)], [f(3)]], identity_matrix(2, F7), F7),
                lambda: mat_mul(identity_matrix(2, F7), [[f(1), f(2)], [f(3)]], F7),
            ]
            for call in calls:
                try:
                    call()
                except PreconditionError:
                    print("PreconditionError")
                else:
                    print("accepted")
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["PreconditionError"] * 5


class TestInterpolationOracle:
    def test_against_linear_solve(self):
        # independent route: solve the Vandermonde system with mat_inverse
        rng = random.Random(41)
        for field, n in [(cyclotomic_field(4), 4), (PrimeField(13), 6), (QQ, 2)]:
            from groupfft.rings import primitive_nth_root

            zeta = primitive_nth_root(n, field)
            nodes = [zeta ** k for k in range(n)]
            vand = [[nodes[r] ** c for c in range(n)] for r in range(n)]
            vand_inv = mat_inverse(vand, field)
            for _ in range(20):
                targets = [field.from_int(rng.randrange(-9, 10)) for _ in range(n)]
                coeffs = [
                    sum((vand_inv[r][c] * targets[c] for c in range(n)), field.zero)
                    for r in range(n)
                ]
                expected = UniPoly.make(coeffs, field)
                assert interpolate_at_roots_of_unity(targets, field) == expected


def _prime_coordinates(field):
    """(D, basis): the number of int coordinates of an element of the
    finite field, and the elements with one coordinate 1 and the rest 0."""
    d = len(field.int_coords(field.one))
    return d, [field.from_int_coords([int(i == t) for i in range(d)]) for t in range(d)]


def _expanded(rows, field):
    """rows over F, of p^D elements, as a D len(rows) x D cols matrix over
    F_p: entry a becomes the rows of the coordinates of b_t a, b_t the
    coordinate basis, so that v over F is a left null vector exactly when
    the coordinates of each b_t v are one over F_p."""
    _, basis = _prime_coordinates(field)
    return [[c for a in row for c in field.int_coords(b * a)] for row in rows for b in basis]


def _expanded_vectors(vectors, field):
    _, basis = _prime_coordinates(field)
    return [[c for x in v for c in field.int_coords(b * x)] for v in vectors for b in basis]


class TestLeftNullspace:
    """left_nullspace against sympy's DomainMatrix nullspace of the
    transpose: over F_p on packed rows, and over F_9 (logs), F_{2^10}
    (elements, above the log cap) and a tower through their F_p
    coordinates; over Q directly."""

    @staticmethod
    def _same_space(ours, expected, width):
        """ours, rows of elements of expected's domain, span the row space
        of expected, a basis."""
        from sympy.polys.matrices import DomainMatrix

        assert expected.shape[0] == len(ours)
        if ours:
            mine = DomainMatrix(ours, (len(ours), width), expected.domain)
            assert mine.rank() == len(ours)
            assert mine.vstack(expected).rank() == len(ours)

    def _check_finite(self, rows, field):
        pytest.importorskip("sympy")
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix

        basis = left_nullspace(rows, field)
        assert all(len(v) == len(rows) and all(x.field is field for x in v) for v in basis)
        dom = GF(field.characteristic)
        big = _expanded(rows, field)
        cols = len(big[0]) if big else 0
        if not big:
            assert basis == []
            return
        if not cols:
            expected = DomainMatrix.eye(len(big), dom)
        else:
            matrix = DomainMatrix([[dom(x) for x in row] for row in big], (len(big), cols), dom)
            expected = matrix.transpose().nullspace()
        ours = [[dom(x) for x in v] for v in _expanded_vectors(basis, field)]
        self._same_space(ours, expected, len(big))
        return basis

    @staticmethod
    def _shapes(rng, field, draw):
        """Seeded matrices: dense and sparse, tall and wide, products of
        thin factors (rank deficient), zero columns."""
        out = []
        for rows, cols in [(1, 1), (2, 2), (3, 5), (5, 3), (6, 6), (9, 7), (7, 9)]:
            out.append([[draw() for _ in range(cols)] for _ in range(rows)])
            out.append([[draw() if rng.random() < 0.3 else field.zero for _ in range(cols)]
                        for _ in range(rows)])
        for n, k in [(4, 1), (6, 2), (8, 3)]:
            a = [[draw() for _ in range(k)] for _ in range(n)]
            b = [[draw() for _ in range(n)] for _ in range(k)]
            out.append(mat_mul(a, b, field))
        m = [[draw() for _ in range(5)] for _ in range(6)]
        for row in m:
            row[0] = row[3] = field.zero
        out.append(m)
        return out

    @pytest.mark.parametrize("p", [2, 3, 257])
    def test_packed_rows_against_sympy(self, p):
        field = PrimeField(p)
        assert type(kernel(field)) is IntKernel
        rng = random.Random(61 + p)
        draw = lambda: field.from_int(rng.randrange(p))  # noqa: E731
        for rows in self._shapes(rng, field, draw):
            self._check_finite(rows, field)
        # ints are read mod p, as every kernel reads them
        rows = [[1, p + 2], [2, 4]]
        assert left_nullspace(rows, field) == left_nullspace(
            [[field.from_int(x) for x in row] for row in rows], field)

    @pytest.mark.parametrize("p", [2, 3, 257])
    def test_rows_read_back_before_and_after_packing(self, p):
        field = PrimeField(p)
        kern = kernel(field)
        rows = [[field.from_int(3 * i + j) for j in range(4)] for i in range(3)]
        m = kern.working_copy(rows)
        assert m.width is None
        assert [kern.read_row(m, i) for i in range(3)] == rows
        assert kern.read_row(m, 1, 2) == rows[1][2:]
        kern.pivot(m, 0, 0)  # the first search packs the rows
        assert m.width is not None
        assert [kern.read_row(m, i) for i in range(3)] == rows
        assert kern.read_row(m, 2, 3) == rows[2][3:]
        # rows with no column are never packed: every row is a null vector
        assert left_nullspace([[], [], []], field) == [
            [field.one if i == j else field.zero for j in range(3)] for i in range(3)]

    def test_full_rank_gives_an_empty_basis(self):
        for field in (PrimeField(2), PrimeField(257), finite_field(3, 2), QQ):
            assert left_nullspace(identity_matrix(4, field), field) == []
            wide = [[field.one, field.zero, field.one], [field.zero, field.one, field.one]]
            assert left_nullspace(wide, field) == []
        assert left_nullspace([], PrimeField(7)) == []

    @pytest.mark.parametrize("field", [
        pytest.param(finite_field(3, 2), id="F9-logs"),
        pytest.param(finite_field(2, 10), id="F1024-elements"),
        pytest.param(ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 2)),
                     id="F4-tower"),
    ])
    def test_extension_fields_against_sympy(self, field):
        expected_kernel = LogKernel if field.order <= 512 and field._prime_base else ElementKernel
        assert type(kernel(field)) is expected_kernel
        rng = random.Random(repr(field))
        d, _ = _prime_coordinates(field)
        p = field.characteristic

        def draw():
            return field.from_int_coords([rng.randrange(p) for _ in range(d)])

        for rows in self._shapes(rng, field, draw):
            self._check_finite(rows, field)

    def test_rationals_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        assert type(kernel(QQ)) is RationalKernel
        dom = sympy.QQ
        rng = random.Random(67)
        draw = lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))  # noqa: E731
        for rows in self._shapes(rng, QQ, draw):
            basis = left_nullspace(rows, QQ)
            assert all(len(v) == len(rows) and all(type(x) is Fraction for x in v)
                       for v in basis)
            for v in basis:
                assert all(sum(x * row[j] for x, row in zip(v, rows)) == 0
                           for j in range(len(rows[0])))
            matrix = DomainMatrix([[dom(x.numerator, x.denominator) for x in row] for row in rows],
                                  (len(rows), len(rows[0])), dom)
            self._same_space([[dom(x.numerator, x.denominator) for x in v] for v in basis],
                             matrix.transpose().nullspace(), len(rows))

    @pytest.mark.parametrize("field", [PrimeField(7), finite_field(3, 2), QQ], ids=repr)
    def test_ragged_input_rejected(self, field):
        with pytest.raises(PreconditionError):
            left_nullspace([[field.one, field.zero], [field.one]], field)
        with pytest.raises(PreconditionError):
            left_nullspace([[field.one], [field.one, field.zero]], field)
