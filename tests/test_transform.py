"""Transform pair, group matrices, idempotents, weight-rank, interpolation."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from groupfft.abelian import AbelianGroup, GroupElement
from groupfft.cyclotomic import cyclotomic_field
from groupfft import rings
from groupfft.errors import NoRootOfUnity, PreconditionError, RingMismatch, VerificationError
from groupfft.linalg import identity_matrix, mat_eq, mat_mul, mat_pow
from groupfft.multipoly import MultiPoly
from groupfft.rings import (
    DFT_TABLE_CAP,
    QQ,
    ElementKernel,
    ExtField,
    FieldElem,
    PrimeField,
    ResidueDFT,
    UniPoly,
    field_entries,
    find_irreducible,
    kernel,
    primitive_nth_root,
    root_table,
)
from groupfft.transform import (
    GroupVector,
    blahut_weight,
    convolve,
    convolve_reference,
    diagonalize,
    dual_diagonalize,
    dual_matrix,
    fft,
    fft_many,
    fft_reference,
    group_idempotents,
    group_matrix,
    group_variables,
    interpolate_at_roots_of_unity,
    inverse_fft,
    inverse_fft_many,
    inverse_fft_reference,
    shift_matrix,
    shift_power_from_idempotents,
    symbolic_vector,
)

from helpers import check_under_o, random_elem, random_vector

F7 = PrimeField(7)
F13 = PrimeField(13)
C2 = AbelianGroup.cyclic(2)
C3 = AbelianGroup.cyclic(3)


def qvec(group, *ints):
    return GroupVector(group, QQ, tuple(Fraction(k) for k in ints))


def fvec(group, field, *ints):
    return GroupVector(group, field, tuple(field.from_int(k) for k in ints))


class TestTransformPair:
    def test_delta_to_ones(self):
        assert fft(qvec(C2, 1, 0)).values == (Fraction(1), Fraction(1))

    def test_ones_to_scaled_delta(self):
        assert fft(qvec(C2, 1, 1)).values == (Fraction(2), Fraction(0))

    def test_all_ones_c3_f7(self):
        b = fvec(C3, F7, 1, 1, 1)
        assert [v.residue for v in fft(b).values] == [3, 0, 0]

    def test_inverse_examples(self):
        B = GroupVector(C2, QQ, (Fraction(1), Fraction(1)), dual=True)
        assert inverse_fft(B).values == (Fraction(1), Fraction(0))
        zero = GroupVector(C3, F7, (F7.zero,) * 3, dual=True)
        assert all(not v for v in inverse_fft(zero).values)

    def test_missing_root(self):
        with pytest.raises(NoRootOfUnity):
            fft(qvec(C3, 1, 0, 0))

    def test_char_divides_order(self):
        F3 = PrimeField(3)
        B = GroupVector(C3, F3, (F3.one,) * 3, dual=True)
        with pytest.raises(PreconditionError):
            inverse_fft(B)

    def test_round_trip_c2xc6_f13(self):
        group = AbelianGroup((2, 6))
        rng = random.Random(42)
        for _ in range(100):
            b = random_vector(group, F13, rng)
            assert inverse_fft(fft(b)).values == b.values


class TestGroupMatrices:
    def test_c2_matrix(self):
        m = group_matrix(qvec(C2, 3, 5))
        assert m.entries == ((Fraction(3), Fraction(5)), (Fraction(5), Fraction(3)))

    def test_c3_circulant_rows(self):
        m = group_matrix(qvec(C3, 1, 2, 3))
        assert m.entries == (
            (Fraction(1), Fraction(2), Fraction(3)),
            (Fraction(3), Fraction(1), Fraction(2)),
            (Fraction(2), Fraction(3), Fraction(1)),
        )

    def test_symbolic_vector_gives_generic_matrix(self):
        rows = group_matrix(symbolic_vector(C3, QQ)).rows()
        variables = group_variables(C3)
        assert rows[0][0] == MultiPoly.variable("X_0", variables, QQ)
        assert rows[1][0] == MultiPoly.variable("X_2", variables, QQ)
        assert rows[2][1] == MultiPoly.variable("X_2", variables, QQ)

    @pytest.mark.parametrize("divisors", [(1,), (7,), (2, 6), (3, 5), (4, 4, 4), (2,) * 5],
                             ids=lambda d: "x".join(f"C{k}" for k in d))
    @pytest.mark.parametrize("dual", [False, True], ids=["group", "dual"])
    def test_against_the_definition(self, divisors, dual):
        """Entry (tau, sigma) is b at tau^-1 sigma, found here by the group's
        own inverse, mul and index; on the dual side tau and sigma are
        characters, read as residue tuples."""
        group = AbelianGroup(divisors)
        rng = random.Random(sum(divisors) + dual)
        b = GroupVector(group, F13, random_vector(group, F13, rng).values, dual=dual)
        m = group_matrix(b)
        assert (m.group, m.field, m.dual) == (group, F13, dual)
        elements = [GroupElement(chi.residues) for chi in group.characters()] if dual \
            else group.elements()
        assert m.entries == tuple(
            tuple(b.values[group.index(group.mul(group.inverse(tau), sigma))]
                  for sigma in elements)
            for tau in elements
        )

    def test_product_is_convolution(self):
        rng = random.Random(9)
        for group in (C3, AbelianGroup((2, 2))):
            for _ in range(20):
                a = random_vector(group, F7, rng)
                b = random_vector(group, F7, rng)
                ma = group_matrix(a).rows()
                mb = group_matrix(b).rows()
                mab = group_matrix(convolve(a, b)).rows()
                assert mat_eq(mat_mul(ma, mb, F7), mab)


class TestDiagonalize:
    def test_c2_numeric(self):
        assert diagonalize(qvec(C2, 3, 1)) == (Fraction(4), Fraction(2))

    def test_c3_symbolic_eigenvalues(self):
        field = cyclotomic_field(3)
        diag = diagonalize(symbolic_vector(C3, field))
        variables = group_variables(C3)
        zeta = field.zeta
        for ell in range(3):
            expected = MultiPoly.linear(
                {
                    variables[i]: zeta ** ((i * ell) % 3)
                    for i in range(3)
                },
                variables,
                field,
            )
            assert diag[ell] == expected

    def test_equals_fft_random_c6_f7(self):
        group = AbelianGroup.cyclic(6)
        rng = random.Random(4)
        for _ in range(25):
            b = random_vector(group, F7, rng)
            assert diagonalize(b) == fft(b).values

    def test_dual_side_identity_full_matrix(self):
        # every admissible (group, field) combination of the declared matrix
        from groupfft.errors import NoRootOfUnity
        from groupfft.rings import ExtField, find_irreducible

        groups = [
            C2, C3, AbelianGroup.cyclic(4), AbelianGroup.cyclic(6),
            AbelianGroup((2, 2)), AbelianGroup((2, 6)), AbelianGroup((3, 3)),
        ]
        f4 = ExtField(PrimeField(2), find_irreducible(2, 2))
        rng = random.Random(8)
        combos = 0
        for group in groups:
            for field in (cyclotomic_field(group.exponent), F7, F13, f4):
                if field.characteristic and group.order % field.characteristic == 0:
                    continue
                try:
                    primitive_nth_root(group.exponent, field)
                except NoRootOfUnity:
                    continue
                combos += 1
                for _ in range(5):
                    b = random_vector(group, field, rng)
                    diag = dual_diagonalize(b)
                    n = field.from_int(group.order)
                    for i, sigma in enumerate(group.elements()):
                        inv_idx = group.index(group.inverse(sigma))
                        assert diag[i] == n * b.values[inv_idx]
        assert combos == 22


class TestConvolution:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        a=st.lists(st.integers(0, 6), min_size=6, max_size=6),
        b=st.lists(st.integers(0, 6), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_convolution_theorem_hypothesis_c6_f7(self, a, b):
        group = AbelianGroup.cyclic(6)
        va = GroupVector(group, F7, tuple(F7.from_int(x) for x in a))
        vb = GroupVector(group, F7, tuple(F7.from_int(x) for x in b))
        lhs = fft(convolve(va, vb)).values
        rhs = tuple(x * y for x, y in zip(fft(va).values, fft(vb).values))
        assert lhs == rhs

    def test_convolution_theorem(self):
        rng = random.Random(17)
        cases = [
            (C3, cyclotomic_field(3)),
            (AbelianGroup((2, 6)), F13),
            (AbelianGroup((2, 2)), QQ),
        ]
        for group, field in cases:
            for _ in range(30):
                a = random_vector(group, field, rng)
                b = random_vector(group, field, rng)
                lhs = fft(convolve(a, b)).values
                rhs = tuple(x * y for x, y in zip(fft(a).values, fft(b).values))
                assert lhs == rhs


F9 = ExtField(PrimeField(3), find_irreducible(3, 2))
F4 = ExtField(PrimeField(2), find_irreducible(2, 2))
F4_TOWER = ExtField(F4, find_irreducible(F4, 3))  # F_64 as (F_2^2)^3

# (cyclic orders, field): radix 2, 3 and 5 stages, prime lengths, several
# factors, non-normalized orders, trivial factors and every kind of field.
FAST_CASES = [
    ((1,), PrimeField(2)),
    ((1,), QQ),
    ((2,), QQ),
    ((5,), PrimeField(11)),
    ((16,), PrimeField(17)),
    ((12,), F13),
    ((2, 6), F13),
    ((2, 6), cyclotomic_field(6)),
    ((3, 5), PrimeField(31)),
    ((5, 3), PrimeField(31)),
    ((1, 3), F7),
    ((4, 4, 4), F13),
    ((4, 4, 4), F9),
    ((4, 4), cyclotomic_field(4)),
    ((2,) * 5, QQ),
    ((2,) * 5, F9),
    ((7,), F4_TOWER),
    ((3, 3), F4_TOWER),
]


def test_tower_draws_leave_the_prime_field():
    b = random_vector(AbelianGroup.cyclic(5), F4_TOWER, random.Random(5))
    coeffs = [c for v in b.values for c in v.residue]
    assert any(not c.is_constant for c in coeffs)


class TestFastAgainstReference:
    @pytest.mark.parametrize(
        "divisors,field", FAST_CASES, ids=[f"{d}-{f!r}" for d, f in FAST_CASES]
    )
    def test_random_vectors(self, divisors, field):
        group = AbelianGroup(divisors)
        rng = random.Random(repr(divisors))
        for _ in range(3):
            a = random_vector(group, field, rng)
            b = random_vector(group, field, rng)
            assert fft(a) == fft_reference(a)
            B = GroupVector(group, field, b.values, dual=True)
            assert inverse_fft(B) == inverse_fft_reference(B)
            assert convolve(a, b) == convolve_reference(a, b)

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        a=st.lists(st.integers(0, 12), min_size=12, max_size=12),
        b=st.lists(st.integers(0, 12), min_size=12, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_hypothesis_c12_f13(self, a, b):
        group = AbelianGroup.cyclic(12)
        va = GroupVector(group, F13, tuple(F13.from_int(x) for x in a))
        vb = GroupVector(group, F13, tuple(F13.from_int(x) for x in b), dual=True)
        assert fft(va) == fft_reference(va)
        assert inverse_fft(vb) == inverse_fft_reference(vb)
        vb = GroupVector(group, F13, vb.values)
        assert convolve(va, vb) == convolve_reference(va, vb)

    def test_symbolic_vector(self):
        group = AbelianGroup((2, 3))
        x = symbolic_vector(group, F7)
        X = fft(x)
        assert X == fft_reference(x)
        assert inverse_fft(X) == inverse_fft_reference(X) == x
        assert convolve(x, x) == convolve_reference(x, x)

    @pytest.mark.parametrize(
        "divisors,field",
        [((3, 2), F7), ((2, 2), QQ), ((4,), F9), ((3,), cyclotomic_field(3)), ((3,), F4_TOWER)],
        ids=["C3xC2-F7", "C2xC2-Q", "C4-F9", "C3-Q(zeta_3)", "C3-tower"],
    )
    def test_references_on_multipolys_and_ints(self, divisors, field):
        """The references, products by the character matrix and its
        inverse, agree with the fast pair on symbolic vectors and on int
        entries."""
        group = AbelianGroup(divisors)
        x = symbolic_vector(group, field)
        X = fft(x)
        assert X == fft_reference(x)
        assert inverse_fft(X) == inverse_fft_reference(X) == x
        ints = tuple(range(1, group.order + 1))
        b = GroupVector(group, field, ints)
        assert fft(b) == fft_reference(b)
        B = GroupVector(group, field, ints, dual=True)
        assert inverse_fft(B) == inverse_fft_reference(B)

    @pytest.mark.parametrize("n,field", [
        (5, PrimeField(5)), (3, QQ), (9, F9), (250, PrimeField(5)), (64, F9), (64, QQ),
        (64, cyclotomic_field(8)), (7, PrimeField(2)),
    ], ids=["char-divides-n", "no-root", "C9-F9-char-divides-n", "C250-F5-char-divides-n",
            "C64-F9-no-root", "C64-Q-no-root", "C64-Q(zeta_8)-no-root", "C7-F2-no-root"])
    def test_convolve_fallback(self, n, field):
        """Without a transform, p | n or no root of the exponent, convolve
        is still its one product: the direct sum, written out here."""
        group = AbelianGroup.cyclic(n)
        rng = random.Random(n)
        a = random_vector(group, field, rng)
        b = random_vector(group, field, rng)
        with pytest.raises(NoRootOfUnity):
            fft(a)
        expected = [field.zero] * n
        for i in range(n):
            for j in range(n):
                expected[(i + j) % n] += a.values[i] * b.values[j]
        assert convolve(a, b).values == tuple(expected)
        assert convolve(a, b) == convolve_reference(a, b)

    @pytest.mark.parametrize("divisors,field,theorem", [
        ((3, 3), PrimeField(3), False),
        ((2,) * 8, PrimeField(3), True),
        ((3, 5), F7, False),
        ((4, 4, 4), F13, True),
        ((2, 4), cyclotomic_field(8), True),
    ], ids=["C3xC3-F3", "C2^8-F3", "C3xC5-F7", "C4^3-F13", "C2xC4-Q(zeta_8)"])
    def test_padded_layouts(self, divisors, field, theorem):
        """Several axes, each padded to 2 d_i - 1 slots in the product: the
        convolution is the reference's, and, where the field holds the
        roots, the convolution theorem holds."""
        group = AbelianGroup(divisors)
        rng = random.Random(repr(divisors))
        for _ in range(2):
            a, b = random_vector(group, field, rng), random_vector(group, field, rng)
            ab = convolve(a, b)
            assert ab == convolve_reference(a, b)
            if theorem:
                assert fft(ab).values == tuple(x * y for x, y in zip(fft(a).values, fft(b).values))

    @pytest.mark.parametrize("divisors", [(8,), (2, 4)], ids=["C8", "C2xC4"])
    def test_l1_extremes(self, divisors):
        """The slot width at its largest: every entry p - 1 over
        F_(2^61 - 1), and numerators of 10^300 over Q and Q(zeta_8)."""
        group = AbelianGroup(divisors)
        p = (1 << 61) - 1
        field = PrimeField(p)
        top = GroupVector(group, field, (p - 1,) * group.order)
        assert convolve(top, top).values == (field.from_int(group.order),) * group.order
        big = 10 ** 300
        z8 = cyclotomic_field(8)
        vectors = [
            (QQ, [big, -big, Fraction(big, 3), Fraction(-big + 1, 7)]),
            (z8, [z8.from_residue([big, -big, big, 1]), big, Fraction(-big, 9),
                  z8.from_residue([0, Fraction(big, 5), 0, -big])]),
        ]
        for field, values in vectors:
            a = GroupVector(group, field, tuple(values * 2))
            b = GroupVector(group, field, tuple(values[::-1] * 2))
            assert convolve(a, b) == convolve_reference(a, b)

    def test_multipoly_zero_products(self):
        """An output with no nonzero product is a zero MultiPoly where the
        vectors hold MultiPolys, on both paths."""
        x = GroupVector(C2, F7, tuple(MultiPoly.constant(F7.from_int(k), (), F7) for k in (1, 0)))
        z = GroupVector(C2, F7, (MultiPoly.zero((), F7),) * 2)
        for out in (convolve_reference(x, z), convolve(x, z)):
            assert out.values == (MultiPoly.zero((), F7),) * 2
            assert all(isinstance(v, MultiPoly) for v in out.values)
        assert convolve(x, z) == convolve_reference(x, z)

    def test_top_slot_overflow(self, monkeypatch):
        """a = b = (0, ..., 0, p - 1) puts (p - 1)^2 = |a|_1 |b|_inf =
        |a|_inf |b|_1, the bound, in the top slot of the product: a slot
        width one bit short of it overflows and raises."""
        p = (1 << 61) - 1
        field = PrimeField(p)
        a = GroupVector(AbelianGroup.cyclic(4), field, (0, 0, 0, p - 1))
        assert convolve(a, a) == convolve_reference(a, a)
        monkeypatch.setattr(rings, "kronecker_width", lambda bound: bound.bit_length())
        with pytest.raises(VerificationError, match="overflowed its 122-bit slots"):
            convolve(a, a)

    def test_top_slot_overflow_under_o(self):
        setup = """
            import groupfft.rings as rings
            from groupfft.abelian import AbelianGroup
            from groupfft.rings import PrimeField
            from groupfft.transform import GroupVector, convolve
            p = (1 << 61) - 1
            a = GroupVector(AbelianGroup.cyclic(4), PrimeField(p), (0, 0, 0, p - 1))
            rings.kronecker_width = lambda bound: bound.bit_length()
        """
        assert (check_under_o("convolve(a, a)", setup)
                == "raised: a cyclic product overflowed its 122-bit slots")

    def test_convolve_rejects_mixed_fields(self):
        a = qvec(C2, 1, 2)
        b = fvec(C2, F7, 3, 4)
        with pytest.raises(PreconditionError):
            convolve(a, b)
        with pytest.raises(PreconditionError):
            convolve_reference(a, b)


# (cyclic orders, F_p) for the int transforms: trivial, short lines,
# several factors, radix-2 and radix-3 levels above the DFT_LEAF leaves,
# and a prime length above DFT_LEAF
KERNEL_CASES = [
    ((1,), F13),
    ((2, 6), F13),
    ((4, 4, 4), F13),
    ((3, 9), PrimeField(19)),
    ((81,), PrimeField(163)),
    ((127,), PrimeField(509)),
    ((256,), PrimeField(257)),
]


def constants(values, field):
    """The entries of values as constant MultiPolys over field: a vector
    the kernel holds as its entries."""
    return [MultiPoly.constant(v, (), field) for v in field_entries(values, field)]


def check_both_forms(group, field, a, b):
    """The kernel's transform, inverse and convolution of the values a and
    b, held as the kernel holds them, against the O(n^2) references; and,
    lifted to constant MultiPolys, the kernel's transforms on the entries
    and ``convolve``, which takes the reference since the kernel refuses
    to convolve MultiPolys."""
    kern, divisors = kernel(field), group.divisors
    want = [fft_reference(GroupVector(group, field, a)).values,
            inverse_fft_reference(GroupVector(group, field, a, dual=True)).values,
            convolve_reference(GroupVector(group, field, a), GroupVector(group, field, b)).values]
    held = [kern.dft(a, divisors), kern.dft(a, divisors, True), kern.convolve(a, b, divisors)]
    assert held == [list(v) for v in want]
    x, y = constants(a, field), constants(b, field)
    with pytest.raises(RingMismatch):
        kern.convolve(x, y, divisors)
    entries = [kern.dft(x, divisors), kern.dft(x, divisors, True),
               list(convolve(GroupVector(group, field, x), GroupVector(group, field, y)).values)]
    assert entries == [constants(v, field) for v in want]


class TestKernelDFT:
    """The int transforms of IntKernel against the O(n^2) references, held
    as residues and as entries."""

    @pytest.mark.parametrize(
        "divisors,field", KERNEL_CASES, ids=[f"{d}-{f!r}" for d, f in KERNEL_CASES]
    )
    def test_against_reference(self, divisors, field):
        group = AbelianGroup(divisors)
        rng = random.Random(repr(divisors))
        a = random_vector(group, field, rng)
        b = random_vector(group, field, rng)
        assert fft(a) == fft_reference(a)
        B = GroupVector(group, field, b.values, dual=True)
        assert inverse_fft(B) == inverse_fft_reference(B)
        assert convolve(a, b) == convolve_reference(a, b)

    @pytest.mark.parametrize(
        "divisors,field", KERNEL_CASES, ids=[f"{d}-{f!r}" for d, f in KERNEL_CASES]
    )
    def test_against_the_element_transform(self, divisors, field):
        group = AbelianGroup(divisors)
        rng = random.Random(repr(divisors))
        a = random_vector(group, field, rng).values
        b = random_vector(group, field, rng).values
        check_both_forms(group, field, a, b)

    def test_prime_length_above_the_table_cap(self):
        # C263 over F1579: the 262 x 262 matrix of a leaf is above
        # DFT_TABLE_CAP, so its rows are made for each line and none is kept
        field = PrimeField(1579)
        group = AbelianGroup.cyclic(263)
        a = random_vector(group, field, random.Random(263))
        assert fft(a) == fft_reference(a)
        A = GroupVector(group, field, a.values, dual=True)
        assert inverse_fft(A) == inverse_fft_reference(A)
        assert 262 * 262 > DFT_TABLE_CAP and not kernel(field).dfts[263].tables

    def test_root_tables_are_kept_per_exponent(self):
        field = PrimeField(17)
        assert root_table(16, field) is root_table(16, field)

    def test_symbolic_vector_takes_the_element_transform(self):
        x = symbolic_vector(AbelianGroup((2, 2)), F13)
        X = fft(x)
        assert all(isinstance(v, MultiPoly) for v in X.values)
        assert X == fft_reference(x)
        assert inverse_fft(X) == x

    @pytest.mark.parametrize("field", [F13, QQ, F9, cyclotomic_field(4)], ids=repr)
    def test_multipoly_vectors_skip_the_held_ints(self, field, monkeypatch):
        # a vector that starts with a MultiPoly goes to its entries without
        # trying the held ints; one with a MultiPoly further on is refused
        # by them and goes there too
        group = AbelianGroup((2, 2))
        x = symbolic_vector(group, field)
        cls, tried = type(kernel(field)), []
        right = cls._held_ints
        monkeypatch.setattr(cls, "_held_ints",
                            lambda self, *args: tried.append(args) or right(self, *args))
        assert fft(x) == fft_reference(x) and not tried
        later = GroupVector(group, field, (1,) + x.values[1:])
        assert fft(later) == fft_reference(later) and tried

    def test_elements_of_another_prime_field(self):
        b = GroupVector(C2, PrimeField(5), (F7.one, F7.one))
        with pytest.raises(RingMismatch):
            fft(b)


F25 = ExtField(PrimeField(5), find_irreducible(5, 2))
F1024 = ExtField(PrimeField(2), find_irreducible(2, 10))  # above LOG_ORDER_CAP


def mixed_vector(group, field, rng):
    """A seeded vector over Q or Q(zeta_d) mixing elements with
    denominators, ints and Fractions."""
    values = []
    for k in range(group.order):
        if k % 3 == 0:
            values.append(rng.randrange(-30, 31))
        elif k % 3 == 1:
            values.append(Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)))
        else:
            values.append(random_elem(field, rng) / rng.randrange(1, 7))
    return GroupVector(group, field, tuple(values))


# (cyclic orders, field) for the held transforms: F_p[Y]/(m) on the log
# kernel and above LOG_ORDER_CAP, Q on C2^k, Q(zeta_3) with roots -zeta,
# and conductors 5 and 12
HELD_CASES = [
    ((1,), F9),
    ((8,), F9),
    ((2, 4), F9),
    ((24,), F25),
    ((2, 12), F25),
    ((33,), F1024),
    ((1,), QQ),
    ((2,), QQ),
    ((2, 2), QQ),
    ((2, 2, 2, 2), QQ),
    ((6,), cyclotomic_field(3)),
    ((5,), cyclotomic_field(5)),
    ((10,), cyclotomic_field(5)),
    ((12,), cyclotomic_field(12)),
    ((2, 6), cyclotomic_field(12)),
]

# the cases with a line to transform
HELD_LINES = [(d, f) for d, f in HELD_CASES if d != (1,)]


class TestHeldDFT:
    """The transforms over F_p[Y]/(m), Q and Q(zeta_d) run on held ints:
    Kronecker-packed numerators (integer numerators over Q), released
    once."""

    @pytest.mark.parametrize(
        "divisors,field", HELD_CASES, ids=[f"{d}-{f!r}" for d, f in HELD_CASES]
    )
    def test_against_reference(self, divisors, field):
        group = AbelianGroup(divisors)
        rng = random.Random(repr((divisors, field)))
        draw = random_vector if field.is_finite else mixed_vector
        for _ in range(2):
            a, b = draw(group, field, rng), draw(group, field, rng)
            assert fft(a) == fft_reference(a)
            B = GroupVector(group, field, b.values, dual=True)
            assert inverse_fft(B) == inverse_fft_reference(B)
            assert convolve(a, b) == convolve_reference(a, b)
            assert inverse_fft(fft(a)).values == tuple(field_entries(a.values, field))

    def test_prime_line_above_the_table_cap(self):
        # 1051 = -1 mod 263, so F_{1051^2} holds the 263rd roots; the
        # 263 x 263 matrix is above DFT_TABLE_CAP and is made a row at a time
        field = ExtField(PrimeField(1051), find_irreducible(1051, 2))
        group = AbelianGroup.cyclic(263)
        assert 263 * 263 > DFT_TABLE_CAP
        rng = random.Random(263)
        a, b = random_vector(group, field, rng), random_vector(group, field, rng)
        assert fft(a) == fft_reference(a)
        B = GroupVector(group, field, b.values, dual=True)
        assert inverse_fft(B) == inverse_fft_reference(B)
        assert convolve(a, b) == convolve_reference(a, b)

    @pytest.mark.parametrize(
        "divisors,stages",
        [((1,), 0), ((2,), 1), ((16,), 1), ((17,), 1), ((2, 4), 2), ((32,), 2),
         ((48,), 3), ((3, 81), 4), ((256,), 5), ((2, 1, 3), 2)],
    )
    def test_stage_count(self, divisors, stages):
        """One product by a root power per radix level and one per leaf
        matrix, summed over the factors: the L of the digit bound."""
        assert ResidueDFT.stages(divisors) == stages

    def test_the_digit_bound_is_reached(self, monkeypatch):
        """Over Q(zeta_4) on C4 (R = 1, one stage) the top T-coefficient of
        X_1 for x = (0, zeta, 0, -zeta) is 2 = R^L sum_j |x_j|_1 (X_1 = 2 zeta^2), so a
        width one bit short of the bound overflows and raises."""
        field = cyclotomic_field(4)
        b = GroupVector(AbelianGroup.cyclic(4), field, (0, field.zeta, 0, -field.zeta))
        assert fft(b).values == (0, -2, 0, 2)
        monkeypatch.setattr(rings, "kronecker_width", lambda bound: bound.bit_length())
        monkeypatch.setattr(kernel(field), "dfts", {})  # no wider kept table
        with pytest.raises(VerificationError):
            fft(b)

    def test_a_kept_wider_table_serves_narrower_calls(self):
        field = cyclotomic_field(8)
        group = AbelianGroup((2, 8))
        rng = random.Random(8)
        kern = kernel(field)
        wide = GroupVector(group, field, tuple(random_elem(field, rng) * 10 ** 40
                                                for _ in range(group.order)))
        assert fft(wide) == fft_reference(wide)
        width = kern.dfts[8][2]
        for _ in range(3):
            b = mixed_vector(group, field, rng)
            assert fft(b) == fft_reference(b)
            assert inverse_fft(fft(b)).values == tuple(field_entries(b.values, field))
        assert kern.dfts[8][2] == width

    def test_convolve_leaves_the_kept_roots(self, monkeypatch):
        """A convolution runs no transform: it leaves the root table the
        transforms keep at the width they needed."""
        group = AbelianGroup.cyclic(8)
        rng = random.Random(8)
        a, b = random_vector(group, F9, rng), random_vector(group, F9, rng)
        kern = kernel(F9)
        monkeypatch.setattr(kern, "dfts", {})
        fft(a)
        width = kern.dfts[8][2]
        assert convolve(a, b) == convolve_reference(a, b)
        assert kern.dfts[8][2] == width

    def test_a_short_width_raises_under_o(self):
        setup = """
            import groupfft.rings as rings
            from groupfft.abelian import AbelianGroup
            from groupfft.cyclotomic import cyclotomic_field
            from groupfft.transform import GroupVector, fft
            field = cyclotomic_field(4)
            b = GroupVector(AbelianGroup.cyclic(4), field, (0, field.zeta, 0, -field.zeta))
            rings.kronecker_width = lambda bound: bound.bit_length()
        """
        assert (check_under_o("fft(b)", setup)
                == "raised: a packed coefficient overflowed its 2-bit digits")

    @pytest.mark.parametrize(
        "divisors,field", HELD_LINES, ids=[f"{d}-{f!r}" for d, f in HELD_LINES]
    )
    def test_no_element_transform(self, divisors, field, monkeypatch):
        """Once the root table exists, a transform over a held field makes
        no product of field elements (Fractions over Q); a symbolic
        vector, held as its entries, does."""
        group = AbelianGroup(divisors)
        rng = random.Random(len(divisors))
        a, b = random_vector(group, field, rng), random_vector(group, field, rng)
        want = fft(a), inverse_fft(fft(b)), convolve(a, b)

        def refuse(*args):
            raise AssertionError("a field-element product ran")

        for cls in (FieldElem, Fraction):
            monkeypatch.setattr(cls, "__mul__", refuse)
            monkeypatch.setattr(cls, "__rmul__", refuse)
        assert (fft(a), inverse_fft(fft(b)), convolve(a, b)) == want
        with pytest.raises(AssertionError, match="a field-element product ran"):
            fft(symbolic_vector(group, field))

    def test_towers_take_the_element_transform(self, monkeypatch):
        """A tower holds its entries: its two transforms run through
        ResidueDFT.run with the root table itself as twiddles, and its
        convolution is the direct sum, which runs no transform."""
        group = AbelianGroup.cyclic(7)
        rng = random.Random(7)
        a, b = random_vector(group, F4_TOWER, rng), random_vector(group, F4_TOWER, rng)
        runs = spy_on_runs(monkeypatch)
        assert fft(a) == fft_reference(a)
        A = GroupVector(group, F4_TOWER, a.values, dual=True)
        assert inverse_fft(A) == inverse_fft_reference(A)
        assert convolve(a, b) == convolve_reference(a, b)
        assert len(runs) == 2
        assert all(dft.powers is root_table(7, F4_TOWER) for dft in runs)

    @pytest.mark.parametrize(
        "divisors,field", HELD_CASES, ids=[f"{d}-{f!r}" for d, f in HELD_CASES]
    )
    def test_against_the_element_transform(self, divisors, field):
        group = AbelianGroup(divisors)
        rng = random.Random(repr(divisors))
        draw = random_vector if field.is_finite else mixed_vector
        a = draw(group, field, rng).values
        b = draw(group, field, rng).values
        check_both_forms(group, field, a, b)


def spy_on_runs(monkeypatch) -> list:
    """The ResidueDFTs whose run is called from now on, one per call."""
    runs = []
    run = ResidueDFT.run

    def spy(dft, *args):
        runs.append(dft)
        return run(dft, *args)

    monkeypatch.setattr(ResidueDFT, "run", spy)
    return runs


F16_TOWER = ExtField(F4, find_irreducible(F4, 2))  # F_16 as (F_2^2)^2

# (cyclic orders, tower): every line shape of the entries' recursion, prime
# leaves under radix-3 and radix-5 levels, several factors
TOWER_CASES = [
    ((5,), F16_TOWER),
    ((15,), F16_TOWER),
    ((3, 5), F16_TOWER),
    ((9,), F4_TOWER),
    ((21,), F4_TOWER),
    ((63,), F4_TOWER),
]

# (cyclic orders, field) for symbolic vectors: radix-2 levels over F_p and
# two factors over Q(zeta_4)
SYMBOLIC_CASES = [
    ((8,), PrimeField(17)),
    ((16,), PrimeField(17)),
    ((2, 4), cyclotomic_field(4)),
]


class TestEntriesDFT:
    """The transforms of towers and MultiPoly vectors hold them as their
    entries, with the root table itself as twiddles, and run through
    ResidueDFT.run; their convolutions are the direct sum, which the
    kernel, holding no ints for them, leaves to convolve_reference."""

    @pytest.mark.parametrize(
        "divisors,field", TOWER_CASES, ids=[f"{d}-{f!r}" for d, f in TOWER_CASES]
    )
    def test_towers(self, divisors, field, monkeypatch):
        group = AbelianGroup(divisors)
        rng = random.Random(repr(divisors))
        a, b = random_vector(group, field, rng), random_vector(group, field, rng)
        runs = spy_on_runs(monkeypatch)
        assert fft(a) == fft_reference(a)
        A = GroupVector(group, field, a.values, dual=True)
        assert inverse_fft(A) == inverse_fft_reference(A)
        assert inverse_fft(fft(a)) == a
        assert convolve(a, b) == convolve_reference(a, b)
        assert runs and all(dft.powers is root_table(group.exponent, field) for dft in runs)

    @pytest.mark.parametrize(
        "divisors,field", SYMBOLIC_CASES, ids=[f"{d}-{f!r}" for d, f in SYMBOLIC_CASES]
    )
    def test_symbolic_vectors(self, divisors, field, monkeypatch):
        group = AbelianGroup(divisors)
        x = symbolic_vector(group, field)
        runs = spy_on_runs(monkeypatch)
        X = fft(x)
        assert X == fft_reference(x)
        assert inverse_fft(X) == inverse_fft_reference(X) == x
        assert convolve(x, x) == convolve_reference(x, x)
        assert runs and all(dft.powers is root_table(group.exponent, field) for dft in runs)

    def test_release_divides_by_n(self):
        """The entries' release divides each value by n, on the tower's
        own kernel and on a kernel that holds ints."""
        rng = random.Random(3)
        values = [random_elem(F4_TOWER, rng) for _ in range(4)]
        kern = kernel(F4_TOWER)
        assert kern.release(values, None, 3) == [v / F4_TOWER.from_int(3) for v in values]
        assert kern.release(values, None) == values
        x = symbolic_vector(AbelianGroup.cyclic(3), F7).values
        assert (ElementKernel.release(kernel(F7), x, None, 3)
                == [F7.from_int(5) * v for v in x])


# (cyclic orders, field) for batches: F_p, F_{p^r} on logs, Q, Q(zeta_3)
# (odd conductor, roots -zeta), Q(zeta_4) and towers, cyclic and multi-axis
BATCH_CASES = [
    ((12,), F13),
    ((2, 6), F13),
    ((8,), F9),
    ((2, 2, 2), F9),
    ((2, 2), QQ),
    ((6,), cyclotomic_field(3)),
    ((2, 3), cyclotomic_field(3)),
    ((2, 4), cyclotomic_field(4)),
    ((5,), F16_TOWER),
    ((3, 3), F4_TOWER),
]


def _batch(group, field, size, rng):
    draw = random_vector if field.is_finite else mixed_vector
    return [draw(group, field, rng) for _ in range(size)]


def _duals(vectors):
    return [GroupVector(v.group, v.field, v.values, dual=True) for v in vectors]


class TestBatchedTransforms:
    """fft_many and inverse_fft_many transform a batch in one kernel call,
    each vector as the references transform it alone."""

    @pytest.mark.parametrize("size", [1, 2, 20])
    @pytest.mark.parametrize(
        "divisors,field", BATCH_CASES, ids=[f"{d}-{f!r}" for d, f in BATCH_CASES]
    )
    def test_against_references(self, divisors, field, size, monkeypatch):
        group = AbelianGroup(divisors)
        rng = random.Random(repr((divisors, field, size)))
        vectors, spectra = _batch(group, field, size, rng), _duals(_batch(group, field, size, rng))
        runs = spy_on_runs(monkeypatch)
        forward, backward = fft_many(vectors), inverse_fft_many(spectra)
        assert len(runs) == 2
        assert forward == [fft_reference(v) for v in vectors]
        assert backward == [inverse_fft_reference(v) for v in spectra]
        assert [v.values for v in inverse_fft_many(forward)] == [
            tuple(field_entries(v.values, field)) for v in vectors]

    @pytest.mark.parametrize("size", [1, 2, 20])
    @pytest.mark.parametrize(
        "divisors,field", SYMBOLIC_CASES + [((2, 3), F7)],
        ids=[f"{d}-{f!r}" for d, f in SYMBOLIC_CASES + [((2, 3), F7)]],
    )
    def test_multipoly_vectors(self, divisors, field, size):
        group = AbelianGroup(divisors)
        x = symbolic_vector(group, field).values
        vectors = [GroupVector(group, field, tuple(field.from_int(k + 1) * v for v in x))
                   for k in range(size)]
        forward = fft_many(vectors)
        assert forward == [fft_reference(v) for v in vectors]
        assert inverse_fft_many(forward) == [inverse_fft_reference(v) for v in forward]
        assert inverse_fft_many(forward) == vectors

    def test_batch_of_one_is_fft(self):
        group = AbelianGroup((2, 6))
        b = random_vector(group, F13, random.Random(6))
        assert fft_many([b]) == [fft(b)]
        B = fft(b)
        assert inverse_fft_many([B]) == [inverse_fft(B)] == [b]

    def test_width_of_the_widest_vector(self):
        """A batch packs at the digit width of its widest vector, not of
        the whole batch, so it widens the kept root table no more than that
        vector alone would.  The numerators are read over the batch's
        common denominator, so the wide vector is a multiple of the small
        one by a factor prime to every denominator: both have the same."""
        field = cyclotomic_field(8)
        group = AbelianGroup((2, 4))
        kept = kernel(field).dfts
        rng = random.Random(8)
        small = mixed_vector(group, field, rng)
        wide = GroupVector(group, field, tuple(v * 11 ** 40 for v in small.values))
        widths = []
        for batch in ([wide], [wide] * 20, [small] * 19 + [wide]):
            kept.pop(group.exponent, None)
            assert fft_many(batch) == [fft_reference(v) for v in batch]
            widths.append(kept[group.exponent][2])
        assert widths[0] == widths[1] == widths[2]

    def test_refused_batches(self):
        c4, c2c2 = AbelianGroup.cyclic(4), AbelianGroup((2, 2))
        a = GroupVector(c4, F13, (1, 2, 3, 4))
        A = GroupVector(c4, F13, (1, 2, 3, 4), dual=True)
        refused = [
            (fft_many, []),
            (inverse_fft_many, []),
            (fft_many, [a, GroupVector(c2c2, F13, (1, 2, 3, 4))]),
            (fft_many, [a, GroupVector(c4, PrimeField(17), (1, 2, 3, 4))]),
            (fft_many, [a, A]),
            (fft_many, [A]),
            (inverse_fft_many, [A, a]),
            (inverse_fft_many, [a]),
            (inverse_fft_many, [A, GroupVector(c2c2, F13, (1, 2, 3, 4), dual=True)]),
            (inverse_fft_many, [GroupVector(c4, PrimeField(2), (1, 0, 1, 1), dual=True)]),
        ]
        for run, batch in refused:
            with pytest.raises(PreconditionError):
                run(batch)


def _foreign_cases():
    """(field, kernel name, value from another field) for each kernel."""
    F3, F5 = PrimeField(3), PrimeField(5)
    z3, z4 = cyclotomic_field(3), cyclotomic_field(4)
    return [
        (F5, "int", F7.one),
        (F5, "int", Fraction(1, 2)),
        (F5, "int", F9.gen),
        (F9, "log", F3.one),
        (F9, "log", F7.one),
        (F9, "log", Fraction(1, 2)),
        (F1024, "above the log cap", PrimeField(2).one),
        (F1024, "above the log cap", F4.gen),
        (z4, "cyclotomic", z3.zeta),
        (z4, "cyclotomic", F9.one),
        (QQ, "rational", F9.one),
        (QQ, "rational", z4.one),
        (F4_TOWER, "tower", F4.gen),
        (F4_TOWER, "tower", PrimeField(2).one),
    ]


FOREIGN_CASES = _foreign_cases()


def _gate_cases():
    """(field, value) pairs the entry gate refuses, for every kernel."""
    z3 = cyclotomic_field(3)
    fields = [QQ, F7, F9, F1024, z3, F4_TOWER]
    cases = []
    for field in fields:
        other = F7 if field is QQ else QQ
        for value in (0.5, 1j, Decimal("0.5"), "1", MultiPoly.variable("X", ("X",), other)):
            cases.append((field, value))
    return cases


GATE_CASES = _gate_cases()


class TestEntryGate:
    """field_entries is the one gate of every vector the kernels do not
    hold, and of the references: anything but an element of the field,
    an int, a Fraction over Q and Q(zeta_d) or a MultiPoly over the field
    raises RingMismatch, floats included."""

    @pytest.mark.parametrize(
        "field,value", GATE_CASES, ids=[f"{f!r}-{v!r}" for f, v in GATE_CASES]
    )
    def test_refused(self, field, value):
        # a group whose exponent the field holds roots for
        n = 2 if field in (QQ, F9) else 3
        group = AbelianGroup.cyclic(n)
        values = (value,) + (field.one,) * (n - 1)
        b = GroupVector(group, field, values)
        B = GroupVector(group, field, values, dual=True)
        ones = GroupVector(group, field, (field.one,) * n)
        for call in (lambda: fft(b), lambda: fft_reference(b),
                     lambda: inverse_fft(B), lambda: inverse_fft_reference(B),
                     lambda: convolve(b, ones), lambda: convolve(ones, b),
                     lambda: convolve_reference(b, ones),
                     lambda: interpolate_at_roots_of_unity(values, field)):
            with pytest.raises(RingMismatch):
                call()

    def test_float_under_o(self):
        setup = """
            from groupfft.abelian import AbelianGroup
            from groupfft.rings import QQ
            from groupfft.transform import GroupVector, fft
            b = GroupVector(AbelianGroup.cyclic(2), QQ, (0.5, 3))
        """
        assert (check_under_o("fft(b)", setup, error="RingMismatch")
                == "raised: 0.5 is not an entry of a vector over Q")


class TestEntriesFromAnotherField:
    """An entry from another field raises RingMismatch on every kernel
    path and in the references; ints, and Fractions over Q and Q(zeta_d),
    are read as field elements."""

    @pytest.mark.parametrize(
        "field,kind,value", FOREIGN_CASES,
        ids=[f"{f!r}-{k}-{v!r}" for f, k, v in FOREIGN_CASES],
    )
    def test_ring_mismatch(self, field, kind, value):
        # a group whose exponent the field holds roots for
        group = AbelianGroup.cyclic(3 if field in (F4_TOWER, F1024) else 2)
        values = (value,) + (field.one,) * (group.order - 1)
        b = GroupVector(group, field, values)
        B = GroupVector(group, field, values, dual=True)
        ones = GroupVector(group, field, (field.one,) * group.order)
        for call in (lambda: fft(b), lambda: fft_reference(b),
                     lambda: inverse_fft(B), lambda: inverse_fft_reference(B),
                     lambda: convolve(b, ones), lambda: convolve(ones, b),
                     lambda: convolve_reference(b, ones)):
            with pytest.raises(RingMismatch):
                call()

    @pytest.mark.parametrize("field", [QQ, cyclotomic_field(4), cyclotomic_field(5)],
                             ids=repr)
    def test_fractions_are_read_as_elements(self, field):
        group = AbelianGroup.cyclic(2)
        values = (Fraction(1, 2), 3)
        elements = tuple(field.from_rational(Fraction(v)) for v in values)
        assert fft(GroupVector(group, field, values)) == fft(GroupVector(group, field, elements))
        assert (inverse_fft(GroupVector(group, field, values, dual=True))
                == inverse_fft_reference(GroupVector(group, field, elements, dual=True)))

    def test_interpolation_targets(self):
        with pytest.raises(RingMismatch):
            interpolate_at_roots_of_unity([PrimeField(3).one, F9.one], F9)
        with pytest.raises(RingMismatch):
            interpolate_at_roots_of_unity([Fraction(1, 2), 1], F9)
        field = cyclotomic_field(4)
        assert (interpolate_at_roots_of_unity([Fraction(1, 2), 1, 0, 2], field)
                == interpolate_at_roots_of_unity(
                    [field.from_rational(Fraction(k)) for k in ("1/2", 1, 0, 2)], field))

    def test_ring_mismatch_under_o(self):
        setup = """
            from groupfft.abelian import AbelianGroup
            from groupfft.rings import PrimeField, finite_field
            from groupfft.transform import GroupVector, fft
            F9 = finite_field(3, 2)
            b = GroupVector(AbelianGroup.cyclic(2), F9, (PrimeField(3).one, F9.one))
        """
        assert (check_under_o("fft(b)", setup, error="RingMismatch")
                == "raised: an element of F3 in a vector over F3^2")


# (group, field) for int entries: the int kernel, the log kernel, elements
INT_ENTRY_CASES = [
    (AbelianGroup.cyclic(4), PrimeField(5)),
    (AbelianGroup.cyclic(8), ExtField(PrimeField(3), find_irreducible(3, 2))),
    (AbelianGroup((2, 2)), cyclotomic_field(4)),
    (AbelianGroup.cyclic(4), cyclotomic_field(4)),
]


class TestIntEntries:
    """Int entries are read as field elements: every output slot is an
    element of the field, equal to the output for the elements."""

    def test_c4_f5(self):
        F5 = PrimeField(5)
        out = fft(GroupVector(AbelianGroup.cyclic(4), F5, (1, 2, 3, 4)))
        assert out.values == tuple(F5.from_int(k) for k in (0, 4, 3, 2))

    @pytest.mark.parametrize(
        "group,field", INT_ENTRY_CASES, ids=[f"{g.describe()}-{f!r}" for g, f in INT_ENTRY_CASES]
    )
    def test_every_output_is_an_element(self, group, field):
        n = group.order
        ints = tuple(range(1, n + 1))
        mixed = tuple(k if k % 2 else field.from_int(k) for k in ints)
        elements = tuple(field.from_int(k) for k in ints)
        kind = field.one.__class__
        for values in (ints, mixed):
            outputs = [
                (fft(GroupVector(group, field, values)),
                 fft(GroupVector(group, field, elements))),
                (inverse_fft(GroupVector(group, field, values, dual=True)),
                 inverse_fft(GroupVector(group, field, elements, dual=True))),
                (convolve(GroupVector(group, field, values), GroupVector(group, field, ints)),
                 convolve(GroupVector(group, field, elements),
                          GroupVector(group, field, elements))),
            ]
            for got, want in outputs:
                assert all(v.__class__ is kind and v.field is field for v in got.values)
                assert got == want

    def test_convolve_fallback(self):
        F5 = PrimeField(5)
        group = AbelianGroup.cyclic(5)
        a = GroupVector(group, F5, (1, 2, 3, 4, 5))
        out = convolve(a, a)
        assert all(v.__class__ is F5.one.__class__ for v in out.values)
        assert out == convolve_reference(GroupVector(group, F5, tuple(map(F5.from_int, a.values))),
                                         GroupVector(group, F5, tuple(map(F5.from_int, a.values))))


class TestBlahut:
    def test_zero_vector(self):
        assert blahut_weight(qvec(C2, 0, 0)) == 0

    def test_c2_delta_by_hand(self):
        b = qvec(C2, 1, 0)
        B = fft(b)
        assert dual_matrix(B).rows() == [
            [Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(1)],
        ]
        assert blahut_weight(b) == 1

    def test_exhaustive_c6_f7(self):
        group = AbelianGroup.cyclic(6)
        rng = random.Random(23)
        for _ in range(200):
            b = random_vector(group, F7, rng)
            assert blahut_weight(b) == b.hamming_weight()

    @pytest.mark.parametrize("divisors, p", [((64,), 257), ((2, 6), 13)],
                             ids=["C64-F257", "C2xC6-F13"])
    def test_every_weight(self, divisors, p):
        """Rank equals Hamming weight for seeded vectors of each weight
        0..n, with the nonzero entries drawn over all of F_p."""
        group, field = AbelianGroup(divisors), PrimeField(p)
        n = group.order
        rng = random.Random(n + p)
        for weight in range(n + 1):
            support = set(rng.sample(range(n), weight))
            values = tuple(
                field.from_int(rng.randrange(1, p)) if i in support else field.zero
                for i in range(n)
            )
            assert blahut_weight(GroupVector(group, field, values)) == weight

    def test_lift_to_extension(self):
        # F_5 has no cube root of 1; the computation lifts to F_25
        F5 = PrimeField(5)
        b = fvec(C3, F5, 1, 2, 0)
        assert blahut_weight(b) == 2

    def test_lift_to_cyclotomic(self):
        b = qvec(C3, 5, 0, 7)
        assert blahut_weight(b) == 2


class TestIdempotents:
    def test_c2_parity_projectors(self):
        idems = group_idempotents(C2, QQ)
        assert idems[0].values == (Fraction(1, 2), Fraction(1, 2))
        assert idems[1].values == (Fraction(1, 2), Fraction(-1, 2))

    def test_c3_f7_values(self):
        idems = group_idempotents(C3, F7)
        assert [v.residue for v in idems[0].values] == [5, 5, 5]

    def test_relations(self):
        for group, field in [
            (C3, cyclotomic_field(3)),
            (AbelianGroup((2, 2)), QQ),
            (AbelianGroup.cyclic(6), F7),
            (AbelianGroup((2, 6)), F13),
        ]:
            idems = group_idempotents(group, field)
            n = group.order
            for i in range(n):
                for j in range(n):
                    prod = convolve(idems[i], idems[j])
                    expected = idems[i].values if i == j else (field.zero,) * n
                    assert prod.values == tuple(expected)
            total = idems[0]
            for e in idems[1:]:
                total = total + e
            delta = tuple(
                field.one if a == group.identity else field.zero
                for a in group.elements()
            )
            assert total.values == delta

    def test_matches_interpolation_coefficients(self):
        # E_h coefficients are (1/n) zeta^(-h l): same as the h-th basis polynomial
        field = cyclotomic_field(5)
        idems = group_idempotents(AbelianGroup.cyclic(5), field)
        for h in range(5):
            targets = [field.one if k == h else field.zero for k in range(5)]
            p = interpolate_at_roots_of_unity(targets, field)
            assert tuple(p.coefficient(k) for k in range(5)) == idems[h].values


class TestShiftAlgebra:
    def test_k2(self):
        k = shift_matrix(2, QQ)
        assert k.rows() == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert mat_eq(mat_pow(k.rows(), 2, QQ), identity_matrix(2, QQ))

    def test_reconstruction_n3(self):
        field = cyclotomic_field(3)
        shift_power_from_idempotents(3, field, 1)

    def test_k4_minimal_polynomial(self):
        field = cyclotomic_field(4)
        k = shift_matrix(4, field).rows()
        assert mat_eq(mat_pow(k, 4, field), identity_matrix(4, field))
        # I, K, K^2, K^3 are linearly independent (disjoint supports), so the
        # minimal polynomial of K is exactly T^4 - 1
        powers = [mat_pow(k, h, field) for h in range(4)]
        for idx, mat in enumerate(powers):
            support = {(i, j) for i in range(4) for j in range(4) if mat[i][j]}
            for other in powers[idx + 1:]:
                other_support = {
                    (i, j) for i in range(4) for j in range(4) if other[i][j]
                }
                assert support.isdisjoint(other_support)

    def test_reconstruction_all_h(self):
        field = PrimeField(13)
        for h in range(4):
            shift_power_from_idempotents(4, field, h)


class TestChecksUnderO:
    """Each identity check of this module raises VerificationError on a
    corrupted collaborator, with assertions stripped."""

    DIAGONALIZE = """
        import groupfft.transform as t
        from groupfft.abelian import AbelianGroup
        from groupfft.rings import PrimeField
        F7 = PrimeField(7)
        values = tuple(F7.from_int(k) for k in (3, 1, 4, 1, 5, 2))
        b = t.GroupVector(AbelianGroup.cyclic(6), F7, values)
    """

    def test_wrong_diagonal(self):
        corrupt = """
            right_fft = t.fft
            def wrong_fft(b):
                out = right_fft(b)
                values = (out.values[0] + 1,) + out.values[1:]
                return t.GroupVector(out.group, out.field, values, out.dual)
            t.fft = wrong_fft
        """
        assert (check_under_o("t.diagonalize(b)", self.DIAGONALIZE, corrupt)
                == "raised: diagonal mismatch: 2 != 3")

    def test_nonzero_off_diagonal(self):
        # P + E_01 in place of P: row 0 of P^-1 M P gains lambda_0 / n at column 1
        corrupt = """
            right_p = t.character_matrix
            def wrong_p(group, field):
                p = [list(row) for row in right_p(group, field)]
                p[0][1] = p[0][1] + 1
                return p
            t.character_matrix = wrong_p
        """
        assert (check_under_o("t.diagonalize(b)", self.DIAGONALIZE, corrupt)
                == "raised: off-diagonal entry is nonzero")

    def test_wrong_shift_power(self):
        setup = """
            import groupfft.transform as t
            from groupfft.rings import PrimeField
            right = t.circulant_idempotent_matrices
            t.circulant_idempotent_matrices = lambda n, field: right(n, field)[::-1]
        """
        assert (check_under_o("t.shift_power_from_idempotents(4, PrimeField(13), 1)", setup)
                == "raised: shift-power reconstruction identity failed")

    def test_wrong_interpolant(self):
        # an F13 whose inverse of n is off by a factor 2 doubles the interpolant
        setup = """
            import groupfft.transform as t
            from groupfft.rings import PrimeField
            class Wrong(PrimeField):
                def inv(self, x):
                    return super().inv(x) * 2
            F = Wrong(13)
        """
        assert (check_under_o("t.interpolate_at_roots_of_unity([F.one, F.zero, F.zero, F.zero], F)",
                              setup)
                == "raised: interpolant misses its target at zeta^0")


class TestInterpolation:
    def test_constant(self):
        field = cyclotomic_field(4)
        c = field.from_int(9)
        p = interpolate_at_roots_of_unity([c, c, c, c], field)
        assert p == UniPoly.constant(c, field)

    def test_two_point(self):
        p = interpolate_at_roots_of_unity([Fraction(1), Fraction(0)], QQ)
        assert p == UniPoly.make([Fraction(1, 2), Fraction(1, 2)], QQ)

    def test_identity_map(self):
        field = cyclotomic_field(3)
        zeta = field.zeta
        targets = [field.one, zeta, zeta ** 2]
        assert interpolate_at_roots_of_unity(targets, field) == UniPoly.gen(field)

    def test_char_divides_n(self):
        F3 = PrimeField(3)
        with pytest.raises(PreconditionError):
            interpolate_at_roots_of_unity([F3.one, F3.one, F3.one], F3)

    @pytest.mark.parametrize("field, ints", [
        (F7, [1, 2, 3]),
        (ExtField(PrimeField(3), find_irreducible(3, 2)), [1, -2, 0, 5]),
        (cyclotomic_field(3), [1, 2, -3]),
    ], ids=repr)
    def test_int_targets_read_as_elements(self, field, ints):
        expected = interpolate_at_roots_of_unity([field.from_int(k) for k in ints], field)
        assert interpolate_at_roots_of_unity(ints, field) == expected
        if field is F7:
            assert str(expected) == "X^2 + 5*X + 2"
