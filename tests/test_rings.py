"""Field and polynomial arithmetic: golden examples, axioms, gcd machinery."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupfft.rings as rings
from groupfft.cli import parse_field_descriptor
from groupfft.cyclotomic import CyclotomicField, cyclotomic_field, splitting_field
from groupfft.errors import NoRootOfUnity, NotInvertible, PreconditionError, RingMismatch
from groupfft.linalg import identity_matrix, mat_mul, mat_pow
from groupfft.multipoly import MultiPoly
from groupfft.numtheory import prime_factors
from groupfft.rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    PrimeField,
    RationalField,
    UniPoly,
    ext_gcd,
    find_irreducible,
    finite_field,
    format_unipoly,
    is_irreducible,
    poly_powmod,
    primitive_nth_root,
    root_table,
    square_and_multiply,
    x_pow_minus_one,
)

from helpers import check_under_o, from_ints, is_irreducible_reference

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F4 = ExtField(F2, find_irreducible(2, 2))
F9 = ExtField(F3, find_irreducible(3, 2))
F4_TOWER = ExtField(F4, find_irreducible(F4, 3))


def qpoly(*ints):
    return from_ints(ints, QQ)


class TestPolyArithmetic:
    @pytest.mark.parametrize("n", [0, -1])
    def test_x_pow_minus_one_needs_n_at_least_one(self, n):
        with pytest.raises(PreconditionError):
            x_pow_minus_one(n, QQ)

    def test_telescoping_product(self):
        # (X - 1)(X^2 + X + 1) = X^3 - 1
        assert qpoly(-1, 1) * qpoly(1, 1, 1) == x_pow_minus_one(3, QQ)

    def test_divrem(self):
        q, r = divmod(x_pow_minus_one(3, QQ), qpoly(-1, 1))
        assert q == qpoly(1, 1, 1)
        assert r.is_zero

    def test_freshman_dream_char2(self):
        xp1 = from_ints([1, 1], F2)
        assert xp1 * xp1 == from_ints([1, 0, 1], F2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(qpoly(1, 1), UniPoly.zero(QQ))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            qpoly(1) + from_ints([1], F2)

    @given(
        a=st.lists(st.integers(0, 6), min_size=0, max_size=8),
        b=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_divrem_invariant_f7(self, a, b):
        pa = from_ints(a, F7)
        pb = from_ints(b, F7)
        if pb.is_zero:
            return
        q, r = divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree


class TestMakeCoercion:
    """UniPoly.make reads ints, and Fractions over Q and Q(zeta_d), as
    elements of its ring, by the rules of field_entries; anything else
    raises RingMismatch."""

    def test_int_coefficients_are_reduced(self):
        f = UniPoly.make([1, 2], F2)
        assert f.degree == 0 and f.coeffs == (F2.one,)

    def test_int_coefficients_print_as_residues(self):
        assert str(UniPoly.make([3, 1], F2)) == "X + 1"

    def test_ints_equal_elements(self):
        for ring in (F2, F7, F4, QQ, CyclotomicField(3)):
            ints = [5, 0, 3, 1]
            assert UniPoly.make(ints, ring) == from_ints(ints, ring)

    def test_operations_on_int_coefficients(self):
        f = UniPoly.make([1, 1, 3], F2)  # X^2 + X + 1
        assert divmod(f, UniPoly.make([1, 1], F2)) == (
            UniPoly.make([0, 1], F2), UniPoly.make([1], F2))
        assert UniPoly.make([2, 3], F5).monic() == UniPoly.make([4, 1], F5)
        assert ext_gcd(f, UniPoly.make([0, 1], F2))[0] == UniPoly.make([1], F2)
        assert is_irreducible(f)

    def test_float_over_q(self):
        with pytest.raises(RingMismatch):
            UniPoly.make([1.5, 1], QQ)
        assert UniPoly.make([Fraction(3, 2), 1], QQ).coeffs == (Fraction(3, 2), Fraction(1))
        # CyclotomicField.from_residue reads its coefficients through make
        field = CyclotomicField(4)
        with pytest.raises(RingMismatch):
            field.from_residue([0.5, 1])
        assert field.from_residue([Fraction(1, 2), 1]) == field.from_rational(Fraction(1, 2)) + field.zeta

    def test_element_of_another_field(self):
        with pytest.raises(RingMismatch):
            UniPoly.make([F3.one, F2.one], F2)
        with pytest.raises(RingMismatch):
            UniPoly.make([Fraction(1, 2)], F3)


class TestExtGcd:
    def test_inverse_mod_phi3(self):
        g, u, v = ext_gcd(qpoly(-1, 1), qpoly(1, 1, 1))
        assert g == qpoly(1)
        assert u == UniPoly.make([Fraction(-2, 3), Fraction(-1, 3)], QQ)

    def test_equal_inputs(self):
        a = qpoly(1, 1)
        g, u, v = ext_gcd(a, a)
        assert g == a
        assert u * a + v * a == a

    def test_divisor_case_f5(self):
        # X^2 + 1 at X = 2 over F5: 4 + 1 = 0, so X - 2 divides it
        a = from_ints([1, 0, 1], F5)
        b = from_ints([-2, 1], F5)
        assert a.evaluate(F5.from_int(2)) == F5.zero
        g, u, v = ext_gcd(a, b)
        assert g == b.monic()
        assert u.is_zero
        assert v == UniPoly.constant(F5.one, F5)

    def test_both_zero_rejected(self):
        with pytest.raises(PreconditionError):
            ext_gcd(UniPoly.zero(QQ), UniPoly.zero(QQ))

    def test_degree_bounds_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = from_ints([rng.randrange(7) for _ in range(rng.randrange(1, 7))], F7)
            b = from_ints([rng.randrange(7) for _ in range(rng.randrange(1, 7))], F7)
            if a.is_zero and b.is_zero:
                continue
            g, u, v = ext_gcd(a, b)
            assert u * a + v * b == g
            assert g.is_monic
            if not b.is_zero and (b // g).degree > 0:
                assert u.degree < b.degree - g.degree


class TestIrreducibility:
    def test_phi3_mod2_irreducible(self):
        assert is_irreducible(from_ints([1, 1, 1], F2))

    def test_square_reducible(self):
        assert not is_irreducible(from_ints([1, 0, 1], F2))

    def test_phi3_mod7_reducible(self):
        f = from_ints([1, 1, 1], F7)
        # independent oracle: scan for roots
        roots = [a for a in range(7) if f.evaluate(F7.from_int(a)) == F7.zero]
        assert roots == [2, 4]
        assert not is_irreducible(f)

    def test_non_finite_field_rejected(self):
        with pytest.raises(PreconditionError):
            is_irreducible(qpoly(1, 1, 1))


class TestIrreducibilityAgainstSympy:
    """is_irreducible against sympy's Poly(..., modulus=p).is_irreducible
    (test-only dependency)."""

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_random_polynomials(self, p):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        field = PrimeField(p)
        rng = random.Random(900 + p)
        verdicts = set()
        for _ in range(150):
            degree = rng.randrange(1, 7)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            expected = sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible
            got = is_irreducible(from_ints(coeffs, field))
            assert got == expected, coeffs
            verdicts.add(got)
        assert verdicts == {True, False}


class TestFindIrreducible:
    def test_degree_one(self):
        assert find_irreducible(2, 1) == from_ints([0, 1], F2)

    def test_unique_quadratic_over_f2(self):
        # enumeration oracle: the only irreducible monic quadratic over F2
        def brute_irreducible(poly):
            return all(
                poly.evaluate(F2.from_int(a)) != F2.zero for a in range(2)
            )

        candidates = [
            from_ints([c0, c1, 1], F2) for c0 in range(2) for c1 in range(2)
        ]
        brute = [p for p in candidates if brute_irreducible(p)]
        assert len(brute) == 1
        assert find_irreducible(2, 2) == brute[0]
        assert brute[0] == from_ints([1, 1, 1], F2)

    def test_over_f3(self):
        assert find_irreducible(3, 2) == from_ints([1, 0, 1], F3)

    def test_result_is_irreducible(self):
        for p, r in [(2, 3), (3, 3), (5, 2), (13, 2)]:
            f = find_irreducible(p, r)
            assert f.degree == r and f.is_monic and is_irreducible(f)


class TestIntListPath:
    """F_p[X] on int residue lists: the Ben-Or test and the searches over a
    prime field, against a sieve of products, and the extended euclid
    behind ExtField.inv, against sympy."""

    @pytest.mark.parametrize("p, top", [(2, 8), (3, 5), (5, 3), (7, 3)])
    def test_every_monic_polynomial_against_the_element_path(self, p, top):
        field = PrimeField(p)
        verdicts = set()
        for degree in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=degree):
                f = from_ints([*tail, 1], field)
                got = is_irreducible(f)
                assert got == is_irreducible_reference(f), f
                assert is_irreducible(f.scale(field.from_int(p - 1))) == got
                verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p, r, expected", [
        (2, 12, "X^12 + X^3 + 1"),
        (2, 16, "X^16 + X^5 + X^3 + X + 1"),
        (2, 20, "X^20 + X^3 + 1"),
        (3, 10, "X^10 + 2*X^2 + 1"),
        (3, 12, "X^12 + X^2 + 2"),
        (3, 20, "X^20 + X^3 + 2*X + 1"),
        (5, 6, "X^6 + X + 2"),
        (7, 4, "X^4 + X + 1"),
    ])
    def test_find_irreducible_pinned(self, p, r, expected):
        f = find_irreducible(PrimeField(p), r)
        assert str(f) == expected
        assert f.ring is PrimeField(p) and all(c.field is PrimeField(p) for c in f.coeffs)
        assert find_irreducible(p, r) == f

    @pytest.mark.parametrize("p, r", [(2, 5), (3, 3), (5, 2), (7, 2)])
    def test_find_irreducible_is_the_first_in_scan_order(self, p, r):
        field = PrimeField(p)
        for tail in itertools.product(range(p), repeat=r):
            f = from_ints([*reversed(tail), 1], field)
            if is_irreducible_reference(f):
                break
        assert find_irreducible(field, r) == f

    def test_find_irreducible_over_a_large_prime(self):
        # the candidates are made one at a time: no table of p residues
        p = 2**31 - 1
        f = find_irreducible(p, 2)
        assert [c.residue for c in f.coeffs] == [1, 0, 1]
        assert not finite_field(p, 2).gen ** 2 + 1

    def test_ext_gcd_against_sympy_gcdex(self):
        # sympy's gcdex(h, f) = (s, t, g) with s*h + t*f = g monic, the
        # same normalized cofactors; list_ext_gcd returns (g, s, -t)
        # (test-only dependency)
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")

        def ints(poly, p):
            coeffs = [int(c) % p for c in reversed(poly.all_coeffs())]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            return coeffs

        rng = random.Random(71)
        for p in (2, 3, 7):
            field = PrimeField(p)
            for _ in range(60):
                f = [rng.randrange(p) for _ in range(rng.randrange(1, 7))] + [rng.randrange(1, p)]
                h = [rng.randrange(p) for _ in range(rng.randrange(0, 9))]
                s, t, g = sympy.Poly(list(reversed(h)) or [0], x, modulus=p).gcdex(
                    sympy.Poly(list(reversed(f)), x, modulus=p))
                expected = ints(g, p), ints(s, p), ints(t, p)
                assert rings.list_ext_gcd(f, h, field) == (*expected[:2], ints(-t, p))
                public = ext_gcd(from_ints(h, field), from_ints(f, field))
                assert public == tuple(from_ints(c, field) for c in expected)

    @pytest.mark.parametrize("field", [F4, F9, finite_field(2, 5), finite_field(3, 4)],
                             ids=repr)
    def test_inverse_of_every_element(self, field):
        for x in field.iter_elements():
            if x:
                y = field.inv(x)
                assert x * y == field.one and len(y.coeffs) == field.degree


class TestPrimitiveRoots:
    def test_examples(self):
        assert primitive_nth_root(3, F7).residue == 2
        assert primitive_nth_root(1, F7) == F7.one
        assert primitive_nth_root(4, F5).residue == 2

    def test_missing_subgroup(self):
        with pytest.raises(NoRootOfUnity):
            primitive_nth_root(3, F5)

    def test_char_divides(self):
        with pytest.raises(NoRootOfUnity):
            primitive_nth_root(7, F7)

    def test_geometric_sum_orthogonality(self):
        for field, n in [(F7, 6), (F5, 4), (F4, 3), (F9, 8), (PrimeField(13), 12)]:
            zeta = primitive_nth_root(n, field)
            for k in range(n):
                total = field.zero
                for ell in range(n):
                    total = total + zeta ** ((k * ell) % n)
                assert total == (field.from_int(n) if k == 0 else field.zero)

    def test_extension_field_root(self):
        zeta = primitive_nth_root(3, F4)
        assert zeta ** 3 == F4.one and zeta != F4.one
        # smallest qualifying element: Y itself precedes Y + 1
        assert zeta == F4.gen

    @pytest.mark.parametrize(
        "field, n",
        [(PrimeField(13), 12), (PrimeField(13), 4), (ExtField(F3, find_irreducible(3, 2)), 8)],
        ids=repr,
    )
    def test_root_cached_and_canonical(self, field, n):
        first = primitive_nth_root(n, field)
        assert primitive_nth_root(n, field) is first
        exact = [
            z for z in field.iter_elements()
            if z and z ** n == field.one
            and all(z ** (n // ell) != field.one for ell in prime_factors(n))
        ]
        assert first == min(exact, key=field.order_key)

    def test_missing_root_raises_every_time(self):
        field = PrimeField(11)
        for _ in range(2):
            with pytest.raises(NoRootOfUnity):
                field.primitive_nth_root(3)


# Q, Q(zeta_3), F7, F9 and the tower (F_2^2)^3, each with an exponent it holds
ROOT_TABLE_CASES = [
    (QQ, 2), (cyclotomic_field(3), 6), (F7, 6), (F9, 8), (F4_TOWER, 21),
]
ROOT_TABLE_IDS = [repr(f) for f, _ in ROOT_TABLE_CASES]


class TestRootTable:
    @pytest.mark.parametrize("field, n", ROOT_TABLE_CASES, ids=ROOT_TABLE_IDS)
    def test_one_table_per_field_and_exponent(self, field, n):
        table = root_table(n, field)
        assert root_table(n, field) is table is field._roots[n]
        zeta = primitive_nth_root(n, field)
        assert zeta is table[1]
        assert table == [zeta ** k for k in range(n)]

    @pytest.mark.parametrize("field", [f for f, _ in ROOT_TABLE_CASES], ids=ROOT_TABLE_IDS)
    @pytest.mark.parametrize("n", [0, -3])
    def test_orders_below_one_refused(self, field, n):
        for get in (root_table, primitive_nth_root):
            with pytest.raises(PreconditionError, match="order must be >= 1"):
                get(n, field)
        assert n not in field._roots

    @pytest.mark.parametrize("field", [f for f, _ in ROOT_TABLE_CASES], ids=ROOT_TABLE_IDS)
    @pytest.mark.parametrize("n", [0, -3])
    def test_descriptor_method_refuses_orders_below_one(self, field, n):
        with pytest.raises(PreconditionError, match="order must be >= 1"):
            field.primitive_nth_root(n)
        assert n not in field._roots

    @pytest.mark.parametrize("field, n", [(QQ, 3), (cyclotomic_field(3), 4), (F7, 7),
                                          (F9, 5), (F4_TOWER, 5)], ids=ROOT_TABLE_IDS)
    def test_missing_root_raises_every_call_and_keeps_nothing(self, field, n):
        for _ in range(2):
            for get in (root_table, primitive_nth_root):
                with pytest.raises(NoRootOfUnity):
                    get(n, field)
        assert n not in field._roots


def _cyclo(d):
    from groupfft.cyclotomic import cyclotomic_field

    return cyclotomic_field(d)


ELEMENT_FIELDS = [F7, F9, F4_TOWER, _cyclo(6)]


class TestFieldAxioms:
    @pytest.mark.parametrize(
        "field", [QQ, F7, F4, F9, F4_TOWER, _cyclo(5), _cyclo(6)], ids=repr
    )
    def test_axioms_on_random_triples(self, field):
        rng = random.Random(11)

        def rand():
            if field is QQ:
                return Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
            if not getattr(field, "is_finite", False):
                return field.from_residue(
                    [rng.randrange(-9, 10) for _ in range(field.degree)]
                )
            k = rng.randrange(field.order)
            if hasattr(field, "degree") and not isinstance(field, PrimeField):
                base_elems = list(field.base.iter_elements())
                coeffs = []
                for _ in range(field.degree):
                    k, rem = divmod(k, field.base.order)
                    coeffs.append(base_elems[rem])
                from groupfft.rings import ExtFieldElem

                return ExtFieldElem(tuple(coeffs), field)
            return field.from_int(k)

        for _ in range(1000):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero
            if b:
                assert b * field.inv(b) == field.one

        # the operator protocol: ints on either side, division, negative powers
        # (5 is a unit in every characteristic here)
        for _ in range(100):
            a, b = rand(), rand()
            assert a + 2 == 2 + a == a + field.from_int(2)
            assert 2 - a == -(a - 2) == field.from_int(2) - a
            assert 3 * a == a * 3 == a + a + a
            assert (a / 5) * 5 == a
            if b:
                assert a / b * b == a
                assert 5 / b == field.from_int(5) * field.inv(b)
                assert b ** -1 == field.inv(b)
                assert b ** -3 * b ** 3 == field.one

    def test_no_zero_divisors_in_extensions(self):
        rng = random.Random(3)
        for field in (F4, F9, ExtField(F5, find_irreducible(5, 2))):
            elems = list(field.iter_elements())
            nonzero = [e for e in elems if e]
            for _ in range(500):
                a, b = rng.choice(nonzero), rng.choice(nonzero)
                assert a * b

    def test_zero_inverse_rejected(self):
        for field in (QQ, F7, F4, *ELEMENT_FIELDS):
            with pytest.raises(NotInvertible):
                field.inv(field.zero)
        for field in ELEMENT_FIELDS:
            for divide in (
                lambda: field.one / field.zero,
                lambda: field.one / 0,
                lambda: 1 / field.zero,
                lambda: field.zero ** -1,
            ):
                with pytest.raises(NotInvertible):
                    divide()

    def test_mixed_operands_rejected(self):
        ops = (operator.add, operator.sub, operator.mul, operator.truediv)
        # one element class over two fields
        for a, b in [(F7.one, F5.one), (F9.gen, F4.gen), (F4_TOWER.gen, F4.gen),
                     (_cyclo(5).zeta, _cyclo(6).zeta)]:
            assert a != b
            for op in ops:
                with pytest.raises(RingMismatch):
                    op(a, b)
        # two element classes, or a scalar type the class does not take
        for a, b in [(F7.one, F9.one), (F9.one, _cyclo(6).one),
                     (_cyclo(6).one, F7.one), (F7.one, Fraction(1, 2))]:
            assert a != b
            for op in ops:
                with pytest.raises(TypeError):
                    op(a, b)
                with pytest.raises(TypeError):
                    op(b, a)


def _prime_base_extensions():
    return [finite_field(p, r) for p, r in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3))]


class TestIntResidueInverse:
    """ExtField.inv over a prime base runs extended euclid on int residues."""

    @pytest.mark.parametrize("field", _prime_base_extensions(), ids=repr)
    def test_every_nonzero_element(self, field):
        count = 0
        for x in field.iter_elements():
            if x:
                assert x * field.inv(x) == field.one
                count += 1
        assert count == field.order - 1

    def _sample(self, field, rng, k):
        return [
            ExtFieldElem(tuple(field.base.from_int(rng.randrange(field.base.order))
                               for _ in range(field.degree)), field)
            for _ in range(k)
        ]

    def test_degree_twenty(self):
        field = finite_field(3, 20)
        rng = random.Random(20)
        for x in self._sample(field, rng, 200):
            if x:
                assert x * field.inv(x) == field.one

    @pytest.mark.parametrize("p,r", [(2, 6), (3, 20), (7, 4)])
    def test_agrees_with_sympy_invert(self, p, r):
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        field = finite_field(p, r)

        def to_sympy(coeffs):
            return sum(int(c) * y ** k for k, c in enumerate(coeffs))

        modulus = to_sympy(c.residue for c in field.modulus.coeffs)
        rng = random.Random(p * 100 + r)
        for x in self._sample(field, rng, 25):
            if not x:
                continue
            expected = sympy.Poly(
                sympy.invert(to_sympy(c.residue for c in x.residue), modulus, modulus=p),
                y, modulus=p,
            )
            got = [c.residue for c in field.inv(x).residue]
            want = [int(c) % p for c in reversed(expected.all_coeffs())]
            assert got == want + [0] * (r - len(want))

    @pytest.mark.parametrize("field", _prime_base_extensions(), ids=repr)
    def test_zero_rejected(self, field):
        with pytest.raises(NotInvertible):
            field.inv(field.zero)


class TestEqualityWithInts:
    """F_p and F_{p^r} elements never equal an int.  A coercing == could not
    keep the hash contract: F7(3) would equal both 3 and 10, which differ."""

    def test_finite_field_elements_are_not_ints(self):
        assert F7.zero != 0 and not F7.zero
        assert F7.one != 1 and F7.one
        assert F9.one != 1 and F9.zero != 0 and not F9.zero
        assert F7.from_int(3) != 3 and F7.from_int(3) != 10
        # arithmetic still coerces ints
        assert F7.one + 1 == F7.from_int(2)

    def test_rational_cyclotomic_elements_equal_their_value(self):
        k = _cyclo(5)
        assert k.zero == 0 and k.one == 1 and hash(k.one) == hash(1)
        assert k.zeta != 1


class TestCanonicalDescriptors:
    """Equal fields are one descriptor, whichever route builds them."""

    def test_every_route_gives_one_object(self):
        f9 = finite_field(3, 2)
        assert PrimeField(3) is finite_field(3, 1) is f9.base is F3
        assert ExtField(PrimeField(3), find_irreducible(3, 2)) is f9 is F9
        assert splitting_field(F3, 8)[0] is f9  # ord_8(3) = 2
        assert parse_field_descriptor("F9") is f9
        assert parse_field_descriptor("Fq:3^2") is f9
        assert parse_field_descriptor("Fp:3") is F3
        k12 = cyclotomic_field(12)
        assert CyclotomicField(12) is k12 is parse_field_descriptor("Qzeta:12")
        assert splitting_field(cyclotomic_field(3), 4)[0] is k12
        assert RationalField() is QQ is parse_field_descriptor("Q")

    def test_failed_constructions_register_nothing(self):
        reducible = from_ints([2, 0, 1], F3)  # X^2 - 1 over F3
        calls = {
            (PrimeField, 4): lambda: PrimeField(4),
            (ExtField, F3, reducible): lambda: ExtField(F3, reducible),
            (CyclotomicField, 0): lambda: CyclotomicField(0),
        }
        for key, call in calls.items():
            for _ in range(2):
                with pytest.raises(PreconditionError):
                    call()
            assert key not in rings._descriptors

    def test_two_moduli_give_two_fields(self):
        a_mod, b_mod = from_ints([1, 0, 1], F3), from_ints([2, 1, 1], F3)
        a, b = ExtField(F3, a_mod), ExtField(F3, b_mod)
        assert a is not b and a.order == b.order == 9
        assert ExtField(F3, from_ints([1, 0, 1], F3)) is a
        assert a.one != b.one and a.gen != b.gen
        with pytest.raises(RingMismatch):
            a.gen + b.gen
        with pytest.raises(RingMismatch):
            a.one * b.one


class TestFormatting:
    def test_examples_from_format(self):
        assert format_unipoly(x_pow_minus_one(3, QQ)) == "X^3 - 1"
        p = UniPoly.make([Fraction(-2, 3), Fraction(-1, 3)], QQ)
        assert format_unipoly(p) == "-1/3*X - 2/3"
        assert format_unipoly(UniPoly.zero(QQ)) == "0"
        assert format_unipoly(from_ints([1, 1, 1], F2)) == "X^2 + X + 1"

    def test_powmod(self):
        f = from_ints([1, 1, 1], F2)
        h = poly_powmod(UniPoly.gen(F2), 4, f)
        # X^4 = X mod (X^2+X+1) since roots have order 3
        assert h == UniPoly.gen(F2) % f


class TestSquareAndMultiply:
    def test_counts_products(self):
        # x^k on exponents: a product adds them, and a fresh tuple per
        # product tells a squaring (both operands one object) from the rest
        for k in range(1, 65):
            squarings = others = 0

            def mul(a, b):
                nonlocal squarings, others
                assert a[0] and b[0], "a product by one"
                if a is b:
                    squarings += 1
                else:
                    others += 1
                return (a[0] + b[0],)

            assert square_and_multiply((1,), k, mul) == (k,)
            assert squarings == k.bit_length() - 1
            assert others == bin(k).count("1") - 1

    def test_callers_against_repeated_products(self):
        f9, q5 = finite_field(3, 2), cyclotomic_field(5)
        x = MultiPoly.variable("X", ("X", "Y"), F7)
        y = MultiPoly.variable("Y", ("X", "Y"), F7)
        mod = from_ints([2, 0, 1, 1], F5)
        base = from_ints([1, 3, 0, 4, 2], F5)
        matrix = [[F7.from_int(2), F7.one], [F7.from_int(5), F7.from_int(3)]]
        for k in range(0, 19):
            for elem in (f9.gen + f9.one, q5.zeta - 2, F4_TOWER.gen):
                expected = elem.field.one
                for _ in range(k):
                    expected = expected * elem
                assert elem ** k == expected
            poly = UniPoly.constant(F5.one, F5)
            multi = MultiPoly.constant(F7.one, x.variables, F7)
            power = identity_matrix(2, F7)
            for _ in range(k):
                poly = poly * base
                multi = multi * (x + y * 3)
                power = mat_mul(power, matrix, F7)
            assert base ** k == poly and poly_powmod(base, k, mod) == poly % mod
            assert (x + y * 3) ** k == multi
            assert mat_pow(matrix, k, F7) == power
        # a negative exponent, where the old loops never ended
        with pytest.raises(PreconditionError):
            poly_powmod(base, -1, mod)
        with pytest.raises(PreconditionError):
            mat_pow(matrix, -1, F7)


class TestChecksUnderO:
    """The identity checks of rings raise VerificationError under
    ``python -O`` too, each fed a corrupted collaborator."""

    def test_bezout_recheck(self):
        # a division whose first remainder is off by one
        setup = """
            import groupfft.rings as r
            from groupfft.rings import QQ, UniPoly
            right = r.list_divmod
            calls = []
            def wrong(a, b, field):
                q, rem = right(a, b, field)
                calls.append(b)
                return (q, [(rem[0] if rem else QQ.zero) + 1] + rem[1:]) if len(calls) == 1 else (q, rem)
            r.list_divmod = wrong
            a = UniPoly.make([QQ.one, QQ.zero, QQ.one], QQ)
            b = UniPoly.make([QQ.from_int(-2), QQ.one], QQ)
        """
        assert check_under_o("r.ext_gcd(a, b)", setup) == "raised: Bezout identity recheck failed"

    def test_bezout_recheck_on_int_lists(self):
        # the euclid of is_irreducible, its first remainder by a divisor
        # below the degree-4 modulus off by one: over F_3 on int residues,
        # and over F_4 on elements
        setup = """
            import groupfft.rings as r
            F3, F4 = r.PrimeField(3), r.finite_field(2, 2)
            right = r.list_divmod
            def corrupting(target, zero, one):
                calls = []
                def wrong(a, b, field):
                    q, rem = right(a, b, field)
                    if field is target and len(b) < 5:
                        calls.append(b)
                        if len(calls) == 1:
                            rem = right([(rem[0] if rem else zero) + one] + rem[1:], b, field)[1]
                    return q, rem
                r.list_divmod = wrong
        """
        over_f3 = """
            corrupting(F3, 0, 1)
            f = r.UniPoly.make([1, 0, 2, 0, 1], F3)
        """
        over_f4 = """
            corrupting(F4, F4.zero, F4.one)
            f = r.UniPoly.make([1, 0, 1, 0, 1], F4)
        """
        for over in (over_f3, over_f4):
            assert (check_under_o("r.is_irreducible(f)", setup, over)
                    == "raised: Bezout identity recheck failed")

    def test_gcd_degree_of_an_inverse(self):
        # a tower over F4 built on the reducible X^2 + 1 = (X + 1)^2
        setup = """
            import groupfft.rings as r
            f4 = r.finite_field(2, 2)
            r.is_irreducible = lambda f: True
            bad = r.ExtField(f4, r.UniPoly.make([f4.one, f4.zero, f4.one], f4))
        """
        assert (check_under_o("bad.inv(bad.gen + bad.one)", setup)
                == "raised: modulus not coprime to nonzero residue")

    @pytest.mark.parametrize("n, root", [(3, 3), (6, 2)], ids=["not-a-root", "not-primitive"])
    def test_root_of_unity_order(self, n, root):
        # an F7 whose canonical root is 3 (of order 6) or 2 (of order 3)
        setup = f"""
            import groupfft.rings as r
            class Wrong(r.PrimeField):
                def primitive_nth_root(self, n):
                    return self.from_int({root})
        """
        assert (check_under_o(f"r.primitive_nth_root({n}, Wrong(7))", setup)
                == f"raised: {root} is not a primitive {n}-th root of unity in F7")

    @pytest.mark.parametrize("over, name", [("F3", "F3"), ("F4", "F2^2")])
    def test_no_irreducible_found(self, over, name):
        # a Ben-Or test that rejects every candidate, on int residues over
        # F3 and on elements over F4
        setup = """
            import groupfft.rings as r
            F3, F4 = r.PrimeField(3), r.finite_field(2, 2)
            r.list_is_irreducible = lambda coeffs, field: False
        """
        assert (check_under_o(f"r.find_irreducible({over}, 2)", setup)
                == f"raised: no monic irreducible polynomial of degree 2 over {name}")

    def test_no_element_of_order_n(self):
        # an F13 whose only candidate for a generator is zero
        setup = """
            import groupfft.rings as r
            class Wrong(r.PrimeField):
                def iter_elements(self):
                    return iter([self.zero])
        """
        assert (check_under_o("r.primitive_nth_root(4, Wrong(13))", setup)
                == "raised: F13 has no element of order 4, though n divides q - 1")
