"""Residue products in F_p[Y]/(m), towers and Q[X]/(Phi_d).

Every product is compared with the generic polynomial route, the product
of the two residue polynomials followed by a division by the modulus; in
Q(zeta_d), sums and differences too, and every result must be canonical
(a positive denominator prime to the integer numerators).  A few cases are
also checked against sympy, an implementation the library does not share
(test-only dependency; those tests skip without it).
"""

import operator
import random
from fractions import Fraction

import pytest

from groupfft.cyclotomic import CycloElem, cyclotomic_field, cyclotomic_polynomial
from groupfft.errors import PreconditionError, RingMismatch
from groupfft.rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    PrimeField,
    PrimeFieldElem,
    UniPoly,
    find_irreducible,
    finite_field,
    primitive_nth_root,
    reduction_table,
)

from helpers import (
    CYCLO_CONDUCTORS,
    gen_pow,
    is_canonical,
    random_cyclo,
    random_elem,
    sympy_poly,
)

F4 = ExtField(PrimeField(2), find_irreducible(2, 2))
EXT_FIELDS = [
    F4,
    ExtField(PrimeField(2), find_irreducible(2, 3)),
    ExtField(PrimeField(3), find_irreducible(3, 2)),
    ExtField(PrimeField(5), find_irreducible(5, 2)),
    ExtField(PrimeField(2), find_irreducible(2, 6)),
    ExtField(PrimeField(3), find_irreducible(3, 4)),
    ExtField(F4, find_irreducible(F4, 3)),
]
CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 30]


def _reference(a, b, op=operator.mul):
    """Residue of op(a, b) by the generic route: the operation on the two
    residue polynomials, then the remainder by the modulus."""
    field = a.field
    rem = op(a.poly, b.poly) % field.modulus
    return rem.coeffs + (field.base.zero,) * (field.degree - len(rem.coeffs))


def _check_products(field, samples, rng):
    for a in samples:
        for b in rng.sample(samples, 8):
            product = a * b
            assert product.field is field
            assert product.residue == _reference(a, b)


class TestReductionTable:
    @pytest.mark.parametrize("d", CONDUCTORS)
    def test_rows_are_powers_mod_phi(self, d):
        phi = cyclotomic_polynomial(d)
        r = phi.degree
        table = reduction_table([int(c) for c in phi.coeffs], 0)
        assert len(table) == r - 1
        for k, row in enumerate(table, start=r):
            expected = gen_pow(k, QQ) % phi
            assert UniPoly.make([Fraction(c) for c in row], QQ) == expected


class TestExtFieldProducts:
    @pytest.mark.parametrize("field", EXT_FIELDS, ids=repr)
    def test_products_match_polynomial_remainder(self, field):
        rng = random.Random(field.order)
        samples = [field.zero, field.one, field.gen] + [
            random_elem(field, rng) for _ in range(40)
        ]
        _check_products(field, samples, rng)


class TestPrimeBaseRepresentation:
    """An element of F_p[Y]/(m) holds its coefficients as ints in [0, p);
    ``residue`` is the tuple of F_p elements, built on demand.  A tower
    keeps base-field elements as its coefficients."""

    @pytest.mark.parametrize("field", EXT_FIELDS[:6], ids=repr)
    def test_constructor_matches_arithmetic(self, field):
        p, r = field.characteristic, field.degree
        rng = random.Random(400 + field.order)
        for _ in range(20):
            ints = [rng.randrange(p) for _ in range(r)]
            built = ExtFieldElem(tuple(field.base.from_int(c) for c in ints), field)
            by_arithmetic = field.zero
            for k, c in enumerate(ints):
                by_arithmetic = by_arithmetic + c * field.gen ** k
            assert built == by_arithmetic and hash(built) == hash(by_arithmetic)
            assert built.coeffs == tuple(ints)
            assert all(type(c) is int for c in (built * built).coeffs)

    @pytest.mark.parametrize("field", EXT_FIELDS[:6], ids=repr)
    def test_residue_is_a_tuple_of_base_elements(self, field):
        rng = random.Random(500 + field.order)
        for x in [field.zero, field.one, field.gen] + [random_elem(field, rng) for _ in range(10)]:
            residue = x.residue
            assert type(residue) is tuple and len(residue) == field.degree
            assert all(type(c) is PrimeFieldElem and c.field is field.base for c in residue)
            assert tuple(c.residue for c in residue) == x.coeffs
            assert x.poly == UniPoly.make(residue, field.base)
        assert field.from_int(3).constant == field.base.from_int(3)

    def test_equal_but_distinct_base_descriptor(self):
        # there is none: building F_3 again gives the base itself
        field = finite_field(3, 2)
        other = PrimeField(3)
        assert other is field.base
        for k in range(3):
            x = field.from_base(other.from_int(k))
            assert x.field is field and x == field.from_int(k)
        y = ExtFieldElem((other.from_int(2), other.from_int(1)), field)
        assert y == 2 + field.gen
        with pytest.raises(RingMismatch):
            field.from_base(PrimeField(5).one)
        with pytest.raises(RingMismatch):
            ExtFieldElem((PrimeField(5).one, other.zero), field)

    # (p, r): the modulus, then n -> coefficients of the canonical
    # primitive n-th root, constant term first
    CANONICAL = {
        (3, 2): ([1, 0, 1], {8: [1, 1], 4: [0, 1], 2: [2, 0]}),
        (2, 6): ([1, 1, 0, 0, 0, 0, 1], {
            63: [0, 1, 0, 0, 0, 0], 21: [1, 1, 0, 0, 0, 0], 9: [0, 1, 1, 0, 0, 0],
            7: [0, 1, 1, 1, 0, 0], 3: [0, 1, 0, 1, 1, 1]}),
        (3, 4): ([2, 1, 0, 0, 1], {
            80: [0, 1, 0, 0], 16: [0, 2, 1, 0], 10: [1, 0, 1, 0], 5: [2, 0, 2, 0]}),
        (3, 20): ([1, 2, 0, 1] + [0] * 16 + [1], {
            4: [0, 2, 2, 2, 2, 2, 2, 1, 2, 1, 0, 0, 1, 1, 1, 2, 1, 2, 0, 1],
            5: [2, 1, 2, 0, 2, 0, 1, 1, 2, 2, 2, 2, 0, 1, 1, 2, 2, 0, 2, 0],
            61: [2, 0, 1, 0, 1, 1, 2, 2, 0, 2, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0]}),
    }

    @pytest.mark.parametrize("p,r", CANONICAL)
    def test_canonical_roots_are_pinned(self, p, r):
        modulus, roots = self.CANONICAL[p, r]
        field = finite_field(p, r)
        assert [c.residue for c in field.modulus.coeffs] == modulus
        for n, coeffs in roots.items():
            zeta = primitive_nth_root(n, field)
            assert [c.residue for c in zeta.residue] == coeffs

    def test_tower_is_pinned(self):
        f4 = finite_field(2, 2)
        tower = ExtField(f4, find_irreducible(f4, 3))
        assert str(tower.modulus) == "X^3 + (Y)"
        assert all(type(c) is ExtFieldElem and c.field is f4 for c in tower.gen.coeffs)
        assert tower.gen.residue == tower.gen.coeffs

        def nested(x):
            return tuple(c.coeffs for c in x.coeffs)

        for n, expected in [(63, ((1, 0), (1, 0), (0, 0))), (21, ((0, 0), (1, 0), (1, 0))),
                            (7, ((0, 0), (1, 1), (1, 0))), (3, ((0, 1), (0, 0), (0, 0)))]:
            assert nested(primitive_nth_root(n, tower)) == expected
        assert nested(tower.inv(tower.gen + 1)) == ((0, 1), (0, 1), (0, 1))
        keys = [tower.order_key(x) for x in tower.iter_elements()]
        assert len(keys) == 64 and keys == sorted(keys)


class TestIntCoords:
    """int_coords flattens an element to ints and from_int_coords reads
    them back, modulo p in a finite field."""

    @pytest.mark.parametrize("field", [PrimeField(7), *EXT_FIELDS], ids=repr)
    def test_round_trip_in_finite_fields(self, field):
        rng = random.Random(11)
        p = field.characteristic
        for _ in range(30):
            x = random_elem(field, rng)
            ints = field.int_coords(x)
            assert all(isinstance(k, int) and 0 <= k < p for k in ints)
            assert field.from_int_coords(ints) == x
            assert field.from_int_coords([k + 3 * p for k in ints]) == x

    def test_tower_flattens_each_coefficient_in_turn(self):
        tower = EXT_FIELDS[-1]
        x = random_elem(tower, random.Random(3))
        assert tower.int_coords(x) == [k for c in x.coeffs for k in F4.int_coords(c)]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
    def test_algebraic_integers_of_q_zeta(self, d):
        k = cyclotomic_field(d)
        rng = random.Random(d)
        for _ in range(20):
            x = k.from_residue([rng.randrange(-9, 10) for _ in range(k.degree)])
            assert k.int_coords(x) == list(x.num)
            assert k.from_int_coords(k.int_coords(x)) == x

    def test_q_zeta_refuses_a_denominator(self):
        k = cyclotomic_field(5)
        with pytest.raises(PreconditionError):
            k.int_coords(k.from_rational(Fraction(1, 2)))

    def test_q_reads_integers_only(self):
        for k in (-7, 0, 1, 1 << 70):
            assert QQ.int_coords(Fraction(k)) == [k]
            assert QQ.from_int_coords([k]) == Fraction(k)
            assert type(QQ.from_int_coords([k])) is Fraction
        with pytest.raises(PreconditionError):
            QQ.int_coords(Fraction(1, 2))


class TestCycloProducts:
    """Q(zeta_d) against the same reference, one case per conductor."""

    @pytest.mark.parametrize("d", CONDUCTORS)
    def test_products_match_polynomial_remainder(self, d):
        field = cyclotomic_field(d)
        rng = random.Random(d)
        samples = [field.zero, field.one, field.zeta] + [
            random_cyclo(field, rng) for _ in range(30)
        ]
        for x in samples:
            assert len(x.residue) == field.degree
            assert all(type(c) is Fraction for c in x.residue)
        _check_products(field, samples, rng)

    @pytest.mark.parametrize("d", CYCLO_CONDUCTORS)
    def test_every_operator_gives_canonical_numerators(self, d):
        field = cyclotomic_field(d)
        rng = random.Random(300 + d)
        samples = [random_cyclo(field, rng) for _ in range(20)]
        assert sum(x.den != 1 for x in samples) >= 4
        for a in samples:
            assert is_canonical(a)
            for b in rng.sample(samples, 6):
                for op in (operator.add, operator.sub, operator.mul):
                    got = op(a, b)
                    assert type(got) is CycloElem and is_canonical(got)
                    assert got.residue == _reference(a, b, op)
            for got, expected in [
                (-a, [-c for c in a.residue]),
                (a + 3, [a.residue[0] + 3, *a.residue[1:]]),
                (Fraction(-2, 9) * a, [Fraction(-2, 9) * c for c in a.residue]),
                (a - a, [0] * field.degree),
            ]:
                assert is_canonical(got) and list(got.residue) == expected

    def test_scalar_operands(self):
        field = cyclotomic_field(5)
        a = field.from_residue([Fraction(1, 2), Fraction(-3, 4), 0, Fraction(5, 6)])
        assert (a * Fraction(2, 3)).residue == tuple(c * Fraction(2, 3) for c in a.residue)
        assert (3 * a).residue == tuple(3 * c for c in a.residue)
        assert a * 0 == field.zero


class TestAgainstSympy:
    @pytest.mark.parametrize("d", CYCLO_CONDUCTORS)
    def test_cyclotomic_products(self, d):
        """Sums, differences and products against sympy.rem modulo Phi_d."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        field = cyclotomic_field(d)
        rng = random.Random(100 + d)
        phi = sympy.cyclotomic_poly(d, x)
        for _ in range(10):
            a, b = random_cyclo(field, rng), random_cyclo(field, rng)
            pa, pb = sympy_poly(sympy, a.residue, x), sympy_poly(sympy, b.residue, x)
            for op in (operator.add, operator.sub, operator.mul):
                expected = sympy.rem(sympy.expand(op(pa, pb)), phi, x)
                got = sympy_poly(sympy, op(a, b).residue, x)
                assert sympy.expand(expected - got) == 0

    @pytest.mark.parametrize("field", EXT_FIELDS[:6], ids=repr)
    def test_prime_base_products(self, field):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        p = field.characteristic
        modulus = sympy.Poly([c.residue for c in reversed(field.modulus.coeffs)], x, modulus=p)
        rng = random.Random(200 + field.order)
        for _ in range(10):
            a, b = random_elem(field, rng), random_elem(field, rng)
            pa = sympy.Poly([c.residue for c in reversed(a.residue)], x, modulus=p)
            pb = sympy.Poly([c.residue for c in reversed(b.residue)], x, modulus=p)
            rem = (pa * pb).rem(modulus)
            expected = [int(c) % p for c in reversed(rem.all_coeffs())]
            expected += [0] * (field.degree - len(expected))
            assert [c.residue for c in (a * b).residue] == expected
