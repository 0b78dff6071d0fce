"""The residue kernel: products in F_p[Y]/(m), towers and Q[X]/(Phi_d).

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
from groupfft.rings import (
    QQ,
    ExtField,
    PrimeField,
    UniPoly,
    find_irreducible,
    reduction_table,
)

from helpers import CYCLO_CONDUCTORS, is_canonical, random_cyclo, random_elem, sympy_poly

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
            expected = UniPoly.gen_pow(k, QQ) % phi
            assert UniPoly.make([Fraction(c) for c in row], QQ) == expected


class TestExtFieldProducts:
    @pytest.mark.parametrize("field", EXT_FIELDS, ids=repr)
    def test_products_match_polynomial_remainder(self, field):
        rng = random.Random(field.order)
        samples = [field.zero, field.one, field.gen] + [
            random_elem(field, rng) for _ in range(40)
        ]
        _check_products(field, samples, rng)


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
