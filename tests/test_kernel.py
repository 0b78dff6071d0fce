"""The residue kernel: products in F_p[Y]/(m), towers and Q[X]/(Phi_d).

Every product is compared with the generic polynomial route, the product
of the two residue polynomials followed by a division by the modulus.
A few cases are also checked against sympy, an implementation the library
does not share (test-only dependency; those tests skip without it).
"""

import random
from fractions import Fraction

import pytest

from groupfft.cyclotomic import cyclotomic_field, cyclotomic_polynomial
from groupfft.rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    PrimeField,
    UniPoly,
    find_irreducible,
    reduction_table,
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


def _random_ext(field, rng):
    base = field.base
    if isinstance(base, PrimeField):
        coeffs = [base.from_int(rng.randrange(base.p)) for _ in range(field.degree)]
    else:
        coeffs = [_random_ext(base, rng) for _ in range(field.degree)]
    return ExtFieldElem(tuple(coeffs), field)


def _reference(a, b):
    """Residue of a * b by the generic route: UniPoly product, then remainder."""
    field = a.field
    rem = (a.poly * b.poly) % field.modulus
    return rem.coeffs + (field.base.zero,) * (field.degree - len(rem.coeffs))


def _check_products(field, samples, rng):
    for a in samples:
        for b in rng.sample(samples, 8):
            product = a * b
            assert product.field is field
            assert product.residue == _reference(a, b)


def _random_cyclo(field, rng):
    coeffs = []
    for _ in range(field.degree):
        roll = rng.random()
        if roll < 0.2:
            coeffs.append(Fraction(0))
        elif roll < 0.6:
            coeffs.append(Fraction(rng.randrange(-20, 21), rng.randrange(1, 13)))
        else:
            coeffs.append(Fraction(rng.randrange(-9, 10)))
    return field.from_residue(coeffs)


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
            _random_ext(field, rng) for _ in range(40)
        ]
        _check_products(field, samples, rng)


class TestCycloProducts:
    """Q(zeta_d) against the same reference, one case per conductor."""

    @pytest.mark.parametrize("d", CONDUCTORS)
    def test_products_match_polynomial_remainder(self, d):
        field = cyclotomic_field(d)
        rng = random.Random(d)
        samples = [field.zero, field.one, field.zeta] + [
            _random_cyclo(field, rng) for _ in range(30)
        ]
        for x in samples:
            assert len(x.residue) == field.degree
            assert all(type(c) is Fraction for c in x.residue)
        _check_products(field, samples, rng)

    def test_scalar_operands(self):
        field = cyclotomic_field(5)
        a = field.from_residue([Fraction(1, 2), Fraction(-3, 4), 0, Fraction(5, 6)])
        assert (a * Fraction(2, 3)).residue == tuple(c * Fraction(2, 3) for c in a.residue)
        assert (3 * a).residue == tuple(3 * c for c in a.residue)
        assert a * 0 == field.zero


def _sympy_poly(sympy, coeffs, x):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))


class TestAgainstSympy:
    @pytest.mark.parametrize("d", [3, 7, 12, 15, 30])
    def test_cyclotomic_products(self, d):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        field = cyclotomic_field(d)
        rng = random.Random(100 + d)
        phi = sympy.cyclotomic_poly(d, x)
        for _ in range(10):
            a, b = _random_cyclo(field, rng), _random_cyclo(field, rng)
            expected = sympy.rem(
                _sympy_poly(sympy, a.residue, x) * _sympy_poly(sympy, b.residue, x),
                phi,
                x,
            )
            got = _sympy_poly(sympy, (a * b).residue, x)
            assert sympy.expand(expected - got) == 0

    @pytest.mark.parametrize("field", EXT_FIELDS[:6], ids=repr)
    def test_prime_base_products(self, field):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        p = field.characteristic
        modulus = sympy.Poly([c.residue for c in reversed(field.modulus.coeffs)], x, modulus=p)
        rng = random.Random(200 + field.order)
        for _ in range(10):
            a, b = _random_ext(field, rng), _random_ext(field, rng)
            pa = sympy.Poly([c.residue for c in reversed(a.residue)], x, modulus=p)
            pb = sympy.Poly([c.residue for c in reversed(b.residue)], x, modulus=p)
            rem = (pa * pb).rem(modulus)
            expected = [int(c) % p for c in reversed(rem.all_coeffs())]
            expected += [0] * (field.degree - len(expected))
            assert [c.residue for c in (a * b).residue] == expected
