"""Vandermonde values, determinant factorizations, cyclotomic cosets."""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from functools import lru_cache
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest

from groupfft import factorize
from groupfft.abelian import AbelianGroup, Character
from groupfft.cyclotomic import (
    CycloElem,
    cyclotomic_field,
    cyclotomic_polynomial,
    splitting_field,
)
from groupfft.errors import PreconditionError, VerificationError
from groupfft.factorize import (
    FORM_PRODUCT_CAP,
    FactorEntry,
    FactoredDeterminant,
    Verification,
    _abelian_matrix,
    _product_of_forms,
    _translates,
    _translations,
    det_over_finite_field,
    det_over_rationals,
    det_split_field,
    factor_cyclotomic,
    factor_group_determinant,
    factor_xn_minus_one,
    norm_form,
    q_cyclotomic_cosets,
    vandermonde_det,
    verify_product_identity,
)
from groupfft.multipoly import MultiPoly, Packing
from groupfft.transform import GroupVector, group_matrix, group_variables
from groupfft.numtheory import divisors, euler_phi, multiplicative_order
from groupfft.rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    PrimeField,
    PrimeFieldElem,
    UniPoly,
    find_irreducible,
    finite_field,
    is_irreducible,
    primitive_nth_root,
    root_table,
    x_pow_minus_one,
)

from helpers import (
    all_groups_of_order_up_to,
    character_forms_reference,
    check_under_o,
    coset_product_reference,
    factored_product_reference,
    from_ints,
    orbit_factors_reference,
    product_of_forms_reference,
    random_cyclo,
    random_elem,
    sympy_multipoly,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


class TestVandermonde:
    def test_delta_1_and_2(self):
        assert vandermonde_det(1, QQ) == Fraction(1)
        assert vandermonde_det(2, QQ) == Fraction(-2)

    def test_delta_3(self):
        k = cyclotomic_field(3)
        j = k.zeta
        assert vandermonde_det(3, k) == k.from_int(3) * j * (j - k.one)

    def test_delta_4_sign(self):
        # the displayed 4x4 root-of-unity matrix has determinant -16i: the
        # product formula, direct expansion, and elimination all agree
        k = cyclotomic_field(4)
        i = k.zeta
        assert vandermonde_det(4, k) == k.from_int(-16) * i

    def test_finite_field(self):
        # C_3 over F_7 with zeta = 2: det [[1,1,1],[1,2,4],[1,4,2]]
        value = vandermonde_det(3, F7)
        # hand expansion: 1*(4-16) - 1*(2-4) + 1*(4-2) = -12 + 2 + 2 = -8 = 6 mod 7
        assert value == F7.from_int(-8)


class TestSplitField:
    def test_c3(self):
        fd = det_split_field(AbelianGroup.cyclic(3))
        field = fd.field
        j = field.zeta
        variables = fd.variables
        expected = [
            {"X_0": field.one, "X_1": field.one, "X_2": field.one},
            {"X_0": field.one, "X_1": j, "X_2": j * j},
            {"X_0": field.one, "X_1": j * j, "X_2": j},
        ]
        got = [e.poly for e in fd.factors]
        want = [MultiPoly.linear(c, variables, field) for c in expected]
        assert got == want

    def test_c1(self):
        fd = det_split_field(AbelianGroup.cyclic(1))
        assert len(fd.factors) == 1
        assert str(fd.factors[0].poly) == "X_0"

    def test_c2(self):
        fd = det_split_field(AbelianGroup.cyclic(2))
        prod = fd.product()
        variables = fd.variables
        x0 = MultiPoly.variable("X_0", variables, fd.field)
        x1 = MultiPoly.variable("X_1", variables, fd.field)
        assert prod == x0 * x0 - x1 * x1

    def test_identity_coefficient_is_one(self):
        field = cyclotomic_field(6)
        fd = det_split_field(AbelianGroup((2, 6)), field)
        identity = (1,) + (0,) * 11
        for entry in fd.factors:
            assert entry.poly.terms[identity] == field.one


F64_TOWER = ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 3))


class TestSplitFieldAgainstCharacterColumns:
    """det_split_field emits each character's form from one exponent row
    of _product_of_forms; the columns of the character matrix give the
    same forms (helpers.character_forms_reference)."""

    @pytest.mark.parametrize("divs", [(1,), (2, 2), (2, 6), (3, 3), (4, 4), (2, 2, 2)],
                             ids=lambda d: "x".join(f"C{x}" for x in d))
    def test_default_cyclotomic_field(self, divs):
        group = AbelianGroup(divs)
        fd = det_split_field(group)
        assert fd.field is cyclotomic_field(group.exponent)
        assert [e.poly for e in fd.factors] == character_forms_reference(group, fd.field)

    @pytest.mark.parametrize("divs, field", [
        ((2,), QQ), ((2, 2), QQ), ((8,), PrimeField(17)), ((2, 4), F5),
        ((5,), finite_field(2, 4)), ((7,), finite_field(2, 3)), ((7,), F64_TOWER),
    ], ids=["C2-Q", "C2xC2-Q", "C8-F17", "C2xC4-F5", "C5-F16", "C7-F8", "C7-F4tower"])
    def test_given_field(self, divs, field):
        group = AbelianGroup(divs)
        fd = det_split_field(group, field)
        assert fd.field is field
        assert all(e.poly.ring is field for e in fd.factors)
        assert [e.poly for e in fd.factors] == character_forms_reference(group, field)

    def test_c8_over_f17_as_over_finite_field(self):
        """17 = 1 mod 8: every coset is one label, so the factors over F_17
        are the split forms, in the same order."""
        field = PrimeField(17)
        split = det_split_field(AbelianGroup.cyclic(8), field)
        cosets = det_over_finite_field(8, field)
        assert [e.poly for e in split.factors] == [e.poly for e in cosets.factors]


class TestOverRationals:
    def test_n3_worked_example(self):
        fd = det_over_rationals(3)
        variables = fd.variables
        x0, x1, x2 = (MultiPoly.variable(v, variables, QQ) for v in variables)
        assert fd.factors[0].poly == x0 + x1 + x2
        assert fd.factors[1].poly == (
            x0 * x0 + x1 * x1 + x2 * x2 - x0 * x1 - x1 * x2 - x2 * x0
        )

    def test_n1(self):
        fd = det_over_rationals(1)
        assert str(fd.factors[0].poly) == "X_0"

    def test_n2(self):
        fd = det_over_rationals(2)
        assert [str(e.poly) for e in fd.factors] == ["X_0 + X_1", "X_0 - X_1"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_factor_count_and_degrees(self, n):
        fd = det_over_rationals(n)
        assert len(fd.factors) == len(divisors(n))
        total = 0
        for e in fd.factors:
            assert e.poly.is_homogeneous(euler_phi(e.divisor))
            assert e.claimed_irreducible
            total += euler_phi(e.divisor)
        assert total == n

    def test_integer_coefficients(self):
        for n in (3, 4, 6, 8):
            for e in det_over_rationals(n).factors:
                assert all(c.denominator == 1 for c in e.poly.terms.values())


class TestCosets:
    def test_partition(self):
        for n in range(1, 13):
            for q in (2, 3, 5, 7, 11, 13):
                if gcd(n, q) != 1:
                    continue
                cosets = q_cyclotomic_cosets(n, q)
                flat = sorted(x for c in cosets for x in c)
                assert flat == list(range(n))
                for c in cosets:
                    assert set((x * q) % n for x in c) == set(c)

    @pytest.mark.parametrize("n, q", [(6, 3), (4, 2), (0, 3), (-5, 2)])
    def test_q_not_prime_to_n_refused(self, n, q):
        # q = 3 on Z/6Z gave [(0,), (1, 3), (2,), (4,), (5,)]: 2 * 3 = 0 is not in {2}
        with pytest.raises(PreconditionError):
            q_cyclotomic_cosets(n, q)

    def test_minimality_against_subgroup_size(self):
        # each coset's size is the order of q modulo n/gcd(n, l)
        for n, q in [(12, 5), (9, 2), (7, 2)]:
            for coset in q_cyclotomic_cosets(n, q):
                ell = coset[0]
                d = n // gcd(n, ell) if ell else 1
                assert len(coset) == multiplicative_order(q, d)


class TestFactorXnMinusOne:
    def test_n3_q2(self):
        factors = factor_xn_minus_one(3, F2)
        assert [str(f.poly) for f in factors] == ["X + 1", "X^2 + X + 1"]
        assert [f.labels for f in factors] == [(0,), (1, 2)]

    def test_n3_q7_split(self):
        factors = factor_xn_minus_one(3, F7)
        # independent oracle: scan cube roots of unity in F_7
        roots = sorted(a for a in range(7) if pow(a, 3, 7) == 1)
        assert roots == [1, 2, 4]
        got_roots = sorted(
            (-f.poly.coefficient(0)).residue for f in factors
        )
        assert got_roots == roots
        assert all(f.poly.degree == 1 for f in factors)

    def test_n1(self):
        factors = factor_xn_minus_one(1, F5)
        assert [str(f.poly) for f in factors] == ["X + 4"]  # X - 1 over F_5

    def test_gcd_violation(self):
        with pytest.raises(PreconditionError):
            factor_xn_minus_one(6, F2)

    def test_composite_q(self):
        F4 = ExtField(F2, find_irreducible(2, 2))
        factors = factor_xn_minus_one(3, F4)
        # 3 | 4 - 1, so X^3 - 1 splits into linear factors over F_4
        assert all(f.poly.degree == 1 for f in factors)
        prod = UniPoly.constant(F4.one, F4)
        for f in factors:
            prod = prod * f.poly
        assert prod == x_pow_minus_one(3, F4)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_product_and_descent(self, n, q):
        if gcd(n, q) != 1:
            pytest.skip("characteristic divides n")
        field = PrimeField(q)
        factors = factor_xn_minus_one(n, field)
        prod = UniPoly.constant(field.one, field)
        for f in factors:
            prod = prod * f.poly
            assert f.poly ** q == f.poly.substitute_power(q)
            assert is_irreducible(f.poly)
        assert prod == x_pow_minus_one(n, field)


class TestXnMinusOneAgainstSympy:
    """factor_xn_minus_one against sympy's factorization over GF(p), an
    implementation the library does not share (test-only dependency)."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_factor_list(self, p):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        field = PrimeField(p)
        for n in range(1, 25):
            if n % p == 0:
                continue
            # Poly.factor_list: sympy.factor_list(..., modulus=p) gives the
            # same factors through a deprecated ordered comparison
            _, sympy_factors = sympy.Poly(x**n - 1, x, modulus=p).factor_list()
            expected = sorted(
                [int(c) % p for c in reversed(f.all_coeffs())]
                for f, multiplicity in sympy_factors for _ in range(multiplicity)
            )
            got = sorted([c.residue for c in cf.poly.coeffs]
                         for cf in factor_xn_minus_one(n, field))
            assert got == expected, n


    @pytest.mark.parametrize("n, p", [(63, 2), (63, 5), (100, 3), (100, 7), (255, 2), (255, 7)])
    def test_factor_list_large(self, n, p):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        field = PrimeField(p)
        _, sympy_factors = sympy.Poly(x**n - 1, x, modulus=p).factor_list()
        expected = sorted(
            [int(c) % p for c in reversed(f.all_coeffs())]
            for f, multiplicity in sympy_factors for _ in range(multiplicity)
        )
        got = sorted([c.residue for c in cf.poly.coeffs] for cf in factor_xn_minus_one(n, field))
        assert got == expected


F16_TOWER = ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 2))


class TestCosetFactorsAgainstProducts:
    """The coset factors, minimal polynomials read off one elimination
    over F_q, against the product of X - zeta^l in the splitting field
    (helpers.coset_product_reference): over F_p on packed rows, over F_4
    and F_9 on logs, over the tower (F_2^2)^2 on elements."""

    @pytest.mark.parametrize("n, field", [
        (100, F3), (255, F2), (63, F2), (13, finite_field(2, 2)), (21, finite_field(2, 2)),
        (26, finite_field(3, 2)), (17, F16_TOWER), (15, F16_TOWER),
    ], ids=["X100-F3", "X255-F2", "X63-F2", "X13-F4", "X21-F4", "X26-F9", "X17-tower",
            "X15-tower"])
    def test_factor_xn_minus_one_and_factor_cyclotomic(self, n, field):
        big, _ = splitting_field(field, n)
        powers = root_table(n, big)
        factors = factor_xn_minus_one(n, field)
        assert [f.labels for f in factors] == q_cyclotomic_cosets(n, field.order)
        for f in factors:
            assert f.poly.ring is field
            assert f.poly == coset_product_reference(f.labels, powers, field)
        for d in divisors(n):
            big_d, _ = splitting_field(field, d)
            powers_d = root_table(d, big_d)
            cyclotomic = factor_cyclotomic(d, field)
            assert cyclotomic
            for f in cyclotomic:
                assert f.poly == coset_product_reference(f.labels, powers_d, field)


class TestFactorCyclotomic:
    def test_d3_q2(self):
        factors = factor_cyclotomic(3, F2)
        assert [str(f.poly) for f in factors] == ["X^2 + X + 1"]

    def test_d1(self):
        for field in (F2, F7):
            factors = factor_cyclotomic(1, field)
            assert len(factors) == 1
            assert factors[0].poly == from_ints([-1, 1], field)

    def test_d5_q7(self):
        factors = factor_cyclotomic(5, F7)
        assert multiplicative_order(7, 5) == 4
        assert len(factors) == 1 and factors[0].poly.degree == 4

    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_counts_degrees_product(self, d, q):
        if gcd(d, q) != 1:
            pytest.skip("characteristic divides d")
        field = PrimeField(q)
        factors = factor_cyclotomic(d, field)
        r = multiplicative_order(q, d)
        assert len(factors) == euler_phi(d) // r
        assert all(f.poly.degree == r for f in factors)
        prod = UniPoly.constant(field.one, field)
        for f in factors:
            prod = prod * f.poly
        expected = cyclotomic_polynomial(d).map_coefficients(field.from_rational, field)
        assert prod == expected


class TestDetOverFiniteField:
    def test_n3_q7_three_linear(self):
        fd = det_over_finite_field(3, F7)
        assert len(fd.factors) == 3
        assert all(e.poly.is_homogeneous(1) for e in fd.factors)

    def test_n3_q2_matches_rational_shape(self):
        fd = det_over_finite_field(3, F2)
        reduced = [
            e.poly.map_coefficients(F2.from_rational, F2)
            for e in det_over_rationals(3).factors
        ]
        got = sorted(e.poly.sort_key() for e in fd.factors)
        want = sorted(p.sort_key() for p in reduced)
        assert got == want

    def test_n2_odd_q(self):
        for q in (3, 5, 7):
            fd = det_over_finite_field(2, PrimeField(q))
            variables = fd.variables
            field = fd.field
            x0 = MultiPoly.variable("X_0", variables, field)
            x1 = MultiPoly.variable("X_1", variables, field)
            keys = sorted(e.poly.sort_key() for e in fd.factors)
            assert keys == sorted(p.sort_key() for p in [x0 + x1, x0 - x1])

    def test_coset_labels_attached(self):
        fd = det_over_finite_field(5, F2)
        assert [e.coset for e in fd.factors] == [(0,), (1, 2, 3, 4)]


def _random_poly(variables, field, rng, terms):
    """A seeded polynomial of up to terms terms of degree at most 2; over
    Q and Q(zeta_d) most coefficients have a denominator above 1."""
    coeffs = {}
    for _ in range(terms):
        exp = [0] * len(variables)
        for _ in range(rng.randrange(3)):
            exp[rng.randrange(len(variables))] += 1
        if field is QQ:
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        elif field.characteristic == 0:
            c = random_cyclo(field, rng)
        else:
            c = random_elem(field, rng)
        coeffs[tuple(exp)] = c
    return MultiPoly(variables, coeffs, field)


def _entry(poly, multiplicity):
    return FactorEntry(poly, multiplicity, claimed_irreducible=False, label="f")


F4 = finite_field(2, 2)
F9 = finite_field(3, 2)
PRODUCT_FIELDS = [QQ, F2, F7, PrimeField(2**61 - 1), F4, F9,
                  ExtField(F4, find_irreducible(F4, 3)), cyclotomic_field(5),
                  cyclotomic_field(12)]


class TestFactoredProduct:
    """FactoredDeterminant.product, one packed accumulation, against the
    one-factor-at-a-time loop of helpers.factored_product_reference."""

    @pytest.mark.parametrize("fd", [
        pytest.param(lambda: det_over_rationals(6), id="Q-C6"),
        pytest.param(lambda: det_over_rationals(8), id="Q-C8"),
        pytest.param(lambda: det_over_finite_field(6, F7), id="F7-C6"),
        pytest.param(lambda: det_over_finite_field(7, F2), id="F2-C7"),
        pytest.param(lambda: det_over_finite_field(5, F4), id="F4-C5"),
        pytest.param(lambda: det_over_finite_field(4, F9), id="F9-C4"),
        pytest.param(lambda: det_split_field(AbelianGroup((2, 3))), id="split-C2xC3"),
        pytest.param(lambda: det_split_field(AbelianGroup((2, 2)), F5), id="split-C2xC2-F5"),
    ])
    def test_factorizations(self, fd):
        fd = fd()
        assert fd.product() == factored_product_reference(fd)

    def test_multiplicities_over_s3(self):
        from groupfft.frobenius import frobenius_factorization, s3

        g = s3()
        fd = frobenius_factorization(g.group, g.representations)
        assert any(e.multiplicity > 1 for e in fd.factors)
        assert fd.product() == factored_product_reference(fd)

    @pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=repr)
    def test_random_powers(self, field):
        import random

        rng = random.Random(repr(field))
        variables = ("X_0", "X_1", "X_2")
        for _ in range(4):
            entries = tuple(
                _entry(_random_poly(variables[:rng.randrange(1, 4)], field, rng,
                                    rng.randrange(1, 4)), rng.randrange(4))
                for _ in range(rng.randrange(1, 4))
            )
            fd = FactoredDeterminant(field, variables[:2], entries)
            got = fd.product()
            assert got == factored_product_reference(fd)
            assert got.variables[:2] == variables[:2]

    def test_empty_and_zero(self):
        x = MultiPoly.variable("X_0", ("X_0",), F7)
        assert FactoredDeterminant(F7, ("X_0",), ()).product() == MultiPoly.constant(
            F7.one, ("X_0",), F7)
        assert FactoredDeterminant(F7, ("X_0",), (_entry(x, 0),)).product() == MultiPoly.constant(
            F7.one, ("X_0",), F7)
        zero = MultiPoly.zero(("X_0",), F7)
        fd = FactoredDeterminant(F7, ("X_0",), (_entry(x, 2), _entry(zero, 1)))
        assert fd.product().is_zero and fd.product() == factored_product_reference(fd)


class TestCrossConsistency:
    @pytest.mark.parametrize("n,p", [(3, 2), (4, 3), (6, 5), (5, 3)])
    def test_reduction_mod_p_refactors(self, n, p):
        field = PrimeField(p)
        rational = det_over_rationals(n)
        modular = det_over_finite_field(n, field)
        by_divisor = {}
        for e in modular.factors:
            ell = e.coset[0]
            d = n // gcd(n, ell) if ell else 1
            by_divisor.setdefault(d, []).append(e.poly)
        for entry in rational.factors:
            reduced = entry.poly.map_coefficients(field.from_rational, field)
            prod = MultiPoly.constant(field.one, modular.variables, field)
            for p_factor in by_divisor[entry.divisor]:
                prod = prod * p_factor
            assert prod == reduced


def _cyclic_matrix(n):
    group = AbelianGroup.cyclic(n)
    return lambda values, field: group_matrix(GroupVector(group, field, tuple(values))).rows()


def _corrupted(fd):
    """fd with its last factor's multiplicity doubled: a wrong product."""
    last = fd.factors[-1]
    return replace(fd, factors=fd.factors[:-1] + (replace(last, multiplicity=2),))


class TestVerification:
    def test_symbolic_check_raises_typed_error(self):
        fd = det_over_rationals(6)
        verify_product_identity(fd, _cyclic_matrix(6))
        with pytest.raises(VerificationError, match="differs from group determinant"):
            verify_product_identity(_corrupted(fd), _cyclic_matrix(6))

    def test_point_check_raises_typed_error(self):
        fd = det_over_rationals(8)
        verify_product_identity(fd, _cyclic_matrix(8))
        with pytest.raises(VerificationError, match="at a point"):
            verify_product_identity(_corrupted(fd), _cyclic_matrix(8))

    def test_point_check_over_an_extension_raises_typed_error(self):
        fd = det_over_finite_field(7, F2)
        with pytest.raises(VerificationError, match="at a point"):
            verify_product_identity(_corrupted(fd), _cyclic_matrix(7))

    def test_checks_survive_python_o(self):
        """Both checks raise VerificationError with assertions stripped."""
        script = textwrap.dedent("""
            from dataclasses import replace
            from groupfft import AbelianGroup, VerificationError, det_over_rationals
            from groupfft.factorize import det_split_field, verify_product_identity
            from groupfft.transform import GroupVector, group_matrix

            assert False, "assertions are on"
            # symbolic check, point checks over Q, and over Q(zeta_8)
            for name, n, make in [("5", 5, lambda g: det_over_rationals(5)),
                                  ("8", 8, lambda g: det_over_rationals(8)),
                                  ("split C8", 8, det_split_field)]:
                group = AbelianGroup.cyclic(n)
                matrix_of = lambda values, field: group_matrix(
                    GroupVector(group, field, tuple(values))).rows()
                fd = make(group)
                last = fd.factors[-1]
                wrong = replace(fd, factors=fd.factors[:-1] + (replace(last, multiplicity=2),))
                try:
                    verify_product_identity(wrong, matrix_of)
                except VerificationError as exc:
                    print(name, "raised:", exc)
                else:
                    print(name, "passed a wrong product")
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "5 raised: factor product differs from group determinant",
            "8 raised: factor product disagrees with determinant at a point",
            "split C8 raised: factor product disagrees with determinant at a point",
        ]

    def test_points_are_pinned(self):
        """The seeded points for C7 over F2, evaluated in E = F_{2^9}: same
        seed, same draws (the coordinates of each value, lowest first, one
        draw each), same order."""
        fd = det_over_finite_field(7, F2)
        big = finite_field(2, 9)
        matrix_of = _cyclic_matrix(7)
        points = []

        def recording(values, field):
            points.append([big.order_key(v) for v in values])
            return matrix_of(values, field)

        verify_product_identity(fd, recording)
        assert len(points) == 11
        assert points[0] == [(1, 0, 1, 1, 1, 1, 0, 1, 0), (1, 1, 1, 0, 0, 1, 1, 1, 1),
                             (1, 0, 0, 0, 1, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0, 1, 1, 1),
                             (0, 1, 1, 0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 1, 0, 1, 0, 1),
                             (0, 1, 1, 0, 0, 1, 1, 0, 1)]
        assert points[-1] == [(0, 1, 1, 1, 1, 0, 1, 0, 0), (1, 1, 0, 0, 0, 1, 0, 1, 1),
                              (0, 1, 0, 1, 1, 1, 0, 0, 1), (1, 1, 0, 1, 0, 0, 0, 1, 0),
                              (1, 0, 1, 0, 0, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0, 0, 0, 0),
                              (0, 0, 0, 0, 0, 1, 0, 1, 0)]
        digest = hashlib.sha256(repr(points).encode()).hexdigest()
        assert digest == "df12a537475719c53832e5bc37f80fa9b2cc6259e86ba540630c1583d70cf32f"

    def test_memoized_factors_keep_no_plan(self):
        """Verification evaluates copies, so the memoized factors of
        det_over_rationals and norm_form hold no terms for evaluation
        afterwards."""
        fd = det_over_rationals(9)
        assert all(e.poly._held is None for e in fd.factors)


# characteristic-0 point checks: (over, divisors)
CHAR0_POINT_CASES = [("Q", (8,)), ("Q", (9,)), ("Q", (12,)), ("split", (8,)),
                     ("split", (2, 4)), ("split", (7,)), ("split", (3, 3))]
CHAR0_IDS = [f"{over}-" + "x".join(f"C{d}" for d in divs) for over, divs in CHAR0_POINT_CASES]
INT_POINT_SET = 1 << 97  # |S|, S = [-2^96, 2^96)


def _char0_case(over, divs):
    """(factorization, matrix_of) over Q (cyclic) or over Q(zeta_d)."""
    group = AbelianGroup(divs)
    fd = det_over_rationals(group.order) if over == "Q" else det_split_field(group)
    return fd, _abelian_matrix(group)


def _recorded_points(fd, matrix_of):
    """verify_product_identity's record and the (values, field, rows) it checked at."""
    seen = []

    def recording(values, field):
        rows = matrix_of(values, field)
        seen.append((list(values), field, rows))
        return rows

    return verify_product_identity(fd, recording), seen


class TestIntegerPoints:
    """Over Q and Q(zeta_d) the point checks draw ints uniform in
    S = [-2^96, 2^96), as many as bring (n/|S|)^k to 2^-64: one point for
    every admitted order."""

    # Q C8: TestVerification.test_point_check_raises_typed_error
    @pytest.mark.parametrize("over,divs", CHAR0_POINT_CASES[1:], ids=CHAR0_IDS[1:])
    def test_corrupted_multiplicity_raises(self, over, divs):
        fd, matrix_of = _char0_case(over, divs)
        with pytest.raises(VerificationError, match="at a point"):
            verify_product_identity(_corrupted(fd), matrix_of)

    @pytest.mark.parametrize("over,divs", CHAR0_POINT_CASES, ids=CHAR0_IDS)
    def test_one_int_point_in_s(self, over, divs):
        """One int point of [-2^96, 2^96) where three of [-2^32, 2^32) were
        drawn: its bound n/2^97 is below theirs, (n/2^33)^3."""
        fd, matrix_of = _char0_case(over, divs)
        record, seen = _recorded_points(fd, matrix_of)
        assert len(seen) == 1
        for values, field, _ in seen:
            assert field is QQ
            assert all(type(v) is int and -(1 << 96) <= v < 1 << 96 for v in values)
        n = len(fd.variables)
        assert record == Verification("points", record.seed, 1, fd.field,
                                      Fraction(n, INT_POINT_SET))
        assert record.bound <= Fraction(1, 1 << 64)
        assert record.bound <= Fraction(n, 1 << 33) ** 3
        assert fd.verification == record

    @pytest.mark.parametrize("over,divs", [("Q", (9,)), ("split", (2, 4))],
                             ids=["Q-C9", "split-C2xC4"])
    def test_points_against_sympy(self, over, divs):
        """At the checked points sympy's determinant of the group matrix
        equals the product of the factors."""
        sympy = pytest.importorskip("sympy")
        fd, matrix_of = _char0_case(over, divs)
        _, seen = _recorded_points(fd, matrix_of)
        # copies, so the memoized factors keep no held terms
        factors = [(MultiPoly(e.poly.variables, e.poly.terms, e.poly.ring), e.multiplicity)
                   for e in fd.factors]
        for values, _, rows in seen:
            det = sympy.Matrix([[int(x) for x in row] for row in rows]).det()
            point = dict(zip(fd.variables, values))
            product = fd.field.one
            for poly, multiplicity in factors:
                product = product * poly.evaluate(point) ** multiplicity
            assert product == fd.field.from_int(int(det))

    def test_symbolic_record(self):
        fd = det_over_rationals(6)
        assert fd.verification == Verification("symbolic", None, 0, QQ, Fraction(0))

    def test_finite_field_record(self):
        """Over F_q: points of E, the largest flat field the log kernel
        serves that holds F_q, here F_{2^9}, as many as bring the bound to
        2^-64: (7/512)^11."""
        fd = det_over_finite_field(7, F2)
        assert fd.verification.field is finite_field(2, 9)
        assert fd.verification.bound == Fraction(7, 512) ** 11 <= Fraction(1, 1 << 64)
        assert (fd.verification.method, fd.verification.points) == ("points", 11)

    def test_record_is_not_compared(self):
        fd = det_over_rationals(8)
        assert fd.verification is not None
        assert replace(fd, verification=None) == fd


# F_q point checks: (n, F_q, E, points), E the flat field of the points
FINITE_POINT_CASES = [
    (7, F2, finite_field(2, 9), 11),
    (8, F3, finite_field(3, 5), 13),
    (10, PrimeField(11), finite_field(11, 2), 18),
    (13, finite_field(2, 2), finite_field(2, 8), 15),
    # the tower (F_2^2)^2 embeds in F_{2^8} by a root of its modulus
    (7, ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 2)),
     finite_field(2, 8), 13),
    # above the log cap, F_q itself: elements of F_{2^10}, int residues of F_1031
    (7, finite_field(2, 10), finite_field(2, 10), 9),
    (9, PrimeField(1031), PrimeField(1031), 10),
    # F_23 holds fewer than 24 elements: the smallest F_{23^s} above 24^2
    (24, PrimeField(23), finite_field(23, 3), 8),
]
FINITE_POINT_IDS = ["C7-F2", "C8-F3", "C10-F11", "C13-F4", "C7-F4tower", "C7-F1024", "C9-F1031",
                    "C24-F23"]


class TestFiniteFieldPoints:
    """Over F_q the points are uniform in E, the largest flat F_{p^s}
    (r | s) the log kernel serves, or F_q above the cap; as many as bring
    (n/|E|)^k to 2^-64."""

    @pytest.mark.parametrize("n, field, big, count", FINITE_POINT_CASES, ids=FINITE_POINT_IDS)
    def test_record_and_points(self, n, field, big, count, finite_field_point_checks):
        seen = len(finite_field_point_checks)
        fd = det_over_finite_field(n, field)
        assert finite_field_point_checks[seen:] == [(field, fd.verification)]
        assert fd.verification == Verification("points", 0x5EED, count, big,
                                               Fraction(n, big.order) ** count)
        assert Fraction(n, big.order) ** (count - 1) > Fraction(1, 1 << 64) >= fd.verification.bound
        if n <= 10:
            record, seen_points = _recorded_points(fd, _abelian_matrix(AbelianGroup.cyclic(n)))
            assert record == fd.verification and len(seen_points) == count
            for values, at, rows in seen_points:
                assert at is big
                assert all(v.field is big for v in values)

    @pytest.mark.parametrize("n, q", [(7, "F2"), (8, "F3"), (13, "F4")])
    def test_corrupted_factor_raises_under_o(self, n, q):
        setup = f"""
            from dataclasses import replace
            from groupfft.abelian import AbelianGroup
            from groupfft.factorize import (_abelian_matrix, det_over_finite_field,
                                            verify_product_identity)
            from groupfft.rings import finite_field
            fd = det_over_finite_field({n}, finite_field(*{FIELD_OF_ORDER[int(q[1:])]}))
            last = fd.factors[-1]
            wrong = replace(fd, factors=fd.factors[:-1] + (replace(last, multiplicity=2),))
        """
        call = f"verify_product_identity(wrong, _abelian_matrix(AbelianGroup.cyclic({n})))"
        assert check_under_o(call, setup) == (
            "raised: factor product disagrees with determinant at a point")


class TestExpansionCap:
    """A factor whose expansion may exceed FORM_PRODUCT_CAP monomials is
    refused before anything is expanded."""

    def test_library_refuses_c13_over_f2(self):
        # ord_13(2) = 12: one factor is a product of 12 forms in 13 variables
        with pytest.raises(PreconditionError, match="2704156 monomials"):
            det_over_finite_field(13, F2)
        with pytest.raises(PreconditionError, match="2704156 monomials"):
            det_over_rationals(13)
        with pytest.raises(PreconditionError, match="2704156 monomials"):
            norm_form(13, 13)

    def test_refusal_takes_under_a_second(self):
        # timed in-process: the refusal itself, not interpreter start-up
        for refuse in (lambda: det_over_finite_field(13, F2),
                       lambda: det_over_rationals(13)):
            start = time.perf_counter()
            with pytest.raises(PreconditionError):
                refuse()
            assert time.perf_counter() - start < 1

    def test_cli_exits_2(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for over in (["Fq", "--q", "2"], ["Q"]):
            # the timeout only stops a run that expands after all
            proc = subprocess.run(
                [sys.executable, "-m", "groupfft.cli", "groupdet", "--group", "C13",
                 "--over", *over], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 2, proc.stderr
            assert "capped at 30000" in proc.stderr

    def test_largest_admitted_cases_still_factor(self):
        # C(14, 6) = 3,003 monomials in the degree-6 factor, both ways
        assert FORM_PRODUCT_CAP >= 3003
        assert [len(e.coset) for e in det_over_finite_field(9, F2).factors] == [1, 6, 2]
        assert max(len(e.poly.terms) for e in det_over_rationals(9).factors) <= 3003


NORM_CASES = [(n, d) for n in range(1, 13) for d in divisors(n)]
COSET_CASES = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 13) if gcd(n, q) == 1]
FIELD_OF_ORDER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def _units(d):
    return [m for m in range(1, d + 1) if gcd(m, d) == 1]


def _rows(labels, n, order):
    """The exponent rows of the forms of cyclic labels: l j mod order."""
    return [[ell * j % order for j in range(n)] for ell in labels]


def _expandable(n, k):
    return comb(n + k - 1, k) <= FORM_PRODUCT_CAP


class TestOrdersBelowOne:
    """Orders below 1 are refused with PreconditionError."""

    @pytest.mark.parametrize("n", [0, -2])
    def test_det_over_rationals(self, n):
        with pytest.raises(PreconditionError):
            det_over_rationals(n)

    @pytest.mark.parametrize("n, d", [(6, 0), (6, -3), (6, 4)])
    def test_norm_form(self, n, d):
        with pytest.raises(PreconditionError):
            norm_form(n, d)


class TestFormProducts:
    """_product_of_forms expands in Z[C_N] on packed ints; the products
    must be the ones the element-by-element expansion in the field gives,
    and the norm forms the resultants sympy computes."""

    @pytest.mark.parametrize("n, d", NORM_CASES, ids=lambda c: str(c))
    def test_norm_forms_match_field_expansion(self, n, d):
        if not _expandable(n, euler_phi(d)):
            with pytest.raises(PreconditionError):
                norm_form(n, d)
            return
        kd = cyclotomic_field(d)
        group = AbelianGroup.cyclic(n)
        got = _product_of_forms(group, root_table(d, kd), _rows(_units(d), n, d), kd, kd)
        assert got == product_of_forms_reference(group_variables(group), kd.zeta, _units(d), kd)

    @pytest.mark.parametrize("n, q", COSET_CASES, ids=lambda c: str(c))
    def test_coset_products_match_field_expansion(self, n, q):
        """Every q-coset product, in the splitting field: F_p, F_p[Y]/(m)
        and towers over F_4, F_8 and F_9."""
        field = finite_field(*FIELD_OF_ORDER[q])
        big, _ = splitting_field(field, n)
        zeta = primitive_nth_root(n, big)
        group = AbelianGroup.cyclic(n)
        variables = group_variables(group)
        cosets = q_cyclotomic_cosets(n, q)
        for labels in cosets:
            if _expandable(n, len(labels)):
                got = _product_of_forms(group, root_table(n, big), _rows(labels, n, n), big, big)
                assert got == product_of_forms_reference(variables, zeta, labels, big)
        if not all(_expandable(n, len(labels)) for labels in cosets):
            with pytest.raises(PreconditionError):
                det_over_finite_field(n, field)

    @pytest.mark.parametrize("field, n", [
        (finite_field(2, 2), 5), (finite_field(2, 2), 7), (finite_field(2, 2), 9),
        (finite_field(2, 3), 5), (finite_field(2, 3), 9),
        (finite_field(3, 2), 5), (finite_field(3, 2), 7), (finite_field(3, 2), 10),
        (ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 3)), 5),
        (ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 3)), 13),
    ], ids=lambda c: repr(c))
    def test_factors_match_descended_field_expansion(self, field, n):
        """det_over_finite_field emits its factors over F_q from the packed
        product; expanded instead element by element in the splitting
        field, and each coefficient read there as its constant term, they
        are the same."""
        big, _ = splitting_field(field, n)
        assert big is not field
        zeta = primitive_nth_root(n, big)
        fd = det_over_finite_field(n, field)
        for entry in fd.factors:
            expected = product_of_forms_reference(fd.variables, zeta, entry.coset, big)
            assert entry.poly == expected.map_coefficients(lambda c: c.constant, field)

    @pytest.mark.parametrize("n, d", [(n, d) for n, d in NORM_CASES if n <= 7],
                             ids=lambda c: str(c))
    def test_norm_form_is_a_resultant(self, n, d):
        """norm_form(n, d) = Res_Y(Phi_d(Y), sum_j X_j Y^j), the product of
        the form over the roots of Phi_d.  The resultant is the determinant
        of sympy's Sylvester matrix, taken over Z[X_0, ..., X_(n-1)]:
        sympy.resultant itself takes about 30 s on the case n = d = 7."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.subresultants_qq_zz import sylvester

        y = sympy.Symbol("Y")
        poly = norm_form(n, d)
        form = sum(x * y**j for j, x in enumerate(sympy.symbols(poly.variables)))
        matrix = DomainMatrix.from_Matrix(sylvester(sympy.cyclotomic_poly(d, y), form, y))
        assert matrix.det() == matrix.domain.from_sympy(sympy_multipoly(sympy, poly))

    @pytest.mark.parametrize("field, n, labels", [
        (cyclotomic_field(9), 9, _units(9)),
        (PrimeField(13), 12, (1, 5)),
        (ExtField(finite_field(2, 2), find_irreducible(finite_field(2, 2), 3)), 7, (1, 2, 4)),
    ], ids=["Q(zeta_9)", "F13", "F4-tower"])
    def test_field_products_only_in_power_table(self, monkeypatch, field, n, labels):
        """The expansion makes no field product: it reads the field's root
        table, built beforehand."""
        count = [0]

        def counting(mul):
            def wrapped(a, b):
                if a.field is field:
                    count[0] += 1
                return mul(a, b)
            return wrapped

        for cls in (PrimeFieldElem, ExtFieldElem, CycloElem):
            monkeypatch.setattr(cls, "_mul", counting(cls._mul))
        powers = root_table(n, field)
        count[0] = 0
        poly = _product_of_forms(AbelianGroup.cyclic(n), powers, _rows(labels, n, n), field, field)
        assert len(poly.terms) > n
        assert count[0] == 0


# every group of order <= 12 over Q and each field F_q, q in 2..13, prime
# to its order, and over the tower (F_4)^3
ORBIT_FIELDS = [QQ, F2, F3, F5, F7, PrimeField(11), PrimeField(13),
                finite_field(2, 2), finite_field(3, 2), F64_TOWER]
ORBIT_CASES = [(group, field) for group in all_groups_of_order_up_to(12) for field in ORBIT_FIELDS
               if field is QQ or gcd(group.order, field.order) == 1]


@lru_cache(maxsize=None)
def _orbit_case(group, field):
    """The factorization of an orbit case, or the message of its refusal."""
    try:
        return factor_group_determinant(group, field)
    except PreconditionError as exc:
        return str(exc)


class TestOrbitExpansion:
    """_product_of_forms expands one monomial per translation orbit and
    fills in its translates by the relative invariance of the product."""

    @pytest.mark.parametrize("group, field", [
        (group, field) for group, field in ORBIT_CASES
        # C11 over an extension of F_2 or F_3 takes five forms in a tower
        # over the field: the reference alone takes 3 to 14 s a case
        if not (group.order == 11 and field in ORBIT_FIELDS[-3:])
    ], ids=lambda c: repr(c))
    def test_orbit_factors_are_products_of_forms(self, group, field):
        """Each factor is its orbit's forms multiplied with MultiPoly.__mul__
        in the splitting field and read in the field (C11 over Q, F_2, F_7
        and F_13 is refused by the expansion cap)."""
        fd = _orbit_case(group, field)
        if isinstance(fd, str):
            assert group.order == 11 and "capped at 30000" in fd
            return
        expected = orbit_factors_reference(group, field)
        assert sorted(str(p) for p in expected) == sorted(str(e.poly) for e in fd.factors)

    def test_factor_digest(self):
        """The labels and printed factors of every orbit case, the refusals'
        messages included, have the digest they had when each monomial was
        mapped on its own."""
        records = []
        for group, field in ORBIT_CASES:
            fd = _orbit_case(group, field)
            out = fd if isinstance(fd, str) else [(e.label, str(e.poly)) for e in fd.factors]
            records.append((group.describe(), repr(field), out))
        assert len(records) == 124
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == "d66367f76087cb8e3f8ca68296449820b2943cbfc3b6b7aa6585ed1121eb639b"

    def test_packed_factor_digests(self):
        """Every factor of the orbit cases reads, off its packed monomials,
        the terms, sorted terms, printed form and sort key it had when it
        held exponent tuples, and every Verification record is the one
        recorded then."""
        views, ordered, printed, keys, records = [], [], [], [], []
        for group, field in ORBIT_CASES:
            fd = _orbit_case(group, field)
            if isinstance(fd, str):
                continue
            for e in fd.factors:
                views.append(sorted((exp, repr(c)) for exp, c in e.poly.terms.items()))
                ordered.append(repr(e.poly.sorted_terms()))
                printed.append(str(e.poly))
                keys.append(repr(e.poly.sort_key()))
            v = fd.verification
            records.append((group.describe(), repr(field), v.method, v.seed, v.points,
                            repr(v.field), v.bound))
        assert len(views) == 545
        digests = [hashlib.sha256(repr(x).encode()).hexdigest()[:16]
                   for x in (views, ordered, printed, keys, records)]
        assert digests == ["d1652fe8ba6b6329", "27fe95651512861e", "08a69ad4608968fc",
                           "6e8ea9ae86647cfe", "6ea1fcc07f4803dc"]

    @pytest.mark.parametrize("n, exponents, value", [
        (4, {0: 1, 2: 1}, -2), (6, {0: 1, 3: 1}, -2), (9, {0: 2, 3: 2, 6: 2}, 9),
    ], ids=["C4", "C6", "C9"])
    def test_coefficients_of_fixed_monomials(self, n, exponents, value):
        """A monomial that a translation fixes, in norm_form(n, n): each of
        its translates is filled once."""
        exp = tuple(exponents.get(j, 0) for j in range(n))
        assert norm_form(n, n).terms[exp] == value

    @pytest.mark.parametrize("divs", [(1,), (5,), (12,), (2, 2), (2, 6), (3, 3), (1, 3), (3, 1),
                                      (2, 1, 2), (2, 2, 2)], ids=repr)
    def test_translates_follow_the_group_law(self, divs):
        """The masked rotations translate a packed monomial by every
        element h: the exponent of X_j moves to X_(j + h), j + h by
        AbelianGroup.mul."""
        group = AbelianGroup(divs)
        elements, n = group.elements(), group.order
        packing = Packing(n, 5)
        rng = random.Random(n)
        exps = [rng.randrange(6) for _ in range(n)]
        got = _translates(packing.pack(exps), _translations(group, packing.mask.bit_length()))
        assert len(got) == n
        for h, x in enumerate(got):
            moved = [0] * n
            for j, a in enumerate(elements):
                moved[group.index(group.mul(a, elements[h]))] = exps[j]
            assert packing.unpack(x) == tuple(moved)

    IMPORT = """
        from groupfft import factorize as f
        from groupfft.abelian import AbelianGroup
        from groupfft.rings import PrimeField
    """

    @pytest.mark.parametrize("call, message", [
        ("f.norm_form(5, 5)", "a row of the product of forms is not a character of C5"),
        ("f.factor_group_determinant(AbelianGroup((2, 6)), PrimeField(5))",
         "a row of the product of forms is not a character of C2xC6"),
    ], ids=["Q", "F5"])
    def test_corrupted_row_raises_under_o(self, call, message):
        """A form whose row is not a character is refused before the fill."""
        corrupt = ("orig = f._product_of_forms\n"
                   "f._product_of_forms = lambda g, z, rows, *a: orig(\n"
                   "    g, z, [[r[0], (r[1] + 1) % len(z), *r[2:]] for r in rows], *a)\n")
        assert check_under_o(call, self.IMPORT, corrupt) == f"raised: {message}"

    @pytest.mark.parametrize("call", [
        "f.factor_group_determinant(AbelianGroup((2, 6)), PrimeField(5))",
        "f.factor_group_determinant(AbelianGroup((12,)), PrimeField(5))",
    ], ids=["C2xC6", "C12"])
    def test_corrupted_root_of_unity_raises_under_o(self, call):
        """Each translate but the first paired with the next one's psi(h):
        its coefficient takes the wrong root of unity, and the product
        check refuses the factorization."""
        corrupt = ("orig = f._translates\n"
                   "f._translates = lambda m, steps: (lambda t: t[:1] + t[2:] + t[1:2])(\n"
                   "    orig(m, steps))\n")
        assert check_under_o(call, self.IMPORT, corrupt) == (
            "raised: factor product disagrees with determinant at a point")


class TestChecksUnderO:
    """Each identity factorize checks raises VerificationError under
    python -O, where an assert would vanish, when a collaborator is
    corrupted in the subprocess."""

    # every power of zeta times zeta: a product of k forms carries zeta^k
    SHIFTED_TABLE = ("orig = f.root_table\n"
                     "f.root_table = lambda n, k: [x * orig(n, k)[1] for x in orig(n, k)]")

    IMPORT = """
        from fractions import Fraction
        from groupfft import factorize as f
        from groupfft.abelian import AbelianGroup
        from groupfft.rings import PrimeField, UniPoly, finite_field
    """

    @pytest.mark.parametrize("corrupt, call, message", [
        ("f.mat_det = lambda a, field: field.one",
         "f.vandermonde_det(3, PrimeField(7))",
         "product formula disagrees with direct determinant"),
        # every power times zeta: the form of a character carries zeta on X_0
        (SHIFTED_TABLE,
         "f.det_split_field(AbelianGroup.cyclic(3), PrimeField(7))",
         "a character is not 1 at the identity"),
        ("orig = f._product_of_forms\n"
         "f._product_of_forms = lambda *a: (lambda p: p + "
         "f.MultiPoly.constant(a[4].one, p.variables, a[4]))(orig(*a))",
         "f.norm_form(5, 5)",
         "norm form is not homogeneous of degree 4"),
        # every power times zeta: the product carries zeta^4, irrational
        (SHIFTED_TABLE,
         "f.norm_form(5, 5)",
         "norm form coefficient is not rational"),
    ], ids=["vandermonde_det", "linear_forms", "norm_form-degree", "norm_form-rational"])
    def test_forms_and_values(self, corrupt, call, message):
        assert check_under_o(call, self.IMPORT, corrupt + "\n") == f"raised: {message}"

    @pytest.mark.parametrize("r, big", [(1, "F2^3"), (2, "(F2^2)^3")], ids=["F2", "F4-tower"])
    def test_product_of_forms_descends(self, r, big):
        """Over F_2 and F_4, C7 splits in F_8 and in the tower (F_4)^3;
        the first coset's factor, zeta times its form, does not descend."""
        call = f"f.det_over_finite_field(7, finite_field(2, {r}))"
        assert repr(splitting_field(finite_field(2, r), 7)[0]) == big
        assert check_under_o(call, self.IMPORT, self.SHIFTED_TABLE + "\n") == (
            f"raised: a coefficient of the product of forms does not descend to "
            f"{finite_field(2, r)!r}")

    # corruptions shared by the two coset factorizations
    TIMES_X = ("orig = f._descended_factor\n"
               "f._descended_factor = lambda *a: orig(*a) * UniPoly.gen(a[3])")
    DOUBLED = ("orig = f._descended_factor\n"
               "f._descended_factor = lambda *a: orig(*a).scale(a[3].from_int(2))")
    DROP_LAST = ("orig = f.q_cyclotomic_cosets\n"
                 "f.q_cyclotomic_cosets = lambda n, q: orig(n, q)[:-1]")

    @pytest.mark.parametrize("corrupt, message", [
        (TIMES_X, "coset factor of (0,) has degree 2"),
        (DOUBLED, "coset factor of (0,) is not monic"),
        ("f.UniPoly.substitute_power = lambda self, k: self", "descent identity failed"),
        ("f.is_irreducible = lambda poly: False", "coset factor is not irreducible"),
        (DROP_LAST, "coset factors do not multiply to X^n - 1"),
    ], ids=["degree", "monic", "descent", "irreducible", "product"])
    def test_factor_xn_minus_one(self, corrupt, message):
        out = check_under_o("f.factor_xn_minus_one(7, PrimeField(3))",
                            self.IMPORT, corrupt + "\n")
        assert out == f"raised: {message}"

    @pytest.mark.parametrize("corrupt, message", [
        (TIMES_X, "coset factor of (1, 2, 4) has degree 4"),
        ("f.UniPoly.substitute_power = lambda self, k: self", "descent identity failed"),
        ("f.is_irreducible = lambda poly: False", "coset factor is not irreducible"),
        (DROP_LAST, "1 coset factors, expected 2"),
        ("orig = f.cyclotomic_polynomial\n"
         "f.cyclotomic_polynomial = lambda d: orig(d).scale(Fraction(2))",
         "coset factors do not multiply to Phi_d mod q"),
    ], ids=["degree", "descent", "irreducible", "count", "product"])
    def test_factor_cyclotomic(self, corrupt, message):
        out = check_under_o("f.factor_cyclotomic(7, PrimeField(2))",
                            self.IMPORT, corrupt + "\n")
        assert out == f"raised: {message}"


def _cosets_reference(n, q):
    """The q-cyclotomic cosets of Z/nZ by repeated multiplication by q,
    ordered by least member."""
    seen, out = set(), []
    for start in range(n):
        if start not in seen:
            orbit, x = [], start
            while x not in orbit:
                orbit.append(x)
                x = x * q % n
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return out


def _character_order(group, index):
    chi = group.characters()[index]
    return lcm(*(d // gcd(r, d) for r, d in zip(chi.residues, group.divisors)))


NONCYCLIC_Q = [(2, 2, 2), (2, 4), (3, 3), (2, 6), (4, 4)]
# (divisors, q) with q prime to the order, F_q built as finite_field(*FIELD_OF_ORDER[q])
NONCYCLIC_FQ = [((2, 4), 3), ((3, 3), 2), ((2, 6), 5), ((4, 4), 3), ((3, 3), 4),
                ((2, 2, 2), 3), ((3, 3), 7), ((2, 4), 5), ((2, 2, 2), 7)]
# criterion 10 generalized: (divisors, p)
REDUCTION_CASES = [((2, 4), 3), ((3, 3), 2), ((3, 3), 7), ((2, 6), 5), ((4, 4), 3),
                   ((2, 2, 2), 3)]


def _group_id(divs):
    return "x".join(f"C{d}" for d in divs)


class TestGaloisOrbits:
    """AbelianGroup.galois_orbits: the orbits of chi -> u chi for u in a
    subgroup of (Z/eZ)^*."""

    @pytest.mark.parametrize("divs", [(1,), (12,), (2, 2, 2), (2, 6), (3, 9), (4, 4), (2, 3)],
                             ids=_group_id)
    @pytest.mark.parametrize("q", [None, 1, 5, 7])
    def test_partition_into_closed_orbits(self, divs, q):
        group = AbelianGroup(divs)
        e = group.exponent
        units = (_units(e) if q is None
                 else [pow(q, i, e) for i in range(multiplicative_order(q, e))])
        orbits = group.galois_orbits(units)
        assert sorted(i for orbit in orbits for i in orbit) == list(range(group.order))
        assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
        characters = group.characters()
        for orbit in orbits:
            assert list(orbit) == sorted(orbit)
            for i in orbit:
                for u in units:
                    image = tuple(u * r % d for r, d in zip(characters[i].residues, divs))
                    assert group.char_index(Character(image)) in orbit
            # all characters of one orbit have one order
            assert len({_character_order(group, i) for i in orbit}) == 1

    def test_rational_orbits_are_the_characters_of_one_order(self):
        """Over Q two characters lie in one orbit exactly when each is a
        power of the other: for C_n one orbit per divisor."""
        for n in range(1, 41):
            orbits = AbelianGroup.cyclic(n).galois_orbits(_units(n))
            assert sorted(n // orbit[0] if orbit[0] else 1 for orbit in orbits) == divisors(n)

    def test_cyclic_instance_is_q_cyclotomic_cosets(self):
        for n in range(1, 41):
            for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 1031):
                if gcd(n, q) != 1:
                    continue
                units = [pow(q, i, n) for i in range(multiplicative_order(q, n))]
                expected = _cosets_reference(n, q)
                assert AbelianGroup.cyclic(n).galois_orbits(units) == expected
                assert q_cyclotomic_cosets(n, q) == expected

    def test_non_units_refused(self):
        with pytest.raises(PreconditionError):
            AbelianGroup((2, 4)).galois_orbits([1, 2])


class TestNonCyclicGroups:
    """factor_group_determinant over Q and F_q for groups that are not
    cyclic: one factor per galois orbit of the characters."""

    @pytest.mark.parametrize("divs", NONCYCLIC_Q, ids=_group_id)
    def test_over_rationals(self, divs):
        group = AbelianGroup(divs)
        fd = factor_group_determinant(group, QQ)
        orbits = group.galois_orbits(_units(group.exponent))
        assert len(fd.factors) == len(orbits)
        assert sorted(e.divisor for e in fd.factors) == sorted(
            _character_order(group, orbit[0]) for orbit in orbits)
        for e in fd.factors:
            # degree phi(ord chi), integer coefficients
            assert e.poly.is_homogeneous(euler_phi(e.divisor))
            assert e.claimed_irreducible and e.coset is None
            assert all(c.denominator == 1 for c in e.poly.terms.values())
        assert fd.verification.method == "points"
        assert fd.verification.bound <= Fraction(1, 1 << 64)

    @pytest.mark.parametrize("divs, q", NONCYCLIC_FQ,
                             ids=[f"{_group_id(d)}-F{q}" for d, q in NONCYCLIC_FQ])
    def test_over_finite_fields(self, divs, q):
        group = AbelianGroup(divs)
        field = finite_field(*FIELD_OF_ORDER[q])
        fd = factor_group_determinant(group, field)
        e = group.exponent
        units = [pow(q, i, e) for i in range(multiplicative_order(q, e))]
        assert [entry.coset for entry in fd.factors] == group.galois_orbits(units)
        for entry in fd.factors:
            assert entry.label == "L=" + ",".join(map(str, entry.coset))
            # degree ord_{ord chi}(q)
            order = _character_order(group, entry.coset[0])
            assert entry.poly.is_homogeneous(multiplicative_order(q, order))
            assert len(entry.coset) == multiplicative_order(q, order)
        assert fd.verification.method == "points"
        assert fd.verification.bound <= Fraction(1, 1 << 64)

    def test_rational_labels(self):
        """norm_d{d}, followed by the least character's residues where the
        group has more than one orbit of characters of order d."""
        labels = [e.label for e in factor_group_determinant(AbelianGroup((2, 2)), QQ).factors]
        assert labels == ["norm_d1", "norm_d2_0_1", "norm_d2_1_0", "norm_d2_1_1"]
        labels = [e.label for e in factor_group_determinant(AbelianGroup((2, 3)), QQ).factors]
        assert labels == ["norm_d1", "norm_d2", "norm_d3", "norm_d6"]

    def test_cyclic_groups_as_the_cyclic_drivers(self):
        for n in (1, 6, 8, 9):
            assert factor_group_determinant(AbelianGroup.cyclic(n), QQ) == det_over_rationals(n)
        for n, q in ((7, 2), (12, 5), (9, 4)):
            field = finite_field(*FIELD_OF_ORDER[q])
            assert (factor_group_determinant(AbelianGroup.cyclic(n), field)
                    == det_over_finite_field(n, field))

    @pytest.mark.parametrize("divs", [(2, 2), (2, 3)], ids=_group_id)
    def test_against_sympy_at_int_points(self, divs):
        """The product of the factors over Q equals sympy's determinant of
        the group matrix at seeded int points."""
        sympy = pytest.importorskip("sympy")
        group = AbelianGroup(divs)
        fd = factor_group_determinant(group, QQ)
        rng = random.Random(len(divs) * 100 + group.order)
        for _ in range(5):
            values = [rng.randrange(-1000, 1000) for _ in fd.variables]
            rows = _abelian_matrix(group)(values, QQ)
            det = sympy.Matrix([[int(x) for x in row] for row in rows]).det()
            point = dict(zip(fd.variables, values))
            product = Fraction(1)
            for e in fd.factors:
                product *= e.poly.evaluate(point) ** e.multiplicity
            assert product == int(det)

    @pytest.mark.parametrize("divs, p", REDUCTION_CASES,
                             ids=[f"{_group_id(d)}-F{p}" for d, p in REDUCTION_CASES])
    def test_reduction_mod_p_refactors(self, divs, p):
        """Criterion 10 on any abelian group: each factor over Q, reduced
        mod p, is the product of the F_p factors whose orbits its orbit
        holds."""
        group = AbelianGroup(divs)
        field = PrimeField(p)
        rational = factor_group_determinant(group, QQ)
        modular = factor_group_determinant(group, field)
        reduced = [e.poly.map_coefficients(field.from_rational, field) for e in rational.factors]
        for orbit in group.galois_orbits(_units(group.exponent)):
            prod = MultiPoly.constant(field.one, modular.variables, field)
            for entry in modular.factors:
                if set(entry.coset) <= set(orbit):
                    prod = prod * entry.poly
                else:
                    assert not set(entry.coset) & set(orbit)
            reduced.remove(prod)
        assert reduced == []

    def test_cap_refuses_before_any_field_is_built(self, monkeypatch):
        """C3 x C9 over Q: its largest orbit, the phi(9) = 6 characters of
        order 9, is a product of 6 forms in 27 variables, C(32, 6)
        monomials."""
        def no_field(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(factorize, "splitting_field", no_field)
        monkeypatch.setattr(factorize, "cyclotomic_field", no_field)
        assert comb(32, 6) == 906192 > FORM_PRODUCT_CAP
        with pytest.raises(PreconditionError, match="906192 monomials"):
            factor_group_determinant(AbelianGroup((3, 9)), QQ)
        with pytest.raises(PreconditionError, match="906192 monomials"):
            factor_group_determinant(AbelianGroup((3, 9)), PrimeField(2))

    @pytest.mark.parametrize("call, corrupt, message", [
        ("f.factor_group_determinant(AbelianGroup((2, 2, 2)), f.QQ)",
         "orig = AbelianGroup.galois_orbits\n"
         "AbelianGroup.galois_orbits = lambda self, units: orig(self, units)[:-1]",
         "factor product disagrees with determinant at a point"),
        ("f.factor_group_determinant(AbelianGroup((2, 4)), PrimeField(3))",
         "orig = AbelianGroup.galois_orbits\n"
         "AbelianGroup.galois_orbits = lambda self, units: orig(self, units)[:-1]",
         "factor product disagrees with determinant at a point"),
        ("f.factor_group_determinant(AbelianGroup((2, 4)), PrimeField(3))",
         "orig = f._product_of_forms\n"
         "f._product_of_forms = lambda *a: (lambda p: p + "
         "f.MultiPoly.constant(a[4].one, p.variables, a[4]))(orig(*a))",
         "norm form is not homogeneous of degree 1"),
        ("f.factor_group_determinant(AbelianGroup((3, 3)), f.QQ)",
         "orig = f._product_of_forms\n"
         "f._product_of_forms = lambda *a: orig(*a).scale(a[4].from_int(2))",
         "a character is not 1 at the identity"),
    ], ids=["Q-orbit-dropped", "F3-orbit-dropped", "F3-degree", "Q-identity"])
    def test_corrupted_orbit_factor_raises_under_o(self, call, corrupt, message):
        assert check_under_o(call, TestChecksUnderO.IMPORT, corrupt + "\n") == f"raised: {message}"
