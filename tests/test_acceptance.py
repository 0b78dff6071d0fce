"""Acceptance suite: ten criteria, all exact (tolerance = equality).

Each criterion is a standalone check function; pytest wrappers run them
individually, and running this file as a script prints one PASS/FAIL
line per criterion:

    python3 tests/test_acceptance.py
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from groupfft.abelian import AbelianGroup, character_matrix
from groupfft.cyclotomic import cyclotomic_field, rational_basis_cyclic
from groupfft.errors import NoRootOfUnity
from groupfft.factorize import (
    det_over_finite_field,
    det_over_rationals,
    det_split_field,
    factor_xn_minus_one,
    vandermonde_det,
)
from groupfft.frobenius import (
    TupleCharacter,
    block_diagonalize_s3,
    extended_character,
    frobenius_factorization,
    frobenius_polynomial,
    s3,
)
from groupfft.linalg import identity_matrix, mat_eq, mat_mul
from groupfft.multipoly import MultiPoly, symbolic_det
from groupfft.numtheory import divisors
from groupfft.rings import (
    QQ,
    ExtField,
    PrimeField,
    UniPoly,
    find_irreducible,
    primitive_nth_root,
    x_pow_minus_one,
)
from groupfft.transform import (
    GroupVector,
    blahut_weight,
    convolve,
    fft,
    group_idempotents,
    group_matrix,
    group_variables,
    inverse_fft,
    shift_matrix,
    shift_power_from_idempotents,
    symbolic_vector,
)

from helpers import from_ints, random_vector

SEED = 20120913


def _leibniz_det(rows, field):
    """Permutation-sum determinant: an independent third route."""
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def check_criterion_1():
    """Vandermonde determinants of the character matrices of C_1..C_4."""
    assert vandermonde_det(1, QQ) == Fraction(1)
    assert vandermonde_det(2, QQ) == Fraction(-2)

    k3 = cyclotomic_field(3)
    j = k3.zeta
    d3 = vandermonde_det(3, k3)
    assert d3 == k3.from_int(3) * j * (j - k3.one)
    assert d3 == _leibniz_det(character_matrix(AbelianGroup.cyclic(3), k3), k3)

    # The displayed 4x4 matrix ((1,1,1,1),(1,i,-1,-i),(1,-1,1,-1),(1,-i,-1,i))
    # has determinant -16i.  Three independent routes agree: the pairwise
    # product formula, elimination, and the raw permutation sum.
    k4 = cyclotomic_field(4)
    i = k4.zeta
    d4 = vandermonde_det(4, k4)
    displayed = [
        [k4.one, k4.one, k4.one, k4.one],
        [k4.one, i, -k4.one, -i],
        [k4.one, -k4.one, k4.one, -k4.one],
        [k4.one, -i, -k4.one, i],
    ]
    assert character_matrix(AbelianGroup.cyclic(4), k4) == displayed
    assert d4 == _leibniz_det(displayed, k4)
    assert d4 == k4.from_int(-16) * i


def check_criterion_2():
    """det A_C3 symbolically, and its split-field / rational factorizations."""
    group = AbelianGroup.cyclic(3)
    variables = group_variables(group)
    x0, x1, x2 = (MultiPoly.variable(v, variables, QQ) for v in variables)
    det = symbolic_det(group_matrix(symbolic_vector(group, QQ)).rows())
    assert det == x0 ** 3 + x1 ** 3 + x2 ** 3 - (x0 * x1 * x2).scale(3)

    k3 = cyclotomic_field(3)
    j = k3.zeta
    j2 = j * j
    split = det_split_field(group, k3)
    expected_split = [
        MultiPoly.linear({"X_0": k3.one, "X_1": k3.one, "X_2": k3.one}, variables, k3),
        MultiPoly.linear({"X_0": k3.one, "X_1": j, "X_2": j2}, variables, k3),
        MultiPoly.linear({"X_0": k3.one, "X_1": j2, "X_2": j}, variables, k3),
    ]
    assert [e.poly for e in split.factors] == expected_split
    det_k3 = det.map_coefficients(k3.from_rational, k3)
    assert split.product() == det_k3

    rational = det_over_rationals(3)
    expected_quadratic = (
        x0 * x0 + x1 * x1 + x2 * x2 - x0 * x1 - x1 * x2 - x2 * x0
    )
    assert [e.poly for e in rational.factors] == [x0 + x1 + x2, expected_quadratic]
    assert rational.product() == det


def check_criterion_3():
    """Rational basis worked example, plus idempotent relations for n <= 12."""
    third = Fraction(1, 3)
    expected = [
        UniPoly.make([third, third, third], QQ),
        UniPoly.make([2 * third, -third, -third], QQ),
        UniPoly.make([-third, 2 * third, -third], QQ),
    ]
    assert [b.poly for b in rational_basis_cyclic(3)] == expected

    one = from_ints([1], QQ)
    for n in range(1, 13):
        modulus = x_pow_minus_one(n, QQ)
        heads = [b.poly for b in rational_basis_cyclic(n) if b.j == 0]
        assert len(heads) == len(divisors(n))
        total = UniPoly.zero(QQ)
        for a in heads:
            assert (a * a) % modulus == a
            total = total + a
            for b in heads:
                if a is not b:
                    assert ((a * b) % modulus).is_zero
        assert total == one


def check_criterion_4():
    """Circulant idempotent relations over Q(zeta_n) and over F_q, n | q - 1."""
    split_prime = {2: 3, 3: 7, 4: 5, 5: 11, 6: 7, 7: 29, 8: 17}
    for n in range(2, 9):
        for field in (cyclotomic_field(n), PrimeField(split_prime[n])):
            group = AbelianGroup.cyclic(n)
            idems = group_idempotents(group, field)
            mats = [group_matrix(e).rows() for e in idems]
            zero_mat = [[field.zero] * n for _ in range(n)]
            ident = identity_matrix(n, field)
            total = zero_mat
            for i in range(n):
                total = [
                    [a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, mats[i])
                ]
                for ell in range(n):
                    prod = mat_mul(mats[i], mats[ell], field)
                    assert mat_eq(prod, mats[i] if i == ell else zero_mat)
            assert mat_eq(total, ident)
            for h in range(n):
                shift_power_from_idempotents(n, field, h)
            assert mat_eq(
                mat_mul(shift_matrix(n, field).rows(), mats[0], field),
                mats[0],
            )


FFT_GROUPS = [
    AbelianGroup.cyclic(2),
    AbelianGroup.cyclic(3),
    AbelianGroup.cyclic(4),
    AbelianGroup.cyclic(6),
    AbelianGroup((2, 2)),
    AbelianGroup((2, 6)),
    AbelianGroup((3, 3)),
]


def _fft_fields(group):
    fields = [cyclotomic_field(group.exponent), PrimeField(7), PrimeField(13),
              ExtField(PrimeField(2), find_irreducible(2, 2))]
    admissible = []
    for field in fields:
        if field.characteristic and group.order % field.characteristic == 0:
            continue
        try:
            primitive_nth_root(group.exponent, field)
        except NoRootOfUnity:
            continue
        admissible.append(field)
    return admissible


def check_criterion_5():
    """Transform pair round trip and convolution theorem on the test matrix."""
    rng = random.Random(SEED)
    combos = 0
    for group in FFT_GROUPS:
        for field in _fft_fields(group):
            combos += 1
            for _ in range(200):
                b = random_vector(group, field, rng)
                assert inverse_fft(fft(b)).values == b.values
            for _ in range(100):
                a = random_vector(group, field, rng)
                b = random_vector(group, field, rng)
                lhs = fft(convolve(a, b)).values
                rhs = tuple(x * y for x, y in zip(fft(a).values, fft(b).values))
                assert lhs == rhs
    assert combos == 22


def check_criterion_6():
    """Weight equals dual-matrix rank: exhaustive small cases + 2000 random."""
    # all 16 bit patterns on C2xC2; characteristic 2 divides the order, so
    # the patterns are embedded into Q, where the transform is defined
    g22 = AbelianGroup((2, 2))
    for bits in itertools.product((0, 1), repeat=4):
        b = GroupVector(g22, QQ, tuple(Fraction(x) for x in bits))
        assert blahut_weight(b) == sum(bits)

    # all 125 vectors of F_5^3 on C_3; internally lifted to F_25
    f5 = PrimeField(5)
    c3 = AbelianGroup.cyclic(3)
    for vals in itertools.product(range(5), repeat=3):
        b = GroupVector(c3, f5, tuple(f5.from_int(v) for v in vals))
        assert blahut_weight(b) == sum(1 for v in vals if v)

    rng = random.Random(SEED)
    f7, f13 = PrimeField(7), PrimeField(13)
    c6, g26 = AbelianGroup.cyclic(6), AbelianGroup((2, 6))
    for _ in range(1000):
        b = random_vector(c6, f7, rng)
        assert blahut_weight(b) == b.hamming_weight()
    for _ in range(1000):
        b = random_vector(g26, f13, rng)
        assert blahut_weight(b) == b.hamming_weight()


def check_criterion_7():
    """X^n - 1 coset factorization over F_q: dichotomy at n = 3, identities."""
    f2, f7 = PrimeField(2), PrimeField(7)
    over_f2 = factor_xn_minus_one(3, f2)
    assert [str(f.poly) for f in over_f2] == ["X + 1", "X^2 + X + 1"]
    over_f7 = factor_xn_minus_one(3, f7)
    assert [f.poly.degree for f in over_f7] == [1, 1, 1]
    # the q mod 3 dichotomy
    assert 7 % 3 == 1 and 2 % 3 == 2

    for n in range(1, 13):
        for q in (2, 3, 5, 7, 11, 13):
            if gcd(n, q) != 1:
                continue
            field = PrimeField(q)
            factors = factor_xn_minus_one(n, field)
            labels = sorted(x for f in factors for x in f.labels)
            assert labels == list(range(n))
            prod = UniPoly.constant(field.one, field)
            for f in factors:
                assert f.poly ** q == f.poly.substitute_power(q)
                prod = prod * f.poly
            assert prod == x_pow_minus_one(n, field)


def check_criterion_8():
    """S3 block diagonalization with the exact displayed forms."""
    result = block_diagonalize_s3()
    field = result.l0.ring
    variables = result.group.variables()
    j = field.zeta
    j2 = j * j

    def lin(coeffs):
        return MultiPoly.linear(coeffs, variables, field)

    ones = {v: field.one for v in variables}
    assert result.l0 == lin(ones)
    assert result.l1 == lin(
        {
            "X_e": field.one,
            "X_s": field.one,
            "X_s2": field.one,
            "X_t": -field.one,
            "X_ts": -field.one,
            "X_ts2": -field.one,
        }
    )
    assert result.m_block[0][0] == lin({"X_e": field.one, "X_s": j, "X_s2": j2})
    assert result.m_block[0][1] == lin({"X_t": field.one, "X_ts": j2, "X_ts2": j})
    assert result.m_block[1][0] == lin({"X_t": field.one, "X_ts": j, "X_ts2": j2})
    assert result.m_block[1][1] == lin({"X_e": field.one, "X_s": j2, "X_s2": j})

    det_a = symbolic_det(result.group.symbolic_matrix(field))
    assert det_a == result.l0 * result.l1 * result.det_m * result.det_m

    def norm(a, b, c):
        xa, xb, xc = (MultiPoly.variable(v, variables, field) for v in (a, b, c))
        return xa * xa + xb * xb + xc * xc - xa * xb - xb * xc - xc * xa

    assert result.det_m == norm("X_e", "X_s", "X_s2") - norm("X_t", "X_ts", "X_ts2")


def check_criterion_9():
    """Power-sum factor identities and extended-character rules."""
    data = s3()
    group = data.group
    blocks = block_diagonalize_s3()
    field = blocks.l0.ring

    psi2 = frobenius_polynomial(data.representations[2])
    assert psi2.polynomial == blocks.det_m

    # degree-1 representations give exactly their linear forms
    assert frobenius_polynomial(data.representations[0]).polynomial == blocks.l0
    assert frobenius_polynomial(data.representations[1]).polynomial == blocks.l1

    chi2 = TupleCharacter.from_representation(data.representations[2])
    # product rule, exhaustively over all 36 pairs
    for s1 in range(6):
        for s2 in range(6):
            expected = chi2.values[s1] * chi2.values[s2] - chi2.values[group.mul(s1, s2)]
            assert extended_character(chi2, (s1, s2)) == expected
    # (f - k) rule with the identity prepended, k = 1 and 2
    for s1 in range(6):
        assert extended_character(chi2, (group.identity, s1)) == chi2.values[s1]
        for s2 in range(6):
            pair = extended_character(chi2, (s1, s2))
            assert extended_character(chi2, (group.identity, s1, s2)) == field.zero * pair
    # vanishing beyond the degree: exhaustive pairs for the degree-1 reps,
    # 500 sampled triples for the degree-2 rep
    for rep in data.representations[:2]:
        chi = TupleCharacter.from_representation(rep)
        for pair in itertools.product(range(6), repeat=2):
            assert extended_character(chi, pair) == field.zero
    rng = random.Random(SEED)
    for _ in range(500):
        triple = tuple(rng.randrange(6) for _ in range(3))
        assert extended_character(chi2, triple) == field.zero

    fd = frobenius_factorization(group, data.representations)
    assert fd.product() == symbolic_det(group.symbolic_matrix(field))


def check_criterion_10():
    """Rational factors reduced mod p refactor into the mod-p coset factors."""
    primes = (2, 3, 5, 7, 11, 13)
    for n in range(1, 11):
        rational = det_over_rationals(n)
        for p in primes:
            if n % p == 0:
                continue
            field = PrimeField(p)
            modular = det_over_finite_field(n, field)
            by_divisor: dict = {}
            for entry in modular.factors:
                ell = entry.coset[0]
                d = n // gcd(n, ell) if ell else 1
                by_divisor.setdefault(d, []).append(entry.poly)
            assert sorted(by_divisor) == divisors(n)
            used = 0
            for entry in rational.factors:
                reduced = entry.poly.map_coefficients(field.from_rational, field)
                prod = MultiPoly.constant(field.one, modular.variables, field)
                parts = by_divisor[entry.divisor]
                used += len(parts)
                for part in parts:
                    prod = prod * part
                assert prod == reduced
            assert used == len(modular.factors)


CRITERIA = [
    (1, "Vandermonde determinant values, product formula vs direct", check_criterion_1),
    (2, "cyclic order-3 determinant and its split/rational factorizations", check_criterion_2),
    (3, "rational basis worked example and idempotent relations n <= 12", check_criterion_3),
    (4, "circulant idempotents and shift reconstruction, n = 2..8", check_criterion_4),
    (5, "transform round trip and convolution theorem on the test matrix", check_criterion_5),
    (6, "weight equals dual-matrix rank, exhaustive + 2000 random", check_criterion_6),
    (7, "coset factorization of X^n - 1 over F_q, n <= 12", check_criterion_7),
    (8, "order-6 symmetric group block diagonalization", check_criterion_8),
    (9, "power-sum factors and extended-character identities", check_criterion_9),
    (10, "mod-p reduction consistency of the rational factors, n <= 10", check_criterion_10),
]


@pytest.mark.parametrize(
    "number,description,check",
    CRITERIA,
    ids=[f"criterion_{n}" for n, _, _ in CRITERIA],
)
def test_acceptance(number, description, check):
    check()
    print(f"PASS criterion {number}: {description}")


def main() -> int:
    failures = 0
    for number, description, check in CRITERIA:
        try:
            check()
        except Exception as exc:  # pragma: no cover - reporting path
            failures += 1
            print(f"FAIL criterion {number}: {description} -- {exc}")
        else:
            print(f"PASS criterion {number}: {description}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
