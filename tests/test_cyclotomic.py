"""Cyclotomic polynomials, Q(zeta_d) arithmetic, and the rational bases."""

import random
from fractions import Fraction
from math import gcd

import pytest

from groupfft.abelian import AbelianGroup
from groupfft.cyclotomic import (
    CycloElem,
    CyclotomicField,
    complementary_factor,
    complementary_inverse,
    cyclotomic_field,
    cyclotomic_polynomial,
    galois_conjugates,
    norm_to_rationals,
    rational_basis_abelian,
    rational_basis_cyclic,
    splitting_field,
)
from groupfft.errors import NoRootOfUnity, NotInvertible, PreconditionError, RingMismatch
from groupfft.numtheory import divisors, euler_phi, multiplicative_order, prime_factors
from groupfft.rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    PrimeField,
    UniPoly,
    _finite_field_root_of_unity,
    find_irreducible,
    finite_field,
    primitive_nth_root,
    x_pow_minus_one,
)
from groupfft.transform import convolve, group_idempotents

from helpers import (
    CYCLO_CONDUCTORS,
    check_under_o,
    from_ints,
    gen_pow,
    is_canonical,
    prime_complementary_inverse_shortcut,
    random_cyclo,
    sympy_poly,
)


def qpoly(*ints):
    return from_ints(ints, QQ)


class TestCyclotomicPolynomials:
    def test_small_values(self):
        assert cyclotomic_polynomial(1) == qpoly(-1, 1)
        assert cyclotomic_polynomial(3) == qpoly(1, 1, 1)

    def test_phi6_by_explicit_division(self):
        # independent derivation: divide X^6 - 1 by Phi_1 Phi_2 Phi_3 written by hand
        denom = qpoly(-1, 1) * qpoly(1, 1) * qpoly(1, 1, 1)
        q, r = divmod(x_pow_minus_one(6, QQ), denom)
        assert r.is_zero
        assert cyclotomic_polynomial(6) == q == qpoly(1, -1, 1)

    def test_product_identity_up_to_30(self):
        for n in range(1, 31):
            prod = UniPoly.constant(Fraction(1), QQ)
            for d in divisors(n):
                prod = prod * cyclotomic_polynomial(d)
            assert prod == x_pow_minus_one(n, QQ)

    def test_against_sympy_up_to_60(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("X")
        for d in range(1, 61):
            expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
            assert [int(c) for c in cyclotomic_polynomial(d).coeffs] == expected

    @pytest.mark.parametrize("corrupt, message", [
        ("c.divmod = lambda a, b: (a // b, a)",
         "Phi_1 does not divide X^15 - 1"),
        ("orig = c.euler_phi\nc.euler_phi = lambda d: orig(d) + 1",
         "Phi_1 has degree 1, not phi(1)"),
        ("orig = c.x_pow_minus_one\n"
         "c.x_pow_minus_one = lambda d, ring: orig(d, ring).scale(Fraction(1, 2))",
         "Phi_1 has a fractional coefficient"),
    ], ids=["remainder", "degree", "fraction"])
    def test_checks_under_o(self, corrupt, message):
        """Each check raises VerificationError under python -O, on a
        corrupted collaborator."""
        setup = """
            from fractions import Fraction
            import groupfft.cyclotomic as c
        """
        out = check_under_o("c.cyclotomic_polynomial(15)", setup, corrupt + "\n")
        assert out == f"raised: {message}"

    def test_degrees_up_to_30(self):
        for d in range(1, 31):
            poly = cyclotomic_polynomial(d)
            assert poly.degree == euler_phi(d)
            assert poly.is_monic
            assert all(c.denominator == 1 for c in poly.coeffs)


class TestCycloArithmetic:
    def test_cube_root(self):
        k = cyclotomic_field(3)
        j = k.zeta
        assert j * j == k.from_residue([-1, -1])
        assert j * j * j == k.one

    def test_inverse_roundtrip(self):
        k = cyclotomic_field(3)
        x = k.zeta - k.one
        assert k.inv(x) * x == k.one

    def test_gaussian_square(self):
        k = cyclotomic_field(4)
        i = k.zeta
        assert (k.one + i) ** 2 == k.from_int(2) * i

    def test_conductor_mismatch(self):
        with pytest.raises(RingMismatch):
            cyclotomic_field(3).zeta + cyclotomic_field(4).zeta

    def test_zero_inverse(self):
        with pytest.raises(NotInvertible):
            cyclotomic_field(5).inv(cyclotomic_field(5).zero)

    @pytest.mark.parametrize("value", [3, 0, -2, Fraction(5, 7), Fraction(-1, 2)])
    def test_rational_elements_hash_like_their_value(self, value):
        k = cyclotomic_field(3)
        elem = k.from_rational(Fraction(value))
        assert elem == value and hash(elem) == hash(value)
        assert len({elem, value}) == 1

    def test_irrational_hash_follows_equality(self):
        k = cyclotomic_field(5)
        assert hash(k.zeta * k.one) == hash(k.zeta)
        assert len({k.zeta, k.zeta ** 6, k.zeta ** 2}) == 2


class TestCycloInverse:
    """The norm-based inverse against the product and against sympy."""

    @pytest.mark.parametrize("d", CYCLO_CONDUCTORS)
    def test_inverse_times_element_is_one(self, d):
        k = cyclotomic_field(d)
        rng = random.Random(400 + d)
        for _ in range(200):
            x = random_cyclo(k, rng)
            if not x:
                with pytest.raises(NotInvertible):
                    k.inv(x)
                continue
            y = k.inv(x)
            assert is_canonical(y)
            assert x * y == k.one
        with pytest.raises(NotInvertible):
            k.inv(k.zero)

    @pytest.mark.parametrize("d", CYCLO_CONDUCTORS)
    def test_inverse_against_sympy(self, d):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("X")
        phi = sympy.cyclotomic_poly(d, X)
        k = cyclotomic_field(d)
        rng = random.Random(500 + d)
        for _ in range(8):
            x = random_cyclo(k, rng)
            if not x:
                continue
            expected = sympy.invert(sympy_poly(sympy, x.residue, X), phi, X, domain="QQ")
            got = sympy_poly(sympy, k.inv(x).residue, X)
            assert sympy.expand(expected - got) == 0

    def test_rational_forms_share_one_hash_class(self):
        k = cyclotomic_field(7)
        assert len({k.from_int(3), 3, Fraction(3)}) == 1
        assert len({k.from_rational(Fraction(-5, 6)), Fraction(-5, 6)}) == 1


class TestCycloAsExtField:
    """Q(zeta_d) is the quotient ring Q[X]/(Phi_d), built as an ExtField."""

    def test_classes(self):
        assert issubclass(CyclotomicField, ExtField)
        assert issubclass(CycloElem, ExtFieldElem)
        k = cyclotomic_field(12)
        assert k.base == QQ and k.modulus == cyclotomic_polynomial(12)
        assert k.zeta == k.gen and not k.is_finite and k.characteristic == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_every_residue_is_phi_d_fractions(self, d):
        k = cyclotomic_field(d)
        big = cyclotomic_field(2 * d)
        x = k.from_residue([Fraction(1, 2), 3, Fraction(-2, 5), 1][: k.degree])
        elems = [
            k.zero, k.one, k.zeta, k.from_int(4), k.from_rational(Fraction(-3, 7)),
            k.from_residue(range(1, 3 * d)), x, -x, x + k.zeta, x - k.zeta, x * x, x * 3, Fraction(1, 3) * x,
            k.inv(x), 1 / x, x ** -2, k.primitive_nth_root(d),
            *galois_conjugates(x),
        ]
        for e in elems:
            assert type(e) is CycloElem and e.field is k
            assert len(e.residue) == euler_phi(d)
            assert all(type(c) is Fraction for c in e.residue)
        lifted = big.embed_from(x)
        assert len(lifted.residue) == euler_phi(2 * d)
        assert all(type(c) is Fraction for c in lifted.residue)

    @pytest.mark.parametrize("modulus", [qpoly(1, 1, 1), qpoly(-1, 1), qpoly(1, 0, 1)])
    def test_ext_field_over_q_refused(self, modulus):
        with pytest.raises(PreconditionError):
            ExtField(QQ, modulus)

    def test_rational_aliases(self):
        k = cyclotomic_field(5)
        assert k.from_int(3).is_rational and k.from_int(3).rational_value == 3
        assert not k.zeta.is_rational
        with pytest.raises(PreconditionError):
            k.zeta.rational_value


class TestFromResidue:
    """from_residue reads ints and Fractions as numerators over their lcm
    and folds every power of zeta past phi(d) through the integral table:
    the element the UniPoly route gives, for every residue length."""

    @pytest.mark.parametrize("d", range(1, 16))
    def test_against_the_unipoly_route(self, d):
        k = cyclotomic_field(d)
        r = k.degree
        rng = random.Random(d)
        for length in sorted({0, 1, r - 1, r, r + 1, 2 * r - 1, 2 * r, 3 * r + 2, d + 3}):
            for fractions in (False, True):
                coeffs = [Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)) if fractions
                          else rng.randrange(-30, 31) for _ in range(length)]
                x = k.from_residue(coeffs)
                assert x == k.from_poly(UniPoly.make(coeffs, QQ))
                assert is_canonical(x) and len(x.num) == r

    def test_refuses_other_values(self):
        k = cyclotomic_field(5)
        for bad in (0.5, "1", k.one, PrimeField(5).one):
            with pytest.raises(RingMismatch):
                k.from_residue([1, bad])


class TestSplittingField:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 9, 10, 12, 15])
    def test_rule_agrees_with_the_root_formula(self, d):
        k = cyclotomic_field(d)
        for n in range(1, 31):
            big, embed = splitting_field(k, n)
            try:
                k.primitive_nth_root(n)
                assert big is k and embed(k.zeta) is k.zeta
            except NoRootOfUnity:
                assert big.conductor % n == 0 and big.conductor % d == 0
                assert embed(k.zeta) == big.zeta ** (big.conductor // d)

    def test_over_q(self):
        assert splitting_field(QQ, 2)[0] is QQ
        big, embed = splitting_field(QQ, 6)
        assert big is cyclotomic_field(6)
        assert embed(Fraction(1, 2)) == big.from_rational(Fraction(1, 2))

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2), (7, 1)])
    def test_over_finite_fields_degree_is_the_order_of_q(self, p, r):
        field = finite_field(p, r)
        for n in range(1, 22):
            if n % p == 0:
                continue
            big, embed = splitting_field(field, n)
            s = multiplicative_order(field.order, n) if n > 1 else 1
            if s == 1:
                assert big is field
            else:
                # memoized per equal descriptor: the base is the first
                # descriptor equal to field that asked, not always field
                assert big.base == field and big.degree == s
                assert embed(field.one) == big.one
            primitive_nth_root(n, big)  # holds the root: no NoRootOfUnity

    def test_finite_extensions_are_memoized(self):
        f7 = finite_field(7, 1)
        big, embed = splitting_field(f7, 5)
        again = splitting_field(PrimeField(7), 5)
        assert again[0] is big and again[1] == embed
        # one descriptor, so one root table
        zeta = primitive_nth_root(5, big)
        assert primitive_nth_root(5, again[0]) is zeta
        # the canonical root is the one a fresh search finds
        assert big.modulus == find_irreducible(PrimeField(7), 4)
        assert _finite_field_root_of_unity(big, 5) == zeta
        # another n with the same ord_n(7) = 4 shares the extension
        assert splitting_field(f7, 10)[0] is big


class TestCycloRoots:
    @pytest.mark.parametrize("d", [1, 3, 5, 9, 15])
    def test_exact_order_for_every_divisor_of_2d(self, d):
        k = cyclotomic_field(d)
        for n in divisors(2 * d):
            zeta = k.primitive_nth_root(n)
            assert zeta ** n == k.one
            assert all(zeta ** (n // ell) != k.one for ell in prime_factors(n))

    def test_odd_conductor_root_is_minus_a_power_of_zeta(self):
        k = cyclotomic_field(3)
        # -zeta_d^(2d/n): -zeta_3 for n = 6, -1 for n = 2
        assert k.primitive_nth_root(6) == -k.zeta
        assert k.primitive_nth_root(2) == -k.one
        assert cyclotomic_field(15).primitive_nth_root(10) == -(cyclotomic_field(15).zeta ** 3)

    def test_roots_outside_the_field_refused(self):
        with pytest.raises(NoRootOfUnity):
            cyclotomic_field(3).primitive_nth_root(4)
        with pytest.raises(NoRootOfUnity):
            cyclotomic_field(4).primitive_nth_root(8)


class TestGaloisConjugates:
    def test_cube_root_pair(self):
        k = cyclotomic_field(3)
        j = k.zeta
        assert galois_conjugates(j) == [j, j * j]

    def test_complex_conjugation(self):
        k = cyclotomic_field(4)
        i = k.zeta
        assert galois_conjugates(k.one + i) == [k.one + i, k.one - i]

    def test_trivial_conductor(self):
        k = cyclotomic_field(1)
        assert galois_conjugates(k.from_int(5)) == [k.from_int(5)]

    def test_norm_is_rational_and_multiplicative(self):
        rng = random.Random(5)
        for d in range(1, 13):
            k = cyclotomic_field(d)
            deg = max(k.degree, 1)
            for _ in range(200 // d + 3):
                a = k.from_residue([rng.randrange(-5, 6) for _ in range(deg)])
                b = k.from_residue([rng.randrange(-5, 6) for _ in range(deg)])
                na, nb = norm_to_rationals(a), norm_to_rationals(b)
                assert norm_to_rationals(a * b) == na * nb

    @pytest.mark.parametrize("d", CYCLO_CONDUCTORS)
    def test_conjugates_and_embeddings_match_substitution(self, d):
        """zeta -> zeta^m and Q(zeta_d) -> Q(zeta_(kd)) against the
        UniPoly route: substitute a power of X, then reduce."""
        k = cyclotomic_field(d)
        rng = random.Random(600 + d)
        units = [m for m in range(1, d + 1) if gcd(m, d) == 1]
        for _ in range(10):
            x = random_cyclo(k, rng)
            conjugates = galois_conjugates(x)
            assert len(conjugates) == len(units)
            for m, c in zip(units, conjugates):
                assert c == k.from_poly(x.poly.substitute_power(m) % k.modulus)
                assert is_canonical(c)
            for mult in (2, 3):
                big = cyclotomic_field(mult * d)
                lifted = big.embed_from(x)
                expected = x.poly.substitute_power(mult) % big.modulus
                assert lifted == big.from_poly(expected) and is_canonical(lifted)


class TestComplementaryFactors:
    def test_prime_n_3(self):
        assert complementary_factor(3, 1) == cyclotomic_polynomial(3)
        assert complementary_inverse(3, 1) == UniPoly.constant(Fraction(1, 3), QQ)
        assert complementary_factor(3, 3) == qpoly(-1, 1)
        assert complementary_inverse(3, 3) == UniPoly.make(
            [Fraction(-2, 3), Fraction(-1, 3)], QQ
        )

    def test_n_2(self):
        assert complementary_factor(2, 2) == qpoly(-1, 1)
        tilde = complementary_inverse(2, 2)
        assert tilde == UniPoly.constant(Fraction(-1, 2), QQ)
        # (X - 1) * (-1/2) = 1 at X = -1, the root of Phi_2
        assert (qpoly(-1, 1) * tilde).evaluate(Fraction(-1)) == 1

    def test_inverse_identity_all_n_up_to_12(self):
        for n in range(1, 13):
            for d in divisors(n):
                psi = complementary_factor(n, d)
                tilde = complementary_inverse(n, d)
                assert tilde.degree <= euler_phi(d) - 1
                assert (tilde * psi) % cyclotomic_polynomial(d) == qpoly(1)

    def test_prime_shortcut_cross_check(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert prime_complementary_inverse_shortcut(p) == complementary_inverse(p, p)

    def test_non_divisor_rejected(self):
        from groupfft.errors import PreconditionError

        with pytest.raises(PreconditionError):
            complementary_factor(6, 4)

    @pytest.mark.parametrize("fn", [complementary_factor, complementary_inverse])
    def test_order_zero_rejected(self, fn):
        # X^0 - 1 = 0: no quotient by Phi_1, rather than the old answer 1
        with pytest.raises(PreconditionError):
            fn(0, 1)


class TestRationalBasisCyclic:
    def test_n3_matches_worked_example(self):
        basis = rational_basis_cyclic(3)
        third = Fraction(1, 3)
        expected = [
            UniPoly.make([third, third, third], QQ),
            UniPoly.make([2 * third, -third, -third], QQ),
            UniPoly.make([-third, 2 * third, -third], QQ),
        ]
        assert [b.poly for b in basis] == expected
        assert [(b.d, b.j) for b in basis] == [(1, 0), (3, 0), (3, 1)]

    def test_n1(self):
        basis = rational_basis_cyclic(1)
        assert len(basis) == 1
        assert basis[0].poly == qpoly(1)

    def test_n2(self):
        basis = rational_basis_cyclic(2)
        assert basis[0].poly == UniPoly.make([Fraction(1, 2), Fraction(1, 2)], QQ)
        assert basis[1].poly == UniPoly.make([Fraction(1, 2), Fraction(-1, 2)], QQ)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_rotation_is_the_product_by_x(self, n):
        """E_(d,j+1) is X E_(d,j) mod X^n - 1, taken from the product and
        division in Q[X]: the basis built by rotating coefficient lists is
        that one, coefficient by coefficient."""
        modulus = x_pow_minus_one(n, QQ)
        x = UniPoly.gen(QQ)
        expected = []
        for d in divisors(n):
            cur = (complementary_inverse(n, d) * complementary_factor(n, d)) % modulus
            for j in range(euler_phi(d)):
                expected.append((d, j, cur))
                cur = (cur * x) % modulus
        basis = rational_basis_cyclic(n)
        assert [(b.d, b.j, b.poly) for b in basis] == expected
        for b, (_, _, poly) in zip(basis, expected):
            assert b.poly.coeffs == poly.coeffs
            assert all(type(c) is Fraction for c in b.poly.coeffs)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_idempotent_relations(self, n):
        modulus = x_pow_minus_one(n, QQ)
        heads = {b.d: b.poly for b in rational_basis_cyclic(n) if b.j == 0}
        total = UniPoly.zero(QQ)
        for d, e in heads.items():
            assert (e * e) % modulus == e
            total = total + e
            for d2, e2 in heads.items():
                if d2 != d:
                    assert ((e * e2) % modulus).is_zero
        assert total == qpoly(1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_shift_action(self, n):
        modulus = x_pow_minus_one(n, QQ)
        x = UniPoly.gen(QQ)
        basis = rational_basis_cyclic(n)
        by_key = {(b.d, b.j): b.poly for b in basis}
        for b in basis:
            if b.j < euler_phi(b.d) - 1:
                assert (b.poly * x) % modulus == by_key[(b.d, b.j + 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_splitting_components(self, n):
        # E_(d,j) reduces to X^j mod Phi_d and to 0 mod Phi_d' for d' != d
        for b in rational_basis_cyclic(n):
            for d2 in divisors(n):
                reduced = b.poly % cyclotomic_polynomial(d2)
                if d2 == b.d:
                    assert reduced == gen_pow(b.j, QQ) % cyclotomic_polynomial(d2)
                else:
                    assert reduced.is_zero


class TestChecksUnderO:
    """The checks of the norm, the complementary factors and the rational
    basis raise VerificationError under python -O, each on a corrupted
    collaborator."""

    SETUP = """
        from fractions import Fraction
        import groupfft.cyclotomic as c
        from groupfft.rings import QQ, UniPoly
    """

    @pytest.mark.parametrize("corrupt, call, message", [
        ("c.galois_conjugates = lambda a: [a]",
         "c.norm_to_rationals(c.cyclotomic_field(5).zeta)",
         "the norm of z is not rational"),
        ("orig = c.cyclotomic_polynomial\norig(3)\n"
         "c.cyclotomic_polynomial = lambda d: orig(d) + UniPoly.constant(QQ.one, QQ)",
         "c.complementary_factor(6, 3)",
         "Phi_3 does not divide X^6 - 1"),
        ("orig = c.ext_gcd\n"
         "c.ext_gcd = lambda a, b: (UniPoly.gen(QQ),) + orig(a, b)[1:]",
         "c.complementary_inverse(6, 3)",
         "(X^6 - 1)/Phi_3 is not prime to Phi_3"),
        ("orig = c.ext_gcd\n"
         "c.ext_gcd = lambda a, b: (lambda g, u, v: (g, u.scale(Fraction(2)), v))(*orig(a, b))",
         "c.complementary_inverse(6, 3)",
         "the inverse of (X^6 - 1)/Phi_3 modulo Phi_3 fails"),
        ("c.rational_basis_cyclic(6)\n"
         "orig = c.euler_phi\nc.euler_phi = lambda d: orig(d) + 1",
         "c.rational_basis_cyclic(6)",
         "10 rational basis elements, expected 6"),
    ], ids=["norm", "complementary-factor", "inverse-gcd", "inverse-identity", "basis-size"])
    def test_checks_under_o(self, corrupt, call, message):
        assert check_under_o(call, self.SETUP, corrupt + "\n") == f"raised: {message}"


class TestRationalBasisAbelian:
    def test_c2_matches_cyclic(self):
        group = AbelianGroup.cyclic(2)
        basis = rational_basis_abelian(group)
        cyc = rational_basis_cyclic(2)
        for vec, b in zip(basis, cyc):
            assert list(vec.values) == [b.poly.coefficient(k) for k in range(2)]

    def test_c2xc2_matches_idempotents_over_q(self):
        group = AbelianGroup((2, 2))
        basis = rational_basis_abelian(group)
        idems = group_idempotents(group, QQ)
        basis_keys = sorted(tuple(v.values) for v in basis)
        idem_keys = sorted(tuple(v.values) for v in idems)
        assert basis_keys == idem_keys

    def test_c6_component_identities_sum_to_one(self):
        group = AbelianGroup.cyclic(6)
        basis = rational_basis_abelian(group)
        cyc = rational_basis_cyclic(6)
        head_indices = [k for k, b in enumerate(cyc) if b.j == 0]
        total = basis[head_indices[0]]
        for k in head_indices[1:]:
            total = total + basis[k]
        expected = tuple(
            Fraction(1) if a == group.identity else Fraction(0)
            for a in group.elements()
        )
        assert total.values == expected

    def test_tensor_idempotency_c2xc2(self):
        group = AbelianGroup((2, 2))
        basis = rational_basis_abelian(group)
        for vec in basis:
            assert convolve(vec, vec).values == vec.values
