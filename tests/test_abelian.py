"""Groups, characters, orderings, pairings, character matrices."""

from fractions import Fraction

import pytest

from groupfft.abelian import (
    AbelianGroup,
    Character,
    GroupElement,
    bidual_identification,
    character_matrix,
    character_matrix_inverse,
    parse_group,
)
from groupfft.cyclotomic import cyclotomic_field, cyclotomic_polynomial
from groupfft.errors import NoRootOfUnity, PreconditionError
from groupfft.linalg import identity_matrix, mat_eq, mat_mul
from groupfft.rings import QQ, PrimeField

from helpers import (
    all_groups_of_order_up_to,
    check_under_o,
    from_ints,
    is_elementary_divisor_form,
)


class TestStructure:
    def test_element_orderings(self):
        assert [e.residues for e in AbelianGroup.cyclic(2).elements()] == [(0,), (1,)]
        g22 = AbelianGroup((2, 2))
        assert [e.residues for e in g22.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [e.residues for e in AbelianGroup.cyclic(6).elements()] == [
            (i,) for i in range(6)
        ]
        assert [c.residues for c in g22.characters()] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_order_exponent(self):
        g = AbelianGroup((2, 6))
        assert g.order == 12 and g.exponent == 6
        g23 = AbelianGroup((2, 3))
        assert g23.exponent == 6 and not is_elementary_divisor_form(g23)
        assert g23.normalized() == AbelianGroup((6,))

    def test_parse_and_normalize(self):
        assert parse_group("C2xC3") == AbelianGroup((6,))
        assert parse_group("C2xC3", normalize=False) == AbelianGroup((2, 3))
        assert parse_group("C4") == AbelianGroup((4,))
        assert parse_group("C2xC2xC5") == AbelianGroup((2, 10))
        with pytest.raises(PreconditionError):
            parse_group("D4")
        with pytest.raises(PreconditionError):
            parse_group("C0")

    def test_index_roundtrip(self):
        g = AbelianGroup((2, 6))
        for k, e in enumerate(g.elements()):
            assert g.index(e) == k

    def test_characters_and_char_index_follow_the_elements(self):
        """characters() and char_index are elements() and index on the dual
        side: the same residue tuples, in the same order, at the same int
        positions."""
        for g in all_groups_of_order_up_to(12) + [AbelianGroup((3, 2))]:
            chars = g.characters()
            assert all(type(chi) is Character for chi in chars)
            assert [chi.residues for chi in chars] == [a.residues for a in g.elements()]
            assert [g.char_index(chi) for chi in chars] == list(range(g.order))
        with pytest.raises(PreconditionError):
            AbelianGroup((2, 6)).char_index(Character((2, 0)))

    def test_group_ops(self):
        g = AbelianGroup((2, 3))
        a, b = GroupElement((1, 2)), GroupElement((1, 1))
        assert g.mul(a, b) == GroupElement((0, 0))
        assert g.inverse(a) == GroupElement((1, 1))


class TestPairing:
    def test_c2(self):
        g = AbelianGroup.cyclic(2)
        assert g.pairing_exponent(GroupElement((1,)), Character((1,))) == 1

    def test_c3(self):
        g = AbelianGroup.cyclic(3)
        assert g.pairing_exponent(GroupElement((2,)), Character((2,))) == 1

    def test_c2xc3(self):
        g = AbelianGroup((2, 3))
        t = g.pairing_exponent(GroupElement((1, 1)), Character((1, 1)))
        assert t == 5  # 3 + 2 mod 6

    def test_symmetry(self):
        g = AbelianGroup((2, 3))
        for a in g.elements():
            for chi in g.characters():
                assert g.pairing_exponent(a, chi) == g.pairing_exponent(
                    GroupElement(chi.residues), Character(a.residues)
                )

    @pytest.mark.parametrize(
        "g", all_groups_of_order_up_to(12) + [AbelianGroup((3, 2)), AbelianGroup((4, 6))],
        ids=lambda g: g.describe())
    def test_pairing_table_is_pairing_exponent(self, g):
        """pairing_table() holds pairing_exponent entry by entry (rows
        elements, columns characters) and is symmetric."""
        table = g.pairing_table()
        assert table == [[g.pairing_exponent(a, chi) for chi in g.characters()]
                         for a in g.elements()]
        assert table == [list(column) for column in zip(*table)]

    @pytest.mark.parametrize(
        "g", all_groups_of_order_up_to(12) + [AbelianGroup((3, 2)), AbelianGroup((2, 1, 3))],
        ids=lambda g: g.describe())
    def test_sum_table_is_mul(self, g):
        """sum_table() holds the index of a + b, by AbelianGroup.mul, and
        the index of chi * psi, by char_mul."""
        elements, characters = g.elements(), g.characters()
        assert g.sum_table() == tuple(tuple(g.index(g.mul(a, b)) for b in elements)
                                      for a in elements)
        assert g.sum_table() == tuple(tuple(g.char_index(g.char_mul(a, b)) for b in characters)
                                      for a in characters)

    @pytest.mark.parametrize(
        "g", all_groups_of_order_up_to(12) + [AbelianGroup((3, 2)), AbelianGroup((2, 1, 3))],
        ids=lambda g: g.describe())
    def test_difference_table_is_mul_by_inverse(self, g):
        """difference_table() holds, in row a and column b, the index of
        a^-1 b, by AbelianGroup.mul and inverse: the group matrix's
        indices; built once per group."""
        elements = g.elements()
        assert g.difference_table() == tuple(
            tuple(g.index(g.mul(g.inverse(a), b)) for b in elements) for a in elements)
        assert AbelianGroup(g.divisors).difference_table() is g.difference_table()

    @pytest.mark.parametrize(
        "g", all_groups_of_order_up_to(12) + [AbelianGroup((3, 1)), AbelianGroup((2, 1, 3)),
                                              AbelianGroup((4, 4, 4))],
        ids=lambda g: g.describe())
    @pytest.mark.parametrize("bits", [1, 5, 23])
    def test_translates_are_the_group_law(self, g, bits):
        """translates(x, bits) moves the field of element j to the field of
        j + h, for every h in canonical order, with no field spilling into
        the next."""
        elements, n = g.elements(), g.order
        values = [(7 * j + 3) % (1 << bits) for j in range(n)]
        packed = sum(v << (bits * j) for j, v in enumerate(values))
        got = g.translates(packed, bits)
        assert len(got) == n
        for h, x in enumerate(got):
            moved = [0] * n
            for j, a in enumerate(elements):
                moved[g.index(g.mul(a, elements[h]))] = values[j]
            assert x == sum(v << (bits * j) for j, v in enumerate(moved))

    def test_non_degenerate(self):
        for g in all_groups_of_order_up_to(12):
            for a in g.elements():
                if a == g.identity:
                    continue
                assert any(
                    g.pairing_exponent(a, chi) != 0 for chi in g.characters()
                )


class TestNoPerEntryPairing:
    def test_results_without_pairing_exponent(self, monkeypatch):
        """No library loop calls pairing_exponent: the character matrices,
        a group determinant of a group that is not cyclic and the bidual
        map give the same results when it raises."""
        from groupfft.factorize import factor_group_determinant
        from groupfft.rings import finite_field

        f13, f3 = PrimeField(13), finite_field(3, 1)
        g, g24 = AbelianGroup((2, 6)), AbelianGroup((2, 4))

        def calls():
            return (character_matrix(g, f13), character_matrix_inverse(g, f13),
                    factor_group_determinant(g24, f3), bidual_identification(g))

        expected = calls()

        def refuse(self, a, chi):
            raise AssertionError("pairing_exponent called")

        monkeypatch.setattr(AbelianGroup, "pairing_exponent", refuse)
        assert calls() == expected


class TestDualAndBidual:
    def test_dual_same_shape(self):
        g = AbelianGroup.cyclic(4)
        assert g.dual_group().divisors == (4,)

    def test_bidual_without_mul(self, monkeypatch):
        """The homomorphism check reads the sum table: no AbelianGroup.mul
        call, and on C4 x C4 x C4 about n * 3 char_mul calls, not n^2."""
        g = AbelianGroup((4, 4, 4))
        expected = bidual_identification(g)
        calls = []
        char_mul = AbelianGroup.char_mul

        def counting(self, a, b):
            calls.append(1)
            return char_mul(self, a, b)

        def refuse(self, a, b):
            raise AssertionError("mul called")

        monkeypatch.setattr(AbelianGroup, "mul", refuse)
        monkeypatch.setattr(AbelianGroup, "char_mul", counting)
        assert bidual_identification(g) == expected
        assert len(calls) == 64 * 3

    def test_bidual_identity_on_tuples(self):
        for g in [AbelianGroup.cyclic(4), AbelianGroup((2, 2)), AbelianGroup((2, 6))]:
            mapping = bidual_identification(g)
            for a in g.elements():
                assert mapping[a].residues == a.residues


    @pytest.mark.parametrize("corrupt, message", [
        ("orig = ab.Character\n"
         "ab.Character = lambda residues: orig(tuple(-r % 4 for r in residues))",
         "bidual map does not respect the pairing"),
        ("ab.AbelianGroup.char_mul = lambda self, a, b: a",
         "bidual map is not a homomorphism"),
        ("ab.AbelianGroup.order = property(lambda self: 5)",
         "bidual map is not injective"),
    ], ids=["pairing", "homomorphism", "injective"])
    def test_checks_under_o(self, corrupt, message):
        """Each check raises VerificationError under python -O, on a
        corrupted collaborator."""
        setup = """
            import groupfft.abelian as ab
        """
        out = check_under_o("ab.bidual_identification(ab.AbelianGroup.cyclic(4))",
                            setup, corrupt + "\n")
        assert out == f"raised: {message}"


class TestCharacterMatrix:
    def test_c2_over_q(self):
        p = character_matrix(AbelianGroup.cyclic(2), QQ)
        assert p == [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]

    def test_c4_over_gaussians(self):
        k = cyclotomic_field(4)
        i, one = k.zeta, k.one
        p = character_matrix(AbelianGroup.cyclic(4), k)
        expected = [
            [one, one, one, one],
            [one, i, -one, -i],
            [one, -one, one, -one],
            [one, -i, -one, i],
        ]
        assert p == expected

    def test_c3_over_f7(self):
        f7 = PrimeField(7)
        p = character_matrix(AbelianGroup.cyclic(3), f7)
        assert [[x.residue for x in row] for row in p] == [
            [1, 1, 1],
            [1, 2, 4],
            [1, 4, 2],
        ]

    def test_missing_root(self):
        with pytest.raises(NoRootOfUnity):
            character_matrix(AbelianGroup.cyclic(3), QQ)

    def test_inverse_formula(self):
        for g, field in [
            (AbelianGroup.cyclic(4), cyclotomic_field(4)),
            (AbelianGroup((2, 2)), QQ),
            (AbelianGroup((2, 6)), cyclotomic_field(6)),
            (AbelianGroup.cyclic(6), PrimeField(7)),
        ]:
            p = character_matrix(g, field)
            p_inv = character_matrix_inverse(g, field)
            assert mat_eq(mat_mul(p_inv, p, field), identity_matrix(g.order, field))
            assert mat_eq(mat_mul(p, p_inv, field), identity_matrix(g.order, field))


class TestOrthogonality:
    @pytest.mark.parametrize(
        "g", all_groups_of_order_up_to(24), ids=lambda g: g.describe()
    )
    def test_character_orthogonality_all_groups(self, g):
        """(1/n) sum_tau chi(tau) psi^-1(tau) = delta, via exponent counting.

        The sum of zeta_e^k over the collected exponents k vanishes iff the
        count polynomial is divisible by Phi_e; no field arithmetic needed.
        """
        e = g.exponent
        phi_e = cyclotomic_polynomial(e)
        chars = g.characters()
        elements = g.elements()
        for chi in chars:
            for psi in chars:
                counts = [0] * e
                for tau in elements:
                    t = (
                        g.pairing_exponent(tau, chi)
                        - g.pairing_exponent(tau, psi)
                    ) % e
                    counts[t] += 1
                count_poly = from_ints(counts, QQ)
                if chi == psi:
                    assert counts[0] == g.order and sum(counts) == g.order
                else:
                    assert (count_poly % phi_e).is_zero

    def test_dual_orthogonality_direct(self):
        # (1/n) sum_chi chi(sigma) chi(tau^-1) = delta, computed in the field
        for g, field in [
            (AbelianGroup.cyclic(6), PrimeField(7)),
            (AbelianGroup((2, 2)), QQ),
            (AbelianGroup.cyclic(4), cyclotomic_field(4)),
        ]:
            from groupfft.rings import primitive_nth_root

            e = g.exponent
            zeta = primitive_nth_root(e, field)
            inv_n = field.inv(field.from_int(g.order))
            for sigma in g.elements():
                for tau in g.elements():
                    acc = field.zero
                    inv_tau = g.inverse(tau)
                    for chi in g.characters():
                        t = (
                            g.pairing_exponent(sigma, chi)
                            + g.pairing_exponent(inv_tau, chi)
                        ) % e
                        acc = acc + zeta ** t
                    acc = inv_n * acc
                    assert acc == (field.one if sigma == tau else field.zero)

    def test_matrix_orthogonality(self):
        # P * P^* = n * I with P^* = transpose of (chi^-1(sigma))
        for g, field in [
            (AbelianGroup.cyclic(5), cyclotomic_field(5)),
            (AbelianGroup((3, 3)), cyclotomic_field(3)),
        ]:
            from groupfft.rings import primitive_nth_root

            e = g.exponent
            zeta = primitive_nth_root(e, field)
            p = character_matrix(g, field)
            p_star = [
                [zeta ** ((-g.pairing_exponent(a, chi)) % e) for a in g.elements()]
                for chi in g.characters()
            ]
            prod = mat_mul(p, p_star, field)
            n_elem = field.from_int(g.order)
            for i in range(g.order):
                for j in range(g.order):
                    assert prod[i][j] == (n_elem if i == j else field.zero)
