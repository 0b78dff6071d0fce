"""Cayley groups, representations, extended characters, determinant factors."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from groupfft.abelian import AbelianGroup
from groupfft.cyclotomic import cyclotomic_field
from groupfft.errors import PreconditionError, VerificationError
from groupfft.factorize import det_split_field, verify_product_identity
from groupfft.frobenius import (
    FiniteGroup,
    Representation,
    TupleCharacter,
    _generators,
    block_diagonalize_s3,
    cyclic_group,
    extended_character,
    frobenius_factorization,
    frobenius_polynomial,
    s3,
)
from groupfft.multipoly import MultiPoly, symbolic_det

from helpers import check_under_o, index_of


@pytest.fixture(scope="module")
def s3_data():
    return s3()


@pytest.fixture(scope="module")
def s3_blocks():
    return block_diagonalize_s3()


class TestFiniteGroup:
    def test_s3_relations(self, s3_data):
        g = s3_data.group
        e, s, s2, t = (index_of(g, x) for x in ("e", "s", "s2", "t"))
        assert g.mul(s, g.mul(s, s)) == e
        assert g.mul(t, t) == e
        assert g.mul(g.mul(t, s), t) == s2

    def test_inverses(self, s3_data):
        g = s3_data.group
        for i in range(6):
            assert g.mul(i, g.inv(i)) == g.identity

    def test_bad_table_rejected(self):
        with pytest.raises(PreconditionError):
            FiniteGroup.from_table(("a", "b"), ((0, 0), (1, 1)))
        # Latin square but not associative: no identity either
        with pytest.raises(PreconditionError):
            FiniteGroup.from_table(("a", "b", "c"), ((1, 0, 2), (0, 2, 1), (2, 1, 0)))

    def test_one_sided_inverse_rejected(self):
        # a loop of order 5 (a Latin square with identity a, not
        # associative) in which c * d = a but d * c = b
        table = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1),
                 (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))
        loop = FiniteGroup(("a", "b", "c", "d", "e"), table, 0)
        with pytest.raises(PreconditionError, match="element c has only a one-sided inverse d"):
            loop.inv(2)

    @staticmethod
    def switched_xor_table(n: int) -> list:
        """The table of C_2^k, n = 2^k >= 8, with the values of 1*2 and
        1*4, and of 7*2 and 7*4, swapped: still a Latin square with
        identity 0 and x * x = 0, so a loop with two-sided inverses, but
        (1 * 2) * 2 = 7 while 1 * (2 * 2) = 1."""
        table = [[i ^ j for j in range(n)] for i in range(n)]
        for r in (1, 7):
            table[r][2], table[r][4] = table[r][4], table[r][2]
        return table

    @pytest.mark.parametrize("n", [8, 32], ids=["order-8", "order-32"])
    def test_non_associative_loop_rejected(self, n):
        table = self.switched_xor_table(n)
        labels = tuple(str(i) for i in range(n))
        loop = FiniteGroup(labels, tuple(map(tuple, table)), 0)
        assert all(loop.inv(i) == i for i in range(n))  # only associativity fails
        with pytest.raises(PreconditionError, match="composition table is not associative"):
            FiniteGroup.from_table(labels, table)

    def test_order_32_elementary_abelian_accepted(self):
        table = [[i ^ j for j in range(32)] for i in range(32)]
        group = FiniteGroup.from_table([str(i) for i in range(32)], table)
        assert group.order == 32 and group.identity == 0
        # the greedy generators of C_2^5: one per doubling
        assert _generators(table, 0) == [1, 2, 4, 8, 16]

    def test_cyclic_group_table(self):
        g = cyclic_group(4).group
        assert g.mul(3, 2) == 1
        assert g.identity == 0


class TestRepresentations:
    def test_s3_images_match_relations(self, s3_data):
        g = s3_data.group
        rep = s3_data.representations[2]
        field = rep.field
        j = field.zeta
        ts = index_of(g, "ts")
        assert rep.images[ts] == ((field.zero, j * j), (j, field.zero))

    def test_homomorphism_exhaustive(self, s3_data):
        g = s3_data.group
        for rep in s3_data.representations:
            for a in range(6):
                for b in range(6):
                    lhs = rep.images[g.mul(a, b)]
                    prod = [
                        [
                            sum(
                                (rep.images[a][i][k] * rep.images[b][k][j] for k in range(rep.degree)),
                                rep.field.zero,
                            )
                            for j in range(rep.degree)
                        ]
                        for i in range(rep.degree)
                    ]
                    assert all(
                        lhs[i][j] == prod[i][j]
                        for i in range(rep.degree)
                        for j in range(rep.degree)
                    )

    def test_non_homomorphism_rejected(self, s3_data):
        g = s3_data.group
        field = cyclotomic_field(3)
        bad = [[[field.one]] for _ in range(6)]
        bad[index_of(g, "t")] = [[field.from_int(2)]]
        with pytest.raises(PreconditionError):
            Representation.build(g, "bad", field, bad)


class TestBlockDiagonalization:
    def test_l0_l1_displays(self, s3_blocks):
        g = s3_blocks.group
        variables = g.variables()
        field = s3_blocks.l0.ring
        ones = {v: field.one for v in variables}
        assert s3_blocks.l0 == MultiPoly.linear(ones, variables, field)
        signs = {
            f"X_{lab}": (field.one if lab in ("e", "s", "s2") else -field.one)
            for lab in g.labels
        }
        assert s3_blocks.l1 == MultiPoly.linear(signs, variables, field)

    def test_m_block_displays(self, s3_blocks):
        field = s3_blocks.l0.ring
        j = field.zeta
        j2 = j * j
        variables = s3_blocks.group.variables()

        def lin(coeffs):
            return MultiPoly.linear(coeffs, variables, field)

        assert s3_blocks.m_block[0][0] == lin({"X_e": field.one, "X_s": j, "X_s2": j2})
        assert s3_blocks.m_block[0][1] == lin({"X_t": field.one, "X_ts": j2, "X_ts2": j})
        assert s3_blocks.m_block[1][0] == lin({"X_t": field.one, "X_ts": j, "X_ts2": j2})
        assert s3_blocks.m_block[1][1] == lin({"X_e": field.one, "X_s": j2, "X_s2": j})

    def test_det_m_is_norm_difference(self, s3_blocks):
        field = s3_blocks.l0.ring
        variables = s3_blocks.group.variables()

        def norm(a, b, c):
            xa = MultiPoly.variable(a, variables, field)
            xb = MultiPoly.variable(b, variables, field)
            xc = MultiPoly.variable(c, variables, field)
            return xa * xa + xb * xb + xc * xc - xa * xb - xb * xc - xc * xa

        expected = norm("X_e", "X_s", "X_s2") - norm("X_t", "X_ts", "X_ts2")
        assert s3_blocks.det_m == expected

    def test_det_identity(self, s3_blocks):
        field = s3_blocks.l0.ring
        a = s3_blocks.group.symbolic_matrix(field)
        det_a = symbolic_det(a)
        assert det_a == s3_blocks.l0 * s3_blocks.l1 * s3_blocks.det_m * s3_blocks.det_m

    def test_conjugated_is_block_diagonal(self, s3_blocks):
        conj = s3_blocks.conjugated
        block_cols = {0: {0}, 1: {1}, 2: {2, 3}, 3: {2, 3}, 4: {4, 5}, 5: {4, 5}}
        for i in range(6):
            for j in range(6):
                if j not in block_cols[i]:
                    assert conj[i][j].is_zero


class TestChecksUnderO:
    """The checks of block_diagonalize_s3 and frobenius_polynomial raise
    VerificationError on a corrupted collaborator, with assertions
    stripped."""

    PSI2 = "fr.frobenius_polynomial(fr.s3().representations[2])"

    def test_inhomogeneous_factor(self):
        # a partition pattern of weight 1 adds a degree-1 term to psi
        setup = """
            import groupfft.frobenius as fr
            right = fr._exponent_patterns
            fr._exponent_patterns = lambda f: right(f) + [(1,) + (0,) * (f - 1)]
        """
        assert (check_under_o(self.PSI2, setup)
                == "raised: factor is not homogeneous of the right degree")

    def test_tuple_sum_not_proportional(self):
        # an extended character doubled on the constant tuples only
        setup = """
            import groupfft.frobenius as fr
            right = fr.TupleCharacter.value
            def wrong(self, t):
                return right(self, t) * 2 if len(set(t)) == 1 else right(self, t)
            fr.TupleCharacter.value = wrong
        """
        assert (check_under_o(self.PSI2, setup)
                == "raised: tuple-sum form is not proportional to the power-sum form")

    def test_wrong_block(self):
        setup = """
            import groupfft.frobenius as fr
            right = fr.generic_matrix
            def wrong(rep):
                block = right(rep)
                if rep.degree == 2:
                    block[1][1] = block[1][1] * 2
                return block
            fr.generic_matrix = wrong
        """
        assert (check_under_o("fr.block_diagonalize_s3()", setup)
                == "raised: conjugated matrix mismatch at (3,3)")

    def test_wrong_determinant(self):
        setup = """
            import groupfft.frobenius as fr
            right = fr.symbolic_det
            fr.symbolic_det = lambda rows: right(rows) * 2
        """
        assert (check_under_o("fr.block_diagonalize_s3()", setup)
                == "raised: determinant does not equal L0 * L1 * (det M)^2")


class TestExtendedCharacters:
    def test_identity_pair_rule(self, s3_data):
        rep = s3_data.representations[2]
        chi = TupleCharacter.from_representation(rep)
        g = s3_data.group
        e = g.identity
        field = rep.field
        # chi(e, e) = (f - 1) chi(e) = 2
        assert extended_character(chi, (e, e)) == field.from_int(2)
        # general (f - k) rule for one- and two-element tails
        for s1 in range(6):
            lhs = extended_character(chi, (e, s1))
            assert lhs == field.from_int(1) * chi.values[s1]
            for s2 in range(6):
                lhs2 = extended_character(chi, (e, s1, s2))
                assert lhs2 == field.zero * chi.values[s1]  # (2 - 2) = 0

    def test_pair_product_rule(self, s3_data):
        g = s3_data.group
        for rep in s3_data.representations:
            chi = TupleCharacter.from_representation(rep)
            for s1 in range(6):
                for s2 in range(6):
                    expected = chi.values[s1] * chi.values[s2] - chi.values[g.mul(s1, s2)]
                    assert extended_character(chi, (s1, s2)) == expected

    def test_pair_symmetry(self, s3_data):
        for rep in s3_data.representations:
            chi = TupleCharacter.from_representation(rep)
            for s1 in range(6):
                for s2 in range(6):
                    assert extended_character(chi, (s1, s2)) == extended_character(
                        chi, (s2, s1)
                    )

    def test_sigma_pair_value(self, s3_data):
        rep = s3_data.representations[2]
        chi = TupleCharacter.from_representation(rep)
        g = s3_data.group
        s = index_of(g, "s")
        # chi(s)^2 - chi(s^2) = (-1)^2 - (-1) = 2
        assert extended_character(chi, (s, s)) == rep.field.from_int(2)

    def test_vanishing_beyond_degree(self, s3_data):
        field = s3_data.representations[0].field
        # degree-1 reps: all pairs vanish (exhaustive)
        for rep in s3_data.representations[:2]:
            chi = TupleCharacter.from_representation(rep)
            for pair in itertools.product(range(6), repeat=2):
                assert extended_character(chi, pair) == field.zero
        # degree-2 rep: all triples vanish (exhaustive over the 216 tuples)
        chi2 = TupleCharacter.from_representation(s3_data.representations[2])
        for triple in itertools.product(range(6), repeat=3):
            assert extended_character(chi2, triple) == field.zero

    def test_bad_tuple_rejected(self, s3_data):
        chi = TupleCharacter.from_representation(s3_data.representations[0])
        with pytest.raises(PreconditionError):
            extended_character(chi, ())
        with pytest.raises(PreconditionError):
            extended_character(chi, (7,))


class TestFrobeniusPolynomial:
    def test_degree_one_gives_linear_form(self, s3_data, s3_blocks):
        psi0 = frobenius_polynomial(s3_data.representations[0])
        psi1 = frobenius_polynomial(s3_data.representations[1])
        assert psi0.polynomial == s3_blocks.l0
        assert psi1.polynomial == s3_blocks.l1

    def test_degree_two_equals_det_m(self, s3_data, s3_blocks):
        psi = frobenius_polynomial(s3_data.representations[2])
        assert psi.polynomial == s3_blocks.det_m
        assert psi.polynomial.is_homogeneous(2)

    def test_reported_ratio(self, s3_data):
        field = s3_data.representations[0].field
        # tuple-sum over ordered tuples carries an extra (-1)^f f!
        assert frobenius_polynomial(s3_data.representations[0]).ratio == -field.one
        assert frobenius_polynomial(s3_data.representations[2]).ratio == field.from_int(2)

    def test_evaluation_sanity(self, s3_data):
        psi = frobenius_polynomial(s3_data.representations[2]).polynomial
        field = psi.ring
        point = {v: field.zero for v in psi.variables}
        point["X_e"] = field.one
        assert psi.evaluate(point) == field.one

    def test_cyclic_degree_one_forms(self):
        data = cyclic_group(3)
        split = det_split_field(AbelianGroup.cyclic(3))
        split_keys = sorted(e.poly.sort_key() for e in split.factors)
        psi_keys = sorted(
            frobenius_polynomial(rep).polynomial.sort_key()
            for rep in data.representations
        )
        assert psi_keys == split_keys


@pytest.fixture(scope="module")
def a4_data():
    """Alternating group on four letters with its four irreducibles.

    User-supplied representations exercising the degree-3 path: trivial,
    the two cube-root characters through the quotient by the Klein
    subgroup, and the integer-matrix standard representation on the
    sum-zero subspace.
    """
    perms = [
        p
        for p in itertools.permutations(range(4))
        if sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 == 0
    ]
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    group = FiniteGroup.from_table(labels, table, name="A4")

    field = cyclotomic_field(3)
    w = field.zeta
    klein = {
        idx[p]
        for p in perms
        if all(p[p[i]] == i for i in range(4))
    }
    c = idx[(1, 2, 0, 3)]
    coset_of = {}
    for g in range(12):
        for k, rep_elt in enumerate([group.identity, c, table[c][c]]):
            if table[group.inv(rep_elt)][g] in klein:
                coset_of[g] = k
    one = field.one
    trivial = Representation.build(group, "trivial", field, [[[one]] for _ in range(12)])
    omega1 = Representation.build(
        group, "omega", field, [[[w ** coset_of[g]]] for g in range(12)]
    )
    omega2 = Representation.build(
        group, "omega2", field, [[[w ** (2 * coset_of[g])]] for g in range(12)]
    )

    def std_matrix(p):
        # action on the basis e_j - e_(j+1) of the sum-zero subspace
        cols = []
        for j in range(3):
            a, b = p[j], p[j + 1]
            vec = [0, 0, 0]
            if a < b:
                for k in range(a, b):
                    vec[k] += 1
            else:
                for k in range(b, a):
                    vec[k] -= 1
            cols.append(vec)
        return [[field.from_int(cols[j][i]) for j in range(3)] for i in range(3)]

    standard = Representation.build(
        group, "standard", field, [std_matrix(p) for p in perms]
    )
    return group, (trivial, omega1, omega2, standard)


class TestAlternatingGroupDegreeThree:
    def test_character_values(self, a4_data):
        group, reps = a4_data
        std = reps[3]
        field = std.field
        values = std.character_values()
        # identity has trace 3; the three double transpositions have trace -1;
        # all eight 3-cycles have trace 0
        assert values[group.identity] == field.from_int(3)
        counts = {}
        for v in values:
            counts[repr(v)] = counts.get(repr(v), 0) + 1
        assert counts[repr(field.from_int(3))] == 1
        assert counts[repr(field.from_int(-1))] == 3
        assert counts[repr(field.zero)] == 8

    def test_degree_three_factor_and_ratio(self, a4_data):
        _, reps = a4_data
        psi = frobenius_polynomial(reps[3])
        assert psi.polynomial.is_homogeneous(3)
        # ordered tuple sum overcounts by (-1)^f f! = -6 at f = 3
        assert psi.ratio == reps[3].field.from_int(-6)

    def test_full_factorization(self, a4_data):
        group, reps = a4_data
        fd = frobenius_factorization(group, reps)
        assert [(e.label, e.multiplicity) for e in fd.factors] == [
            ("trivial", 1),
            ("omega", 1),
            ("omega2", 1),
            ("standard", 3),
        ]

    def test_point_checks_reject_a_wrong_product(self, a4_data):
        group, reps = a4_data
        fd = frobenius_factorization(group, reps)

        def matrix_of(values, _field):
            return group.group_matrix(values)

        verify_product_identity(fd, matrix_of)
        wrong = replace(fd, factors=fd.factors[:3] + (replace(fd.factors[3], multiplicity=2),))
        with pytest.raises(VerificationError, match="at a point"):
            verify_product_identity(wrong, matrix_of)

    def test_point_check_at_one_int_point(self, a4_data):
        """A4's factors live in Q(zeta_3): one int point of [-2^96, 2^96),
        for a bound of 12 / 2^97 <= 2^-64, below the (12 / 2^33)^3 of the
        three points of [-2^32, 2^32) it replaces."""
        group, reps = a4_data
        fd = frobenius_factorization(group, reps)
        points = []

        def recording(values, _field):
            points.append(values)
            return group.group_matrix(values)

        record = verify_product_identity(fd, recording)
        assert len(points) == record.points == 1
        assert all(type(v) is int and -(1 << 96) <= v < 1 << 96 for p in points for v in p)
        assert record.field is fd.field
        assert record.bound == Fraction(12, 1 << 97) <= Fraction(1, 1 << 64)
        assert record.bound <= Fraction(12, 1 << 33) ** 3
        assert fd.verification == record

    def test_vanishing_beyond_degree_three(self, a4_data):
        group, reps = a4_data
        chi = TupleCharacter.from_representation(reps[3])
        field = reps[3].field
        rng = __import__("random").Random(31)
        for _ in range(300):
            quad = tuple(rng.randrange(12) for _ in range(4))
            assert extended_character(chi, quad) == field.zero

    def test_degree_cap(self, a4_data):
        group, reps = a4_data
        # build a degree-4 rep by block sum to hit the cap error
        field = reps[3].field
        images = []
        for m3, m1 in zip(reps[3].images, reps[0].images):
            top = [list(row) + [field.zero] for row in m3]
            bottom = [[field.zero] * 3 + [m1[0][0]]]
            images.append(top + bottom)
        blocky = Representation.build(group, "block", field, images)
        with pytest.raises(PreconditionError):
            frobenius_polynomial(blocky)


class TestFactorization:
    def test_s3(self, s3_data, s3_blocks):
        fd = frobenius_factorization(s3_data.group, s3_data.representations)
        assert [(e.label, e.multiplicity) for e in fd.factors] == [
            ("trivial", 1),
            ("sign", 1),
            ("standard", 2),
        ]
        a = s3_data.group.symbolic_matrix(s3_blocks.l0.ring)
        assert fd.product() == symbolic_det(a)

    def test_c3_matches_split_field(self):
        data = cyclic_group(3)
        fd = frobenius_factorization(data.group, data.representations)
        split = det_split_field(AbelianGroup.cyclic(3))
        assert sorted(e.poly.sort_key() for e in fd.factors) == sorted(
            e.poly.sort_key() for e in split.factors
        )

    def test_c2(self):
        data = cyclic_group(2)
        fd = frobenius_factorization(data.group, data.representations)
        polys = sorted(str(e.poly) for e in fd.factors)
        assert polys == ["X_0 + X_1", "X_0 - X_1"]

    def test_incomplete_reps_rejected(self, s3_data):
        with pytest.raises(PreconditionError):
            frobenius_factorization(s3_data.group, s3_data.representations[:2])
