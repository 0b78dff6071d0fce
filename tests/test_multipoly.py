"""Sparse multivariate arithmetic, symbolic determinants, evaluation."""

import random
from fractions import Fraction

import pytest

from groupfft.abelian import AbelianGroup, parse_group
from groupfft.cyclotomic import cyclotomic_field
from groupfft.errors import PreconditionError
from groupfft.factorize import det_split_field
from groupfft.frobenius import s3
from groupfft.linalg import mat_det
from groupfft.multipoly import MultiPoly, symbolic_det
from groupfft.rings import QQ
from groupfft.transform import group_matrix, group_variables, symbolic_vector, GroupVector

from helpers import held_terms_reference, sympy_multipoly

V2 = ("X_0", "X_1")
V3 = ("X_0", "X_1", "X_2")


def var(name, variables=V3, ring=QQ):
    return MultiPoly.variable(name, variables, ring)


class TestArithmetic:
    def test_difference_of_squares(self):
        x0, x1 = var("X_0", V2), var("X_1", V2)
        assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1

    def test_conjugate_product_over_cube_roots(self):
        # (X_0 + j X_1 + j^2 X_2)(X_0 + j^2 X_1 + j X_2)
        k = cyclotomic_field(3)
        j = k.zeta
        j2 = j * j
        a = MultiPoly.linear({"X_0": k.one, "X_1": j, "X_2": j2}, V3, k)
        b = MultiPoly.linear({"X_0": k.one, "X_1": j2, "X_2": j}, V3, k)
        x0, x1, x2 = (var(n, V3, k) for n in V3)
        expected = (
            x0 * x0 + x1 * x1 + x2 * x2 - x0 * x1 - x1 * x2 - x2 * x0
        )
        assert a * b == expected

    def test_constant_on_the_left(self):
        p = var("X_0") + var("X_1")
        assert Fraction(0) + p == p and 0 + p == p
        assert Fraction(1, 2) + p == p + MultiPoly.constant(Fraction(1, 2), V3, QQ)
        assert 3 + p == p + MultiPoly.constant(Fraction(3), V3, QQ)
        k = cyclotomic_field(3)
        q = var("X_2", V3, k)
        assert k.zero + q == q
        assert k.zeta + q == q + MultiPoly.constant(k.zeta, V3, k)

    def test_matrix_product_with_polynomial_entries(self):
        from groupfft.linalg import mat_mul

        x0, x1 = var("X_0", V2), var("X_1", V2)
        scalars = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]
        polys = [[x0, x1], [x1, x0]]
        assert mat_mul(scalars, polys, QQ) == [[x0 + 2 * x1, x1 + 2 * x0], [-x1, -x0]]
        assert mat_mul(polys, scalars, QQ) == [[x0, 2 * x0 - x1], [x1, 2 * x1 - x0]]

    def test_scalar_zero(self):
        p = var("X_0") + var("X_1")
        assert p.scale(Fraction(0)).is_zero

    def test_variable_alignment(self):
        a = MultiPoly.variable("X_0", ("X_0",), QQ)
        b = MultiPoly.variable("X_1", ("X_1",), QQ)
        s = a + b
        assert s == var("X_0", V2) + var("X_1", V2)

    def test_eval_homomorphism(self):
        rng = random.Random(2)

        def rand_poly():
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                exp = tuple(rng.randrange(3) for _ in range(3))
                terms[exp] = Fraction(rng.randrange(-5, 6))
            return MultiPoly(V3, terms, QQ)

        for _ in range(500):
            a, b = rand_poly(), rand_poly()
            point = {v: Fraction(rng.randrange(-9, 10)) for v in V3}
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


class TestSymbolicDet:
    def test_circulant_3(self):
        group = AbelianGroup.cyclic(3)
        rows = group_matrix(symbolic_vector(group, QQ)).rows()
        det = symbolic_det(rows)
        x0, x1, x2 = (var(n) for n in V3)
        assert det == x0 ** 3 + x1 ** 3 + x2 ** 3 - (x0 * x1 * x2).scale(3)

    def test_one_by_one(self):
        assert symbolic_det([[var("X_0", ("X_0",))]]) == var("X_0", ("X_0",))

    def test_dimension_cap(self):
        big = [[MultiPoly.constant(Fraction(1), ("X_0",), QQ)] * 9 for _ in range(9)]
        with pytest.raises(PreconditionError):
            symbolic_det(big)

    def test_non_square(self):
        p = MultiPoly.constant(Fraction(1), ("X_0",), QQ)
        with pytest.raises(PreconditionError):
            symbolic_det([[p, p]])

    @pytest.mark.parametrize(
        "divisors",
        [(1,), (2,), (3,), (4,), (2, 2), (5,), (6,)],
        ids=lambda d: "x".join(map(str, d)),
    )
    def test_group_det_equals_product_of_linear_forms(self, divisors):
        group = AbelianGroup(divisors)
        field = cyclotomic_field(group.exponent)
        rows = group_matrix(symbolic_vector(group, field)).rows()
        det = symbolic_det(rows)
        prod = MultiPoly.constant(field.one, group_variables(group), field)
        for entry in det_split_field(group, field).factors:
            prod = prod * entry.poly
        assert det == prod
        # belt and suspenders: 20 random rational points
        rng = random.Random(13)
        variables = group_variables(group)
        for _ in range(20):
            point = {v: field.from_int(rng.randrange(-9, 10)) for v in variables}
            vec = GroupVector(group, field, tuple(point[v] for v in variables))
            numeric = mat_det(group_matrix(vec).rows(), field)
            assert det.evaluate(point) == numeric

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C6", "C2xC2", "S3"])
    def test_against_sympy_det(self, name):
        """symbolic_det against sympy's Matrix.det on the same group matrix
        of generic variables."""
        sympy = pytest.importorskip("sympy")
        if name == "S3":
            rows = s3().group.symbolic_matrix(QQ)
        else:
            rows = group_matrix(symbolic_vector(parse_group(name), QQ)).rows()
        matrix = sympy.Matrix([[sympy_multipoly(sympy, p) for p in row] for row in rows])
        got = sympy_multipoly(sympy, symbolic_det(rows))
        assert sympy.expand(matrix.det(method="berkowitz") - got) == 0


class TestEvaluation:
    def test_root_of_circulant_det(self):
        group = AbelianGroup.cyclic(3)
        det = symbolic_det(group_matrix(symbolic_vector(group, QQ)).rows())
        ones = {v: Fraction(1) for v in V3}
        assert det.evaluate(ones) == 0

    def test_difference_of_squares_at_point(self):
        x0, x1 = var("X_0", V2), var("X_1", V2)
        p = x0 * x0 - x1 * x1
        assert p.evaluate({"X_0": Fraction(3), "X_1": Fraction(2)}) == 5

    def test_circulant_det_at_2_1_0(self):
        group = AbelianGroup.cyclic(3)
        det = symbolic_det(group_matrix(symbolic_vector(group, QQ)).rows())
        point = {"X_0": Fraction(2), "X_1": Fraction(1), "X_2": Fraction(0)}
        # independent oracle: direct 3x3 numeric determinant
        vec = GroupVector(group, QQ, (Fraction(2), Fraction(1), Fraction(0)))
        numeric = mat_det(group_matrix(vec).rows(), QQ)
        assert numeric == 9
        assert det.evaluate(point) == 9

    def test_missing_assignment(self):
        p = var("X_0") + var("X_2")
        with pytest.raises(PreconditionError):
            p.evaluate({"X_0": Fraction(1), "X_1": Fraction(1)})


def _naive_value(poly, point):
    """Oracle: sum over the terms of c * x_1^e_1 * ... by repeated products."""
    acc = poly.ring.zero
    for exp, c in poly.terms.items():
        val = c
        for v, e in zip(poly.variables, exp):
            for _ in range(e):
                val = val * point[v]
        acc = acc + val
    return acc


def _horner_fields():
    from groupfft.rings import ExtField, PrimeField, find_irreducible

    f2, f3 = PrimeField(2), PrimeField(3)
    f4 = ExtField(f2, find_irreducible(f2, 2))
    return [
        QQ,
        PrimeField(7),
        ExtField(f3, find_irreducible(f3, 2)),
        ExtField(f4, find_irreducible(f4, 3)),
        cyclotomic_field(5),
    ]


def _random_element(field, rng):
    from groupfft.rings import ExtField, ExtFieldElem

    if field == QQ:
        return Fraction(rng.randrange(-20, 21), rng.randrange(1, 7))
    if isinstance(field, ExtField) and not field.is_finite:
        return field.from_residue([rng.randrange(-5, 6) for _ in range(field.degree)])
    if isinstance(field, ExtField):
        return ExtFieldElem(
            tuple(_random_element(field.base, rng) for _ in range(field.degree)), field
        )
    return field.from_int(rng.randrange(field.order))


class TestHornerEvaluation:
    """evaluate sums the kernel's held terms; the oracle sums term by term."""

    VARS = ("X_0", "X_1", "X_2", "X_3")

    @pytest.mark.parametrize("field", _horner_fields(), ids=repr)
    def test_random_sparse_polynomials(self, field):
        rng = random.Random(61)
        # exponents with gaps (0, 1, 3, 7): powers the walk must step over
        for _ in range(60):
            terms = {}
            for _ in range(rng.randrange(0, 9)):
                exp = tuple(rng.choice((0, 0, 1, 3, 7)) for _ in self.VARS)
                terms[exp] = _random_element(field, rng)
            poly = MultiPoly(self.VARS, terms, field)
            for _ in range(3):
                point = {v: _random_element(field, rng) for v in self.VARS}
                assert poly.evaluate(point) == _naive_value(poly, point)

    @pytest.mark.parametrize("field", _horner_fields(), ids=repr)
    def test_zero_constant_and_single_terms(self, field):
        rng = random.Random(5)
        point = {v: _random_element(field, rng) for v in self.VARS}
        assert MultiPoly.zero(self.VARS, field).evaluate(point) == field.zero
        c = _random_element(field, rng)
        assert MultiPoly.constant(c, self.VARS, field).evaluate(point) == c
        lone = MultiPoly(self.VARS, {(0, 0, 5, 0): c}, field)
        assert lone.evaluate(point) == c * point["X_2"] ** 5

    def test_non_homogeneous_with_gaps_over_q(self):
        x0, x1 = var("X_0", V2), var("X_1", V2)
        p = 5 + (x0 ** 9 * x1 + 2 * x0 ** 4 + x0 * x1 ** 6 - 7 * x1 ** 2)
        point = {"X_0": Fraction(-2, 3), "X_1": Fraction(5, 2)}
        x, y = point["X_0"], point["X_1"]
        assert p.evaluate(point) == x ** 9 * y + 2 * x ** 4 + x * y ** 6 - 7 * y ** 2 + 5
        # the held terms are kept: a second point reuses them
        point2 = {"X_0": Fraction(3), "X_1": Fraction(-1)}
        assert p.evaluate(point2) == _naive_value(p, point2)

    def test_missing_variable_rejected_even_when_unused(self):
        p = MultiPoly(V3, {(2, 0, 0): Fraction(1)}, QQ)
        with pytest.raises(PreconditionError):
            p.evaluate({"X_0": Fraction(1), "X_1": Fraction(1)})


def _fraction_sum(poly, point):
    """Independent oracle over Q: the sum of c * prod x^e over the terms,
    each factor a Fraction power, no Horner plan."""
    total = Fraction(0)
    for exp, c in poly.terms.items():
        term = Fraction(c)
        for v, e in zip(poly.variables, exp):
            term *= Fraction(point[v]) ** e
        total += term
    return total


class TestRationalPlan:
    """Over Q, evaluate sums the terms on integer coefficients, the
    numerators over their common denominator, scaled once by its
    inverse."""

    VARS = ("X_0", "X_1", "X_2")

    def _random_poly(self, rng, homogeneous_degree=None):
        terms = {}
        for _ in range(rng.randrange(1, 9)):
            if homogeneous_degree is None:
                exp = tuple(rng.choice((0, 0, 1, 2, 5)) for _ in self.VARS)
            else:
                cuts = sorted(rng.randrange(homogeneous_degree + 1) for _ in range(2))
                exp = (cuts[0], cuts[1] - cuts[0], homogeneous_degree - cuts[1])
            terms[exp] = Fraction(rng.randrange(-30, 31), rng.randrange(1, 13))
        return MultiPoly(self.VARS, terms, QQ)

    def _random_point(self, rng):
        # ints, Fractions with negative values, and zeros, mixed
        values = [rng.randrange(-6, 7), Fraction(rng.randrange(-40, 41), rng.randrange(1, 10)),
                  0, Fraction(-7, 4), Fraction(5)]
        return {v: rng.choice(values) for v in self.VARS}

    @pytest.mark.parametrize("homogeneous_degree", [None, 3])
    def test_against_a_term_by_term_sum(self, homogeneous_degree):
        rng = random.Random(71 if homogeneous_degree is None else 72)
        for _ in range(80):
            poly = self._random_poly(rng, homogeneous_degree)
            for _ in range(4):
                point = self._random_point(rng)
                got = poly.evaluate(point)
                assert type(got) is Fraction and got == _fraction_sum(poly, point)
            # the one held form is the integer one, built once
            held = poly._held
            assert held == held_terms_reference(poly)
            assert all(type(c) is int for c, _ in held[0][0])
            poly.evaluate(point)
            assert poly._held is held

    def test_zero_and_constant_polynomials(self):
        point = {"X_0": Fraction(-3, 7), "X_1": 4, "X_2": Fraction(1, 9)}
        assert MultiPoly.zero(self.VARS, QQ).evaluate(point) == 0
        for c in (Fraction(-5, 12), Fraction(3), 7):
            got = MultiPoly.constant(c, self.VARS, QQ).evaluate(point)
            assert type(got) is Fraction and got == c
        assert MultiPoly.constant(Fraction(2, 3), self.VARS, QQ).evaluate(
            {"X_0": 1, "X_1": 2, "X_2": 3}) == Fraction(2, 3)

    def test_norm_form_at_integer_and_rational_points(self):
        from groupfft.factorize import norm_form

        poly = norm_form(6, 6)
        poly = MultiPoly(poly.variables, poly.terms, QQ)  # a copy: keep the memo free of held terms
        rng = random.Random(73)
        for _ in range(20):
            point = {v: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for v in poly.variables}
            assert poly.evaluate(point) == _fraction_sum(poly, point)

    def test_values_in_q_zeta_keep_the_element_walk(self):
        field = cyclotomic_field(5)
        rng = random.Random(74)
        for _ in range(20):
            poly = self._random_poly(rng)
            point = {v: field.from_residue([rng.randrange(-4, 5) for _ in range(4)])
                     for v in self.VARS}
            expected = field.zero
            for exp, c in poly.terms.items():
                term = field.from_rational(c)
                for v, e in zip(self.VARS, exp):
                    term = term * point[v] ** e
                expected = expected + term
            assert poly.evaluate(point) == expected
            held = poly._held
            # a rational point afterwards sums the same held terms
            rational = {v: Fraction(k, 3) for k, v in enumerate(self.VARS, 1)}
            assert poly.evaluate(rational) == _fraction_sum(poly, rational)
            assert poly._held is held and held == held_terms_reference(poly)


class TestPrinting:
    def test_graded_lex_output(self):
        group = AbelianGroup.cyclic(3)
        det = symbolic_det(group_matrix(symbolic_vector(group, QQ)).rows())
        # graded lex: among degree-3 terms, (3,0,0) > (1,1,1) > (0,3,0) > (0,0,3)
        assert str(det) == "X_0^3 - 3*X_0*X_1*X_2 + X_1^3 + X_2^3"
