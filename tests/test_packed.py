"""Products on packed monomials and held coefficients: MultiPoly.__mul__
and symbolic_det against the term-by-term references, sympy, and a
too-narrow digit width; MultiPoly's one packed form against exponent
tuples."""

import random
from fractions import Fraction

import pytest

from groupfft.cyclotomic import cyclotomic_field
from groupfft.errors import PreconditionError, RingMismatch, VerificationError
from groupfft.multipoly import MultiPoly, Packing, symbolic_det
from groupfft.rings import QQ, ExtField, PrimeField, find_irreducible, finite_field, kernel

from helpers import (
    check_under_o,
    det_reference,
    from_ints,
    held_terms_reference,
    mul_reference,
    random_cyclo,
    random_elem,
    sparse_terms_reference,
    sympy_multipoly,
)

V3 = ("X_0", "X_1", "X_2")


def _tower():
    f4 = finite_field(2, 2)
    return ExtField(f4, find_irreducible(f4, 3))


FIELDS = {
    "F2": lambda: PrimeField(2),
    "F7": lambda: PrimeField(7),
    "F9": lambda: finite_field(3, 2),
    "F25": lambda: finite_field(5, 2),
    "F2^10": lambda: finite_field(2, 10),  # a prime base above the log cap
    "(F2^2)^3": _tower,
    "Q": lambda: QQ,
    "Q(zeta_5)": lambda: cyclotomic_field(5),
    "Q(zeta_9)": lambda: cyclotomic_field(9),
    "Q(zeta_12)": lambda: cyclotomic_field(12),
}


def _coefficient(field, rng):
    """A random coefficient; over Q and Q(zeta_d) most are not integral."""
    if field is QQ:
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 13))
    if not field.is_finite:
        return random_cyclo(field, rng)
    return random_elem(field, rng)


def _random_poly(field, rng, variables=V3, terms=6, degree=4):
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        exp = tuple(rng.randrange(degree + 1) for _ in variables)
        out[exp] = _coefficient(field, rng)
    return MultiPoly(variables, out, field)


def _stored_nonzero(poly):
    return all(poly.terms.values())


@pytest.mark.parametrize("name", FIELDS)
class TestProductAgainstReference:
    def test_random_products(self, name):
        field = FIELDS[name]()
        rng = random.Random(name)
        for _ in range(25):
            a, b = _random_poly(field, rng), _random_poly(field, rng)
            product = a * b
            assert product == mul_reference(a, b)
            assert _stored_nonzero(product)

    def test_zero_and_constants(self, name):
        field = FIELDS[name]()
        rng = random.Random(1)
        zero = MultiPoly.zero(V3, field)
        c = MultiPoly.constant(_coefficient(field, rng) or field.one, V3, field)
        p = _random_poly(field, rng) + MultiPoly.variable("X_1", V3, field)
        for a, b in [(zero, p), (p, zero), (zero, zero), (c, p), (p, c), (c, c)]:
            product = a * b
            assert product == mul_reference(a, b)
            assert product.variables == V3 and product.ring is field
        assert (zero * p).is_zero and (c * c).is_homogeneous(0)

    def test_terms_that_cancel(self, name):
        field = FIELDS[name]()
        x, y = (MultiPoly.variable(v, V3, field) for v in V3[:2])
        # (x + y)(x - y): the x*y terms cancel in every field
        product = (x + y) * (x - y)
        assert product == mul_reference(x + y, x - y) == x * x - y * y
        assert _stored_nonzero(product)
        # (x + y)^p over F_p, p = characteristic: every middle term cancels
        p = field.characteristic
        if p:
            power = (x + y) ** p
            assert power.terms.keys() == {(p, 0, 0), (0, p, 0)}

    def test_different_variable_tuples(self, name):
        field = FIELDS[name]()
        rng = random.Random(2)
        a = _random_poly(field, rng, ("X_0", "X_1"))
        b = _random_poly(field, rng, ("X_2", "X_0"))
        product = a * b
        assert product.variables == ("X_0", "X_1", "X_2")
        assert product == mul_reference(a, b)

    def test_exponents_at_the_top_of_the_width(self, name):
        # total degrees 3 + 4 = 7 = 0b111: the product's exponents fill
        # their 3-bit fields, next to each other
        field = FIELDS[name]()
        rng = random.Random(3)
        one = field.one
        a = MultiPoly(V3, {(3, 0, 0): one, (0, 3, 0): one, (1, 1, 1): one}, field)
        b = MultiPoly(V3, {(4, 0, 0): _coefficient(field, rng) or one,
                           (0, 0, 4): one, (0, 4, 0): one}, field)
        product = a * b
        assert product == mul_reference(a, b)
        assert {(7, 0, 0), (3, 0, 4), (0, 7, 0), (0, 3, 4)} <= product.terms.keys()


class TestWideDigits:
    """Coefficients whose l1 bound pushes the digit width past 64 bits."""

    FIELDS = {
        "Q(zeta_5)": lambda: cyclotomic_field(5),
        "Q(zeta_12)": lambda: cyclotomic_field(12),
        "Q": lambda: QQ,
        # Y^2 + 1 is irreducible mod p = 2^31 - 1, as p = 3 (mod 4)
        "F(2^31-1)^2": lambda: ExtField(PrimeField(2**31 - 1),
                                        from_ints([1, 0, 1], PrimeField(2**31 - 1))),
        "F(2^61-1)": lambda: PrimeField(2**61 - 1),
    }

    @pytest.mark.parametrize("name", FIELDS)
    def test_large_coefficients(self, name):
        field = self.FIELDS[name]()
        rng = random.Random(4)
        big = 10**12 if field.characteristic == 0 else field.characteristic - 1
        for _ in range(10):
            terms = [{}, {}]
            for t in terms:
                for _ in range(8):
                    exp = tuple(rng.randrange(3) for _ in V3)
                    if isinstance(field, ExtField):
                        coords = [rng.randrange(-big, big + 1) for _ in range(field.degree)]
                        t[exp] = (field.from_residue([Fraction(c, rng.randrange(1, 4))
                                                      for c in coords])
                                  if field.characteristic == 0
                                  else field.from_int_coords(coords))
                    else:
                        t[exp] = field.from_int(rng.randrange(-big, big + 1))
            a, b = (MultiPoly(V3, t, field) for t in terms)
            if isinstance(field, ExtField):
                (_, _), (_, width, _) = kernel(field).hold(
                    [list(a.terms.values()), list(b.terms.values())])
                assert width > 64
            assert a * b == mul_reference(a, b)


class TestPacking:
    def test_round_trip_and_addition(self):
        rng = random.Random(5)
        for nvars in range(1, 5):
            for degree in (0, 1, 2, 3, 7, 8, 31):
                packing = Packing(nvars, degree)
                for _ in range(20):
                    a = [rng.randrange(degree + 1) for _ in range(nvars)]
                    b = [rng.randrange(degree + 1 - x) for x in a]
                    assert packing.unpack(packing.pack(a)) == tuple(a)
                    s = packing.pack(a) + packing.pack(b)
                    assert packing.unpack(s) == tuple(x + y for x, y in zip(a, b))


    def test_degree_of_and_sparse_terms(self):
        """degree_of reads the total degree off one product, and
        sparse_terms the nonzero fields, as the tuples give them."""
        rng = random.Random(6)
        for nvars in range(1, 7):
            for degree in (0, 1, 2, 3, 6, 8, 31):
                packing = Packing(nvars, degree)
                exps = []
                for _ in range(20):
                    exp, room = [0] * nvars, degree
                    for i in rng.sample(range(nvars), nvars):
                        exp[i] = rng.randrange(room + 1)
                        room -= exp[i]
                    exps.append(tuple(exp))
                    assert packing.degree_of(packing.pack(exp)) == sum(exp)
                coefficients = list(range(1, len(exps) + 1))
                assert packing.sparse_terms(map(packing.pack, exps), coefficients) == (
                    sparse_terms_reference(zip(exps, coefficients)))


class TestOneForm:
    """MultiPoly keeps its monomials packed; tuples are read off them."""

    def test_malformed_exponents_are_refused(self):
        with pytest.raises(PreconditionError):
            MultiPoly(("x", "y"), {(1, 2, 3): Fraction(2), (0, 0): Fraction(1)}, QQ)
        with pytest.raises(PreconditionError):
            MultiPoly(("x", "y"), {(-1, 0): Fraction(1)}, QQ)
        with pytest.raises(PreconditionError):
            MultiPoly(("x", "y"), {(1.0, 0): Fraction(1)}, QQ)
        poly = MultiPoly(("x", "y"), {(1, 2): Fraction(2), (0, 0): Fraction(1)}, QQ)
        for exp in [(1,), (1, 2, 0), (-1, 0), (0, -1)]:
            with pytest.raises(PreconditionError):
                poly.coefficient(exp)
        assert poly.coefficient((1, 2)) == 2 and poly.coefficient((5, 0)) == 0

    @pytest.mark.parametrize("call", [
        "MultiPoly(('x', 'y'), {(1, 2, 3): Fraction(2), (-1, 0): Fraction(1)}, QQ)",
        "MultiPoly(('x', 'y'), {(-1, 0): Fraction(1)}, QQ)",
        "MultiPoly(('x', 'y'), {(1, 2): Fraction(2)}, QQ).coefficient((1,))",
        "MultiPoly(('x', 'y'), {(1, 2): Fraction(2)}, QQ).coefficient((0, -1))",
    ], ids=["length", "negative", "coefficient-length", "coefficient-negative"])
    def test_malformed_exponents_under_o(self, call):
        setup = """
            from fractions import Fraction
            from groupfft.multipoly import MultiPoly
            from groupfft.rings import QQ
        """
        assert check_under_o(call, setup, error="PreconditionError").startswith("raised: exponent")

    def test_exponent_above_a_field_is_not_aliased(self):
        """(2, 0, 0) would pack to (0, 1, 0)'s int in one-bit fields."""
        one = Fraction(1)
        narrow = MultiPoly(V3, {(1, 0, 0): one, (0, 1, 0): Fraction(3)}, QQ)
        assert narrow.packing.mask == 1
        assert narrow.coefficient((2, 0, 0)) == 0 and narrow.coefficient((0, 1, 0)) == 3
        assert narrow.terms.get((2, 0, 0)) is None and (2, 0, 0) not in narrow.terms

    @pytest.mark.parametrize("name", FIELDS)
    def test_sums_and_equality_across_packings(self, name):
        """A wide product, its top cancelled, against the same polynomial
        built narrow from tuples, in either variable order."""
        field = FIELDS[name]()
        rng = random.Random(name)
        for _ in range(10):
            narrow = _random_poly(field, rng, degree=1)
            top = MultiPoly(V3, {(4, 0, 0): field.one}, field) * MultiPoly(
                V3, {(0, 4, 4): field.one}, field)
            wide = top + narrow - top
            assert wide.packing.mask > narrow.packing.mask or not narrow
            assert wide == narrow and narrow == wide
            assert wide.terms == dict(narrow.terms.items())
            assert str(wide) == str(narrow) and wide.sort_key() == narrow.sort_key()
            assert wide.sorted_terms() == narrow.sorted_terms()
            assert (wide - narrow).is_zero and wide + narrow == narrow + narrow
            assert wide * narrow == mul_reference(narrow, narrow)
            swapped = MultiPoly(V3[::-1], {e[::-1]: c for e, c in narrow.terms.items()}, field)
            assert swapped == wide and wide + swapped == narrow + narrow
            assert wide != narrow + MultiPoly(V3, {(1, 1, 1): field.one}, field)

    def test_terms_view(self):
        poly = MultiPoly(V3, {(2, 0, 1): Fraction(3), (0, 0, 0): Fraction(-1, 2)}, QQ)
        view = poly.terms
        assert len(view) == 2 and set(view) == {(2, 0, 1), (0, 0, 0)}
        assert dict(view.items()) == {(2, 0, 1): 3, (0, 0, 0): Fraction(-1, 2)}
        assert view.get((2, 0, 1)) == 3 and view.get((1, 0, 0)) is None
        assert view[(0, 0, 0)] == Fraction(-1, 2)
        with pytest.raises(KeyError):
            view[(0, 1, 0)]
        with pytest.raises(TypeError):
            view[(0, 1, 0)] = Fraction(1)

    @pytest.mark.parametrize("name", FIELDS)
    def test_held_pairs_against_tuples(self, name):
        """evaluate holds the pairs read off the packed monomials, as the
        reference reads them off exponent tuples."""
        field = FIELDS[name]()
        rng = random.Random(name)
        for degree in (1, 3, 8):
            poly = _random_poly(field, rng, terms=12, degree=degree)
            poly = poly * _random_poly(field, rng, degree=degree) + poly
            point = {v: _coefficient(field, rng) for v in V3}
            poly.evaluate(point)
            assert poly._held == held_terms_reference(poly)


class TestNarrowWidth:
    """One bit less than the l1 bound asks for must not decode silently."""

    SETUP = """
        from groupfft.rings import finite_field, kernel
        field = finite_field(7, 2)
        kern = kernel(field)
        top = field.from_int_coords([0, 6])  # 6Y, whose square reaches the bound
        (held_a, held_b), (den, width, digits) = kern.hold([[top], [top]])
        a, b = held_a[0], held_b[0]
    """

    def test_width_from_the_bound_decodes(self):
        field = finite_field(7, 2)
        kern = kernel(field)
        top = field.from_int_coords([0, 6])
        (held_a, held_b), context = kern.hold([[top], [top]])
        assert kern.release([held_a[0] * held_b[0]], context) == [top * top]

    def test_one_bit_narrower_raises(self):
        field = finite_field(7, 2)
        kern = kernel(field)
        top = field.from_int_coords([0, 6])
        (held_a, held_b), (den, width, digits) = kern.hold([[top], [top]])
        with pytest.raises(VerificationError):
            kern.release([held_a[0] * held_b[0]], (den, width - 1, digits))

    def test_one_bit_narrower_raises_under_o(self):
        out = check_under_o("kern.release([a * b], (den, width - 1, digits))", self.SETUP)
        assert out.startswith("raised: ")


def _random_matrix(field, rng, n):
    return [[_random_poly(field, rng, V3, terms=3, degree=2) for _ in range(n)]
            for _ in range(n)]


class TestSymbolicDet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_sympy_over_q(self, n):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(10 + n)
        for _ in range(3 if n < 5 else 1):
            rows = _random_matrix(QQ, rng, n)
            det = symbolic_det(rows)
            expected = sympy.Matrix([[sympy_multipoly(sympy, p) for p in row]
                                     for row in rows]).det(method="berkowitz")
            assert sympy.expand(sympy_multipoly(sympy, det) - expected) == 0

    @pytest.mark.parametrize("name", ["F7", "Q(zeta_3)", "F9", "(F2^2)^3"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_cofactor_reference(self, name, n):
        field = cyclotomic_field(3) if name == "Q(zeta_3)" else FIELDS[name]()
        rng = random.Random(20 + n)
        for _ in range(3 if n < 5 else 1):
            rows = _random_matrix(field, rng, n)
            det = symbolic_det(rows)
            assert det == det_reference(rows)
            assert _stored_nonzero(det)

    def test_zero_rows_and_mixed_variables(self):
        field = cyclotomic_field(3)
        x = MultiPoly.variable("X_0", ("X_0",), field)
        y = MultiPoly.variable("Y", ("Y",), field)
        zero = MultiPoly.zero(("X_0",), field)
        rows = [[x, y], [y * field.zeta, x]]
        assert symbolic_det(rows) == det_reference(rows)
        assert symbolic_det([[zero, x], [zero, y]]).is_zero

    def test_entries_over_two_rings_rejected(self):
        x = MultiPoly.variable("X_0", ("X_0",), QQ)
        y = MultiPoly.variable("X_0", ("X_0",), PrimeField(7))
        with pytest.raises(RingMismatch):
            symbolic_det([[x, x], [y, x]])
