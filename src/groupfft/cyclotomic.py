"""Cyclotomic polynomials, the fields Q(zeta_d), splitting fields, and
rational idempotent bases.

The field Q(zeta_d) is the extension Q[X]/(Phi_d): ``CyclotomicField`` is
an ``ExtField`` over ``QQ`` and ``CycloElem`` an ``ExtFieldElem``.  They
add only what differs from F_q[Y]/(m): the representation, phi(d) integer
numerators over one positive integer denominator prime to them, with
``+ - *`` on ints (Phi_d is monic and integral, so products reduce through
an integral table); the inverse through the norm, 1/x = den * P / norm(N)
for x = N/den and P the product of the other Galois conjugates of N;
equality with rational numbers; the root formula; the conjugates and the
embeddings Q(zeta_d) -> Q(zeta_D) for d | D, both through one table of
the integer residues of zeta^j; and the generator name ``zeta`` (the
class of X).  ``residue``, the tuple of the phi(d) rational coefficients,
is still there as the ``Fraction`` view, built on demand.
:func:`splitting_field` gives the smallest extension of any field here that
holds the n-th roots of unity.  The rational basis of Q[X]/(X^n - 1) is
built from the complementary factors (X^n - 1)/Phi_d and their inverses
modulo Phi_d, computed with the extended euclidean algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .errors import (
    NoRootOfUnity,
    NotInvertible,
    PreconditionError,
    RingMismatch,
    VerificationError,
)
from .numtheory import divisors, euler_phi, multiplicative_order
from .rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    UniPoly,
    ext_gcd,
    find_irreducible,
    fold_reduced,
    mul_reduced,
    _trimmed,
    reduction_table,
    require_root_order,
    x_pow_minus_one,
)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> UniPoly:
    """Monic minimal polynomial over Q of a primitive d-th root of unity.

    Computed by dividing X^d - 1 by the product of the lower-index
    cyclotomic polynomials; the result has integer coefficients.  A
    division that leaves a remainder, or a quotient of the wrong degree or
    with a fractional coefficient, raises VerificationError.
    """
    if d < 1:
        raise PreconditionError("cyclotomic index must be >= 1")
    num = x_pow_minus_one(d, QQ)
    for dp in divisors(d):
        if dp != d:
            num, rem = divmod(num, cyclotomic_polynomial(dp))
            if not rem.is_zero:
                raise VerificationError(f"Phi_{dp} does not divide X^{d} - 1")
    if num.degree != euler_phi(d):
        raise VerificationError(f"Phi_{d} has degree {num.degree}, not phi({d})")
    if any(c.denominator != 1 for c in num.coeffs):
        raise VerificationError(f"Phi_{d} has a fractional coefficient")
    return num


class CycloElem(ExtFieldElem):
    """Element of Q(zeta_d), held as integer numerators over one denominator.

    ``num`` is the tuple of phi(d) ints and ``den`` a positive int, the
    element being (num[0] + num[1] zeta + ... ) / den, in canonical form:
    gcd(den, *num) == 1, so equal elements have equal (num, den).
    ``residue``, the tuple of the phi(d) rational coefficients, is the
    ``Fraction`` view, built on demand.
    """

    __slots__ = ("num", "den")
    _scalars = (Fraction,)

    def __init__(self, num: tuple, den: int, field: "CyclotomicField"):
        self.num = num
        self.den = den
        self.field = field

    @property
    def residue(self) -> tuple:
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    def _add(self, o):
        da, db = self.den, o.den
        if da == db:
            return _canonical([a + b for a, b in zip(self.num, o.num)], da, self.field)
        return _canonical(
            [a * db + b * da for a, b in zip(self.num, o.num)], da * db, self.field
        )

    def _sub(self, o):
        da, db = self.den, o.den
        if da == db:
            return _canonical([a - b for a, b in zip(self.num, o.num)], da, self.field)
        return _canonical(
            [a * db - b * da for a, b in zip(self.num, o.num)], da * db, self.field
        )

    def _mul(self, o):
        """Product on integer numerators, through the field's integral
        reduction table."""
        out = mul_reduced(self.num, o.num, self.field._int_red, 0)
        return _canonical(out, self.den * o.den, self.field)

    def __neg__(self):
        return CycloElem(tuple([-a for a in self.num]), self.den, self.field)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if other.__class__ is CycloElem:
            return (
                other.num == self.num
                and other.den == self.den
                and other.field is self.field
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.is_constant
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return False

    def __hash__(self) -> int:
        # a rational element equals its value as an int or Fraction
        if self.is_constant:
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field, self.num, self.den))

    @property
    def is_constant(self) -> bool:
        return not any(self.num[1:])

    @property
    def constant(self) -> Fraction:
        """The rational value of a rational element."""
        if not self.is_constant:
            raise PreconditionError("element does not lie in the base field")
        return Fraction(self.num[0], self.den)

    is_rational = is_constant
    rational_value = constant


def _canonical(num: list, den: int, field) -> CycloElem:
    """num / den (den > 0) in canonical form."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycloElem(tuple(num), den, field)


class CyclotomicField(ExtField):
    """Descriptor for Q(zeta_d) = Q[X]/(Phi_d), an extension of Q."""

    is_finite = False
    var = "z"

    def __init__(self, d: int):
        if d < 1:
            raise PreconditionError("conductor must be >= 1")
        self.conductor = d
        self._zero_tail = (0,) * (euler_phi(d) - 1)
        self._setup(QQ, cyclotomic_polynomial(d))
        # Phi_d is monic with integer coefficients, so its table is integral
        self._int_modulus = tuple(int(c) for c in self.modulus.coeffs)
        self._int_red = reduction_table(self._int_modulus, 0)
        self.zeta = self.gen

    def from_base(self, c) -> CycloElem:
        """The rational c, an int or a Fraction."""
        return CycloElem((c.numerator,) + self._zero_tail, c.denominator, self)

    from_int = from_base

    def _from_coeffs(self, coeffs: tuple) -> CycloElem:
        # over the lcm of the reduced denominators the numerators have no
        # common factor with it, so the result is canonical
        den = lcm(*(c.denominator for c in coeffs))
        return CycloElem(
            tuple([c.numerator * (den // c.denominator) for c in coeffs]), den, self
        )

    def int_coords(self, x: CycloElem) -> list:
        """The numerators of an algebraic integer x (denominator 1), as a
        list of ints; inverted by from_int_coords."""
        if x.den != 1:
            raise PreconditionError(f"{x} is not an algebraic integer of {self}")
        return list(x.num)

    def from_int_coords(self, ints) -> CycloElem:
        """The algebraic integer with these integer numerators."""
        return CycloElem(tuple(ints), 1, self)

    def _numerators(self, values) -> tuple[list, int]:
        """(vectors, den): each of values, an element of this field, an int
        or a Fraction, as its integer numerators over the lcm den of the
        denominators; RingMismatch for any other value."""
        pairs = []
        for x in values:
            if x.__class__ is CycloElem and x.field is self:
                pairs.append((x.num, x.den))
            elif isinstance(x, (int, Fraction)):
                pairs.append(((x.numerator,) + self._zero_tail, x.denominator))
            else:
                raise RingMismatch(f"{x!r} is not an element of {self}")
        den = lcm(*[d for _, d in pairs])
        return [num if d == den else [c * (den // d) for c in num] for num, d in pairs], den

    def _from_numerators(self, ints: list, den: int) -> CycloElem:
        return _canonical(ints, den, self)

    def from_residue(self, coeffs) -> CycloElem:
        """Element from rational coefficients of 1, zeta, zeta^2, ...: ints
        or Fractions (anything else raises RingMismatch), read as integer
        numerators over their lcm, any number of them.  A coefficient of
        zeta^k with k >= phi(d) is folded in through the integral table of
        zeta^k, the reduction table grown past ``_int_red`` only for a
        residue longer than 2 phi(d) - 1."""
        nums, dens = [], []
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise RingMismatch(f"{c!r} is not a coefficient of an element of {self}")
            nums.append(c.numerator)
            dens.append(c.denominator)
        den = lcm(*dens)
        if den != 1:
            nums = [a * (den // b) for a, b in zip(nums, dens)]
        r = self.degree
        nums += [0] * (r - len(nums))
        table = self._int_red
        if len(nums) - r > len(table):
            table = reduction_table(self._int_modulus, 0, len(nums) - r)
        return _canonical(fold_reduced(nums, table, r), den, self)

    @cached_property
    def _zeta_powers(self) -> list[tuple]:
        """Integer residues of zeta^j for j = 0 .. d-1: the unit rows,
        then the rows X^j mod Phi_d of the reduction table."""
        r = self.degree
        units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        return units + reduction_table(self._int_modulus, 0, self.conductor - r)

    def _substitute(self, num, k: int) -> tuple:
        """Integer residue of num[0] + num[1] zeta^k + num[2] zeta^(2k) + ...,
        zeta this field's generator.

        For the numerators of an element of Q(zeta_e) this is its image
        under zeta_e -> zeta^k: the automorphism sigma_k when e = d and k
        is a unit mod d, the embedding when e k = d.  Either map takes an
        element to an algebraic integer only if the element is one, and
        the algebraic integers of Q(zeta_e) are Z[zeta_e], so numerators
        prime to a denominator stay prime to it: the image of a canonical
        element is canonical.
        """
        powers, d = self._zeta_powers, self.conductor
        out = [0] * self.degree
        for i, a in enumerate(num):
            if a:
                for j, t in enumerate(powers[k * i % d]):
                    if t:
                        out[j] += a * t
        return tuple(out)

    def inv(self, x: CycloElem) -> CycloElem:
        """1/x by the norm: x = N/den with N an algebraic integer, and
        N * P = norm(N), P the product of the other conjugates of N, so
        1/x = den * P / norm(N), all on integers.  The norm of a nonzero
        element is a positive integer (Q(zeta_d), d > 2, has no real
        embedding); anything else raises VerificationError.
        """
        if not x:
            raise NotInvertible(f"division by zero in {self}")
        num, den = x.num, x.den
        if x.is_constant:
            n = num[0]
            return CycloElem((den if n > 0 else -den,) + self._zero_tail, abs(n), self)
        d, table = self.conductor, self._int_red
        prod = None
        for m in range(2, d):
            if gcd(m, d) == 1:
                conj = self._substitute(num, m)
                prod = conj if prod is None else mul_reduced(prod, conj, table, 0)
        norm = mul_reduced(num, prod, table, 0)
        if norm[0] <= 0 or any(norm[1:]):
            raise VerificationError(f"norm of {x} in {self} is not a positive integer")
        return _canonical([den * c for c in prod], norm[0], self)

    def primitive_nth_root(self, n: int) -> CycloElem:
        require_root_order(n)
        d = self.conductor
        if n == 1:
            return self.one
        if d % n == 0:
            return self.zeta ** (d // n)
        if d % 2 and (2 * d) % n == 0:
            # -zeta_d is a primitive 2d-th root when d is odd, and 2d/n is odd
            return -(self.zeta ** (2 * d // n))
        raise NoRootOfUnity(f"{self} contains no primitive {n}-th root of unity")

    def embed_from(self, elem: CycloElem) -> CycloElem:
        """Image of an element of Q(zeta_d), d dividing this conductor."""
        d = elem.field.conductor
        if self.conductor % d != 0:
            raise RingMismatch(
                f"no canonical embedding of Q(zeta_{d}) into {self}"
            )
        return CycloElem(
            self._substitute(elem.num, self.conductor // d), elem.den, self
        )

    def __repr__(self) -> str:
        return f"Q(zeta_{self.conductor})"


def cyclotomic_field(d: int) -> CyclotomicField:
    return CyclotomicField(d)


def splitting_field(field, n: int):
    """(big, embed): the smallest extension of field holding a primitive
    n-th root of unity, and the embedding of field into it.

    big is field itself when it already holds one.  Over F_q it is
    F_q[Y]/(m), m the smallest irreducible of degree ord_n(q); over
    Q(zeta_d), whose roots of unity are the lcm(2, d)-th roots, it is
    Q(zeta_lcm(d, n)).  n must be prime to the characteristic.
    """
    if field.is_finite:
        s = multiplicative_order(field.order, n) if n > 1 else 1
        if s == 1:
            return field, _identity
        big = ExtField(field, find_irreducible(field, s))
        return big, big.from_base
    cyclo = isinstance(field, CyclotomicField)
    d = field.conductor if cyclo else 1
    if lcm(2, d) % n == 0:
        return field, _identity
    big = cyclotomic_field(lcm(d, n))
    return big, big.embed_from if cyclo else big.from_rational


def _identity(x):
    return x


def galois_conjugates(a: CycloElem) -> list[CycloElem]:
    """Images of a under zeta -> zeta^m for gcd(m, d) = 1, m ascending."""
    field = a.field
    d = field.conductor
    return [
        CycloElem(field._substitute(a.num, m), a.den, field)
        for m in range(1, d + 1)
        if gcd(m, d) == 1
    ]


def norm_to_rationals(a: CycloElem) -> Fraction:
    """Product of all galois conjugates; always a rational number."""
    prod = a.field.one
    for c in galois_conjugates(a):
        prod = prod * c
    if not prod.is_rational:
        raise VerificationError(f"the norm of {a} is not rational")
    return prod.rational_value


def complementary_factor(n: int, d: int) -> UniPoly:
    """The quotient (X^n - 1) / Phi_d, for d | n, over Q."""
    if d < 1 or n % d != 0:
        raise PreconditionError(f"{d} does not divide {n}")
    quo, rem = divmod(x_pow_minus_one(n, QQ), cyclotomic_polynomial(d))
    if not rem.is_zero:
        raise VerificationError(f"Phi_{d} does not divide X^{n} - 1")
    return quo


def complementary_inverse(n: int, d: int) -> UniPoly:
    """Inverse of complementary_factor(n, d) modulo Phi_d.

    Unique of degree <= phi(d) - 1; obtained from the extended gcd.
    """
    psi = complementary_factor(n, d)
    phi_d = cyclotomic_polynomial(d)
    g, u, _ = ext_gcd(psi, phi_d)
    if g.degree != 0 or g.coefficient(0) != 1:
        raise VerificationError(f"(X^{n} - 1)/Phi_{d} is not prime to Phi_{d}")
    if (u * psi) % phi_d != UniPoly.constant(Fraction(1), QQ):
        raise VerificationError(f"the inverse of (X^{n} - 1)/Phi_{d} modulo Phi_{d} fails")
    return u


@dataclass(frozen=True)
class RationalBasisElement:
    """One member of the rational basis of Q[X]/(X^n - 1).

    Maps to (0, ..., zeta_d^j, ..., 0) under the splitting into the
    product of the fields Q(zeta_d), d | n.
    """

    d: int
    j: int
    poly: UniPoly


def rational_basis_cyclic(n: int) -> list[RationalBasisElement]:
    """Rational basis {E_(d,j) : d | n, 0 <= j < phi(d)} of Q[X]/(X^n - 1).

    E_(d,j) is the class of X^j * inv * comp where comp = (X^n - 1)/Phi_d
    and inv is its inverse modulo Phi_d.  Ordered by divisor, then shift.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    modulus = x_pow_minus_one(n, QQ)
    out = []
    for d in divisors(n):
        comp = complementary_factor(n, d)
        inv = complementary_inverse(n, d)
        # X^j E_(d,0) mod X^n - 1 is the coefficient list rotated by j
        coeffs = list(((inv * comp) % modulus).coeffs)
        coeffs += [QQ.zero] * (n - len(coeffs))
        for j in range(euler_phi(d)):
            out.append(RationalBasisElement(d, j, _trimmed(coeffs[n - j:] + coeffs[:n - j], QQ)))
    if len(out) != n:
        raise VerificationError(f"{len(out)} rational basis elements, expected {n}")
    return out


def rational_basis_abelian(group) -> list:
    """Rational basis of Q[G] for G a product of cyclic groups.

    Tensor products of per-factor cyclic basis elements, returned as
    group-ring vectors (one rational coefficient per group element).
    """
    from .transform import GroupVector

    factor_bases = [rational_basis_cyclic(d) for d in group.divisors]
    elements = group.elements()
    out = []
    import itertools

    for combo in itertools.product(*factor_bases):
        values = []
        for el in elements:
            coeff = Fraction(1)
            for res, basis_el in zip(el.residues, combo):
                coeff *= basis_el.poly.coefficient(res)
            values.append(coeff)
        out.append(GroupVector(group, QQ, tuple(values)))
    return out
