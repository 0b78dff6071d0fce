"""Cyclotomic polynomials, the fields Q(zeta_d), and rational idempotent bases.

The field Q(zeta_d) is realized as Q[X]/(Phi_d); its canonical generator
``zeta`` is the class of X.  The rational basis of Q[X]/(X^n - 1) is built
from the complementary factors (X^n - 1)/Phi_d and their inverses modulo
Phi_d, computed with the extended euclidean algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import NoRootOfUnity, NotInvertible, PreconditionError, RingMismatch
from .numtheory import divisors, euler_phi
from .rings import (
    QQ,
    FieldElem,
    UniPoly,
    ext_gcd,
    mul_reduced,
    reduction_table,
    x_pow_minus_one,
)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> UniPoly:
    """Monic minimal polynomial over Q of a primitive d-th root of unity.

    Computed by dividing X^d - 1 by the product of the lower-index
    cyclotomic polynomials; the result has integer coefficients.
    """
    if d < 1:
        raise PreconditionError("cyclotomic index must be >= 1")
    num = x_pow_minus_one(d, QQ)
    for dp in divisors(d):
        if dp != d:
            num, rem = divmod(num, cyclotomic_polynomial(dp))
            assert rem.is_zero
    assert num.degree == euler_phi(d)
    assert all(c.denominator == 1 for c in num.coeffs)
    return num


class CycloElem(FieldElem):
    """Element of Q(zeta_d): a residue polynomial of degree < phi(d)."""

    __slots__ = ()
    _scalars = (Fraction,)

    def _add(self, o):
        return CycloElem(self.residue + o.residue, self.field)

    def _sub(self, o):
        return CycloElem(self.residue - o.residue, self.field)

    def _mul(self, o):
        """Product on integer numerators.

        Each residue is scaled to integers over the lcm of its
        denominators, the integer residues are multiplied and reduced by
        the field's integral table, and the phi(d) results are divided
        once.
        """
        ca, cb = self.residue.coeffs, o.residue.coeffs
        if not ca or not cb:
            return self.field.zero
        da = lcm(*(c.denominator for c in ca))
        db = lcm(*(c.denominator for c in cb))
        out = mul_reduced(
            [c.numerator * (da // c.denominator) for c in ca],
            [c.numerator * (db // c.denominator) for c in cb],
            self.field._red,
            0,
        )
        den = da * db
        return CycloElem(UniPoly.make([Fraction(c, den) for c in out], QQ), self.field)

    def __neg__(self):
        return CycloElem(-self.residue, self.field)

    def __bool__(self) -> bool:
        return not self.residue.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (
            other.__class__ is CycloElem
            and (other.field is self.field or other.field == self.field)
            and other.residue.coeffs == self.residue.coeffs
        )

    def __hash__(self) -> int:
        # a rational element equals its value as an int or Fraction
        if self.is_rational:
            return hash(self.rational_value)
        return hash((self.field, self.residue.coeffs))

    @property
    def is_rational(self) -> bool:
        return self.residue.degree <= 0

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise PreconditionError("element is not rational")
        return self.residue.coefficient(0)


class CyclotomicField:
    """Descriptor for Q(zeta_d) = Q[X]/(Phi_d)."""

    characteristic = 0
    is_finite = False

    def __init__(self, d: int):
        if d < 1:
            raise PreconditionError("conductor must be >= 1")
        self.conductor = d
        self.modulus = cyclotomic_polynomial(d)
        self.degree = self.modulus.degree
        # X^k mod Phi_d for k = phi .. 2 phi - 2: integral, since Phi_d is
        # monic with integer coefficients
        self._red = reduction_table([int(c) for c in self.modulus.coeffs], 0)
        self.zero = CycloElem(UniPoly.zero(QQ), self)
        self.one = CycloElem(UniPoly.constant(Fraction(1), QQ), self)
        self.zeta = CycloElem(UniPoly.gen(QQ) % self.modulus, self)

    def from_int(self, k: int) -> CycloElem:
        return CycloElem(UniPoly.constant(Fraction(k), QQ), self)

    def from_rational(self, q: Fraction) -> CycloElem:
        return CycloElem(UniPoly.constant(Fraction(q), QQ), self)

    def from_residue(self, coeffs) -> CycloElem:
        """Element from rational coefficients of 1, zeta, zeta^2, ..."""
        poly = UniPoly.make([Fraction(c) for c in coeffs], QQ) % self.modulus
        return CycloElem(poly, self)

    def inv(self, x: CycloElem) -> CycloElem:
        if not x:
            raise NotInvertible(f"division by zero in {self}")
        g, u, _ = ext_gcd(x.residue, self.modulus)
        assert g.degree == 0
        return CycloElem(u.scale(QQ.inv(g.coefficient(0))), self)

    def primitive_nth_root(self, n: int) -> CycloElem:
        d = self.conductor
        if n == 1:
            return self.one
        if d % n == 0:
            return self.zeta ** (d // n)
        if d % 2 and (2 * d) % n == 0:
            # -zeta_d is a primitive 2d-th root when d is odd, and 2d/n is odd
            return -(self.zeta ** (2 * d // n))
        raise NoRootOfUnity(f"{self} contains no primitive {n}-th root of unity")

    def embed_from(self, elem: "CycloElem") -> "CycloElem":
        """Image of an element of Q(zeta_d), d dividing this conductor."""
        d = elem.field.conductor
        if self.conductor % d != 0:
            raise RingMismatch(
                f"no canonical embedding of Q(zeta_{d}) into {self}"
            )
        shifted = elem.residue.substitute_power(self.conductor // d)
        return CycloElem(shifted % self.modulus, self)

    def format_elem(self, x: CycloElem) -> str:
        from .rings import format_unipoly

        return format_unipoly(x.residue, var="z")

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("Qzeta", self.conductor))

    def __repr__(self) -> str:
        return f"Q(zeta_{self.conductor})"


@lru_cache(maxsize=None)
def cyclotomic_field(d: int) -> CyclotomicField:
    return CyclotomicField(d)


def galois_conjugates(a: CycloElem) -> list[CycloElem]:
    """Images of a under zeta -> zeta^m for gcd(m, d) = 1, m ascending."""
    field = a.field
    d = field.conductor
    out = []
    for m in range(1, d + 1):
        if gcd(m, d) == 1:
            out.append(CycloElem(a.residue.substitute_power(m) % field.modulus, field))
    return out


def norm_to_rationals(a: CycloElem) -> Fraction:
    """Product of all galois conjugates; always a rational number."""
    prod = a.field.one
    for c in galois_conjugates(a):
        prod = prod * c
    assert prod.is_rational
    return prod.rational_value


def complementary_factor(n: int, d: int) -> UniPoly:
    """The quotient (X^n - 1) / Phi_d, for d | n, over Q."""
    if d < 1 or n % d != 0:
        raise PreconditionError(f"{d} does not divide {n}")
    quo, rem = divmod(x_pow_minus_one(n, QQ), cyclotomic_polynomial(d))
    assert rem.is_zero
    return quo


def complementary_inverse(n: int, d: int) -> UniPoly:
    """Inverse of complementary_factor(n, d) modulo Phi_d.

    Unique of degree <= phi(d) - 1; obtained from the extended gcd.
    """
    psi = complementary_factor(n, d)
    phi_d = cyclotomic_polynomial(d)
    g, u, _ = ext_gcd(psi, phi_d)
    assert g.degree == 0 and g.coefficient(0) == 1
    assert (u * psi) % phi_d == UniPoly.constant(Fraction(1), QQ)
    return u


def prime_complementary_inverse_shortcut(p: int) -> UniPoly:
    """Derivative-based closed form for the inverse of X - 1 modulo Phi_p.

    Cross-check only; equals complementary_inverse(p, p) for prime p.
    Derived from differentiating X^p - 1 = (X - 1) * Phi_p.
    """
    phi_p = cyclotomic_polynomial(p)
    dphi = phi_p.derivative()
    geom = UniPoly.make([Fraction(1)] * (p - 1), QQ)  # (X^(p-1) - 1)/(X - 1)
    return dphi.scale(Fraction(1, p)) - geom


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
        base = (inv * comp) % modulus
        x = UniPoly.gen(QQ)
        cur = base
        for j in range(euler_phi(d)):
            out.append(RationalBasisElement(d, j, cur))
            cur = (cur * x) % modulus
    assert len(out) == n
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
