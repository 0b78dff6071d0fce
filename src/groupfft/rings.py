"""Exact coefficient fields and dense univariate polynomials.

Fields implemented here: the rationals (``QQ``, elements are
:class:`fractions.Fraction`), prime fields ``F_p``, and extension fields
``F[Y]/(m(Y))`` (:class:`ExtField`, m monic irreducible).  One extension
construction serves both kinds: ``F_q[Y]/(m)`` over a finite base, towers
included, and Q(zeta_d) = Q[X]/(Phi_d), the subclass
:class:`groupfft.cyclotomic.CyclotomicField`, which adds only its
integer-numerator representation (through the ``from_base`` and
``_from_coeffs`` hooks), its norm inverse, its root formula and its
embeddings.

A field descriptor provides: ``characteristic``, ``zero``, ``one``,
``from_int``, ``from_rational``, ``inv``, ``format_elem`` and
``primitive_nth_root``; finite fields additionally expose ``order``,
``iter_elements`` (canonical ordering) and ``order_key``.  Every field
also reads an element as a flat list of ints and back (``int_coords``,
``from_int_coords``): the residue over F_p, the coefficients over a prime
base (over a tower, each coefficient's ints in turn), the integer
numerators of an algebraic integer of Q(zeta_d), and over Q an integer
as itself; Q and Q(zeta_d) read integers only.
Descriptors are canonical: a constructor called with equal arguments
returns the descriptor it built first (:class:`_Canonical`), so one field
is one object, with one kernel and one :func:`root_table` per exponent,
which every root of unity and root power is read from, and descriptors
compare with ``is``.

Element protocol.  Elements of F_p, F_{p^r} and Q(zeta_d) are immutable
:class:`FieldElem` subclasses holding their ``field`` and exposing a
``residue``: an int in [0, p) for F_p, and for an extension the
fixed-length tuple of its base-field coefficients, constant term first.
Only F_p stores it as it is.  An element of F_p[Y]/(m) stores its
coefficients as ints in [0, p) (``coeffs``) and a tower its base-field
elements; Q(zeta_d) elements store integer numerators over one
denominator.  Over F_p and over Q the ``residue`` tuple is a view (of
F_p elements, of ``Fraction``s), built on demand.
They support ``+ - * /`` with an element of the same field or an int on
either side (Q(zeta_d) also takes a ``Fraction``), ``**`` with any int
exponent, and ``==``/``hash`` by field and residue; a rational element of
Q(zeta_d) also equals, and hashes as, its value.  Operands from two
fields of one kind raise :class:`RingMismatch`; operands of two kinds
raise ``TypeError``; dividing by zero, or a negative power of zero,
raises :class:`NotInvertible`.  Element operations and ``==`` test
``other.field is self.field``: one pointer comparison.
An element of F_p or F_{p^r} never equals an int (``F7.zero == 0`` is
False; test for zero with ``not x``): a coercing ``==`` would break the
hash contract, since F7(3) would equal both 3 and 10.

Residue products.  Multiplication in a quotient ring R[X]/(m), m monic of
degree r, goes through :func:`mul_reduced`: the schoolbook product of the
two coefficient lists, then one pass through a table of X^k mod m for
k = r .. 2r-2 built once per field by :func:`reduction_table`.  Each
high coefficient c_k is folded in as c_k * (X^k mod m); no division and
no cascading reduction.  Two rings use it over plain Python ints:
``F_p[Y]/(m)`` (``ExtField`` over a prime field: the int coefficients are
multiplied as they are and each output coefficient is reduced mod p once)
and ``Q[X]/(Phi_d)`` (``CyclotomicField``: Phi_d is monic with integer
coefficients, so its table is integral and applies to the integer
numerators as they are).  Over a prime base every other element
operation runs on the int coefficients too: sums, differences and negation
one ``% p`` per coefficient, and ``iter_elements``, ``order_key``, ``==``
and ``hash``; an F_p element is made only where a caller reads
``residue``, ``constant`` or ``poly``.  Towers (an ``ExtField`` over an
``ExtField``) run the same helper on base-field elements and the
element-valued table.

Polynomials.  F[X] has one arithmetic, on coefficient lists in F's list
form: int residues over F_p, as ``ExtFieldElem.coeffs`` holds them over a
prime base, and F's own elements over towers, Q and Q(zeta_d).  Product,
division, modular power, the extended euclid (:func:`list_ext_gcd`, which
rechecks its cofactor) and Ben-Or's test take the field, and over F_p
reduce each output coefficient mod p once.  ``UniPoly``'s operators,
:func:`poly_powmod`, :func:`ext_gcd`, :func:`is_irreducible` and
:func:`find_irreducible` wrap them, and ``ExtField.inv`` inverts through
the same euclid over a prime base and over a tower alike; Q(zeta_d)
inverts through the norm, on its integer numerators.

Kernels.  :func:`kernel` picks, once per descriptor, how the bulk loops
hold a field's values, makes one working copy per matrix (of a group
matrix from its n values, ``group_copy``, never the n^2 entries) and
wraps each result back into the descriptor.  F_p eliminates on rows of
residues packed into one int each, a row update one big-int multiply-add
with no reduction and a pivot inverse one ``pow(x, -1, p)``
(:class:`IntKernel`).  A small F_p[Y]/(m), order at most
``LOG_ORDER_CAP``, runs on Zech logarithms (:class:`LogTables`): a
product is one int addition and a sum one table lookup
(:func:`zech_sum`).  Q eliminates fraction-free: Bareiss updates on rows
scaled to integers, the determinant the last pivot over the product of
the row scales.  ``MultiPoly.evaluate`` sums the terms as ``hold_terms``
holds them, each monomial as (variable, exponent) pairs read straight
off its packed int, each term a coefficient times powers of the
coordinates read from one table per variable (:func:`_term_sum`): over Q
on integer numerators over their lcm c, an int point giving an int
scaled once by 1/c; over F_p on int residues, reduced mod p once; over a
small F_p[Y]/(m) on logs, the terms added by Zech sums; elsewhere on
elements.  Products and symbolic determinants hold their coefficients
through ``hold`` and ``release``: int residues over F_p, integer
numerators over a common denominator over Q, and over F_p[Y]/(m) and
Q(zeta_d) numerator vectors over one denominator, each packed into one
int by Kronecker substitution T -> 2^W (Harvey, JSC 2009), W from an l1
bound so that no digit carries.  A product stays unreduced in Z[T]; each
output coefficient is split into balanced base-2^W digits
(:func:`kronecker_digits`, VerificationError on anything left over) and
folded once through the integral reduction table.  Towers hold their
elements; single element operations keep the residue products above.  A
transform (``dft``) holds its vector the same way and runs one
:class:`ResidueDFT` recursion, towers and MultiPolys on their entries
(:func:`field_entries`); a convolution (``convolve``) multiplies two
held vectors in the group ring as one int (:func:`cyclic_product`).

No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator

from .errors import (
    NoRootOfUnity,
    NotInvertible,
    PreconditionError,
    RingMismatch,
    VerificationError,
)
from .numtheory import factorization, is_prime, prime_factors

# The rationals are stored reduced with positive denominator and structural
# equality -- exactly what fractions.Fraction guarantees.
Rational = Fraction


# ---------------------------------------------------------------------------
# Canonical descriptors
# ---------------------------------------------------------------------------

# every descriptor built, keyed by (class, *constructor arguments)
_descriptors: dict = {}


class _Canonical(type):
    """Metaclass of the field descriptors: a constructor call returns the
    descriptor already built for equal arguments, so equal fields are one
    object.  A construction that raises registers nothing."""

    def __call__(cls, *args):
        key = (cls, *args)
        field = _descriptors.get(key)
        if field is None:
            field = _descriptors[key] = super().__call__(*args)
        return field


# ---------------------------------------------------------------------------
# The rational field
# ---------------------------------------------------------------------------

class RationalField(metaclass=_Canonical):
    """Descriptor for Q.  Elements are Fraction instances."""

    characteristic = 0
    is_finite = False
    _kernel = None  # see kernel()

    zero = Fraction(0)
    one = Fraction(1)
    _list_form = (0, zero, one)  # see "F[X] on coefficient lists"

    def __init__(self):
        self._roots: dict = {}  # see root_table()

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def from_rational(self, q: Fraction) -> Fraction:
        return q if q.__class__ is Fraction else Fraction(q)

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise NotInvertible("division by zero in Q")
        return 1 / Fraction(x)

    def int_coords(self, x: Fraction) -> list:
        """An integer x as [x]; inverted by from_int_coords."""
        if x.denominator != 1:
            raise PreconditionError(f"{x} is not an integer")
        return [x.numerator]

    def from_int_coords(self, ints) -> Fraction:
        """The integer with this one int coordinate."""
        return Fraction(ints[0])

    def primitive_nth_root(self, n: int) -> Fraction:
        require_root_order(n)
        if n == 1:
            return self.one
        if n == 2:
            return -self.one
        raise NoRootOfUnity(f"Q contains no primitive {n}-th root of unity")

    def format_elem(self, x: Fraction) -> str:
        return str(x)

    def __repr__(self) -> str:
        return "Q"


QQ = RationalField()


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------

def square_and_multiply(x, k: int, mul):
    """x to the power k >= 1 with the product ``mul``, reading the bits of
    k from the top down: k.bit_length() - 1 squarings and popcount(k) - 1
    products by x, none of them by one.  The caller supplies x^0.
    """
    if k < 1:
        raise PreconditionError(f"square and multiply needs an exponent >= 1, not {k}")
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


class FieldElem:
    """An element of the field descriptor ``field``.

    The operator protocol shared by F_p, F_{p^r} and Q(zeta_d) lives here.
    An operand is coerced by :meth:`_coerce`; a subclass holds the value,
    and supplies ``_add``, ``_sub`` and ``_mul`` on two coerced elements of
    its own field, plus ``__neg__``, ``__bool__``, ``__eq__`` and
    ``__hash__``.  ``==`` never coerces: an int equals no
    element of F_p or F_{p^r} (only Q(zeta_d) compares with rationals), so
    test for zero with ``not x``, never ``x == 0``.
    """

    __slots__ = ("field",)

    # operand types taken through field.from_rational, besides int
    _scalars: tuple = ()

    def _coerce(self, other):
        """other as an element of self.field, or None for a foreign type.

        An element of the same class over another field raises
        RingMismatch; an element of another class gives None, so the
        operator returns NotImplemented and Python raises TypeError.
        """
        if other.__class__ is self.__class__:
            if other.field is not self.field:
                raise RingMismatch(f"elements of {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, self._scalars):
            return self.field.from_rational(other)
        return None

    # __add__, __sub__ and __mul__ test the common case, an element of the
    # very same field, inline: it saves the _coerce call on the hot path
    def __add__(self, other):
        if other.__class__ is self.__class__ and other.field is self.field:
            return self._add(other)
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is self.__class__ and other.field is self.field:
            return self._sub(other)
        o = self._coerce(other)
        return NotImplemented if o is None else self._sub(o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._sub(self)

    def __mul__(self, other):
        if other.__class__ is self.__class__ and other.field is self.field:
            return self._mul(other)
        o = self._coerce(other)
        return NotImplemented if o is None else self._mul(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * self.field.inv(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.field.inv(self)

    def __pow__(self, k: int):
        if k < 0:
            return self.field.inv(self) ** (-k)
        return square_and_multiply(self, k, operator.mul) if k else self.field.one

    def __repr__(self) -> str:
        return self.field.format_elem(self)


# ---------------------------------------------------------------------------
# Prime fields
# ---------------------------------------------------------------------------

class PrimeFieldElem(FieldElem):
    """Residue in F_p, an int in [0, p)."""

    __slots__ = ("residue",)

    def __init__(self, residue: int, field: "PrimeField"):
        self.residue = residue % field.p
        self.field = field

    def _add(self, o):
        return PrimeFieldElem(self.residue + o.residue, self.field)

    def _sub(self, o):
        return PrimeFieldElem(self.residue - o.residue, self.field)

    def _mul(self, o):
        return PrimeFieldElem(self.residue * o.residue, self.field)

    def __neg__(self):
        return PrimeFieldElem(-self.residue, self.field)

    def __pow__(self, k: int):
        if k < 0:
            return self.field.inv(self) ** (-k)
        return PrimeFieldElem(pow(self.residue, k, self.field.p), self.field)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is PrimeFieldElem
            and other.residue == self.residue
            and other.field is self.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.residue))


class PrimeField(metaclass=_Canonical):
    """Descriptor for F_p, p prime (checked at construction)."""

    is_finite = True
    _kernel = None  # see kernel()

    def __init__(self, p: int):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self._list_form = (p, 0, 1)  # see "F[X] on coefficient lists"
        self.zero = PrimeFieldElem(0, self)
        self.one = PrimeFieldElem(1, self)
        self._roots: dict = {}  # see root_table()

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    def from_int(self, k: int) -> PrimeFieldElem:
        return PrimeFieldElem(k, self)

    def from_rational(self, q: Fraction) -> PrimeFieldElem:
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise NotInvertible(f"denominator {q.denominator} vanishes in {self}")
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def residue_of(self, x) -> int:
        """The int residue of x: an element of this field, or an int."""
        if x.__class__ is PrimeFieldElem and x.field is self:
            return x.residue
        if isinstance(x, int):
            return x % self.p
        raise RingMismatch(f"{x!r} is not an element of {self}")

    def inv(self, x: PrimeFieldElem) -> PrimeFieldElem:
        if not x:
            raise NotInvertible(f"division by zero in {self}")
        return PrimeFieldElem(pow(x.residue, -1, self.p), self)

    def iter_elements(self) -> Iterator[PrimeFieldElem]:
        for r in range(self.p):
            yield PrimeFieldElem(r, self)

    def order_key(self, x: PrimeFieldElem) -> int:
        return x.residue

    def int_coords(self, x: PrimeFieldElem) -> list:
        """x as a list of ints, inverted by from_int_coords: [residue]."""
        return [x.residue]

    def from_int_coords(self, ints) -> PrimeFieldElem:
        """The element with these int coordinates, any ints, read mod p."""
        return PrimeFieldElem(ints[0], self)

    def primitive_nth_root(self, n: int) -> PrimeFieldElem:
        return _finite_field_root_of_unity(self, n)

    def format_elem(self, x: PrimeFieldElem) -> str:
        return str(x.residue)

    def __repr__(self) -> str:
        return f"F{self.p}"


# ---------------------------------------------------------------------------
# F[X] on coefficient lists
# ---------------------------------------------------------------------------
# A polynomial over a field F is a list of coefficients in F's list form
# (int residues over F_p, else F's elements), constant term first; every
# descriptor keeps ``_list_form`` = (p, zero, one) of it, p = 0 where the
# list form is the elements.  Inputs may hold trailing zeros and, over F_p,
# any ints (read mod p), but a divisor or modulus ends in a nonzero
# coefficient; every result is reduced, one ``% p`` per output coefficient
# over F_p, and holds no trailing zero, so the zero polynomial is [].

def _list_digits(field):
    """field's elements in list form, in canonical order: range(p) over
    F_p, so any p will do, else the list of ``iter_elements``."""
    if isinstance(field, PrimeField):
        return range(field.p)
    return list(field.iter_elements())


def _normalized(a: list, p: int) -> list:
    """a reduced mod p (p = 0: as it is), its trailing zeros dropped."""
    if p:
        a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _scaled(a, c, p: int) -> list:
    """Each coefficient of a times c, reduced mod p (p = 0: as it is)."""
    return [x * c % p for x in a] if p else [x * c for x in a]


def list_mul(a, b, field) -> list:
    """The product of a and b."""
    if not a or not b:
        return []
    p, zero, _ = field._list_form
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _normalized(out, p)


def list_divmod(a, b, field) -> tuple[list, list]:
    """(quotient, remainder) of a by b; ZeroDivisionError for b = []."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    p, zero, _ = field._list_form
    d = len(b) - 1
    rem = list(a)
    if len(rem) <= d:
        return [], _normalized(rem, p)
    inv_lead = pow(b[-1], -1, p) if p else field.inv(b[-1])
    low = b[:d]
    quo = [zero] * (len(rem) - d)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + d] * inv_lead % p if p else rem[k + d] * inv_lead
        if c:
            quo[k] = c
            rem[k:k + d] = [x - c * y for x, y in zip(rem[k:k + d], low)]
    while quo and not quo[-1]:  # a ended in zeros
        quo.pop()
    return quo, _normalized(rem[:d], p)


def list_powmod(a, e: int, f, field) -> list:
    """a^e modulo f, for e >= 1, by square and multiply."""
    return square_and_multiply(
        list_divmod(a, f, field)[1], e,
        lambda x, y: list_divmod(list_mul(x, y, field), f, field)[1],
    )


def list_ext_gcd(f, h, field) -> tuple[list, list, list]:
    """(g, t, q): g = gcd(f, h) monic and t * h = g + q * f, for f nonzero,
    with deg t < deg(f/g), and t = 0 when f/g is a constant.

    Extended euclid tracking the cofactor of h only: t0 * h = r0 and
    t1 * h = r1 modulo f throughout; a nonzero constant r1 ends it early,
    with g = 1.  The identity is rechecked by dividing t * h - g by f: q is
    the quotient, and a remainder raises VerificationError.
    """
    p, zero, one = field._list_form
    r0, r1 = list(f), list_divmod(h, f, field)[1]
    t0, t1 = [], [one]
    while len(r1) > 1:
        q, rem = list_divmod(r0, r1, field)
        # t0 - q * t1
        t = t0 + [zero] * (len(q) + len(t1) - 1 - len(t0))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(t1, i):
                    t[j] -= x * y
        r0, r1, t0, t1 = r1, rem, t1, _normalized(t, p)
    if r1:  # a nonzero constant: the last remainder
        r0, t0 = r1, t1
    c = pow(r0[-1], -1, p) if p else field.inv(r0[-1])
    g, t = _scaled(r0, c, p), _scaled(t0, c, p)
    diff = list_mul(t, h, field)
    diff += [zero] * (len(g) - len(diff))
    for i, x in enumerate(g):
        diff[i] -= x
    q, rem = list_divmod(diff, f, field)
    if rem:
        raise VerificationError("Bezout identity recheck failed")
    return g, t, q


def inv_mod(a, m, field) -> list:
    """The inverse of a modulo m over field, in list form: a (not divisible
    by m) and m, monic irreducible of degree r; the result has exactly r
    coefficients."""
    g, t, _ = list_ext_gcd(m, a, field)
    if len(g) != 1:
        raise VerificationError("modulus not coprime to nonzero residue")
    return t + [field._list_form[1]] * (len(m) - 1 - len(t))


def list_is_irreducible(f, field) -> bool:
    """Ben-Or's test over a finite field of order q, for f of degree >= 1:
    gcd(f, X^(q^i) - X) = 1 for every i up to deg(f)/2.  A reducible f has
    an irreducible factor of degree i <= deg(f)/2, and every such factor
    divides X^(q^i) - X."""
    _, zero, one = field._list_form
    q, h = field.order, [zero, one]
    for _ in range((len(f) - 1) // 2):
        h = list_powmod(h, q, f, field)
        d = h + [zero] * (2 - len(h))
        d[1] -= one  # X^(q^i) - X
        if len(list_ext_gcd(f, d, field)[0]) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[k] is the degree-k coefficient.

    Normalized so the leading coefficient is nonzero (the zero polynomial
    has an empty coefficient tuple and degree -1).  Products, division,
    gcds and the irreducibility test run on the coefficient lists above.
    """

    coeffs: tuple
    ring: object

    @staticmethod
    def make(coeffs, ring) -> "UniPoly":
        """The polynomial with these coefficients, constant term first,
        read as elements of ring by :func:`field_entries`: ints, and over Q
        and Q(zeta_d) Fractions, are coerced; what it refuses raises
        RingMismatch."""
        return _trimmed(field_entries(coeffs, ring), ring)

    @staticmethod
    def zero(ring) -> "UniPoly":
        return UniPoly((), ring)

    @staticmethod
    def constant(c, ring) -> "UniPoly":
        return UniPoly.make((c,), ring)

    @staticmethod
    def gen(ring) -> "UniPoly":
        """The polynomial X."""
        return UniPoly((ring.zero, ring.one), ring)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == self.ring.one

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    def _check_ring(self, other: "UniPoly"):
        if other.ring is not self.ring:
            raise RingMismatch(f"polynomials over {self.ring} and {other.ring}")

    def _list(self) -> list:
        """The coefficients in the ring's list form."""
        if isinstance(self.ring, PrimeField):
            return [c.residue for c in self.coeffs]
        return list(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _trimmed(out, self.ring)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs), self.ring)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        self._check_ring(other)
        return _from_list(list_mul(self._list(), other._list(), self.ring), self.ring)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "UniPoly":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return UniPoly.make([c * a for a in self.coeffs], self.ring)

    def __divmod__(self, other: "UniPoly"):
        self._check_ring(other)
        q, r = list_divmod(self._list(), other._list(), self.ring)
        return _from_list(q, self.ring), _from_list(r, self.ring)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise PreconditionError("negative polynomial power")
        if not k:
            return UniPoly.constant(self.ring.one, self.ring)
        return square_and_multiply(self, k, operator.mul)

    # -- transformations ----------------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(self.ring.inv(self.leading))

    def evaluate(self, x):
        """Horner evaluation at a ring element."""
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_power(self, k: int) -> "UniPoly":
        """The polynomial p(X^k)."""
        if k < 1:
            raise PreconditionError("substitute_power needs k >= 1")
        if self.is_zero:
            return self
        out = [self.ring.zero] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return UniPoly(tuple(out), self.ring)

    def map_coefficients(self, fn, new_ring) -> "UniPoly":
        return UniPoly.make([fn(c) for c in self.coeffs], new_ring)

    def __str__(self) -> str:
        return format_unipoly(self)

    def __repr__(self) -> str:
        return f"UniPoly({format_unipoly(self)!r} over {self.ring!r})"


def _trimmed(cs: list, ring) -> UniPoly:
    """The polynomial with the coefficients cs, elements of ring, trailing
    zeros dropped: the trusted path of results already in the ring."""
    while cs and not cs[-1]:
        cs.pop()
    return UniPoly(tuple(cs), ring)


def _from_list(coeffs, field) -> UniPoly:
    """The polynomial with these coefficients in field's list form."""
    if isinstance(field, PrimeField):
        coeffs = [PrimeFieldElem(c, field) for c in coeffs]
    return _trimmed(list(coeffs), field)


def x_pow_minus_one(n: int, ring) -> UniPoly:
    """X^n - 1 over the given ring, n >= 1."""
    if n < 1:
        raise PreconditionError(f"X^n - 1 needs n >= 1, not {n}")
    return UniPoly((-ring.one,) + (ring.zero,) * (n - 1) + (ring.one,), ring)


def poly_powmod(base: UniPoly, exp: int, mod: UniPoly) -> UniPoly:
    """base**exp reduced modulo mod, by square and multiply."""
    base._check_ring(mod)
    if not exp:
        return UniPoly.constant(base.ring.one, base.ring)
    return _from_list(list_powmod(base._list(), exp, mod._list(), base.ring), base.ring)


def ext_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended gcd over a field: returns (g, u, v) with u*a + v*b = g monic.

    The cofactors are normalized so that deg u < deg(b/g) whenever b/g is
    non-constant; when g is an associate of b the result is u = 0, v = g/b.
    One :func:`list_ext_gcd`, its identity rechecked.
    """
    a._check_ring(b)
    if a.is_zero and b.is_zero:
        raise PreconditionError("gcd(0, 0) is undefined")
    field = a.ring
    f, h = (a, b) if b.is_zero else (b, a)
    g, t, q = list_ext_gcd(f._list(), h._list(), field)
    # t * h + s * f = g
    g, t, s = _from_list(g, field), _from_list(t, field), -_from_list(q, field)
    return (g, s, t) if b.is_zero else (g, t, s)


def is_irreducible(f: UniPoly) -> bool:
    """Irreducibility over a finite field, by Ben-Or's test
    (:func:`list_is_irreducible`)."""
    field = f.ring
    if not getattr(field, "is_finite", False):
        raise PreconditionError("irreducibility test requires finite-field coefficients")
    if f.degree < 1:
        raise PreconditionError("irreducibility is defined for degree >= 1")
    return list_is_irreducible(f._list(), field)


@lru_cache(maxsize=None)
def find_irreducible(field_or_p, r: int) -> UniPoly:
    """Smallest monic irreducible polynomial of degree r over F_q.

    Candidates are scanned in lexicographic order of the coefficient
    sequence read from the highest degree down (constant term varies
    fastest), so the result is deterministic.  Memoized: the search is
    the cost of building F_{p^r} for a large r.  Each candidate is a list
    form, made from a counter whose base-q digits c_0, c_1, ... index
    :func:`_list_digits`; only the winner becomes a UniPoly.
    """
    field = PrimeField(field_or_p) if isinstance(field_or_p, int) else field_or_p
    if r < 1:
        raise PreconditionError("degree must be >= 1")
    digits, one = _list_digits(field), field._list_form[2]
    q = len(digits)
    for k in range(q ** r):
        coeffs = []
        for _ in range(r):
            k, c = divmod(k, q)
            coeffs.append(digits[c])
        coeffs.append(one)
        if list_is_irreducible(coeffs, field):
            return _from_list(coeffs, field)
    raise VerificationError(f"no monic irreducible polynomial of degree {r} over {field}")


# ---------------------------------------------------------------------------
# Residue products in R[X]/(m) for monic m
# ---------------------------------------------------------------------------

def reduction_table(modulus_coeffs, zero, rows=None) -> list[tuple]:
    """Rows X^k mod m for k = r .. 2r-2, m monic of degree r given by its
    coefficients (constant term first); or for k = r .. r + rows - 1.

    Works over any commutative ring whose elements support ``+ - *``:
    plain ints for an integral m, or field elements.
    """
    r = len(modulus_coeffs) - 1
    row = [zero - c for c in modulus_coeffs[:r]]  # X^r = -(m - X^r)
    first = tuple(row)
    table = []
    for _ in range(r - 1 if rows is None else rows):
        table.append(tuple(row))
        # X * row, with the X^r term folded back in through the first row
        lead = row[-1]
        row = [zero] + row[:-1]
        if lead:
            row = [c + lead * f for c, f in zip(row, first)]
    return table


def mul_reduced(a, b, table, zero) -> list:
    """Coefficients of a*b mod m, with table = reduction_table(m, zero).

    a and b have at most r = len(table) + 1 coefficients (constant term
    first); the result has exactly r.  The caller wraps or normalizes the
    output coefficients (mod p, over a denominator, or as they are).
    """
    r = len(table) + 1
    prod = [zero] * max(len(a) + len(b) - 1, r)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return fold_reduced(prod, table, r)


def fold_reduced(coeffs: list, table, r: int) -> list:
    """The first r coefficients of coeffs (constant term first, at least
    r of them) with each higher c_k folded in as c_k * (X^k mod m), the
    row of table for X^k; table holds a row for every such k."""
    out = coeffs[:r]
    for row, c in zip(table, coeffs[r:]):
        if c:
            for i, t in enumerate(row):
                if t:
                    out[i] += c * t
    return out




# ---------------------------------------------------------------------------
# Extension fields
# ---------------------------------------------------------------------------

class ExtFieldElem(FieldElem):
    """Element of F[Y]/(m(Y)).

    ``coeffs`` holds its degree coefficients, constant term first: ints in
    [0, p) over a prime base F_p, base-field elements over an extension
    (towers).  ``residue``, the tuple of base-field elements, is the
    coefficients themselves over an extension and a view built on demand
    over F_p.  ``ExtFieldElem(residue, field)`` takes that tuple; the
    operators make their results with :func:`_ext_elem`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, residue, field):
        base = field._prime_base
        if base is not None:
            residue = [base.residue_of(c) for c in residue]
        self.coeffs = tuple(residue)
        self.field = field

    @property
    def residue(self) -> tuple:
        base = self.field._prime_base
        if base is None:
            return self.coeffs
        return tuple([PrimeFieldElem(c, base) for c in self.coeffs])

    def _add(self, o):
        field = self.field
        base = field._prime_base
        if base is not None:
            p = base.p
            return _ext_elem(
                tuple([(a + b) % p for a, b in zip(self.coeffs, o.coeffs)]), field
            )
        return _ext_elem(tuple([a + b for a, b in zip(self.coeffs, o.coeffs)]), field)

    def _sub(self, o):
        field = self.field
        base = field._prime_base
        if base is not None:
            p = base.p
            return _ext_elem(
                tuple([(a - b) % p for a, b in zip(self.coeffs, o.coeffs)]), field
            )
        return _ext_elem(tuple([a - b for a, b in zip(self.coeffs, o.coeffs)]), field)

    def _mul(self, o):
        field = self.field
        base = field._prime_base
        if base is not None:
            p = base.p
            out = mul_reduced(self.coeffs, o.coeffs, field._int_red, 0)
            return _ext_elem(tuple([c % p for c in out]), field)
        out = mul_reduced(self.coeffs, o.coeffs, field._red, field.base.zero)
        return _ext_elem(tuple(out), field)

    def __neg__(self):
        field = self.field
        base = field._prime_base
        if base is not None:
            p = base.p
            return _ext_elem(tuple([-a % p for a in self.coeffs]), field)
        return _ext_elem(tuple([-a for a in self.coeffs]), field)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is self.__class__
            and other.coeffs == self.coeffs
            and other.field is self.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    @property
    def poly(self) -> UniPoly:
        """The residue as a polynomial over the base field."""
        return _trimmed(list(self.residue), self.field.base)

    @property
    def is_constant(self) -> bool:
        return not any(self.coeffs[1:])

    @property
    def constant(self):
        """The base-field value of a constant element."""
        if not self.is_constant:
            raise PreconditionError("element does not lie in the base field")
        base = self.field._prime_base
        c = self.coeffs[0]
        return c if base is None else PrimeFieldElem(c, base)


_new_object = object.__new__


def _ext_elem(coeffs: tuple, field) -> ExtFieldElem:
    """The element of field with these coefficients, already in the
    field's representation (ints in [0, p) over a prime base)."""
    x = _new_object(ExtFieldElem)
    x.coeffs = coeffs
    x.field = field
    return x


class ExtField(metaclass=_Canonical):
    """Descriptor for an extension F[Y]/(m(Y)), m monic irreducible.

    Constructed directly, the base is a finite field: a prime field or
    itself an extension, giving towers; the common case is a prime base.
    Q(zeta_d) = Q[X]/(Phi_d) is the subclass
    :class:`groupfft.cyclotomic.CyclotomicField`.
    """

    is_finite = True
    var = "Y"  # the generator's name in printed elements
    _prime_base = None  # the base field when it is F_p: int coefficients
    _kernel = None  # see kernel()

    def __init__(self, base, modulus: UniPoly):
        if modulus.ring is not base:
            raise RingMismatch("modulus must have coefficients in the base field")
        if not base.is_finite:
            raise PreconditionError(
                f"ExtField needs a finite base field, not {base}; "
                "Q(zeta_d) is cyclotomic_field(d)"
            )
        if not modulus.is_monic or modulus.degree < 1:
            raise PreconditionError("modulus must be monic of degree >= 1")
        if modulus.degree > 1 and not is_irreducible(modulus):
            raise PreconditionError(f"modulus {modulus} is reducible over {base}")
        # the representation, the base's list form, is fixed before _setup
        # builds zero, one and gen
        if isinstance(base, PrimeField):
            self._prime_base = base
        self._zero_tail = (base._list_form[1],) * (modulus.degree - 1)
        self._setup(base, modulus)
        self.order = base.order ** self.degree
        self._list_modulus = tuple(modulus._list())  # for inv
        if self._prime_base is not None:
            # the reduction table and the modulus as int residues
            self._int_red = [tuple(c.residue for c in row) for row in self._red]
            self._int_modulus = self._list_modulus

    def _setup(self, base, modulus: UniPoly):
        """The quotient ring base[Y]/(modulus), shared with Q(zeta_d)."""
        self.base = base
        self.modulus = modulus
        self.degree = modulus.degree
        self._roots: dict = {}  # see root_table()
        # X^k mod modulus for k = r .. 2r-2, over base elements
        self._red = reduction_table(modulus.coeffs, base.zero)
        self.zero = self.from_base(base.zero)
        self.one = self.from_base(base.one)
        self._list_form = (0, self.zero, self.one)
        # the class of Y: a root of the modulus
        self.gen = self.from_poly(UniPoly.gen(base))

    @property
    def characteristic(self) -> int:
        return self.base.characteristic

    def from_int(self, k: int) -> ExtFieldElem:
        return self.from_base(self.base.from_int(k))

    def from_base(self, c) -> ExtFieldElem:
        base = self._prime_base
        if base is not None:
            c = base.residue_of(c)
        return _ext_elem((c,) + self._zero_tail, self)

    def from_rational(self, q: Fraction) -> ExtFieldElem:
        return self.from_base(self.base.from_rational(q))

    def from_poly(self, p: UniPoly) -> ExtFieldElem:
        """The class of a polynomial over the base field."""
        if p.degree >= self.degree:
            p = p % self.modulus
        return self._from_coeffs(
            p.coeffs + (self.base.zero,) * (self.degree - len(p.coeffs))
        )

    def _from_coeffs(self, coeffs: tuple) -> ExtFieldElem:
        """The element with these degree base-field coefficients, constant
        term first; Q(zeta_d) overrides it with its own representation."""
        return ExtFieldElem(coeffs, self)

    def inv(self, x: ExtFieldElem) -> ExtFieldElem:
        if not x:
            raise NotInvertible(f"division by zero in {self}")
        return _ext_elem(tuple(inv_mod(x.coeffs, self._list_modulus, self.base)), self)

    def iter_elements(self) -> Iterator[ExtFieldElem]:
        for tail in itertools.product(_list_digits(self.base), repeat=self.degree):
            yield _ext_elem(tuple(reversed(tail)), self)

    def order_key(self, x: ExtFieldElem):
        if self._prime_base is not None:
            return tuple(reversed(x.coeffs))
        return tuple(self.base.order_key(c) for c in reversed(x.coeffs))

    def int_coords(self, x: ExtFieldElem) -> list:
        """x as a flat list of ints, inverted by from_int_coords: its
        coefficients over a prime base; over a tower, the coordinates of
        each coefficient in turn."""
        if self._prime_base is not None:
            return list(x.coeffs)
        base = self.base
        return [k for c in x.coeffs for k in base.int_coords(c)]

    def from_int_coords(self, ints) -> ExtFieldElem:
        """The element with these int coordinates, any ints, read mod p."""
        base = self._prime_base
        if base is not None:
            p = base.p
            return _ext_elem(tuple([k % p for k in ints]), self)
        base = self.base
        step = len(ints) // self.degree
        return _ext_elem(
            tuple([base.from_int_coords(ints[i:i + step])
                   for i in range(0, len(ints), step)]),
            self,
        )

    def _numerators(self, values) -> tuple[list, int]:
        """(vectors, den): each of values, elements of this field over a
        prime base or ints, as its degree integer coordinates over the
        common denominator den; inverted by _from_numerators.  Any other
        value raises RingMismatch."""
        p, tail = self._prime_base.p, self._zero_tail
        vectors = []
        for x in values:
            if x.__class__ is ExtFieldElem and x.field is self:
                vectors.append(x.coeffs)
            elif isinstance(x, int):
                vectors.append((x % p,) + tail)
            else:
                raise RingMismatch(f"{x!r} is not an element of {self}")
        return vectors, 1

    def _from_numerators(self, ints: list, den: int) -> ExtFieldElem:
        """The element with these integer coordinates over den, any ints
        and den prime to p."""
        p = self._prime_base.p
        if den != 1:
            inv = pow(den, -1, p)
            return _ext_elem(tuple([c * inv % p for c in ints]), self)
        return _ext_elem(tuple([c % p for c in ints]), self)

    def primitive_nth_root(self, n: int) -> ExtFieldElem:
        return _finite_field_root_of_unity(self, n)

    def format_elem(self, x: ExtFieldElem) -> str:
        return format_unipoly(x.poly, var=self.var)

    def __repr__(self) -> str:
        p = self.characteristic
        if isinstance(self.base, PrimeField):
            return f"F{p}^{self.degree}"
        return f"({self.base!r})^{self.degree}"


# ---------------------------------------------------------------------------
# Zech logarithms: bulk arithmetic in a small F_p[Y]/(m)
# ---------------------------------------------------------------------------

# Largest order q whose tables log_tables builds: the range that was
# measured.  The benchmark's determinants split in F_4 .. F_343, where
# the tables win (groupdet's point checks); at q = 512 (r = 9 over F_2)
# the build takes about 5 ms on a 2-core x86-64 VM, the cost of some 700
# element products, and the tables hold about 76 KB.  Both grow linearly
# in q, so a one-shot request in a larger field (a single rank in
# F_{2^12}, say) would pay more for the build than it saves; larger
# fields keep the element path until a workload shows the tables win.
LOG_ORDER_CAP = 1 << 9


class LogTables:
    """Discrete-logarithm tables of F_q = F_p[Y]/(m), on plain ints.

    With g a generator of F_q^* and n = q - 1, a nonzero g^k is held as a
    log: any int l >= 1 with l = k (mod n); 1 is logged as n, never 0.
    Zero is held as 0, so a held value is nonzero exactly when it is
    truthy.  A product is one addition of logs, zero when either is 0;
    a sum g^a + g^b is a + Z[(b - a) mod n] through the Zech table
    Z[d] = log(1 + g^d), 0 where 1 + g^d = 0 (Huber, IEEE Trans. IT 1990).
    Logs are reduced mod n only where a table is read: a sum adds at most
    n to its first operand, so they stay small ints.

    ``log`` is indexed by an element's int code sum_k c_k p^k, ``exp[k]``
    is the coefficient tuple of g^k, and ``neg_one`` is the log of -1.
    The tables hold no element object: :meth:`elem` wraps a log into the
    field's descriptor.
    """

    __slots__ = ("p", "n", "log", "exp", "zech", "neg_one")

    def __init__(self, p: int, modulus: tuple):
        r = len(modulus) - 1
        q = p ** r
        table = reduction_table(modulus, 0)
        one = (1,) + (0,) * (r - 1)
        weights = [p ** k for k in range(r)]
        n = q - 1

        def mul(x, y):
            return tuple([c % p for c in mul_reduced(x, y, table, 0)])

        # the first generator in code order: g generates F_q^* unless
        # g^(n / l) = 1 for a prime l dividing n; only it is walked
        cofactors = [n // ell for ell in prime_factors(n)]
        for cand in range(2, q):
            g = tuple((cand // w) % p for w in weights)
            if all(square_and_multiply(g, k, mul) != one for k in cofactors):
                break
        exp = [one]
        for _ in range(n - 1):
            exp.append(mul(exp[-1], g))
        codes = [sum([c * w for c, w in zip(x, weights)]) for x in exp]
        log = [0] * q
        for k, code in enumerate(codes):
            log[code] = k or n
        # 1 + g^d changes only the constant coefficient
        self.zech = [log[code - x[0] + (x[0] + 1) % p] for code, x in zip(codes, exp)]
        self.p, self.n, self.log, self.exp = p, n, log, exp
        self.neg_one = log[p - 1]

    def log_of(self, x, field) -> int:
        """The log of x, an element of field or an int; TypeError for any
        other value, as field arithmetic gives."""
        y = x
        if x.__class__ is not ExtFieldElem or x.field is not field:
            y = field.zero._coerce(x)
            if y is None:
                raise TypeError(f"{x!r} is not an element of {field}")
        p, code = self.p, 0
        for c in reversed(y.coeffs):
            code = code * p + c
        return self.log[code]

    def elem(self, l: int, field) -> ExtFieldElem:
        """The element of field whose log is l (0 for zero)."""
        return _ext_elem(self.exp[l % self.n], field) if l else field.zero


def kronecker_digits(k: int, width: int, count: int) -> list:
    """The count balanced base-2^width digits of k, lowest first, each in
    [-2^(width-1), 2^(width-1)): the coefficients of a polynomial in T
    packed as its value at T = 2^width.  VerificationError if k does not
    fit in count digits, the sign that a coefficient overflowed its
    width."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    for _ in range(count):
        d = k & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        k = (k - d) >> width
    if k:
        raise VerificationError(f"a packed coefficient overflowed its {width}-bit digits")
    return out


def kronecker_width(bound: int) -> int:
    """The digit width W of packed polynomials whose coefficients are at
    most bound in absolute value: the least W with bound < 2^(W-1), so
    that no balanced digit of :func:`kronecker_digits` carries."""
    return bound.bit_length() + 1


def kronecker_pack(coeffs, width: int) -> int:
    """The polynomial with these int coefficients (constant term first)
    packed as its value at T = 2^width; :func:`kronecker_digits` reads
    the coefficients back."""
    k = 0
    for c in reversed(coeffs):
        k = (k << width) + c
    return k


def cyclic_product(x, y, divisors) -> list:
    """The product of the int vectors x and y in Z[C_{d_1} x ... x C_{d_k}]
    (lexicographic order, d_i the divisors): z_rho = sum x_sigma y_tau over
    sigma tau = rho.  Kronecker substitution (Schoenhage 1982): axis i
    takes 2 d_i - 1 slots of W bits, so no exponent wraps, and a slot, a
    sum of products of one x and one y, each y at most once, is at most
    min(|x|_1 |y|_inf, |x|_inf |y|_1) < 2^(W-1).  One product of the
    packed vectors; its slots, biased by 2^(W-1) so that none borrows, are
    read off one binary string and folded onto their indices mod d_i.
    VerificationError if the biased product leaves its slots: its top
    coefficient overflowed."""
    ax, ay = list(map(abs, x)), list(map(abs, y))
    width = kronecker_width(max(1, min(sum(ax) * max(ay), max(ax) * sum(ay))))
    half, slot = 1 << (width - 1), f"0{width}b"
    places, slots = [0], 1
    for d in divisors:
        places = [s * (2 * d - 1) + j for s in places for j in range(d)]
        slots *= 2 * d - 1
    zero = format(half, slot)
    bias = int(zero * slots, 2)
    packed = []
    for values in (x, y):
        digits = [zero] * slots
        for s, c in zip(places, values):
            digits[slots - 1 - s] = format(c + half, slot)
        packed.append(int("".join(digits), 2) - bias)
    biased = packed[0] * packed[1] + bias
    if biased >> (width * slots):
        raise VerificationError(f"a cyclic product overflowed its {width}-bit slots")
    bits = format(biased, f"0{width * slots}b")
    out = [int(bits[i:i + width], 2) - half for i in range(width * (slots - 1), -1, -width)]
    for d in divisors:  # fold axis i, the axes after it still 2 d_j - 1 wide
        slots //= 2 * d - 1
        low, span = d * slots, (2 * d - 1) * slots
        folded = []
        for s in range(0, len(out), span):
            block = out[s:s + low]
            block[:span - low] = map(operator.add, block, out[s + low:s + span])
            folded += block
        out = folded
    return out


def zech_sum(a: int, b: int, zech: list, n: int) -> int:
    """The log of g^a + g^b, for logs a and b of :class:`LogTables`
    (0 for zero) with ``zech`` and ``n`` from the same tables."""
    if not a:
        return b
    if not b:
        return a
    z = zech[(b - a) % n]
    return a + z if z else 0


def log_tables(field):
    """The :class:`LogTables` of field when it is F_p[Y]/(m) of order at
    most LOG_ORDER_CAP, else None.  Built on first use; they live on the
    field's kernel."""
    return getattr(kernel(field), "tables", None)


# ---------------------------------------------------------------------------
# Kernels: one representation per field for elimination and evaluation
# ---------------------------------------------------------------------------

def kernel(field):
    """The kernel of field (see the module docstring), picked on first use
    and kept on the descriptor.

    A kernel holds the values of its field for bulk work:
    ``working_copy(rows)`` holds a matrix, one held value per entry,
    nonzero exactly when it is truthy, and ``group_copy(values, group)``
    the same working copy of the group matrix of values, entry (tau,
    sigma) = values[sigma - tau] for an abelian group (the rows of
    :func:`groupfft.transform.group_matrix`), from the n values each
    held once, never the n^2 entries.  Elimination runs on a working
    copy through three calls: ``pivot(m, start, col)``, the first row at
    or below start whose entry in column col is nonzero, or None;
    ``eliminate_below(m, top, col)``, which clears column col below the
    pivot in row top, the pivots taken in order; and
    ``determinant(m, negate)``, which reads the determinant, negated if
    negate, off a square working copy whose every column has been
    cleared, as an element of the field; ``read_row(m, i, start)`` reads
    row i back from column start on as elements of the field, before or
    during elimination (a column cleared below a pivot is not rewritten,
    so a caller reads only columns right of every pivot).  Only these
    four read a working copy under elimination, so a kernel may change how
    it holds the rows there (IntKernel packs them).  ``hold_terms(terms,
    packing)`` holds a polynomial's terms, packed monomial -> coefficient,
    as :meth:`groupfft.multipoly.Packing.sparse_terms` reads them, for
    ``evaluate(held, xs)``, their sum at the point xs, one value per
    variable, as an element of the field.  ``hold(groups)`` holds lists
    of values for sums of products that take one value from each list
    (a product of two polynomials, a determinant by rows): it returns the
    held lists and a context, for ``release(values, context)`` to read
    such sums back as elements, ``release(values, context, n)`` each
    divided by n.  A held zero is 0, which every held form adds as zero.
    ``dft(values, divisors, inverse)`` transforms a vector over
    C_{d_1} x ... x C_{d_k}, elements in and out, through
    :class:`ResidueDFT`, on held ints or else on the vector's
    :func:`field_entries`; ``convolve(a, b, divisors)`` multiplies two
    held vectors by :func:`cyclic_product`, and raises RingMismatch where
    they are not held as ints (towers, MultiPolys).
    """
    k = field._kernel
    if k is None:
        if isinstance(field, RationalField):
            k = RationalKernel(field)
        elif isinstance(field, PrimeField):
            k = IntKernel(field)
        elif field._prime_base is not None and field.order <= LOG_ORDER_CAP:
            k = LogKernel(field)
        else:
            k = ElementKernel(field)
        field._kernel = k
    return k


class ElementKernel:
    """Values held as the field's own elements; the other kernels replace
    only what they hold differently.  For products and transforms,
    F_p[Y]/(m) and Q(zeta_d) hold Kronecker-packed ints (see the module
    docstring), with ``table`` their integral reduction table, grown as
    release needs it; towers, with no table, hold their elements, and
    ``release(values, None, n)`` divides elements by n on every kernel.
    ``dfts`` keeps, per group exponent, what the transforms reuse."""

    __slots__ = ("field", "table", "dfts")

    def __init__(self, field):
        self.field = field
        self.table = getattr(field, "_int_red", None)
        self.dfts: dict = {}

    def hold(self, groups):
        """The held groups and the context (den, W, digits): den the
        product of the groups' denominators, W the digit width and digits
        the number of T-coefficients a sum of products can have.

        W comes from an l1 bound: a coefficient of a sum of products, one
        factor per group, is at most the product of the groups' l1 norms
        (each at least 1), since |AB|_1 <= |A|_1 |B|_1; with it below
        2^(W-1) no balanced digit carries.
        """
        field = self.field
        if self.table is None:  # elements
            return self.working_copy(groups), None
        lifted = [field._numerators(values) for values in groups]
        bound = den = 1
        for vectors, d in lifted:
            bound *= max(1, sum([abs(c) for v in vectors for c in v]))
            den *= d
        width = kronecker_width(bound)
        held = [[kronecker_pack(v, width) for v in vectors] for vectors, _ in lifted]
        return held, (den, width, len(groups) * (field.degree - 1) + 1)

    def release(self, values, context, n=1) -> list:
        """The held sums of products values as elements of the field,
        each divided by n."""
        if context is None:  # elements
            if n == 1:
                return values
            inv_n = self.field.inv(self.field.from_int(n))
            return [inv_n * v for v in values]
        den, width, digits = context
        field, r = self.field, self.field.degree
        if len(self.table) < digits - r:
            self.table = reduction_table(field._int_modulus, 0, digits - r)
        table, make, den = self.table, field._from_numerators, den * n
        return [make(fold_reduced(kronecker_digits(v, width, digits), table, r), den)
                for v in values]

    def working_copy(self, rows) -> list[list]:
        return [list(row) for row in rows]

    def group_copy(self, values, group) -> list[list]:
        """working_copy of the group matrix of values: row tau gathered
        from the held values by the group's difference table."""
        return [[values[k] for k in row] for row in group.difference_table()]

    def pivot(self, m, start: int, col: int):
        return next((r for r in range(start, len(m)) if m[r][col]), None)

    def eliminate_below(self, m, top: int, col: int):
        """Subtract multiples of row top from every row below it so that
        their column col vanishes, m[top][col] being nonzero.  Only the
        columns right of col are written: col is never read again."""
        pivot_row = m[top]
        live = pivot_row[col + 1:]
        inv_p = self.field.inv(pivot_row[col])
        for row in m[top + 1:]:
            if row[col]:
                f = row[col] * inv_p
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], live)]

    def determinant(self, m, negate: bool):
        """The product of the pivots on the diagonal, negated if negate."""
        out = self.field.one
        for i, row in enumerate(m):
            out = out * row[i]
        return -out if negate else out

    def read_row(self, m, i: int, start: int = 0) -> list:
        return field_entries(m[i][start:], self.field)

    def hold_terms(self, terms: dict, packing):
        return packing.sparse_terms(terms, terms.values())

    def evaluate(self, held, xs):
        return _term_sum(held, xs, self.field.one, self.field.zero)

    def dft(self, values, divisors, inverse=False) -> list:
        """The transform of values over C_{d_1} x ... x C_{d_k}, d_i the
        divisors, in lexicographic order: sum_sigma zeta^t(sigma, chi)
        values_sigma for every chi, or with inverse (1/n) sum_chi
        zeta^-t(sigma, chi) values_chi for every sigma: held once as the
        kernel's ints where it can (:meth:`_held_ints`), run through the
        :class:`ResidueDFT` of the group exponent e and released once.
        Towers and MultiPolys (a vector that starts with one does not try
        the ints) run on their :func:`field_entries`, with the root table
        as twiddles, kept under ("entries", e)."""
        e, n = lcm(*divisors), len(values) if inverse else 1
        if not isinstance(values[0], multipoly.MultiPoly):
            try:
                x, context, dft = self._held_ints(values, e, divisors)
            except RingMismatch:
                pass
            else:
                return self.release(dft.run(x, divisors, inverse), context, n)
        field = self.field
        dft = self._kept_dft(("entries", e), None, lambda: root_table(e, field))
        return ElementKernel.release(
            self, dft.run(field_entries(values, field), divisors, inverse), None, n)

    def convolve(self, a, b, divisors) -> list:
        """The group-ring convolution of a and b over C_{d_1} x ... x C_{d_k}:
        both held once (:meth:`hold`), multiplied by :func:`cyclic_product`
        and released once.  RingMismatch where they are not held as ints:
        over a tower, or with a value :meth:`hold` refuses (a MultiPoly)."""
        (x, y), context = self.hold([a, b])
        if context is None:
            raise RingMismatch(f"{self.field} holds its elements")
        return self.release(cyclic_product(x, y, divisors), context)

    def _kept_dft(self, key, p, powers):
        """The :class:`ResidueDFT` kept in ``dfts`` under key, made on
        first use with p and the held root powers ``powers()``."""
        dft = self.dfts.get(key)
        if dft is None:
            dft = self.dfts[key] = ResidueDFT(p, powers())
        return dft

    def _held_ints(self, values, e, divisors):
        """(held, context, dft) for the transform of values over F_p[Y]/(m)
        and Q(zeta_d): Kronecker-packed numerators over their common
        denominator, the dft on the root powers packed at the same width
        W; RingMismatch for a tower and for a value that is not an element
        of the field, an int or (over Q(zeta_d)) a Fraction.  An output of
        L stages (:meth:`ResidueDFT.stages`) is sum_j (a product of L root
        powers) x_j: coefficients at most R^L sum_j |x_j|_1, R the largest
        l1 norm of a root power, degree in T at most (L + 1)(r - 1).
        ``dfts`` keeps per e the root numerators, R and the ResidueDFT of
        the widest W yet, which serves narrower calls as exactly."""
        field = self.field
        if self.table is None:
            raise RingMismatch(f"{field} holds its elements")
        vectors, den = field._numerators(values)
        kept = self.dfts.get(e)
        if kept is None:
            roots, _ = field._numerators(root_table(e, field))
            kept = self.dfts[e] = [roots, max([sum(map(abs, v)) for v in roots]), 0, None]
        roots, norm, width, dft = kept
        stages = ResidueDFT.stages(divisors)
        bound = norm ** stages * max(1, sum([abs(c) for v in vectors for c in v]))
        if kronecker_width(bound) > width:
            width = kronecker_width(bound)
            dft = ResidueDFT(None, [kronecker_pack(v, width) for v in roots])
            kept[2:] = width, dft
        held = [kronecker_pack(v, width) for v in vectors]
        return held, (den, width, (stages + 1) * (field.degree - 1) + 1), dft


def field_entries(values, field) -> list:
    """values as entries of a vector over field: an element of field, or a
    MultiPoly over it, as it is; an int, and over Q and Q(zeta_d) a
    Fraction, as a field element.  Any other value raises RingMismatch:
    an element of another field, a Fraction over a finite field, a
    MultiPoly over another ring, a float, a str."""
    out = []
    for x in values:
        if isinstance(x, FieldElem):
            if x.field is not field:
                raise RingMismatch(f"an element of {x.field} in a vector over {field}")
        elif isinstance(x, int):
            x = field.from_int(x)
        elif isinstance(x, Fraction):
            if field.is_finite:
                raise RingMismatch(f"the rational {x} in a vector over {field}")
            x = field.from_rational(x)
        elif isinstance(x, multipoly.MultiPoly):
            if x.ring is not field:
                raise RingMismatch(f"a polynomial over {x.ring} in a vector over {field}")
        else:
            raise RingMismatch(f"{x!r} is not an entry of a vector over {field}")
        out.append(x)
    return out


class IntKernel(ElementKernel):
    """F_p: products, transforms and convolutions on int residues, each
    result reduced mod p once (a transform once per level,
    :class:`ResidueDFT`); elimination on packed rows; evaluation on
    int residues, the sum reduced mod p once.

    Elimination delays its reductions (Dumas, Fousse & Salvy, J. Symb.
    Comput. 2011).  The first pivot search packs each row of residues
    into one int, entry j in the W-bit slot j (a ``group_copy`` is
    packed when it is made), and an entry is read as
    ((row >> W j) & mask) % p.  A row below the pivot a takes one
    multiply-add per pivot, row += f * tail: f = -c / a mod p, c the
    row's entry in the pivot column, and tail the pivot row reduced slot
    by slot, its slots up to the pivot column cleared.  Only a pivot row
    is reduced, O(n) per pivot.  Every value stays non-negative, and a
    row takes at most K = min(rows, cols) updates, so a slot stays at
    most (p - 1) + K (p - 1)^2, which fits in W bits, W its bit length:
    no slot carries into the next.
    """

    __slots__ = ()

    def hold(self, groups):
        return self.working_copy(groups), self.field.p

    def _held_ints(self, values, e, divisors):
        field = self.field
        return self.working_copy([values])[0], None, self._kept_dft(
            e, field.p, lambda: [x.residue for x in root_table(e, field)])

    def release(self, values, context, n=1) -> list:
        field, inv_n = self.field, pow(n, -1, self.field.p)
        return [PrimeFieldElem(v * inv_n, field) for v in values]

    def working_copy(self, rows) -> _PackedRows:
        field = self.field
        m = _PackedRows([
            [x.residue if x.__class__ is PrimeFieldElem and x.field is field
             else field.residue_of(x) for x in row]
            for row in rows
        ])
        m.width = None
        return m

    def group_copy(self, values, group) -> _PackedRows:
        """working_copy of the group matrix of values, packed as the first
        pivot search packs it: the n residues packed once into row 0, at
        the width of K = n updates, and row tau its translate by tau."""
        m = self.working_copy([values])
        self._pack(m, group.order)
        m[:] = group.translates(m[0], m.width)
        return m

    def _pack(self, m, updates: int):
        """Pack each row of residues of m into one int, entry j in the
        W-bit slot j, W wide enough for that many updates of a row."""
        p = self.field.p
        m.cols = len(m[0])
        m.width = width = ((p - 1) + updates * (p - 1) ** 2).bit_length()
        m.mask = (1 << width) - 1
        m[:] = [kronecker_pack(row, width) for row in m]

    def pivot(self, m, start: int, col: int):
        p = self.field.p
        if m.width is None:  # the first search packs the rows of residues
            self._pack(m, min(len(m), len(m[0])))
        shift, mask = m.width * col, m.mask
        for r in range(start, len(m)):
            if ((m[r] >> shift) & mask) % p:
                return r
        return None

    def eliminate_below(self, m, top: int, col: int):
        p, width, mask = self.field.p, m.width, m.mask
        shift = width * col
        row = m[top]
        tail = 0
        for s in range(width * (m.cols - 1), shift, -width):
            tail = (tail << width) | ((row >> s) & mask) % p
        tail <<= shift + width
        neg_inv = p - pow(((row >> shift) & mask) % p, -1, p)
        for i in range(top + 1, len(m)):
            c = ((m[i] >> shift) & mask) % p
            if c:
                m[i] += c * neg_inv % p * tail

    def determinant(self, m, negate: bool):
        p = self.field.p
        out = 1
        for i, row in enumerate(m):
            out = out * ((row >> m.width * i) & m.mask) % p
        return PrimeFieldElem(-out if negate else out, self.field)

    def read_row(self, m, i: int, start: int = 0) -> list:
        field, row = self.field, m[i]
        if m.width is None:
            return [PrimeFieldElem(x, field) for x in row[start:]]
        width, mask = m.width, m.mask
        return [PrimeFieldElem((row >> width * j) & mask, field)
                for j in range(start, m.cols)]

    def hold_terms(self, terms: dict, packing):
        return packing.sparse_terms(terms, map(self.field.residue_of, terms.values()))

    def evaluate(self, held, xs):
        field = self.field
        residue_of = field.residue_of
        return PrimeFieldElem(_term_sum(held, [residue_of(x) for x in xs], 1, 0), field)


class LogKernel(ElementKernel):
    """A small F_p[Y]/(m): elimination and evaluation on the logs of
    :class:`LogTables`, 0 for zero; products and transforms on
    Kronecker-packed numerators, as :class:`ElementKernel` holds them.
    A polynomial's terms are held with their coefficients' logs."""

    __slots__ = ("tables",)

    def __init__(self, field):
        super().__init__(field)
        self.tables = LogTables(field._prime_base.p, field._int_modulus)

    def working_copy(self, rows) -> list[list]:
        log_of, field = self.tables.log_of, self.field
        return [[log_of(x, field) for x in row] for row in rows]

    def group_copy(self, values, group) -> list[list]:
        log_of, field = self.tables.log_of, self.field
        return super().group_copy([log_of(x, field) for x in values], group)

    def eliminate_below(self, m, top: int, col: int):
        # x - f * y is the Zech sum of x and (-f) * y, and the log of
        # -f = -x0 / pivot is log(-1) + log x0 - log pivot, once per row
        tables = self.tables
        zech, n = tables.zech, tables.n
        pivot_row = m[top]
        live = pivot_row[col + 1:]
        shift = tables.neg_one - pivot_row[col]
        for row in m[top + 1:]:
            if row[col]:
                f = (row[col] + shift) % n
                row[col + 1:] = [zech_sum(x, f + y if y else 0, zech, n)
                                 for x, y in zip(row[col + 1:], live)]

    def determinant(self, m, negate: bool):
        # start at log 1 = n, so that an empty product is one
        tables = self.tables
        logs = sum([row[i] for i, row in enumerate(m)], tables.n)
        return tables.elem(logs + negate * tables.neg_one, self.field)

    def read_row(self, m, i: int, start: int = 0) -> list:
        elem, field = self.tables.elem, self.field
        return [elem(x, field) for x in m[i][start:]]

    def hold_terms(self, terms: dict, packing):
        log_of, field = self.tables.log_of, self.field
        return packing.sparse_terms(terms, [log_of(c, field) for c in terms.values()])

    def evaluate(self, held, xs):
        # the e-th power of a coordinate of log l has log e * l, and a
        # zero coordinate (log 0) makes its whole term zero
        terms, tops = held
        tables, field = self.tables, self.field
        logs = [0] * len(xs)
        for i, _ in tops:
            logs[i] = tables.log_of(xs[i], field)
        zech, n = tables.zech, tables.n
        total = 0
        for log, monomial in terms:
            for i, e in monomial:
                li = logs[i]
                if not li:
                    break
                log += e * li
            else:
                total = zech_sum(total, log, zech, n)
        return tables.elem(total, field)


class _PackedRows(list):
    """The working copy of a matrix over F_p: rows of int residues, which
    ``hold`` and ``dft`` read, until the first pivot search packs each
    row into one int (see :class:`IntKernel`): ``width`` is the slot
    width, None before, ``mask`` 2^width - 1 and ``cols`` the row
    length."""

    __slots__ = ("width", "mask", "cols")


class _ScaledRows(list):
    """The integer working copy of a rational matrix: row i is s_i times
    the input row, s_i the lcm of its denominators.  ``scale`` is the
    product of the s_i and ``divisor`` the last pivot (1 before the
    first), by which the next Bareiss update divides."""

    __slots__ = ("scale", "divisor")


class RationalKernel(ElementKernel):
    """Q: fraction-free elimination on ints, and evaluation on integer
    coefficients.

    Elimination is Bareiss's (Math. Comp. 1968): with pivot a and previous
    pivot b, a row below becomes (a * row - row[col] * pivot row) / b, an
    exact division, so every value is a minor of the scaled matrix and the
    last pivot of a square one is its determinant.

    A polynomial's terms are held as their integer numerators over c, the
    lcm of the coefficient denominators, with the scale 1/c: the term sum
    runs on ints from int 0 and 1, so an int point makes no ``Fraction``
    until the one product by the scale.  Points of Fractions or of
    Q(zeta_d) run the same sum in their own arithmetic.

    Products hold each group as integer numerators over its common
    denominator; a released sum is one ``Fraction`` over their product.
    The roots of unity of Q are 1 and -1, so a transform runs its
    :class:`ResidueDFT` on the numerators of the vector over their lcm as
    they are, with no packing and no digit bound.
    """

    __slots__ = ()

    def hold(self, groups):
        m = self.working_copy(groups)
        return m, m.scale

    def release(self, values, den, n=1) -> list:
        den *= n
        return [Fraction(v, den) for v in values]

    def _held_ints(self, values, e, divisors):
        m = self.working_copy([values])
        return m[0], m.scale, self._kept_dft(
            e, None, lambda: [int(w) for w in root_table(e, self.field)])

    def working_copy(self, rows) -> _ScaledRows:
        m = _ScaledRows()
        scale = 1
        try:
            for row in rows:
                s = lcm(*[x.denominator for x in row])
                m.append([x.numerator * (s // x.denominator) for x in row])
                scale *= s
        except AttributeError:
            raise RingMismatch("a matrix over Q has an entry outside Q") from None
        m.scale, m.divisor = scale, 1
        return m

    def group_copy(self, values, group) -> _ScaledRows:
        # every row holds the n values, so each is scaled by the same lcm s
        m = self.working_copy([values])
        m[:] = super().group_copy(m[0], group)
        m.scale **= group.order
        return m

    def eliminate_below(self, m, top: int, col: int):
        pivot_row = m[top]
        live = pivot_row[col + 1:]
        a, b = pivot_row[col], m.divisor
        for row in m[top + 1:]:
            f = row[col]
            if f:
                row[col + 1:] = [(a * x - f * y) // b for x, y in zip(row[col + 1:], live)]
            else:
                row[col + 1:] = [a * x // b for x in row[col + 1:]]
        m.divisor = a

    def determinant(self, m, negate: bool):
        last = m[-1][-1] if m else 1
        return Fraction(-last if negate else last, m.scale)

    def read_row(self, m, i: int, start: int = 0) -> list:
        # row i of the scaled copy: a nonzero multiple of the row that
        # division-full elimination would hold
        return [Fraction(x) for x in m[i][start:]]

    def hold_terms(self, terms: dict, packing):
        c = lcm(*[v.denominator for v in terms.values()])
        return (packing.sparse_terms(terms, [v.numerator * (c // v.denominator)
                                             for v in terms.values()]), Fraction(1, c))

    def evaluate(self, held, xs):
        terms, scale = held
        return _term_sum(terms, xs, 1, 0) * scale


# ---------------------------------------------------------------------------
# Discrete Fourier transforms on the kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _radices(m: int) -> tuple:
    """The prime factors of m, with multiplicity, smallest first."""
    return tuple(p for p, k in factorization(m).items() for _ in range(k))


def _row_column(values, divisors, line) -> list:
    """values with ``line(x, d)`` applied to every line of the
    lexicographic array that runs along a factor C_d, d > 1.

    The characters of C_{d_1} x ... x C_{d_k} factor, so the transform
    over the product is the 1-D DFT along each factor in turn."""
    out = list(values)
    n = len(out)
    stride = n
    for d in divisors:
        block, stride = stride, stride // d
        if d == 1:
            continue
        for start in range(0, n, block):
            for j in range(start, start + stride):
                out[j:j + block:stride] = line(out[j:j + block:stride], d)
    return out


# int lines up to this length, and lines of prime length, are one matrix
# product
DFT_LEAF = 16
# a table of root powers is kept if it has at most this many entries
DFT_TABLE_CAP = 1 << 16


class ResidueDFT:
    """The transforms of one exponent e: sum_sigma zeta^t(sigma, chi)
    x_sigma for every chi, row-column over the factors (:func:`_row_column`;
    along C_d the pairing is the 1-D DFT with root powers[e // d]), on the
    held powers of the :func:`root_table` of e.  Over F_p (p given) they
    are residues, reduced mod p once per level; with p None they are the
    values a kernel holds, as they are: 1 and -1 over Q, Kronecker-packed
    numerators over F_p[Y]/(m) and Q(zeta_d), never reduced, so the caller
    sizes its digits for :meth:`stages` products by a root power; or the
    root table itself, for field entries.

    A line of length m is decimated in time on p = its smallest prime
    factor: with Y_r the transform of x[r::p] (root w^p, length m / p),
    X_k = Y_0[k mod m/p] + sum_{r >= 1} w^(r k) Y_r[k mod m/p].  The
    recursion stops at a leaf, one product by the DFT matrix: a line of
    prime length, or, when the held powers are ints, of length at most
    ``DFT_LEAF``, where a row is one C-level ``sum(map(mul, row, x))``.
    A product of elements is a Python call either way, so element lines
    decimate down to prime lengths.  A leaf skips the all-ones row and
    column: X_0 = sum_j x_j and X_k = x_0 + sum_{j >= 1} w^(j k) x_j.  The
    inverse runs on the conjugate root, w^-1 = powers[e - step], and
    leaves the 1/n to the caller.  The matrices, and the twiddles w^(r k)
    of the longer lines, are built per line length and root step on first
    use and kept, up to ``DFT_TABLE_CAP`` entries each; a larger one (a
    prime length above 257) is made a row at a time for every line.
    """

    __slots__ = ("p", "e", "powers", "tables", "ints")

    def __init__(self, p, powers: list):
        self.p, self.e, self.powers = p, len(powers), powers
        self.tables: dict = {}
        self.ints = powers[0].__class__ is int

    @staticmethod
    def stages(divisors) -> int:
        """The number of products by a root power between an input and an
        output of :meth:`run` on ints: one per radix level of a line and
        one for its leaf matrix, summed over the factors C_d with d > 1."""
        return sum([_line_stages(d) for d in divisors if d > 1])

    def run(self, x: list, divisors, inverse=False) -> list:
        """The transform of the held values x, reduced mod p if p is given;
        with inverse the conjugate transform, n times the inverse."""
        e = self.e
        sign = -1 if inverse else 1
        return _row_column(x, divisors, lambda line, d: self._line(line, sign * (e // d) % e))

    def _rows(self, m: int, step: int, radix: int):
        """The rows [w^(r k) for 0 < k < m] for 0 < r < radix, w =
        powers[step]: the twiddles of a radix level, or with radix m the
        DFT matrix of a leaf, its all-ones row and column left out."""
        rows = self.tables.get((m, step))
        if rows is None:
            powers, e = self.powers, self.e
            rows = ([powers[r * k * step % e] for k in range(1, m)] for r in range(1, radix))
            if (m - 1) * (radix - 1) <= DFT_TABLE_CAP:
                rows = self.tables[m, step] = list(rows)
        return rows

    def _line(self, x: list, step: int) -> list:
        """X_k = sum_j w^(j k) x_j (mod p if p is given), w = powers[step]."""
        p, m = self.p, len(x)
        if _is_leaf(m, self.ints):
            x0, x = x[0], x[1:]
            rows = self._rows(m, step, m)
            if p is None:
                out = [sum(map(operator.mul, row, x), x0) for row in rows]
                out.insert(0, sum(x, x0))
                return out
            out = [sum(map(operator.mul, row, x), x0) % p for row in rows]
            out.insert(0, sum(x, x0) % p)
            return out
        radix = _radices(m)[0]
        sub_step = step * radix % self.e
        subs = [self._line(x[r::radix], sub_step) for r in range(radix)]
        out = subs[0] * radix
        # w^(r k) = 1 only at k = 0, r being below every prime factor of m
        for row, y in zip(self._rows(m, step, radix), subs[1:]):
            y = y * radix
            out = [out[0] + y[0], *map(operator.add, out[1:], map(operator.mul, row, y[1:]))]
        return out if p is None else [v % p for v in out]


def _is_leaf(m: int, ints: bool) -> bool:
    """A line of length m is one product by its DFT matrix: see
    :class:`ResidueDFT`."""
    return ints and m <= DFT_LEAF or len(_radices(m)) == 1


@lru_cache(maxsize=None)
def _line_stages(m: int) -> int:
    """The number of products by a root power along a line of length m
    of ints."""
    return 1 if _is_leaf(m, True) else 1 + _line_stages(m // _radices(m)[0])


def _term_sum(held, xs, one, zero):
    """sum c * prod xs[i]^e over the terms of held (see
    :meth:`groupfft.multipoly.Packing.sparse_terms`), from zero, the powers
    of each coordinate read from one table up to its largest exponent."""
    monomials, tops = held
    powers = [None] * len(xs)
    for i, top in tops:
        x = xs[i]
        table = [one, x]
        for _ in range(top - 1):
            table.append(table[-1] * x)
        powers[i] = table
    total = zero
    for c, monomial in monomials:
        for i, e in monomial:
            c = c * powers[i][e]
        total = total + c
    return total


def finite_field(p: int, r: int):
    """F_p for r = 1, else F_p[Y]/(m) with m = find_irreducible(p, r)."""
    base = PrimeField(p)
    return base if r == 1 else ExtField(base, find_irreducible(base, r))


def _finite_field_root_of_unity(field, n: int):
    """Canonical primitive n-th root of unity in a finite field.

    Returns the smallest element of multiplicative order exactly n under
    the field's total order.  All order-n elements lie in the unique
    cyclic subgroup of that order, so it suffices to find one and then
    minimize over its primitive powers.
    """
    require_root_order(n)
    p = field.characteristic
    if gcd(n, p) != 1:
        raise NoRootOfUnity(f"{n} shares a factor with the characteristic {p}")
    if n == 1:
        return field.one
    q = field.order
    if (q - 1) % n != 0:
        raise NoRootOfUnity(f"{field} has no subgroup of order {n}")
    m = (q - 1) // n
    primes = prime_factors(n)
    z = None
    for g in field.iter_elements():
        if not g:
            continue
        cand = g ** m
        if not any((cand ** (n // ell)) == field.one for ell in primes):
            z = cand
            break
    if z is None:
        raise VerificationError(f"{field} has no element of order {n}, though n divides q - 1")
    best = z
    best_key = field.order_key(z)
    w = z
    for k in range(2, n):
        w = w * z
        if gcd(k, n) == 1:
            key = field.order_key(w)
            if key < best_key:
                best, best_key = w, key
    return best


def require_root_order(n: int):
    """Raise PreconditionError unless n >= 1: the check of every
    descriptor's ``primitive_nth_root``, and so of :func:`root_table`."""
    if n < 1:
        raise PreconditionError(f"root-of-unity order must be >= 1, not {n}")


def root_table(n: int, field) -> list:
    """[zeta^0, ..., zeta^(n-1)], zeta the descriptor's canonical
    ``primitive_nth_root(n)`` (a search over F_q, a formula over Q and
    Q(zeta_d)), built once and kept in ``field._roots``; callers must not
    change it.  The exact order n is checked on the table
    (VerificationError).  n < 1 raises PreconditionError and a field
    without the root NoRootOfUnity; neither keeps anything."""
    table = field._roots.get(n)
    if table is None:
        zeta, one = field.primitive_nth_root(n), field.one
        table = [one]
        for _ in range(n - 1):
            table.append(table[-1] * zeta)
        if table[-1] * zeta != one or any(table[n // ell] == one for ell in prime_factors(n)):
            raise VerificationError(f"{zeta} is not a primitive {n}-th root of unity in {field}")
        field._roots[n] = table
    return table


def primitive_nth_root(n: int, field):
    """The canonical element of exact multiplicative order n in field."""
    return root_table(n, field)[1 % n]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _coeff_pieces(c, field) -> tuple[bool, str]:
    """(negative?, magnitude string) for one coefficient."""
    if isinstance(c, (Fraction, int)):
        return c < 0, str(abs(c))
    if isinstance(c, PrimeFieldElem):
        return False, str(c.residue)
    if isinstance(c, ExtFieldElem) and c.field.is_finite:
        if c.is_constant:
            return _coeff_pieces(c.constant, field)
        return False, "(" + c.field.format_elem(c) + ")"
    s = field.format_elem(c) if field is not None else str(c)
    if s.startswith("-") and "+" not in s and " - " not in s[1:]:
        return True, s[1:]
    if (" " in s) or ("+" in s):
        return False, "(" + s + ")"
    return False, s


def format_unipoly(p: UniPoly, var: str = "X") -> str:
    """Sparse sum of c*X^k terms, descending degree: 'X^3 - 1', '-1/3*X - 2/3'."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if not c:
            continue
        neg, mag = _coeff_pieces(c, p.ring)
        if k == 0:
            body = mag
        else:
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == "1" else f"{mag}*{xk}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


# multipoly imports this module, so it is bound last: field_entries and
# the transforms read multipoly.MultiPoly when they run
from . import multipoly  # noqa: E402
