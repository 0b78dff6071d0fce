"""Sparse multivariate polynomials and small symbolic determinants.

Terms map exponent vectors to nonzero coefficients in one of the exact
fields; printing and comparison use graded lexicographic order.  The
determinant uses cofactor expansion with memoization on column subsets,
capped at dimension 8.  Evaluation is a direct sum of the terms, each its
coefficient times one power per variable in it, the powers read from one
table per variable.  The ring's :func:`groupfft.rings.kernel` holds the
terms, on a polynomial's first evaluation, and keeps them on it:
integer numerators over one denominator over Q, int residues over F_p,
logarithms over a small F_{p^r}, elements elsewhere; the value is the
same exact element of the ring either way.

Products and the determinant run on packed monomials and held
coefficients.  A monomial becomes one int of fixed-width exponent fields
(:class:`Packing`, after Monagan and Pearce), wide enough for the known
degree bound, so multiplying two monomials is one int addition; a product
packs once on entry and unpacks once on exit, and the determinant packs
the matrix once and keeps every memoized minor packed.  The ring kernel's
``hold`` and ``release`` hold the coefficients: residues over F_p,
numerators over one denominator over Q, one Kronecker-packed int over
F_p[Y]/(m) and Q(zeta_d), elements over towers.  Every held form shares
one pair loop, :func:`_accumulate`.  A product of powers of several
polynomials (:func:`product_of_powers`) packs and holds each factor once
and unpacks once.
"""

from __future__ import annotations

from .errors import PreconditionError, RingMismatch
from .rings import kernel, square_and_multiply

DET_DIMENSION_CAP = 8


class MultiPoly:
    """Sparse multivariate polynomial over an exact field."""

    __slots__ = ("variables", "terms", "ring", "_held")

    def __init__(self, variables: tuple, terms: dict, ring):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c}
        self.ring = ring
        # the terms as the ring kernel holds them, by the first evaluate
        self._held = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(variables, ring) -> "MultiPoly":
        return MultiPoly(variables, {}, ring)

    @staticmethod
    def constant(c, variables, ring) -> "MultiPoly":
        nvars = len(tuple(variables))
        return MultiPoly(variables, {(0,) * nvars: c}, ring)

    @staticmethod
    def variable(name: str, variables, ring) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise PreconditionError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return MultiPoly(variables, {exp: ring.one}, ring)

    @staticmethod
    def linear(coeff_by_name: dict, variables, ring) -> "MultiPoly":
        """Sum of coeff * variable over the given mapping."""
        variables = tuple(variables)
        terms = {}
        for name, c in coeff_by_name.items():
            if not c:
                continue
            exp = tuple(1 if v == name else 0 for v in variables)
            terms[exp] = terms.get(exp, ring.zero) + c
        return MultiPoly(variables, terms, ring)

    # -- alignment ------------------------------------------------------------

    def _aligned_with(self, other: "MultiPoly"):
        if self.ring is not other.ring:
            raise RingMismatch(f"polynomials over {self.ring} and {other.ring}")
        if self.variables == other.variables:
            return self, other
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        return self._reindexed(tuple(merged)), other._reindexed(tuple(merged))

    def _reindexed(self, new_vars: tuple) -> "MultiPoly":
        if new_vars == self.variables:
            return self
        pos = {v: i for i, v in enumerate(new_vars)}
        nv = len(new_vars)
        terms = {}
        for exp, c in self.terms.items():
            out = [0] * nv
            for v, e in zip(self.variables, exp):
                if e:
                    out[pos[v]] = e
            terms[tuple(out)] = c
        return MultiPoly(new_vars, terms, self.ring)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned_with(other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            cur = terms.get(exp)
            s = c if cur is None else cur + c
            if s:
                terms[exp] = s
            elif cur is not None:
                del terms[exp]
        return MultiPoly(a.variables, terms, a.ring)

    def __radd__(self, c):
        """c + p for a field constant c, as when a matrix product starts
        its sums from field.zero."""
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return self + MultiPoly.constant(c, self.variables, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()}, self.ring)

    def __mul__(self, other):
        """The product on packed monomials and held coefficients: one int
        addition per term pair for the monomial, one product of held
        values for the coefficient."""
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        a, b = self._aligned_with(other)
        if not a.terms or not b.terms:
            return MultiPoly.zero(a.variables, a.ring)
        packing = Packing(len(a.variables), a._degree() + b._degree())
        kern = kernel(a.ring)
        (ha, hb), context = kern.hold([list(a.terms.values()), list(b.terms.values())])
        acc: dict = {}
        _accumulate(acc, zip(map(packing.pack, a.terms), ha),
                   list(zip(map(packing.pack, b.terms), hb)))
        return _released(acc, kern, context, packing, a.variables, a.ring)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "MultiPoly":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        if not c:
            return MultiPoly.zero(self.variables, self.ring)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()}, self.ring)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise PreconditionError("negative power of a polynomial")
        if not k:
            return MultiPoly.constant(self.ring.one, self.variables, self.ring)
        return square_and_multiply(self, k, MultiPoly.__mul__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        a, b = self._aligned_with(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable; compare via sort_key()")

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _degree(self) -> int:
        """The total degree, 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def coefficient(self, exp: tuple):
        return self.terms.get(tuple(exp), self.ring.zero)

    def evaluate(self, assignment: dict):
        """Exact evaluation; every variable must be assigned.

        Sums the terms as the ring kernel holds them, held on the first
        call and kept, with the powers of each variable tabulated up to
        its largest exponent.  The value is an element of ``self.ring``
        (a ``Fraction`` over Q).
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise PreconditionError(f"missing assignment for {missing}")
        kern = kernel(self.ring)
        if self._held is None:
            self._held = kern.hold_terms(self.terms)
        return kern.evaluate(self._held, [assignment[v] for v in self.variables])

    def map_coefficients(self, fn, new_ring) -> "MultiPoly":
        return MultiPoly(self.variables, {e: fn(c) for e, c in self.terms.items()}, new_ring)

    # -- ordering and printing ---------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in graded lexicographic order, largest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def sort_key(self):
        """Canonical comparison key (for multisets of factors)."""
        return (
            self.variables,
            tuple((e, repr(c)) for e, c in self.sorted_terms()),
        )

    def __str__(self) -> str:
        from .rings import _coeff_pieces

        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            neg, mag = _coeff_pieces(c, self.ring)
            factors = []
            for v, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = mag
            else:
                body = "*".join(factors) if mag == "1" else "*".join([mag] + factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.__str__()!r})"


class Packing:
    """Exponent tuples of nvars entries as ints of fixed-width fields, wide
    enough for exponents up to degree: the tuple e packs to
    sum_j e_j 2^(w j), so that multiplying two monomials of total degree
    at most degree is one int addition (Monagan and Pearce's packed
    exponent vectors)."""

    __slots__ = ("shifts", "mask")

    def __init__(self, nvars: int, degree: int):
        width = degree.bit_length()
        self.shifts = [width * j for j in range(nvars)]
        self.mask = (1 << width) - 1

    def pack(self, exp) -> int:
        return sum([e << s for e, s in zip(exp, self.shifts)])

    def unpack(self, mono: int) -> tuple:
        mask = self.mask
        return tuple([(mono >> s) & mask for s in self.shifts])


def _accumulate(acc: dict, a, b):
    """Add every product of a term of a by a term of b into acc, the terms
    (packed monomial, held coefficient) pairs: the one pair loop of the
    products and the determinant.  b is iterated once per term of a."""
    get = acc.get
    for ma, ca in a:
        for mb, cb in b:
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb


def _released(acc: dict, kern, context, packing, variables, ring) -> MultiPoly:
    """The polynomial of the packed sums acc, unpacked once."""
    values = kern.release(list(acc.values()), context)
    unpack = packing.unpack
    return MultiPoly(variables, {unpack(m): c for m, c in zip(acc, values) if c}, ring)


def _packed_mul(x: dict, y: dict) -> dict:
    """The product of two packed polynomials {packed monomial: held
    coefficient}, exact zeros dropped."""
    acc: dict = {}
    _accumulate(acc, x.items(), list(y.items()))
    return {m: v for m, v in acc.items() if v}


def product_of_powers(factors, variables, ring) -> MultiPoly:
    """The product of f^k over the (f, k) pairs of factors, k >= 0, in the
    variables (then those of the factors not among them) over ring.

    One packed accumulation: every factor is packed and held once, for
    its degree bound sum k * deg(f), its powers are taken by square and
    multiply on the packed form, and the product is unpacked once.  A
    factor held k times counts k times in the held context.
    """
    merged = list(variables)
    for f, _ in factors:
        if f.ring is not ring:
            raise RingMismatch(f"a factor over {f.ring}, not {ring}")
        merged.extend(v for v in f.variables if v not in merged)
    vars_t = tuple(merged)
    factors = [(f._reindexed(vars_t), k) for f, k in factors if k]
    if any(not f.terms for f, _ in factors):
        return MultiPoly.zero(vars_t, ring)
    if not factors:
        return MultiPoly.constant(ring.one, vars_t, ring)
    packing = Packing(len(vars_t), sum(k * f._degree() for f, k in factors))
    kern = kernel(ring)
    held, context = kern.hold([list(f.terms.values()) for f, k in factors for _ in range(k)])
    acc = None
    start = 0
    for f, k in factors:
        # the k held copies of f are equal; the power reads the first
        packed = dict(zip(map(packing.pack, f.terms), held[start]))
        start += k
        power = square_and_multiply(packed, k, _packed_mul)
        acc = power if acc is None else _packed_mul(acc, power)
    return _released(acc, kern, context, packing, vars_t, ring)


def symbolic_det(rows: list) -> MultiPoly:
    """Determinant of a square matrix of MultiPoly entries.

    Cofactor expansion memoized on the set of active columns; capped at
    dimension 8, which covers everything at desk scale.  The matrix is
    packed once, a row per held group (its degree bound n times the
    largest entry degree), every minor stays packed, and the determinant
    is unpacked once.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionError("matrix is not square")
    if n == 0:
        raise PreconditionError("empty matrix")
    if n > DET_DIMENSION_CAP:
        raise PreconditionError(f"symbolic determinant capped at dimension {DET_DIMENSION_CAP}")
    # align all entries over a common variable tuple
    merged: list = []
    for row in rows:
        for p in row:
            for v in p.variables:
                if v not in merged:
                    merged.append(v)
    vars_t = tuple(merged)
    ring = rows[0][0].ring
    if any(p.ring is not ring for row in rows for p in row):
        raise RingMismatch(f"entries over {ring} and another ring")
    grid = [[p._reindexed(vars_t) for p in row] for row in rows]
    packing = Packing(len(vars_t), n * max(p._degree() for row in grid for p in row))
    kern = kernel(ring)
    held, context = kern.hold([[c for p in row for c in p.terms.values()] for row in grid])
    # each entry as {packed monomial: held coefficient}, and its negative
    plus, minus = [], []
    for row, values in zip(grid, held):
        it = iter(values)
        plus.append([{packing.pack(e): next(it) for e in p.terms} for p in row])
        minus.append([{m: -c for m, c in entry.items()} for entry in plus[-1]])
    memo: dict = {}

    def minor(cols: tuple) -> dict:
        if len(cols) == 1:
            return plus[n - 1][cols[0]]
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = n - len(cols)
        acc: dict = {}
        for idx, c in enumerate(cols):
            entry = (plus if idx % 2 == 0 else minus)[r][c]
            if entry:
                sub = minor(cols[:idx] + cols[idx + 1:])
                _accumulate(acc, entry.items(), sub.items())
        acc = memo[cols] = {m: v for m, v in acc.items() if v}
        return acc

    return _released(minor(tuple(range(n))), kern, context, packing, vars_t, ring)
