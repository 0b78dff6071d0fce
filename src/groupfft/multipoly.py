"""Sparse multivariate polynomials and small symbolic determinants.

A polynomial keeps one form of its monomials from construction to
evaluation: packed ints of fixed-width exponent fields (:class:`Packing`,
after Monagan and Pearce), mapped to nonzero coefficients in one of the
exact fields.  Exponent tuples are made only to print and sort (graded
lexicographic order), for ``coefficient`` and in the read-only ``terms``
view.  Multiplying two monomials is one int addition; a product widens
the packing to its degree bound, and a sum or comparison of two packings
repacks the narrower once.  The determinant uses cofactor expansion with
memoization on column subsets, capped at dimension 8, every minor packed.

The ring's :func:`groupfft.rings.kernel` holds the coefficients: for
products and the determinant (``hold``, ``release``) residues over F_p,
numerators over one denominator over Q, one Kronecker-packed int over
F_p[Y]/(m) and Q(zeta_d), elements over towers, in one pair loop,
:func:`_accumulate`.  Evaluation sums the terms as ``hold_terms`` holds
them on the first evaluation, kept on the polynomial: each monomial as
(variable, exponent) pairs read straight off its nonzero fields
(:meth:`Packing.sparse_terms`), each coefficient as integer numerators
over one denominator over Q, an int residue over F_p, a logarithm over a
small F_{p^r}, an element elsewhere, times one power per variable read
from one table per variable.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import PreconditionError, RingMismatch
from .rings import _coeff_pieces, kernel, square_and_multiply

DET_DIMENSION_CAP = 8


class MultiPoly:
    """Sparse multivariate polynomial over an exact field: ``packed`` maps
    the monomials, packed by ``packing``, to nonzero coefficients."""

    __slots__ = ("variables", "packed", "packing", "ring", "_held")

    def __init__(self, variables: tuple, terms: dict, ring, packing=None):
        """The polynomial of terms, exponent tuple -> coefficient, each tuple
        one nonnegative int per variable (PreconditionError otherwise), zero
        coefficients dropped; or with a packing, packed monomial of total
        degree at most its mask -> nonzero coefficient, kept as it is."""
        self.variables = tuple(variables)
        if packing is None:
            for exp in terms:
                _checked(exp, len(self.variables))
            packing = Packing(len(self.variables), max(map(sum, terms), default=0))
            terms = {packing.pack(e): c for e, c in terms.items() if c}
        self.packed, self.packing, self.ring = terms, packing, ring
        # the terms as the ring kernel holds them, by the first evaluate
        self._held = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(variables, ring) -> "MultiPoly":
        return MultiPoly(variables, {}, ring)

    @staticmethod
    def constant(c, variables, ring) -> "MultiPoly":
        return MultiPoly(variables, {(0,) * len(tuple(variables)): c}, ring)

    @staticmethod
    def variable(name: str, variables, ring) -> "MultiPoly":
        if name not in tuple(variables):
            raise PreconditionError(f"unknown variable {name!r}")
        return MultiPoly.linear({name: ring.one}, variables, ring)

    @staticmethod
    def linear(coeff_by_name: dict, variables, ring) -> "MultiPoly":
        """Sum of coeff * variable over the given mapping."""
        variables = tuple(variables)
        terms = {}
        for name, c in coeff_by_name.items():
            m = 1 << variables.index(name) if name in variables else 0
            terms[m] = terms[m] + c if m in terms else c
        packing = Packing(len(variables), 1)  # field j is bit j
        return MultiPoly(variables, {m: c for m, c in terms.items() if c}, ring, packing)

    # -- alignment ------------------------------------------------------------

    def _aligned_with(self, other: "MultiPoly"):
        """self and other over their merged variables, in the wider of
        their packings."""
        if self.ring is not other.ring:
            raise RingMismatch(f"polynomials over {self.ring} and {other.ring}")
        packing = self.packing if self.packing.mask >= other.packing.mask else other.packing
        if self.variables == other.variables:
            return self._moved(self.variables, packing), other._moved(self.variables, packing)
        merged = tuple(dict.fromkeys(self.variables + other.variables))
        packing = Packing(len(merged), packing.mask)
        return self._moved(merged, packing), other._moved(merged, packing)

    def _moved(self, variables: tuple, packing) -> "MultiPoly":
        """self over variables, a tuple that holds its own, repacked in
        packing, whose mask is at least the degree."""
        if variables == self.variables and packing.mask == self.packing.mask:
            return self
        shifts = list(map(dict(zip(variables, packing.shifts)).get, self.variables))
        unpack = self.packing.unpack
        packed = {sum([e << s for e, s in zip(unpack(m), shifts)]): c
                  for m, c in self.packed.items()}
        return MultiPoly(variables, packed, self.ring, packing)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned_with(other)
        terms = dict(a.packed)
        for m, c in b.packed.items():
            cur = terms.get(m)
            s = c if cur is None else cur + c
            if s:
                terms[m] = s
            elif cur is not None:
                del terms[m]
        return MultiPoly(a.variables, terms, a.ring, a.packing)

    def __radd__(self, c):
        """c + p for a field constant c, as when a matrix product starts
        its sums from field.zero."""
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return self + MultiPoly.constant(c, self.variables, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map_coefficients(lambda c: -c, self.ring)

    def __mul__(self, other):
        """The product on packed monomials and held coefficients: one int
        addition per term pair for the monomial, one product of held
        values for the coefficient, in a packing widened to the sum of
        the degrees."""
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        a, b = self._aligned_with(other)
        if not a.packed or not b.packed:
            return MultiPoly.zero(a.variables, a.ring)
        packing = Packing(len(a.variables), max(a._degree() + b._degree(), a.packing.mask))
        a, b = a._moved(a.variables, packing), b._moved(a.variables, packing)
        kern = kernel(a.ring)
        (ha, hb), context = kern.hold([list(a.packed.values()), list(b.packed.values())])
        acc: dict = {}
        _accumulate(acc, zip(a.packed, ha), list(zip(b.packed, hb)))
        return _released(acc, kern, context, packing, a.variables, a.ring)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "MultiPoly":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        if not c:
            return MultiPoly.zero(self.variables, self.ring)
        return self.map_coefficients(lambda v: c * v, self.ring)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise PreconditionError("negative power of a polynomial")
        return product_of_powers([(self, k)], self.variables, self.ring)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        a, b = self._aligned_with(other)
        return a.packed == b.packed

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable; compare via sort_key()")

    def __bool__(self) -> bool:
        return bool(self.packed)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def terms(self) -> MappingProxyType:
        """A read-only view exponent tuple -> coefficient, unpacked afresh."""
        unpack = self.packing.unpack
        return MappingProxyType({unpack(m): c for m, c in self.packed.items()})

    def _degree(self) -> int:
        """The total degree, 0 for the zero polynomial."""
        return max(map(self.packing.degree_of, self.packed), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        return set(map(self.packing.degree_of, self.packed)) <= {degree}

    def coefficient(self, exp: tuple):
        """The coefficient of the exponent tuple exp, one nonnegative int
        per variable (PreconditionError otherwise)."""
        exp = _checked(exp, len(self.variables))
        if max(exp, default=0) > self.packing.mask:
            return self.ring.zero
        return self.packed.get(self.packing.pack(exp), self.ring.zero)

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
            self._held = kern.hold_terms(self.packed, self.packing)
        return kern.evaluate(self._held, [assignment[v] for v in self.variables])

    def map_coefficients(self, fn, new_ring) -> "MultiPoly":
        return MultiPoly(self.variables, {m: v for m, c in self.packed.items() if (v := fn(c))},
                         new_ring, self.packing)

    # -- ordering and printing ---------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in graded lexicographic order, largest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def sort_key(self):
        """Canonical comparison key (for multisets of factors)."""
        return self.variables, tuple((e, repr(c)) for e, c in self.sorted_terms())

    def __str__(self) -> str:
        parts = []
        for exp, c in self.sorted_terms():
            neg, mag = _coeff_pieces(c, self.ring)
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, exp) if e]
            sign = (" - " if neg else " + ") if parts else ("-" if neg else "")
            parts.append(sign + "*".join(factors if factors and mag == "1" else [mag] + factors))
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"MultiPoly({self.__str__()!r})"


def _checked(exp, nvars: int) -> tuple:
    """exp as a tuple of nvars nonnegative ints, else PreconditionError."""
    exp = tuple(exp)
    if len(exp) != nvars or not all(isinstance(e, int) and e >= 0 for e in exp):
        raise PreconditionError(f"exponent {exp!r} is not {nvars} nonnegative ints")
    return exp


class Packing:
    """Exponent tuples of nvars entries as ints of fixed-width fields, wide
    enough for exponents up to degree: the tuple e packs to
    sum_j e_j 2^(w j), so that multiplying two monomials whose total
    degrees sum to at most ``mask`` = 2^w - 1 is one int addition
    (Monagan and Pearce's packed exponent vectors)."""

    __slots__ = ("shifts", "mask", "ones")

    def __init__(self, nvars: int, degree: int):
        width = degree.bit_length()
        self.shifts = [width * j for j in range(nvars)]
        self.mask = (1 << width) - 1
        self.ones = sum([1 << s for s in self.shifts])

    def pack(self, exp) -> int:
        return sum([e << s for e, s in zip(exp, self.shifts)])

    def unpack(self, mono: int) -> tuple:
        mask = self.mask
        return tuple([(mono >> s) & mask for s in self.shifts])

    def degree_of(self, mono: int) -> int:
        """The total degree of a monomial of total degree at most mask: the
        fields of mono * ones hold partial sums of its exponents, none above
        mask, so nothing carries, and field nvars - 1 holds the whole sum."""
        return mono * self.ones >> self.shifts[-1] & self.mask if self.shifts else 0

    def sparse_terms(self, monomials, coefficients) -> tuple:
        """(terms, tops) for the packed monomials and their coefficients:
        each term (c, ((i, e), ...)), one pair per variable i of nonzero
        exponent e, read off the monomial's nonzero fields lowest first,
        and tops the largest e of each variable used, as ((i, top), ...)."""
        width, mask = self.mask.bit_length(), self.mask
        # the variable and shift of the field that holds bit b - 1
        fields = [None] + [(b // width, b - b % width) for b in range(len(self.shifts) * width)]
        terms, top = [], [0] * len(self.shifts)
        for m, c in zip(monomials, coefficients):
            pairs = []
            while m:
                i, s = fields[(m & -m).bit_length()]
                e = m >> s & mask
                m -= e << s
                pairs.append((i, e))
                if e > top[i]:
                    top[i] = e
            terms.append((c, tuple(pairs)))
        return terms, tuple([(i, e) for i, e in enumerate(top) if e])


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
    """The polynomial of the packed sums acc, its coefficients released."""
    values = kern.release(list(acc.values()), context)
    return MultiPoly(variables, {m: c for m, c in zip(acc, values) if c}, ring, packing)


def _packed_mul(x: dict, y: dict) -> dict:
    """The product of two packed polynomials {monomial: held value}, exact zeros dropped."""
    acc: dict = {}
    _accumulate(acc, x.items(), list(y.items()))
    return {m: v for m, v in acc.items() if v}


def product_of_powers(factors, variables, ring) -> MultiPoly:
    """The product of f^k over the (f, k) pairs of factors, k >= 0, in the
    variables (then those of the factors not among them) over ring.

    One packed accumulation: every factor is repacked and held once, for
    its degree bound sum k * deg(f), and its powers are taken by square
    and multiply on the packed form.  A factor held k times counts k times
    in the held context.
    """
    for f, _ in factors:
        if f.ring is not ring:
            raise RingMismatch(f"a factor over {f.ring}, not {ring}")
    vars_t = tuple(dict.fromkeys([*variables, *(v for f, _ in factors for v in f.variables)]))
    factors = [(f, k) for f, k in factors if k]
    if any(not f.packed for f, _ in factors):
        return MultiPoly.zero(vars_t, ring)
    if not factors:
        return MultiPoly.constant(ring.one, vars_t, ring)
    packing = Packing(len(vars_t), sum(k * f._degree() for f, k in factors))
    factors = [(f._moved(vars_t, packing), k) for f, k in factors]
    kern = kernel(ring)
    held, context = kern.hold([list(f.packed.values()) for f, k in factors for _ in range(k)])
    acc, start = None, 0
    for f, k in factors:
        # the k held copies of f are equal; the power reads the first
        packed = dict(zip(f.packed, held[start]))
        start += k
        power = square_and_multiply(packed, k, _packed_mul)
        acc = power if acc is None else _packed_mul(acc, power)
    return _released(acc, kern, context, packing, vars_t, ring)


def symbolic_det(rows: list) -> MultiPoly:
    """Determinant of a square matrix of MultiPoly entries.

    Cofactor expansion memoized on the set of active columns; capped at
    dimension 8, which covers everything at desk scale.  The matrix is
    repacked once, a row per held group (its degree bound n times the
    largest entry degree), and every minor stays packed.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionError("matrix is not square")
    if n == 0:
        raise PreconditionError("empty matrix")
    if n > DET_DIMENSION_CAP:
        raise PreconditionError(f"symbolic determinant capped at dimension {DET_DIMENSION_CAP}")
    # align all entries over a common variable tuple
    vars_t = tuple(dict.fromkeys(v for row in rows for p in row for v in p.variables))
    ring = rows[0][0].ring
    if any(p.ring is not ring for row in rows for p in row):
        raise RingMismatch(f"entries over {ring} and another ring")
    packing = Packing(len(vars_t), n * max(p._degree() for row in rows for p in row))
    # a group matrix repeats its n entries: each distinct entry moves once
    moved = {id(p): p for row in rows for p in row}
    moved = {k: p._moved(vars_t, packing) for k, p in moved.items()}
    grid = [[moved[id(p)] for p in row] for row in rows]
    kern = kernel(ring)
    held, context = kern.hold([[c for p in row for c in p.packed.values()] for row in grid])
    # each entry as {packed monomial: held coefficient}, and its negative
    plus, minus = [], []
    for row, values in zip(grid, held):
        it = iter(values)
        plus.append([{m: next(it) for m in p.packed} for p in row])
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
