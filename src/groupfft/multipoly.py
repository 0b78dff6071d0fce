"""Sparse multivariate polynomials and small symbolic determinants.

Terms map exponent vectors to nonzero coefficients in one of the exact
fields; printing and comparison use graded lexicographic order.  The
determinant uses cofactor expansion with memoization on column subsets,
capped at dimension 8.  Evaluation walks a recursive Horner plan, built
on a polynomial's first evaluation in one pass over its terms and kept on
it: about one product per plan edge, where a term-by-term sum pays its
coefficient product plus one per variable in the term.  The value is the
same exact field element either way.

Over Q the plan runs on ints.  With c the lcm of the coefficient
denominators and D the total degree, it is the plan of c * P homogenized
to degree D by one extra variable.  A point of ints and Fractions is
scaled to integers y over the lcm L of its denominators; the walk at
(y, L) gives c * L^D * P(x) with no Fraction made, and the value is one
Fraction(value, c * L^D).  A Q polynomial at other values (elements of
Q(zeta_d)) keeps the walk on its coefficients.

Over a small F_p[Y]/(m), one with :func:`groupfft.rings.log_tables`, the
plan's leaves are the logs of the coefficients and the walk runs on logs:
a power of a coordinate is a multiple of its log, a product one int
addition and a sum one Zech table lookup, with 0 for the value zero (the
plan's None still marks an absent constant).  The walk makes no element;
the value is wrapped back into ``self.ring``.  Towers, Q(zeta_d) and
larger fields keep the walk on their elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import PreconditionError, RingMismatch
from .rings import RationalField, log_tables, zech_sum

DET_DIMENSION_CAP = 8


class MultiPoly:
    """Sparse multivariate polynomial over an exact field."""

    __slots__ = ("variables", "terms", "ring", "_plan", "_int_plan", "_log_plan")

    def __init__(self, variables: tuple, terms: dict, ring):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c}
        self.ring = ring
        # Horner plans, built by the first evaluate that needs one: on the
        # coefficients, over Q on integers (see _rational_plan), and over a
        # small F_{p^r} on logarithms (see _log_value)
        self._plan = None
        self._int_plan = None
        self._log_plan = None

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
        if self.ring is not other.ring and self.ring != other.ring:
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
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        a, b = self._aligned_with(other)
        terms: dict = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                cur = terms.get(exp)
                s = prod if cur is None else cur + prod
                if s:
                    terms[exp] = s
                elif cur is not None:
                    del terms[exp]
        return MultiPoly(a.variables, terms, a.ring)

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
        result = MultiPoly.constant(self.ring.one, self.variables, self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring != other.ring:
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

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def coefficient(self, exp: tuple):
        return self.terms.get(tuple(exp), self.ring.zero)

    def evaluate(self, assignment: dict):
        """Exact evaluation; every variable must be assigned.

        Walks the Horner plan (built on the first call, then kept): about
        one product per plan edge, with powers of each variable tabulated
        only up to the largest exponent step it takes.  Over Q, at a point
        of ints and Fractions, the plan is the integer one of
        :func:`_rational_plan` and the walk makes no Fraction.  Over an
        F_p[Y]/(m) that has :func:`groupfft.rings.log_tables`, the plan's
        leaves are logarithms and the walk makes no element
        (:func:`_log_value`); the value is an element of ``self.ring``.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise PreconditionError(f"missing assignment for {missing}")
        ring = self.ring
        if isinstance(ring, RationalField):
            if self._int_plan is None:
                self._int_plan = _rational_plan(self.terms)
            value = _rational_value(self._int_plan, self.variables, assignment)
            if value is not None:
                return value
        tables = log_tables(ring)
        if tables is not None:
            if self._log_plan is None:
                self._log_plan = _horner_plan(
                    {e: tables.log_of(c, ring) for e, c in self.terms.items()})
            value = _log_value(self._log_plan, self.variables, assignment, tables, ring)
            return tables.elem(value, ring)
        if self._plan is None:
            self._plan = _horner_plan(self.terms)
        root, steps = self._plan
        if root is None:
            return self.ring.zero
        powers = [None] * len(self.variables)
        for i, top in steps:
            x = assignment[self.variables[i]]
            tab = [self.ring.one, x]
            for _ in range(top - 1):
                tab.append(tab[-1] * x)
            powers[i] = tab
        return _walk(root, powers) if root.__class__ is tuple else root

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


def _horner_plan(terms: dict):
    """(root, steps): the recursive Horner form of a sum of terms.

    A node stands for a sum of terms over the variables from some index
    on.  It is a pair (parts, const): const is the coefficient of the
    term free of those variables (None if absent), and each part
    (i, branches) collects the terms whose first variable is i, grouped
    by its exponent e >= 1 in descending order, each group's cofactor a
    node over the later variables.  A node with no parts is stored as its
    bare coefficient.  steps lists, per variable used, the largest power
    the walk reads.  One pass over the terms fills a trie; the plan is
    the frozen trie.
    """
    trie: list = [{}, None]
    for exp, c in terms.items():
        node = trie
        for i, e in enumerate(exp):
            if e:
                node = node[0].setdefault(i, {}).setdefault(e, [{}, None])
        node[1] = c
    steps: dict = {}

    def freeze(node):
        parts_in, const = node
        if not parts_in:
            return const
        parts = []
        for i in sorted(parts_in):
            groups = parts_in[i]
            exps = sorted(groups, reverse=True)
            top = max([a - b for a, b in zip(exps, exps[1:])] + [exps[-1]])
            if top > steps.get(i, 0):
                steps[i] = top
            parts.append((i, tuple((e, freeze(groups[e])) for e in exps)))
        return (tuple(parts), const)

    root = freeze(trie)
    return root, tuple(sorted(steps.items()))


def _walk(node, powers):
    """Value of a Horner plan node; powers[i][k] is the k-th power of
    variable i.  Within a part, sum_e x^e c_e is taken as
    ((c_top x^(top - next) + c_next) ...) x^(lowest)."""
    parts, acc = node
    for i, branches in parts:
        tab = powers[i]
        val = None
        for e, child in branches:
            if child.__class__ is tuple:
                child = _walk(child, powers)
            val = child if val is None else val * tab[last - e] + child
            last = e
        val = val * tab[last]
        acc = val if acc is None else acc + val
    return acc


def _log_value(plan, variables: tuple, assignment: dict, tables, ring) -> int:
    """The log of P(x) (0 for zero), from P's Horner plan on the logs of
    its coefficients, with the logs of ``tables`` (see
    :class:`groupfft.rings.LogTables`).

    The k-th power of a coordinate of log l has log k * l, or 0 when the
    coordinate is zero; 0 is a value here, distinct from the plan's None
    for an absent constant.
    """
    root, steps = plan
    if root is None:
        return 0
    if root.__class__ is not tuple:
        return root
    powers = [None] * len(variables)
    for i, top in steps:
        l = tables.log_of(assignment[variables[i]], ring)
        powers[i] = [k * l for k in range(top + 1)]
    return _log_walk(root, powers, tables.zech, tables.n)


def _log_walk(node, powers, zech: list, n: int) -> int:
    """_walk on logs: a product adds two logs, 0 when either is 0, and a
    sum is one Zech table lookup (:func:`groupfft.rings.zech_sum`)."""
    parts, acc = node
    for i, branches in parts:
        tab = powers[i]
        val = None
        for e, child in branches:
            if child.__class__ is tuple:
                child = _log_walk(child, powers, zech, n)
            if val is None:
                val = child
            else:
                t = tab[last - e]
                val = zech_sum(val + t if val and t else 0, child, zech, n)
            last = e
        t = tab[last]
        val = val + t if val and t else 0
        acc = val if acc is None else zech_sum(acc, val, zech, n)
    return acc


def _rational_plan(terms: dict):
    """(c, degree, root, steps): a Horner plan over the integers for a
    polynomial P over Q.

    c is the lcm of the coefficient denominators and degree the total
    degree D.  The plan is that of c * P homogenized to degree D by one
    more variable, after the others: the term c_e x^e becomes the int
    c * c_e times x^e t^(D - |e|).  At x = y / L, y integers, its value
    at (y, L) is c * L^D * P(x).
    """
    c = lcm(*(v.denominator for v in terms.values()))
    degree = max(map(sum, terms), default=0)
    root, steps = _horner_plan({
        e + (degree - sum(e),): v.numerator * (c // v.denominator)
        for e, v in terms.items()
    })
    return c, degree, root, steps


def _rational_value(plan, variables: tuple, assignment: dict):
    """P(x) from its _rational_plan, as a Fraction, when every variable
    the plan reads is assigned an int or a Fraction; None otherwise.

    The point is scaled to integers y over the lcm L of its denominators,
    and the walk runs on ints, with L for the homogenizing variable.
    """
    c, degree, root, steps = plan
    if root is None:
        return Fraction(0)
    nvars = len(variables)
    xs = {}
    for i, _ in steps:
        if i < nvars:
            x = assignment[variables[i]]
            if not isinstance(x, (int, Fraction)):
                return None
            xs[i] = x
    den = lcm(*(x.denominator for x in xs.values()))
    powers = [None] * (nvars + 1)
    for i, top in steps:
        if i == nvars:
            y = den
        else:
            x = xs[i]
            y = x.numerator * (den // x.denominator)
        tab = [1, y]
        for _ in range(top - 1):
            tab.append(tab[-1] * y)
        powers[i] = tab
    value = _walk(root, powers) if root.__class__ is tuple else root
    return Fraction(value, c * den ** degree)


def symbolic_det(rows: list) -> MultiPoly:
    """Determinant of a square matrix of MultiPoly entries.

    Cofactor expansion memoized on the set of active columns; capped at
    dimension 8, which covers everything at desk scale.
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
    grid = [[p._reindexed(vars_t) for p in row] for row in rows]
    one = MultiPoly.constant(ring.one, vars_t, ring)
    memo: dict = {}

    def minor(cols: tuple) -> MultiPoly:
        if not cols:
            return one
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = n - len(cols)
        acc = MultiPoly.zero(vars_t, ring)
        for idx, c in enumerate(cols):
            entry = grid[r][c]
            if entry.is_zero:
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            term = entry * sub
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))
