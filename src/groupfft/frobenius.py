"""General finite groups via Cayley tables, and the determinant factorization
attached to a complete set of irreducible matrix representations.

The centerpiece is the order-6 symmetric group: its group matrix block
diagonalizes into two linear forms and a doubled 2x2 block, and its
determinant factors as the product of the two linear forms times the
square of the degree-2 factor.  That degree-2 factor is reproduced a
second way from recursively extended character values, via the
power-sum normal form

    psi = (-1)^f * sum over (a_1..a_f), sum i*a_i = f, of
          prod_k S_k^(a_k) / ((-k)^(a_k) * a_k!),

with S_k the k-fold character power sums.  The raw tuple-sum form of the
same polynomial is also computed; the two agree up to the constant
(-1)^f * f!, which is measured and reported rather than assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from math import factorial

from .cyclotomic import CycloElem, CyclotomicField, cyclotomic_field
from .errors import PreconditionError, VerificationError
from .factorize import FactorEntry, FactoredDeterminant, verify_product_identity
from .linalg import identity_matrix, mat_eq, mat_inverse, mat_mul
from .multipoly import MultiPoly, Packing, symbolic_det
from .rings import root_table


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by labels and a composition table.

    table[i][j] is the index of the product of elements i and j; use
    :meth:`from_table` to construct with validation (Latin square,
    identity, inverses, associativity).
    """

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    name: str = "G"

    @staticmethod
    def from_table(labels, table, name: str = "G") -> "FiniteGroup":
        labels = tuple(labels)
        table = tuple(tuple(row) for row in table)
        n = len(labels)
        if len(set(labels)) != n:
            raise PreconditionError("duplicate element labels")
        if len(table) != n or any(len(row) != n for row in table):
            raise PreconditionError("composition table is not n x n")
        full = set(range(n))
        for i, row in enumerate(table):
            if set(row) != full:
                raise PreconditionError(f"row {i} is not a permutation")
        for j in range(n):
            if {table[i][j] for i in range(n)} != full:
                raise PreconditionError(f"column {j} is not a permutation")
        identity = next(
            (i for i in range(n) if all(table[i][j] == j and table[j][i] == j for j in range(n))),
            None,
        )
        if identity is None:
            raise PreconditionError("no identity element")
        # Light's test: the s with (x s) y = x (s y) for all x, y are
        # closed under products, so checking a generating set checks all
        for s in _generators(table, identity):
            for x_row in table:
                xs_row = table[x_row[s]]
                if any(xs_row[y] != x_row[sy] for y, sy in enumerate(table[s])):
                    raise PreconditionError("composition table is not associative")
        group = FiniteGroup(labels, table, identity, name)
        for i in range(n):
            group.inv(i)  # raises if some element has no inverse
        return group

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == self.identity:
                if self.table[j][i] != self.identity:
                    raise PreconditionError(
                        f"element {self.labels[i]} has only a one-sided inverse "
                        f"{self.labels[j]}"
                    )
                return j
        raise PreconditionError(f"element {self.labels[i]} has no inverse")

    def variables(self) -> tuple[str, ...]:
        return tuple(f"X_{lab}" for lab in self.labels)

    def group_matrix(self, values) -> list[list]:
        """The matrix with entry (t, s) = values[t^-1 s], values in element order."""
        return [[values[k] for k in self.table[self.inv(t)]] for t in range(self.order)]

    def symbolic_matrix(self, field) -> list[list[MultiPoly]]:
        """The group matrix of generic variables: entry(t, s) = X at t^-1 s."""
        variables = self.variables()
        return self.group_matrix([MultiPoly.variable(v, variables, field) for v in variables])

    def __repr__(self) -> str:
        return self.name


def _generators(table, identity: int) -> list[int]:
    """Elements whose right products from the identity reach the whole
    table, picked greedily in index order; over a group each one at least
    doubles the subgroup reached, so there are at most log2 n of them."""
    reached, out = {identity}, []
    for g in range(len(table)):
        if g not in reached:
            out.append(g)
            todo = list(reached)
            while todo:
                row = table[todo.pop()]
                for s in out:
                    if row[s] not in reached:
                        reached.add(row[s])
                        todo.append(row[s])
    return out


@dataclass(frozen=True)
class Representation:
    """Matrix representation with entries in a cyclotomic field.

    Validated on construction: the identity maps to I and the image of a
    product is the product of images, for every pair.
    """

    group: FiniteGroup
    name: str
    field: CyclotomicField
    images: tuple  # one degree x degree matrix of CycloElem per element

    @staticmethod
    def build(group, name, field, images) -> "Representation":
        images = tuple(tuple(tuple(row) for row in mat) for mat in images)
        if len(images) != group.order:
            raise PreconditionError("one image per group element required")
        f = len(images[0])
        if any(len(m) != f or any(len(r) != f for r in m) for m in images):
            raise PreconditionError("images must be square of equal size")
        ident = identity_matrix(f, field)
        if not mat_eq(images[group.identity], ident):
            raise PreconditionError("identity does not map to the identity matrix")
        for a in range(group.order):
            for b in range(group.order):
                prod = mat_mul(images[a], images[b], field)
                if not mat_eq(images[group.mul(a, b)], prod):
                    raise PreconditionError(f"{name}: image of product mismatches at ({a},{b})")
        return Representation(group, name, field, images)

    @property
    def degree(self) -> int:
        return len(self.images[0])

    def character_values(self) -> tuple:
        """Traces of the images, in element order."""
        out = []
        for mat in self.images:
            tr = self.field.zero
            for i in range(self.degree):
                tr = tr + mat[i][i]
            out.append(tr)
        return tuple(out)


@dataclass(frozen=True)
class GroupWithReps:
    group: FiniteGroup
    representations: tuple[Representation, ...]


class TupleCharacter:
    """A character extended to tuples of group elements by the recursion

        chi(s, s_1, ..., s_k) = chi(s) chi(s_1, ..., s_k)
                                - sum_i chi(s_1, ..., s*s_i, ..., s_k).

    Values are memoized per instance; instances hold no other state.
    """

    def __init__(self, group: FiniteGroup, values: tuple, field):
        if len(values) != group.order:
            raise PreconditionError("one base value per element required")
        self.group = group
        self.values = tuple(values)
        self.field = field
        self._memo: dict = {}

    @staticmethod
    def from_representation(rep: Representation) -> "TupleCharacter":
        return TupleCharacter(rep.group, rep.character_values(), rep.field)

    def value(self, indices: tuple) -> CycloElem:
        indices = tuple(indices)
        if not indices:
            raise PreconditionError("tuple must be nonempty")
        if any(not 0 <= i < self.group.order for i in indices):
            raise PreconditionError("element index out of range")
        return self._value(indices)

    def _value(self, t: tuple) -> CycloElem:
        if len(t) == 1:
            return self.values[t[0]]
        cached = self._memo.get(t)
        if cached is not None:
            return cached
        s, rest = t[0], t[1:]
        acc = self.values[s] * self._value(rest)
        for i in range(len(rest)):
            merged = rest[:i] + (self.group.mul(s, rest[i]),) + rest[i + 1:]
            acc = acc - self._value(merged)
        self._memo[t] = acc
        return acc


def extended_character(char: TupleCharacter, elements: tuple) -> CycloElem:
    """Value of the extended character at a tuple of element indices."""
    return char.value(elements)


# ---------------------------------------------------------------------------
# Built-in groups
# ---------------------------------------------------------------------------

def s3() -> GroupWithReps:
    """The symmetric group on three letters, with its three irreducibles.

    Elements are labeled e, s, s2, t, ts, ts2 where s has order 3, t has
    order 2 and t s t = s2.  The degree-2 representation sends s to
    diag(j, j^2) and t to the flip, j a primitive cube root of unity.
    """
    labels = ("e", "s", "s2", "t", "ts", "ts2")

    def mul(x: int, y: int) -> int:
        a, i = divmod(x, 3)
        b, k = divmod(y, 3)
        return 3 * ((a + b) % 2) + ((i * (2 ** b) + k) % 3)

    table = [[mul(x, y) for y in range(6)] for x in range(6)]
    group = FiniteGroup.from_table(labels, table, name="S3")
    field = cyclotomic_field(3)
    one, zero = field.one, field.zero
    j = field.zeta
    j2 = j * j
    trivial = Representation.build(
        group, "trivial", field, [[[one]] for _ in range(6)]
    )
    sign = Representation.build(
        group, "sign", field, [[[one]], [[one]], [[one]], [[-one]], [[-one]], [[-one]]]
    )
    two_dim = Representation.build(
        group,
        "standard",
        field,
        [
            [[one, zero], [zero, one]],
            [[j, zero], [zero, j2]],
            [[j2, zero], [zero, j]],
            [[zero, one], [one, zero]],
            [[zero, j2], [j, zero]],
            [[zero, j], [j2, zero]],
        ],
    )
    return GroupWithReps(group, (trivial, sign, two_dim))


def cyclic_group(n: int) -> GroupWithReps:
    """C_n as a Cayley-table group with its n one-dimensional representations."""
    labels = tuple(str(i) for i in range(n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    group = FiniteGroup.from_table(labels, table, name=f"C{n}")
    field = cyclotomic_field(n)
    powers = root_table(n, field)
    reps = tuple(
        Representation.build(
            group, f"chi{h}", field, [[[powers[h * i % n]]] for i in range(n)]
        )
        for h in range(n)
    )
    return GroupWithReps(group, reps)


# ---------------------------------------------------------------------------
# Block diagonalization of the order-6 symmetric group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class S3BlockDiagonalization:
    group: FiniteGroup
    p_matrix: tuple
    l0: MultiPoly
    l1: MultiPoly
    m_block: tuple  # 2x2 of MultiPoly
    det_m: MultiPoly
    conjugated: tuple  # the full block-diagonal 6x6


def generic_matrix(rep: Representation) -> list[list[MultiPoly]]:
    """sum over g of X_g * rho(g): the block the representation contributes."""
    group = rep.group
    variables = group.variables()
    f = rep.degree
    out = []
    for i in range(f):
        row = []
        for k in range(f):
            coeffs = {
                variables[g]: rep.images[g][i][k] for g in range(group.order)
            }
            row.append(MultiPoly.linear(coeffs, variables, rep.field))
        out.append(row)
    return out


def block_diagonalize_s3() -> S3BlockDiagonalization:
    """Conjugate the S3 group matrix into Diag(L0, L1, M, M).

    The change of basis has columns the matrix-coefficient functions of
    the irreducibles, each irreducible contributing degree-many copies;
    the conjugated matrix is verified entry by entry against the blocks
    sum_g X_g rho(g), and the determinant identity
    det A = L0 * L1 * (det M)^2 is checked symbolically.  A failed check
    raises VerificationError, also under ``python -O``.
    """
    data = s3()
    group = data.group
    field = data.representations[0].field
    n = group.order
    columns = []
    for rep in data.representations:
        f = rep.degree
        for k in range(f):
            for m in range(f):
                columns.append([rep.images[g][k][m] for g in range(n)])
    p = [[columns[c][r] for c in range(n)] for r in range(n)]
    p_inv = mat_inverse(p, field)  # raises if singular
    a = group.symbolic_matrix(field)
    conj = mat_mul(mat_mul(p_inv, a, field), p, field)
    blocks = [generic_matrix(rep) for rep in data.representations]
    l0 = blocks[0][0][0]
    l1 = blocks[1][0][0]
    m_block = blocks[2]
    expected = [[None] * n for _ in range(n)]
    layout = [(0, blocks[0]), (1, blocks[1]), (2, blocks[2]), (4, blocks[2])]
    for offset, block in layout:
        f = len(block)
        for i in range(f):
            for k in range(f):
                expected[offset + i][offset + k] = block[i][k]
    zero_poly = MultiPoly.zero(group.variables(), field)
    for i in range(n):
        for j in range(n):
            want = expected[i][j] if expected[i][j] is not None else zero_poly
            if conj[i][j] != want:
                raise VerificationError(f"conjugated matrix mismatch at ({i},{j})")
    det_m = m_block[0][0] * m_block[1][1] - m_block[0][1] * m_block[1][0]
    det_a = symbolic_det(a)
    if det_a != l0 * l1 * det_m * det_m:
        raise VerificationError("determinant does not equal L0 * L1 * (det M)^2")
    return S3BlockDiagonalization(
        group,
        tuple(tuple(row) for row in p),
        l0,
        l1,
        tuple(tuple(row) for row in m_block),
        det_m,
        tuple(tuple(row) for row in conj),
    )


# ---------------------------------------------------------------------------
# The recursively-extended-character factor of one representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrobeniusPolynomial:
    """Both constructions of the degree-f factor of one representation.

    ``polynomial`` is the power-sum normal form (the one that divides the
    group determinant); ``tuple_sum`` is the raw f-fold tuple sum, which
    equals ratio * polynomial for a constant ratio, also reported.
    """

    polynomial: MultiPoly
    tuple_sum: MultiPoly
    ratio: CycloElem


def _exponent_patterns(f: int) -> list[tuple[int, ...]]:
    """All (a_1, ..., a_f) with a_i >= 0 and sum i * a_i = f."""
    out = []

    def rec(i: int, remaining: int, acc: list):
        if i > f:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for a in range(remaining // i + 1):
            rec(i + 1, remaining - i * a, acc + [a])

    rec(1, f, [])
    return out


def _tuple_sum(k: int, coefficient, variables, field) -> MultiPoly:
    """sum over k-tuples t of elements of coefficient(t) X_(t_1) ... X_(t_k),
    its monomials packed as they are summed."""
    packing = Packing(len(variables), k)
    units = [1 << s for s in packing.shifts]
    terms: dict = {}
    for combo in itertools.product(range(len(variables)), repeat=k):
        c = coefficient(combo)
        if c:
            key = sum([units[idx] for idx in combo])
            terms[key] = terms[key] + c if key in terms else c
    return MultiPoly(variables, {m: c for m, c in terms.items() if c}, field, packing)


_PSI_DEGREE_CAP = 3


def frobenius_polynomial(rep: Representation) -> FrobeniusPolynomial:
    """The homogeneous degree-f determinant factor of an irreducible rep.

    Computes the power-sum form (authoritative) and the raw tuple-sum
    form, and measures the constant ratio between them.
    """
    f = rep.degree
    if f > _PSI_DEGREE_CAP:
        raise PreconditionError(f"representation degree {f} exceeds cap {_PSI_DEGREE_CAP}")
    group = rep.group
    field = rep.field
    variables = group.variables()
    char = TupleCharacter.from_representation(rep)
    sign = field.from_int((-1) ** f)

    # power sums S_k = sum over k-tuples of chi(s_1 ... s_k) X_(s_1) ... X_(s_k)
    power_sums = {
        k: _tuple_sum(k, lambda t: char.values[reduce(group.mul, t)], variables, field)
        for k in range(1, f + 1)
    }

    psi = MultiPoly.zero(variables, field)
    for pattern in _exponent_patterns(f):
        coeff = Fraction(1)
        term = MultiPoly.constant(field.one, variables, field)
        for k, a_k in enumerate(pattern, start=1):
            if a_k == 0:
                continue
            coeff *= Fraction(1, (-k) ** a_k * factorial(a_k))
            term = term * power_sums[k] ** a_k
        psi = psi + term.scale(field.from_rational(coeff))
    psi = psi.scale(sign)

    # raw tuple-sum form from the extended character
    raw = _tuple_sum(f, char.value, variables, field).scale(sign)

    if not psi.is_homogeneous(f):
        raise VerificationError("factor is not homogeneous of the right degree")
    exp0, c0 = next(iter(psi.terms.items()))
    ratio = raw.coefficient(exp0) / c0
    if raw != psi.scale(ratio):
        raise VerificationError("tuple-sum form is not proportional to the power-sum form")
    return FrobeniusPolynomial(psi, raw, ratio)


def frobenius_factorization(group: FiniteGroup, reps) -> FactoredDeterminant:
    """det A_G = product of psi_rho^deg(rho) over a complete set of irreducibles.

    Completeness is enforced by sum of squared degrees = |G|; the product
    identity is checked by factorize.verify_product_identity on the
    group's own matrix: symbolically for |G| <= 6, at fixed pseudorandom
    points beyond.
    """
    reps = tuple(reps)
    n = group.order
    if sum(r.degree ** 2 for r in reps) != n:
        raise PreconditionError(
            "representation set is incomplete: sum of squared degrees != group order"
        )
    fields = {r.field for r in reps}
    if len(fields) != 1:
        raise PreconditionError("all representations must share one coefficient field")
    field = reps[0].field
    entries = tuple(
        FactorEntry(
            poly=frobenius_polynomial(rep).polynomial,
            multiplicity=rep.degree,
            claimed_irreducible=True,
            label=rep.name,
        )
        for rep in reps
    )
    fd = FactoredDeterminant(field, group.variables(), entries)
    return replace(fd, verification=verify_product_identity(
        fd, lambda values, _field: group.group_matrix(values)))
