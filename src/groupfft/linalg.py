"""Exact linear algebra over any of the implemented fields.

Matrices are lists (or tuples) of rows of field elements.  Inverse,
determinant and rank all use ordinary row reduction with exact division.
Determinant and rank update only the live trailing block, the columns
right of the pivot: the pivot column below the pivot is never read again,
so an n x n determinant costs sum k^2 = (n-1)n(2n-1)/6 cell updates (506
for n = 12, against 792 for whole rows).

Over F_p, determinant and rank read each entry's int residue once and run
that elimination on plain ints: a cell update is one ``(x - f * y) % p``
in a list comprehension and a pivot inverse is one ``pow(x, -1, p)``, so
no element object is made per cell.  Only the determinant is wrapped back
into an element of the caller's F_p.  Every other field eliminates on its
elements.  Shape checks raise PreconditionError, under ``python -O`` too.
"""

from __future__ import annotations

from .errors import NotInvertible, PreconditionError
from .rings import PrimeField, PrimeFieldElem


def identity_matrix(n: int, field) -> list[list]:
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def _require_width(rows, width: int, what: str):
    if any(len(row) != width for row in rows):
        raise PreconditionError(f"{what}: every row needs {width} entries")


def mat_mul(a, b, field) -> list[list]:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    _require_width(a, k, "left factor")
    _require_width(b, m, "right factor")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = field.zero
            for t in range(k):
                att = a[i][t]
                if att:
                    acc = acc + att * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_pow(a, k: int, field) -> list[list]:
    n = len(a)
    result = identity_matrix(n, field)
    base = [list(row) for row in a]
    while k:
        if k & 1:
            result = mat_mul(result, base, field)
        base = mat_mul(base, base, field)
        k >>= 1
    return result


def transpose(a) -> list[list]:
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_inverse(a, field) -> list[list]:
    """Gauss-Jordan inverse; raises NotInvertible on singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise PreconditionError("matrix is not square")
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity_matrix(n, field))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NotInvertible("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = field.inv(aug[col][col])
        aug[col] = [inv_p * x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _working_copy(rows, field):
    """A mutable copy of the matrix, and p over F_p (None otherwise).

    Over F_p the copy holds the int residue of each entry; otherwise it
    holds the entries themselves.
    """
    if isinstance(field, PrimeField):
        return [
            [x.residue if x.__class__ is PrimeFieldElem and x.field is field
             else field.residue_of(x) for x in row]
            for row in rows
        ], field.p
    return [list(row) for row in rows], None


def _eliminate_below(m, top, col, field, p):
    """Pivot on the nonzero m[top][col]: subtract multiples of row top from
    every row below it so that their column col vanishes.

    Only the live trailing block, the columns right of col, is written;
    col itself is never read again.  Entries are int residues mod p, or
    field elements when p is None.
    """
    pivot_row = m[top]
    live = pivot_row[col + 1:]
    if p is None:
        inv_p = field.inv(pivot_row[col])
        for row in m[top + 1:]:
            if row[col]:
                f = row[col] * inv_p
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], live)]
    else:
        inv_p = pow(pivot_row[col], -1, p)
        for row in m[top + 1:]:
            if row[col]:
                f = row[col] * inv_p % p
                row[col + 1:] = [(x - f * y) % p for x, y in zip(row[col + 1:], live)]


def mat_det(a, field):
    """Determinant by elimination with exact division.

    The result is an element of ``field`` itself (over F_p, of the very
    descriptor passed in); the input is not modified.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise PreconditionError("matrix is not square")
    m, p = _working_copy(a, field)
    det = field.one if p is None else 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        _eliminate_below(m, col, col, field, p)
    return det if p is None else PrimeFieldElem(det, field)


def mat_rank(rows, field) -> int:
    """Rank by row reduction with exact division, over any field."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    _require_width(rows, n_cols, "rank")
    m, p = _working_copy(rows, field)
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        _eliminate_below(m, rank, col, field, p)
        rank += 1
        if rank == n_rows:
            break
    return rank
