"""Exact linear algebra over any of the implemented fields.

Matrices are lists (or tuples) of rows of field elements.  Inverse,
determinant and rank all use ordinary row reduction with exact division,
the same algorithm over every field.  Determinant and rank update only
the live trailing block, the columns right of the pivot: the pivot column
below the pivot is never read again, so an n x n determinant costs
sum k^2 = (n-1)n(2n-1)/6 element updates (506 for n = 12, against 792
for whole rows).
"""

from __future__ import annotations

from .errors import NotInvertible, PreconditionError


def identity_matrix(n: int, field) -> list[list]:
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def mat_mul(a, b, field) -> list[list]:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
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


def mat_det(a, field):
    """Determinant by elimination with exact division."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise PreconditionError("matrix is not square")
    m = [list(row) for row in a]
    det = field.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv_p = field.inv(m[col][col])
        live = m[col][col + 1:]
        for r in range(col + 1, n):
            row = m[r]
            if row[col]:
                f = row[col] * inv_p
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], live)]
    return det


def mat_rank(rows, field) -> int:
    """Rank by row reduction with exact division, over any field."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv_p = field.inv(m[rank][col])
        live = m[rank][col + 1:]
        for r in range(rank + 1, n_rows):
            row = m[r]
            if row[col]:
                f = row[col] * inv_p
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], live)]
        rank += 1
        if rank == n_rows:
            break
    return rank
