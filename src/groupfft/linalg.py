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
into an element of the caller's F_p.  Over a small F_p[Y]/(m), one with
:func:`groupfft.rings.log_tables`, the same elimination runs on
logarithms: a cell update x - f * y is two int additions and one Zech
table lookup, a pivot inverse a negated log, and the determinant the sum
of the pivot logs plus one log(-1) per row swap, wrapped back into the
caller's descriptor.  Every other field (towers, Q and Q(zeta_d), larger
F_{p^r}) eliminates on its elements.  The determinant and rank keep one
elimination loop each; only the row update and the final product depend
on how the working copy holds its entries.  Shape checks raise
PreconditionError, under ``python -O`` too.
"""

from __future__ import annotations

from .errors import NotInvertible, PreconditionError
from .rings import PrimeField, PrimeFieldElem, log_tables, zech_sum


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
    """A mutable copy of the matrix, and the kernel its entries are held in.

    Over F_p the kernel is p and the copy holds the int residue of each
    entry; over a small F_p[Y]/(m) it is the field's
    :class:`~groupfft.rings.LogTables` and the copy holds logs; otherwise
    it is None and the copy holds the entries themselves.  In all three a
    held value is nonzero exactly when it is truthy.
    """
    if isinstance(field, PrimeField):
        return [
            [x.residue if x.__class__ is PrimeFieldElem and x.field is field
             else field.residue_of(x) for x in row]
            for row in rows
        ], field.p
    tables = log_tables(field)
    if tables is not None:
        return [[tables.log_of(x, field) for x in row] for row in rows], tables
    return [list(row) for row in rows], None


def _eliminate_below(m, top, col, field, kernel):
    """Pivot on the nonzero m[top][col]: subtract multiples of row top from
    every row below it so that their column col vanishes.

    Only the live trailing block, the columns right of col, is written;
    col itself is never read again.  Entries are held as _working_copy
    holds them: field elements (kernel None), int residues mod p (kernel
    p), or logs (kernel the LogTables).  On logs, x - f * y is the Zech
    sum of x and (-f) * y, and the log of -f = -x0 / pivot is
    log(-1) + log x0 - log pivot, once per row.
    """
    pivot_row = m[top]
    live = pivot_row[col + 1:]
    if kernel is None:
        inv_p = field.inv(pivot_row[col])
        for row in m[top + 1:]:
            if row[col]:
                f = row[col] * inv_p
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], live)]
    elif kernel.__class__ is int:
        p = kernel
        inv_p = pow(pivot_row[col], -1, p)
        for row in m[top + 1:]:
            if row[col]:
                f = row[col] * inv_p % p
                row[col + 1:] = [(x - f * y) % p for x, y in zip(row[col + 1:], live)]
    else:
        zech, n = kernel.zech, kernel.n
        shift = kernel.neg_one - pivot_row[col]
        for row in m[top + 1:]:
            if row[col]:
                f = (row[col] + shift) % n  # the log of -row[col] / pivot
                row[col + 1:] = [zech_sum(x, f + y if y else 0, zech, n)
                                 for x, y in zip(row[col + 1:], live)]


def _signed_product(held, negate: bool, field, kernel):
    """The product of the held values, negated if negate, as an element of
    field (the very descriptor passed in)."""
    if kernel is None:
        out = field.one
        for x in held:
            out = out * x
        return -out if negate else out
    if kernel.__class__ is int:
        out = 1
        for x in held:
            out = out * x % kernel
        return PrimeFieldElem(-out if negate else out, field)
    # start at log 1 = n, so that an empty product is one
    return kernel.elem(sum(held, kernel.n) + negate * kernel.neg_one, field)


def mat_det(a, field):
    """Determinant by elimination with exact division.

    The result is an element of ``field`` itself (over F_p and a small
    F_{p^r}, of the very descriptor passed in); the input is not modified.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise PreconditionError("matrix is not square")
    m, kernel = _working_copy(a, field)
    pivots, negate = [], False
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            negate = not negate
        pivots.append(m[col][col])
        _eliminate_below(m, col, col, field, kernel)
    return _signed_product(pivots, negate, field, kernel)


def mat_rank(rows, field) -> int:
    """Rank by row reduction with exact division, over any field."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    _require_width(rows, n_cols, "rank")
    m, kernel = _working_copy(rows, field)
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        _eliminate_below(m, rank, col, field, kernel)
        rank += 1
        if rank == n_rows:
            break
    return rank
