"""Exact linear algebra over any of the implemented fields.

Matrices are lists (or tuples) of rows of field elements.  Inverse,
determinant and rank all use row reduction with exact arithmetic: the
inverse and, over every field but Q, the determinant and rank divide by
the pivot; over Q they eliminate fraction-free (Bareiss), on integer
rows with an exact integer division by the previous pivot.  Determinant
and rank run on the field's :func:`groupfft.rings.kernel`, which holds
the working copy, finds each pivot (``pivot``), clears the column below
it (``eliminate_below``) and reads the determinant off the copy, in the
caller's descriptor; the one driver here, ``_echelon``, shared by the
determinant, the rank and :func:`left_nullspace`, only swaps rows and
counts the swaps.  A determinant is zero when the rank falls short.
Over F_p each row is one packed int, entry j in the W-bit slot j: a row
below the pivot takes one big-int multiply-add per pivot, so an n x n
determinant costs at most n(n-1)/2 of them, and is reduced mod p only
when it becomes the pivot row, O(n) per pivot.  A row takes at most K =
min(rows, cols) updates, each adding at most (p - 1)^2 to a slot, so W,
the bit length of (p - 1) + K (p - 1)^2, keeps every slot from carrying
into the next.  Elsewhere the kernel updates only the live trailing
block, the columns right of the pivot (int logarithms over a small
F_{p^r}, scaled integer rows over Q, elements otherwise): an n x n
determinant costs sum k^2 = (n-1)n(2n-1)/6 cell updates.
:func:`group_det` and :func:`group_rank` eliminate the group matrix of
a finite abelian group, entry (tau, sigma) = b_{sigma - tau}, from its
n values: the kernel's ``group_copy`` holds each value once and is the
working copy ``working_copy`` makes of the n x n rows.  Over F_p the n
residues are packed once into row 0, and row tau is its translate by
tau, one masked rotation per cyclic factor
(:meth:`groupfft.abelian.AbelianGroup.translates`); elsewhere the held
values are gathered by the group's difference table.
:func:`left_nullspace` runs ``_echelon`` on the rows with an identity
block beside them and reads the rows whose left block vanished back
through the kernel (``read_row``).  Shape checks raise
PreconditionError, under ``python -O`` too.
"""

from __future__ import annotations

from .errors import NotInvertible, PreconditionError
from .rings import kernel, square_and_multiply


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
    if not k:
        return identity_matrix(len(a), field)
    return square_and_multiply([list(row) for row in a], k,
                               lambda x, y: mat_mul(x, y, field))


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


def _echelon(kern, m, n_cols: int) -> tuple[int, bool]:
    """Bring the kernel's working copy m to row echelon form over its
    first n_cols columns: (rank, whether an odd number of row swaps)."""
    rank, swaps_odd = 0, False
    for col in range(n_cols):
        if rank == len(m):
            break
        pivot = kern.pivot(m, rank, col)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            swaps_odd = not swaps_odd
        kern.eliminate_below(m, rank, col)
        rank += 1
    return rank, swaps_odd


def mat_det(a, field):
    """Determinant by elimination on the field's kernel.

    The result is an element of the very descriptor ``field``; the input
    is not modified.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise PreconditionError("matrix is not square")
    kern = kernel(field)
    return _determinant(kern, kern.working_copy(a), n, field)


def _determinant(kern, m, n: int, field):
    """The determinant of the n x n working copy m, in field."""
    rank, negate = _echelon(kern, m, n)
    return field.zero if rank < n else kern.determinant(m, negate)


def mat_rank(rows, field) -> int:
    """Rank by row reduction on the field's kernel, over any field."""
    n_cols = len(rows[0]) if rows else 0
    _require_width(rows, n_cols, "rank")
    kern = kernel(field)
    return _echelon(kern, kern.working_copy(rows), n_cols)[0]


def group_det(values, group, field):
    """mat_det of the group matrix of values (entry (tau, sigma) =
    values[sigma - tau], values in the canonical order of the finite
    abelian group), eliminated on the kernel's ``group_copy``, which
    holds the n values once and builds no n x n matrix."""
    _require_width([values], group.order, "group matrix")
    kern = kernel(field)
    return _determinant(kern, kern.group_copy(values, group), group.order, field)


def group_rank(values, group, field) -> int:
    """mat_rank of the group matrix of values, as :func:`group_det`
    eliminates it."""
    _require_width([values], group.order, "group matrix")
    kern = kernel(field)
    return _echelon(kern, kern.group_copy(values, group), group.order)[0]


def left_nullspace(rows, field) -> list[list]:
    """A basis of the vectors v with sum_i v_i rows[i] = 0, over any field.

    One elimination on the field's kernel of the rows with an identity
    block beside them: each row whose left block the elimination clears
    carries, in its identity block, a combination of the input rows that
    vanishes, and those rows are independent.  The basis has len(rows)
    minus the rank vectors, of len(rows) field elements each; it is empty
    for rows of full row rank.  Ragged rows raise PreconditionError.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    _require_width(rows, n_cols, "left nullspace")
    zero, one = field.zero, field.one
    kern = kernel(field)
    m = kern.working_copy([
        list(row) + [one if j == i else zero for j in range(n_rows)]
        for i, row in enumerate(rows)
    ])
    rank = _echelon(kern, m, n_cols)[0]
    return [kern.read_row(m, i, n_cols) for i in range(rank, n_rows)]
