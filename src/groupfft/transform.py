"""The finite Fourier transform pair on a finite abelian group, and friends.

The forward transform maps a vector b indexed by group elements to
B_chi = sum_sigma chi(sigma) b_sigma, indexed by characters; the inverse
divides by n and uses chi(sigma^-1).  Group matrices (b_{tau^-1 sigma})
are diagonalized by the character matrix, which yields the group-ring
idempotents, the circulant shift algebra, interpolation at roots of
unity, and the weight-rank identity.  A group matrix is n translates of
one row: ``group_matrix`` gathers its n^2 entries by
:meth:`groupfft.abelian.AbelianGroup.difference_table`, and
``blahut_weight`` never builds it, ranking the n transform values
through :func:`groupfft.linalg.group_rank`.

Everything here is exact and field-agnostic: vectors may hold field
elements or MultiPoly values (for symbolic identities).

``fft`` and ``inverse_fft`` are fast.  The characters of
C_{d_1} x ... x C_{d_k} factor, chi(sigma) = prod_i zeta_{d_i}^(chi_i sigma_i),
so the transform is a 1-D DFT along each cyclic factor of the
lexicographic array (row-column).  A 1-D DFT of length m is decimated in
time on the smallest prime p dividing m, at m (p - 1) scaled additions
per level, down to leaf lines of length m', each one product by its
m' x m' DFT matrix: m' scaled additions per output.  A leaf has prime
length, or, on held ints, length at most ``rings.DFT_LEAF``.  Per factor
that is n (sum(p_i - 1) + m') over its radix levels p_i and its leaf
length m', instead of n^2 for the whole transform.  ``convolve`` is one
product in the group ring, which needs neither a root of unity nor an
invertible n: one big-int product of the two held vectors.  The O(n^2)
sums are kept as ``fft_reference``, ``inverse_fft_reference`` and
``convolve_reference``: the auditable oracles that tests and the CLI's
``--verify`` compare the fast path against (and ``convolve`` on towers
and MultiPoly vectors); the first two are products by the character
matrix and its inverse, as are the idempotents and the interpolation at
roots of unity.

The transforms run on the field's kernel (:func:`groupfft.rings.kernel`)
and the root table of the group exponent
(:func:`groupfft.rings.root_table`): the kernel holds the entries once,
runs :class:`groupfft.rings.ResidueDFT` on them and releases each output
once, the 1/n of an inverse folded in; towers and MultiPoly vectors are
held as their entries, with the root table as twiddles.  ``fft_many``
and ``inverse_fft_many`` transform a batch of vectors over one group and
one field in one such call: the vectors lie back to back along a leading
batch axis that the row-column pass does not transform, so the batch
pays one hold, one root-table lookup and one release, and a
Kronecker-packed batch is as wide as its widest vector.  ``fft`` and
``inverse_fft`` are the batch of one.  Int entries,
and over Q and Q(zeta_d) Fraction entries, are read as field elements on
every path; any other entry that is not an element of the field or a
MultiPoly over it (an element of another field, a float) raises
RingMismatch, in the references too (:func:`groupfft.rings.field_entries`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul

from .abelian import AbelianGroup, character_matrix, character_matrix_inverse
from .cyclotomic import splitting_field
from .errors import PreconditionError, RingMismatch, VerificationError
from .linalg import group_rank, mat_eq, mat_mul, mat_pow, transpose
from .multipoly import MultiPoly
from .rings import UniPoly, field_entries, kernel, root_table


@dataclass(frozen=True)
class GroupVector:
    """Values indexed by group elements (dual=False) or by characters
    (dual=True), stored in the canonical lexicographic order."""

    group: AbelianGroup
    field: object
    values: tuple
    dual: bool = False

    def __post_init__(self):
        if len(self.values) != self.group.order:
            raise PreconditionError(
                f"expected {self.group.order} values, got {len(self.values)}"
            )

    def hamming_weight(self) -> int:
        return sum(1 for v in self.values if v)

    def __add__(self, other: "GroupVector") -> "GroupVector":
        if (self.group, self.dual) != (other.group, other.dual):
            raise PreconditionError("vector shape mismatch")
        return GroupVector(
            self.group, self.field,
            tuple(a + b for a, b in zip(self.values, other.values)), self.dual,
        )


@dataclass(frozen=True)
class GroupMatrix:
    """n x n matrix in canonical element (or character) order."""

    group: AbelianGroup
    field: object
    entries: tuple
    dual: bool = False

    def rows(self) -> list[list]:
        return [list(r) for r in self.entries]


def _require_invertible_order(group: AbelianGroup, field):
    char = field.characteristic
    if char and group.order % char == 0:
        raise PreconditionError(
            f"group order {group.order} is not invertible in characteristic {char}"
        )


def fft(b: GroupVector) -> GroupVector:
    """Forward transform: B_chi = sum_sigma chi(sigma) b_sigma.

    Row-column over the cyclic factors on the field's kernel (see the
    module docstring), as the batch of one of ``fft_many``;
    ``fft_reference`` is the direct sum.
    """
    return fft_many([b])[0]


def inverse_fft(B: GroupVector) -> GroupVector:
    """Inverse transform: b_sigma = (1/n) sum_chi chi(sigma^-1) B_chi.

    Same fast path as ``fft`` with the conjugate root table, as the batch
    of one of ``inverse_fft_many``; ``inverse_fft_reference`` is the
    direct sum.
    """
    return inverse_fft_many([B])[0]


def fft_many(vectors) -> list[GroupVector]:
    """The forward transforms of a sequence of group-side vectors over
    one group and one field, in one kernel call: one hold, one
    ResidueDFT run along a batch axis that is not transformed, and one
    release."""
    return _transformed(vectors, False)


def inverse_fft_many(spectra) -> list[GroupVector]:
    """The inverse transforms of dual-side vectors over one group and one
    field, in one kernel call, as ``fft_many``."""
    return _transformed(spectra, True)


def _transformed(vectors, inverse: bool) -> list[GroupVector]:
    """The kernel's transforms of a nonempty batch of vectors over one
    group and one field, all on the group side (with inverse, the dual
    side), held back to back and split back into vectors on the other
    side; PreconditionError for any other batch."""
    if not vectors:
        raise PreconditionError("a batch of transforms needs at least one vector")
    first = vectors[0]
    group, field = first.group, first.field
    for v in vectors:
        if v.dual != inverse:
            raise PreconditionError("input is not on the dual side" if inverse
                                    else "input is already on the dual side")
        if v.group is not group and v.group != group:
            raise PreconditionError(f"a batch over {group} holds a vector over {v.group}")
        if v.field is not field:
            raise RingMismatch(f"a batch over {field} holds a vector over {v.field}")
    if inverse:
        _require_invertible_order(group, field)
    # a batch of one is neither joined nor split: the kernel call is the same
    joined = len(vectors) > 1
    values = [x for v in vectors for x in v.values] if joined else first.values
    out = kernel(field).dft(values, group.divisors, inverse)
    if not joined:
        return [GroupVector(group, field, tuple(out), not inverse)]
    n = group.order
    return [GroupVector(group, field, tuple(out[i:i + n]), not inverse)
            for i in range(0, len(out), n)]


def _dot(column, values):
    """sum_i column[i] * values[i], summed in order."""
    return reduce(add, map(mul, column, values))


def fft_reference(b: GroupVector) -> GroupVector:
    """The forward transform as the direct O(n^2) product by the character matrix."""
    if b.dual:
        raise PreconditionError("input is already on the dual side")
    group, field = b.group, b.field
    values = field_entries(b.values, field)
    columns = zip(*character_matrix(group, field))
    return GroupVector(group, field, tuple(_dot(c, values) for c in columns), dual=True)


def inverse_fft_reference(B: GroupVector) -> GroupVector:
    """The inverse transform as the direct O(n^2) product by its inverse."""
    if not B.dual:
        raise PreconditionError("input is not on the dual side")
    group, field = B.group, B.field
    _require_invertible_order(group, field)
    values = field_entries(B.values, field)
    columns = zip(*character_matrix_inverse(group, field))
    return GroupVector(group, field, tuple(_dot(c, values) for c in columns), dual=False)


def group_matrix(b: GroupVector) -> GroupMatrix:
    """M(b) with entry (row tau, column sigma) = b_{tau^-1 sigma}.

    For a cyclic group this is the circulant with first row b.  On the
    dual side, characters multiply by the same rule on residue tuples, so
    the entry (row psi, column chi) is B_{psi^-1 chi} by the same indices.

    The indices of tau^-1 sigma in the canonical order are read off
    :meth:`groupfft.abelian.AbelianGroup.difference_table`, with no group
    lookup.
    """
    values = b.values
    rows = tuple(tuple([values[k] for k in row]) for row in b.group.difference_table())
    return GroupMatrix(b.group, b.field, rows, dual=b.dual)


def dual_matrix(B: GroupVector) -> GroupMatrix:
    """The dual-side matrix with entry (row psi, column chi) = B_{psi^-1 chi}."""
    if not B.dual:
        raise PreconditionError("dual_matrix needs a dual-side vector")
    return group_matrix(B)


def _require_convolvable(a: GroupVector, b: GroupVector):
    if a.group != b.group or a.dual or b.dual:
        raise PreconditionError("convolution needs two group-side vectors on one group")
    if a.field is not b.field:
        raise RingMismatch(f"convolution of vectors over {a.field} and {b.field}")


def convolve(a: GroupVector, b: GroupVector) -> GroupVector:
    """Group-ring convolution: (a * b)_rho = sum over sigma tau = rho, as
    one big-int product of the kernel's held vectors
    (:func:`groupfft.rings.cyclic_product`); towers and MultiPoly vectors,
    which it does not hold as ints, take ``convolve_reference``."""
    _require_convolvable(a, b)
    group, field = a.group, a.field
    try:
        out = kernel(field).convolve(a.values, b.values, group.divisors)
    except RingMismatch:
        return convolve_reference(a, b)
    return GroupVector(group, field, tuple(out))


def convolve_reference(a: GroupVector, b: GroupVector) -> GroupVector:
    """Group-ring convolution as the direct O(n^2) sum; valid in any field.
    An output with no nonzero product is the zero of the entries' kind: a
    zero MultiPoly where the vectors hold one, else the field's zero."""
    _require_convolvable(a, b)
    group, field = a.group, a.field
    a_values, b_values = field_entries(a.values, field), field_entries(b.values, field)
    elements = group.elements()
    out = [None] * group.order
    for sigma in elements:
        va = a_values[group.index(sigma)]
        if not va:
            continue
        for tau in elements:
            vb = b_values[group.index(tau)]
            if not vb:
                continue
            k = group.index(group.mul(sigma, tau))
            term = va * vb
            out[k] = term if out[k] is None else out[k] + term
    zero = field.zero
    if any(isinstance(v, MultiPoly) for v in a_values + b_values):
        zero = MultiPoly.zero((), field)
    return GroupVector(group, field, tuple(zero if v is None else v for v in out))


def diagonalize(b: GroupVector) -> tuple:
    """Eigenvalues of M(b): verifies P^-1 M(b) P is diagonal, returns the diagonal.

    The diagonal equals the forward transform of b, in character order.
    A failed check raises VerificationError, also under ``python -O``.
    """
    group, field = b.group, b.field
    _require_invertible_order(group, field)
    p = character_matrix(group, field)
    p_inv = character_matrix_inverse(group, field)
    m = group_matrix(b).rows()
    conj = mat_mul(mat_mul(p_inv, m, field), p, field)
    n = group.order
    expected = fft(b)
    for i in range(n):
        for j in range(n):
            if i == j:
                _assert_same(conj[i][j], expected.values[j], "diagonal mismatch")
            else:
                _assert_zero(conj[i][j], "off-diagonal entry is nonzero")
    return expected.values


def dual_diagonalize(b: GroupVector) -> tuple:
    """Dual-side identity: tP^-1 M^(B) tP = n * Diag(b at sigma^-1).

    Returns that diagonal (indexed by elements in canonical order).  A
    failed check raises VerificationError, also under ``python -O``.
    """
    group, field = b.group, b.field
    _require_invertible_order(group, field)
    B = fft(b)
    mhat = dual_matrix(B).rows()
    tp = transpose(character_matrix(group, field))
    tp_inv = transpose(character_matrix_inverse(group, field))
    conj = mat_mul(mat_mul(tp_inv, mhat, field), tp, field)
    n_elem = field.from_int(group.order)
    elements = group.elements()
    diag = []
    for i, sigma in enumerate(elements):
        expected = n_elem * b.values[group.index(group.inverse(sigma))]
        for j in range(group.order):
            if i == j:
                _assert_same(conj[i][j], expected, "dual diagonal mismatch")
            else:
                _assert_zero(conj[i][j], "dual off-diagonal entry is nonzero")
        diag.append(expected)
    return tuple(diag)


def _assert_same(got, expected, message):
    if got != expected:
        raise VerificationError(f"{message}: {got!r} != {expected!r}")


def _assert_zero(x, message):
    if x:
        raise VerificationError(message)


def symbolic_vector(group: AbelianGroup, field) -> GroupVector:
    """The generic vector of variables X_<label>; M of it is the group matrix."""
    variables = group_variables(group)
    values = tuple(
        MultiPoly.variable(f"X_{group.element_label(a)}", variables, field)
        for a in group.elements()
    )
    return GroupVector(group, field, values)


@lru_cache(maxsize=None)
def group_variables(group: AbelianGroup) -> tuple[str, ...]:
    """X_<residues> for each element, in the canonical order; kept per group."""
    return tuple(f"X_{group.element_label(a)}" for a in group.elements())


def blahut_weight(b: GroupVector) -> int:
    """Hamming weight of b as the rank of the dual-side matrix of its transform.

    The rank is taken over the coefficient field itself; if the supplied
    field lacks the required root of unity, the computation is lifted to
    the minimal splitting field (which cannot change the rank).  Every
    row of the dual-side matrix, entries B_{psi^-1 chi}, is a translate
    of one row, so it is eliminated from the n transform values
    (:func:`groupfft.linalg.group_rank`): over F_p one packed row and its
    translates, elsewhere each value held once and gathered; the n x n
    matrix of ``dual_matrix`` is never built.
    """
    group, field = b.group, b.field
    _require_invertible_order(group, field)
    big, embed = splitting_field(field, group.exponent)
    if big is not field:
        b = GroupVector(group, big, tuple(embed(v) for v in b.values), b.dual)
    return group_rank(fft(b).values, group, big)


def group_idempotents(group: AbelianGroup, field) -> list[GroupVector]:
    """Orthogonal idempotents e_chi = (1/n) sum_sigma chi^-1(sigma) sigma.

    Returned in canonical character order; they satisfy
    e_chi * e_psi = delta * e_chi under convolution and sum to the
    identity indicator.
    """
    _require_invertible_order(group, field)
    return [
        GroupVector(group, field, tuple(row))
        for row in character_matrix_inverse(group, field)
    ]


def shift_matrix(n: int, field) -> GroupMatrix:
    """The circulant K with first row (0, 1, 0, ..., 0); K^n = I."""
    group = AbelianGroup.cyclic(n)
    values = tuple(
        field.one if i == (1 % n) else field.zero for i in range(n)
    )
    return group_matrix(GroupVector(group, field, values))


def circulant_idempotent_matrices(n: int, field) -> list[list[list]]:
    """The matrices E_h = (1/n) sum_l zeta^(-h l) K^l, h = 0..n-1."""
    group = AbelianGroup.cyclic(n)
    return [group_matrix(e).rows() for e in group_idempotents(group, field)]


def shift_power_from_idempotents(n: int, field, h: int) -> list[list]:
    """Reconstruct K^h as sum_l zeta^(h l) E_l and verify the identity
    (VerificationError, also under ``python -O``)."""
    powers = root_table(n, field)
    es = circulant_idempotent_matrices(n, field)
    acc = None
    for ell, e_mat in enumerate(es):
        c = powers[h * ell % n]
        scaled = [[c * x for x in row] for row in e_mat]
        acc = scaled if acc is None else [
            [a + s for a, s in zip(ra, rs)] for ra, rs in zip(acc, scaled)
        ]
    k = shift_matrix(n, field).rows()
    expected = mat_pow(k, h, field)
    if not mat_eq(acc, expected):
        raise VerificationError("shift-power reconstruction identity failed")
    return acc


def interpolate_at_roots_of_unity(targets, field) -> UniPoly:
    """Unique P of degree <= n-1 with P(zeta^h) = targets[h] for all h.

    Built as sum_h targets[h] * P_h with P_h = (1/n) sum_l zeta^(-h l) X^l,
    the polynomial that is 1 at zeta^h and 0 at the other n-th roots: a
    product by the inverse character matrix of C_n.  Targets are read as
    the transforms read their entries: an int (and over Q and Q(zeta_d) a
    Fraction) as a field element, and a value of another field raises
    RingMismatch.
    """
    targets = field_entries(targets, field)
    n = len(targets)
    if n < 1:
        raise PreconditionError("need at least one target value")
    if field.characteristic and n % field.characteristic == 0:
        raise PreconditionError("n is not invertible in the field")
    columns = zip(*character_matrix_inverse(AbelianGroup.cyclic(n), field))
    result = UniPoly.make([_dot(c, targets) for c in columns], field)
    powers = root_table(n, field)
    for h, bh in enumerate(targets):
        if result.evaluate(powers[h]) != bh:
            raise VerificationError(f"interpolant misses its target at zeta^{h}")
    return result
