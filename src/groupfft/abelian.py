"""Finite abelian groups as products of cyclic groups, their duals and characters.

Elements and characters are residue tuples; the canonical ordering used by
every matrix in the library is lexicographic on those tuples.  Characters
are represented additively and only evaluated into a concrete field when
one is supplied, through the pairing exponent

    t(sigma, chi) = sum_i  chi_i * sigma_i * (e / d_i)   (mod e),

where e is the group exponent; the character value is zeta_e ** t, read
off the field's :func:`groupfft.rings.root_table`.  Every O(n^2) sum of
character values is a product by one of the two character matrices.
Every group-indexed n x n table, the pairing exponents of
:meth:`AbelianGroup.pairing_table`, the sums of :meth:`AbelianGroup.sum_table`
and the group-matrix indices of :meth:`AbelianGroup.difference_table`
alike, is a sum of one d_i x d_i table per cyclic factor, built by the
one :func:`factorwise_table`; ``pairing_exponent`` is the formula for one
entry.  A vector packed into one int, entry j in field j, is translated
by every element at once by :meth:`AbelianGroup.translates`, one masked
rotation per cyclic factor: the rows of a packed group matrix, and the
translates of a packed monomial.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from .errors import PreconditionError, VerificationError
from .numtheory import invariant_factors
from .rings import root_table


@dataclass(frozen=True)
class GroupElement:
    residues: tuple[int, ...]


@dataclass(frozen=True)
class Character:
    """Element of the dual group, identified component-wise."""

    residues: tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    """Product C_{d_1} x ... x C_{d_k} of cyclic groups.

    Any tuple of cyclic orders is accepted; ``normalized()`` converts to
    the invariant-factor chain d_1 | d_2 | ... | d_k.
    """

    divisors: tuple[int, ...]

    def __post_init__(self):
        if not self.divisors or any(d < 1 for d in self.divisors):
            raise PreconditionError(f"invalid cyclic orders {self.divisors}")

    @staticmethod
    def cyclic(n: int) -> "AbelianGroup":
        return AbelianGroup((n,))

    @property
    def order(self) -> int:
        n = 1
        for d in self.divisors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return lcm(*self.divisors)

    def normalized(self) -> "AbelianGroup":
        return AbelianGroup(invariant_factors(self.divisors))

    # -- elements -------------------------------------------------------------

    def _residue_tuples(self):
        return itertools.product(*map(range, self.divisors))

    def elements(self) -> list[GroupElement]:
        """All elements in lexicographic order of residue tuples."""
        return [GroupElement(t) for t in self._residue_tuples()]

    def characters(self) -> list[Character]:
        return [Character(t) for t in self._residue_tuples()]

    @property
    def identity(self) -> GroupElement:
        return GroupElement((0,) * len(self.divisors))

    def _check_tuple(self, residues: tuple[int, ...]):
        if len(residues) != len(self.divisors) or any(
            not 0 <= r < d for r, d in zip(residues, self.divisors)
        ):
            raise PreconditionError(f"{residues} is not valid for {self}")

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check_tuple(a.residues)
        self._check_tuple(b.residues)
        return GroupElement(
            tuple((x + y) % d for x, y, d in zip(a.residues, b.residues, self.divisors))
        )

    def inverse(self, a: GroupElement) -> GroupElement:
        self._check_tuple(a.residues)
        return GroupElement(tuple((-x) % d for x, d in zip(a.residues, self.divisors)))

    def char_mul(self, a: Character, b: Character) -> Character:
        return Character(
            tuple((x + y) % d for x, y, d in zip(a.residues, b.residues, self.divisors))
        )

    def index(self, a: GroupElement | Character) -> int:
        """Position of an element or character in the canonical order (mixed radix)."""
        self._check_tuple(a.residues)
        idx = 0
        for r, d in zip(a.residues, self.divisors):
            idx = idx * d + r
        return idx

    char_index = index

    def element_label(self, a: GroupElement) -> str:
        return "_".join(str(r) for r in a.residues)

    # -- the pairing ------------------------------------------------------------

    def pairing_exponent(self, a: GroupElement, chi: Character) -> int:
        """t with chi(a) = zeta_e ** t, e the group exponent; one entry of pairing_table."""
        self._check_tuple(a.residues)
        self._check_tuple(chi.residues)
        e = self.exponent
        t = 0
        for x, c, d in zip(a.residues, chi.residues, self.divisors):
            t += c * x * (e // d)
        return t % e

    def pairing_table(self) -> list[list[int]]:
        """The n x n table of pairing exponents, entry (i, j) the t of
        element i and character j in the canonical order.  The pairing is
        symmetric, so row i also holds character i's exponents."""
        e = self.exponent
        tables = [[[x * y * (e // d) for y in range(d)] for x in range(d)] for d in self.divisors]
        return [[t % e for t in row] for row in factorwise_table(tables)]

    def sum_table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n table of sums, entry (i, j) the canonical index of
        element i plus element j; characters multiply by the same rule.
        Built once per tuple of cyclic orders."""
        return _sum_table(self.divisors)

    def difference_table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n table of the group matrix's indices, entry (i, j) the
        canonical index of element j minus element i; characters divide
        by the same rule.  Built once per tuple of cyclic orders."""
        return _difference_table(self.divisors)

    def translation_steps(self, bits: int) -> tuple[tuple, ...]:
        """The translation of an int of n fields of the given bits, field
        j the entry of element j, by the unit residue tuple of each cyclic
        factor C_d, of mixed-radix weight w and index g = w (0 when
        d = 1): within each block of d * w fields, a rotation up by w
        fields, as (d, g, up, down, keep, wrap) with x -> ((x << up) &
        keep) | ((x >> down) & wrap).  Built once per tuple of cyclic
        orders and width; :func:`translates` applies them."""
        return _translation_steps(self.divisors, bits)

    def translates(self, x: int, bits: int) -> list[int]:
        """The translates of x, n fields of the given bits in canonical
        order, by every element h in canonical order: the entry of field
        j moves to field j + h."""
        return translates(x, self.translation_steps(bits))

    def galois_orbits(self, units) -> list[tuple[int, ...]]:
        """The orbits of chi -> u chi on the characters, u in units, a
        subgroup of (Z/eZ)^* (PreconditionError if a u is not prime to e,
        the exponent), as sorted tuples of char_index values ordered by
        least member; (Z/eZ)^* gives the galois orbits over Q, the powers
        of q those over F_q."""
        e = self.exponent
        if any(gcd(u, e) != 1 for u in units):
            raise PreconditionError(f"{units} are not all units modulo {e}")
        index = {t: i for i, t in enumerate(self._residue_tuples())}
        seen, out = set(), []
        for residues, i in index.items():
            if i not in seen:
                images = (tuple(u * r % d for r, d in zip(residues, self.divisors)) for u in units)
                out.append(tuple(sorted({index[x] for x in images})))
                seen.update(out[-1])
        return out

    def dual_group(self) -> "AbelianGroup":
        return AbelianGroup(self.divisors)

    def describe(self) -> str:
        return "x".join(f"C{d}" for d in self.divisors)

    def __repr__(self) -> str:
        return self.describe()


def factorwise_table(tables) -> list[list[int]]:
    """The n x n table with entry (s, t) = sum_i tables[i][s_i][t_i], s and t
    residue tuples in lexicographic order, from one d_i x d_i int table per
    cyclic factor, outer first: about n^2 int additions, no group lookup."""
    rows = [[0]]
    for table in tables:
        rows = [[k + offset for k in row for offset in terms] for row in rows for terms in table]
    return rows


@lru_cache(maxsize=None)
def _sum_table(divisors) -> tuple[tuple[int, ...], ...]:
    """AbelianGroup.sum_table: factorwise_table on ((s + t) mod d) * w, w
    the mixed-radix weight of the factor C_d."""
    weight, tables = 1, []
    for d in reversed(divisors):
        tables.append([[(s + t) % d * weight for t in range(d)] for s in range(d)])
        weight *= d
    return tuple(map(tuple, factorwise_table(tables[::-1])))


@lru_cache(maxsize=None)
def _difference_table(divisors) -> tuple[tuple[int, ...], ...]:
    """AbelianGroup.difference_table: factorwise_table on ((s - t) mod d) * w,
    w the mixed-radix weight of the factor C_d, t the row and s the column."""
    weight, tables = 1, []
    for d in reversed(divisors):
        tables.append([[(s - t) % d * weight for s in range(d)] for t in range(d)])
        weight *= d
    return tuple(map(tuple, factorwise_table(tables[::-1])))


@lru_cache(maxsize=None)
def _translation_steps(divisors, bits: int) -> tuple[tuple, ...]:
    """AbelianGroup.translation_steps."""
    order = prod(divisors)
    steps, weight, top = [], order, order * bits
    for d in divisors:
        weight //= d
        up, block = weight * bits, d * weight * bits
        starts = range(0, top, block)
        steps.append((d, 1 % d * weight, up, block - up,
                      sum(((1 << (block - up)) - 1) << (b + up) for b in starts),
                      sum(((1 << up) - 1) << b for b in starts)))
    return tuple(steps)


def translates(x: int, steps) -> list[int]:
    """The translates of the packed int x by every element h of the group,
    in the canonical order of h, by the steps of
    :meth:`AbelianGroup.translation_steps`: one masked rotation per
    translate and cyclic factor."""
    out = [x]
    for d, _, up, down, keep, wrap in steps:
        moved = []
        for y in out:
            for _ in range(d):
                moved.append(y)
                y = ((y << up) & keep) | ((y >> down) & wrap)
        out = moved
    return out


def parse_group(descriptor: str, normalize: bool = True) -> AbelianGroup:
    """Parse 'C6', 'C2xC3', 'C2xC2xC5' into a group.

    With normalize=True (the CLI default) the result is put into
    invariant-factor form, so C2xC3 becomes C6.
    """
    parts = descriptor.strip().split("x")
    orders = []
    for part in parts:
        m = re.fullmatch(r"[Cc](\d+)", part.strip())
        if not m:
            raise PreconditionError(f"bad group descriptor {descriptor!r}")
        orders.append(int(m.group(1)))
    group = AbelianGroup(tuple(orders))
    return group.normalized() if normalize else group


def bidual_identification(group: AbelianGroup) -> dict[GroupElement, Character]:
    """Canonical isomorphism from G onto the dual of its dual.

    Each element maps to the evaluation character chi -> chi(sigma); under
    the fixed pairing this is the identity on residue tuples.  The map is
    verified to be a group isomorphism compatible with the pairing.
    """
    dual = group.dual_group()
    elements = group.elements()
    mapping = {a: Character(a.residues) for a in elements}
    position = [dual.char_index(mapping[a]) for a in elements]
    # pairing compatibility: t(a, chi) = t'(chi, mapping[a]) in the dual's table
    dual_table = dual.pairing_table()
    columns = [[row[i] for row in dual_table] for i in position]
    if columns != group.pairing_table():
        raise VerificationError("bidual map does not respect the pairing")
    # a homomorphism: the image of a + g, read from the sum table, is the
    # product of the images of a and g, for every a and each generator g
    # (a unit residue tuple), and so the image of every sum
    gens = [i for i, a in enumerate(elements) if sum(a.residues) == 1]
    products = [[dual.char_index(dual.char_mul(mapping[a], mapping[elements[g]])) for g in gens]
                for a in elements]
    if products != [[position[row[g]] for g in gens] for row in group.sum_table()]:
        raise VerificationError("bidual map is not a homomorphism")
    if len(set(mapping.values())) != group.order:
        raise VerificationError("bidual map is not injective")
    return mapping


def character_matrix(group: AbelianGroup, field) -> list[list]:
    """The n x n matrix P with entry chi(sigma): rows sigma, columns chi.

    Requires a primitive e-th root of unity in the field, e the exponent.
    """
    powers = root_table(group.exponent, field)
    return [[powers[t] for t in row] for row in group.pairing_table()]


def character_matrix_inverse(group: AbelianGroup, field) -> list[list]:
    """P^-1 = (1/n) * transpose of (chi^-1(sigma))."""
    e = group.exponent
    powers = root_table(e, field)
    inv_n = field.inv(field.from_int(group.order))
    return [[inv_n * powers[-t % e] for t in row] for row in group.pairing_table()]
