"""Factorization of X^n - 1 and of group determinants.

One orbit rule: the group determinant of a finite abelian group of
exponent e factors over a field K into one factor per orbit of the galois
group of K(zeta_e)/K on the characters, acting as chi -> u chi for u in a
subgroup of (Z/eZ)^* (Dedekind; Perlis and Walker, 1950), the product
over the orbit of the eigenvalue forms sum_sigma chi(sigma) X_sigma.  The
units u are (Z/eZ)^* over Q, where an orbit is the characters of one order
d and its factor a norm from Q(zeta_d); the powers of q over F_q; and 1
alone over a field holding zeta_e, where every factor is one linear form.
One driver, :func:`_orbit_factors`, builds every factor.  Over F_q the
orbits of C_n are the q-cyclotomic cosets, and X^n - 1 splits along them
too: each minimal stable label set L gives one factor, the minimal
polynomial over F_q of zeta^(min L), read off one elimination over F_q of
the coordinates of its powers (:func:`groupfft.linalg.left_nullspace`).

Every determinant factor is one product of eigenvalue forms
sum_j zeta^(row[j]) X_j, one exponent row per form, built by
:func:`_product_of_forms`: the form of an orbit's least character is one
row, its pairing exponents, and the form of u chi is u row mod N.
The product lies in the integral group ring Z[C_N][X], N the order of
zeta, until T -> zeta at the end.
It is expanded there, on packed ints (packed exponent vectors, after
Monagan and Pearce): a monomial is one int of exponent fields, a
coefficient one int of N counts, and a term of a form rotates the counts
by its exponent.  Translating the variables by h multiplies the form of
chi by chi(h)^-1, so an orbit's factor is relatively invariant,
P_O(X_(.+h)) = psi_O(h)^-1 P_O(X) with psi_O the product of the orbit's
characters, and one monomial per translation orbit is expanded: the last
form is multiplied in at the monomials that hold X_identity alone, and
the translates take the orbit's counts rotated by psi_O(h).  Each orbit
then meets the field once per value of psi_O on it: its int coordinates
are read off one big-int product of the counts by the packed columns of
the field's :func:`groupfft.rings.root_table` (Kronecker substitution).
The last form then costs about C(n + k - 1, k) / n orbits of at most k
count rotations each, and the map one pair of big-int products per orbit
and value of psi_O, not per monomial.  Over Q and F_q the factor is
emitted in the base field from those ints: the leading coordinates are
its coefficient, and the others are checked to vanish, so no element of
the extension is made.  The expansion makes no field product.  Its
monomials are packed by :class:`groupfft.multipoly.Packing`, the one form
of ``MultiPoly``'s monomials, so the factor keeps them as they are; its
products run the symbolic checks below on them and int-held coefficients
too, and its evaluations read them for the point checks.

Every factorization verifies its product identity on the spot: exactly
(symbolically) up to n = 6, and at seeded points beyond, integer points
over Q and Q(zeta_d), over F_q points of one flat field F_p[Y]/(m) that
F_q embeds in, the largest the log kernel serves; either way as many
points as bring the Schwartz-Zippel bound to 2^-64 (one integer point
of [-2^96, 2^96) in characteristic 0).  The
:class:`Verification` record of the check, its bound included, rides on
the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from dataclasses import field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

from .abelian import AbelianGroup, character_matrix, translates
from .cyclotomic import _identity, cyclotomic_field, cyclotomic_polynomial, splitting_field
from .errors import PreconditionError, VerificationError
from .linalg import group_det, left_nullspace, mat_det
from .multipoly import MultiPoly, Packing, product_of_powers, symbolic_det
from .numtheory import euler_phi, factorization, multiplicative_order
from .rings import (
    LOG_ORDER_CAP,
    QQ,
    ExtField,
    PrimeField,
    UniPoly,
    finite_field,
    is_irreducible,
    root_table,
    x_pow_minus_one,
)
from .transform import GroupVector, group_matrix, group_variables

_SYMBOLIC_VERIFY_CAP = 6
# Most monomials a factor may expand to.  A product of k linear forms in n
# variables has up to C(n + k - 1, k) of them, and a factorization's time
# and memory grow with that count.  Whole factorizations, checks included,
# in a fresh process on a 2-core x86-64 VM: up to 3,003 (C9 over F_2 or Q,
# k = 6) about 0.1 s and 19 MB; up to 27,132 (k = 6) C14 over Q about
# 2.1 s and 65 MB, C14 over F_3 about 7.8 s and 47 MB, of which the
# expansions take 0.5 and 0.6 s.  2,704,156 (C13 over F_2, k = 12) ran for
# minutes at about 400 MB when the expansion multiplied in the field; it
# was not run again.  The cap admits every factorization that finishes in
# seconds.
FORM_PRODUCT_CAP = 30_000
_VERIFY_SEED = 0x5EED
# enough points that a wrong product passes with probability at most
# 2^-64; in characteristic 0 they are ints in [-2^96, 2^96), so that one
# point bounds it by n/2^97 <= 2^-90 for every order the cap admits
_INT_POINT_HALF = 1 << 96
_BOUND_TARGET = Fraction(1, 1 << 64)


@dataclass(frozen=True)
class FactorEntry:
    poly: MultiPoly
    multiplicity: int
    claimed_irreducible: bool
    label: str
    coset: tuple | None = None
    divisor: int | None = None


@dataclass(frozen=True)
class Verification:
    """How :func:`verify_product_identity` checked a factorization.

    method is "symbolic" or "points"; seed seeds the points (None when
    symbolic) and points counts them; field is where the product was
    evaluated: the factors' field when symbolic or in characteristic 0,
    over F_q a flat F_p[Y]/(m) (or F_p) that F_q embeds in, never a
    tower; bound is the probability that a wrong product passes, 0 for
    the symbolic check and (n/|S|)^points for points drawn uniformly from
    S, n the degree (Schwartz-Zippel): S = [-2^96, 2^96) in
    characteristic 0 (one point), S = field over F_q.
    """

    method: str
    seed: int | None
    points: int
    field: object
    bound: Fraction


@dataclass(frozen=True)
class FactoredDeterminant:
    field: object
    variables: tuple[str, ...]
    factors: tuple[FactorEntry, ...]
    verification: Verification | None = dataclass_field(default=None, compare=False)

    def product(self) -> MultiPoly:
        """The product of the factors, each to its multiplicity."""
        return product_of_powers(
            [(entry.poly, entry.multiplicity) for entry in self.factors],
            self.variables, self.field,
        )


@dataclass(frozen=True)
class CosetFactor:
    """One irreducible factor of X^n - 1 over F_q, indexed by its label set."""

    labels: tuple[int, ...]
    poly: UniPoly


def vandermonde_det(n: int, field):
    """Determinant of the character matrix of C_n.

    Computed both from the product formula over pairs of roots of unity
    and by direct elimination; VerificationError if the two differ.
    """
    group = AbelianGroup.cyclic(n)
    p = character_matrix(group, field)
    direct = mat_det(p, field)
    powers = root_table(n, field)
    product = field.one
    for ell in range(1, n):
        for i in range(ell):
            product = product * powers[i] * (powers[ell - i] - field.one)
    if product != direct:
        raise VerificationError("product formula disagrees with direct determinant")
    return direct


# ---------------------------------------------------------------------------
# Verification machinery
# ---------------------------------------------------------------------------

def _random_elem(field, rng: random.Random):
    """A seeded element that draws every coefficient of an extension."""
    if field.is_finite:
        # one residue per int coordinate, a tower's depth first
        p = field.characteristic
        return field.from_int_coords([rng.randrange(p) for _ in field.int_coords(field.one)])
    if isinstance(field, ExtField):
        # Q(zeta_d): small integer coefficients
        return field.from_residue([rng.randrange(-9, 10) for _ in range(field.degree)])
    return Fraction(rng.randrange(-50, 51), rng.randrange(1, 9))


@lru_cache(maxsize=None)
def _point_field(field, n: int):
    """(E, embed): the field the F_q point checks of a degree-n product
    evaluate in, and the embedding of F_q = field into it.

    E is the largest F_p[Y]/(m_s) with r | s (q = p^r) and p^s at most
    LOG_ORDER_CAP, whose points cost the same few log operations whatever
    its order, so that the largest needs the fewest points; F_q's own
    order when q is above the cap.  Where that E holds no more than n
    elements (a large p, n above it), E is the smallest such field with
    more than n^2, so that a point misses with probability below 1/n.  E
    is always flat: F_q itself when s = r and F_q is flat, else
    ``finite_field(p, s)``.  F_q embeds by a root of its modulus found in
    E (:func:`_embedding`).
    """
    p, q = field.characteristic, field.order
    s = r = factorization(q)[p]
    if q <= LOG_ORDER_CAP:
        while p ** (s + r) <= LOG_ORDER_CAP:
            s += r
    if p ** s <= n:
        while p ** s <= n * n:
            s += r
    flat = isinstance(field, PrimeField) or field._prime_base is not None
    big = field if flat and s == r else finite_field(p, s)
    return big, _embedding(field, big)


def _embedding(field, big):
    """A map of the finite field into big, a field of its characteristic
    with a subfield of its order: the identity when they are one field,
    else on each element sum_i c_i Y^i, sum_i embed(c_i) y^i, y the first
    root of field's modulus, mapped by the base's embedding, among 0 and
    the powers of big's (q - 1)-th root of unity, which with 0 are that
    subfield.  Images are kept per element."""
    if field is big:
        return _identity
    if isinstance(field, PrimeField):
        return lambda c: big.from_int(field.residue_of(c))
    base_map = _embedding(field.base, big)
    modulus = field.modulus.map_coefficients(base_map, big)
    y = next((x for x in [big.zero, *root_table(field.order - 1, big)]
              if not modulus.evaluate(x)), None)
    if y is None:
        raise VerificationError(f"the modulus of {field} has no root in {big}")
    ys = [big.one]
    for _ in range(field.degree - 1):
        ys.append(ys[-1] * y)
    images: dict = {}

    def embed(x):
        image = images.get(x)
        if image is None:
            image = images[x] = sum((base_map(c) * w for c, w in zip(x.coeffs, ys)),
                                    big.zero)
        return image

    return embed


def verify_product_identity(fd: FactoredDeterminant, matrix_of, group=None) -> Verification:
    """Check product(factors) = det of the group matrix; return how.

    ``matrix_of(values, field)`` returns the rows of the caller's group
    matrix with the given entries, one per variable of ``fd`` in order.
    Up to order 6 the check is symbolic, on the matrix of the variables.
    Beyond, both sides are evaluated at seeded points, the determinant
    eliminated afresh at every point; when the matrix is the group
    matrix of the finite abelian ``group``, it is eliminated from the n
    values (:func:`groupfft.linalg.group_det`) and ``matrix_of`` serves
    only the symbolic check.  A wrong product, of degree n the order,
    survives a point drawn uniformly from a set S with probability at
    most n/|S| (Schwartz-Zippel), so k points bound it by (n/|S|)^k, and
    k is the least that brings it to 2^-64 or below:

    * in characteristic 0 (Q, Q(zeta_d)) the points are ints uniform in
      S = [-2^96, 2^96), so that one point bounds it by n/2^97, and the
      determinant is the one over Q, embedded in the factors' field;
    * over F_q they are uniform in S = E, the flat field of
      :func:`_point_field` (F_{2^9} for F_2 and F_8, F_{2^8} for F_4,
      F_{3^5} for F_3), the factors mapped into E by its embedding of F_q
      and the determinant eliminated over E; no point is in a tower.

    A mismatch raises VerificationError, also under ``python -O``.
    """
    variables = fd.variables
    n = len(variables)
    if n <= _SYMBOLIC_VERIFY_CAP:
        generic = [MultiPoly.variable(v, variables, fd.field) for v in variables]
        expected = symbolic_det(matrix_of(generic, fd.field))
        if fd.product() != expected:
            raise VerificationError("factor product differs from group determinant")
        return Verification("symbolic", None, 0, fd.field, Fraction(0))
    rng = random.Random(_VERIFY_SEED)
    if fd.field.characteristic:
        field, lift = _point_field(fd.field, n)
        size = field.order
    else:
        field, lift, size = fd.field, None, 2 * _INT_POINT_HALF
    # copies local to this check, so their held terms are dropped with it
    # rather than kept on memoized factors
    factors = []
    for entry in fd.factors:
        poly = entry.poly
        local = (MultiPoly(poly.variables, poly.packed, poly.ring, poly.packing)
                 if field is fd.field else poly.map_coefficients(lift, field))
        factors.append((local, entry.multiplicity))

    def det_of(values, field):
        if group is None:
            return mat_det(matrix_of(values, field), field)
        return group_det(values, group, field)

    miss = Fraction(n, size)
    count = 1
    while miss ** count > _BOUND_TARGET:
        count += 1
    for _ in range(count):
        if field.characteristic:
            values = [_random_elem(field, rng) for _ in variables]
            det_val = det_of(values, field)
        else:
            values = [rng.randrange(-_INT_POINT_HALF, _INT_POINT_HALF) for _ in variables]
            det_val = field.from_rational(det_of(values, QQ))
        point = dict(zip(variables, values))
        prod_val = field.one
        for poly, multiplicity in factors:
            val = poly.evaluate(point)
            for _ in range(multiplicity):
                prod_val = prod_val * val
        if prod_val != det_val:
            raise VerificationError("factor product disagrees with determinant at a point")
    return Verification("points", _VERIFY_SEED, count, field, miss ** count)


def _abelian_matrix(group: AbelianGroup):
    """matrix_of for verify_product_identity: the group matrix of an abelian group."""
    return lambda values, field: group_matrix(GroupVector(group, field, tuple(values))).rows()


def _checked(group: AbelianGroup, field, entries) -> FactoredDeterminant:
    """The factorization of group's determinant over field into entries,
    carrying the Verification of its product identity."""
    fd = FactoredDeterminant(field, group_variables(group), tuple(entries))
    return replace(
        fd, verification=verify_product_identity(fd, _abelian_matrix(group), group))


# ---------------------------------------------------------------------------
# Group determinants: one factor per galois orbit of characters
# ---------------------------------------------------------------------------

def _require_expandable(n: int, k: int):
    """Refuse a product of k linear forms in n variables whose expansion
    may exceed FORM_PRODUCT_CAP monomials, before anything is built."""
    count = comb(n + k - 1, k)
    if count > FORM_PRODUCT_CAP:
        raise PreconditionError(
            f"a product of {k} linear forms in {n} variables expands to up to "
            f"{count} monomials; factors are capped at {FORM_PRODUCT_CAP}"
        )


# the translation of packed monomials (AbelianGroup.translation_steps),
# looked up under these names when a product is expanded
_translations = AbelianGroup.translation_steps
_translates = translates


def _product_of_forms(group, powers, rows, big, field) -> MultiPoly:
    """Product over the rows of zeta^row[0] X_0 + ... + zeta^row[n-1] X_(n-1),
    one linear form per row, in the variables of group, row[j] in [0, N)
    the power of zeta on X_j and each row a character of group into Z/N
    (the form of a cyclic label l is the row l j mod N), powers =
    root_table(N, big) the powers of zeta, a primitive N-th root, as a
    polynomial over field: big itself, or the field big extends, whose
    coordinates lead big's (F_p or Q, or the base of a tower).

    Expanded in the group ring Z[C_N][X], where the form of a row is
    sum_j T^row[j] X_j, on packed ints: a monomial is one int of exponent
    fields, a coefficient one int of N count fields (the coefficients of
    1, T, ..., T^(N-1)), and a term of a form adds a unit to the monomial
    and rotates the counts by its row entry.  No field product is taken.

    Translating the variables by h, X_j -> X_(j+h), multiplies the form of
    a character row by T^-row[h], so the product P is relatively invariant:
    P(X_(.+h)) = T^-s_h P(X), s_h = sum over the rows of row[h] mod N
    (psi(h)^-1, psi the product of the characters).  The coefficient of
    the translate of a monomial m by h is T^s_h times that of m, and only
    one member of each translation orbit of monomials is expanded: the
    first k - 1 forms multiply out in full, and the last is multiplied in
    at the monomials m' X_0 alone (every orbit holds one), for each X_j
    in m adding the counts of m / X_j rotated by the last row's entry.
    The rows are checked to be characters first, on the group's sum
    table (VerificationError otherwise), and a monomial is translated by
    one masked rotation of its exponent fields per cyclic factor.

    The counts of a translate, those of its orbit's member rotated by
    s_h, are sent through T -> zeta once for each value of s_h on the
    orbit: every int coordinate of sum_e c_e zeta^e is the dot product of
    the counts with that coordinate's column of the power table, read off
    one big-int product by the packed reversed columns (Kronecker
    substitution).  Where s_h = 0 throughout (over Q, of order d >= 3, and
    over F_2) that is one map per orbit of n monomials or fewer.  A count
    is at most k!, k the number of forms, so with fields wider than
    N * k! * (largest coordinate) nothing carries.

    A coefficient is read in field from its first r coordinates, r those
    of an element of field (all of them when field is big), by
    ``field.from_int_coords``; below big the others must vanish, mod p
    over F_q, exactly over Q (one mask test on the two products), else
    VerificationError.
    """
    order = len(powers)
    k = len(rows)
    packing = Packing(group.order, k)
    steps = _translations(group, packing.mask.bit_length())
    # a row additive along the unit tuples, which generate the group, is a
    # character: row[j + h] = row[j] + row[h] mod N for every j and h
    sums = group.sum_table()
    for row in rows:
        for _, g, *_ in steps:
            if [row[s[g]] for s in sums] != [(x + row[g]) % order for x in row]:
                raise VerificationError(
                    f"a row of the product of forms is not a character of {group}")

    # the expansion: {packed monomial: packed counts}
    units = [1 << s for s in packing.shifts]
    coords = [big.int_coords(x) for x in powers]
    largest = max(abs(c) for ints in coords for c in ints)
    width = (order * factorial(k) * largest).bit_length()
    span = order * width
    mask = (1 << span) - 1
    acc = {0: 1}
    for row in rows[:-1]:
        # the variables' units, grouped by the rotation (in bits) of their term
        by_shift: dict = {}
        for unit, e in zip(units, row):
            by_shift.setdefault(e * width, []).append(unit)
        out: dict = {}
        get = out.get
        for mono, counts in acc.items():
            for shift, units_at in by_shift.items():
                rotated = ((counts << shift) & mask) | (counts >> (span - shift))
                for u in units_at:
                    m = mono + u
                    out[m] = get(m, 0) + rotated
        acc = out

    rotations = [s * width for s in (sum(col) % order for col in zip(*rows))]
    last = [(unit, shift, e * width)
            for unit, shift, e in zip(units, packing.shifts, rows[-1])]

    # the map T -> zeta: coordinate t is the field at order - 1 of the
    # product of the counts by column t reversed; the columns sit in
    # blocks of 2 * order - 1 fields, negative entries in a second int
    block = (2 * order - 1) * width
    pos = neg = 0
    for e, ints in enumerate(coords):
        for t, c in enumerate(ints):
            at = t * block + (order - 1 - e) * width
            if c > 0:
                pos |= c << at
            elif c < 0:
                neg |= -c << at
    reads = [t * block + (order - 1) * width for t in range(len(coords[0]))]
    low = (1 << width) - 1
    p = field.characteristic
    r = len(field.int_coords(field.one))
    lead, rest, make = reads[:r], reads[r:], field.from_int_coords
    # over Q a coordinate vanishes when its fields in the two products agree
    rest_mask = sum(low << s for s in rest)

    def read(counts, shift):
        """The coefficient of counts times T^(shift / width), in field."""
        counts = ((counts << shift) & mask) | (counts >> (span - shift))
        hi, lo = counts * pos, counts * neg
        if p and rest:
            if any([(((hi >> s) & low) - ((lo >> s) & low)) % p for s in rest]):
                raise VerificationError(
                    f"a coefficient of the product of forms does not descend to {field}")
        elif (hi ^ lo) & rest_mask:
            raise VerificationError("norm form coefficient is not rational")
        return make([((hi >> s) & low) - ((lo >> s) & low) for s in lead])

    # {packed monomial: coefficient}, each translation orbit filled at once
    terms: dict = {}
    for mono in acc:
        m = mono + 1  # times X_0
        if m in terms:
            continue
        counts = 0
        for unit, shift, e in last:
            if m >> shift & packing.mask:
                c = acc[m - unit]
                counts += ((c << e) & mask) | (c >> (span - e))
        values: dict = {}
        for x, shift in zip(_translates(m, steps), rotations):
            if x not in terms:
                value = values.get(shift)
                if value is None:
                    value = values[shift] = read(counts, shift)
                terms[x] = value
    # the packed monomials as they are, less the coefficients that vanish
    return MultiPoly(group_variables(group), {x: c for x, c in terms.items() if c}, field, packing)


def _orbit_factors(group: AbelianGroup, field, split=False, order=None) -> list[FactorEntry]:
    """One factor per galois orbit of the characters of group over field
    (:meth:`AbelianGroup.galois_orbits`: u in (Z/eZ)^* over Q, e the
    exponent, in the powers of q over F_q, u = 1 over a field holding
    zeta_e or when split), only of characters of the given order if one is
    given: the product of the orbit's forms by one :func:`_product_of_forms`,
    the least character's pairing exponents and u times them.  Over Q an
    orbit of order d is expanded in Q(zeta_d), labelled norm_d{d} (and its
    least character's residues where d has more than one orbit), the
    orbits going by d; over F_q in ``splitting_field(field, e)``, labelled
    L= its char_index values; in a split field, labelled Y_ the residues.
    The largest orbit goes through :func:`_require_expandable` before any
    field is built.  Each factor must be homogeneous of degree k, the
    orbit's size, with coefficient 1 on X_identity^k (VerificationError).
    """
    e, n = group.exponent, group.order
    over_q = field is QQ and not split
    if over_q:
        units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    elif split or not field.characteristic:
        split, units = True, [1]
    else:
        _check_finite(field, n)
        units = [pow(field.order, i, e) for i in range(multiplicative_order(field.order, e))]
    characters, table, orbits = group.characters(), group.pairing_table(), []
    for orbit in group.galois_orbits(units):
        row = table[orbit[0]]
        d = e // gcd(e, *row)
        if order in (None, d):
            orbits.append((d, orbit, row))
    if over_q:
        orbits.sort(key=lambda o: (o[0], o[1][0]))
    _require_expandable(n, max(len(orbit) for _, orbit, _ in orbits))

    if not over_q:
        big = field if split else splitting_field(field, e)[0]
        powers = root_table(e, big)
    entries = []
    for d, orbit, row in orbits:
        k, least = len(orbit), "_".join(str(r) for r in characters[orbit[0]].residues)
        if over_q:
            big = cyclotomic_field(d)
            powers, row = root_table(d, big), [t * d // e for t in row]
        rows = list(dict.fromkeys(tuple(u * t % len(powers) for t in row) for u in units))
        poly = _product_of_forms(group, powers, rows, big, field)
        if not poly.is_homogeneous(k):
            raise VerificationError(f"norm form is not homogeneous of degree {k}")
        # X_identity^k packs to k, X_identity's field the lowest
        if poly.packed.get(k) != field.one:
            raise VerificationError("a character is not 1 at the identity")
        if over_q:
            alike = sum(o[0] == d for o in orbits) > 1
            entry = FactorEntry(poly, 1, True, f"norm_d{d}" + alike * f"_{least}", divisor=d)
        elif split:
            entry = FactorEntry(poly, 1, True, f"Y_{least}")
        else:
            entry = FactorEntry(poly, 1, True, "L=" + ",".join(map(str, orbit)), coset=orbit)
        entries.append(entry)
    return entries


def factor_group_determinant(group: AbelianGroup, field) -> FactoredDeterminant:
    """Irreducible factorization over field of the group determinant of a
    finite abelian group, one factor per galois orbit of its characters
    (:func:`_orbit_factors`), verified.  field is Q, a finite field of order
    prime to the group's, or a field of characteristic 0 holding a
    primitive root of unity of the group's exponent."""
    return _checked(group, field, _orbit_factors(group, field))


def det_split_field(group: AbelianGroup, field=None) -> FactoredDeterminant:
    """det of the group matrix as a product of the n character linear
    forms, over field (by default Q(zeta_e), e the exponent), which must
    hold a primitive e-th root of unity: every character its own orbit."""
    if field is None:
        field = cyclotomic_field(group.exponent)
    return _checked(group, field, _orbit_factors(group, field, split=True))


@lru_cache(maxsize=None)
def norm_form(n: int, d: int) -> MultiPoly:
    """The degree-phi(d) rational factor attached to the divisor d of n:
    the product of X_0 + zeta_d X_1 + ... + zeta_d^(n-1) X_(n-1) over its
    galois conjugates, the orbit of the characters of C_n of order d.
    Refused (PreconditionError) when it may have more than
    FORM_PRODUCT_CAP monomials."""
    if d < 1 or n % d != 0:
        raise PreconditionError(f"{d} is not a positive divisor of {n}")
    return _orbit_factors(AbelianGroup.cyclic(n), QQ, order=d)[0].poly


@lru_cache(maxsize=None)
def det_over_rationals(n: int) -> FactoredDeterminant:
    """Irreducible factorization over Q of the cyclic group determinant,
    one norm form per divisor of n."""
    if n < 1:
        raise PreconditionError(f"the cyclic group C_n needs n >= 1, not {n}")
    return factor_group_determinant(AbelianGroup.cyclic(n), QQ)


def det_over_finite_field(n: int, field) -> FactoredDeterminant:
    """Factorization over F_q of the cyclic group determinant, one factor
    per q-cyclotomic coset L: the product over l in L of X_0 + zeta^l X_1
    + ... + zeta^(l(n-1)) X_(n-1)."""
    _check_finite(field, n)
    return factor_group_determinant(AbelianGroup.cyclic(n), field)


# ---------------------------------------------------------------------------
# Over F_q: the factors of X^n - 1, one per orbit of multiplication by q
# ---------------------------------------------------------------------------

def _check_finite(field, n: int):
    if not getattr(field, "is_finite", False):
        raise PreconditionError("expected a finite field descriptor")
    if gcd(n, field.order) != 1:
        raise PreconditionError(
            f"gcd({n}, q) > 1: the characteristic divides {n}"
        )


def q_cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """Minimal subsets of Z/nZ stable under multiplication by q,

    ordered by smallest member; they partition Z/nZ: the galois orbits of
    the characters of C_n over F_q.  Needs n >= 1 and q prime to n
    (PreconditionError), else the orbits are not stable.
    """
    if n < 1 or gcd(n, q) != 1:
        raise PreconditionError(f"cosets of {q} in Z/{n}Z need n >= 1 prime to {q}")
    units = [pow(q, i, n) for i in range(multiplicative_order(q, n))]
    return AbelianGroup.cyclic(n).galois_orbits(units)


def _descended_factor(labels, big, powers, field) -> UniPoly:
    """The product of X - zeta^l over the labels l, a q-cyclotomic coset,
    as the minimal polynomial over field = F_q of alpha = zeta^(min L):
    the labels are the exponents of its conjugates alpha^(q^i).  powers[j]
    is zeta^j in big, field's splitting field, so alpha^j is
    powers[l j mod n]; the coordinates over F_q of alpha^0 .. alpha^k,
    k = |L| (an element's base coefficients, or the element itself when
    big is F_q), go through one :func:`left_nullspace` over F_q.  Its one
    vector, the relation sum_j c_j alpha^j = 0 of least degree, made
    monic, is the factor; VerificationError if there is not exactly one.
    """
    n, ell, k = len(powers), labels[0], len(labels)
    alphas = [powers[ell * j % n] for j in range(k + 1)]
    rows = [[x] for x in alphas] if big is field else [list(x.coeffs) for x in alphas]
    relations = left_nullspace(rows, field)
    if len(relations) != 1:
        raise VerificationError(
            f"the powers of zeta^{ell} satisfy {len(relations)} relations, not 1")
    return UniPoly.make(relations[0], field).monic()


def _coset_factors(n: int, field, cosets) -> list[CosetFactor]:
    """The factor over F_q = field of each q-cyclotomic coset L of Z/nZ:
    the minimal polynomial over F_q of zeta^l, l = min L, read off one
    elimination over F_q (:func:`_descended_factor`), and checked: of
    degree |L|, monic, Q(X)^q = Q(X^q) (its roots closed under
    Frobenius) and irreducible by Ben-Or's test; VerificationError
    otherwise."""
    q = field.order
    big, _ = splitting_field(field, n)
    powers = root_table(n, big)
    out = []
    for labels in cosets:
        poly = _descended_factor(labels, big, powers, field)
        if poly.degree != len(labels):
            raise VerificationError(f"coset factor of {labels} has degree {poly.degree}")
        if not poly.is_monic:
            raise VerificationError(f"coset factor of {labels} is not monic")
        # descent identity over F_q, and irreducibility of the emitted factor
        if poly ** q != poly.substitute_power(q):
            raise VerificationError("descent identity failed")
        if not is_irreducible(poly):
            raise VerificationError("coset factor is not irreducible")
        out.append(CosetFactor(labels, poly))
    return out


def factor_xn_minus_one(n: int, field) -> list[CosetFactor]:
    """Irreducible factors of X^n - 1 over F_q, one per q-stable label set.

    The factors of :func:`_coset_factors`, each checked there, and their
    product checked to be X^n - 1.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    _check_finite(field, n)
    out = _coset_factors(n, field, q_cyclotomic_cosets(n, field.order))
    prod = UniPoly.constant(field.one, field)
    for cf in out:
        prod = prod * cf.poly
    if prod != x_pow_minus_one(n, field):
        raise VerificationError("coset factors do not multiply to X^n - 1")
    return out


def factor_cyclotomic(d: int, field) -> list[CosetFactor]:
    """Irreducible factors of Phi_d over F_q.

    With r the order of q modulo d, the factors are the products of
    X - zeta_d^m over the q-cyclotomic cosets of the units m mod d (the
    cosets of the subgroup generated by q in (Z/dZ)^*); there are
    phi(d)/r of them, all of degree r.  They are the factors of
    :func:`_coset_factors` on those cosets, each checked there; their
    count is checked to be phi(d)/r and their product Phi_d mod q.
    """
    if d < 1:
        raise PreconditionError("cyclotomic index must be >= 1")
    _check_finite(field, d)
    q = field.order
    r = multiplicative_order(q, d)
    units = [coset for coset in q_cyclotomic_cosets(d, q) if gcd(coset[0], d) == 1]
    out = _coset_factors(d, field, units)
    if len(out) != euler_phi(d) // r:
        raise VerificationError(f"{len(out)} coset factors, expected {euler_phi(d) // r}")
    prod = UniPoly.constant(field.one, field)
    for cf in out:
        prod = prod * cf.poly
    phi_mod = cyclotomic_polynomial(d).map_coefficients(
        lambda c: field.from_rational(c), field
    )
    if prod != phi_mod:
        raise VerificationError("coset factors do not multiply to Phi_d mod q")
    return out
