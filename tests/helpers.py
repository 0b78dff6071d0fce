"""Shared test helpers (a plain module, imported by the test files)."""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

from groupfft.abelian import AbelianGroup, character_matrix
from groupfft.cyclotomic import cyclotomic_field, cyclotomic_polynomial, splitting_field
from groupfft.multipoly import MultiPoly
from groupfft.rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    IntKernel,
    LogKernel,
    RationalKernel,
    UniPoly,
    kernel,
    primitive_nth_root,
)
from groupfft.transform import GroupVector, group_variables


def random_elem(field, rng):
    """A seeded random element of Q, F_p, F_{p^r} or Q(zeta_d).

    Extension-field entries draw every base-field coefficient, recursively
    down to F_p for towers; Q(zeta_d) entries have small integer
    coefficients.
    """
    if isinstance(field, ExtField):
        if field.is_finite:
            return ExtFieldElem(
                tuple(random_elem(field.base, rng) for _ in range(field.degree)), field
            )
        return field.from_residue([rng.randrange(-9, 10) for _ in range(field.degree)])
    if field.is_finite:
        return field.from_int(rng.randrange(field.order))
    return Fraction(rng.randrange(-9, 10))


def from_ints(ints, ring):
    """The polynomial over ring with these int coefficients, constant
    term first."""
    return UniPoly.make([ring.from_int(k) for k in ints], ring)


def gen_pow(k, ring):
    """The polynomial X^k over ring."""
    return UniPoly.make([ring.zero] * k + [ring.one], ring)


def index_of(group, label):
    """The index of the element of a FiniteGroup with this label."""
    return group.labels.index(label)


def is_elementary_divisor_form(group):
    """Each divisor of an AbelianGroup divides the next."""
    return all(b % a == 0 for a, b in zip(group.divisors, group.divisors[1:]))


def prime_complementary_inverse_shortcut(p):
    """Derivative-based closed form for the inverse of X - 1 modulo Phi_p,
    p prime: a cross-check of complementary_inverse(p, p), derived from
    differentiating X^p - 1 = (X - 1) * Phi_p."""
    phi_p = cyclotomic_polynomial(p).coeffs
    dphi = UniPoly.make([i * c for i, c in enumerate(phi_p)][1:], QQ)
    geom = UniPoly.make([Fraction(1)] * (p - 1), QQ)  # (X^(p-1) - 1)/(X - 1)
    return dphi.scale(Fraction(1, p)) - geom


# conductors of the Q(zeta_d) oracle tests
CYCLO_CONDUCTORS = [*range(1, 17), 20, 24, 30]


def random_cyclo(field, rng):
    """A seeded element of Q(zeta_d) whose coefficients mix zeros, small
    integers and fractions, so most elements have a denominator above 1."""
    coeffs = []
    for _ in range(field.degree):
        roll = rng.random()
        if roll < 0.2:
            coeffs.append(Fraction(0))
        elif roll < 0.6:
            coeffs.append(Fraction(rng.randrange(-20, 21), rng.randrange(1, 13)))
        else:
            coeffs.append(Fraction(rng.randrange(-9, 10)))
    return field.from_residue(coeffs)


def is_canonical(x):
    """x, an element of Q(zeta_d), has a positive denominator prime to
    its numerators."""
    return x.den > 0 and gcd(x.den, *x.num) == 1


def sympy_poly(sympy, coeffs, x):
    """The sympy polynomial in x with these rational coefficients,
    constant term first."""
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))


def sympy_multipoly(sympy, poly):
    """The sympy expression of a MultiPoly over Q, in symbols named as
    its variables."""
    xs = sympy.symbols(poly.variables)
    return sympy.Add(*(
        sympy.Mul(sympy.Rational(c.numerator, c.denominator), *(x**e for x, e in zip(xs, exp)))
        for exp, c in poly.terms.items()
    ))


def random_vector(group, field, rng):
    """A seeded random vector over Q, F_p, F_{p^r} or Q(zeta_d)."""
    return GroupVector(group, field, tuple(random_elem(field, rng) for _ in range(group.order)))


def check_under_o(call, *setup, error="VerificationError"):
    """Run the setup snippets, then call, in a fresh ``python -O``
    interpreter (asserts stripped) with the library on the path; the one
    line it prints: "raised: <message>" for the error named (a class of
    groupfft.errors, VerificationError by default), else "passed"."""
    script = "".join(map(textwrap.dedent, setup)) + textwrap.dedent(f"""
        assert False, "assertions are on"
        from groupfft.errors import {error}
        try:
            {call}
        except {error} as exc:
            print("raised:", exc)
        else:
            print("passed")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def mul_reference(a, b):
    """a * b for two MultiPolys, expanded term pair by term pair on tuple
    exponents with one field product each.  The reference for the packed
    MultiPoly.__mul__."""
    a, b = a._aligned_with(b)
    terms = {}
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


def sparse_terms_reference(terms) -> tuple:
    """(monomials, tops) for the pairs (exponent tuple, c) of terms: each
    term as (c, ((i, e), ...)), one pair per variable i of nonzero
    exponent e, and tops the largest e of each variable used, as
    ((i, top), ...).  Read off exponent tuples: the reference for the
    pairs that Packing.sparse_terms reads off packed monomials."""
    monomials, tops = [], {}
    for exp, c in terms:
        monomial = tuple([(i, e) for i, e in enumerate(exp) if e])
        for i, e in monomial:
            if e > tops.get(i, 0):
                tops[i] = e
        monomials.append((c, monomial))
    return monomials, tuple(sorted(tops.items()))


def held_terms_reference(poly):
    """The terms of a MultiPoly as its ring's kernel holds them, from its
    exponent tuples: over Q the integer numerators over the lcm c of the
    denominators, and 1/c; int residues over F_p, logs on the log kernel,
    elements elsewhere."""
    kern, terms = kernel(poly.ring), poly.terms
    if isinstance(kern, RationalKernel):
        scale = Fraction(1, lcm(*[c.denominator for c in terms.values()]))
        return sparse_terms_reference((e, (c / scale).numerator) for e, c in terms.items()), scale
    if isinstance(kern, LogKernel):
        held = [kern.tables.log_of(c, poly.ring) for c in terms.values()]
    elif isinstance(kern, IntKernel):
        held = [poly.ring.residue_of(c) for c in terms.values()]
    else:
        held = list(terms.values())
    return sparse_terms_reference(zip(terms, held))


def det_reference(rows):
    """Determinant of a square matrix of MultiPolys by Laplace expansion
    along the first row, products through mul_reference.  The reference
    for symbolic_det."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        minor = det_reference([row[:j] + row[j + 1:] for row in rows[1:]])
        term = mul_reference(entry, minor)
        term = term if j % 2 == 0 else -term
        acc = term if acc is None else acc + term
    return acc


def factored_product_reference(fd):
    """The product of a FactoredDeterminant's factors, each to its
    multiplicity, one factor at a time through mul_reference.  The
    reference for FactoredDeterminant.product."""
    acc = MultiPoly.constant(fd.field.one, fd.variables, fd.field)
    for entry in fd.factors:
        for _ in range(entry.multiplicity):
            acc = mul_reference(acc, entry.poly)
    return acc


def product_of_forms_reference(variables, zeta, exponents, field):
    """Product over l in exponents of X_0 + zeta^l X_1 + ... +
    zeta^(l(n-1)) X_(n-1), expanded in field: one field product per term
    pair.  The reference for factorize._product_of_forms."""
    acc = None
    for ell in exponents:
        z = zeta ** ell
        coeffs = {}
        power = field.one
        for v in variables:
            coeffs[v] = power
            power = power * z
        form = MultiPoly.linear(coeffs, variables, field)
        acc = form if acc is None else mul_reference(acc, form)
    return acc


def character_forms_reference(group, field):
    """The eigenvalue form sum_sigma chi(sigma) X_sigma of each character,
    in character order: MultiPoly.linear of each column of the character
    matrix.  The reference for det_split_field's factors."""
    variables = group_variables(group)
    return [MultiPoly.linear(dict(zip(variables, column)), variables, field)
            for column in zip(*character_matrix(group, field))]


@lru_cache(maxsize=None)
def _reducible_monics(p, n):
    """Every product of two monic polynomials of positive degree over F_p
    of total degree n, as a tuple of ints in [0, p), constant term first:
    a sieve computed on plain int lists, with no library arithmetic."""
    out = set()
    for i in range(1, n // 2 + 1):
        for a in itertools.product(range(p), repeat=i):
            for b in itertools.product(range(p), repeat=n - i):
                prod = [0] * (n + 1)
                for j, x in enumerate((*a, 1)):
                    for k, y in enumerate((*b, 1)):
                        prod[j + k] += x * y
                out.add(tuple(c % p for c in prod))
    return out


def is_irreducible_reference(f):
    """Irreducibility of f over F_p by the sieve of products: f made monic
    is irreducible exactly when no product of two monic polynomials of
    positive degree equals it.  The reference for rings.is_irreducible."""
    p, coeffs = f.ring.p, [c.residue for c in f.coeffs]
    inv = pow(coeffs[-1], -1, p)
    return tuple(c * inv % p for c in coeffs) not in _reducible_monics(p, f.degree)


def coset_product_reference(labels, powers, field):
    """The product of X - zeta^l over the labels, powers[l] = zeta^l in a
    splitting field of field (or in field itself), expanded there with one
    product per coefficient per label: (X - z) sum a_i X^i =
    sum (a_(i-1) - z a_i) X^i.  Each coefficient is then read in field as
    its constant term, asserted to be all of it.  The reference for the
    coset factors of factorize, which are minimal polynomials read off an
    elimination over field."""
    big = powers[0].field
    coeffs = [big.one]
    for ell in labels:
        z = powers[ell]
        coeffs = ([-(z * coeffs[0])]
                  + [a - z * b for a, b in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    if big is not field:
        assert all(c.is_constant for c in coeffs)
        coeffs = [c.constant for c in coeffs]
    return UniPoly.make(coeffs, field)


def log_exp_reference(p, modulus):
    """The powers of the first generator of F_q^*, F_q = F_p[Y]/(m) with m
    the coefficient tuple modulus (constant first), as coefficient tuples
    from g^0 = 1: every candidate g in the order of its int code
    sum_k c_k p^k, from 2 on, walked until its powers return to 1, and
    the first whose walk takes q - 1 steps kept.  The reference for
    LogTables.exp."""
    r = len(modulus) - 1
    q = p ** r
    one = (1,) + (0,) * (r - 1)

    def mul(x, y):
        prod = [0] * (2 * r - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for k in range(2 * r - 2, r - 1, -1):  # Y^k = -sum_i m_i Y^(k - r + i)
            c = prod[k]
            for i in range(r):
                prod[k - r + i] -= c * modulus[i]
        return tuple(c % p for c in prod[:r])

    for cand in range(2, q):
        g = tuple(cand // p ** k % p for k in range(r))
        powers, x = [one], g
        while x != one:
            powers.append(x)
            x = mul(x, g)
        if len(powers) == q - 1:
            return powers
    raise AssertionError(f"no generator of F_{q}^*")


def all_groups_of_order_up_to(n_max):
    """Every elementary-divisor chain with product <= n_max."""
    out = []

    def extend(chain, product):
        if chain:
            out.append(AbelianGroup(tuple(chain)))
        start = chain[-1] if chain else 2
        for d in range(start, n_max + 1):
            if product * d > n_max:
                break
            if not chain or d % chain[-1] == 0:
                extend(chain + [d], product * d)

    out.append(AbelianGroup((1,)))
    extend([], 1)
    return out


def orbit_factors_reference(group, field):
    """The product of the eigenvalue forms sum_sigma chi(sigma) X_sigma
    over each galois orbit of characters chi -> u chi, u in (Z/eZ)^* over
    Q and the powers of q over F_q, e the exponent: each form made with
    MultiPoly.linear in the splitting field (Q(zeta_e) over Q), the forms
    multiplied with MultiPoly.__mul__ and each coefficient read in field
    as its constant term.  Orbits and pairings are computed here on residue
    tuples.  The reference for the factors of factor_group_determinant,
    as a list in no particular order."""
    divisors, e = group.divisors, group.exponent
    tuples = list(itertools.product(*map(range, divisors)))
    if field is QQ:
        big = cyclotomic_field(e) if e > 2 else QQ
        units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    else:
        big = splitting_field(field, e)[0]
        units = sorted({pow(field.order, i, e) for i in range(e)})
    zeta = primitive_nth_root(e, big)
    powers = [big.one]
    for _ in range(e - 1):
        powers.append(powers[-1] * zeta)
    variables = group_variables(group)
    seen, out = set(), []
    for chi in tuples:
        if chi in seen:
            continue
        orbit = {tuple(u * c % d for c, d in zip(chi, divisors)) for u in units}
        seen |= orbit
        product = MultiPoly.constant(big.one, variables, big)
        for psi in sorted(orbit):
            coeffs = {v: powers[sum(c * s * (e // d) for c, s, d in zip(psi, sigma, divisors)) % e]
                      for v, sigma in zip(variables, tuples)}
            product = product * MultiPoly.linear(coeffs, variables, big)
        if big is not field:
            assert all(c.is_constant for c in product.terms.values())
            product = product.map_coefficients(lambda c: c.constant, field)
        out.append(product)
    return out
