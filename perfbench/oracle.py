"""Independent oracles: exact arithmetic written for the benchmark alone.

Nothing here imports groupfft.  Library outputs are read through their
documented text form (``field.format_elem`` prints residues, polynomials
in ``Y`` for F_{p^r} and polynomials in ``z`` for Q(zeta_d)) and compared
with values computed by the small rings below.  The root-of-unity
convention is the documented one: the class of X in Q(zeta_d), and the
smallest element of exact order e in a finite field (coefficients read
from the highest degree down).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class WrongResult(Exception):
    """A library output disagrees with its oracle."""


def require(condition: bool, message: str):
    if not condition:
        raise WrongResult(message)


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def q_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """Orbits of multiplication by q on Z/nZ, each sorted, ordered by minimum."""
    seen, out = set(), []
    for start in range(n):
        if start in seen:
            continue
        orbit, x = set(), start
        while x not in orbit:
            orbit.add(x)
            x = x * q % n
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


# ---------------------------------------------------------------------------
# Rings, each with the operations the checks below use: zero, one, add, mul
# and parse everywhere; sub, neg, inv and from_int where determinants are
# taken; embed where factor values are compared with a determinant
# ---------------------------------------------------------------------------

def _parse_poly(text: str, var: str) -> dict[int, Fraction]:
    """'3/2*z^2 - z + 1' -> {2: 3/2, 1: -1, 0: 1}."""
    out: dict[int, Fraction] = {}
    if text.strip() == "0":
        return out
    for part in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if part.startswith("-"):
            sign, part = -1, part[1:]
        if "*" in part:
            coeff, mono = part.split("*", 1)
        elif part.startswith(var):
            coeff, mono = "1", part
        else:
            coeff, mono = part, ""
        if not mono:
            deg = 0
        elif mono == var:
            deg = 1
        else:
            require(mono.startswith(var + "^"), f"cannot parse term {part!r} of {text!r}")
            deg = int(mono[len(var) + 1:])
        out[deg] = out.get(deg, Fraction(0)) + sign * Fraction(coeff)
    return out


class Rationals:
    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def from_int(self, k):
        return Fraction(k)

    def embed(self, a):
        return a

    def parse(self, text):
        return Fraction(text)


class PrimeField:
    """F_p with int residues."""

    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def from_int(self, k):
        return k % self.p

    def embed(self, a):
        return a

    def from_fraction(self, q: Fraction):
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def parse(self, text):
        return int(text) % self.p

    def elements(self):
        return range(self.p)

    def power(self, a, k):
        return pow(a, k, self.p)


class ExtensionField:
    """F_p[Y]/(m), m monic of degree r given low-to-high; elements are tuples."""

    def __init__(self, p: int, modulus: list[int]):
        self.p, self.m, self.r = p, modulus, len(modulus) - 1
        self.zero = (0,) * self.r
        self.one = (1,) + (0,) * (self.r - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        r, p = self.r, self.p
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(r):
                    prod[k - r + i] -= c * self.m[i]
        return tuple(c % p for c in prod[:r])

    def power(self, a, k):
        result, base = self.one, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def parse(self, text):
        coeffs = _parse_poly(text, "Y")
        return tuple(int(coeffs.get(i, 0)) % self.p for i in range(self.r))

    def elements(self):
        """All elements, in the library's documented total order."""
        for high_first in itertools.product(range(self.p), repeat=self.r):
            yield tuple(reversed(high_first))


def canonical_root(field, e: int):
    """Smallest element of exact multiplicative order e (documented order)."""
    primes = prime_factors(e)
    for x in field.elements():
        if x == field.zero:
            continue
        if field.power(x, e) == field.one and all(
            field.power(x, e // ell) != field.one for ell in primes
        ):
            return x
    raise WrongResult(f"no element of order {e}")


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, low to high."""
    num = [-1] + [0] * (d - 1) + [1]
    for k in divisors(d)[:-1]:
        den = cyclotomic(k)
        quo = [0] * (len(num) - len(den) + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = num[i + len(den) - 1]
            quo[i] = c
            for j, b in enumerate(den):
                num[i + j] -= c * b
        require(not any(num), "cyclotomic division left a remainder")
        num = quo
    return tuple(num)


class CyclotomicField:
    """Q(zeta_d) = Q[X]/(Phi_d); elements are tuples of phi(d) Fractions."""

    def __init__(self, d: int):
        self.d = d
        self.phi = cyclotomic(d)
        self.deg = len(self.phi) - 1
        self.zero = (Fraction(0),) * self.deg
        self.one = (Fraction(1),) + (Fraction(0),) * (self.deg - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        r = self.deg
        prod = [Fraction(0)] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c:
                for i in range(r):
                    prod[k - r + i] -= c * self.phi[i]
        return tuple(prod[:r])

    def power(self, a, k):
        result = self.one
        for _ in range(k):
            result = self.mul(result, a)
        return result

    def embed(self, q: Fraction):
        """The image of a rational number."""
        return (q,) + self.zero[1:]

    def zeta(self):
        if self.deg == 1:
            return (Fraction(-self.phi[0]),)
        return (Fraction(0), Fraction(1)) + self.zero[2:]

    def parse(self, text):
        coeffs = _parse_poly(text, "z")
        require(all(k < self.deg for k in coeffs), f"unreduced element {text!r}")
        return tuple(coeffs.get(i, Fraction(0)) for i in range(self.deg))


def root_powers(ring, root, e: int) -> list:
    powers = [ring.one]
    for _ in range(e - 1):
        powers.append(ring.mul(powers[-1], root))
    return powers


# ---------------------------------------------------------------------------
# Abelian groups: lexicographic residue tuples, as documented
# ---------------------------------------------------------------------------

def elements(divs) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(d) for d in divs)))


def index(divs, x) -> int:
    idx = 0
    for r, d in zip(x, divs):
        idx = idx * d + r
    return idx


def dft(ring, divs, values, root) -> list:
    """B_chi = sum_sigma chi(sigma) b_sigma, chi(sigma) = root^t(sigma, chi)."""
    e = lcm(*divs)
    powers = root_powers(ring, root, e)
    elems = elements(divs)
    scale = [e // d for d in divs]
    out = []
    for chi in elems:
        acc = ring.zero
        for x, v in zip(elems, values):
            t = sum(c * xi * s for c, xi, s in zip(chi, x, scale)) % e
            acc = ring.add(acc, ring.mul(powers[t], v))
        out.append(acc)
    return out


def convolve(ring, divs, a, b) -> list:
    elems = elements(divs)
    out = [ring.zero] * len(elems)
    for x, va in zip(elems, a):
        if va == ring.zero:
            continue
        for y, vb in zip(elems, b):
            k = index(divs, tuple((i + j) % d for i, j, d in zip(x, y, divs)))
            out[k] = ring.add(out[k], ring.mul(va, vb))
    return out


def group_matrix(divs, values) -> list[list]:
    """Entry (tau, sigma) = b at sigma - tau."""
    elems = elements(divs)
    return [
        [values[index(divs, tuple((s - t) % d for s, t, d in zip(sig, tau, divs)))]
         for sig in elems]
        for tau in elems
    ]


def det(ring, rows) -> object:
    """Determinant by elimination over a field."""
    m = [list(r) for r in rows]
    n = len(m)
    result = ring.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != ring.zero), None)
        if pivot is None:
            return ring.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = ring.neg(result)
        result = ring.mul(result, m[col][col])
        inv = ring.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col] != ring.zero:
                f = ring.mul(m[r][col], inv)
                m[r] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(m[r], m[col])]
    return result


# ---------------------------------------------------------------------------
# Polynomials read from library output
# ---------------------------------------------------------------------------

def read_terms(poly, ring) -> dict[tuple, object]:
    """Sparse terms {exponents: coefficient} of a MultiPoly, via its text form."""
    fmt = poly.ring.format_elem
    return {tuple(exp): ring.parse(fmt(c)) for exp, c in poly.sorted_terms()}


def evaluate(ring, variables, terms, point) -> object:
    acc = ring.zero
    xs = [point[v] for v in variables]
    for exp, c in terms.items():
        val = c
        for x, k in zip(xs, exp):
            for _ in range(k):
                val = ring.mul(val, x)
        acc = ring.add(acc, val)
    return acc


def sparse_mul(ring, a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = ring.add(out.get(exp, ring.zero), ring.mul(ca, cb))
    return {e: c for e, c in out.items() if c != ring.zero}


def read_unipoly(poly, ring) -> list:
    fmt = poly.ring.format_elem
    return [ring.parse(fmt(c)) for c in poly.coeffs]


def unipoly_mul(ring, a: list, b: list) -> list:
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def s3_table() -> tuple[tuple[str, ...], list[list[int]]]:
    """S3 as permutations: s = (0 1 2), t = (1 2), element 3a+i is t^a s^i."""
    def compose(f, g):
        return tuple(f[g[x]] for x in range(3))

    ident, s, t = (0, 1, 2), (1, 2, 0), (0, 2, 1)
    perms = []
    for a in range(2):
        for i in range(3):
            p = ident
            for _ in range(a):
                p = compose(p, t)
            for _ in range(i):
                p = compose(p, s)
            perms.append(p)
    table = [[perms.index(compose(x, y)) for y in perms] for x in perms]
    return ("e", "s", "s2", "t", "ts", "ts2"), table
