"""The four workloads: seeded inputs, the timed library call, and its oracle.

Input generation makes plain data only (ints, Fractions, strings); every
library object is built inside the timed op, so set-up hides no library
work.  Each workload draws a fixed number of ops per case, so its cost is
the same for every seed; the seed picks values, supports, orders and the
small structural choices named below.  ``check`` runs outside the timed
interval and raises ``WrongResult`` on any disagreement.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

import oracle
from oracle import require


@dataclass
class Op:
    case: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Refused(Exception):
    """A typed refusal: the library raised GroupfftError or the CLI exited 1/2."""


def _prime_power(q: int) -> tuple[int, int]:
    (p,) = oracle.prime_factors(q)
    r = 0
    while q > 1:
        q //= p
        r += 1
    return p, r


# ---------------------------------------------------------------------------
# Fields: spec = ("F", q) | ("Q",) | ("Qzeta", d)
# ---------------------------------------------------------------------------

def _lib_field(gf, spec):
    if spec[0] == "Q":
        return gf.QQ
    if spec[0] == "Qzeta":
        return gf.cyclotomic_field(spec[1])
    p, r = _prime_power(spec[1])
    base = gf.PrimeField(p)
    return base if r == 1 else gf.ExtField(base, gf.find_irreducible(base, r))


def _lib_elem(field, spec, v):
    if spec[0] == "Q":
        return field.from_rational(v)
    if spec[0] == "Qzeta":
        return field.from_residue(list(v))
    if isinstance(v, int):
        return field.from_int(v)
    acc = field.zero
    for k, c in enumerate(v):
        acc = acc + field.from_int(c) * field.gen ** k
    return acc


def _own_ring(spec, lib_field=None):
    if spec[0] == "Q":
        return oracle.Rationals()
    if spec[0] == "Qzeta":
        return oracle.CyclotomicField(spec[1])
    p, r = _prime_power(spec[1])
    if r == 1:
        return oracle.PrimeField(p)
    fmt = lib_field.base.format_elem
    return oracle.ExtensionField(p, [int(fmt(c)) for c in lib_field.modulus.coeffs])


def _own_root(ring, spec, e):
    if spec[0] == "Q":
        return Fraction(1 if e == 1 else -1)
    if spec[0] == "Qzeta":
        return ring.power(ring.zeta(), spec[1] // e)
    return oracle.canonical_root(ring, e)


def _random_value(rng, spec, nonzero=False):
    while True:
        if spec[0] == "Q":
            v = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
        elif spec[0] == "Qzeta":
            deg = len(oracle.cyclotomic(spec[1])) - 1
            v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(deg))
        else:
            p, r = _prime_power(spec[1])
            v = rng.randrange(p) if r == 1 else tuple(rng.randrange(p) for _ in range(r))
        if not (nonzero and _is_zero(v)):
            return v


def _is_zero(v) -> bool:
    return not any(v) if isinstance(v, tuple) else not v


def _describe(divs, spec):
    name = "x".join(f"C{d}" for d in divs)
    field = "Q" if spec[0] == "Q" else (f"Qzeta{spec[1]}" if spec[0] == "Qzeta" else f"F{spec[1]}")
    return f"{name}/{field}"


def _read(ring, vec):
    fmt = vec.field.format_elem
    return [ring.parse(fmt(v)) for v in vec.values]


# ---------------------------------------------------------------------------
# transform: fft -> inverse_fft round trips and convolution-theorem checks
# ---------------------------------------------------------------------------

# (cyclic orders, field, round trips, convolution checks) per pass.  Most
# draws are small, so p50 sees per-call overhead; the n = 64 and n = 256
# draws are 15% of ops and set p90 and the batch time.
TRANSFORM_CASES = [
    ((2, 6), ("F", 13), 24, 6),
    ((16,), ("F", 17), 24, 6),
    ((8,), ("F", 9), 16, 4),
    ((2, 4), ("Qzeta", 4), 16, 4),
    ((4, 4, 4), ("F", 13), 6, 2),
    ((64,), ("F", 257), 6, 2),
    ((256,), ("F", 257), 1, 1),
]


def _transform_op(gf, divs, spec, raws, convolution):
    case = _describe(divs, spec) + (" conv" if convolution else " roundtrip")

    def run():
        field = _lib_field(gf, spec)
        group = gf.AbelianGroup(divs)
        vecs = [gf.GroupVector(group, field, tuple(_lib_elem(field, spec, v) for v in raw))
                for raw in raws]
        if not convolution:
            big = gf.fft(vecs[0])
            return big, gf.inverse_fft(big)
        a_hat, b_hat = gf.fft(vecs[0]), gf.fft(vecs[1])
        conv = gf.convolve(vecs[0], vecs[1])
        return a_hat, b_hat, conv, gf.fft(conv)

    def check(out):
        ring = _own_ring(spec, out[0].field)
        root = _own_root(ring, spec, lcm(*divs))
        require(_read(ring, out[0]) == oracle.dft(ring, divs, raws[0], root), f"{case}: fft")
        if not convolution:
            require(_read(ring, out[1]) == raws[0], f"{case}: inverse_fft(fft(b)) != b")
            return
        require(_read(ring, out[1]) == oracle.dft(ring, divs, raws[1], root), f"{case}: fft")
        conv = oracle.convolve(ring, divs, raws[0], raws[1])
        require(_read(ring, out[2]) == conv, f"{case}: convolve")
        products = [ring.mul(x, y) for x, y in zip(_read(ring, out[0]), _read(ring, out[1]))]
        require(_read(ring, out[3]) == products, f"{case}: fft(a*b) != fft(a).fft(b)")

    return Op(case, run, check)


def transform_ops(gf, rng):
    ops = []
    for divs, spec, round_trips, convolutions in TRANSFORM_CASES:
        n = 1
        for d in divs:
            n *= d
        for k in range(round_trips + convolutions):
            conv = k >= round_trips
            raws = [[_random_value(rng, spec) for _ in range(n)] for _ in range(2 if conv else 1)]
            ops.append(_transform_op(gf, divs, spec, raws, conv))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# weight: blahut_weight against the Hamming weight of the input
# ---------------------------------------------------------------------------

# (cyclic orders, field, ops per pass).  F5 on C3, F3 on C8 and Q on C6
# lack the root of unity and take the lift to F25, F9 and Q(zeta_6); C2xC2
# over Q takes the rational rank path.
WEIGHT_CASES = [
    ((6,), ("F", 7), 24),
    ((2, 6), ("F", 13), 24),
    ((3,), ("F", 5), 16),
    ((8,), ("F", 3), 16),
    ((6,), ("Q",), 12),
    ((2, 2), ("Q",), 16),
    ((32,), ("F", 97), 12),
    ((64,), ("F", 257), 4),
]


def weight_ops(gf, rng):
    ops = []
    for divs, spec, count in WEIGHT_CASES:
        n = 1
        for d in divs:
            n *= d
        # Weights are spread evenly over 0..n, since elimination cost grows
        # with the rank; the seed picks supports and values.
        for k in range(count):
            weight = (2 * k + 1) * (n + 1) // (2 * count)
            support = set(rng.sample(range(n), weight))
            raw = [_random_value(rng, spec, nonzero=True) if i in support else
                   (Fraction(0) if spec[0] == "Q" else 0) for i in range(n)]
            ops.append(_weight_op(gf, divs, spec, raw, weight))
    rng.shuffle(ops)
    return ops


def _weight_op(gf, divs, spec, raw, weight):
    case = _describe(divs, spec)

    def run():
        field = _lib_field(gf, spec)
        vec = gf.GroupVector(gf.AbelianGroup(divs), field,
                             tuple(_lib_elem(field, spec, v) for v in raw))
        return gf.blahut_weight(vec)

    def check(rank):
        require(rank == weight, f"{case}: rank {rank} != Hamming weight {weight}")

    return Op(case, run, check)


# ---------------------------------------------------------------------------
# groupdet: a fixed batch of factorizations, checked against each other
# ---------------------------------------------------------------------------

RATIONAL_NS = (5, 6, 7, 8, 9, 10, 12)
# (8, 5), (8, 7) and (12, 7) cost about as much as (7, 2) and (8, 3); the
# five sit around the batch's median op, so op_p50_cu rests on several
# similar ops instead of one.
FINITE_CORE = ((7, 2), (8, 3), (9, 2), (9, 7), (10, 3), (12, 5), (8, 5), (8, 7), (12, 7))
# Cheap extra (n, p) cases, each under 0.5% of the batch and cheaper than
# the median op, so the draw moves neither batch_cu nor op_p50_cu; the seed
# draws six, which puts the five similar cases above in the middle of the
# batch's cost order.
FINITE_POOL = ((5, 2), (5, 3), (6, 5), (6, 7), (5, 11), (6, 11), (6, 13))
SPLIT_GROUPS = ((6,), (8,), (2, 4))
XN1_CASES = ((63, 2), (100, 3))
_POINTS = 2


def _abelian_variables(divs) -> tuple[str, ...]:
    return tuple("X_" + "_".join(map(str, x)) for x in oracle.elements(divs))


def _check_product(case, ring, base, variables, factors, group_matrix, rng):
    """prod f^m over the factors = det of the group matrix, at random points.

    The factors have coefficients in ``ring``, which contains ``base``; the
    point has integer coordinates and the determinant is taken over ``base``.
    """
    terms = [(oracle.read_terms(poly, ring), mult) for poly, mult in factors]
    for _ in range(_POINTS):
        xs = [base.from_int(rng.randint(-20, 20)) for _ in variables]
        point = {v: ring.embed(x) for v, x in zip(variables, xs)}
        prod = ring.one
        for t, mult in terms:
            val = oracle.evaluate(ring, variables, t, point)
            for _ in range(mult):
                prod = ring.mul(prod, val)
        require(prod == ring.embed(oracle.det(base, group_matrix(xs))),
                f"{case}: factor product != determinant at a point")


def _check_abelian_product(case, ring, base, fd, divs, rng):
    require(tuple(fd.variables) == _abelian_variables(divs), f"{case}: variables")
    _check_product(case, ring, base, fd.variables,
                   [(e.poly, e.multiplicity) for e in fd.factors],
                   lambda xs: oracle.group_matrix(divs, xs), rng)


def _check_s3_product(case, factors, rng):
    labels, table = oracle.s3_table()
    inverse = [row.index(0) for row in table]
    _check_product(case, oracle.CyclotomicField(3), oracle.Rationals(),
                   tuple(f"X_{lab}" for lab in labels), factors,
                   lambda xs: [[xs[table[inverse[t]][s]] for s in range(6)] for t in range(6)],
                   rng)


def groupdet_ops(gf, rng, check_rng):
    finite = list(FINITE_CORE) + rng.sample(FINITE_POOL, 6)
    results: dict = {}
    ops = []

    def rational(n):
        def run():
            return gf.det_over_rationals(n)

        def check(fd):
            ring = oracle.Rationals()
            require(sorted(e.divisor for e in fd.factors) == oracle.divisors(n),
                    f"Q n={n}: divisors")
            for e in fd.factors:
                degree = max(sum(exp) for exp, _ in e.poly.sorted_terms())
                require(degree == oracle.totient(e.divisor), f"Q n={n}: degree")
            _check_abelian_product(f"Q n={n}", ring, ring, fd, (n,), check_rng)
            results[("Q", n)] = fd

        return Op(f"rationals n={n}", run, check)

    def modular(n, p):
        def run():
            return gf.det_over_finite_field(n, gf.PrimeField(p))

        def check(fd):
            ring = oracle.PrimeField(p)
            cosets = oracle.q_cosets(n, p)
            require(sorted(e.coset for e in fd.factors) == sorted(cosets), f"F{p} n={n}: cosets")
            _check_abelian_product(f"F{p} n={n}", ring, ring, fd, (n,), check_rng)
            results[(p, n)] = fd

        return Op(f"F{p} n={n}", run, check)

    def split(divs):
        def run():
            return gf.det_split_field(gf.AbelianGroup(divs))

        def check(fd):
            case = f"split {divs}"
            require(len(fd.factors) == len(oracle.elements(divs)), f"{case}: factor count")
            _check_abelian_product(case, oracle.CyclotomicField(lcm(*divs)), oracle.Rationals(),
                                   fd, divs, check_rng)

        return Op("split " + "x".join(f"C{d}" for d in divs), run, check)

    def xn1(n, p):
        def run():
            return gf.factor_xn_minus_one(n, gf.PrimeField(p))

        def check(factors):
            ring = oracle.PrimeField(p)
            cosets = oracle.q_cosets(n, p)
            require([tuple(f.labels) for f in factors] == cosets, f"X^{n}-1 F{p}: labels")
            prod = [1]
            for f, coset in zip(factors, cosets):
                coeffs = oracle.read_unipoly(f.poly, ring)
                require(len(coeffs) == len(coset) + 1 and coeffs[-1] == 1,
                        f"X^{n}-1 F{p}: factor degree")
                prod = oracle.unipoly_mul(ring, prod, coeffs)
            # Squarefree X^n - 1 has exactly one irreducible factor per coset,
            # so a product with that many factors of these degrees is the
            # irreducible factorization.
            require(prod == [p - 1] + [0] * (n - 1) + [1], f"X^{n}-1 F{p}: product")

        return Op(f"X^{n}-1 over F{p}", run, check)

    def blocks():
        def check(res):
            require(tuple(res.group.labels) == oracle.s3_table()[0], "S3 labels")
            _check_s3_product("S3 blocks", [(res.l0, 1), (res.l1, 1), (res.det_m, 2)],
                              check_rng)

        return Op("S3 block diagonalization", gf.block_diagonalize_s3, check)

    def frobenius():
        def run():
            data = gf.s3()
            return gf.frobenius_factorization(data.group, data.representations)

        def check(fd):
            require(tuple(fd.variables) == tuple(f"X_{lab}" for lab in oracle.s3_table()[0]),
                    "S3 variables")
            _check_s3_product("S3 Frobenius", [(e.poly, e.multiplicity) for e in fd.factors],
                              check_rng)

        return Op("S3 Frobenius factorization", run, check)

    ops += [rational(n) for n in RATIONAL_NS]
    ops += [modular(n, p) for n, p in finite]
    ops += [split(divs) for divs in SPLIT_GROUPS]
    ops += [xn1(n, p) for n, p in XN1_CASES]
    ops += [blocks(), frobenius()]
    rng.shuffle(ops)

    def finish():
        """Acceptance criterion 10: each rational factor reduced mod p is the
        product of the modular factors that share its divisor."""
        for n, p in finite:
            ring = oracle.PrimeField(p)
            rational_fd, modular_fd = results[("Q", n)], results[(p, n)]
            by_divisor: dict = {}
            for e in modular_fd.factors:
                ell = e.coset[0]
                d = n // gcd(n, ell) if ell else 1
                by_divisor.setdefault(d, []).append(oracle.read_terms(e.poly, ring))
            for e in rational_fd.factors:
                reduced = {exp: ring.from_fraction(c) for exp, c in
                           oracle.read_terms(e.poly, oracle.Rationals()).items()}
                reduced = {exp: c for exp, c in reduced.items() if c}
                prod = None
                for part in by_divisor.pop(e.divisor):
                    prod = part if prod is None else oracle.sparse_mul(ring, prod, part)
                require(prod == reduced, f"criterion 10: n={n} p={p} d={e.divisor}")
            require(not by_divisor, f"criterion 10: n={n} p={p} unused modular factors")

    return ops, finish


# ---------------------------------------------------------------------------
# cli: small in-process groupfft.cli.main(argv) calls
# ---------------------------------------------------------------------------

_FLAGS = ((), ("--json",), ("--verify",), ("--json", "--verify"))
CLI_FFT = (("C2xC3", "F7"), ("C4", "Fp:13"), ("C2xC2", "Q"), ("C5", "F11"),
           ("C6", "Qzeta"), ("C8", "F9"), ("C2xC4", "F17"), ("C3", "Qzeta:6"))
CLI_IFFT = (("C2xC3", "F13"), ("C4", "F5"), ("C2", "Q"), ("C6", "Qzeta"), ("C8", "F17"))
CLI_WEIGHT = (("C6", "F7"), ("C2xC6", "F13"), ("C3", "F5"), ("C8", "F3"), ("C6", "Q"),
              ("C2xC2", "Q"), ("C4", "Qzeta"))
CLI_IDEMPOTENTS = (("C4", "Qzeta"), ("C2xC3", "F7"), ("C5", "F11"), ("C2xC2", "Q"))
CLI_XN1 = ((12, "5"), (15, "2"), (20, "3"), (21, "2"), (24, "7"), (9, "4"))
CLI_GROUPDET = (("C5", "Fq", "2"), ("C6", "Fq", "5"), ("C4", "Fq", "3"), ("C6", "Fq", "7"),
                ("C2xC2", "split", None), ("C3", "split", None), ("C4", "split", None),
                ("C2xC3", "split", None),
                ("C3", "Q", None), ("C4", "Q", None), ("C5", "Q", None), ("C6", "Q", None))
CLI_VANDERMONDE = ((4, None), (5, "F11"), (6, None), (3, "F7"))
CLI_PHI = (6, 12, 15, 20, 30, 36)
CLI_BASIS = (6, 8, 12)
# Q(zeta_d) with d odd contains a primitive 2d-th root of unity (-zeta_d), so
# these requests are valid; the library refuses them today (exit 2), and they
# are counted as failures, not filtered out.
CLI_ODD_CONDUCTOR = (("fft", "C6", "Qzeta:3"), ("idempotents", "C2xC3", "Qzeta:3"),
                     ("vandermonde", 10, "Qzeta:5"))


def _cli_field(gf, text, exponent):
    if text == "Q":
        return gf.QQ
    if text == "Qzeta":
        return gf.cyclotomic_field(exponent)
    if text.startswith("Qzeta:"):
        return gf.cyclotomic_field(int(text[6:]))
    if text.startswith("Fp:"):
        return gf.PrimeField(int(text[3:]))
    return _lib_field(gf, ("F", int(text[1:])))


def _vector_text(rng, field_text):
    def one():
        k = rng.randint(-12, 12)
        if field_text.startswith("Q") and rng.random() < 0.25:
            return f"{k}/{rng.randint(2, 5)}"
        return str(k)

    return one


def _nonzero_in(field_text, token):
    value = Fraction(token)
    if field_text.startswith("Q"):
        return value != 0
    q = int(field_text[3:]) if field_text.startswith("Fp:") else int(field_text[1:])
    p = oracle.prime_factors(q)[0]
    return value.numerator % p != 0


def _terms_json(poly):
    fmt = poly.ring.format_elem
    return [[list(exp), fmt(c)] for exp, c in poly.sorted_terms()]


def _cli_expected(gf, kind, params):
    """The payload the CLI must print: the same library call, rendered."""
    if kind in ("fft", "ifft", "weight", "idempotents"):
        group_text, field_text, vector = params
        group = gf.parse_group(group_text)
        field = _cli_field(gf, field_text, group.exponent)
        fmt = field.format_elem
        head = {"group": group.describe(), "field": field_text}
        if kind == "idempotents":
            idems = gf.group_idempotents(group, field)
            return {**head, "idempotents": [
                {"character": list(chi.residues), "values": [fmt(v) for v in e.values]}
                for chi, e in zip(group.characters(), idems)]}
        tokens = vector.split(",")
        values = tuple(field.from_rational(Fraction(t)) for t in tokens)
        if kind == "weight":
            weight = sum(1 for t in tokens if _nonzero_in(field_text, t))
            return {**head, "weight": weight, "rank": weight}
        if kind == "fft":
            out = gf.fft(gf.GroupVector(group, field, values))
        else:
            out = gf.inverse_fft(gf.GroupVector(group, field, values, dual=True))
        return {**head, "values": [fmt(v) for v in out.values]}
    if kind == "factor-xn1":
        n, q = params
        field = _lib_field(gf, ("F", int(q)))
        return {"n": n, "q": field.order, "factors": [
            {"labels": list(cf.labels), "coefficients": [field.format_elem(c) for c in cf.poly.coeffs]}
            for cf in gf.factor_xn_minus_one(n, field)]}
    if kind == "groupdet":
        group_text, over, q = params
        group = gf.parse_group(group_text)
        if over == "Q":
            fd = gf.det_over_rationals(group.divisors[0])
        elif over == "split":
            fd = gf.det_split_field(group)
        else:
            fd = gf.det_over_finite_field(group.divisors[0], _lib_field(gf, ("F", int(q))))
        return {"group": group.describe(), "over": over, "variables": list(fd.variables),
                "factors": [{"label": e.label, "multiplicity": e.multiplicity,
                             "claimed_irreducible": e.claimed_irreducible,
                             "coset": list(e.coset) if e.coset else None,
                             "terms": _terms_json(e.poly)} for e in fd.factors]}
    if kind == "vandermonde":
        n, field_text = params
        field = _cli_field(gf, field_text or "Qzeta", n)
        return {"n": n, "value": field.format_elem(gf.vandermonde_det(n, field))}
    if kind == "phi":
        (d,) = params
        return {"d": d, "coefficients": [str(c) for c in gf.cyclotomic_polynomial(d).coeffs]}
    if kind == "basis":
        (n,) = params
        return {"n": n, "elements": [
            {"d": b.d, "j": b.j, "coefficients": [str(c) for c in b.poly.coeffs]}
            for b in gf.rational_basis_cyclic(n)]}
    res = gf.block_diagonalize_s3()
    data = gf.s3()
    fact = gf.frobenius_factorization(data.group, data.representations)
    return {"group": "S3", "L0": _terms_json(res.l0), "L1": _terms_json(res.l1),
            "detM": _terms_json(res.det_m),
            "factorization": [{"label": e.label, "multiplicity": e.multiplicity,
                               "terms": _terms_json(e.poly)} for e in fact.factors],
            "verified": True}


def _text_of(kind, payload):
    if kind in ("fft", "ifft"):
        return ",".join(payload["values"])
    if kind == "weight":
        return str(payload["rank"])
    return "\n".join(f"chi={tuple(e['character'])}: {','.join(e['values'])}"
                     for e in payload["idempotents"])


def _cli_op(gf, kind, argv, params, json_output):
    case = f"cli {kind}"

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gf.cli.main(argv)
        if code in (1, 2):
            raise Refused(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def check(result):
        code, text = result
        require(code == 0, f"{case}: exit code {code}")
        expected = _cli_expected(gf, kind, params)
        if json_output:
            require(json.loads(text) == expected, f"{case}: {' '.join(argv)}: payload")
        else:
            require(text.rstrip("\n") == _text_of(kind, expected), f"{case}: {' '.join(argv)}")

    return Op(case, run, check)


def cli_ops(gf, rng):
    """Every slot gets the same flags for every seed (--verify reruns the
    transform on 20 sampled vectors, so it must not move with the seed);
    the seed draws the vectors and the order."""
    ops = []

    def vector_op(kind, group_text, field_text, flags):
        n = _group_order(group_text)
        one = _vector_text(rng, field_text)
        vector = ",".join(one() for _ in range(n))
        argv = [*flags, kind, "--group", group_text, "--field", field_text, f"--vector={vector}"]
        ops.append(_cli_op(gf, kind, argv, (group_text, field_text, vector), "--json" in flags))

    for reps, kind, slots in ((4, "fft", CLI_FFT), (2, "ifft", CLI_IFFT), (2, "weight", CLI_WEIGHT)):
        for i, (group_text, field_text) in enumerate(slots):
            for k in range(reps):
                vector_op(kind, group_text, field_text, _FLAGS[(i + k) % 4])
    for i, (group_text, field_text) in enumerate(CLI_IDEMPOTENTS):
        for k in range(2):
            flags = _FLAGS[(i + k) % 4]
            argv = [*flags, "idempotents", "--group", group_text, "--field", field_text]
            ops.append(_cli_op(gf, "idempotents", argv, (group_text, field_text, None),
                               "--json" in flags))
    for n, q in CLI_XN1:
        argv = ["--json", "factor-xn1", "--n", str(n), "--q", q]
        ops.append(_cli_op(gf, "factor-xn1", argv, (n, q), True))
    for group_text, over, q in CLI_GROUPDET:
        argv = ["--json", "groupdet", "--group", group_text, "--over", over]
        argv += ["--q", q] if q else []
        ops.append(_cli_op(gf, "groupdet", argv, (group_text, over, q), True))
    for n, field_text in CLI_VANDERMONDE:
        argv = ["--json", "vandermonde", "--n", str(n)] + (["--field", field_text] if field_text else [])
        ops.append(_cli_op(gf, "vandermonde", argv, (n, field_text), True))
    for d in CLI_PHI:
        ops.append(_cli_op(gf, "phi", ["--json", "cyclo", "phi", str(d)], (d,), True))
    for n in CLI_BASIS:
        ops.append(_cli_op(gf, "basis", ["--json", "cyclo", "basis", str(n)], (n,), True))
    ops.append(_cli_op(gf, "frobenius", ["--json", "frobenius", "--group", "S3"], (), True))
    for kind, group, field_text in CLI_ODD_CONDUCTOR:
        if kind == "vandermonde":
            argv = ["--json", "vandermonde", "--n", str(group), "--field", field_text]
            ops.append(_cli_op(gf, kind, argv, (group, field_text), True))
        elif kind == "idempotents":
            argv = ["--json", kind, "--group", group, "--field", field_text]
            ops.append(_cli_op(gf, kind, argv, (group, field_text, None), True))
        else:
            vector_op(kind, group, field_text, ("--json",))
    rng.shuffle(ops)
    return ops


def _group_order(group_text: str) -> int:
    n = 1
    for part in group_text.split("x"):
        n *= int(part[1:])
    return n


WORKLOADS = ("transform", "weight", "groupdet", "cli")
# The calibration kernel each workload's work resembles (see calib.py).
KERNEL = {"transform": "arith", "weight": "mixed", "groupdet": "mixed", "cli": "stdlib"}


def build(name: str, gf, seed: int):
    """(ops, finish) for one pass; finish runs cross-op checks after the pass."""
    rng = random.Random(f"{name}:{seed}")
    if name == "transform":
        return transform_ops(gf, rng), None
    if name == "weight":
        return weight_ops(gf, rng), None
    if name == "groupdet":
        return groupdet_ops(gf, rng, random.Random(f"{name}:check:{seed}"))
    if name == "cli":
        return cli_ops(gf, rng), None
    raise ValueError(f"unknown workload {name!r}")
