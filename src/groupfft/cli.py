"""Command-line front end.

Subcommands: cyclo phi | cyclo basis, fft, ifft, weight, idempotents,
factor-xn1, groupdet, vandermonde, frobenius.  The request is argparse's
parsed namespace: each subparser binds its handler as ``run``, and
:func:`dispatch` takes the namespace and calls ``args.run(args)``.  Vectors
travel in the canonical lexicographic element order.  Exit codes:
0 success, 1 parse error (bad arguments or field descriptors, malformed
vectors, a --cayley file that cannot be read, is not JSON, or lacks labels
and table), 2 precondition violation (e.g. the characteristic divides the
group order, or a --q naming a field of characteristic 0), 3 verification
failure (a computed result failed the library's own check of its
identity, such as a factor product that differs from the group
determinant, or any failed --verify cross-check).  Only fft, ifft, weight
and idempotents read --verify; groupdet, factor-xn1, frobenius, vandermonde
and cyclo always check their results and print the same with or without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import factorize, frobenius, transform
from .abelian import AbelianGroup, parse_group
from .cyclotomic import cyclotomic_field, cyclotomic_polynomial, rational_basis_cyclic
from .errors import GroupfftError, PreconditionError, VerificationError
from .multipoly import symbolic_det
from .numtheory import factorization
from .rings import QQ, UniPoly, finite_field, format_unipoly


class CLIUsageError(Exception):
    """Malformed request: wrong vector shape, unparseable field, bad payload."""


def parse_field_descriptor(text: str, zeta_conductor: int | None = None):
    """Q | Qzeta[:d] | Fp:<p> | Fq:<p>^<r> | F<q> (q a prime power)."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text == "Qzeta":
        if zeta_conductor is None:
            raise CLIUsageError("Qzeta needs a conductor in this context")
        return cyclotomic_field(zeta_conductor)
    try:
        if text.startswith("Qzeta:"):
            return cyclotomic_field(int(text.split(":", 1)[1]))
        if text.startswith("Fp:"):
            return finite_field(int(text.split(":", 1)[1]), 1)
        if text.startswith("Fq:"):
            base, _, exp = text.split(":", 1)[1].partition("^")
            p, r = int(base), int(exp) if exp else 1
            return finite_field(p, r)
        if text.startswith("F"):
            q = int(text[1:])
            fact = factorization(q)
            if len(fact) != 1:
                raise CLIUsageError(f"{q} is not a prime power")
            ((p, r),) = fact.items()
            return finite_field(p, r)
    except ValueError as exc:
        raise CLIUsageError(f"bad field descriptor {text!r}") from exc
    raise CLIUsageError(f"bad field descriptor {text!r}")


def parse_q(text: str):
    """--q: a prime power q, or a descriptor of a finite field; a field of
    characteristic 0, Qzeta too, is refused (PreconditionError)."""
    field = parse_field_descriptor(text if text.startswith(("F", "Q")) else f"F{text}", 1)
    if not field.is_finite:
        raise PreconditionError("expected a finite field descriptor")
    return field


def parse_vector(text: str, group: AbelianGroup, field) -> transform.GroupVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != group.order:
        raise CLIUsageError(
            f"vector has {len(parts)} entries, group {group.describe()} needs {group.order}"
        )
    values = []
    for p in parts:
        try:
            values.append(field.from_rational(Fraction(p)))
        except (ValueError, ZeroDivisionError) as exc:
            raise CLIUsageError(f"bad vector entry {p!r}") from exc
    return transform.GroupVector(group, field, tuple(values))


def _format_values(vec) -> str:
    return ",".join(vec.field.format_elem(v) for v in vec.values)


def _json_values(vec) -> list[str]:
    return [vec.field.format_elem(v) for v in vec.values]


def _unipoly_json(p: UniPoly) -> list[str]:
    return [p.ring.format_elem(c) for c in p.coeffs]


def _multipoly_json(p) -> list:
    return [[list(exp), p.ring.format_elem(c)] for exp, c in p.sorted_terms()]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_phi(args) -> tuple[int, str]:
    poly = cyclotomic_polynomial(args.d)
    if args.json:
        return 0, json.dumps({"d": args.d, "coefficients": _unipoly_json(poly)})
    return 0, format_unipoly(poly)


def _cmd_basis(args) -> tuple[int, str]:
    basis = rational_basis_cyclic(args.n)
    if args.json:
        payload = [
            {"d": b.d, "j": b.j, "coefficients": _unipoly_json(b.poly)} for b in basis
        ]
        return 0, json.dumps({"n": args.n, "elements": payload})
    lines = [f"E(d={b.d},j={b.j}) = {format_unipoly(b.poly)}" for b in basis]
    return 0, "\n".join(lines)


def _transform_request(args):
    group = parse_group(args.group)
    field = parse_field_descriptor(args.field, zeta_conductor=group.exponent)
    vec = parse_vector(args.vector, group, field)
    return group, field, vec


def _sampled_round_trip_check(group, field, seed: int, samples: int = 20):
    """Seeded self-test: transform then invert random vectors exactly, as
    one batched transform each way.

    Entries come from factorize._random_elems, drawn in one pass, which
    draws every coefficient of an F_{p^r} or Q(zeta_d) element, so the
    samples leave the prime field and Q.
    """
    import random

    n = group.order
    values = factorize._random_elems(field, random.Random(seed), samples * n)
    vectors = [transform.GroupVector(group, field, tuple(values[i:i + n]))
               for i in range(0, samples * n, n)]
    back = transform.inverse_fft_many(transform.fft_many(vectors))
    if any(b.values != v.values for b, v in zip(back, vectors)):
        raise VerificationError("sampled round-trip self-check failed")


def _cmd_transform(args) -> tuple[int, str]:
    """fft, or ifft on the vector read on the dual side."""
    group, field, vec = _transform_request(args)
    if args.subcommand == "ifft":
        vec = transform.GroupVector(group, field, vec.values, dual=True)
        name, run, reference, back = ("fast inverse transform", transform.inverse_fft,
                                      transform.inverse_fft_reference, transform.fft)
    else:
        name, run, reference, back = ("fast transform", transform.fft,
                                      transform.fft_reference, transform.inverse_fft)
    out = run(vec)
    if args.verify:
        if out.values != reference(vec).values:
            raise VerificationError(f"{name} differs from the reference sum")
        if back(out).values != vec.values:
            raise VerificationError("round-trip self-check failed")
        _sampled_round_trip_check(group, field, args.seed)
    if args.json:
        return 0, json.dumps(
            {"group": group.describe(), "field": args.field, "values": _json_values(out)}
        )
    return 0, _format_values(out)


def _cmd_weight(args) -> tuple[int, str]:
    group, field, vec = _transform_request(args)
    rank = transform.blahut_weight(vec)
    if args.verify and rank != vec.hamming_weight():
        raise VerificationError("rank does not match the direct nonzero count")
    if args.json:
        return 0, json.dumps(
            {
                "group": group.describe(),
                "field": args.field,
                "weight": vec.hamming_weight(),
                "rank": rank,
            }
        )
    return 0, str(rank)


def _cmd_idempotents(args) -> tuple[int, str]:
    group = parse_group(args.group)
    field = parse_field_descriptor(args.field, zeta_conductor=group.exponent)
    idems = transform.group_idempotents(group, field)
    characters = group.characters()
    if args.verify:
        ident = group.identity
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        expected = tuple(
            field.one if a == ident else field.zero for a in group.elements()
        )
        if total.values != expected:
            raise VerificationError("idempotents do not sum to the identity indicator")
    if args.json:
        payload = [
            {"character": list(chi.residues), "values": _json_values(e)}
            for chi, e in zip(characters, idems)
        ]
        return 0, json.dumps({"group": group.describe(), "field": args.field, "idempotents": payload})
    lines = [
        f"chi={chi.residues}: {_format_values(e)}"
        for chi, e in zip(characters, idems)
    ]
    return 0, "\n".join(lines)


def _cmd_factor_xn1(args) -> tuple[int, str]:
    field = parse_q(args.q)
    factors = factorize.factor_xn_minus_one(args.n, field)
    if args.json:
        payload = [
            {"labels": list(cf.labels), "coefficients": _unipoly_json(cf.poly)}
            for cf in factors
        ]
        return 0, json.dumps({"n": args.n, "q": field.order, "factors": payload})
    return 0, "".join(f"({format_unipoly(cf.poly)})" for cf in factors)


def _cmd_groupdet(args) -> tuple[int, str]:
    group = parse_group(args.group)
    over = args.over
    if over == "Q":
        # a cyclic group's factorization over Q is memoized
        fd = (factorize.det_over_rationals(group.order) if len(group.divisors) == 1
              else factorize.factor_group_determinant(group, QQ))
    elif over == "split":
        field = (
            parse_field_descriptor(args.field, zeta_conductor=group.exponent)
            if args.field
            else None
        )
        fd = factorize.det_split_field(group, field)
    else:  # Fq, the one other choice the parser admits
        if args.q is None:
            raise CLIUsageError("--over Fq requires --q")
        fd = factorize.factor_group_determinant(group, parse_q(args.q))
    if args.json:
        payload = [
            {
                "label": e.label,
                "multiplicity": e.multiplicity,
                "claimed_irreducible": e.claimed_irreducible,
                "coset": list(e.coset) if e.coset else None,
                "terms": _multipoly_json(e.poly),
            }
            for e in fd.factors
        ]
        return 0, json.dumps(
            {"group": group.describe(), "over": over, "variables": list(fd.variables), "factors": payload}
        )
    pieces = []
    for e in fd.factors:
        body = f"({e.poly})"
        if e.multiplicity > 1:
            body += f"^{e.multiplicity}"
        pieces.append(body)
    return 0, "".join(pieces)


def _cmd_vandermonde(args) -> tuple[int, str]:
    if args.n < 1:
        raise PreconditionError("n must be >= 1")
    field = (
        parse_field_descriptor(args.field, zeta_conductor=args.n)
        if args.field
        else cyclotomic_field(args.n)
    )
    value = factorize.vandermonde_det(args.n, field)
    rendered = field.format_elem(value)
    if args.json:
        return 0, json.dumps({"n": args.n, "value": rendered})
    return 0, rendered


def _read_cayley(path: str):
    """(labels, table, name) from a JSON file holding an object with
    "labels", a list of names, "table", a list of rows of element indices,
    and an optional "name"."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        labels, table, name = data["labels"], data["table"], data.get("name", "G")
    except OSError as exc:
        raise CLIUsageError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise CLIUsageError(f"{path} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise CLIUsageError(f'{path} must hold an object with "labels" and "table"') from exc
    if not (
        isinstance(labels, list)
        and not any(isinstance(x, (list, dict)) for x in labels)
        and isinstance(table, list)
        and all(isinstance(row, list) and all(isinstance(x, int) for x in row) for row in table)
    ):
        raise CLIUsageError(f'{path}: "labels" must list names and "table" rows of element indices')
    if not isinstance(name, str):
        raise CLIUsageError(f'{path}: "name" must be a string')
    return labels, table, name


def _cmd_frobenius(args) -> tuple[int, str]:
    if args.cayley:
        group = frobenius.FiniteGroup.from_table(*_read_cayley(args.cayley))
        if group.order > 8:
            raise PreconditionError("symbolic determinant capped at order 8")
        det = symbolic_det(group.symbolic_matrix(QQ))
        if args.json:
            return 0, json.dumps(
                {"group": group.name, "order": group.order, "det": _multipoly_json(det)}
            )
        return 0, f"det A_{group.name} = {det}"
    if args.group != "S3":
        raise CLIUsageError("built-in groups: S3 (or supply --cayley FILE)")
    result = frobenius.block_diagonalize_s3()
    data = frobenius.s3()
    fact = frobenius.frobenius_factorization(data.group, data.representations)
    # the power-sum factor of the degree-2 representation
    if fact.factors[2].poly != result.det_m:
        raise VerificationError("power-sum factor does not reproduce det M")
    if args.json:
        return 0, json.dumps(
            {
                "group": "S3",
                "L0": _multipoly_json(result.l0),
                "L1": _multipoly_json(result.l1),
                "detM": _multipoly_json(result.det_m),
                "factorization": [
                    {"label": e.label, "multiplicity": e.multiplicity, "terms": _multipoly_json(e.poly)}
                    for e in fact.factors
                ],
                "verified": True,
            }
        )
    lines = [
        f"L0 = {result.l0}",
        f"L1 = {result.l1}",
        f"det M = {result.det_m}",
        "det A_S3 = L0 * L1 * (det M)^2: verified",
        "power-sum form of the degree-2 factor equals det M: verified",
    ]
    return 0, "\n".join(lines)


def dispatch(args: argparse.Namespace) -> tuple[int, str]:
    """Run one parsed request through the handler its subparser bound as
    ``run``; returns (exit_code, rendered_output)."""
    try:
        return args.run(args)
    except CLIUsageError as exc:
        return 1, f"error: {exc}"
    except VerificationError as exc:
        return 3, f"error: {exc}"
    except GroupfftError as exc:
        return 2, f"error: {exc}"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and argparse reads the output streams and the terminal
    width when it prints, not when it is built."""
    parser = argparse.ArgumentParser(
        prog="groupfft",
        description=(
            "Exact Fourier analysis on finite abelian groups. Vectors are "
            "comma-separated in lexicographic element order; fields are "
            "Q, Qzeta[:d], Fp:<p>, Fq:<p>^<r> or F<q>. Elements of Q(zeta_d) "
            "print as polynomials in z, extension-field elements in Y."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled self-tests")
    parser.add_argument("--verify", action="store_true", help=(
        "run redundant cross-checks in fft, ifft, weight and idempotents; the "
        "other subcommands always check their results"))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cyclo = sub.add_parser("cyclo", help="cyclotomic polynomials and rational bases")
    cyclo_sub = p_cyclo.add_subparsers(dest="cyclo_action", required=True)
    p_phi = cyclo_sub.add_parser("phi", help="print Phi_d")
    p_phi.add_argument("d", type=int)
    p_phi.set_defaults(run=_cmd_phi)
    p_basis = cyclo_sub.add_parser("basis", help="rational basis of Q[X]/(X^n - 1)")
    p_basis.add_argument("n", type=int)
    p_basis.set_defaults(run=_cmd_basis)

    for name, helptext, run in [
        ("fft", "forward transform", _cmd_transform),
        ("ifft", "inverse transform", _cmd_transform),
        ("weight", "Hamming weight via the dual-side matrix rank", _cmd_weight),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=run)
        p.add_argument("--group", required=True)
        p.add_argument("--field", required=True)
        p.add_argument("--vector", required=True)

    p_idem = sub.add_parser("idempotents", help="orthogonal group-ring idempotents")
    p_idem.add_argument("--group", required=True)
    p_idem.add_argument("--field", required=True)
    p_idem.set_defaults(run=_cmd_idempotents)

    p_fx = sub.add_parser("factor-xn1", help="factor X^n - 1 over F_q")
    p_fx.add_argument("--n", type=int, required=True)
    p_fx.add_argument("--q", required=True)
    p_fx.set_defaults(run=_cmd_factor_xn1)

    p_gd = sub.add_parser("groupdet", help="factor the group determinant")
    p_gd.add_argument("--group", required=True)
    p_gd.add_argument("--over", required=True, choices=["Q", "Fq", "split"])
    p_gd.add_argument("--q")
    p_gd.add_argument("--field")
    p_gd.set_defaults(run=_cmd_groupdet)

    p_vd = sub.add_parser("vandermonde", help="determinant of the character matrix of C_n")
    p_vd.add_argument("--n", type=int, required=True)
    p_vd.add_argument("--field")
    p_vd.set_defaults(run=_cmd_vandermonde)

    p_fr = sub.add_parser("frobenius", help="block diagonalization and factor check")
    p_fr.add_argument("--group", default="S3")
    p_fr.add_argument("--cayley", help="JSON file with labels + table")
    p_fr.set_defaults(run=_cmd_frobenius)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    code, output = dispatch(args)
    stream = sys.stdout if code == 0 else sys.stderr
    if output:
        print(output, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
