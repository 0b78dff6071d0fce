"""CLI contract: outputs, exit codes, JSON round trips."""

import argparse
import json
from dataclasses import replace

import pytest

from groupfft import factorize, transform
from groupfft.abelian import AbelianGroup, parse_group
from groupfft.errors import VerificationError
from groupfft.rings import QQ, finite_field
from groupfft.cli import (
    _sampled_round_trip_check,
    build_parser,
    dispatch,
    main,
    parse_field_descriptor,
    parse_vector,
)


def run(argv):
    """Invoke main, capturing nothing; returns the exit code."""
    return main(argv)


class TestGoldenOutputs:
    def test_factor_xn1_example(self, capsys):
        assert run(["factor-xn1", "--n", "3", "--q", "2"]) == 0
        assert capsys.readouterr().out.strip() == "(X + 1)(X^2 + X + 1)"

    def test_weight_example(self, capsys):
        assert run(["weight", "--group", "C2", "--field", "Q", "--vector", "1,0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_fft_example(self, capsys):
        assert run(["fft", "--group", "C2", "--field", "Q", "--vector", "1,1"]) == 0
        assert capsys.readouterr().out.strip() == "2,0"

    def test_phi_output(self, capsys):
        assert run(["cyclo", "phi", "6"]) == 0
        assert capsys.readouterr().out.strip() == "X^2 - X + 1"

    def test_basis_output(self, capsys):
        assert run(["cyclo", "basis", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [
            "E(d=1,j=0) = 1/3*X^2 + 1/3*X + 1/3",
            "E(d=3,j=0) = -1/3*X^2 - 1/3*X + 2/3",
            "E(d=3,j=1) = -1/3*X^2 + 2/3*X - 1/3",
        ]

    def test_vandermonde_output(self, capsys):
        assert run(["vandermonde", "--n", "4"]) == 0
        assert capsys.readouterr().out.strip() == "-16*z"

    def test_groupdet_split(self, capsys):
        assert run(["groupdet", "--group", "C2", "--over", "split", "--field", "Q"]) == 0
        assert capsys.readouterr().out.strip() == "(X_0 + X_1)(X_0 - X_1)"

    # Q(zeta_d) coefficients print bare (z, -z - 1 in parentheses only as
    # a sum); F_{p^r} coefficients always print in parentheses
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["groupdet", "--group", "C3", "--over", "split"],
                "(X_0 + X_1 + X_2)(X_0 + z*X_1 + (-z - 1)*X_2)(X_0 + (-z - 1)*X_1 + z*X_2)",
            ),
            (
                ["groupdet", "--group", "C3", "--over", "split", "--field", "F4"],
                "(X_0 + X_1 + X_2)(X_0 + (Y)*X_1 + (Y + 1)*X_2)(X_0 + (Y + 1)*X_1 + (Y)*X_2)",
            ),
            (
                ["factor-xn1", "--n", "5", "--q", "4"],
                "(X + 1)(X^2 + (Y)*X + 1)(X^2 + (Y + 1)*X + 1)",
            ),
        ],
        ids=["split-Qzeta3", "split-F4", "factor-xn1-F4"],
    )
    def test_extension_coefficients(self, capsys, argv, expected):
        assert run(argv) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_idempotents_qzeta_c3(self, capsys):
        assert run(["idempotents", "--group", "C3", "--field", "Qzeta"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "chi=(1,): 1/3,-1/3*z - 1/3,1/3*z"

    def test_frobenius_s3(self, capsys):
        assert run(["frobenius", "--group", "S3"]) == 0
        out = capsys.readouterr().out
        assert "L0 = X_e + X_s + X_s2 + X_t + X_ts + X_ts2" in out
        assert "det A_S3 = L0 * L1 * (det M)^2: verified" in out


class TestRoundTrips:
    @pytest.mark.parametrize(
        "group,field,vector",
        [
            ("C2", "Q", "1,0"),
            ("C2", "Q", "3,-5"),
            ("C6", "F7", "1,2,0,0,3,1"),
            ("C2xC3", "F7", "1,2,0,0,3,1"),
            ("C4", "F13", "5,0,1,2"),
            ("C2xC2", "Q", "1/2,0,-3,2"),
        ],
    )
    def test_ifft_of_fft_is_identity(self, capsys, group, field, vector):
        assert run(["fft", "--group", group, "--field", field, f"--vector={vector}"]) == 0
        transformed = capsys.readouterr().out.strip()
        assert run(["ifft", "--group", group, "--field", field, f"--vector={transformed}"]) == 0
        back = capsys.readouterr().out.strip()
        canonical_in = vector.replace(" ", "")
        assert back == canonical_in or _same_values(back, canonical_in)

    def test_json_matches_text_semantics(self, capsys):
        assert run(["fft", "--group", "C2", "--field", "Q", "--vector", "1,1"]) == 0
        text = capsys.readouterr().out.strip()
        assert run(["--json", "fft", "--group", "C2", "--field", "Q", "--vector", "1,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ",".join(payload["values"]) == text

    def test_json_phi(self, capsys):
        assert run(["--json", "cyclo", "phi", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"d": 3, "coefficients": ["1", "1", "1"]}

    def test_json_factor_labels(self, capsys):
        assert run(["--json", "factor-xn1", "--n", "3", "--q", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [f["labels"] for f in payload["factors"]] == [[0], [1, 2]]


def _same_values(a: str, b: str) -> bool:
    from fractions import Fraction

    return [Fraction(x) for x in a.split(",")] == [Fraction(x) for x in b.split(",")]


class TestExitCodes:
    def test_success(self):
        assert run(["fft", "--group", "C2", "--field", "Q", "--vector", "1,1"]) == 0

    def test_precondition_violation_char_divides(self, capsys):
        code = run(["fft", "--group", "C2", "--field", "F2", "--vector", "1,0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_ifft_char_divides(self):
        assert run(["ifft", "--group", "C3", "--field", "F3", "--vector", "1,0,0"]) == 2

    def test_parse_error_unknown_subcommand(self):
        assert run(["transmogrify"]) == 1

    def test_parse_error_bad_vector_length(self, capsys):
        code = run(["fft", "--group", "C2", "--field", "Q", "--vector", "1,0,0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_bad_vector_entry(self):
        assert run(["fft", "--group", "C2", "--field", "Q", "--vector", "1,banana"]) == 1

    def test_parse_error_bad_group(self):
        assert run(["fft", "--group", "K4", "--field", "Q", "--vector", "1,0"]) == 2

    def test_parse_error_bad_field(self):
        assert run(["fft", "--group", "C2", "--field", "Z9", "--vector", "1,0"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_missing_required_flag(self):
        assert run(["fft", "--group", "C2"]) == 1

    def test_factor_gcd_violation(self):
        assert run(["factor-xn1", "--n", "4", "--q", "2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["factor-xn1", "--n", "0", "--q", "2"],
        ["factor-xn1", "--n", "-2", "--q", "3"],
        ["vandermonde", "--n", "0"],
        ["vandermonde", "--n", "0", "--field", "F7"],
    ])
    def test_order_below_one_named_first(self, argv, capsys):
        """n < 1 is reported as such, before the characteristic or the
        conductor is checked against n."""
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: n must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["groupdet", "--group", "C7", "--over", "Fq", "--q", "2"],  # point checks
        ["groupdet", "--group", "C5", "--over", "Fq", "--q", "3"],  # symbolic check
    ])
    def test_verification_failure_exits_3(self, monkeypatch, capsys, argv):
        """A failed self-check is exit 3 with one error line, no traceback;
        here a determinant that reads zero at every point, and a wrong
        symbolic determinant."""
        from groupfft import factorize

        monkeypatch.setattr(factorize, "group_det", lambda values, group, field: field.zero)
        monkeypatch.setattr(factorize, "symbolic_det", lambda rows: rows[0][0])
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: factor product ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["weight", "--group", "C6", "--field", "F7", "--vector", "1,2,0,0,3,1"],
         "rank does not match the direct nonzero count"),
        (["fft", "--group", "C6", "--field", "F7", "--vector", "1,2,0,0,3,1"],
         "fast transform differs from the reference sum"),
    ])
    def test_failed_verify_exits_3(self, monkeypatch, capsys, argv, message):
        """--verify on a wrong rank or a wrong reference sum: exit 3 with one
        error line and no traceback; without --verify the request succeeds."""
        monkeypatch.setattr(transform, "blahut_weight", lambda vec: vec.hamming_weight() + 1)
        monkeypatch.setattr(
            transform, "fft_reference",
            lambda vec: replace(transform.fft(vec), values=(vec.field.zero,) * vec.group.order),
        )
        assert run(["--verify", *argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(argv) == 0

    @pytest.mark.parametrize("field", ["Qzeta:abc", "Qzeta:", "Qzeta:1.5"])
    def test_bad_conductor(self, capsys, field):
        code = run(["fft", "--group", "C3", "--field", field, "--vector", "1,2,3"])
        assert_clean_parse_error(code, capsys)


class TestParserBuiltOnce:
    """main reuses one parser per process; every request prints what it
    would with a parser built for it alone."""

    ARGVS = [
        (["fft", "--group", "C2", "--field", "Q", "--vector", "1,1"], 0),
        (["--json", "groupdet", "--group", "C3", "--over", "Q"], 0),
        (["fft", "--group", "C2"], 1),  # usage error, from argparse
        (["groupdet", "--group", "C3", "--over", "R"], 1),  # a bad choice
        (["transmogrify"], 1),
        (["fft", "--group", "C2", "--field", "Z9", "--vector", "1,0"], 1),
        (["fft", "--group", "C2", "--field", "F2", "--vector", "1,0"], 2),
        (["--verify", "weight", "--group", "C6", "--field", "F7", "--vector", "1,2,0,0,3,1"], 3),
        (["--help"], 0),
        (["groupdet", "--help"], 0),
        (["cyclo", "phi", "12"], 0),
    ]

    def _outcomes(self, capsys, fresh):
        out = []
        for argv, _ in self.ARGVS:
            if fresh:
                build_parser.cache_clear()
            code = main(list(argv))
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    @pytest.mark.parametrize("columns", ["200", "50"])
    def test_same_output_as_a_fresh_parser(self, monkeypatch, capsys, columns):
        # a wrong rank, so that --verify fails (exit 3)
        monkeypatch.setattr(transform, "blahut_weight", lambda vec: vec.hamming_weight() + 1)
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        parser = build_parser()
        # the help wraps at the width in force when it prints, not at 80
        monkeypatch.setenv("COLUMNS", columns)
        reused = self._outcomes(capsys, fresh=False)
        assert build_parser() is parser
        assert reused == self._outcomes(capsys, fresh=True)
        assert [code for code, _, _ in reused] == [code for _, code in self.ARGVS]


def assert_clean_parse_error(code, capsys):
    """Exit 1 with a one-line "error: ..." message; main raised nothing."""
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def parsed(*argv):
    """The namespace main hands to dispatch for argv."""
    return build_parser().parse_args(list(argv))


class TestDispatchDirect:
    def test_unknown_subcommand(self, capsys):
        """argparse refuses it before any handler runs: exit 1, no traceback."""
        assert main(["nope"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err and "Traceback" not in err

    def test_every_subparser_binds_a_handler(self):
        def leaves(parser):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield parser
            for action in subs:
                for child in action.choices.values():
                    yield from leaves(child)

        found = list(leaves(build_parser()))
        assert len(found) == 10  # phi, basis and the eight other subcommands
        assert all(callable(p.get_default("run")) for p in found)

    def test_idempotents_qzeta(self):
        code, out = dispatch(parsed("idempotents", "--group", "C4", "--field", "Qzeta"))
        assert code == 0
        assert out.splitlines()[0] == "chi=(0,): 1/4,1/4,1/4,1/4"

    def test_verify_flag(self):
        args = parsed("--verify", "weight", "--group", "C2xC2", "--field", "Q", "--vector", "1,0,1,1")
        code, out = dispatch(args)
        assert code == 0 and out == "3"

    @pytest.mark.parametrize("subcommand", ["fft", "ifft"])
    def test_verify_transform(self, subcommand):
        args = parsed("--verify", subcommand, "--group", "C6", "--field", "F7",
                      "--vector", "1,2,0,0,3,1")
        code, _ = dispatch(args)
        assert code == 0

    @pytest.mark.parametrize("subcommand", ["fft", "ifft"])
    def test_verify_catches_self_inverse_wrong_root(self, monkeypatch, subcommand):
        # On C_n, the pair built on zeta^-1 in place of zeta is the right pair
        # with outputs reindexed k -> -k: wrong, yet every round trip is exact.
        def conjugated(fn):
            def wrong(vec):
                out = fn(vec)
                n = len(out.values)
                return replace(out, values=tuple(out.values[-k % n] for k in range(n)))
            return wrong

        monkeypatch.setattr(transform, "fft", conjugated(transform.fft))
        monkeypatch.setattr(transform, "inverse_fft", conjugated(transform.inverse_fft))
        args = parsed("--verify", subcommand, "--group", "C6", "--field", "F7",
                      "--vector", "1,2,0,0,3,1")
        code, out = dispatch(args)
        assert code == 3 and out.startswith("error: fast ")
        assert out.endswith("transform differs from the reference sum")

    def test_sampled_check_leaves_the_prime_field(self, monkeypatch):
        # Frobenius x -> x^3 fixes F3, so only vectors with entries outside
        # the prime field can expose this wrong transform over F9.
        fast = transform.fft

        def frobenius_first(vec):
            return fast(replace(vec, values=tuple(v ** 3 for v in vec.values)))

        monkeypatch.setattr(transform, "fft", frobenius_first)
        group = AbelianGroup.cyclic(4)
        with pytest.raises(VerificationError, match="sampled round-trip"):
            _sampled_round_trip_check(group, parse_field_descriptor("F9"), seed=0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fft", "--group", "C6", "--field", "Qzeta:3", "--vector=1,2,0,-1,3,1/2"],
            ["idempotents", "--group", "C2xC3", "--field", "Qzeta:3"],
            ["vandermonde", "--n", "10", "--field", "Qzeta:5"],
        ],
    )
    def test_odd_conductor_requests(self, argv, capsys):
        assert main(["--json", *argv]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_odd_conductor_fft_verify_matches_reference(self):
        args = parsed("--verify", "fft", "--group", "C6", "--field", "Qzeta:3",
                      "--vector=1,2,0,-1,3,1/2")
        code, out = dispatch(args)
        assert code == 0
        group = parse_group("C6")
        field = parse_field_descriptor("Qzeta:3")
        vec = parse_vector("1,2,0,-1,3,1/2", group, field)
        reference = transform.fft_reference(vec)
        assert out == ",".join(field.format_elem(v) for v in reference.values)

    def test_groupdet_fq(self):
        code, out = dispatch(parsed("groupdet", "--group", "C3", "--over", "Fq", "--q", "7"))
        assert code == 0
        assert out.count("(") == 3

    def test_groupdet_rational(self):
        code, out = dispatch(parsed("groupdet", "--group", "C3", "--over", "Q"))
        assert code == 0
        assert out == (
            "(X_0 + X_1 + X_2)"
            "(X_0^2 - X_0*X_1 - X_0*X_2 + X_1^2 - X_1*X_2 + X_2^2)"
        )

    def test_field_f4_shorthand(self):
        code, out = dispatch(parsed("fft", "--group", "C3", "--field", "F4", "--vector", "1,1,1"))
        assert code == 0
        assert out.split(",")[0] == "1"

    def test_field_descriptors_share_one_memoized_field(self):
        f9 = parse_field_descriptor("F9")
        assert parse_field_descriptor("Fq:3^2") is f9 is finite_field(3, 2)
        assert f9.base is parse_field_descriptor("Fp:3") is parse_field_descriptor("F3")
        args = parsed("fft", "--group", "C8", "--field", "F9", "--vector", "1,0,0,0,0,0,0,0")
        assert dispatch(args)[0] == 0
        # the request's root search landed in the shared descriptor's cache
        assert 8 in f9._roots


class TestCayleyInput:
    def test_user_group_from_json(self, tmp_path, capsys):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"labels": ["0", "1", "2"], "table": table, "name": "C3"}))
        assert run(["frobenius", "--cayley", str(path)]) == 0
        out = capsys.readouterr().out
        assert "X_0^3" in out

    def test_invalid_table_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "table": [[0, 0], [1, 1]]}))
        assert run(["frobenius", "--cayley", str(path)]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            None,  # no such file
            "not json",
            b"\xff\xfe",
            "[1, 2]",
            '{"table": [[0]]}',
            '{"labels": ["e"]}',
            '{"labels": 5, "table": [[0]]}',
            '{"labels": ["e"], "table": 7}',
            '{"labels": ["e"], "table": [[[0]]]}',
            '{"labels": [["e"]], "table": [[0]]}',
            '{"labels": ["a", "b"], "table": [[0, 1.0], [1, 0]]}',
            '{"labels": ["e"], "table": [[0]], "name": ["x", {"y": 1}]}',
            '{"labels": ["e"], "table": [[0]], "name": 7}',
        ],
        ids=["missing", "not-json", "not-utf8", "json-list", "no-labels", "no-table",
             "int-labels", "int-table", "list-entry", "list-label", "float-entry",
             "list-name", "int-name"],
    )
    def test_unusable_file_is_a_parse_error(self, tmp_path, capsys, content):
        path = tmp_path / "group.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        code = run(["frobenius", "--cayley", str(path)])
        assert_clean_parse_error(code, capsys)


class TestGroupdetAnyAbelianGroup:
    """groupdet over Q and F_q takes every finite abelian group, with the
    payload of a cyclic request."""

    @pytest.mark.parametrize("argv, cyclic", [
        (["groupdet", "--group", "C2xC4", "--over", "Fq", "--q", "3"],
         ["groupdet", "--group", "C8", "--over", "Fq", "--q", "3"]),
        (["groupdet", "--group", "C2xC2xC2", "--over", "Q"],
         ["groupdet", "--group", "C8", "--over", "Q"]),
    ], ids=["C2xC4-F3", "C2xC2xC2-Q"])
    def test_exit_0_with_the_cyclic_payload(self, capsys, argv, cyclic):
        group = parse_group(argv[2])
        field = finite_field(3, 1) if argv[4] == "Fq" else QQ
        fd = factorize.factor_group_determinant(group, field)
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "".join(f"({e.poly})" for e in fd.factors) + "\n"

        assert run(["--json", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run(["--json", *cyclic]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert payload.keys() == reference.keys()
        assert [f.keys() for f in payload["factors"]] == [
            reference["factors"][0].keys()] * len(fd.factors)
        assert payload["group"] == argv[2] and payload["variables"] == list(fd.variables)
        assert [f["label"] for f in payload["factors"]] == [e.label for e in fd.factors]

    @pytest.mark.parametrize("argv, message", [
        (["groupdet", "--group", "C8", "--over", "split", "--field", "Qzeta:4"],
         "error: Q(zeta_4) contains no primitive 8-th root of unity"),
        (["groupdet", "--group", "C6", "--over", "Fq", "--q", "2"],
         "error: gcd(6, q) > 1: the characteristic divides 6"),
        (["groupdet", "--group", "C3xC9", "--over", "Q"],
         "error: a product of 6 linear forms in 27 variables expands to up to 906192 "
         "monomials; factors are capped at 30000"),
    ], ids=["Q(zeta_4)-without-zeta_8", "p-divides-n", "cap"])
    def test_refusals_exit_2(self, capsys, argv, message):
        for flags in ([], ["--json"]):
            assert run([*flags, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"


class TestQReader:
    """factor-xn1 --q and groupdet --over Fq --q read q the same way: a
    prime power or a finite field descriptor."""

    @pytest.mark.parametrize("q", ["Q", "Qzeta:3", "Qzeta"])
    @pytest.mark.parametrize("request_argv", [
        ["factor-xn1", "--n", "5"],
        ["groupdet", "--group", "C5", "--over", "Fq"],
    ], ids=["factor-xn1", "groupdet"])
    def test_characteristic_0_is_a_precondition_error(self, capsys, request_argv, q):
        for flags in ([], ["--json"]):
            assert run([*flags, *request_argv, "--q", q]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: expected a finite field descriptor\n"
            assert "'FQ" not in captured.err

    @pytest.mark.parametrize("q", ["4", "F4", "Fq:2^2"])
    def test_finite_fields_agree(self, capsys, q):
        assert run(["--json", "factor-xn1", "--n", "5", "--q", q]) == 0
        assert json.loads(capsys.readouterr().out)["q"] == 4
        assert run(["--json", "groupdet", "--group", "C5", "--over", "Fq", "--q", q]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["factors"]) == 3


class TestVerifyScope:
    """Only fft, ifft, weight and idempotents read --verify; the other
    subcommands always check their results and print the same with it."""

    @pytest.mark.parametrize("argv", [
        ["cyclo", "phi", "12"],
        ["cyclo", "basis", "6"],
        ["factor-xn1", "--n", "7", "--q", "2"],
        ["groupdet", "--group", "C2xC4", "--over", "Fq", "--q", "3"],
        ["vandermonde", "--n", "4"],
        ["frobenius"],
    ], ids=["cyclo-phi", "cyclo-basis", "factor-xn1", "groupdet", "vandermonde", "frobenius"])
    def test_verify_leaves_output_unchanged(self, capsys, argv):
        for flags in ([], ["--json"]):
            assert run([*flags, *argv]) == 0
            plain = capsys.readouterr()
            assert plain.out
            assert run([*flags, "--verify", *argv]) == 0
            assert capsys.readouterr() == plain
