"""The golden CLI corpus: requests, and how their recorded bytes are made.

Each request runs through ``groupfft.cli.main`` in-process; its record is
the argv, the exit code and the bytes written to stdout and stderr.
``cli_corpus.json`` beside this file holds one record per request, and
``test_cli_corpus.py`` replays them.  After a deliberate change of output,
rewrite the file and read its diff:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")

# every request runs plain, with --json and with --verify
FLAGS = ([], ["--json"], ["--verify"])

# argv after the global flags; the refusals exit 1 (parse errors) or 2
# (preconditions)
BASE = [
    ["cyclo", "phi", "1"],
    ["cyclo", "phi", "12"],
    ["cyclo", "basis", "6"],
    ["fft", "--group", "C2xC2", "--field", "Q", "--vector", "1/2,-3,2/3,5"],
    ["fft", "--group", "C4", "--field", "Qzeta", "--vector", "1,2,0,-1"],
    ["fft", "--group", "C3", "--field", "F4", "--vector", "1,0,1"],
    ["fft", "--group", "C8", "--field", "F9", "--vector", "1,2,0,5,3,1,7,4"],
    ["fft", "--group", "C7", "--field", "F2", "--vector", "1,0,1,1,0,0,0"],
    ["fft", "--group", "C4", "--field", "Qzeta:3", "--vector", "1,0,0,0"],
    ["fft", "--group", "C3", "--field", "F6", "--vector", "1,0,0"],
    ["fft", "--group", "C3", "--field", "Q", "--vector", "1,0"],
    ["fft", "--group", "C3", "--field", "F7", "--vector", "1,x,0"],
    ["fft", "--group", "D3", "--field", "F7", "--vector", "1,0,0"],
    ["ifft", "--group", "C6", "--field", "Qzeta", "--vector", "1,2,0,0,3,1"],
    ["ifft", "--group", "C2xC4", "--field", "F17", "--vector", "1,0,3,0,2,5,0,1"],
    ["ifft", "--group", "C3", "--field", "F7", "--vector", "3,1,4"],
    ["weight", "--group", "C7", "--field", "F2", "--vector", "1,1,0,1,0,0,0"],
    ["weight", "--group", "C6", "--field", "F7", "--vector", "1,0,2,0,0,3"],
    ["weight", "--group", "C2xC2", "--field", "Q", "--vector", "0,1,0,1"],
    ["weight", "--group", "C5", "--field", "F4", "--vector", "1,0,1,1,0"],
    ["weight", "--group", "C4", "--field", "F2", "--vector", "1,0,1,0"],
    ["idempotents", "--group", "C4", "--field", "F5"],
    ["idempotents", "--group", "C2xC3", "--field", "Qzeta:3"],
    ["idempotents", "--group", "C5", "--field", "Q"],
    ["factor-xn1", "--n", "15", "--q", "2"],
    ["factor-xn1", "--n", "9", "--q", "4"],
    ["factor-xn1", "--n", "13", "--q", "Fq:3^1"],
    ["factor-xn1", "--n", "6", "--q", "2"],
    ["factor-xn1", "--n", "5", "--q", "Q"],
    ["factor-xn1", "--n", "5", "--q", "6"],
    ["factor-xn1", "--n", "0", "--q", "3"],
    ["groupdet", "--group", "C5", "--over", "Fq"],
    ["groupdet", "--group", "C6", "--over", "Fq", "--q", "2"],
    ["groupdet", "--group", "C8", "--over", "split", "--field", "Qzeta:4"],
    ["groupdet", "--group", "C3xC9", "--over", "Q"],
    ["groupdet", "--group", "C2xC4", "--over", "Fq", "--q", "3"],
    ["groupdet", "--group", "C2xC2xC2", "--over", "Q"],
    ["groupdet", "--group", "C3", "--over", "split", "--field", "F4"],
    ["vandermonde", "--n", "5"],
    ["vandermonde", "--n", "6", "--field", "F7"],
    ["vandermonde", "--n", "4", "--field", "Q"],
    ["vandermonde", "--n", "0"],
    ["frobenius"],
    ["frobenius", "--group", "D4"],
    ["frobenius", "--cayley", "no-such-cayley-table.json"],
]

# group determinants of order 9 to 12 over Q, over F_q (prime, flat and
# tower splitting fields) and over split fields
GROUPDET = [
    ["groupdet", "--group", group, "--over", *over]
    for group, overs in [
        ("C9", [["Q"], ["Fq", "--q", "2"], ["Fq", "--q", "4"], ["split"]]),
        ("C10", [["Q"], ["Fq", "--q", "3"], ["split", "--field", "F11"]]),
        ("C12", [["Q"], ["Fq", "--q", "5"], ["Fq", "--q", "7"], ["split", "--field", "F13"]]),
        ("C2xC6", [["Q"], ["Fq", "--q", "5"], ["split"]]),
        ("C3xC3", [["Q"], ["Fq", "--q", "2"], ["Fq", "--q", "4"], ["split", "--field", "F7"]]),
    ]
    for over in overs
]


def requests() -> list[list[str]]:
    """Every argv of the corpus, in its order."""
    return [flags + argv for argv in BASE + GROUPDET for flags in FLAGS]


def record(argv: list[str]) -> dict:
    """argv, exit code, stdout and stderr of one in-process run of main."""
    from groupfft.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    records = [record(argv) for argv in requests()]
    CORPUS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(records)} records to {CORPUS}", file=sys.stderr)
