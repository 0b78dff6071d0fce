"""The golden CLI corpus: every recorded request prints the same bytes and
exits with the same code (``cli_corpus.py`` lists the requests and
rewrites ``cli_corpus.json``)."""

import json

import pytest

from cli_corpus import CORPUS, record, requests
from groupfft.cli import build_parser

RECORDS = json.loads(CORPUS.read_text())


def test_corpus_holds_every_request():
    assert [r["argv"] for r in RECORDS] == requests()


def test_corpus_covers_every_leaf_subparser_and_exit():
    """Each leaf subcommand runs plain, with --json and with --verify, and
    the corpus holds exits 0, 1 and 2."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "subcommand"]
    leaves = set()
    for name, p in sub.choices.items():
        nested = [a for a in p._actions if a.dest == "cyclo_action"]
        leaves |= {(name, leaf) for leaf in nested[0].choices} if nested else {(name,)}
    for flags in ([], ["--json"], ["--verify"]):
        seen = set()
        for r in RECORDS:
            argv = r["argv"]
            if argv[:len(flags)] == flags and argv[len(flags)] not in ("--json", "--verify"):
                rest = argv[len(flags):]
                seen.add(tuple(rest[:2]) if rest[0] == "cyclo" else (rest[0],))
        assert seen == leaves, flags
    assert {r["exit"] for r in RECORDS} == {0, 1, 2}


@pytest.mark.parametrize("expected", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_request_prints_recorded_bytes(expected):
    assert record(expected["argv"]) == expected
