"""The weight-rank experiment script: its exit code and its draws."""

import importlib.util
import random
from pathlib import Path

import pytest

from groupfft.cli import parse_field_descriptor

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "weight_rank_experiment.py"


@pytest.fixture
def experiment():
    spec = importlib.util.spec_from_file_location("weight_rank_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(module, monkeypatch, *argv):
    monkeypatch.setattr("sys.argv", ["weight_rank_experiment.py", *argv])
    return module.main()


@pytest.mark.parametrize("argv", [(), ("--group", "C8", "--field", "F3")])
def test_agreement_exits_0(experiment, monkeypatch, capsys, argv):
    assert run(experiment, monkeypatch, "--samples", "10", *argv) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out and out.endswith("mismatches: 0\n")


def test_a_wrong_rank_exits_1(experiment, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "blahut_weight", lambda vec: min(vec.hamming_weight(), 3))
    assert run(experiment, monkeypatch, "--samples", "20") == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "rank disagreed on" in out
    assert "mismatches: 0" not in out


@pytest.mark.parametrize("descriptor", ["F9", "F25", "Fq:2^3"])
def test_draws_leave_the_prime_field(experiment, descriptor):
    field = parse_field_descriptor(descriptor)
    rng = random.Random(0)
    draws = [experiment.draw(field, rng) for _ in range(50)]
    assert any(x.residue[1:] != (field.base.zero,) * (field.degree - 1) for x in draws)
