"""The benchmark's own test.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that:
  * two counted passes with the same seed give identical counts, on every
    workload (the counted pass runs every op through its oracle, so the
    wrappers provably leave results unchanged);
  * run.py prints exactly the metric names BENCHMARK.json declares;
  * run.py refuses to run under -O, and fails without a result line where
    the library source is absent.
Takes a few minutes; it is not part of the library's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import RUN_LIMIT_S, WORKLOADS, _pass  # noqa: E402


def _counted(workload: str, seed: int) -> dict:
    return _pass(workload, seed, "counted", time.monotonic() + RUN_LIMIT_S)["counts"]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_counts_repeat_exactly():
    for workload in WORKLOADS:
        first, second = _counted(workload, 11), _counted(workload, 11)
        assert first == second, f"{workload}: counts differ between identical passes"
        assert any(first.values()), f"{workload}: nothing was counted"
        print(f"ok: {workload} counts repeat exactly ({sum(first.values())} total)")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("perfbench/run.py", "--workload", "weight", "--seed", "3",
                    "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, f"--trace {trace}: {printed} != {declared}"
        print(f"ok: --trace {trace} prints the {len(declared)} declared {key} metrics")


def test_refusals():
    proc = _run("-O", "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0 and "{" not in proc.stdout, "ran under -O"
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(f"{HERE.name}/run.py", "--workload", "cli", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and "{" not in proc.stdout, "ran without the library"
    finally:
        shutil.rmtree(bare)
    print("ok: refuses -O and a checkout without the library")


if __name__ == "__main__":
    test_refusals()
    test_metric_names_match_benchmark_json()
    test_counts_repeat_exactly()
    print("all benchmark self-tests passed")
