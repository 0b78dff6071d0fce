"""groupfft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  A run
is a sequence of passes over the workload's op list, one at a time, each in
a fresh interpreter with cold library caches (closed loop, one client, one
thread).  Passes start while the next one is expected to end within
--seconds; an untimed run makes at least two, so the groupdet batch, which
takes most of --seconds, still gets a median.  Percentiles are taken per
pass (nearest rank over the pass's successful ops), then the median over
passes is reported.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
runs untraced passes, then traced passes (spans around each layer), then
one counted pass (exact operation counts), and reports the per-layer
metrics.  Latencies are in calibrated units (cu): op seconds divided by the
calibration kernel's seconds in the same window (see calib.py); raw
seconds and the kernel's own figures are printed beside them.  Every op
output is checked; a wrong result exits non-zero without a result line.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from cases import KERNEL, WORKLOADS
from probes import COUNTERS, SPAN_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every run, traced ones included, ends within this
SETUP_PROBES = 5  # extra set-up-only interpreters per run, for the setup_s median


class RunFailed(Exception):
    pass


def _pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
             "--workload", workload, "--seed", str(seed), "--mode", mode,
             "--spawned-at", repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} pass did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - spawned
    return result


def _phase(workload, seed, mode, seconds, deadline, min_passes) -> list[dict]:
    start = time.monotonic()
    passes = []
    while len(passes) < min_passes or (
            time.monotonic() - start + passes[-1]["wall_s"] <= seconds):
        passes.append(_pass(workload, seed, mode, deadline))
    return passes


def _cu(op, kernel: str) -> float:
    """Op seconds over the reference seconds of the op's window."""
    return op[1] / calib.reference(op[2], op[3], kernel)


def _rank(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _batch_cu(passes, kernel: str) -> float:
    return statistics.median(sum(_cu(op, kernel) for op in p["ops"]) for p in passes)


def _end_to_end(passes, setups, kernel: str) -> tuple[dict, dict, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    ok = [op for op in ops if op[4]]
    starts = [*setups, *passes]
    if not ok:
        raise RunFailed("every op was refused")

    def per_pass(q, value):
        return statistics.median(_rank([value(op) for op in p["ops"] if op[4]], q) for p in passes)

    batch_s = statistics.median(sum(op[1] for op in p["ops"]) for p in passes)
    failed = len(ops) - len(ok)
    metrics = {
        "op_p50_cu": (per_pass(0.5, lambda op: _cu(op, kernel)), "cu"),
        "op_p90_cu": (per_pass(0.9, lambda op: _cu(op, kernel)), "cu"),
        "batch_cu": (_batch_cu(passes, kernel), "cu"),
        "ok_ratio": (len(ok) / len(ops), "ratio"),
        "setup_s": (statistics.median(p["setup_s"] for p in starts), "s"),
        "max_rss_mb": (statistics.median(p["max_rss_kb"] for p in passes) / 1024, "MB"),
    }
    notes = [
        f"passes {len(passes)}, ops {len(ops)} ({len(ok)} succeeded, used for percentiles)",
        f"raw: op_p50 {per_pass(0.5, lambda op: op[1]) * 1e3:.3f} ms,"
        f" op_p90 {per_pass(0.9, lambda op: op[1]) * 1e3:.3f} ms,"
        f" batch {batch_s:.3f} s, setup {statistics.median(p['setup_raw_s'] for p in starts):.4f} s"
        f" (median of {len(starts)} interpreter starts; setup_s rescales it to a"
        f" {calib.REFERENCE_STDLIB_S * 1e6:.0f} us stdlib kernel)",
        f"calibrated by the {kernel} reference (see calib.py)",
        *(f"kernel {name}:"
          f" median {q[1] * 1e6:.1f} us, quartiles {q[0] * 1e6:.1f} / {q[2] * 1e6:.1f} us"
          f" over {len(ops)} op windows"
          for i, name in enumerate(calib.KERNELS)
          for q in [statistics.quantiles([op[2 + i] for op in ops], n=4)]),
        f"fail_ratio {failed / len(ops):.4f} ({failed} failed of {len(ops)} attempted)",
    ]
    return metrics, {"attempted": len(ops), "failed": failed}, notes


def _per_layer(plain, traced, counted, kernel: str) -> tuple[dict, list[str]]:
    traced_op_s = sum(op[1] for p in traced for op in p["ops"])
    self_time: dict = {}
    for p in traced:
        for layer, seconds in p["self_time"].items():
            self_time[layer] = self_time.get(layer, 0.0) + seconds
    metrics = {f"{layer}.self_share": (self_time.get(layer, 0.0) / traced_op_s, "ratio")
               for layer in SPAN_LAYERS}
    counts = counted["counts"]
    metrics.update({name: (counts[name], "count") for name in COUNTERS
                    if not name.startswith("rings.root_search.")})
    calls = counts["rings.root_search.calls"]
    metrics["rings.root_search.miss_ratio"] = (
        counts["rings.root_search.misses"] / calls if calls else 0.0, "ratio")
    plain_batch = _batch_cu(plain, kernel)
    traced_batch = _batch_cu(traced, kernel)
    metrics["trace.overhead"] = (traced_batch / plain_batch, "ratio")
    metrics["trace.traced_op_s"] = (traced_op_s, "s")
    missing = sorted({m for p in [*traced, counted] for m in p["missing"]})
    notes = [
        f"self shares are self time / traced_op_s = {traced_op_s:.3f} s"
        f" over {len(traced)} traced passes; unattributed (op) share"
        f" {self_time.get('op', 0.0) / traced_op_s:.4f}",
        f"root search: {counts['rings.root_search.misses']} misses of {calls} calls",
        f"trace.overhead: traced batch {traced_batch:.1f} cu / untraced {plain_batch:.1f} cu",
        f"spans: {sum(p['spans_recorded'] for p in traced)} recorded,"
        f" {sum(p['spans_dropped'] for p in traced)} past the cap;"
        f" last pass written to {traced[-1]['span_file']}",
    ]
    if missing:
        notes.append("probe targets missing from the library (counted as 0): " + ", ".join(missing))
    return metrics, notes


def _context(seed: int) -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "none"  # a checkout without .git (the src digest still identifies the code)
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {seed},"
            f" commit {commit}, src sha256 {digest.hexdigest()[:16]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under -O: the library's asserted identities are gone",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "groupfft" / "__init__.py").is_file():
        print(f"no library at {ROOT / 'src' / 'groupfft'}: run from a groupfft checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"perfbench {args.workload}: {_context(args.seed)}")
    try:
        setups = [_pass(args.workload, args.seed, "setup", deadline) for _ in range(SETUP_PROBES)]
        plain = _phase(args.workload, args.seed, "plain", args.seconds, deadline, 2)
        kernel = KERNEL[args.workload]
        metrics, totals, notes = _end_to_end(plain, setups, kernel)
        if args.trace:
            traced = _phase(args.workload, args.seed, "traced", args.seconds, deadline, 1)
            counted = _pass(args.workload, args.seed, "counted", deadline)
            _, traced_totals, _ = _end_to_end([*traced, counted], setups, kernel)
            totals = {k: totals[k] + traced_totals[k] for k in totals}
            metrics, layer_notes = _per_layer(plain, traced, counted, kernel)
            notes += layer_notes
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
