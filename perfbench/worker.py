"""One pass of one workload, in a fresh interpreter with cold library caches.

Started by run.py; prints one JSON line on stdout.  Every op is timed
between two runs of the calibration kernels, with more kernel samples taken
inside ops that run longer than calib.Sampler.INTERVAL_S; its output is
checked by the workload's oracle after the second run, outside the timed
interval.  Each op record is (case, seconds, arith kernel seconds, stdlib
kernel seconds, succeeded), the kernels averaged over the op's window.
Garbage left by the oracle is collected before the next op starts, so each
op pays only for collections its own allocations trigger.  A wrong result
ends the pass with exit code 3 and no JSON line.

    python3 perfbench/worker.py --root . --workload weight --seed 1 \\
        --mode plain --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import calib


def _import_library(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import groupfft
    import groupfft.cli  # noqa: F401  (cli is not imported by the package)

    if not Path(groupfft.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"groupfft was imported from {groupfft.__file__}, not {src}")
    return groupfft


def run_pass(root: Path, workload: str, seed: int, mode: str, spawned_at: float,
             k_start: tuple[float, float], k_start_cost: float) -> dict:
    gf = _import_library(root)
    import cases
    import probes

    ops, finish = cases.build(workload, gf, seed)
    probe = None
    if mode == "traced":
        probe = probes.Tracer()
    elif mode == "counted":
        probe = probes.Counter(gf)
    setup_raw = time.monotonic() - spawned_at - k_start_cost
    k_setup = calib.mean_window([k_start, calib.window()])

    result = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * calib.REFERENCE_STDLIB_S / k_setup[1],
        "setup_window": k_setup,
    }
    if mode == "setup":
        return result

    sampler = calib.Sampler()
    refusals = (gf.GroupfftError, cases.Refused)
    records = []
    for op_id, op in enumerate(ops):
        gc.collect()
        k_before = calib.window()
        if probe:
            probe.begin(op_id)
        sampler.start()
        t0 = time.perf_counter()
        try:
            out, ok = op.run(), True
        except refusals as exc:
            out, ok = exc, False
        elapsed = time.perf_counter() - t0
        samples, overhead = sampler.stop()
        if probe:
            probe.end()
        kernels = calib.mean_window([k_before, *samples, calib.window()])
        if ok:
            op.check(out)
        records.append((op.case, elapsed - overhead, *kernels, ok))
    if finish:
        finish()

    result["ops"] = records
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if probe:
        result.update(probe.summary())
    if mode == "traced":
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload}-seed{seed}.json"  # the last traced pass's
        path.write_text(json.dumps(probe.dump()))
        result["span_file"] = str(path.relative_to(root))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced", "counted"), required=True,
                        help="setup: stop after set-up; plain: no probes; traced: layer spans;"
                             " counted: operation counts")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()
    t0 = time.monotonic()
    k_start = calib.window()
    k_start_cost = time.monotonic() - t0
    if sys.flags.optimize:
        print("refusing to run under -O: the library's asserted identities are gone",
              file=sys.stderr)
        return 2
    import oracle

    try:
        result = run_pass(args.root, args.workload, args.seed, args.mode, args.spawned_at,
                          k_start, k_start_cost)
    except oracle.WrongResult as exc:
        print(f"WRONG RESULT: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
