"""Calibration kernels: fixed pure-Python workloads that measure machine speed.

Wall time on a shared machine drifts between fast and slow states that last
for seconds, and the slow state does not slow all code alike.  On a 2-core
x86 cloud VM with Python 3.11, the slow state made the ``arith`` kernel
1.8-2.0x slower and the ``stdlib`` kernel 1.6-1.7x slower.  Measured against
each kernel across the two states, a small fft round trip drifted 3%
against ``arith`` and 16% against ``stdlib``; small CLI calls (argparse,
json, formatting) drifted 2-3% against ``stdlib`` and 17-18% against
``arith``; and the factorizations (multivariate polynomials, Fractions,
extension fields) drifted 1-8% against ``stdlib`` and 10-18% against
``arith``; a batch of factorizations, which mixes extension-field
arithmetic with polynomial dicts and Fractions, drifted about 10% against
either kernel in opposite directions and least against their geometric
mean (``mixed``); blahut_weight drifted up to 12% against ``arith``, 11%
against ``stdlib`` and 6% against ``mixed``.  Each workload is therefore calibrated by the kernel its
work resembles (see cases.KERNEL), and latencies are reported in calibrated
units (cu): op seconds / reference seconds from the same short window.
Neither kernel imports groupfft, so no library change can move it.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import time

KERNELS = ("arith", "stdlib")
# Each workload's reference speed: arith ** w * stdlib ** (1 - w).
ARITH_WEIGHT = {"arith": 1.0, "stdlib": 0.0, "mixed": 0.5}
# setup_s is reported at this stdlib-kernel speed (the fast state of the VM
# above), so machine-speed shifts do not read as set-up regressions.
REFERENCE_STDLIB_S = 500e-6


class _Cell:
    __slots__ = ("v", "m")

    def __init__(self, v: int, m: int):
        self.v = v % m
        self.m = m

    def __add__(self, other):
        return _Cell(self.v + other.v, self.m)

    def __mul__(self, other):
        return _Cell(self.v * other.v, self.m)


def _arith() -> int:
    """Small slotted objects, modular arithmetic and a dict, like the field classes."""
    m = 257
    acc = _Cell(1, m)
    table = {}
    for i in range(200):
        x = _Cell(i * 7 + 3, m)
        acc = acc * x + _Cell(i, m)
        table[(i, acc.v)] = x
    return len(table)


def _stdlib() -> int:
    """Build and use a small argparse parser, then json and regex work, like a CLI call."""
    parser = argparse.ArgumentParser(prog="kernel")
    parser.add_argument("--a", type=int)
    sub = parser.add_subparsers(dest="command")
    for name in ("x", "y", "z"):
        sub.add_parser(name).add_argument("--v", required=True)
    args = parser.parse_args(["--a", "3", "y", "--v", "1,2,3"])
    text = json.dumps({"a": [str(i) for i in range(60)], "v": args.v})
    return sum(1 for t in text.split(",") if re.fullmatch(r'\s*"?\d+"?', t))


def _fastest(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def window() -> tuple[float, float]:
    """(arith, stdlib) kernel seconds now: fastest of 3 and of 2 runs (~1.5 ms)."""
    return _fastest(_arith, 3), _fastest(_stdlib, 2)


class Sampler:
    """Measures the kernels every INTERVAL_S of wall time while an op runs.

    Machine speed can change in the middle of a long op, so for ops longer
    than the interval the kernels are also sampled inside the op (from a
    SIGALRM handler, between bytecodes of the library code).  The handler's
    own time is returned by ``stop`` so it can be taken off the op's time.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.overhead = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(window())
        self.overhead += time.perf_counter() - t0

    def start(self):
        self.samples = []
        self.overhead = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> tuple[list[tuple[float, float]], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.overhead


def mean_window(windows) -> tuple[float, float]:
    return tuple(sum(w[i] for w in windows) / len(windows) for i in range(len(KERNELS)))


def reference(arith: float, stdlib: float, kernel: str) -> float:
    """Reference seconds of a window for a workload calibrated by ``kernel``."""
    w = ARITH_WEIGHT[kernel]
    return arith ** w * stdlib ** (1 - w)
