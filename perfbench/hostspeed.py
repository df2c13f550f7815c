"""Host-speed calibration: time the program in seconds at a fixed reference speed.

On a shared virtual host the speed of one CPU swings by up to 2x over tens
of seconds (a fixed pure-Python loop ran 0.045-0.095 s a chunk within one
minute, with process CPU time tracking wall time, so the CPU itself ran
slower; steal time stayed near zero), and the two CPUs swing independently.
No statistic over a 20-second run removes that.  So the benchmark times the
program in short segments and, on the same CPU right before and after each
segment, times a fixed calibration kernel that does not touch the program:
a pure-Python loop, dict and string work, and numpy sorts over a few
hundred kilobytes.  A segment's *normalized* time is its wall time scaled
by ``REFERENCE_S / kernel time`` (the mean of the two calibrations around
it), i.e. how long it would have taken on a host running the kernel in
``REFERENCE_S``.  ``REFERENCE_S`` is a constant of the benchmark, so two
commits measured on the same host are compared at the same reference
speed.  Wall times are printed beside the normalized ones.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Kernel time of the reference host (2 vCPU KVM Xeon, idle neighbours).
REFERENCE_S = 0.007
#: Kernel repetitions per calibration; the fastest counts, which drops a
#: repetition that a timer interrupt or a context switch landed in.
REPEATS = 3

_rng = np.random.default_rng(20221027)
_VALUES = _rng.random(80_000)
_ORDER = _rng.integers(0, 80_000, 80_000)
_WORDS = {k: f"w{k}" for k in range(4_000)}


def kernel() -> int:
    """Fixed work, about 7 ms on the reference host."""
    total = 0
    for i in range(50_000):
        total += i * i
    parts = [_WORDS[k] + "x" for k in range(4_000)]
    total += len(",".join(parts).split(","))
    ordered = np.sort(_VALUES[_ORDER])
    total += int(np.unique((ordered * 4096).astype(np.int64)).size)
    return total


def calibrate() -> float:
    """Kernel seconds on this CPU now (fastest of ``REPEATS``)."""
    best = float("inf")
    for _ in range(REPEATS):
        began = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - began)
    return best


def calibrate_on(cpus: list[int]) -> list[float]:
    """Kernel seconds on each of ``cpus``, moving this process there and back."""
    home = os.sched_getaffinity(0)
    try:
        out = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            out.append(calibrate())
        return out
    finally:
        os.sched_setaffinity(0, home)


def child_cpu() -> int:
    """The CPU a measured child process runs on: the last one allowed."""
    return max(os.sched_getaffinity(0))


def pin_self() -> None:
    """Keep this process, its work and its calibrations on one CPU."""
    os.sched_setaffinity(0, {child_cpu()})


def factor(before: float, after: float) -> float:
    """Scale from wall seconds to reference seconds for a segment."""
    return REFERENCE_S / ((before + after) / 2)


class Segments:
    """Times consecutive segments of work, calibrating between them.

    ``mark()`` ends the current segment (started at the previous mark) and
    calibrates; calibration time falls outside every segment.  Each
    segment is kept in ``wall`` and ``normalized``; ``first_kernel_s`` is
    the calibration taken before the first segment.
    """

    def __init__(self) -> None:
        kernel()  # first call pays for page faults and numpy dispatch set-up
        self._calib = self.first_kernel_s = calibrate()
        self._start = time.perf_counter()
        self.wall: list[float] = []
        self.normalized: list[float] = []

    def mark(self) -> float:
        """End a segment; returns its normalized seconds."""
        wall = time.perf_counter() - self._start
        calib = calibrate()
        norm = wall * factor(self._calib, calib)
        self.wall.append(wall)
        self.normalized.append(norm)
        self._calib = calib
        self._start = time.perf_counter()
        return norm
