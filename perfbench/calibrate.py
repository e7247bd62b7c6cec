"""Reference-speed scaling of the benchmark's timings.

On a shared machine the speed of a core drifts by tens of percent from one
minute to the next as other tenants come and go, and that drift, not the
program, set the spread between runs of the same code.  So every period of a
run (a grid pass, a probe round, a window of the closed loop) is bracketed by
``slowness()`` measurements of a fixed kernel that never changes with the
program: pure-Python integer arithmetic and numpy sorts, the two kinds of work
the simulator does.  A period's timings are divided by the mean slowness of
its brackets, raised to a power fitted on the tuning VM (rates multiplied),
which reports them in *reference seconds*: the time the period would have
taken with the core at the reference speed.
``REF_S`` is the kernel's time on an unloaded core of the 2-vCPU x86-64 VM the
benchmark was tuned on, so reference seconds read close to wall seconds there.

Every history record keeps the unscaled figures beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time
from collections.abc import Iterable
from contextlib import contextmanager

import numpy as np

from spec import END_TO_END

#: Seconds of one ``_kernel`` pass on an unloaded core of the tuning VM.
REF_S = 0.0021
#: How the program's timings slow with the kernel: as this power of the
#: kernel's slowness.  The program's working set is larger than the kernel's,
#: and on the tuning VM, with the host's load swinging the unscaled times by
#: up to 2x, this power, not 1, made the scaled times of grid passes, cached
#: probes and service requests steadiest from run to run.  Grid passes are
#: scaled by their workload's own power (``grids.GridParams.pass_power``).
WORK_POWER = 1.5
#: Kernel passes per measurement; their median counts.  Scaled by a median,
#: grid pass times spread less from minute to minute than scaled by the
#: fastest pass.
REPEATS = 15

_DATA = np.random.default_rng(1).random(4096)
_BETTER = {metric.name: metric.better for metric in END_TO_END}


def _kernel() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    values = _DATA.copy()
    for _ in range(40):
        values = np.sort(values * 1.0001)
    return time.perf_counter() - started


def slowness(cpus: Iterable[int] | None = None) -> float:
    """How much slower than the reference the cores run now (about 1.0-1.6).

    The kernel is timed on each of ``cpus`` (by default the CPUs this thread
    may run on) in turn, pinned to it, and the mean over them is returned.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed if cpus is None else cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(_kernel() for _ in range(REPEATS)))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times) / REF_S


@contextmanager
def pinned(cpu: int | None = None):
    """Keep this thread, and the threads and processes it starts, on one CPU.

    By default the last CPU it may run on.  A single-threaded workload then
    runs on the core its calibrations time.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed) if cpu is None else cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def scale(metrics: dict[str, float], slow: float) -> dict[str, float]:
    """``metrics`` at the reference speed: times divided by ``slow``, rates multiplied."""
    return {
        name: value / slow if _BETTER[name] == "lower" else value * slow
        for name, value in metrics.items()
    }
