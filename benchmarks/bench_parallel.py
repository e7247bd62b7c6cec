"""Benchmark E8: parallel sweep execution.

The (protocol × k × repetition) sweep behind Figure 1 / Table 1 is
embarrassingly parallel, and :func:`repro.experiments.runner.run_sweep` fans
its work units out over a :class:`~repro.experiments.parallel.ParallelExecutor`
with ``ExperimentConfig.workers`` processes.
This benchmark quantifies the two promises of that layer:

* **fidelity** — a ``workers=N`` sweep is bit-identical to ``workers=1``
  (asserted by the smoke tests, which also run in the fast
  ``-m smoke`` subset);
* **throughput** — wall-clock speedup of the pool over the serial path on a
  multi-core host, written to ``benchmark_results/parallel_speedup.md``.

Scale comes from the shared ``REPRO_BENCH_*`` environment knobs (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from benchmarks.conftest import bench_runs
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.parallel import resolve_workers
from repro.experiments.runner import run_sweep
from repro.util.tables import format_markdown_table


def _specs() -> list[ProtocolSpec]:
    return [
        ProtocolSpec(key="ofa", label="One-Fail Adaptive", spec="one-fail-adaptive"),
        ProtocolSpec(key="ebb", label="Exp Back-on/Back-off", spec="exp-backon-backoff"),
    ]


@pytest.mark.smoke
def test_parallel_sweep_matches_serial_smoke():
    """workers=4 reproduces the serial sweep bit for bit (fast smoke check)."""
    config = ExperimentConfig(k_values=[10, 50], runs=2, seed=7)
    serial = run_sweep(_specs(), config)
    parallel = run_sweep(_specs(), dataclasses.replace(config, workers=4))
    for key in serial.cells:
        assert serial.cells[key].results == parallel.cells[key].results


@pytest.mark.smoke
def test_parallel_dynamic_sweep_smoke():
    """The dynamic-arrivals path works through the pool as well."""
    config = ExperimentConfig(k_values=[12], runs=2, seed=7, workers=2)
    sweep = run_sweep(_specs()[:1], config, arrivals="poisson(rate=0.2)")
    cell = sweep.cell("ofa", 12)
    assert cell.all_solved
    assert all(result.engine == "slot" for result in cell.results)


def test_parallel_sweep_speedup(results_dir):
    """Wall-clock speedup of a pooled sweep over the serial path.

    On a multi-core host (≥ 4 CPUs) the pool must be at least 2× faster; on
    smaller hosts the numbers are still recorded, but the speedup assertion
    is skipped because there is no parallelism to harvest.
    """
    cpus = resolve_workers(None)
    workers = min(cpus, 4)
    config = ExperimentConfig(
        k_values=[2_000, 4_000],
        runs=max(bench_runs(), 4),
        seed=2011,
    )
    specs = _specs()

    started = time.perf_counter()
    serial = run_sweep(specs, config)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_sweep(specs, dataclasses.replace(config, workers=workers))
    parallel_seconds = time.perf_counter() - started

    for key in serial.cells:
        assert serial.cells[key].results == parallel.cells[key].results

    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    (results_dir / "parallel_speedup.md").write_text(
        "# Parallel sweep speedup\n\n"
        + format_markdown_table(
            ["cpus", "workers", "total runs", "serial s", "parallel s", "speedup"],
            [[
                cpus,
                workers,
                serial.total_runs(),
                f"{serial_seconds:.2f}",
                f"{parallel_seconds:.2f}",
                f"{speedup:.2f}x",
            ]],
        )
        + "\n"
    )

    if cpus >= 4 and os.environ.get("REPRO_BENCH_SKIP_SPEEDUP_ASSERT") != "1":
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {workers} workers on {cpus} CPUs, "
            f"got {speedup:.2f}x (serial {serial_seconds:.2f}s, parallel {parallel_seconds:.2f}s)"
        )
    elif cpus < 4:
        pytest.skip(f"speedup assertion needs >=4 CPUs, host has {cpus}")
