"""Benchmark: the batched engines on the whole Figure 1 sweep.

A Figure-1-scale sweep is dozens of (protocol, k) cells, and on a cell of a
few dozen rows every numpy dispatch costs as much as the arithmetic it
performs.  The batched engines (``MegaFairEngine`` / ``MegaWindowEngine``)
fuse *all* same-kind cells of the sweep into one padded lockstep kernel, so
the fixed per-slot dispatch cost is paid once per sweep instead of once per
cell.

This benchmark times the whole paper suite (``paper_protocol_suite()`` — both
Log-Fails Adaptive variants, One-Fail Adaptive, Exp Back-on/Back-off and
LogLog-Iterated-Backoff) across the full ``paper_k_values`` grid through the
*same* ``run_sweep(workers=1)`` entry point two ways:

* per-run — ``batch=False``: one interpreted engine run per replication;
* fused   — the default: one batched kernel per protocol family.

and writes both wall clocks plus their ratio to ``BENCH_megabatch.json``.
The numbers are reported, not gated: the performance contract lives in the
repository benchmark (``perfbench``), whose ``table1`` and ``windowed-grid``
workloads time the same fused sweeps end to end.  The smoke-marked subset
(run by ``scripts/bench_smoke.sh``) checks that the fused path is the sweep
default, that ``batch=False`` routes to the per-run engines, that fused
sweeps are deterministic, and that fused and per-run sweeps stay
distributionally interchangeable for every protocol of the suite.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_max_k, bench_runs
from repro.experiments.config import ExperimentConfig, paper_k_values
from repro.experiments.figure1 import paper_protocol_suite
from repro.experiments.runner import SweepResult, run_sweep

#: Artifact written to the benchmark results directory.
ARTIFACT_NAME = "BENCH_megabatch.json"

#: Engines the fused and the per-run sweeps must route to.
_FUSED_ENGINES = {"mega", "mega-window"}
_PER_RUN_ENGINES = {"fair", "window"}


def _engines(sweep: SweepResult) -> set[str]:
    return {result.engine for cell in sweep.cells.values() for result in cell.results}


def _timed_figure1(config: ExperimentConfig) -> tuple[float, SweepResult]:
    """Wall-clock seconds of the whole paper suite at ``workers=1``."""
    started = time.perf_counter()
    sweep = run_sweep(paper_protocol_suite(), config, workers=1)
    elapsed = time.perf_counter() - started
    for cell in sweep.cells.values():
        assert cell.all_solved
    return elapsed, sweep


@pytest.mark.smoke
def test_fused_is_default_and_opt_out_routes_per_run_smoke():
    """The sweep default fuses cells; ``batch=False`` restores per-run engines."""
    config = ExperimentConfig(k_values=[40, 60], runs=2, seed=5)
    fused = run_sweep(paper_protocol_suite(), config, workers=1)
    assert _engines(fused) <= _FUSED_ENGINES, f"fused sweep used {_engines(fused)}"
    per_run = run_sweep(paper_protocol_suite(), config, workers=1, batch=False)
    assert _engines(per_run) <= _PER_RUN_ENGINES, f"batch=False used {_engines(per_run)}"


@pytest.mark.smoke
def test_fused_sweep_deterministic_smoke():
    """Two fused sweeps of the same config are bit-identical."""
    config = ExperimentConfig(k_values=[50], runs=4, seed=7)
    first = run_sweep(paper_protocol_suite(), config, workers=1)
    second = run_sweep(paper_protocol_suite(), config, workers=1)
    for key, cell in first.cells.items():
        assert cell.results == second.cells[key].results


@pytest.mark.smoke
def test_fused_distributionally_matches_per_run_smoke():
    """Fused and per-run sweeps sample the same makespan distribution.

    Checked for *every* protocol of the paper suite — each one exercises its
    own fused state path (LFA flavor caches, OFA parity schedule, the
    windowed occupancy kernel) — with independent seeds and a 4σ bar on the
    difference of means.
    """
    runs = 60
    fused = run_sweep(
        paper_protocol_suite(),
        ExperimentConfig(k_values=[60], runs=runs, seed=3),
        workers=1,
    )
    per_run = run_sweep(
        paper_protocol_suite(),
        ExperimentConfig(k_values=[60], runs=runs, seed=4, batch=False),
        workers=1,
    )
    for key, fused_cell in fused.cells.items():
        fused_ms = np.asarray(fused_cell.makespans, dtype=float)
        per_run_ms = np.asarray(per_run.cells[key].makespans, dtype=float)
        pooled = math.sqrt(fused_ms.var(ddof=1) / runs + per_run_ms.var(ddof=1) / runs)
        assert abs(fused_ms.mean() - per_run_ms.mean()) / pooled < 4.0, (
            f"fused and per-run makespans diverge for {key}"
        )


def test_megabatch_figure1_timing(results_dir):
    """Whole-Figure-1 wall clock per-run vs fused, written to BENCH_megabatch.json."""
    runs = bench_runs()
    k_values = paper_k_values(max_k=bench_max_k())
    # Warm both code paths (imports, registry resolution, numpy dispatch
    # tables) before any timed pass.
    warmup = ExperimentConfig(k_values=[10], runs=1, seed=2011)
    run_sweep(paper_protocol_suite(), warmup, workers=1, batch=False)
    run_sweep(paper_protocol_suite(), warmup, workers=1)

    per_run_seconds, per_run_sweep = _timed_figure1(
        ExperimentConfig(k_values=k_values, runs=runs, seed=2011, batch=False)
    )
    # Best of two damps scheduler noise on the fused pass.
    fused_seconds, fused_sweep = min(
        (_timed_figure1(ExperimentConfig(k_values=k_values, runs=runs, seed=2011))
         for _ in range(2)),
        key=lambda timing: timing[0],
    )
    assert _engines(per_run_sweep) <= _PER_RUN_ENGINES
    assert _engines(fused_sweep) <= _FUSED_ENGINES

    artifact = {
        "benchmark": "megabatch_figure1_timing",
        "suite": sorted(spec.key for spec in paper_protocol_suite()),
        "k_values": k_values,
        "runs": runs,
        "seed": 2011,
        "workers": 1,
        "per_run_seconds": round(per_run_seconds, 4),
        "fused_seconds": round(fused_seconds, 4),
        "speedup_fused_vs_per_run": round(
            per_run_seconds / fused_seconds if fused_seconds > 0 else float("inf"), 2
        ),
    }
    (results_dir / ARTIFACT_NAME).write_text(json.dumps(artifact, indent=2) + "\n")
