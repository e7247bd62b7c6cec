"""Shared configuration for the benchmark harness.

Every benchmark regenerates one artefact of the paper's evaluation (the
experiment it reproduces is named in its docstring).  Scale is controlled by
environment variables so the default run finishes in a few minutes on one CPU
while the full paper range remains reachable:

* ``REPRO_BENCH_MAX_K``  — largest network size swept (default 10_000;
  the paper goes to 10_000_000).
* ``REPRO_BENCH_RUNS``   — repetitions per (protocol, k) point (default 3;
  the paper uses 10).

Each benchmark writes the table/figure it reproduces to
``benchmark_results/`` at the repository root, so the numbers quoted in
EXPERIMENTS.md can be regenerated with a single ``pytest benchmarks/
--benchmark-only`` invocation.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[1]
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Directory where benchmarks drop the artefacts they reproduce.
RESULTS_DIR = _REPO_ROOT / "benchmark_results"


def bench_max_k() -> int:
    """Largest k swept by the benchmarks (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_MAX_K", 10_000))


def bench_runs() -> int:
    """Repetitions per (protocol, k) point (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_RUNS", 3))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def figure1_sweep():
    """The Figure 1 / Table 1 sweep, run once and shared by both benchmarks."""
    from repro.experiments.config import ExperimentConfig, paper_k_values
    from repro.experiments.figure1 import reproduce_figure1

    config = ExperimentConfig(
        k_values=paper_k_values(max_k=bench_max_k()),
        runs=bench_runs(),
        seed=2011,
    )
    return reproduce_figure1(config=config)
