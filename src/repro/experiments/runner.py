"""Generic (protocol × network size × repetitions) sweep runner.

Figure 1 and Table 1 are sweeps of one shape: for each protocol specification
and each network size ``k``, run a number of independently seeded simulations
and aggregate their makespans.  :func:`run_sweep` implements that shape once,
and the experiment modules add the paper's defaults and presentation; the
``repro figure1`` and ``repro table1`` commands (:mod:`repro.cli`) parse
the flags and print.

:func:`run_sweep` is a thin *scenario-preset builder*: each (protocol, k)
cell becomes one frozen :class:`~repro.scenarios.scenario.Scenario`, and the
whole grid is one :meth:`~repro.scenarios.session.Session.run_all` call —
which runs every replication on the engine
:func:`~repro.engine.dispatch.pick_engine_name` picks for its cell (the
paper's fair protocols in the compiled slot loop of
:class:`~repro.engine.fair_engine.FairEngine`) and, when ``store_dir`` is
given, persists every replication to a result store so an interrupted sweep
resumes with only the missing replications executed.  Each cell of the
result is the :class:`~repro.scenarios.session.ResultSet` the session
returned for it.

Cell seeds are derived *before* dispatch, so ``workers=N`` produces
bit-identical cells to ``workers=1``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import ResultSet, Session

__all__ = ["ProgressCallback", "SweepResult", "run_sweep", "cell_seed_root"]

#: Signature of the optional progress callback: (spec, k, completed_runs, total_runs).
ProgressCallback = Callable[[ProtocolSpec, int, int, int], None]


def cell_seed_root(config: ExperimentConfig, spec_index: int, k_index: int) -> int:
    """Root seed of one (protocol, k) cell — the sweep's historical derivation.

    Depends only on the sweep seed and the cell's position in the grid, so
    every execution path (serial, parallel, Session-cached) sees the
    same per-replication seeds.
    """
    return config.seed + 1_000_003 * spec_index + 7_919 * k_index


@dataclass
class SweepResult:
    """All cells of a sweep, indexed by (protocol key, k).

    A cell's ``elapsed_seconds`` is the *aggregate simulation time* of its
    runs (the sum of per-run durations, stored runs included), not
    wall-clock time: with ``workers > 1`` the runs execute concurrently and
    interleaved with other cells, so the sum is the only definition that is
    comparable across worker counts.
    """

    config: ExperimentConfig
    specs: Sequence[ProtocolSpec]
    cells: dict[tuple[str, int], ResultSet] = field(default_factory=dict)

    def cell(self, spec_key: str, k: int) -> ResultSet:
        try:
            return self.cells[(spec_key, k)]
        except KeyError:
            known = sorted({key for key, _ in self.cells})
            raise KeyError(
                f"no cell for protocol {spec_key!r} and k={k}; swept protocols: {known}"
            ) from None

    def series(self, spec_key: str) -> tuple[list[int], list[float]]:
        """Return (k values, mean makespans) for one protocol — a Figure 1 curve."""
        ks = sorted(k for key, k in self.cells if key == spec_key)
        return ks, [self.cells[(spec_key, k)].mean_makespan for k in ks]

    def ratio_series(self, spec_key: str) -> tuple[list[int], list[float]]:
        """Return (k values, mean steps/k ratios) for one protocol — a Table 1 row."""
        ks = sorted(k for key, k in self.cells if key == spec_key)
        return ks, [self.cells[(spec_key, k)].mean_ratio for k in ks]

    def total_runs(self) -> int:
        return sum(len(cell.results) for cell in self.cells.values())

    def total_elapsed_seconds(self) -> float:
        return sum(cell.elapsed_seconds for cell in self.cells.values())


def run_sweep(
    specs: Sequence[ProtocolSpec],
    config: ExperimentConfig,
    engine: str = "auto",
    progress: ProgressCallback | None = None,
    arrivals: str = "batch",
    store_dir: str | Path | None = None,
) -> SweepResult:
    """Run every (protocol, k, repetition) combination of the sweep.

    Seeds are derived deterministically from ``config.seed`` so that the whole
    sweep is reproducible, and so that two protocols at the same (k, run
    index) face statistically independent randomness (they are different
    stochastic processes; sharing seeds would not make them comparable anyway).
    Because every seed is fixed before any run starts, the results do not
    depend on ``config.workers``: a parallel sweep is bit-identical to a
    serial one.

    Parameters
    ----------
    specs:
        Protocol specifications (one per curve), with distinct keys.
    config:
        Sizes, repetition count, root seed and worker processes (``1`` runs
        serially in-process, ``0`` uses one worker per CPU).
    engine:
        Engine selector carried into every cell's scenario.
    progress:
        Optional callback invoked after every completed run.  With
        ``workers > 1`` the callback fires in completion order; its
        ``completed`` argument is always the number of runs done *in that
        cell* so far.  Replications served from the store are reported
        immediately, so ``completed`` reaches the total either way.
    arrivals:
        Arrival spec string carried into every cell's scenario, e.g.
        ``"poisson(rate=0.2)"``; the default ``"batch"`` is the paper's
        static setting (every message present at slot 0).  Any other arrival
        process routes every run to the node-level engine (the dynamic
        workloads of the paper's Section 6) — the reduced engines assume
        slot-0 arrivals.
    store_dir:
        Optional Session store directory.  When given, every replication is
        persisted there and completed cells are served from the store on
        re-run — an interrupted sweep resumes with only missing cells
        executed.
    """
    if not specs:
        raise ValueError("run_sweep needs at least one protocol specification")
    keys = [spec.key for spec in specs]
    repeated = [key for index, key in enumerate(keys) if key in keys[:index]]
    if repeated:
        raise ValueError(f"run_sweep got protocol key {repeated[0]!r} more than once")
    grid = [(spec, k) for spec in specs for k in config.k_values]
    scenarios = [
        Scenario(
            protocol=spec.spec,
            k=k,
            arrivals=arrivals,
            engine=engine,
            replications=config.runs,
            seed=cell_seed_root(config, spec_index, k_index),
        )
        for spec_index, spec in enumerate(specs)
        for k_index, k in enumerate(config.k_values)
    ]

    def session_progress(index: int, _scenario: Scenario, done: int, total: int) -> None:
        spec, k = grid[index]
        assert progress is not None
        progress(spec, k, done, total)

    result_sets = Session(store_dir=store_dir, workers=config.workers).run_all(
        scenarios, progress=session_progress if progress is not None else None
    )
    return SweepResult(
        config=config,
        specs=list(specs),
        cells={(spec.key, k): result_set for (spec, k), result_set in zip(grid, result_sets)},
    )
