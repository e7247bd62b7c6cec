"""Generic (protocol × network size × repetitions) sweep runner.

Every experiment in this repository — Figure 1, Table 1, the ablations — is a
sweep of the same shape: for each protocol specification and each network size
``k``, run a number of independently seeded simulations and aggregate their
makespans.  :func:`run_sweep` implements that shape once; the experiment
modules wrap it with the paper's specific protocol suites and presentation.

:func:`run_sweep` is a thin *scenario-preset builder*: each (protocol, k)
cell becomes one frozen :class:`~repro.scenarios.scenario.Scenario`, and the
whole grid is executed by a :class:`~repro.scenarios.session.Session` —
which runs every replication on the engine
:func:`~repro.engine.dispatch.pick_engine_name` picks for its cell (the
paper's fair protocols in the compiled slot loop of
:class:`~repro.engine.fair_engine.FairEngine`) and, when ``store_dir`` is
given, persists every replication to a JSONL store so an interrupted sweep
resumes with only the missing replications executed.

Cell seeds are derived *before* dispatch, so ``workers=N`` produces
bit-identical cells to ``workers=1``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.statistics import RunStatistics, summarize_makespans
from repro.engine.result import SimulationResult
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import Session

__all__ = ["SweepCell", "SweepResult", "run_sweep", "cell_seed_root"]

#: Signature of the optional progress callback: (spec, k, completed_runs, total_runs).
ProgressCallback = Callable[[ProtocolSpec, int, int, int], None]


def cell_seed_root(config: ExperimentConfig, spec_index: int, k_index: int) -> int:
    """Root seed of one (protocol, k) cell — the sweep's historical derivation.

    Depends only on the sweep seed and the cell's position in the grid, so
    every execution path (serial, parallel, Session-cached) sees the
    same per-replication seeds.
    """
    return config.seed + 1_000_003 * spec_index + 7_919 * k_index


@dataclass(frozen=True)
class SweepCell:
    """All runs of one (protocol, k) cell, plus their aggregates.

    ``elapsed_seconds`` is the *aggregate simulation time* of the cell's runs
    (the sum of per-run durations), not wall-clock time: with ``workers > 1``
    the runs execute concurrently and interleaved with other cells, so the
    sum is the only definition that is comparable across worker counts.
    Replications served from a Session store contribute their recorded
    durations.
    """

    spec_key: str
    label: str
    k: int
    results: tuple[SimulationResult, ...]
    elapsed_seconds: float

    @property
    def solved_results(self) -> tuple[SimulationResult, ...]:
        return tuple(result for result in self.results if result.solved)

    @property
    def all_solved(self) -> bool:
        return len(self.solved_results) == len(self.results)

    @property
    def makespans(self) -> list[int]:
        return [result.makespan for result in self.solved_results if result.makespan is not None]

    def makespan_statistics(self) -> RunStatistics:
        return summarize_makespans(self.makespans)

    def ratio_statistics(self) -> RunStatistics:
        return summarize_makespans([makespan / self.k for makespan in self.makespans])

    @property
    def mean_makespan(self) -> float:
        return self.makespan_statistics().mean

    @property
    def mean_ratio(self) -> float:
        return self.ratio_statistics().mean


@dataclass
class SweepResult:
    """All cells of a sweep, indexed by (protocol key, k)."""

    config: ExperimentConfig
    specs: Sequence[ProtocolSpec]
    cells: dict[tuple[str, int], SweepCell] = field(default_factory=dict)

    def cell(self, spec_key: str, k: int) -> SweepCell:
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
    workers: int | None = None,
    arrivals: str = "batch",
    store_dir: str | Path | None = None,
) -> SweepResult:
    """Run every (protocol, k, repetition) combination of the sweep.

    Seeds are derived deterministically from ``config.seed`` so that the whole
    sweep is reproducible, and so that two protocols at the same (k, run
    index) face statistically independent randomness (they are different
    stochastic processes; sharing seeds would not make them comparable anyway).
    Because every seed is fixed before any run starts, the results do not
    depend on ``workers``: a parallel sweep is bit-identical to a serial one.

    Parameters
    ----------
    specs:
        Protocol specifications (one per curve).
    config:
        Sizes, repetition count, root seed, safety caps and default worker
        count.
    engine:
        Engine selector carried into every cell's scenario.
    progress:
        Optional callback invoked after every completed run.  With
        ``workers > 1`` the callback fires in completion order; its
        ``completed`` argument is always the number of runs done *in that
        cell* so far.  Replications served from the store are reported
        immediately, so ``completed`` reaches the total either way.
    workers:
        Worker processes for the sweep; defaults to ``config.workers``.
        ``1`` runs serially in-process, ``0``/``None`` at config level means
        one worker per CPU.
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
    cells: list[tuple[ProtocolSpec, int]] = []
    scenarios: list[Scenario] = []
    for spec_index, spec in enumerate(specs):
        for k_index, k in enumerate(config.k_values):
            cells.append((spec, k))
            scenarios.append(
                Scenario(
                    protocol=spec.spec,
                    k=k,
                    arrivals=arrivals,
                    engine=engine,
                    replications=config.runs,
                    seed=cell_seed_root(config, spec_index, k_index),
                    max_slots_factor=config.max_slots_factor,
                )
            )

    session = Session(
        store_dir=store_dir,
        workers=config.workers if workers is None else workers,
    )

    def session_progress(index: int, _scenario: Scenario, done: int, total: int) -> None:
        spec, k = cells[index]
        assert progress is not None
        progress(spec, k, done, total)

    result_sets = session.run_all(
        scenarios, progress=session_progress if progress is not None else None
    )
    result = SweepResult(config=config, specs=list(specs))
    for (spec, k), result_set in zip(cells, result_sets):
        result.cells[(spec.key, k)] = SweepCell(
            spec_key=spec.key,
            label=spec.label,
            k=k,
            results=result_set.results,
            elapsed_seconds=result_set.elapsed_seconds,
        )
    return result
