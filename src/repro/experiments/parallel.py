"""Parallel execution of independent simulation work units.

Every experiment in this repository decomposes into *work units* — one
``(protocol, k, seed)`` simulation each — that share no state: the per-unit
seed is derived deterministically by the caller, so the units can run in any
order, on any worker, and still produce bit-identical results.

:class:`ParallelExecutor` exploits that: it fans a sequence of
:class:`SimulationUnit` out over a :class:`concurrent.futures.ProcessPoolExecutor`
and returns the results *in submission order*, so callers that assemble cells
from slices of the output cannot tell the difference from the serial path
(except for the wall clock).  ``workers=1`` short-circuits to a plain
in-process loop with no pickling or process-pool overhead, which keeps the
serial path exactly as cheap — and exactly as debuggable — as before.

Work units carry materialised protocol and arrival-process *instances*; all
of the repository's protocol and arrival classes are plain attribute holders
that pickle cleanly.

A unit may also be a *fused group*: one
:func:`~repro.engine.dispatch.simulate_megabatch` call covering many whole
(protocol, k) cells (``cells`` set instead of ``seed``).  Fused units compose
with the process pool exactly like single-run units.  The fused kernel's wall
clock is one measurement for the whole group, so the outcome apportions it
back to the member cells in proportion to the rows × slots each cell actually
kept live inside the kernel — the best available estimate of each cell's
share of the fused work.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel
# simulate_batch is not called here; it is imported so that this module keeps
# exposing all three engine front doors, which perfbench/tracer.py wraps by
# name on this module.
from repro.engine.dispatch import FusedCell, simulate, simulate_batch, simulate_megabatch  # noqa: F401
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.obs.metrics import CounterKey
from repro.protocols.base import Protocol

__all__ = [
    "FusedCell",
    "FusedCellOutcome",
    "SimulationUnit",
    "UnitOutcome",
    "ParallelExecutor",
    "resolve_workers",
]

#: Cap on in-flight futures per worker; bounds parent-side memory for huge
#: sweeps without starving the pool.
_MAX_INFLIGHT_PER_WORKER = 4


@dataclass(frozen=True)
class SimulationUnit:
    """One independent simulation: everything :func:`simulate` needs.

    Attributes
    ----------
    protocol:
        Materialised protocol instance (spawned fresh inside the engine, so
        sharing one instance across units is safe).
    k:
        Number of messages.
    seed:
        Root seed of the run (derived by the caller; determinism lives here).
    engine:
        Engine selector forwarded to :func:`repro.engine.dispatch.simulate`.
    max_slots:
        Safety cap forwarded to the engine.
    arrivals:
        Optional arrival process (routes the unit to the node-level engine).
    channel:
        Optional non-default channel model, forwarded to the engine
        (``None`` is the paper's channel).
    tag:
        Opaque caller marker (e.g. a ``(spec_key, k)`` cell id); carried
        through to :class:`UnitOutcome` untouched.
    cells:
        When set, the unit is a *fused group*: every listed
        :class:`~repro.engine.megabatch.FusedCell` runs in one
        :func:`~repro.engine.dispatch.simulate_megabatch` kernel pass
        (``protocol``/``k``/``seed``/``arrivals``/``max_slots`` are ignored —
        each cell carries its own; ``protocol`` and ``k`` should mirror the
        first cell for display purposes; ``engine`` selects among the batched
        engines).  The outcome
        carries one :class:`FusedCellOutcome` per cell, tagged with the
        cell's own ``tag``.
    """

    protocol: Protocol
    k: int
    seed: int = 0
    engine: str = "auto"
    max_slots: int | None = None
    arrivals: ArrivalProcess | None = None
    channel: ChannelModel | None = None
    tag: object = None
    cells: tuple[FusedCell, ...] | None = None


@dataclass(frozen=True)
class FusedCellOutcome:
    """One cell's slice of a fused-group execution.

    ``elapsed_seconds`` is the cell's apportioned share of the fused
    kernel's wall clock, weighted by the slots its rows actually simulated
    (cells that retire early cost — and are charged — less).
    """

    tag: object
    results: tuple[SimulationResult, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class UnitOutcome:
    """Result(s) of one executed unit plus its execution cost.

    Single-run units populate both ``result`` and the one-element
    ``results``; fused-group units leave ``result`` ``None`` and populate
    ``cells`` (one :class:`FusedCellOutcome` per fused cell, in cell order)
    plus the flattened ``results``.  Units run in a pool worker also carry
    the counter increments the worker made while running them
    (``counter_deltas``), which the parent adds to its own registry.
    """

    index: int
    result: SimulationResult | None
    elapsed_seconds: float
    tag: object = None
    results: tuple[SimulationResult, ...] = field(default=())
    cells: tuple[FusedCellOutcome, ...] | None = None
    counter_deltas: dict[CounterKey, float] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.results and self.result is not None:
            object.__setattr__(self, "results", (self.result,))


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` request: ``None``/``0`` means "all CPUs"."""
    if workers is None or workers == 0:
        return max(os.cpu_count() or 1, 1)
    if workers < 0:
        raise ValueError(f"workers must be positive (or 0/None for all CPUs), got {workers}")
    return workers


def _execute_unit(index: int, unit: SimulationUnit) -> UnitOutcome:
    """Run one unit (module-level so process pools can pickle it)."""
    started = time.perf_counter()
    if unit.cells is not None:
        per_cell = simulate_megabatch(
            unit.cells,
            engine=unit.engine,
            channel=unit.channel,
        )
        elapsed = time.perf_counter() - started
        # The kernel's cost is one number for the whole group; attribute it
        # to cells by the rows × slots they kept live (retired rows stop
        # contributing), so per-cell elapsed_seconds stays meaningful for
        # sweep reporting even though the cells ran fused.
        weights = [
            sum(result.slots_simulated for result in cell_results)
            for cell_results in per_cell
        ]
        total_weight = sum(weights) or len(per_cell)
        cell_outcomes = tuple(
            FusedCellOutcome(
                tag=cell.tag,
                results=tuple(cell_results),
                elapsed_seconds=elapsed * (weight if sum(weights) else 1) / total_weight,
            )
            for cell, cell_results, weight in zip(unit.cells, per_cell, weights)
        )
        return UnitOutcome(
            index=index,
            result=None,
            elapsed_seconds=elapsed,
            tag=unit.tag,
            results=tuple(
                result for cell_results in per_cell for result in cell_results
            ),
            cells=cell_outcomes,
        )
    result = simulate(
        unit.protocol,
        unit.k,
        seed=unit.seed,
        engine=unit.engine,
        channel=unit.channel,
        max_slots=unit.max_slots,
        arrivals=unit.arrivals,
    )
    return UnitOutcome(
        index=index,
        result=result,
        elapsed_seconds=time.perf_counter() - started,
        tag=unit.tag,
    )


def _execute_unit_in_worker(index: int, unit: SimulationUnit) -> UnitOutcome:
    """:func:`_execute_unit` in a pool worker, returning its counter increments.

    Metrics recorded in a worker process live in that process's registry,
    so the outcome ships the difference of the worker's counter totals
    around the unit back to the parent.
    """
    before = REGISTRY.counter_totals()
    outcome = _execute_unit(index, unit)
    deltas = {
        key: value - before.get(key, 0.0)
        for key, value in REGISTRY.counter_totals().items()
        if value != before.get(key, 0.0)
    }
    return dataclasses.replace(outcome, counter_deltas=deltas)


@dataclass
class ParallelExecutor:
    """Run simulation units serially or across a process pool.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs everything in
        the calling process; ``None`` or ``0`` uses every CPU.

    Results are returned in submission order regardless of completion order,
    and per-unit seeds travel with the units, so a ``workers=N`` execution is
    bit-identical to ``workers=1`` — the test suite asserts this.
    """

    workers: int | None = 1

    def __post_init__(self) -> None:
        self.workers = resolve_workers(self.workers)

    def run(
        self,
        units: Sequence[SimulationUnit],
        progress: Callable[[UnitOutcome], None] | None = None,
    ) -> list[UnitOutcome]:
        """Execute every unit and return their outcomes in submission order.

        ``progress`` (if given) is called once per completed unit — in
        submission order on the serial path, in completion order on the
        parallel path.
        """
        if self.workers == 1 or len(units) <= 1:
            return self._run_serial(units, progress)
        return self._run_pool(units, progress)

    def _run_serial(
        self,
        units: Sequence[SimulationUnit],
        progress: Callable[[UnitOutcome], None] | None,
    ) -> list[UnitOutcome]:
        outcomes = []
        for index, unit in enumerate(units):
            outcome = _execute_unit(index, unit)
            if progress is not None:
                progress(outcome)
            outcomes.append(outcome)
        return outcomes

    def _run_pool(
        self,
        units: Sequence[SimulationUnit],
        progress: Callable[[UnitOutcome], None] | None,
    ) -> list[UnitOutcome]:
        max_inflight = self.workers * _MAX_INFLIGHT_PER_WORKER
        outcomes: list[UnitOutcome | None] = [None] * len(units)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            pending = set()
            queued = enumerate(units)
            exhausted = False
            while pending or not exhausted:
                while not exhausted and len(pending) < max_inflight:
                    try:
                        index, unit = next(queued)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.add(pool.submit(_execute_unit_in_worker, index, unit))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    outcome = future.result()
                    REGISTRY.merge_counters(outcome.counter_deltas)
                    outcomes[outcome.index] = outcome
                    if progress is not None:
                        progress(outcome)
        # Callers assemble cells from the outcome list (relying on submission
        # order), so a lost unit must be an error, never a silently shorter
        # list.
        missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise RuntimeError(f"process pool returned no outcome for units {missing}")
        return outcomes
