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

The progress callback receives finished outcomes in batches, so a caller
that persists them (:meth:`~repro.scenarios.session.Session.run_all`) writes
the runs that finished together in one go: the serial loop hands over its
outcomes once they hold :data:`~repro.engine.native.SLOTS_PER_CALL` slots of
simulated work (the budget one kernel call runs), at the end, and before a
unit's exception propagates; the pool hands over each outcome as its future
completes.

Work units carry materialised protocol and arrival-process *instances*; all
of the repository's protocol and arrival classes are plain attribute holders
that pickle cleanly.
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
from repro.engine import native
# simulate_batch and simulate_megabatch are not called here; they are
# imported so that this module keeps exposing all three engine front doors,
# which perfbench/tracer.py wraps by name on this module.
from repro.engine.dispatch import simulate, simulate_batch, simulate_megabatch  # noqa: F401
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.obs.metrics import CounterKey
from repro.protocols.base import Protocol

__all__ = [
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
    """

    protocol: Protocol
    k: int
    seed: int = 0
    engine: str = "auto"
    max_slots: int | None = None
    arrivals: ArrivalProcess | None = None
    channel: ChannelModel | None = None
    tag: object = None


@dataclass(frozen=True)
class UnitOutcome:
    """The result of one executed unit plus its execution cost.

    Units run in a pool worker also carry the counter increments the worker
    made while running them (``counter_deltas``), which the parent adds to
    its own registry.
    """

    index: int
    result: SimulationResult
    elapsed_seconds: float
    tag: object = None
    counter_deltas: dict[CounterKey, float] = field(default_factory=dict, compare=False)


#: Progress callback of :meth:`ParallelExecutor.run`: a batch of finished
#: outcomes (see the module docstring).
BatchProgress = Callable[[list[UnitOutcome]], None]


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
        progress: BatchProgress | None = None,
    ) -> list[UnitOutcome]:
        """Execute every unit and return their outcomes in submission order.

        ``progress`` (if given) receives every outcome exactly once, in the
        batches the module docstring describes: in submission order on the
        serial path, one at a time in completion order on the parallel path.
        """
        if self.workers == 1 or len(units) <= 1:
            return self._run_serial(units, progress)
        return self._run_pool(units, progress)

    def _run_serial(
        self,
        units: Sequence[SimulationUnit],
        progress: BatchProgress | None,
    ) -> list[UnitOutcome]:
        if progress is None:
            return [_execute_unit(index, unit) for index, unit in enumerate(units)]
        outcomes: list[UnitOutcome] = []
        batch: list[UnitOutcome] = []
        slots = 0
        try:
            for index, unit in enumerate(units):
                outcome = _execute_unit(index, unit)
                outcomes.append(outcome)
                batch.append(outcome)
                slots += outcome.result.slots_simulated
                if slots >= native.SLOTS_PER_CALL:
                    # Emptied before the call: a callback that raises never
                    # sees these outcomes again.
                    done, batch, slots = batch, [], 0
                    progress(done)
        except BaseException:
            # What finished before a failing unit (or an interrupt) is still
            # handed over, so a caller keeps it on record.
            if batch:
                progress(batch)
            raise
        if batch:
            progress(batch)
        return outcomes

    def _run_pool(
        self,
        units: Sequence[SimulationUnit],
        progress: BatchProgress | None,
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
                        progress([outcome])
        # Callers assemble cells from the outcome list (relying on submission
        # order), so a lost unit must be an error, never a silently shorter
        # list.
        missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise RuntimeError(f"process pool returned no outcome for units {missing}")
        return outcomes
