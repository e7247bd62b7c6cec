"""The :class:`Session` service API: ``Session(store_dir).run(scenario)``.

A session is the one spec-driven front door to every execution path in this
repository.  Given a :class:`~repro.scenarios.scenario.Scenario`, it

1. content-hashes the scenario and, when backed by a result store (any
   :class:`~repro.scenarios.store.StoreBackend` — a JSONL directory, an
   indexed SQLite file, or a spec string selecting one), loads the
   replications already on record, in one ``load`` per cell, and reuses
   those keyed like the runs it would produce: same seed, same engine and
   same stream version (re-running a completed scenario costs **zero** new
   simulations).  The engine is the one the scenario decided when it was
   built (:attr:`Scenario.engine_name
   <repro.scenarios.scenario.Scenario.engine_name>`), so answering from the
   store builds no component;
2. plans exactly the missing replications, one
   :class:`~repro.experiments.parallel.SimulationUnit` per replication on
   that engine (the fair protocols run in
   :class:`~repro.engine.fair_engine.FairEngine`'s compiled slot loop),
   building a cell's protocol, arrivals and channel once, and only when it
   has a replication missing;
3. fans the units out over a
   :class:`~repro.experiments.parallel.ParallelExecutor`; and
4. appends fresh replications to the store as they complete, in the
   batches the executor hands over (one ``append`` per cell of a batch), so
   an interrupted cell resumes from its persisted prefix and an interrupted
   sweep with only the missing replications executed.  A batch holds the
   runs that finished together, closed once they hold
   :data:`~repro.engine.native.SLOTS_PER_CALL` slots of simulated work on
   the serial path, and one run on a process pool; a killed process loses
   at most the batch in flight.

Every experiment (:func:`repro.experiments.runner.run_sweep`, Figure 1,
Table 1, the variance experiment, the δ ablations, the dynamic extension) and
the ``repro run`` CLI are thin scenario-preset builders over
:meth:`Session.run_all`, and the simulation service
(:mod:`repro.service`) shares **one** session across its worker threads.

Thread-safety
-------------
A session may be shared by concurrent callers (the service's job-queue
workers each call :meth:`Session.run` on the same instance): store reads and
writes are serialised by an internal lock on top of the store's own advisory
file locking, and all remaining per-call state is local to ``run_all``.
Progress callbacks fire on whichever thread executes the session call — a
worker callback context, not necessarily the main thread — so
:data:`SessionProgress` implementations must themselves be thread-safe when
one callback object observes several sessions or jobs.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.statistics import RunStatistics, summarize_makespans
from repro.engine.dispatch import ENGINES
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY, span
from repro.experiments.parallel import ParallelExecutor, SimulationUnit, UnitOutcome
from repro.scenarios.scenario import Scenario
from repro.scenarios.store import (
    StoreBackend,
    StoredRun,
    open_store,
    seed_checked,
    stream_version_of,
)

__all__ = ["ResultSet", "Session", "SessionProgress"]

#: Progress callback: (scenario index, scenario, replications done, total).
#: Cached replications are reported immediately when planning starts, so
#: ``done`` always reaches ``total`` whether the work was fresh or stored.
#: Invocations happen in *worker callback context*: the thread that called
#: :meth:`Session.run`/:meth:`Session.run_all` (which, under the simulation
#: service, is a job-queue worker thread) — never concurrently for one call,
#: but not necessarily the main thread.
#:
#: Cancellation contract: a callback may *raise* to abort the session call
#: cooperatively (the service's deadline/cancel machinery raises
#: :class:`~repro.service.reliability.JobCancelled` here).  The exception
#: propagates out of :meth:`Session.run`/:meth:`Session.run_all`, and every
#: replication already reported as done has been appended to the store
#: *before* its progress callback fired — so an aborted cell resumes from
#: the completed prefix on the next run instead of re-simulating it.
#: Fresh replications are reported a batch at a time (see step 4 of the
#: module docstring): the whole batch is appended first, then the callback
#: fires once per replication of it, in order, so an abort is seen at the end
#: of a batch and every replication of that batch stays on record.
SessionProgress = Callable[[int, Scenario, int, int], None]

_M_CACHE = REGISTRY.counter(
    "repro_session_cache_lookups_total",
    "run_cached fast-path probes, by outcome.",
    ("result",),
)
_M_REPLICATIONS = REGISTRY.counter(
    "repro_session_replications_total",
    "Replications delivered by session calls, by source (cached vs fresh).",
    ("source",),
)
# Children resolved once — the cache probe is the service's hottest path.
_M_CACHE_HIT = _M_CACHE.labels(result="hit")
_M_CACHE_MISS = _M_CACHE.labels(result="miss")
_M_REPL_CACHED = _M_REPLICATIONS.labels(source="cached")
_M_REPL_FRESH = _M_REPLICATIONS.labels(source="fresh")


@dataclass(frozen=True)
class ResultSet:
    """All replications of one scenario, with provenance.

    ``results`` is ordered by replication index; ``cached_runs`` of them were
    served from the store, ``new_runs`` were simulated by this call.
    ``elapsed_seconds`` is the aggregate simulation time of *all* replications
    (stored runs contribute their recorded duration), so it is comparable
    across worker counts and across resumed sessions.
    """

    scenario: Scenario
    scenario_hash: str
    results: tuple[SimulationResult, ...]
    seeds: tuple[int, ...]
    new_runs: int
    cached_runs: int
    elapsed_seconds: float

    @property
    def engine_used(self) -> str:
        """Engine name that produced the runs (they all share one)."""
        return self.results[0].engine

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

    @property
    def mean_makespan(self) -> float:
        return self.makespan_statistics().mean

    def ratio_statistics(self) -> RunStatistics:
        return summarize_makespans([makespan / self.scenario.k for makespan in self.makespans])

    @property
    def mean_ratio(self) -> float:
        return self.ratio_statistics().mean

    def to_dict(self) -> dict[str, object]:
        """Machine-readable summary (the ``repro run --json`` payload)."""
        return {
            "scenario": self.scenario.to_dict(),
            "scenario_string": self.scenario.format(),
            "hash": self.scenario_hash,
            "engine": self.engine_used,
            "new_runs": self.new_runs,
            "cached_runs": self.cached_runs,
            "elapsed_seconds": self.elapsed_seconds,
            "seeds": list(self.seeds),
            "solved_runs": len(self.solved_results),
            "mean_makespan": self.mean_makespan if self.makespans else None,
            "mean_steps_per_node": self.mean_ratio if self.makespans else None,
            "results": [result.to_dict() for result in self.results],
        }


class Session:
    """Spec-driven execution service with an optional persistent result store.

    Parameters
    ----------
    store_dir:
        Where results persist: an already-built
        :class:`~repro.scenarios.store.StoreBackend`, a ``Path`` (JSONL
        directory), or a store spec string (``jsonl:dir``,
        ``sqlite:file.db``, a service URL; a bare path is a JSONL
        directory) — see :func:`~repro.scenarios.store.open_store`.  ``None`` (default) runs
        everything in memory — no persistence, no cache hits.
    workers:
        Worker processes for fan-out (``1`` = serial in-process, ``0``/
        ``None`` = one per CPU).  Seeds travel with the scenarios, so the
        worker count never changes the results.
    """

    def __init__(
        self,
        store_dir: str | Path | StoreBackend | None = None,
        workers: int | None = 1,
    ) -> None:
        self.store = open_store(store_dir) if store_dir is not None else None
        self.workers = workers
        # Serialises this session's store access so one Session instance can
        # be shared by concurrent callers (e.g. service worker threads).
        self._store_lock = threading.Lock()

    # ----------------------------------------------------------------- public
    def run(self, scenario: Scenario, progress: SessionProgress | None = None) -> ResultSet:
        """Run one scenario (serving completed replications from the store)."""
        return self.run_all([scenario], progress=progress)[0]

    def cached_count(self, scenario: Scenario) -> int:
        """How many of the scenario's replications this session would serve
        from its store without simulating (0 for store-less sessions).

        A scenario is fully cached — ``cached_count(s) == s.replications`` —
        exactly when :meth:`run` would report ``new_runs == 0``.  It reads
        the cell as :meth:`run_cached` does, one ``load`` under the reuse
        rule; the service reports it when ``GET /results/<hash>`` finds a
        cell incomplete.
        """
        return len(self._usable_cached(scenario))

    def is_cached(self, scenario: Scenario) -> bool:
        """Whether :meth:`run` would perform zero new simulations."""
        return self.cached_count(scenario) == scenario.replications

    def run_cached(self, scenario: Scenario) -> ResultSet | None:
        """Serve a scenario entirely from the store, or ``None`` on any miss.

        One store read, hit or miss: the ``load`` the answer is made of,
        under the reuse rule — unlike ``is_cached(s) and run(s)``, which
        reads the cell three times.  The reuse key comes from the scenario, which
        decided its engine when it was built, so nothing is built here.
        This is the service's cached fast path: a repeat submission costs
        zero simulations.
        """
        if self.store is None:
            return None
        usable = self._usable_cached(scenario)
        if len(usable) != scenario.replications:
            _M_CACHE_MISS.inc()
            return None
        _M_CACHE_HIT.inc()
        _M_REPL_CACHED.inc(len(usable))
        ordered = [usable[replication] for replication in range(scenario.replications)]
        return ResultSet(
            scenario=scenario,
            scenario_hash=scenario.content_hash(),
            results=tuple(run.result for run in ordered),
            seeds=tuple(scenario.seeds()),
            new_runs=0,
            cached_runs=len(ordered),
            elapsed_seconds=sum(run.elapsed_seconds for run in ordered),
        )

    def ingest(self, scenario: Scenario, runs: Sequence[StoredRun]) -> int:
        """Merge externally produced replications into this session's store.

        The federation receive path (``POST /results/<hash>`` and
        ``repro store migrate``): replications whose index is already on
        record are ignored — existing results are never overwritten — and
        runs whose seed disagrees with the scenario's derivation are dropped,
        so a misbehaving peer cannot poison the store.  ``runs`` give each
        replication once (:func:`~repro.service.wire.parse_results_body`
        refuses a body that repeats one).  Returns how many replications
        were actually added; idempotent.
        """
        if self.store is None:
            raise ValueError("session has no store to ingest into")
        valid = seed_checked(scenario, {run.replication: run for run in runs})
        with self._store_lock:
            existing = self.store.load(scenario)
            missing = [
                run for replication, run in sorted(valid.items()) if replication not in existing
            ]
            if missing:
                self.store.append(scenario, missing)
        return len(missing)

    def run_all(
        self,
        scenarios: Sequence[Scenario],
        progress: SessionProgress | None = None,
    ) -> list[ResultSet]:
        """Run many scenarios as one fan-out; returns result sets in order.

        This is the sweep primitive: all missing replications across all
        scenarios are planned up front and executed through a single
        :class:`ParallelExecutor`, so cells fill every worker regardless of
        which scenario they belong to.
        """
        if not scenarios:
            return []
        with span("session.plan", scenarios=len(scenarios)) as plan_span:
            all_seeds = [scenario.seeds() for scenario in scenarios]
            # One batched cache probe for the whole grid (a single backend
            # query on indexed stores), then full result loads only for the
            # cells the counts say can actually serve: a cell with zero runs
            # on record — the entire grid on a cold store — never touches
            # the store again.
            if self.store is not None:
                with self._store_lock:
                    counts = self.store.cached_counts(scenarios)
            else:
                counts = [0] * len(scenarios)
            cached = [
                self._usable_cached(scenario) if count > 0 else {}
                for scenario, count in zip(scenarios, counts)
            ]

            units: list[SimulationUnit] = []
            done_count = [0] * len(scenarios)
            for index, scenario in enumerate(scenarios):
                missing = [
                    replication
                    for replication in range(scenario.replications)
                    if replication not in cached[index]
                ]
                done_count[index] = scenario.replications - len(missing)
                if progress is not None:
                    for step in range(done_count[index]):
                        progress(index, scenario, step + 1, scenario.replications)
                if not missing:
                    continue
                # Built once per cell: its units share one protocol
                # instance, and so one windowed schedule.
                protocol = scenario.build_protocol()
                arrivals = scenario.build_arrivals()
                channel = scenario.build_channel()
                units.extend(
                    SimulationUnit(
                        protocol=protocol,
                        k=scenario.k,
                        seed=all_seeds[index][replication],
                        engine=scenario.engine,
                        max_slots=scenario.max_slots(),
                        arrivals=arrivals,
                        channel=channel,
                        tag=(index, replication),
                    )
                    for replication in missing
                )
            plan_span["units"] = len(units)
            plan_span["cached_replications"] = sum(done_count)
        _M_REPL_CACHED.inc(sum(done_count))

        # Replications are persisted as they complete, a batch at a time
        # (not after the whole fan-out), so a sweep killed mid-run keeps every
        # finished batch on record and the next invocation resumes from there.
        fresh: list[dict[int, StoredRun]] = [{} for _ in scenarios]

        def record(batch: list[UnitOutcome]) -> None:
            by_cell: dict[int, list[StoredRun]] = {}
            for outcome in batch:
                index, replication = outcome.tag
                run = StoredRun(
                    replication=replication,
                    seed=outcome.result.seed,
                    elapsed_seconds=outcome.elapsed_seconds,
                    result=outcome.result,
                )
                fresh[index][replication] = run
                by_cell.setdefault(index, []).append(run)
            _M_REPL_FRESH.inc(len(batch))
            if self.store is not None:
                for index, runs in by_cell.items():
                    with span("store.append", runs=len(runs)), self._store_lock:
                        self.store.append(scenarios[index], runs)
            if progress is not None:
                for outcome in batch:
                    index = outcome.tag[0]
                    done_count[index] += 1
                    progress(
                        index, scenarios[index], done_count[index], scenarios[index].replications
                    )

        ParallelExecutor(workers=self.workers).run(units, progress=record)

        result_sets = []
        for index, scenario in enumerate(scenarios):
            runs = {**cached[index], **fresh[index]}
            ordered = [runs[replication] for replication in range(scenario.replications)]
            result_sets.append(
                ResultSet(
                    scenario=scenario,
                    scenario_hash=scenario.content_hash(),
                    results=tuple(run.result for run in ordered),
                    seeds=tuple(all_seeds[index]),
                    new_runs=len(fresh[index]),
                    cached_runs=len(cached[index]),
                    elapsed_seconds=sum(run.elapsed_seconds for run in ordered),
                )
            )
        return result_sets

    # ---------------------------------------------------------------- reuse
    def _usable_cached(self, scenario: Scenario) -> dict[int, StoredRun]:
        """The stored replications this session may serve for ``scenario``:
        one ``load`` (which drops runs whose seed is not their derived
        seed), under the reuse rule.

        The reuse rule keeps the runs below the scenario's count sampled
        by the engine the scenario decided and that engine's stream
        version; a run from another engine or an older stream is
        recomputed once rather than mixed into one result set.  Every
        replication is its own stream, so any prefix of the cell can be
        reused.
        """
        if self.store is None:
            return {}
        with self._store_lock:
            stored = self.store.load(scenario)
        engine = scenario.engine_name
        version = ENGINES[engine].stream_version
        return {
            replication: run
            for replication, run in stored.items()
            if replication < scenario.replications
            and run.result.engine == engine
            and stream_version_of(run.result) == version
        }
