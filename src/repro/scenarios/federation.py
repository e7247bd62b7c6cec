"""Cross-store federation: exchange completed replications by content hash.

Stores — any :class:`~repro.scenarios.store.StoreBackend`, local or behind a
running simulation service — hold the same logical objects: per-scenario
cells of completed replications keyed by :meth:`Scenario.content_hash`.
Because seeds are prefix-stable, merging two cells of the *same* hash can
never conflict: replication ``i`` has exactly one valid seed, so a per-hash
merge is a plain seed-set union and :func:`sync` only has to copy the
replication indices the destination is missing.

Three shapes of endpoint, freely mixable as source or destination::

    sync("results/a", "sqlite:results/b.db")          # disk -> disk
    sync("sqlite:lab.db", "http://10.0.0.5:8765")     # disk -> running server
    sync("http://10.0.0.5:8765", "results/mirror")    # running server -> disk

Every endpoint goes through :func:`repro.scenarios.store.open_store`, where
an ``http://``/``https://`` URL becomes a :class:`RemoteStore` speaking the
service wire protocol — reads via ``GET /store`` + ``GET /results/<hash>``,
writes via the ``POST /results/<hash>`` ingest endpoint.  A scenario
simulated on any machine thereby becomes cached everywhere: after a sync,
the receiving side serves it with **zero** new simulations.  A URL works
wherever a store is named (``repro run --store``, ``repro store``), not
only here.

``repro store migrate <src> <dst>`` is a thin CLI veneer over :func:`sync`.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.engine.result import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.reliability import RetryPolicy
from repro.scenarios.scenario import Scenario
from repro.scenarios.store import (
    CompactionReport,
    RunMeta,
    StoreBackend,
    StoredRun,
    StoreRecord,
    open_store,
    seed_checked,
    stream_version_of,
)

__all__ = ["RemoteStore", "SyncReport", "sync"]


@dataclass(frozen=True)
class SyncReport:
    """What one :func:`sync` call moved from source to destination.

    ``scenarios_failed``/``failures`` record per-scenario copy failures that
    survived the retry policy — the rest of the sync still completed, and
    because :func:`sync` is idempotent, re-running it resumes with exactly
    the failed cells (everything already copied diffs to nothing).
    """

    source: str
    destination: str
    scenarios_examined: int = 0
    scenarios_copied: int = 0
    replications_copied: int = 0
    scenarios_failed: int = 0
    failures: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "destination": self.destination,
            "scenarios_examined": self.scenarios_examined,
            "scenarios_copied": self.scenarios_copied,
            "replications_copied": self.replications_copied,
            "scenarios_failed": self.scenarios_failed,
            "failures": list(self.failures),
        }


class RemoteStore(StoreBackend):
    """A running simulation service viewed through the store contract.

    Reads ride the existing service endpoints (``GET /store`` for the
    listing, ``GET /results/<hash>`` for a cell's completed replications —
    an *incomplete* cell reads as empty, since the service only serves fully
    cached scenarios), and :meth:`append`/:meth:`push` ride ``POST
    /results/<hash>``, where the server diffs against its own store so a
    push is idempotent and never overwrites existing replications.

    Locking is the server's problem (its session serialises store access);
    this class is a stateless wire adapter and is itself thread-safe.
    """

    name = "remote"

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        from repro.service.client import ServiceClient  # lazy: avoid an import cycle

        self.base_url = base_url.rstrip("/")
        self.client = ServiceClient(self.base_url, timeout=timeout)

    def describe(self) -> str:
        return self.base_url

    # -------------------------------------------------------------- reading
    def summaries(self) -> list[StoreRecord]:
        """The server's own listing: one ``GET /store``, incomplete cells too."""
        records = []
        for record in self.client.store_records():
            try:
                scenario = Scenario.parse(str(record["scenario"]))
                records.append(
                    StoreRecord(
                        scenario=scenario,
                        hash=scenario.content_hash(),
                        replications_on_record=int(record["replications_on_record"]),
                        solved_runs=int(record["solved_runs"]),
                    )
                )
            except (KeyError, TypeError, ValueError):  # SpecError is a ValueError
                continue
        return records

    def scenarios_on_record(self) -> list[Scenario]:
        return [record.scenario for record in self.summaries()]

    def scenario_for_hash(self, content_hash: str) -> Scenario | None:
        for scenario in self.scenarios_on_record():
            if scenario.content_hash() == content_hash:
                return scenario
        return None

    def load(self, scenario: Scenario) -> dict[int, StoredRun]:
        from repro.service.client import ServiceError  # lazy: avoid an import cycle

        try:
            payload = self.client.result(scenario.content_hash())
        except ServiceError:
            return {}  # unknown or incomplete on the server: nothing to copy
        results = payload.get("results", [])
        elapsed_total = float(payload.get("elapsed_seconds", 0.0) or 0.0)
        per_run_elapsed = elapsed_total / max(len(results), 1)
        runs: dict[int, StoredRun] = {}
        for replication, result_dict in enumerate(results):
            try:
                result = SimulationResult.from_dict(result_dict)
            except (KeyError, TypeError, ValueError):
                continue
            runs[replication] = StoredRun(
                replication=replication,
                seed=result.seed,
                elapsed_seconds=per_run_elapsed,
                result=result,
            )
        return seed_checked(scenario, runs)

    def run_index(self, scenario: Scenario) -> dict[int, RunMeta]:
        return {
            replication: RunMeta(
                replication=replication,
                seed=run.seed,
                engine=run.result.engine,
                stream_version=stream_version_of(run.result),
            )
            for replication, run in self.load(scenario).items()
        }

    # -------------------------------------------------------------- writing
    def append(self, scenario: Scenario, runs: Sequence[StoredRun]) -> None:
        self.push(scenario, runs)

    def push(self, scenario: Scenario, runs: Sequence[StoredRun]) -> int:
        """Offer replications to the server; returns how many it was missing."""
        if not runs:
            return 0
        payload = self.client.push_runs(scenario, runs)
        return int(payload.get("added", 0))  # type: ignore[arg-type]

    def compact(self) -> CompactionReport:
        """Remote stores compact on their own machine; a no-op here."""
        return CompactionReport()


def _copy_scenario(
    scenario: Scenario, src: StoreBackend, dst: StoreBackend
) -> int:
    """Copy one cell's missing replications; returns how many moved."""
    src_runs = src.load(scenario)
    if not src_runs:
        return 0
    if isinstance(dst, RemoteStore):
        # The server diffs against its own store and reports what it
        # actually added — no read-modify-write race over the wire.
        return dst.push(scenario, [run for _, run in sorted(src_runs.items())])
    existing = set(dst.load(scenario))
    missing = [
        run for replication, run in sorted(src_runs.items())
        if replication not in existing
    ]
    if missing:
        dst.append(scenario, missing)
    return len(missing)


def sync(
    source: str | Path | StoreBackend,
    destination: str | Path | StoreBackend,
    *,
    retry: "RetryPolicy | None" = None,
    sleep: "Callable[[float], None]" = time.sleep,
) -> SyncReport:
    """Copy every replication ``destination`` is missing from ``source``.

    Diffs by content hash, then per hash by replication index (seed-set
    union — prefix-stable seeds make this conflict-free).  Existing
    destination replications are never overwritten, so the call is
    idempotent: a second sync copies nothing.  Source cells that read as
    empty (e.g. an incomplete cell on a remote server) are skipped.

    Fault tolerance: each cell copies independently under ``retry`` (a
    :class:`~repro.service.reliability.RetryPolicy`, or ``None`` for single
    attempts).  A cell that still fails is *recorded* in the report
    (``scenarios_failed``/``failures``) rather than aborting the sync —
    idempotence makes the recovery story "run it again": already-copied
    cells diff to nothing, so the retry resumes with exactly the failures.

    A store opened here from a spec string or a path is closed before the
    call returns; a built store the caller passed in stays open.
    """
    with ExitStack() as opened:
        src, dst = (_open(target, opened) for target in (source, destination))
        examined = copied_scenarios = copied_replications = 0
        failures: list[str] = []
        for scenario in src.scenarios_on_record():
            examined += 1
            copy = lambda: _copy_scenario(scenario, src, dst)  # noqa: E731
            try:
                if retry is not None:
                    added = retry.call(copy, sleep=sleep)
                else:
                    added = copy()
            except Exception:  # noqa: BLE001 - record and continue with the rest
                failures.append(scenario.content_hash())
                continue
            if added:
                copied_scenarios += 1
                copied_replications += added
        return SyncReport(
            source=src.describe(),
            destination=dst.describe(),
            scenarios_examined=examined,
            scenarios_copied=copied_scenarios,
            replications_copied=copied_replications,
            scenarios_failed=len(failures),
            failures=tuple(failures),
        )


def _open(target: str | Path | StoreBackend, opened: ExitStack) -> StoreBackend:
    """``open_store(target)``, closed with ``opened`` unless the caller built it."""
    store = open_store(target)
    if store is not target:
        opened.callback(store.close)
    return store
