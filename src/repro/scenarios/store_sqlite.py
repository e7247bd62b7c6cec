"""Indexed SQLite result-store backend (``sqlite:path.db``).

One database file holds every scenario cell: a ``scenarios`` table carrying
the self-describing header plus maintained run counters, and a ``runs`` table
with one row per replication keyed ``(hash, replication)``.  Compared to the
JSONL backend this buys:

* **O(1) ``cached_count``** — the append transaction maintains ``run_count``
  and ``max_replication`` per scenario, so a sweep's grid probe
  (``cached_counts``) is one query over primary-key rows instead of a
  result-tail read per cell.
* **WAL-mode concurrent appends** — writers from any number of threads *and
  processes* serialise on SQLite's own locking (``BEGIN IMMEDIATE`` with a
  generous busy timeout); readers never block behind them.
* **Compaction and eviction** — :meth:`SqliteStore.compact` checkpoints the
  WAL and vacuums; optional ``ttl`` / ``max_rows`` spec options
  (``sqlite:store.db?ttl=86400&max_rows=100000``) evict stale cells inside
  every append transaction, bounding an always-on server's store.

Durability/consistency notes: every append is one transaction, so a killed
process loses at most its uncommitted batch — never a torn record.  The
recorded ``scenario_json`` of a cell is first-writer-wins (matching the JSONL
header), while run rows are last-writer-wins (``INSERT OR REPLACE``),
matching JSONL's last-line-wins reads.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from collections.abc import Sequence
from pathlib import Path

from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.scenarios.scenario import Scenario
from repro.scenarios.store import (
    _HASH_RE,
    _M_APPEND,
    _M_PROBE,
    CompactionReport,
    RunMeta,
    StoreBackend,
    StoredRun,
    seed_checked,
    stream_version_of,
)

__all__ = ["SqliteStore"]

_M_EVICTIONS = REGISTRY.counter(
    "repro_store_evictions_total",
    "Run rows evicted by retention policies, by backend.",
    ("backend",),
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS scenarios (
    hash            TEXT PRIMARY KEY,
    scenario_json   TEXT NOT NULL,
    run_count       INTEGER NOT NULL DEFAULT 0,
    max_replication INTEGER NOT NULL DEFAULT -1,
    updated_at      REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    hash            TEXT NOT NULL,
    replication     INTEGER NOT NULL,
    seed            INTEGER NOT NULL,
    engine          TEXT NOT NULL,
    stream_version  INTEGER NOT NULL DEFAULT 1,
    solved          INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    result_json     TEXT NOT NULL,
    created_at      REAL NOT NULL,
    PRIMARY KEY (hash, replication)
);
CREATE INDEX IF NOT EXISTS runs_created_at ON runs (created_at);
"""

#: How long a writer waits on a competing transaction before failing loudly.
_BUSY_TIMEOUT_MS = 30_000


class SqliteStore(StoreBackend):
    """WAL-mode SQLite store with maintained per-scenario run counters.

    Parameters
    ----------
    path:
        Database file; parent directories are created.  One file per store.
    ttl:
        Optional: evict runs older than this many seconds (other scenarios'
        runs — the cell being appended is never aged out from under its own
        writer).  Applied during appends and :meth:`compact`.
    max_rows:
        Optional: after TTL eviction, whole least-recently-updated scenario
        cells are dropped (never the one being appended) until at most this
        many run rows remain.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str | Path,
        *,
        ttl: float | None = None,
        max_rows: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.ttl = ttl
        self.max_rows = max_rows
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        # Create the schema eagerly (failing early on a bad path) and bring a
        # file written by an older version up to date.
        self._migrate(self._connection())

    @classmethod
    def from_spec(cls, location: str) -> "SqliteStore":
        """Parse ``path.db`` or ``path.db?ttl=<seconds>&max_rows=<n>``."""
        path, _, query = location.partition("?")
        options: dict[str, str] = {}
        if query:
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                options[key] = value
        unknown = set(options) - {"ttl", "max_rows"}
        if unknown:
            raise ValueError(f"unknown sqlite store option(s): {', '.join(sorted(unknown))}")
        try:
            ttl = float(options["ttl"]) if "ttl" in options else None
            max_rows = int(options["max_rows"]) if "max_rows" in options else None
        except ValueError as error:
            raise ValueError(f"bad sqlite store option value: {error}") from error
        return cls(path, ttl=ttl, max_rows=max_rows)

    def describe(self) -> str:
        options = []
        if self.ttl is not None:
            options.append(f"ttl={self.ttl:g}")
        if self.max_rows is not None:
            options.append(f"max_rows={self.max_rows}")
        suffix = f"?{'&'.join(options)}" if options else ""
        return f"{self.name}:{self.path}{suffix}"

    def sidecar(self, name: str) -> Path:
        return self.path.with_name(f"{self.path.name}.{name}")

    # ---------------------------------------------------------- connections
    def _connection(self) -> sqlite3.Connection:
        """This thread's connection (WAL journalling, autocommit mode).

        ``isolation_level=None`` leaves transaction control to explicit
        ``BEGIN IMMEDIATE``/``COMMIT`` statements; sharing one connection per
        thread keeps SQLite's locking semantics simple and predictable.
        """
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        connection = sqlite3.connect(
            self.path, timeout=_BUSY_TIMEOUT_MS / 1000, isolation_level=None,
            check_same_thread=False,
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        connection.executescript(_SCHEMA)
        self._local.connection = connection
        with self._connections_lock:
            self._connections.append(connection)
        return connection

    @staticmethod
    def _migrate(connection: sqlite3.Connection) -> None:
        """Add the ``stream_version`` column to a file created without it.

        The column is added in place (existing rows get version 1, the
        version every such run was sampled under), so the file is never
        rewritten.  The check repeats inside the write transaction because
        another process may migrate concurrently.
        """

        def has_column() -> bool:
            columns = connection.execute("PRAGMA table_info(runs)").fetchall()
            return any(column[1] == "stream_version" for column in columns)

        if has_column():
            return
        connection.execute("BEGIN IMMEDIATE")
        try:
            if not has_column():
                connection.execute(
                    "ALTER TABLE runs ADD COLUMN stream_version INTEGER NOT NULL DEFAULT 1"
                )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    def close(self) -> None:
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        self._local = threading.local()

    # -------------------------------------------------------------- reading
    def load(self, scenario: Scenario) -> dict[int, StoredRun]:
        started = time.monotonic()
        try:
            rows = self._connection().execute(
                "SELECT replication, seed, elapsed_seconds, result_json"
                " FROM runs WHERE hash = ?",
                (scenario.content_hash(),),
            ).fetchall()
            runs: dict[int, StoredRun] = {}
            for replication, seed, elapsed_seconds, result_json in rows:
                try:
                    result = SimulationResult.from_dict(json.loads(result_json))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue  # corrupt row: skip, never raise
                runs[replication] = StoredRun(
                    replication=replication,
                    seed=seed,
                    elapsed_seconds=elapsed_seconds,
                    result=result,
                )
            return seed_checked(scenario, runs)
        finally:
            _M_PROBE.labels(backend=self.name).observe(time.monotonic() - started)

    def run_index(self, scenario: Scenario) -> dict[int, RunMeta]:
        rows = self._connection().execute(
            "SELECT replication, seed, engine, stream_version FROM runs WHERE hash = ?",
            (scenario.content_hash(),),
        ).fetchall()
        return {
            replication: RunMeta(
                replication=replication, seed=seed, engine=engine, stream_version=stream_version
            )
            for replication, seed, engine, stream_version in rows
        }

    def cached_count(self, scenario: Scenario) -> int:
        """O(1) probe from the maintained counters (no result rows read).

        When everything on record sits below the requested replication count
        the answer is the stored ``run_count`` — one primary-key fetch
        regardless of how many replications the cell holds.  Only a cell
        *larger* than the request falls back to a primary-key range count
        bounded by the request size.  Unlike the generic implementation this
        probe does not re-derive seeds, so a hand-corrupted row may be
        over-counted; ``load`` remains the authority on servable runs.
        """
        return self.cached_counts([scenario])[0]

    def cached_counts(self, scenarios: Sequence[Scenario]) -> list[int]:
        """One ``WHERE hash IN (...)`` query for a whole grid of cells: the
        grid probe of :meth:`Session.run_all
        <repro.scenarios.session.Session.run_all>`.

        Same over-counting caveat as :meth:`cached_count`; only cells whose
        record holds *more* replications than requested fall back to the
        per-cell range count (rare: it means the store was written by a
        larger sweep than the one probing).
        """
        if not scenarios:
            return []
        hashes = [scenario.content_hash() for scenario in scenarios]
        placeholders = ",".join("?" * len(set(hashes)))
        rows = self._connection().execute(
            f"SELECT hash, run_count, max_replication FROM scenarios "
            f"WHERE hash IN ({placeholders})",
            sorted(set(hashes)),
        ).fetchall()
        on_record = {row[0]: (row[1], row[2]) for row in rows}
        counts = []
        for scenario, content_hash in zip(scenarios, hashes):
            row = on_record.get(content_hash)
            if row is None:
                counts.append(0)
                continue
            run_count, max_replication = row
            if max_replication < scenario.replications:
                counts.append(run_count)
                continue
            counts.append(
                self._connection().execute(
                    "SELECT COUNT(*) FROM runs WHERE hash = ? AND replication < ?",
                    (content_hash, scenario.replications),
                ).fetchone()[0]
            )
        return counts

    def scenarios_on_record(self) -> list[Scenario]:
        rows = self._connection().execute(
            "SELECT scenario_json FROM scenarios ORDER BY hash"
        ).fetchall()
        scenarios = []
        for (scenario_json,) in rows:
            scenario = _parse_scenario(scenario_json)
            if scenario is not None:
                scenarios.append(scenario)
        return scenarios

    def scenario_for_hash(self, content_hash: str) -> Scenario | None:
        if not _HASH_RE.fullmatch(content_hash):
            return None
        row = self._connection().execute(
            "SELECT scenario_json FROM scenarios WHERE hash = ?", (content_hash,)
        ).fetchone()
        if row is None:
            return None
        return _parse_scenario(row[0])

    # -------------------------------------------------------------- writing
    def append(self, scenario: Scenario, runs: Sequence[StoredRun]) -> None:
        """One ``BEGIN IMMEDIATE`` transaction: rows, counters, eviction."""
        if not runs:
            return
        started = time.monotonic()
        content_hash = scenario.content_hash()
        now = time.time()  # repro: noqa[CLK001] - persisted updated_at metadata
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.execute(
                "INSERT INTO scenarios (hash, scenario_json, updated_at) VALUES (?, ?, ?)"
                " ON CONFLICT (hash) DO UPDATE SET updated_at = excluded.updated_at",
                (content_hash, json.dumps(scenario.to_dict(), sort_keys=True), now),
            )
            connection.executemany(
                "INSERT OR REPLACE INTO runs"
                " (hash, replication, seed, engine, stream_version, solved,"
                "  elapsed_seconds, result_json, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        content_hash,
                        run.replication,
                        run.seed,
                        run.result.engine,
                        stream_version_of(run.result),
                        1 if run.result.solved else 0,
                        run.elapsed_seconds,
                        json.dumps(run.result.to_dict(), sort_keys=True),
                        now,
                    )
                    for run in runs
                ],
            )
            self._refresh_counters(connection, content_hash, now)
            self._evict_locked(connection, protect_hash=content_hash, now=now)
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        _M_APPEND.labels(backend=self.name).observe(time.monotonic() - started)

    @staticmethod
    def _refresh_counters(
        connection: sqlite3.Connection, content_hash: str, now: float
    ) -> None:
        connection.execute(
            "UPDATE scenarios SET"
            " run_count = (SELECT COUNT(*) FROM runs WHERE hash = ?),"
            " max_replication ="
            "   (SELECT COALESCE(MAX(replication), -1) FROM runs WHERE hash = ?),"
            " updated_at = ?"
            " WHERE hash = ?",
            (content_hash, content_hash, now, content_hash),
        )

    def _evict_locked(
        self, connection: sqlite3.Connection, *, protect_hash: str | None, now: float
    ) -> int:
        """TTL then max-rows eviction inside the caller's open transaction."""
        evicted = 0
        if self.ttl is not None:
            touched = [
                row[0]
                for row in connection.execute(
                    "SELECT DISTINCT hash FROM runs"
                    " WHERE created_at < ? AND hash IS NOT ?",
                    (now - self.ttl, protect_hash),
                )
            ]
            if touched:
                cursor = connection.execute(
                    "DELETE FROM runs WHERE created_at < ? AND hash IS NOT ?",
                    (now - self.ttl, protect_hash),
                )
                evicted += cursor.rowcount
                for content_hash in touched:
                    self._refresh_counters(connection, content_hash, now)
        if self.max_rows is not None:
            while True:
                total = connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
                if total <= self.max_rows:
                    break
                victim = connection.execute(
                    "SELECT hash FROM scenarios WHERE hash IS NOT ? AND run_count > 0"
                    " ORDER BY updated_at ASC LIMIT 1",
                    (protect_hash,),
                ).fetchone()
                if victim is None:
                    break  # only the protected cell remains: never self-evict
                cursor = connection.execute("DELETE FROM runs WHERE hash = ?", (victim[0],))
                evicted += cursor.rowcount
                self._refresh_counters(connection, victim[0], now)
        connection.execute("DELETE FROM scenarios WHERE run_count = 0")
        if evicted:
            _M_EVICTIONS.labels(backend=self.name).inc(evicted)
        return evicted

    # ----------------------------------------------------------- janitorial
    def compact(self) -> CompactionReport:
        """Evict per policy, checkpoint the WAL, and vacuum the database."""
        connection = self._connection()
        now = time.time()  # repro: noqa[CLK001] - TTL eviction compares persisted wall-clock stamps
        connection.execute("BEGIN IMMEDIATE")
        try:
            scenarios = connection.execute("SELECT COUNT(*) FROM scenarios").fetchone()[0]
            evicted = self._evict_locked(connection, protect_hash=None, now=now)
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        connection.execute("VACUUM")
        return CompactionReport(scenarios=scenarios, runs_evicted=evicted)


def _parse_scenario(scenario_json: str) -> Scenario | None:
    try:
        return Scenario.from_dict(json.loads(scenario_json))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None
