"""Pluggable result-store backends: the persistence layer behind Sessions.

Every execution layer in this repository — :class:`~repro.scenarios.session.
Session` resume, the simulation service's dedup and cached fast path, the
sweep runners — persists completed replications through ONE storage contract,
:class:`StoreBackend`, keyed by :meth:`Scenario.content_hash`.  Two backends
ship with the library:

* :class:`JsonlStore` (``jsonl:``, the default) — one self-describing JSONL
  file per scenario hash under a root directory.  Human-greppable,
  append-only, interruption-safe by construction.
* :class:`~repro.scenarios.store_sqlite.SqliteStore` (``sqlite:``) — one
  indexed SQLite database in WAL mode.  O(1) ``cached_count`` without
  reading a result tail, compaction, and optional TTL / max-row eviction
  for always-on servers.

This module is the only reader of store specs.  One closed grammar is
consumed by ``Session(store_dir=…)``, ``repro run/figure1/table1 --store``,
``repro serve --store``, ``repro store`` and federation sync::

    results/store                  # bare path: JSONL directory (default)
    jsonl:results/store            # explicit JSONL directory
    sqlite:results/store.db        # SQLite database file
    sqlite:store.db?ttl=86400&max_rows=100000   # with eviction options
    chaos:jsonl:results/store?seed=7&append_fail=0.3   # fault injection
    http://127.0.0.1:8765          # a running service (RemoteStore)

:func:`open_store` states the whole rule and :func:`store_path` names the
local file or directory a spec opens, without creating it.  A backend
outside the grammar is passed wherever a store is accepted as a built
instance.  Cross-store exchange of results by content hash — disk↔disk and
over HTTP against a running service — lives in
:mod:`repro.scenarios.federation`.

Storage contract
----------------
The unit of storage is one *scenario cell* (a content hash) holding a set of
:class:`StoredRun` replications.  The hash excludes the replication count —
seeds are prefix-stable — so raising ``replications`` later extends the same
cell instead of starting a new one.  ``load`` must tolerate corrupt or
foreign records (skip them, never raise): a torn JSONL tail, a hand-edited
seed, or a bogus row must degrade to "that replication is missing", not
poison a resumed sweep.

Locking contract
----------------
:meth:`StoreBackend.append` MUST be safe under concurrent writers — several
threads of one process and several processes sharing the store — such that
readers never observe torn records and the per-cell header/metadata is
written exactly once.  How that is achieved is the backend's business:

* :class:`JsonlStore` takes an ``fcntl``-based advisory lock on the cell
  file itself (``<content-hash>.jsonl``) around the whole
  read-tail/heal/header/write critical section; ``flock`` attaches to the
  open file description, so two server worker threads serialise exactly like
  two processes.  After each lock it checks that the file it locked is still
  the one at the path (``st_nlink``) and otherwise opens the path anew:
  compaction holds the old cell's lock while it renames the new cell over
  the path, so a writer that was waiting locks the new cell.  It keeps the
  descriptors of the cells it appended to last open between appends, and
  opens them anew in a forked child and wherever a file it holds was
  unlinked, so it always locks and writes the file at the path.  On
  platforms without ``fcntl`` (Windows) it degrades to an in-process
  :class:`threading.Lock`, which still serialises all writers within one
  interpreter (the simulation service's deployment shape), and opens the
  cell for every append.  Earlier versions locked a sidecar
  (``<content-hash>.jsonl.lock``) instead, so they and this version exclude
  each other from nothing: one store must not take appends from both at
  once.  Such sidecars are janitorial litter, not data: they are excluded
  from every listing and removed by :meth:`JsonlStore.compact` (and by
  ``repro store migrate``).
* ``SqliteStore`` relies on SQLite's own WAL-mode locking with a generous
  busy timeout; every append is one ``BEGIN IMMEDIATE`` transaction.

``load``/``cached_count``/``run_index`` MAY be served from caches, but must
never return results a concurrent committed append has superseded forever:
:class:`JsonlStore` invalidates its per-hash parse cache on any
mtime/size change, so an external append is observed on the next read.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]

from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.scenarios.scenario import Scenario
from repro.util.jsonl import append_lines

__all__ = [
    "StoredRun",
    "StoreRecord",
    "RunMeta",
    "CompactionReport",
    "StoreBackend",
    "JsonlStore",
    "STORE_SCHEMES",
    "open_store",
    "parse_store_spec",
    "seed_checked",
    "store_path",
    "stream_version_of",
]

#: Shape of :meth:`Scenario.content_hash` digests (16 lowercase hex digits).
_HASH_RE = re.compile(r"[0-9a-f]{16}")

#: Parsed JSONL cells kept per :class:`JsonlStore` instance (LRU, by hash).
_JSONL_CACHE_ENTRIES = 128

#: Cells whose descriptors a :class:`JsonlStore` keeps open between appends
#: (LRU, by hash): one each, the cell's, which is also what it locks.
_OPEN_CELLS = 32

# Store-layer metric families, shared by every backend and labelled by its
# name so JSONL and SQLite latencies land side by side in one scrape.
_M_APPEND = REGISTRY.histogram(
    "repro_store_append_seconds", "Store append latency, by backend.", ("backend",)
)
_M_PROBE = REGISTRY.histogram(
    "repro_store_probe_seconds",
    "Cell read (load) latency, by backend: the read that answers a cache probe.",
    ("backend",),
)


@dataclass(frozen=True)
class StoredRun:
    """One persisted replication of a scenario."""

    replication: int
    seed: int
    elapsed_seconds: float
    result: SimulationResult


@dataclass(frozen=True)
class RunMeta:
    """Index entry for one stored replication: everything a cache probe needs.

    Carries the fields a cached run is reused by (seed, producing engine,
    its stream version) *without* the full :class:`SimulationResult`, so
    indexed backends can answer ``cached_count`` probes without
    deserialising result payloads.
    """

    replication: int
    seed: int
    engine: str
    stream_version: int


_Run = TypeVar("_Run", StoredRun, RunMeta)


def seed_checked(scenario: Scenario, runs: Mapping[int, _Run]) -> dict[int, _Run]:
    """The ``runs`` (by replication) whose seed is the derived seed of their
    replication; a replication beyond ``scenario.replications`` is kept
    unchecked, and a negative one, which has no derived seed, is dropped.

    The one seed check: every ``load``, the generic :meth:`StoreBackend.
    cached_count` and federation ingest apply it (the session's reuse rule
    reads runs through ``load``), so a hand-edited or foreign seed reads as
    a missing replication.
    """
    expected = scenario.seeds()
    count = len(expected)
    return {
        replication: run
        for replication, run in runs.items()
        if replication >= count or (replication >= 0 and run.seed == expected[replication])
    }


@dataclass(frozen=True)
class StoreRecord:
    """Summary of one scenario cell on record (the ``repro store`` listing)."""

    scenario: Scenario
    hash: str
    replications_on_record: int
    solved_runs: int

    @property
    def solved_fraction(self) -> float:
        if self.replications_on_record == 0:
            return 0.0
        return self.solved_runs / self.replications_on_record

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario.format(),
            "hash": self.hash,
            "replications_on_record": self.replications_on_record,
            "requested_replications": self.scenario.replications,
            "solved_runs": self.solved_runs,
            "solved_fraction": self.solved_fraction,
        }


@dataclass(frozen=True)
class CompactionReport:
    """What :meth:`StoreBackend.compact` reclaimed."""

    scenarios: int = 0
    records_dropped: int = 0
    lock_files_removed: int = 0
    runs_evicted: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "scenarios": self.scenarios,
            "records_dropped": self.records_dropped,
            "lock_files_removed": self.lock_files_removed,
            "runs_evicted": self.runs_evicted,
        }


class StoreBackend(ABC):
    """Abstract result store: per-scenario-hash sets of completed replications.

    See the module docstring for the storage and locking contracts.  All
    methods must be callable from any thread; ``append`` must additionally be
    safe under concurrent writers (threads, and OS processes for backends that
    lock across them).
    """

    #: Spec-grammar scheme (``name:location``) and ``backend`` metrics label.
    name: str = ""

    # ------------------------------------------------------------- required
    @abstractmethod
    def load(self, scenario: Scenario) -> dict[int, StoredRun]:
        """Completed replications on record for ``scenario``, by index.

        Replications whose recorded seed disagrees with the scenario's seed
        derivation are ignored (treated as missing, by :func:`seed_checked`)
        — that cannot happen through this store's own writes, but it keeps a
        hand-edited or corrupted cell from silently poisoning a resumed
        sweep.  Corrupt records are skipped, never raised.  A backend times
        it in ``repro_store_probe_seconds``: it is the read that answers a
        cache probe.
        """

    @abstractmethod
    def append(self, scenario: Scenario, runs: Sequence[StoredRun]) -> None:
        """Persist newly completed replications (see the locking contract).

        A replication appended twice resolves last-write-wins on ``load``.
        """

    @abstractmethod
    def run_index(self, scenario: Scenario) -> dict[int, RunMeta]:
        """Lightweight per-replication index (no result payloads).

        Entries are *not* seed-validated — callers apply
        :func:`seed_checked` themselves — so one cached index can serve
        scenarios differing only in replication count.
        """

    @abstractmethod
    def scenarios_on_record(self) -> list[Scenario]:
        """The scenarios whose cells exist in this store (sorted by hash)."""

    @abstractmethod
    def scenario_for_hash(self, content_hash: str) -> Scenario | None:
        """Resolve a content hash back to the scenario recorded for it.

        The hash may reach this method straight from a URL path segment
        (``GET /results/<hash>``), so anything that is not a well-formed
        :meth:`Scenario.content_hash` digest must be rejected *before* any
        filesystem or query use — a traversal payload must never escape the
        store.
        """

    @abstractmethod
    def compact(self) -> CompactionReport:
        """Reclaim space: drop corrupt/duplicate records, locks, evictees."""

    @abstractmethod
    def describe(self) -> str:
        """The store spec string that reopens this backend (``name:location``)."""

    # -------------------------------------------------------------- derived
    def cached_count(self, scenario: Scenario) -> int:
        """How many of ``scenario``'s replications are on record.

        Counts seed-valid replication indices below
        ``scenario.replications``.  Indexed backends override this with an
        O(1) metadata probe that MAY over-count hand-corrupted rows —
        ``load`` stays the authority on what is actually servable.  Its
        caller is :meth:`cached_counts`, the grid probe of
        :meth:`Session.run_all <repro.scenarios.session.Session.run_all>`;
        ``Session.cached_count`` and a cached answer read one ``load``
        instead.
        """
        checked = seed_checked(scenario, self.run_index(scenario))
        count = scenario.replications
        return sum(1 for replication in checked if replication < count)

    def cached_counts(self, scenarios: Sequence[Scenario]) -> list[int]:
        """:meth:`cached_count` for a whole grid, in input order.

        :meth:`Session.run_all <repro.scenarios.session.Session.run_all>`
        probes every cell of a grid with it before loading anything, and
        loads only the cells it counts runs in; indexed backends override
        it with **one** query for all hashes instead of one round trip per
        cell.
        """
        return [self.cached_count(scenario) for scenario in scenarios]

    def summaries(self) -> list[StoreRecord]:
        """One :class:`StoreRecord` per scenario on record (sorted by hash)."""
        records = []
        for scenario in self.scenarios_on_record():
            runs = self.load(scenario)
            records.append(
                StoreRecord(
                    scenario=scenario,
                    hash=scenario.content_hash(),
                    replications_on_record=len(runs),
                    solved_runs=sum(1 for run in runs.values() if run.result.solved),
                )
            )
        return records

    def close(self) -> None:
        """Release backend resources; further use is undefined."""

    def sidecar(self, name: str) -> Path | None:
        """Where this store keeps its companion file ``name``, or ``None``.

        The service keeps its job journal (``jobs.journal``) and span log
        (``trace.jsonl``) here, so they share the store's fate across
        restarts.  A store with no local home, such as a remote service,
        has none.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging cosmetics
        return f"{type(self).__name__}({self.describe()!r})"


# --------------------------------------------------------------------------
# The store-selection grammar
# --------------------------------------------------------------------------

#: The ``<scheme>:<location>`` prefixes of the grammar.  The list is closed:
#: ``http(s)://`` URLs are the one other form (``remote``), and anything else
#: is a JSONL directory.
STORE_SCHEMES = ("chaos", "jsonl", "sqlite")


def parse_store_spec(spec: str) -> tuple[str, str]:
    """Split a store spec into ``(backend name, location)``.

    An ``http(s)://`` URL is ``remote`` with the whole URL as location.  A
    bare path — including a Windows drive path, whose one-letter "scheme" is
    not in :data:`STORE_SCHEMES` — is ``jsonl``.  An empty or blank spec, and
    a scheme with an empty location, raise ``ValueError``: neither names a
    place, and a JSONL store there would fill the working directory.
    """
    if not spec.strip():
        raise ValueError(f"store spec {spec!r} names no location")
    if spec.startswith(("http://", "https://")):
        return "remote", spec
    scheme, sep, location = spec.partition(":")
    if not sep or scheme not in STORE_SCHEMES:
        return "jsonl", spec
    if not location:
        raise ValueError(f"store spec {spec!r} names no location")
    return scheme, location


def open_store(target: "str | Path | StoreBackend") -> StoreBackend:
    """Resolve a store target to a live :class:`StoreBackend`.

    A built backend is returned as is and a ``Path`` is a JSONL directory.
    A spec string resolves by :func:`parse_store_spec`: a URL is a
    :class:`~repro.scenarios.federation.RemoteStore`, ``sqlite:`` and
    ``chaos:`` go to their backends' option parsers, and the rest is JSONL.
    """
    if isinstance(target, StoreBackend):
        return target
    if isinstance(target, Path):
        return JsonlStore(target)
    name, location = parse_store_spec(str(target))
    # The other backends import this module: import them lazily.
    if name == "remote":
        from repro.scenarios.federation import RemoteStore

        return RemoteStore(location)
    if name == "sqlite":
        from repro.scenarios.store_sqlite import SqliteStore

        return SqliteStore.from_spec(location)
    if name == "chaos":
        from repro.scenarios.store_chaos import ChaosStore

        return ChaosStore.from_spec(location)
    return JsonlStore(location)


def store_path(spec: str) -> Path | None:
    """The local file or directory :func:`open_store` would open, uncreated.

    ``None`` for a service URL.  A ``chaos:`` spec names its inner store's
    path, and a SQLite spec its database file without the option query.
    """
    name, location = parse_store_spec(spec)
    if name == "remote":
        return None
    if name == "chaos":
        from repro.scenarios.store_chaos import _split_chaos_spec

        return store_path(_split_chaos_spec(location)[0])
    if name == "sqlite":
        return Path(location.partition("?")[0])
    return Path(location)


# --------------------------------------------------------------------------
# JSONL backend
# --------------------------------------------------------------------------


class _ParsedCell:
    """A JSONL cell's parse-cache entry: its runs by replication (last write
    wins, seeds unchecked) as of the file's ``(mtime_ns, size)``, and their
    :class:`RunMeta` index once :meth:`JsonlStore.run_index` has asked."""

    __slots__ = ("signature", "runs", "index")

    def __init__(self, signature: tuple[int, int], runs: dict[int, StoredRun]) -> None:
        self.signature = signature
        self.runs = runs
        self.index: dict[int, RunMeta] | None = None


class JsonlStore(StoreBackend):
    """Append-only per-hash JSONL files under one root directory.

    Layout: ``<root>/<content-hash>.jsonl``.  Line 1 is a self-describing
    header carrying the scenario that produced the cell; every further line
    records one completed replication.  Appending line-by-line makes
    interruption safe by construction: a run killed mid-sweep leaves
    complete lines for the replications that finished, and a torn final line
    is detected by the JSON parser and ignored.

    Reads are served through a per-hash parse cache invalidated on any
    mtime/size change of the cell file, so a repeated cache probe (the
    service's ``POST /scenarios`` fast path, one ``load``) costs one
    ``stat`` and a seed check instead of re-parsing the whole file.

    Appends keep the descriptors of the last :data:`_OPEN_CELLS` cells open
    (see the locking contract); :meth:`close` releases them, and so does
    garbage collection of the store.
    """

    name = "jsonl"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Serialises writers within this process even where fcntl is missing;
        # cheap enough to hold across the flock on POSIX too.
        self._write_lock = threading.Lock()
        # hash -> the cell's parsed runs and (mtime_ns, size); LRU-bounded.
        self._cache: OrderedDict[str, _ParsedCell] = OrderedDict()
        self._cache_lock = threading.Lock()
        # Label children resolved once: load sits on the cached fast path,
        # where per-call labels() lookups are measurable.
        self._m_append = _M_APPEND.labels(backend=self.name)
        self._m_probe = _M_PROBE.labels(backend=self.name)
        # hash -> the cell's held descriptors, LRU-bounded; written only
        # under _write_lock by the process in _open_pid.
        self._open: OrderedDict[str, _OpenCell] = OrderedDict()
        self._open_pid = os.getpid()
        weakref.finalize(self, _close_cells, self._open)

    def path_for(self, scenario: Scenario) -> Path:
        return self.root / f"{scenario.content_hash()}.jsonl"

    def describe(self) -> str:
        return f"{self.name}:{self.root}"

    def sidecar(self, name: str) -> Path:
        return self.root / name

    @contextmanager
    def _locked(self, path: Path) -> Iterator[None]:
        """Hold the advisory write lock of the existing cell at ``path`` (see
        the module docstring)."""
        with self._write_lock:
            if fcntl is None:
                yield
                return
            cell = _OpenCell(path)
            try:
                cell.lock_and_stat(os.O_RDONLY)
                yield
            finally:
                cell.close()  # releases the flock

    # -------------------------------------------------------------- reading
    @staticmethod
    def _parse_runs(path: Path) -> dict[int, StoredRun]:
        """All run records in a cell file, last-write-wins, seed-unvalidated."""
        runs: dict[int, StoredRun] = {}
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail of an interrupted write
                if not isinstance(record, dict) or record.get("kind") != "run":
                    continue
                try:
                    run = StoredRun(
                        replication=int(record["replication"]),
                        seed=int(record["seed"]),
                        elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
                        result=SimulationResult.from_dict(record["result"]),
                    )
                except (KeyError, TypeError, ValueError):
                    continue  # malformed record: missing, not fatal
                runs[run.replication] = run
        return runs

    def _parsed(self, scenario: Scenario) -> _ParsedCell:
        """The cell's entry in the mtime/size-invalidated parse cache."""
        path = self.path_for(scenario)
        key = scenario.content_hash()
        try:
            stat = path.stat()
        except OSError:
            with self._cache_lock:
                self._cache.pop(key, None)
            return _ParsedCell((0, 0), {})
        signature = (stat.st_mtime_ns, stat.st_size)
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is not None and entry.signature == signature:
                self._cache.move_to_end(key)
                return entry
        entry = _ParsedCell(signature, self._parse_runs(path))
        with self._cache_lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > _JSONL_CACHE_ENTRIES:
                self._cache.popitem(last=False)
        return entry

    def load(self, scenario: Scenario) -> dict[int, StoredRun]:
        started = time.monotonic()
        try:
            return seed_checked(scenario, self._parsed(scenario).runs)
        finally:
            self._m_probe.observe(time.monotonic() - started)

    def run_index(self, scenario: Scenario) -> dict[int, RunMeta]:
        """The index, built once per parse of the cell and kept in its parse
        cache entry, so a warm grid probe is one ``stat`` and a seed check."""
        cell = self._parsed(scenario)
        if cell.index is None:
            cell.index = {
                replication: RunMeta(
                    replication=replication,
                    seed=run.seed,
                    engine=run.result.engine,
                    stream_version=stream_version_of(run.result),
                )
                for replication, run in cell.runs.items()
            }
        return dict(cell.index)

    # -------------------------------------------------------------- writing
    def append(self, scenario: Scenario, runs: Sequence[StoredRun]) -> None:
        """Persist newly completed replications (writing the header if new).

        The whole operation — tail inspection, torn-line healing, header
        decision and the write itself — runs under the per-hash advisory
        lock, and all lines of one call are emitted by a single ``write``
        loop, so concurrent appenders serialise cleanly instead of
        interleaving.  It works on file descriptors, which it keeps open
        for the next append to the cell (see the locking contract).
        """
        if not runs:
            return
        started = time.monotonic()
        content_hash = scenario.content_hash()
        body = "".join(
            _run_line(run) + "\n" for run in sorted(runs, key=lambda run: run.replication)
        )
        with self._write_lock:
            if fcntl is None:
                path = self.path_for(scenario)
                cell = os.open(path, _CELL_FLAGS, 0o666)
                try:
                    _write_cell(cell, os.fstat(cell).st_size, -1, scenario, body)
                finally:
                    os.close(cell)
            else:
                self._append_held(content_hash, scenario, body)
        with self._cache_lock:
            self._cache.pop(content_hash, None)
        self._m_append.observe(time.monotonic() - started)

    def _append_held(self, content_hash: str, scenario: Scenario, body: str) -> None:
        """:meth:`append`'s write through the cell's held descriptor, under
        its flock.  Called under ``_write_lock``."""
        if self._open_pid != os.getpid():
            # A forked child shares the parent's open file descriptions, and
            # a flock on one of them would not exclude the parent.
            _close_cells(self._open)
            self._open_pid = os.getpid()
        held = self._open.get(content_hash)
        if held is None:
            held = self._open[content_hash] = _OpenCell(self.path_for(scenario))
            while len(self._open) > _OPEN_CELLS:
                self._open.popitem(last=False)[1].close()
        else:
            self._open.move_to_end(content_hash)
        try:
            size = held.lock_and_stat()
            try:
                held.end = _write_cell(held.cell, size, held.end, scenario, body)
            finally:
                fcntl.flock(held.cell, fcntl.LOCK_UN)
        except BaseException:
            # Start the cell's next append afresh: reopen, and read the tail.
            self._open.pop(content_hash, None)
            held.close()
            raise

    def close(self) -> None:
        """Close the descriptors appends keep open; a later append reopens them."""
        with self._write_lock:
            _close_cells(self._open)

    # ------------------------------------------------------------- listings
    def scenarios_on_record(self) -> list[Scenario]:
        """Scenarios whose cells exist under this root (locks never listed)."""
        scenarios = []
        for path in sorted(self.root.glob("*.jsonl")):
            scenario = self._scenario_from_header(path)
            if scenario is not None:
                scenarios.append(scenario)
        return scenarios

    def scenario_for_hash(self, content_hash: str) -> Scenario | None:
        if not _HASH_RE.fullmatch(content_hash):
            return None
        path = self.root / f"{content_hash}.jsonl"
        if not path.exists():
            return None
        return self._scenario_from_header(path)

    # ----------------------------------------------------------- janitorial
    def clean_locks(self) -> int:
        """Delete the ``*.jsonl.lock`` sidecars earlier versions locked;
        returns how many were removed.

        This version locks the cells themselves and makes no sidecar.  A
        writer of an earlier version still locks them, so this runs from
        compaction and migration, offline moments, rather than after every
        append.
        """
        removed = 0
        for lock_path in self.root.glob("*.jsonl.lock"):
            try:
                lock_path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - raced by a concurrent writer
                continue
        return removed

    def compact(self) -> CompactionReport:
        """Rewrite every cell dropping torn/duplicate records; drop lock litter.

        The new cell is renamed over the old one while the old one's lock is
        held, so a writer waiting for it finds it unlinked and locks the new
        one (see the locking contract).
        """
        scenarios = 0
        dropped = 0
        for path in sorted(self.root.glob("*.jsonl")):
            scenario = self._scenario_from_header(path)
            if scenario is None:
                continue  # no trustworthy header: leave the file untouched
            with self._locked(path):
                with path.open("r", encoding="utf-8") as handle:
                    original_lines = sum(1 for line in handle if line.strip())
                runs = self._parse_runs(path)
                lines = [_header_line(scenario)]
                lines.extend(_run_line(run) for _, run in sorted(runs.items()))
                temp = path.with_name(path.name + ".compact")
                temp.write_text("\n".join(lines) + "\n", encoding="utf-8")
                temp.replace(path)
            scenarios += 1
            dropped += max(0, original_lines - (1 + len(runs)))
        with self._cache_lock:
            self._cache.clear()
        return CompactionReport(
            scenarios=scenarios,
            records_dropped=dropped,
            lock_files_removed=self.clean_locks(),
        )

    @staticmethod
    def _scenario_from_header(path: Path) -> Scenario | None:
        try:
            with path.open("r", encoding="utf-8") as handle:
                first = handle.readline().strip()
        except OSError:  # pragma: no cover - raced removal
            return None
        if not first:
            return None
        try:
            record = json.loads(first)
        except json.JSONDecodeError:
            return None
        if record.get("kind") != "scenario":
            return None
        try:
            return Scenario.from_dict(record["scenario"])
        except (KeyError, TypeError, ValueError):
            return None


#: How an append opens a cell: created with its first record.
_CELL_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CREAT


class _OpenCell:
    """The descriptor a :class:`JsonlStore` keeps open for the cell at
    ``path`` (``-1`` while none is open), and the cell's size after the
    store's last write (``-1`` before one)."""

    __slots__ = ("path", "cell", "end")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.cell = -1
        self.end = -1

    def lock_and_stat(self, flags: int = _CELL_FLAGS) -> int:
        """Hold the flock of the cell at ``path`` and return its size,
        opening the path with ``flags`` if no descriptor is held or the held
        one's file was unlinked, before or while it waited.

        A cell that compaction renamed a new file over, or that was deleted,
        takes no more records that anyone reads.
        """
        while True:
            if self.cell < 0:
                self.cell = os.open(self.path, flags, 0o666)
                self.end = -1
            fcntl.flock(self.cell, fcntl.LOCK_EX)
            status = os.fstat(self.cell)
            if status.st_nlink:
                return status.st_size
            self.close()

    def close(self) -> None:
        if self.cell >= 0:
            os.close(self.cell)
        self.cell = -1


def _close_cells(cells: OrderedDict[str, _OpenCell]) -> None:
    """Close and forget every held cell (also a :class:`JsonlStore`'s finalizer)."""
    while cells:
        cells.popitem()[1].close()


def _write_cell(descriptor: int, size: int, end: int, scenario: Scenario, body: str) -> int:
    """Append ``body`` to the cell open at ``descriptor``, whose size is
    ``size``, after the header if the cell is new; returns its size after.

    ``end`` is the size this store's last write left; a torn tail is healed
    as :func:`~repro.util.jsonl.append_lines` describes.
    """
    if size == 0:
        body = _header_line(scenario) + "\n" + body
    return append_lines(descriptor, body.encode("utf-8"), size, end)


def stream_version_of(result: SimulationResult) -> int:
    """The engine stream version a result was sampled under.

    Results stored before engines recorded ``metadata["stream_version"]``
    count as version 1, the version every engine had then.
    """
    version = result.metadata.get("stream_version", 1)
    return version if isinstance(version, int) else 1


#: Encodes every store line: ``json.dumps(..., sort_keys=True)`` builds a
#: new encoder on each call, and a replication writes one line.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _header_line(scenario: Scenario) -> str:
    return _LINE_ENCODER.encode(
        {
            "kind": "scenario",
            "hash": scenario.content_hash(),
            "scenario": scenario.to_dict(),
        }
    )


def _run_line(run: StoredRun) -> str:
    return _LINE_ENCODER.encode(
        {
            "kind": "run",
            "replication": run.replication,
            "seed": run.seed,
            "elapsed_seconds": run.elapsed_seconds,
            "result": run.result.to_dict(),
        }
    )
