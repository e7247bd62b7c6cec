"""Declarative scenario API: spec strings, scenarios, sessions, result stores.

This package is the spec-driven front door to the whole library:

* :mod:`repro.scenarios.spec` — the ``"name(key=value)"`` spec-string grammar
  and the closed protocol, arrival and channel tables it names entries of;
* :mod:`repro.scenarios.scenario` — the frozen, hashable :class:`Scenario`
  value object (string ⇄ dict ⇄ JSON ⇄ TOML round-trips);
* :mod:`repro.scenarios.store` — pluggable result-store backends behind the
  :class:`StoreBackend` contract: the per-scenario JSONL store
  (:class:`JsonlStore`), the indexed SQLite store
  (:class:`~repro.scenarios.store_sqlite.SqliteStore`), the deterministic
  fault-injecting ``chaos:`` wrapper
  (:class:`~repro.scenarios.store_chaos.ChaosStore`), and the one closed
  selection grammar — ``jsonl:``/``sqlite:``/``chaos:`` specs, bare paths
  and service URLs (:func:`open_store`);
* :mod:`repro.scenarios.federation` — cross-store sync by content hash
  (:func:`sync_stores`), disk↔disk or against a running simulation service;
* :mod:`repro.scenarios.session` — the :class:`Session` service that plans,
  caches, resumes and fans out scenario executions.

Quickstart::

    from repro import Scenario, Session

    scenario = Scenario.parse("one-fail-adaptive k=1000 reps=10 seed=7")
    result_set = Session(store_dir="results/store").run(scenario)
    print(result_set.mean_makespan, result_set.new_runs, result_set.cached_runs)

Re-running the same scenario against the same store performs zero new
simulations — every replication is served from the store.  Pass
``store_dir="sqlite:results.db"`` for the indexed backend, and
``sync_stores(src, dst)`` to make results simulated anywhere cached
everywhere.
"""

from __future__ import annotations

from repro.scenarios.federation import RemoteStore, SyncReport
from repro.scenarios.federation import sync as sync_stores
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import ResultSet, Session, SessionProgress
from repro.scenarios.spec import SpecError, canonical_spec, format_spec, parse_spec
from repro.scenarios.store import (
    CompactionReport,
    STORE_SCHEMES,
    JsonlStore,
    RunMeta,
    StoreBackend,
    StoredRun,
    StoreRecord,
    open_store,
    parse_store_spec,
    store_path,
)
from repro.scenarios.store_chaos import ChaosStore
from repro.scenarios.store_sqlite import SqliteStore

__all__ = [
    "Scenario",
    "Session",
    "SessionProgress",
    "ResultSet",
    "StoreBackend",
    "JsonlStore",
    "SqliteStore",
    "ChaosStore",
    "RemoteStore",
    "StoredRun",
    "StoreRecord",
    "RunMeta",
    "CompactionReport",
    "open_store",
    "parse_store_spec",
    "store_path",
    "STORE_SCHEMES",
    "sync_stores",
    "SyncReport",
    "SpecError",
    "parse_spec",
    "format_spec",
    "canonical_spec",
]
