"""Backend-conformance suite: every store scheme, one contract.

Each test in :class:`TestBackendContract` runs parametrized over *all*
schemes of the store grammar (``STORE_SCHEMES`` is asserted against the
parametrization, so adding a scheme without adding it here fails loudly),
and every store it opens must be a concrete ``StoreBackend``.  The contract
covers round-trips, last-write-wins, torn/corrupt input tolerance, threaded
and multiprocess append safety, Session resume, compaction, and
cross-backend federation sync — disk↔disk in every direction, plus
client↔server over a live service.
"""

from __future__ import annotations

import gc
import json
import os
import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

from repro.engine.result import SimulationResult
from repro.scenarios import (
    STORE_SCHEMES,
    JsonlStore,
    RemoteStore,
    Scenario,
    Session,
    SqliteStore,
    StoreBackend,
    StoredRun,
    open_store,
    parse_store_spec,
    store_path,
    sync_stores,
)

SPEC = "one-fail-adaptive k=32 reps=4 seed=3"

#: scheme -> spec builder; must cover every scheme of the store grammar.
#: The chaos entry carries no fault options, so it must behave as a
#: transparent proxy over its inner store — that equivalence *is* the test.
BACKEND_SPECS = {
    "jsonl": lambda tmp: f"jsonl:{tmp / 'store'}",
    "sqlite": lambda tmp: f"sqlite:{tmp / 'store.db'}",
    "chaos": lambda tmp: f"chaos:jsonl:{tmp / 'chaos_store'}?seed=1",
}
BACKENDS = sorted(BACKEND_SPECS)


def scenario(text: str = SPEC) -> Scenario:
    return Scenario.parse(text)


def make_run(replication: int, seed: int, *, engine: str = "fair") -> StoredRun:
    result = SimulationResult(
        solved=True,
        makespan=100 + replication,
        k=32,
        slots_simulated=100 + replication,
        successes=32,
        collisions=1,
        silences=2,
        protocol="one-fail-adaptive",
        engine=engine,
        seed=seed,
        metadata={},
    )
    return StoredRun(replication=replication, seed=seed, elapsed_seconds=0.01, result=result)


def seeded_runs(scen: Scenario, replications: range | None = None) -> list[StoredRun]:
    seeds = scen.seeds()
    indices = replications if replications is not None else range(scen.replications)
    return [make_run(replication, seeds[replication]) for replication in indices]


def corrupt_one_replication(spec: str, scen: Scenario, replication: int) -> None:
    """Backend-specific corruption: make one stored record unreadable."""
    name, location = parse_store_spec(spec)
    if name == "chaos":  # corrupt the wrapped store (strip the chaos params)
        corrupt_one_replication(location.rpartition("?")[0], scen, replication)
        return
    if name == "jsonl":
        path = Path(location) / f"{scen.content_hash()}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        kept = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "run" and record["replication"] == replication:
                kept.append(line[: len(line) // 2])  # torn mid-record
            else:
                kept.append(line)
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    else:
        with sqlite3.connect(location.partition("?")[0]) as connection:
            connection.execute(
                "UPDATE runs SET result_json = '{\"garbage\"' WHERE hash = ? AND replication = ?",
                (scen.content_hash(), replication),
            )


def _append_via_spec(spec: str, start: int, count: int) -> None:
    """Module-level so ProcessPoolExecutor can pickle it."""
    store = open_store(spec)
    # Seeds are prefix-stable, so the 80-replication derivation is valid for
    # every writer regardless of which slice it appends.
    seeds = scenario().replace(replications=80).seeds()
    for replication in range(start, start + count):
        store.append(scenario(), [make_run(replication, seeds[replication])])
    store.close()


def test_parametrization_covers_every_registered_backend():
    assert tuple(BACKENDS) == STORE_SCHEMES


@pytest.fixture(params=BACKENDS)
def backend_spec(request, tmp_path) -> str:
    return BACKEND_SPECS[request.param](tmp_path)


@pytest.fixture
def store(backend_spec) -> StoreBackend:
    store = open_store(backend_spec)
    yield store
    store.close()


class TestBackendContract:
    def test_open_store_resolves_the_spec(self, backend_spec, store):
        name, _ = parse_store_spec(backend_spec)
        assert isinstance(store, StoreBackend)
        assert store.name == name
        assert parse_store_spec(store.describe())[0] == name

    def test_empty_store(self, store):
        assert store.load(scenario()) == {}
        assert store.cached_count(scenario()) == 0
        assert store.run_index(scenario()) == {}
        assert store.scenarios_on_record() == []
        assert store.summaries() == []

    def test_append_load_round_trip(self, store):
        runs = seeded_runs(scenario())
        store.append(scenario(), runs)
        loaded = store.load(scenario())
        assert sorted(loaded) == [0, 1, 2, 3]
        for run in runs:
            stored = loaded[run.replication]
            assert stored.seed == run.seed
            assert stored.result.makespan == run.result.makespan
            assert stored.result.engine == run.result.engine
            assert stored.elapsed_seconds == pytest.approx(run.elapsed_seconds)

    def test_duplicate_append_is_last_write_wins(self, store):
        seeds = scenario().seeds()
        store.append(scenario(), [make_run(0, seeds[0], engine="fair")])
        store.append(scenario(), [make_run(0, seeds[0], engine="slot")])
        loaded = store.load(scenario())
        assert len(loaded) == 1
        assert loaded[0].result.engine == "slot"

    def test_foreign_seed_records_read_as_missing(self, store):
        seeds = scenario().seeds()
        store.append(scenario(), [make_run(0, seeds[0]), make_run(1, seeds[1] + 99)])
        assert sorted(store.load(scenario())) == [0]

    def test_cached_count_counts_valid_replications_below_request(self, store):
        assert store.cached_count(scenario()) == 0
        store.append(scenario(), seeded_runs(scenario()))
        assert store.cached_count(scenario()) == 4
        # A smaller request counts only its own replications...
        assert store.cached_count(scenario().replace(replications=2)) == 2
        # ...and a larger one sees the stored prefix (seeds are prefix-stable).
        assert store.cached_count(scenario().replace(replications=6)) == 4

    def test_run_index_agrees_with_load(self, store):
        store.append(scenario(), seeded_runs(scenario()))
        index = store.run_index(scenario())
        loaded = store.load(scenario())
        assert sorted(index) == sorted(loaded)
        for replication, meta in index.items():
            assert meta.seed == loaded[replication].seed
            assert meta.engine == loaded[replication].result.engine

    def test_scenarios_on_record_and_scenario_for_hash(self, store):
        other = scenario("one-fail-adaptive k=32 reps=4 seed=9")
        store.append(scenario(), seeded_runs(scenario()))
        store.append(other, seeded_runs(other))
        assert sorted(s.content_hash() for s in store.scenarios_on_record()) == sorted(
            [scenario().content_hash(), other.content_hash()]
        )
        assert store.scenario_for_hash(scenario().content_hash()) == scenario()
        assert store.scenario_for_hash("0000000000000000") is None

    def test_scenario_for_hash_rejects_non_digest_input(self, store):
        store.append(scenario(), seeded_runs(scenario()))
        for payload in ("../outside", "..", "ABCDEF0123456789", "0" * 15, "0" * 17, ""):
            assert store.scenario_for_hash(payload) is None

    def test_summaries(self, store):
        store.append(scenario(), seeded_runs(scenario()))
        records = store.summaries()
        assert len(records) == 1
        assert records[0].hash == scenario().content_hash()
        assert records[0].replications_on_record == 4
        assert records[0].solved_fraction == 1.0

    def test_corrupt_record_reads_as_missing_not_fatal(self, backend_spec, store):
        store.append(scenario(), seeded_runs(scenario()))
        store.close()
        corrupt_one_replication(backend_spec, scenario(), replication=2)
        reopened = open_store(backend_spec)
        assert sorted(reopened.load(scenario())) == [0, 1, 3]
        reopened.close()

    def test_external_append_is_visible_to_an_open_instance(self, backend_spec, store):
        """A second writer's committed append must not be masked by caches."""
        store.append(scenario(), seeded_runs(scenario(), range(0, 2)))
        assert store.cached_count(scenario()) == 2
        other = open_store(backend_spec)
        other.append(scenario(), seeded_runs(scenario(), range(2, 4)))
        other.close()
        assert store.cached_count(scenario()) == 4
        assert sorted(store.load(scenario())) == [0, 1, 2, 3]

    def test_threaded_appends_do_not_tear(self, store):
        big = scenario().replace(replications=200)
        seeds = big.seeds()

        def worker(base: int) -> None:
            for replication in range(base * 25, base * 25 + 25):
                store.append(big, [make_run(replication, seeds[replication])])

        threads = [threading.Thread(target=worker, args=(base,)) for base in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(store.load(big)) == list(range(200))
        assert store.scenarios_on_record() == [big]

    def test_multiprocess_appends_do_not_tear(self, backend_spec, store):
        store.close()
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_append_via_spec, backend_spec, base * 20, 20)
                for base in range(4)
            ]
            for future in futures:
                future.result()
        reopened = open_store(backend_spec)
        loaded = reopened.load(scenario().replace(replications=80))
        assert sorted(loaded) == list(range(80))
        assert reopened.scenarios_on_record() == [scenario()]
        reopened.close()

    def test_session_resume_via_spec(self, backend_spec):
        first = Session(store_dir=backend_spec).run(scenario())
        assert first.new_runs == 4
        resumed = Session(store_dir=backend_spec).run(scenario())
        assert resumed.new_runs == 0 and resumed.cached_runs == 4
        assert resumed.makespans == first.makespans

    def test_session_run_cached_and_counts(self, backend_spec):
        session = Session(store_dir=backend_spec)
        assert session.run_cached(scenario()) is None
        fresh = session.run(scenario())
        assert session.cached_count(scenario()) == 4
        served = session.run_cached(scenario())
        assert served is not None and served.new_runs == 0
        assert served.makespans == fresh.makespans
        assert session.run_cached(scenario().replace(replications=6)) is None

    def test_compact_preserves_served_data(self, backend_spec, store):
        store.append(scenario(), seeded_runs(scenario()))
        before = store.load(scenario())
        report = store.compact()
        assert report.scenarios == 1
        after = store.load(scenario())
        assert sorted(after) == sorted(before)
        assert [after[i].result.makespan for i in sorted(after)] == [
            before[i].result.makespan for i in sorted(before)
        ]

    def test_session_ingest_is_idempotent_and_seed_validating(self, backend_spec):
        session = Session(store_dir=backend_spec)
        seeds = scenario().seeds()
        runs = seeded_runs(scenario())
        assert session.ingest(scenario(), runs) == 4
        assert session.ingest(scenario(), runs) == 0
        bogus = [make_run(0, seeds[0] + 1)]
        assert session.ingest(scenario().replace(seed=99), bogus) == 0


#: A cell whose runs carry a stream version other than the default 1: a hop
#: that dropped the version would make the destination re-simulate it.
WINDOW_SPEC = "exp-backon-backoff k=32 reps=4 seed=3"


class TestFederationOnDisk:
    @pytest.mark.parametrize("text", [SPEC, WINDOW_SPEC])
    @pytest.mark.parametrize("src_name", BACKENDS)
    @pytest.mark.parametrize("dst_name", BACKENDS)
    def test_sync_makes_destination_serve_with_zero_simulations(
        self, tmp_path, src_name, dst_name, text
    ):
        src_spec = BACKEND_SPECS[src_name](tmp_path / "src")
        dst_spec = BACKEND_SPECS[dst_name](tmp_path / "dst")
        source_session = Session(store_dir=src_spec)
        source = source_session.run(scenario(text))
        source_session.store.close()
        report = sync_stores(src_spec, dst_spec)
        assert report.scenarios_examined == 1
        assert report.scenarios_copied == 1
        assert report.replications_copied == 4
        serving = Session(store_dir=dst_spec)
        served = serving.run(scenario(text))
        serving.store.close()
        assert served.new_runs == 0 and served.cached_runs == 4
        assert served.results == source.results  # stream_version included
        again = sync_stores(src_spec, dst_spec)
        assert again.scenarios_copied == 0 and again.replications_copied == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("src_name,dst_name", [
        ("jsonl", "jsonl"), ("jsonl", "sqlite"), ("sqlite", "chaos"),
    ])
    def test_sync_closes_the_stores_it_opened(self, tmp_path, src_name, dst_name):
        """Without a cyclic collection to close them: with the collector off,
        ``sync(spec, spec)`` leaves the descriptor count where it was."""
        src_spec = BACKEND_SPECS[src_name](tmp_path / "src")
        dst_spec = BACKEND_SPECS[dst_name](tmp_path / "dst")
        with closing(open_store(src_spec)) as source:
            source.append(scenario(), seeded_runs(scenario()))
        gc.collect()
        gc.disable()
        try:
            before = len(os.listdir("/proc/self/fd"))
            report = sync_stores(src_spec, dst_spec)
            after = len(os.listdir("/proc/self/fd"))
        finally:
            gc.enable()
        assert report.replications_copied == 4
        assert after == before

    def test_sync_leaves_the_stores_it_was_given_open(self, tmp_path):
        src = open_store(BACKEND_SPECS["sqlite"](tmp_path / "src"))
        dst = open_store(BACKEND_SPECS["sqlite"](tmp_path / "dst"))
        src.append(scenario(), seeded_runs(scenario()))
        closed = []
        for store in (src, dst):
            store.close = lambda store=store: closed.append(store)
        assert sync_stores(src, dst).replications_copied == 4
        assert closed == []
        assert sorted(dst.load(scenario())) == [0, 1, 2, 3]

    def test_sync_copies_only_missing_replications(self, tmp_path):
        src = open_store(BACKEND_SPECS["jsonl"](tmp_path / "src"))
        dst = open_store(BACKEND_SPECS["sqlite"](tmp_path / "dst"))
        src.append(scenario(), seeded_runs(scenario()))
        dst.append(scenario(), seeded_runs(scenario(), range(0, 2)))
        report = sync_stores(src, dst)
        assert report.replications_copied == 2
        assert sorted(dst.load(scenario())) == [0, 1, 2, 3]

    def test_sync_skips_foreign_seed_records(self, tmp_path):
        src = open_store(BACKEND_SPECS["jsonl"](tmp_path / "src"))
        dst = open_store(BACKEND_SPECS["jsonl"](tmp_path / "dst"))
        seeds = scenario().seeds()
        src.append(scenario(), [make_run(0, seeds[0]), make_run(1, seeds[1] + 1)])
        report = sync_stores(src, dst)
        assert report.replications_copied == 1
        assert sorted(dst.load(scenario())) == [0]


class TestFederationOverHttp:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import create_server

        server = create_server(port=0, store_dir=tmp_path / "server_store", quiet=True)
        server.start_background()
        yield server
        server.close()

    @pytest.mark.parametrize("text", [SPEC, WINDOW_SPEC])
    def test_push_to_server_makes_submission_cached(self, tmp_path, server, text):
        from repro.service import ServiceClient

        local_spec = BACKEND_SPECS["sqlite"](tmp_path / "local")
        local = Session(store_dir=local_spec).run(scenario(text))
        report = sync_stores(local_spec, server.url)
        assert report.replications_copied == 4
        status = ServiceClient(server.url).submit(scenario(text))
        assert status.cached is True
        assert status.state == "done"
        assert server.session.run(scenario(text)).results == local.results

    def test_pull_from_server_serves_locally_with_zero_simulations(self, tmp_path, server):
        from repro.service import ServiceClient

        ServiceClient(server.url).run(scenario())
        mirror_spec = BACKEND_SPECS["jsonl"](tmp_path / "mirror")
        report = sync_stores(server.url, mirror_spec)
        assert report.replications_copied == 4
        served = Session(store_dir=mirror_spec).run(scenario())
        assert served.new_runs == 0 and served.cached_runs == 4

    def test_remote_listing_counts_an_incomplete_cell(self, server):
        server.session.store.append(scenario(), seeded_runs(scenario(), range(0, 2)))
        (record,) = open_store(server.url).summaries()
        assert record.hash == scenario().content_hash()
        assert record.replications_on_record == 2
        assert record.scenario.replications == 4

    def test_push_is_idempotent_over_http(self, tmp_path, server):
        local_spec = BACKEND_SPECS["jsonl"](tmp_path / "local")
        local = Session(store_dir=local_spec)
        local.run(scenario())
        local.store.close()
        first = sync_stores(local_spec, server.url)
        second = sync_stores(local_spec, server.url)
        assert first.replications_copied == 4
        assert second.replications_copied == 0


class TestJsonlSpecifics:
    @pytest.mark.parametrize("engine,text", [
        ("fair", "one-fail-adaptive k=12 reps=2 seed=3"),
        ("window", "exp-backon-backoff k=12 reps=2 seed=3"),
        ("slot", "binary-splitting k=6 reps=2 seed=3 channel=cd"),
    ])
    def test_lines_are_sorted_json_dumps(self, engine, text):
        """The store's one encoder writes what ``json.dumps(..., sort_keys=True)`` writes."""
        from repro.scenarios.store import StoredRun, _header_line, _run_line

        scen = scenario(text)
        assert _header_line(scen) == json.dumps(
            {"kind": "scenario", "hash": scen.content_hash(), "scenario": scen.to_dict()},
            sort_keys=True,
        )
        results = Session().run(scen).results
        assert {result.engine for result in results} == {engine}
        for replication, (seed, result) in enumerate(zip(scen.seeds(), results)):
            run = StoredRun(replication, seed, 0.125 * (replication + 1), result)
            assert _run_line(run) == json.dumps(
                {
                    "kind": "run", "replication": replication, "seed": seed,
                    "elapsed_seconds": run.elapsed_seconds, "result": result.to_dict(),
                },
                sort_keys=True,
            )

    def test_compact_removes_lock_sidecars(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append(scenario(), seeded_runs(scenario()))
        assert not list(tmp_path.glob("*.jsonl.lock"))  # appends make none
        (tmp_path / f"{store.path_for(scenario()).name}.lock").touch()  # an earlier version's
        report = store.compact()
        assert report.lock_files_removed == 1
        assert not list(tmp_path.glob("*.jsonl.lock"))
        assert sorted(store.load(scenario())) == [0, 1, 2, 3]

    def test_compact_drops_superseded_and_torn_records(self, tmp_path):
        store = JsonlStore(tmp_path)
        seeds = scenario().seeds()
        store.append(scenario(), [make_run(0, seeds[0], engine="fair")])
        store.append(scenario(), [make_run(0, seeds[0], engine="slot")])
        path = store.path_for(scenario())
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "replication": 9, "se')  # torn tail
        report = store.compact()
        assert report.records_dropped == 2  # the superseded duplicate + the torn line
        assert store.load(scenario())[0].result.engine == "slot"
        headers = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["kind"] == "scenario"
        ]
        assert len(headers) == 1

    def test_bare_path_spec_defaults_to_jsonl(self, tmp_path):
        store = open_store(str(tmp_path / "plain"))
        assert isinstance(store, JsonlStore)
        assert open_store(tmp_path / "plain2").name == "jsonl"


class TestSqliteSpecifics:
    def test_option_parsing_round_trip(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path / 'a.db'}?ttl=60&max_rows=100")
        assert isinstance(store, SqliteStore)
        assert store.ttl == 60.0
        assert store.max_rows == 100
        assert "ttl=60" in store.describe() and "max_rows=100" in store.describe()
        store.close()

    def test_unknown_option_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown sqlite store option"):
            open_store(f"sqlite:{tmp_path / 'a.db'}?bogus=1")

    def test_ttl_eviction_on_compact(self, tmp_path):
        store = SqliteStore(tmp_path / "a.db", ttl=3600)
        old = scenario("one-fail-adaptive k=32 reps=4 seed=5")
        store.append(old, seeded_runs(old))
        store.append(scenario(), seeded_runs(scenario()))
        # Age the first cell's rows past the TTL by rewriting created_at.
        with sqlite3.connect(tmp_path / "a.db") as connection:
            connection.execute(
                "UPDATE runs SET created_at = created_at - 7200 WHERE hash = ?",
                (old.content_hash(),),
            )
        report = store.compact()
        assert report.runs_evicted == 4
        assert store.load(old) == {}
        assert store.scenario_for_hash(old.content_hash()) is None
        assert sorted(store.load(scenario())) == [0, 1, 2, 3]
        store.close()

    def test_max_rows_evicts_oldest_cells_never_the_appended_one(self, tmp_path):
        store = SqliteStore(tmp_path / "a.db", max_rows=6)
        first = scenario("one-fail-adaptive k=32 reps=4 seed=5")
        store.append(first, seeded_runs(first))
        store.append(scenario(), seeded_runs(scenario()))
        # 8 rows > 6: the older cell is evicted whole, the fresh one is kept.
        assert store.load(first) == {}
        assert sorted(store.load(scenario())) == [0, 1, 2, 3]
        store.close()

    def test_file_without_stream_versions_gains_the_column_in_place(self, tmp_path):
        # A database created before stream versions: a batch_reps column and
        # no stream_version.  Opening it adds the column (rows get version
        # 1) without rewriting the file; its fair runs are then served and
        # its window runs re-simulated once.
        path = tmp_path / "legacy.db"
        fair, window = scenario(), scenario(WINDOW_SPEC)
        with closing(sqlite3.connect(path)) as connection, connection:
            connection.executescript(_LEGACY_SCHEMA)
            for cell in (fair, window):
                results = Session().run(cell.replace(engine="fair" if cell is fair else "window"))
                connection.execute(
                    "INSERT INTO scenarios (hash, scenario_json, run_count, max_replication,"
                    " updated_at) VALUES (?, ?, 4, 3, 0)",
                    (cell.content_hash(), json.dumps(cell.to_dict(), sort_keys=True)),
                )
                for replication, result in enumerate(results.results):
                    legacy = dict(result.to_dict())
                    legacy.pop("meta_stream_version")
                    connection.execute(
                        "INSERT INTO runs VALUES (?, ?, ?, ?, NULL, 1, 0.0, ?, 0)",
                        (cell.content_hash(), replication, result.seed, result.engine,
                         json.dumps(legacy, sort_keys=True)),
                    )
        inode = path.stat().st_ino
        store = SqliteStore(path)
        with closing(sqlite3.connect(path)) as connection:
            columns = [row[1] for row in connection.execute("PRAGMA table_info(runs)")]
        assert "batch_reps" in columns and "stream_version" in columns
        assert path.stat().st_ino == inode
        assert {meta.stream_version for meta in store.run_index(fair).values()} == {1}
        session = Session(store_dir=store)
        assert session.run(fair).cached_runs == 4
        resimulated = session.run(window)
        assert resimulated.new_runs == 4
        assert session.run(window).cached_runs == 4
        SqliteStore(path).close()  # reopening a migrated file is a no-op
        store.close()

    def test_cached_count_is_a_counter_probe(self, tmp_path):
        store = SqliteStore(tmp_path / "a.db")
        big = scenario().replace(replications=50)
        store.append(big, seeded_runs(big))
        assert store.cached_count(big) == 50
        assert store.cached_count(big.replace(replications=10)) == 10
        assert store.cached_count(big.replace(replications=80)) == 50
        store.close()


#: The ``runs``/``scenarios`` schema of stores written before stream versions.
_LEGACY_SCHEMA = """
CREATE TABLE scenarios (
    hash            TEXT PRIMARY KEY,
    scenario_json   TEXT NOT NULL,
    run_count       INTEGER NOT NULL DEFAULT 0,
    max_replication INTEGER NOT NULL DEFAULT -1,
    updated_at      REAL NOT NULL
);
CREATE TABLE runs (
    hash            TEXT NOT NULL,
    replication     INTEGER NOT NULL,
    seed            INTEGER NOT NULL,
    engine          TEXT NOT NULL,
    batch_reps      INTEGER,
    solved          INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    result_json     TEXT NOT NULL,
    created_at      REAL NOT NULL,
    PRIMARY KEY (hash, replication)
);
CREATE INDEX runs_created_at ON runs (created_at);
"""


class TestChaosSpecifics:
    def test_grid_probe_reaches_the_inner_store_once(self, tmp_path, monkeypatch):
        calls = []
        probe = SqliteStore.cached_counts

        def spy(self, scenarios):
            calls.append(len(scenarios))
            return probe(self, scenarios)

        monkeypatch.setattr(SqliteStore, "cached_counts", spy)
        session = Session(store_dir=f"chaos:sqlite:{tmp_path / 'store.db'}?seed=1")
        session.run_all(
            [scenario(f"one-fail-adaptive k=8 reps=1 seed={seed}") for seed in (1, 2, 3)]
        )
        assert calls == [3]


class TestSpecGrammar:
    def test_service_url_is_a_remote_store(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = open_store("http://127.0.0.1:8765")
        assert isinstance(store, RemoteStore)
        assert store.describe() == "http://127.0.0.1:8765"
        assert list(tmp_path.iterdir()) == []

    def test_store_path_names_the_local_file_without_creating_it(self, tmp_path):
        root, db = tmp_path / "store", tmp_path / "store.db"
        cases = {
            str(root): root,
            f"jsonl:{root}": root,
            f"sqlite:{db}?ttl=60": db,
            f"chaos:{root}?seed=1": root,
            f"chaos:jsonl:{root}?seed=1": root,
            f"chaos:sqlite:{db}?ttl=60?seed=1": db,
            "http://127.0.0.1:8765": None,
        }
        for spec, path in cases.items():
            assert store_path(spec) == path, spec
        assert list(tmp_path.iterdir()) == []
