"""Concurrent-writer safety of the JsonlStore and a shared Session.

Covers the advisory-locking guarantees: appends from many threads and from
separate processes interleave without torn lines or duplicate headers, and
one Session instance can be shared by concurrent (server-style) workers.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine.result import SimulationResult
from repro.scenarios import JsonlStore, Scenario, Session, StoredRun

SPEC = "one-fail-adaptive k=32 reps=4 seed=3"


def scenario(text: str = SPEC) -> Scenario:
    return Scenario.parse(text)


def make_run(replication: int, seed: int = 0) -> StoredRun:
    result = SimulationResult(
        solved=True,
        makespan=100 + replication,
        k=32,
        slots_simulated=100 + replication,
        successes=32,
        collisions=1,
        silences=2,
        protocol="one-fail-adaptive",
        engine="fair",
        seed=seed,
        metadata={},
    )
    return StoredRun(replication=replication, seed=seed, elapsed_seconds=0.01, result=result)


def _parse_store_file(path) -> tuple[int, int]:
    """(header lines, run lines) — raises if any line is torn/invalid JSON."""
    headers = runs = 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)  # a torn line fails loudly here
            if record["kind"] == "scenario":
                headers += 1
            elif record["kind"] == "run":
                runs += 1
    return headers, runs


def _append_batch(root: str, start: int, count: int) -> None:
    """Module-level so ProcessPoolExecutor can pickle it."""
    store = JsonlStore(root)
    for replication in range(start, start + count):
        store.append(scenario(), [make_run(replication)])


class TestConcurrentAppends:
    def test_threaded_appends_do_not_tear(self, tmp_path):
        store = JsonlStore(tmp_path)
        threads = [
            threading.Thread(target=_append_batch, args=(str(tmp_path), base * 50, 50))
            for base in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        headers, runs = _parse_store_file(store.path_for(scenario()))
        assert headers == 1
        assert runs == 400

    def test_multiprocess_appends_single_header_no_torn_lines(self, tmp_path):
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_append_batch, str(tmp_path), base * 30, 30) for base in range(4)
            ]
            for future in futures:
                future.result()
        headers, runs = _parse_store_file(JsonlStore(tmp_path).path_for(scenario()))
        assert headers == 1
        assert runs == 120

    def test_lock_files_do_not_pollute_the_listing(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        assert (store.path_for(scenario()).with_name(
            store.path_for(scenario()).name + ".lock"
        )).exists()
        assert len(store.scenarios_on_record()) == 1

    def test_append_survives_missing_fcntl(self, tmp_path, monkeypatch):
        from repro.scenarios import store as store_module

        monkeypatch.setattr(store_module, "fcntl", None)
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        store.append(scenario(), [make_run(1)])
        headers, runs = _parse_store_file(store.path_for(scenario()))
        assert headers == 1
        assert runs == 2

    def test_header_written_once_even_onto_empty_file(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.path_for(scenario()).touch()  # empty file, e.g. a crashed first write
        store.append(scenario(), [make_run(0)])
        headers, runs = _parse_store_file(store.path_for(scenario()))
        assert headers == 1
        assert runs == 1


    def test_short_writes_still_append_whole_records(self, tmp_path, monkeypatch):
        """``os.write`` may write only part of its buffer; append loops until
        every byte of its payload is out."""
        from repro.scenarios import store as store_module

        write = store_module.os.write
        calls = []

        def short_write(descriptor, data):
            calls.append(len(data))
            return write(descriptor, bytes(data[:7]))

        monkeypatch.setattr(store_module.os, "write", short_write)
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0), make_run(1)])
        store.append(scenario(), [make_run(2)])
        monkeypatch.undo()
        assert len(calls) > 2
        assert _parse_store_file(store.path_for(scenario())) == (1, 3)
        assert sorted(store.run_index(scenario())) == [0, 1, 2]


class TestStoreSummaries:
    def test_summaries_report_runs_and_solved_fraction(self, tmp_path):
        store_dir = tmp_path / "store"
        Session(store_dir=store_dir).run(scenario())
        records = JsonlStore(store_dir).summaries()
        assert len(records) == 1
        record = records[0]
        assert record.hash == scenario().content_hash()
        assert record.replications_on_record == 4
        assert record.solved_runs == 4
        assert record.solved_fraction == 1.0
        assert record.to_dict()["scenario"] == scenario().format()

    def test_scenario_for_hash_round_trip(self, tmp_path):
        store_dir = tmp_path / "store"
        Session(store_dir=store_dir).run(scenario())
        store = JsonlStore(store_dir)
        recovered = store.scenario_for_hash(scenario().content_hash())
        assert recovered == scenario()
        assert store.scenario_for_hash("0000000000000000") is None

    def test_scenario_for_hash_rejects_non_digest_input(self, tmp_path):
        # The hash arrives from a URL path segment; anything that is not a
        # 16-hex digest must be rejected before touching the filesystem.
        outside = tmp_path / "outside.jsonl"
        outside.write_text(
            json.dumps({"kind": "scenario", "scenario": scenario().to_dict()}) + "\n",
            encoding="utf-8",
        )
        store = JsonlStore(tmp_path / "store")
        for payload in ("../outside", "..", "ABCDEF0123456789", "0" * 15, "0" * 17, ""):
            assert store.scenario_for_hash(payload) is None


class TestSharedSession:
    def test_two_threads_share_one_session(self, tmp_path):
        session = Session(store_dir=tmp_path / "store")
        specs = [
            "one-fail-adaptive k=32 reps=3 seed=1",
            "one-fail-adaptive k=32 reps=3 seed=2",
        ]
        errors: list[Exception] = []

        def run(text: str) -> None:
            try:
                session.run(scenario(text))
            except Exception as error:  # surfaced below; threads must not hide it
                errors.append(error)

        threads = [threading.Thread(target=run, args=(text,)) for text in specs for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for text in specs:
            headers, _runs = _parse_store_file(session.store.path_for(scenario(text)))
            assert headers == 1
            # A later run is a pure cache hit regardless of the interleaving.
            assert session.run(scenario(text)).new_runs == 0

    def test_progress_fires_in_worker_callback_context(self, tmp_path):
        """SessionProgress is invoked on the thread that called Session.run —
        under the service that is a job-queue worker, not the main thread."""
        session = Session(store_dir=tmp_path / "store")
        callback_threads: set[int] = set()
        worker_ident: list[int] = []

        def worker() -> None:
            worker_ident.append(threading.get_ident())
            session.run(
                scenario(),
                progress=lambda i, s, done, total: callback_threads.add(threading.get_ident()),
            )

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert callback_threads == {worker_ident[0]}
        assert threading.get_ident() not in callback_threads

    def test_cached_count_and_is_cached(self, tmp_path):
        session = Session(store_dir=tmp_path / "store")
        assert session.cached_count(scenario()) == 0
        assert not session.is_cached(scenario())
        session.run(scenario())
        assert session.cached_count(scenario()) == 4
        assert session.is_cached(scenario())
        assert Session().cached_count(scenario()) == 0

    def test_run_cached_serves_from_store_in_one_pass(self, tmp_path):
        session = Session(store_dir=tmp_path / "store")
        assert session.run_cached(scenario()) is None
        fresh = session.run(scenario())
        served = session.run_cached(scenario())
        assert served is not None
        assert served.new_runs == 0
        assert served.cached_runs == 4
        assert served.makespans == fresh.makespans
        assert served.seeds == fresh.seeds
        # Partial coverage is a miss, never a partial result set.
        bigger = scenario().replace(replications=6)
        assert session.run_cached(bigger) is None
        assert Session().run_cached(scenario()) is None
