"""Tests for the Session service: execution routing, caching, resumability."""

from __future__ import annotations

import json

import pytest

from repro.engine.fair_engine import FairEngine
from repro.protocols.base import Protocol
from repro.scenarios import JsonlStore, Scenario, Session


def scenario(text: str = "one-fail-adaptive k=60 reps=3 seed=7") -> Scenario:
    return Scenario.parse(text)


class TestSessionExecution:
    def test_run_returns_all_replications(self):
        result_set = Session().run(scenario())
        assert len(result_set.results) == 3
        assert result_set.new_runs == 3
        assert result_set.cached_runs == 0
        assert result_set.all_solved
        assert result_set.seeds == tuple(scenario().seeds())
        assert [result.seed for result in result_set.results] == list(result_set.seeds)

    def test_fair_cells_are_fair_engine_runs(self):
        # Every replication is one FairEngine run of its own seed, whichever
        # selector names the engine.
        five = scenario().replace(replications=5)
        result_set = Session().run(five)
        assert result_set.engine_used == "fair"
        assert result_set.results == Session().run(five.replace(engine="fair")).results
        assert list(result_set.results) == [
            FairEngine().simulate(five.build_protocol(), five.k, seed=seed)
            for seed in five.seeds()
        ]

    def test_windowed_cells_run_on_the_window_engine(self):
        result_set = Session().run(scenario("exp-backon-backoff k=60 reps=6 seed=7"))
        assert result_set.engine_used == "window"
        assert result_set.results[0].metadata["stream_version"] == 4

    def test_dynamic_arrivals_route_to_slot_engine(self):
        result_set = Session().run(
            scenario("one-fail-adaptive k=16 reps=2 seed=7 arrivals=poisson(rate=0.2)")
        )
        assert result_set.engine_used == "slot"
        assert "latencies" in result_set.results[0].metadata

    def test_explicit_engine_honoured(self):
        result_set = Session().run(scenario("one-fail-adaptive k=30 reps=2 seed=7 engine=slot"))
        assert result_set.engine_used == "slot"

    def test_deterministic_across_sessions(self):
        first = Session().run(scenario())
        second = Session().run(scenario())
        assert first.makespans == second.makespans

    def test_run_all_orders_results(self):
        scenarios = [scenario(), scenario("exp-backon-backoff k=40 reps=2 seed=3")]
        result_sets = Session().run_all(scenarios)
        assert [rs.scenario for rs in result_sets] == scenarios

    def test_progress_reports_every_replication(self):
        calls = []
        Session().run(scenario(), progress=lambda i, s, done, total: calls.append((i, done, total)))
        assert calls == [(0, 1, 3), (0, 2, 3), (0, 3, 3)]

    def test_to_dict_payload(self):
        payload = Session().run(scenario()).to_dict()
        assert payload["new_runs"] == 3
        assert payload["cached_runs"] == 0
        assert payload["engine"] == "fair"
        assert len(payload["results"]) == 3
        assert payload["hash"] == scenario().content_hash()
        json.dumps(payload)  # must be JSON-serialisable as-is


class TestSessionStore:
    def test_repeat_run_is_all_cache_hits(self, tmp_path):
        session = Session(store_dir=tmp_path)
        first = session.run(scenario())
        second = session.run(scenario())
        assert first.new_runs == 3 and first.cached_runs == 0
        assert second.new_runs == 0 and second.cached_runs == 3
        assert second.makespans == first.makespans
        assert [r.seed for r in second.results] == [r.seed for r in first.results]

    def test_store_survives_session_objects(self, tmp_path):
        Session(store_dir=tmp_path).run(scenario())
        resumed = Session(store_dir=tmp_path).run(scenario())
        assert resumed.new_runs == 0

    def test_raising_replications_extends_per_run_cell(self, tmp_path):
        # Per-run streams are prefix-stable, so a larger request reuses the
        # stored prefix and runs only the new replications.
        session = Session(store_dir=tmp_path)
        small = session.run(scenario())
        extended = session.run(scenario().replace(replications=5))
        assert extended.cached_runs == 3
        assert extended.new_runs == 2
        assert extended.makespans[:3] == small.makespans
        fresh = Session().run(scenario().replace(replications=5))
        assert extended.makespans == fresh.makespans

    @pytest.mark.parametrize(
        "text",
        ["one-fail-adaptive k=60 reps=4 seed=7", "exp-backon-backoff k=60 reps=4 seed=7"],
    )
    def test_raising_replications_extends_a_cell(self, tmp_path, text):
        # Every replication is its own stream, so a cell extends: only the
        # missing replications are simulated.
        session = Session(store_dir=tmp_path)
        session.run(scenario(text))
        extended = session.run(scenario(text).replace(replications=9))
        assert extended.cached_runs == 4
        assert extended.new_runs == 5
        fresh = Session().run(scenario(text).replace(replications=9))
        assert extended.results == fresh.results
        again = session.run(scenario(text).replace(replications=9))
        assert again.new_runs == 0 and again.cached_runs == 9

    def test_interrupted_grid_resumes_missing_cells_only(self, tmp_path):
        grid = [
            scenario("one-fail-adaptive k=40 reps=2 seed=1"),
            scenario("one-fail-adaptive k=80 reps=2 seed=2"),
            scenario("exp-backon-backoff k=40 reps=2 seed=3"),
        ]
        # First session dies after completing only the first cell.
        Session(store_dir=tmp_path).run(grid[0])
        result_sets = Session(store_dir=tmp_path).run_all(grid)
        assert [rs.new_runs for rs in result_sets] == [0, 2, 2]
        assert [rs.cached_runs for rs in result_sets] == [2, 0, 0]
        # The resumed grid is identical to an uninterrupted in-memory run.
        fresh = Session().run_all(grid)
        assert [rs.makespans for rs in result_sets] == [rs.makespans for rs in fresh]

    def test_cached_results_are_equal_to_fresh(self, tmp_path):
        session = Session(store_dir=tmp_path)
        fresh = session.run(scenario())
        cached = session.run(scenario())
        for a, b in zip(fresh.results, cached.results):
            assert a.makespan == b.makespan
            assert a.seed == b.seed
            assert a.collisions == b.collisions
            assert a.engine == b.engine

    def test_torn_store_line_is_ignored(self, tmp_path):
        session = Session(store_dir=tmp_path)
        session.run(scenario())
        store_file = next(tmp_path.glob("*.jsonl"))
        with store_file.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "replication": 99, "seed"')  # torn write
        resumed = session.run(scenario())
        assert resumed.new_runs == 0 and resumed.cached_runs == 3

    def test_torn_tail_heals_on_next_append(self, tmp_path):
        # A torn final line must not swallow the record appended after it:
        # the store heals by terminating the partial line first.
        session = Session(store_dir=tmp_path)
        session.run(scenario())
        store_file = next(tmp_path.glob("*.jsonl"))
        content = store_file.read_text(encoding="utf-8")
        torn = content.rstrip("\n").rsplit("\n", 1)[0] + '\n{"kind": "run", "rep'
        store_file.write_text(torn, encoding="utf-8")  # last record torn mid-write
        healed = session.run(scenario())
        assert healed.new_runs == 1 and healed.cached_runs == 2
        settled = session.run(scenario())
        assert settled.new_runs == 0 and settled.cached_runs == 3

    def test_cached_runs_clamped_to_requested_replications(self, tmp_path):
        session = Session(store_dir=tmp_path)
        session.run(scenario().replace(replications=6))
        small = session.run(scenario().replace(replications=2))
        assert small.cached_runs == 2
        assert small.new_runs == 0
        assert len(small.results) == 2

    def test_stored_prefix_extended_by_missing_replications(self, tmp_path):
        # Two stored replications plus four simulated now: the cell equals a
        # fresh execution.
        session = Session(store_dir=tmp_path)
        session.run(scenario().replace(replications=2))
        mixed = session.run(scenario().replace(replications=6))
        assert mixed.cached_runs == 2 and mixed.new_runs == 4
        fresh = Session().run(scenario().replace(replications=6, engine="fair"))
        assert mixed.results == fresh.results

    def test_foreign_seed_record_recomputed(self, tmp_path):
        session = Session(store_dir=tmp_path)
        session.run(scenario())
        store_file = next(tmp_path.glob("*.jsonl"))
        lines = store_file.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["seed"] = record["seed"] + 1  # corrupt one replication's seed
        lines[1] = json.dumps(record)
        store_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resumed = session.run(scenario())
        assert resumed.new_runs == 1 and resumed.cached_runs == 2

    def test_store_file_is_self_describing(self, tmp_path):
        Session(store_dir=tmp_path).run(scenario())
        store = JsonlStore(tmp_path)
        on_record = store.scenarios_on_record()
        assert on_record == [scenario()]

    def test_different_scenarios_use_different_files(self, tmp_path):
        session = Session(store_dir=tmp_path)
        session.run(scenario())
        session.run(scenario("one-fail-adaptive k=60 reps=3 seed=8"))
        assert len(list(tmp_path.glob("*.jsonl"))) == 2

    def test_progress_includes_cached_replications(self, tmp_path):
        session = Session(store_dir=tmp_path)
        session.run(scenario())
        calls = []
        session.run(scenario(), progress=lambda i, s, done, total: calls.append((done, total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_elapsed_seconds_preserved_from_store(self, tmp_path):
        session = Session(store_dir=tmp_path)
        fresh = session.run(scenario())
        cached = session.run(scenario())
        assert cached.elapsed_seconds == pytest.approx(fresh.elapsed_seconds)
        assert cached.elapsed_seconds > 0

    @pytest.mark.parametrize(
        "text",
        ["one-fail-adaptive k=60 reps=3 seed=7", "log-fails-adaptive(xi_t=0.1) k=60 reps=3 seed=7"],
    )
    def test_cache_probes_spawn_no_protocol_state(self, tmp_path, monkeypatch, text):
        # The service's cached path plans a cell on every probe; planning
        # must only resolve the cell, never build per-run protocol state.
        session = Session(store_dir=tmp_path)
        session.run(scenario(text))
        spawned = []
        original = Protocol.spawn
        monkeypatch.setattr(
            Protocol, "spawn", lambda self: spawned.append(self) or original(self)
        )
        assert session.cached_count(scenario(text)) == 3
        assert session.run_cached(scenario(text)).cached_runs == 3
        assert spawned == []


class TestSweepStoreIntegration:
    def test_run_sweep_store_round_trip(self, tmp_path):
        from repro.experiments.config import ExperimentConfig, paper_protocol_suite
        from repro.experiments.runner import run_sweep

        config = ExperimentConfig(k_values=[10, 30], runs=2, seed=77)
        specs = [spec for spec in paper_protocol_suite() if spec.key in ("ofa", "ebb")]
        stored = run_sweep(specs, config, store_dir=tmp_path)
        resumed = run_sweep(specs, config, store_dir=tmp_path)
        in_memory = run_sweep(specs, config)
        for key in stored.cells:
            assert stored.cells[key].makespans == in_memory.cells[key].makespans
            assert resumed.cells[key].makespans == in_memory.cells[key].makespans
        # Every (spec, k) cell produced one store file; the resumed sweep
        # added nothing new.
        assert len(list(tmp_path.glob("*.jsonl"))) == len(stored.cells)


class CountingStore(JsonlStore):
    """A JSONL store that records the size of every append call."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.appends: list[int] = []

    def append(self, scenario, runs) -> None:
        self.appends.append(len(runs))
        super().append(scenario, runs)


class TestBatchedPersistence:
    """Fresh replications reach the store a batch at a time: one append per
    cell of each batch the executor hands over (native.SLOTS_PER_CALL slots
    of simulated work, the rest at the end or before an error propagates)."""

    def test_a_table1_sweep_makes_one_append_per_cell(self, tmp_path):
        from repro.experiments.config import ExperimentConfig, paper_k_values
        from repro.experiments.table1 import reproduce_table1

        store = CountingStore(tmp_path)
        config = ExperimentConfig(k_values=paper_k_values(1000), runs=10, seed=2011, workers=1)
        cells = reproduce_table1(config, store_dir=store).sweep.cells
        assert len(cells) == 15
        assert store.appends == [10] * 15

    def test_runs_longer_than_a_kernel_call_are_appended_one_by_one(self, tmp_path):
        store = CountingStore(tmp_path)
        result_set = Session(store_dir=store).run(scenario("one-fail-adaptive k=150000 reps=3"))
        assert min(result.slots_simulated for result in result_set.results) > 2**20
        assert store.appends == [1, 1, 1]

    def test_a_failing_unit_leaves_the_finished_replications_on_record(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import parallel

        calls = []
        simulate = parallel.simulate

        def third_run_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("the engine failed")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(parallel, "simulate", third_run_fails)
        cell = scenario("one-fail-adaptive k=60 reps=4 seed=7")
        session = Session(store_dir=tmp_path)
        with pytest.raises(RuntimeError, match="the engine failed"):
            session.run(cell)
        assert sorted(session.store.load(cell)) == [0, 1]

    def test_a_progress_callback_that_raises_leaves_its_batch_on_record(self, tmp_path):
        calls = []

        def abort(index, scenario, done, total):
            calls.append(done)
            raise RuntimeError("cancelled")

        with pytest.raises(RuntimeError, match="cancelled"):
            Session(store_dir=tmp_path).run(scenario(), progress=abort)
        assert calls == [1]
        rerun = Session(store_dir=tmp_path).run(scenario())
        assert (rerun.new_runs, rerun.cached_runs) == (0, 3)
