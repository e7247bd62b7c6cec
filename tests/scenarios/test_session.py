"""Tests for the Session service: execution routing, caching, resumability."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import ResultStore, Scenario, Session


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

    def test_batch_routing_for_eligible_cells(self):
        assert Session().run(scenario()).engine_used == "mega"
        assert Session(batch=False).run(scenario()).engine_used == "fair"

    def test_windowed_protocol_batch_routing(self):
        result_set = Session().run(scenario("exp-backon-backoff k=60 reps=2 seed=7"))
        assert result_set.engine_used == "mega-window"
        result_set = Session(batch=False).run(scenario("exp-backon-backoff k=60 reps=2 seed=7"))
        assert result_set.engine_used == "window"

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
        assert payload["engine"] == "mega"
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
        session = Session(store_dir=tmp_path, batch=False)
        small = session.run(scenario())
        extended = session.run(scenario().replace(replications=5))
        assert extended.cached_runs == 3
        assert extended.new_runs == 2
        assert extended.makespans[:3] == small.makespans
        fresh = Session(batch=False).run(scenario().replace(replications=5))
        assert extended.makespans == fresh.makespans

    def test_raising_replications_recomputes_batch_cell(self, tmp_path):
        # A batch cell's results depend on the batch composition (one
        # interleaved stream per engine call), so extension recomputes the
        # whole cell — the resumed result is bit-identical to a fresh run.
        session = Session(store_dir=tmp_path, batch=True)
        session.run(scenario())
        extended = session.run(scenario().replace(replications=5))
        assert extended.cached_runs == 0
        assert extended.new_runs == 5
        fresh = Session(batch=True).run(scenario().replace(replications=5))
        assert extended.makespans == fresh.makespans
        # The recomputed batch is now on record for its own replication count.
        again = session.run(scenario().replace(replications=5))
        assert again.new_runs == 0 and again.cached_runs == 5

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
        # the store heals by terminating the partial line first.  (Per-run
        # mode: batch cells recover all-or-nothing instead.)
        session = Session(store_dir=tmp_path, batch=False)
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
        session = Session(store_dir=tmp_path, batch=False)
        session.run(scenario().replace(replications=6))
        small = session.run(scenario().replace(replications=2))
        assert small.cached_runs == 2
        assert small.new_runs == 0
        assert len(small.results) == 2

    def test_store_never_mixes_batch_and_per_run_streams(self, tmp_path):
        # The hash ignores the sampling mode, so a store written under one
        # mode must be recomputed — not partially reused — under the other.
        per_run = Session(store_dir=tmp_path, batch=False).run(scenario())
        assert per_run.engine_used == "fair"
        batched = Session(store_dir=tmp_path, batch=True).run(
            scenario().replace(replications=5)
        )
        assert batched.cached_runs == 0 and batched.new_runs == 5
        assert {result.engine for result in batched.results} == {"mega"}
        fresh_batched = Session(batch=True).run(scenario().replace(replications=5))
        assert batched.makespans == fresh_batched.makespans
        # Flipping back serves the per-run records written first... or
        # recomputes them; either way the set is engine-uniform and identical
        # to an uncached per-run execution.
        per_run_again = Session(store_dir=tmp_path, batch=False).run(scenario())
        assert {result.engine for result in per_run_again.results} == {"fair"}
        assert per_run_again.makespans == per_run.makespans

    def test_foreign_seed_record_recomputed(self, tmp_path):
        session = Session(store_dir=tmp_path, batch=False)
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
        store = ResultStore(tmp_path)
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


class TestSweepStoreIntegration:
    def test_run_sweep_store_round_trip(self, tmp_path):
        from repro.experiments.config import ExperimentConfig, paper_protocol_suite
        from repro.experiments.runner import run_sweep

        config = ExperimentConfig(k_values=[10, 30], runs=2, seed=77)
        specs = paper_protocol_suite(include_lfa=False, include_llib=False)
        stored = run_sweep(specs, config, store_dir=tmp_path)
        resumed = run_sweep(specs, config, store_dir=tmp_path)
        in_memory = run_sweep(specs, config)
        for key in stored.cells:
            assert stored.cells[key].makespans == in_memory.cells[key].makespans
            assert resumed.cells[key].makespans == in_memory.cells[key].makespans
        # Every (spec, k) cell produced one store file; the resumed sweep
        # added nothing new.
        assert len(list(tmp_path.glob("*.jsonl"))) == len(stored.cells)
