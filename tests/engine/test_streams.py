"""Stream pins and the retired batching surface.

* **Golden streams** — fixed cells reproduce pinned makespans exactly, on
  FairEngine's compiled loop and on its Python loop alike, so a change to an
  engine's draw order cannot slip through and silently invalidate stored
  results: it must bump the engine's ``stream_version``.
* **Retired surface** — the deleted engines, selectors, knobs and hooks fail
  loudly, and cells they stored (or stored under an older stream version)
  re-simulate exactly once, on both store backends.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import simulate, simulate_batch
from repro.engine.fair_engine import FairEngine
from repro.engine.registry import EngineCapabilities
from repro.engine.window_engine import WindowEngine
from repro.experiments import figure1, table1
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols import base as protocol_base
from repro.protocols.base import build_protocol
from repro.scenarios import Scenario, Session
from repro.scenarios.store import StoredRun, open_store
from repro.service import create_server
from repro.util.rng import derive_seeds

OFA = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")


def _compiled(spec: str, k: int, seeds, max_slots: int | None = None) -> list:
    return [
        FairEngine().simulate(build_protocol(spec, k=k), k, seed=seed, max_slots=max_slots)
        for seed in seeds
    ]


def _python_loop(spec: str, k: int, seeds, max_slots: int | None = None) -> list:
    cap = max_slots if max_slots is not None else 10_000 * k
    return [
        FairEngine()._simulate_python(build_protocol(spec, k=k), k, seed, cap, None)
        for seed in seeds
    ]


class TestGoldenStreams:
    """Pinned makespans: each engine's draw order is part of the store format."""

    BUMP = "the stream moved: bump the engine's stream_version"

    @pytest.mark.parametrize(
        "spec,k,root,reps,makespans",
        [
            ("one-fail-adaptive", 60, 5, 3, [408, 365, 369]),
            ("log-fails-adaptive(xi_t=0.5)", 50, 1, 3, [429, 382, 382]),
            ("log-fails-adaptive(xi_t=0.1)", 200, 2, 2, [737, 1450]),
            ("one-fail-adaptive", 1000, 9, 2, [7302, 7373]),
            ("slotted-aloha", 150, 3, 3, [389, 382, 420]),
            ("slotted-aloha(track_deliveries=False)", 80, 3, 3, [479, 519, 639]),
        ],
    )
    def test_fair_stream_version_1(self, spec, k, root, reps, makespans):
        assert FairEngine.stream_version == 1
        seeds = derive_seeds(root, reps)
        for run in (_compiled, _python_loop):
            assert [result.makespan for result in run(spec, k, seeds)] == makespans, self.BUMP

    def test_fair_stream_version_1_capped_counts(self):
        """Rows cut off by the cap keep their (slots, successes, collisions, silences)."""
        seeds = derive_seeds(4, 3)
        counts = [(300, 32, 255, 13), (300, 29, 245, 26), (300, 30, 253, 17)]
        for run in (_compiled, _python_loop):
            results = run("one-fail-adaptive", 100, seeds, max_slots=300)
            assert not any(result.solved for result in results)
            assert [
                (result.slots_simulated, result.successes, result.collisions, result.silences)
                for result in results
            ] == counts, self.BUMP

    @pytest.mark.parametrize(
        "spec,k,root,reps,makespans",
        [
            ("exp-backon-backoff", 70, 5, 3, [344, 333, 333]),
            ("loglog-iterated-backoff", 300, 6, 3, [1891, 1874, 1887]),
            ("exponential-backoff", 90, 4, 2, [509, 468]),
            ("polynomial-backoff", 80, 3, 3, [284, 495, 382]),
            ("log-backoff", 110, 7, 2, [570, 516]),
        ],
    )
    def test_window_stream_version_2(self, spec, k, root, reps, makespans):
        assert WindowEngine.stream_version == 2
        results = [
            WindowEngine().simulate(build_protocol(spec, k=k), k, seed=seed)
            for seed in derive_seeds(root, reps)
        ]
        assert [result.makespan for result in results] == makespans, self.BUMP

    def test_window_stream_version_2_capped_counts(self):
        results = [
            WindowEngine().simulate(ExpBackonBackoff(), 200, seed=seed, max_slots=400)
            for seed in derive_seeds(7, 3)
        ]
        assert not any(result.solved for result in results)
        assert [
            (result.slots_simulated, result.successes, result.collisions, result.silences)
            for result in results
        ] == [(480, 50, 396, 34), (480, 54, 395, 31), (480, 56, 393, 31)], self.BUMP


def _legacy(results, engine: str | None = None) -> list:
    """Results as a store written before stream versions holds them."""
    legacy = []
    for result in results:
        metadata = {key: value for key, value in result.metadata.items() if key != "stream_version"}
        if engine is not None:
            metadata["batch_reps"] = len(results)
        legacy.append(
            dataclasses.replace(result, engine=engine or result.engine, metadata=metadata)
        )
    return legacy


class TestRetiredSurface:
    """The batched engines, their knobs and hooks, and the cells they stored."""

    @pytest.mark.parametrize("selector", ["batch", "batch-window", "mega", "mega-window"])
    def test_retired_selectors_are_unknown_engines(self, selector):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_batch(OneFailAdaptive(), 10, [0, 1], engine=selector)
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(ExpBackonBackoff(), k=10, seed=0, engine=selector)
        with pytest.raises(ValueError, match="unknown engine"):
            Scenario(protocol="exp-backon-backoff", k=10, engine=selector)

    @pytest.mark.parametrize("knob", ["batch", "fuse"])
    def test_batching_knobs_are_gone(self, knob):
        config = ExperimentConfig(k_values=[10], runs=1, seed=17)
        with pytest.raises(TypeError):
            ExperimentConfig(k_values=[10], runs=1, **{knob: False})
        with pytest.raises(TypeError):
            Session(**{knob: False})
        with pytest.raises(TypeError):
            run_sweep([OFA], config, **{knob: False})
        with pytest.raises(TypeError):
            create_server(**{knob: False})
        assert "batch" not in config.describe()

    @pytest.mark.parametrize("flag", ["--fuse", "--no-fuse", "--batch", "--no-batch"])
    def test_figure_and_table_clis_reject_batching_flags(self, flag, capsys):
        for main in (figure1.main, table1.main):
            with pytest.raises(SystemExit) as excinfo:
                main([flag])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_windowed_fuse_hook_is_gone(self):
        assert not hasattr(ExpBackonBackoff(), "fused_schedule_key")
        assert not hasattr(build_protocol("loglog-iterated-backoff", k=16), "fused_schedule_key")

    def test_batched_fair_engine_surface_is_gone(self):
        import repro
        import repro.engine
        import repro.engine.registry

        for module in (repro, repro.engine):
            assert not hasattr(module, "MegaFairEngine")
            assert not hasattr(module, "batch_engine_for")
        assert not hasattr(repro.engine.registry, "batch_engine_for")
        assert not hasattr(repro.engine.registry.EngineRegistry, "batch_engine_for")
        assert "batched" not in {field.name for field in dataclasses.fields(EngineCapabilities)}
        assert not hasattr(protocol_base, "FairBatchState")
        for name in ("one-fail-adaptive", "log-fails-adaptive", "slotted-aloha"):
            assert not hasattr(build_protocol(name, k=16), "make_fused_batch_state")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.megabatch")

    def test_protocol_specs_need_a_spec_string(self):
        with pytest.raises(TypeError):
            ProtocolSpec(key="ofa", label="OFA", factory=OneFailAdaptive)
        with pytest.raises(TypeError):
            ProtocolSpec(key="ofa", label="OFA")

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    @pytest.mark.parametrize(
        "text,legacy_engine",
        [
            ("slotted-aloha k=30 reps=4 seed=5", "batch"),
            ("one-fail-adaptive k=30 reps=4 seed=5", "mega"),
            ("exp-backon-backoff k=30 reps=4 seed=5", "mega-window"),
            ("exp-backon-backoff k=30 reps=4 seed=5", None),  # stream-1 window runs
        ],
    )
    def test_legacy_cells_resimulate_once(self, tmp_path, backend, text, legacy_engine):
        scenario = Scenario.parse(text)
        target = tmp_path / "store" if backend == "jsonl" else f"sqlite:{tmp_path / 'store.db'}"
        results = _legacy(Session().run(scenario).results, legacy_engine)
        legacy = [StoredRun(index, result.seed, 0.0, result) for index, result in enumerate(results)]
        open_store(target).append(scenario, legacy)
        first = Session(store_dir=target).run(scenario)
        assert first.cached_runs == 0 and first.new_runs == 4
        assert first.results == Session().run(scenario).results
        again = Session(store_dir=target)
        assert again.cached_count(scenario) == 4
        served = again.run(scenario)
        assert served.cached_runs == 4 and served.new_runs == 0
        assert served.results == first.results

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_legacy_fair_runs_are_served(self, tmp_path, backend):
        scenario = Scenario.parse("one-fail-adaptive k=30 reps=4 seed=5")
        target = tmp_path / "store" if backend == "jsonl" else f"sqlite:{tmp_path / 'store.db'}"
        results = _legacy(Session().run(scenario.replace(engine="fair")).results)
        assert all("stream_version" not in result.metadata for result in results)
        legacy = [StoredRun(index, result.seed, 0.0, result) for index, result in enumerate(results)]
        open_store(target).append(scenario, legacy)
        session = Session(store_dir=target)
        assert session.cached_count(scenario) == 4
        served = session.run(scenario)
        assert served.cached_runs == 4 and served.new_runs == 0
        assert [result.makespan for result in served.results] == [
            result.makespan for result in results
        ]
