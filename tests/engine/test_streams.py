"""The retired batching surface.

The deleted engines, selectors, knobs, hooks and capability records fail
loudly, and cells they stored (or stored under an older stream version)
re-simulate exactly once, on both store backends.  The golden stream pins
live in the engine conformance suite (``test_conformance.py``).
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro import cli
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import ENGINES, simulate, simulate_batch
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols import base as protocol_base
from repro.scenarios import (
    ChaosStore,
    JsonlStore,
    RemoteStore,
    Scenario,
    Session,
    SqliteStore,
)
from repro.scenarios.spec import build_protocol
from repro.scenarios.store import StoredRun, open_store
from repro.service import create_server

OFA = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")


def _legacy(results, engine: str | int | None = None) -> list:
    """Results as an older store holds them.

    ``None``: written before stream versions (version 1); a number: the
    window engine's runs under that older stream version; a name: a retired
    batched engine's runs, with their ``batch_reps``.
    """
    legacy = []
    for result in results:
        metadata = {key: value for key, value in result.metadata.items() if key != "stream_version"}
        if isinstance(engine, int):
            metadata["stream_version"] = engine
        elif engine is not None:
            metadata["batch_reps"] = len(results)
        legacy.append(
            dataclasses.replace(
                result, engine=engine if isinstance(engine, str) else result.engine,
                metadata=metadata,
            )
        )
    return legacy


class TestRetiredSurface:
    """The batched engines, their knobs and hooks, the capability records, and
    the cells they stored."""

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
        for command in ("figure1", "table1"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main([command, flag])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_windowed_fuse_hook_is_gone(self):
        assert not hasattr(ExpBackonBackoff(), "fused_schedule_key")
        assert not hasattr(build_protocol("loglog-iterated-backoff", k=16), "fused_schedule_key")

    def test_batched_fair_engine_surface_is_gone(self):
        import repro
        import repro.engine

        for module in (repro, repro.engine):
            assert not hasattr(module, "MegaFairEngine")
            assert not hasattr(module, "batch_engine_for")
        assert not hasattr(protocol_base, "FairBatchState")
        for name in ("one-fail-adaptive", "log-fails-adaptive", "slotted-aloha"):
            assert not hasattr(build_protocol(name, k=16), "make_fused_batch_state")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.megabatch")

    def test_engine_registry_is_gone(self):
        import repro
        import repro.engine

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.registry")
        for module in (repro, repro.engine):
            for name in ("EngineCapabilities", "EngineRegistry", "engine_capabilities"):
                assert not hasattr(module, name), (module.__name__, name)
        for cls in ENGINES.values():
            assert not hasattr(cls, "capabilities")

    def test_store_capabilities_are_gone(self):
        import repro.scenarios
        import repro.scenarios.store

        for module in (repro.scenarios, repro.scenarios.store):
            assert not hasattr(module, "StoreCapabilities")
        for cls in (JsonlStore, SqliteStore, ChaosStore, RemoteStore):
            assert not hasattr(cls, "capabilities")

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
            ("exp-backon-backoff k=30 reps=4 seed=5", 2),  # stream-2 window runs
            ("exp-backon-backoff k=30 reps=4 seed=5", 3),  # stream-3 window runs
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
