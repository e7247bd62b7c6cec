"""Stream pins and the retired batching surface.

* **Golden streams** — fixed cells reproduce pinned makespans exactly, on
  the fair and window engines' compiled and Python paths alike and on the
  slot engine's station loop, so a change to an engine's draw order cannot
  slip through and silently invalidate stored results: it must bump the
  engine's ``stream_version``.
* **Retired surface** — the deleted engines, selectors, knobs, hooks and
  capability records fail loudly, and cells they stored (or stored under an
  older stream version) re-simulate exactly once, on both store backends.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

import repro.engine.native as native
import repro.engine.window_engine as window_module
from repro import cli
from repro.channel.arrivals import PoissonArrival
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import ENGINES, simulate, simulate_batch
from repro.engine.fair_engine import FairEngine
from repro.engine.slot_engine import SlotEngine
from repro.engine.window_engine import WindowEngine
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
from repro.scenarios.spec import build_channel, build_protocol
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


class _NoLibrary:
    """The kernel loader of a host without a C compiler."""

    def get(self) -> None:
        return None


def _window_runs(path: str, spec: str, k: int, seeds, max_slots: int | None = None) -> list:
    """WindowEngine's runs of each seed, all on the given ball-throw ``path``."""
    counter = window_module._M_WINDOW_RUNS.labels(path=path)
    before = counter.value
    with pytest.MonkeyPatch.context() as patch:
        if path == "python":
            patch.setattr(native, "KERNEL", _NoLibrary())
        results = [
            WindowEngine().simulate(build_protocol(spec, k=k), k, seed=seed, max_slots=max_slots)
            for seed in seeds
        ]
    assert counter.value - before == len(seeds), f"not every run took the {path} path"
    return results


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
            ("exp-backon-backoff", 70, 5, 3, [337, 322, 344]),
            ("loglog-iterated-backoff", 300, 6, 3, [1886, 1861, 1855]),
            ("exponential-backoff", 90, 4, 2, [842, 507]),
            ("polynomial-backoff", 80, 3, 3, [367, 371, 366]),
            ("log-backoff", 110, 7, 2, [520, 593]),
        ],
    )
    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_window_stream_version_3(self, path, spec, k, root, reps, makespans):
        assert WindowEngine.stream_version == 3
        results = _window_runs(path, spec, k, derive_seeds(root, reps))
        assert [result.makespan for result in results] == makespans, self.BUMP

    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_window_stream_version_3_capped_counts(self, path):
        """A window cut by the cap simulates only its slots before it."""
        results = _window_runs(path, "exp-backon-backoff", 200, derive_seeds(7, 3), max_slots=400)
        assert not any(result.solved for result in results)
        assert [
            (result.slots_simulated, result.successes, result.collisions, result.silences)
            for result in results
        ] == [(400, 32, 355, 13), (400, 32, 352, 16), (400, 31, 353, 16)], self.BUMP

    @pytest.mark.parametrize(
        "spec,k,channel,makespans",
        [
            ("one-fail-adaptive", 20, "default", [108, 87, 92]),
            ("exp-backon-backoff", 20, "default", [82, 80, 80]),
            ("binary-splitting", 16, "cd", [53, 42, 47]),
        ],
    )
    def test_slot_stream_version_1(self, spec, k, channel, makespans):
        assert SlotEngine.stream_version == 1
        results = [
            simulate(build_protocol(spec, k=k), k, seed=seed, engine="slot",
                     channel=build_channel(channel))
            for seed in derive_seeds(3, 3)
        ]
        assert [result.makespan for result in results] == makespans, self.BUMP

    def test_slot_stream_version_1_capped_counts(self):
        results = [
            simulate(OneFailAdaptive(), 30, seed=seed, engine="slot", max_slots=40)
            for seed in derive_seeds(3, 3)
        ]
        assert not any(result.solved for result in results)
        assert [
            (result.slots_simulated, result.successes, result.collisions, result.silences)
            for result in results
        ] == [(40, 1, 38, 1), (40, 3, 34, 3), (40, 3, 36, 1)], self.BUMP

    def test_slot_stream_version_1_poisson_latencies(self):
        result = simulate(
            OneFailAdaptive(), 16, seed=derive_seeds(3, 3)[0],
            arrivals=PoissonArrival(k=16, rate=0.2),
        )
        assert result.engine == "slot"
        assert result.makespan == 111, self.BUMP
        assert result.metadata["latencies"] == (
            1, 0, 1, 0, 0, 1, 0, 0, 1, 10, 7, 0, 0, 0, 0, 0
        ), self.BUMP

    def test_slot_stream_version_1_trace(self):
        """Every record of a traced run: (transmitters, outcome, active_before,
        delivered_node), the station index of a delivery included."""
        trace = ExecutionTrace()
        result = simulate(
            OneFailAdaptive(), 6, seed=derive_seeds(3, 3)[0], engine="slot", trace=trace
        )
        assert result.makespan == 25, self.BUMP
        C, S, X = "collision", "silence", "success"
        assert [
            (record.transmitters, record.outcome.value, record.active_before,
             record.delivered_node)
            for record in trace
        ] == [
            (2, C, 6, None), (6, C, 6, None), (0, S, 6, None), (6, C, 6, None),
            (2, C, 6, None), (6, C, 6, None), (0, S, 6, None), (6, C, 6, None),
            (1, X, 6, 1), (4, C, 5, None), (0, S, 5, None), (3, C, 5, None),
            (0, S, 5, None), (4, C, 5, None), (0, S, 5, None), (1, X, 5, 2),
            (0, S, 4, None), (1, X, 4, 0), (0, S, 3, None), (0, S, 3, None),
            (2, C, 3, None), (0, S, 3, None), (1, X, 3, 3), (1, X, 2, 5),
            (1, X, 1, 4),
        ], self.BUMP
        assert [record.slot for record in trace] == list(range(25))


def _legacy(results, engine: str | None = None) -> list:
    """Results as an older store holds them.

    ``None``: written before stream versions (version 1); ``"window"``: the
    window engine's stream-2 runs; any other name: a retired batched engine's
    runs, with their ``batch_reps``.
    """
    legacy = []
    for result in results:
        metadata = {key: value for key, value in result.metadata.items() if key != "stream_version"}
        if engine == "window":
            metadata["stream_version"] = 2
        elif engine is not None:
            metadata["batch_reps"] = len(results)
        legacy.append(
            dataclasses.replace(result, engine=engine or result.engine, metadata=metadata)
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
            ("exp-backon-backoff k=30 reps=4 seed=5", "window"),  # stream-2 window runs
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
