"""Tests for the batched fair engine, ``mega``, and the batching it serves.

Six contracts are pinned here:

* **Exact rows** — every fused row equals the per-run
  ``FairEngine.simulate(protocol, k, seed, max_slots)`` of its seed in all
  six counters (and so in the whole result), for every batch-eligible fair
  protocol: alone, in a mixed group, across a draw-block boundary, at
  k = 1, 2, 150 and 10⁴, and with a binding cap.
* **Golden streams** — fixed cells reproduce pinned makespans exactly, so a
  change to an engine's draw order cannot slip through and silently
  invalidate stored results: it must bump the engine's ``stream_version``.
* **Occupancy metric** — the window engine counts one occupancy sample per
  window and mode, incremented once per run.
* **Eligibility and rejection** — the registry's one predicate,
  :func:`batch_engine_for`, and the engine's own checks.
* **Routing** — the Session/sweep layer fuses fair groups of at least four
  replications (always under ``engine="mega"``, never under
  ``engine="fair"``), runs everything else per run, and every path yields
  the same runs.
* **Retired surface** — the deleted engines, selectors and knobs fail
  loudly, and cells they stored (or stored under an older stream version)
  re-simulate exactly once, on both store backends.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np
import pytest

import repro.engine.window_engine as window_engine
from repro.channel.arrivals import PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import pick_engine, simulate, simulate_batch, simulate_megabatch
from repro.engine.fair_engine import _DRAW_BLOCK, FairEngine
from repro.engine.megabatch import FusedCell, MegaFairEngine
from repro.engine.registry import batch_engine_for
from repro.engine.window_engine import WindowEngine
from repro.experiments import figure1, table1
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.obs import REGISTRY
from repro.protocols import base as protocol_base
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import (
    FairBatchState,
    FairProtocol,
    available_protocols,
    build_protocol,
)
from repro.scenarios import Scenario, Session
from repro.scenarios.store import StoredRun, open_store
from repro.service import create_server
from repro.util.rng import derive_seeds

#: Every batch-eligible fair protocol: both Log-fails Adaptive variants of
#: the paper's suite are distinct parameterisations that must nonetheless
#: share one fuse key; slotted ALOHA runs both with and without delivery
#: tracking.
FAIR_SPECS = [
    pytest.param("one-fail-adaptive", id="ofa"),
    pytest.param("log-fails-adaptive(xi_t=0.5)", id="lfa-xt2"),
    pytest.param("log-fails-adaptive(xi_t=0.1)", id="lfa-xt10"),
    pytest.param("slotted-aloha", id="aloha"),
    pytest.param("slotted-aloha(track_deliveries=False)", id="aloha-static"),
]


def _fused_cell(spec: str, k: int, seeds, max_slots: int | None = None) -> FusedCell:
    return FusedCell(protocol=build_protocol(spec, k=k), k=k, seeds=tuple(seeds), max_slots=max_slots)


def _per_run(spec: str, k: int, seeds, max_slots: int | None = None) -> list:
    return [
        FairEngine().simulate(build_protocol(spec, k=k), k, seed=seed, max_slots=max_slots)
        for seed in seeds
    ]


def _fused_rows() -> float:
    family = REGISTRY.snapshot().get("repro_megabatch_rows_total", {})
    return family.get("series", {}).get('{engine="mega"}', 0.0)


def _cap(spec: str, k: int) -> int | None:
    """Static ALOHA at large k runs for ~k·ln k slots; a cap keeps it short."""
    return 20 * k if "track_deliveries=False" in spec and k > 100 else None


class TestExactRows:
    """Fused rows are FairEngine runs, result for result."""

    def test_specs_cover_every_batchable_registered_protocol(self):
        covered = {build_protocol(case.values[0], k=16).name for case in FAIR_SPECS}
        batchable = {
            name
            for name in available_protocols()
            if batch_engine_for(build_protocol(name, k=16)) is not None
        }
        assert batchable == covered

    @pytest.mark.parametrize("k", [1, 2, 150, 10_000])
    @pytest.mark.parametrize("spec", FAIR_SPECS)
    def test_rows_equal_per_run_simulations(self, spec, k):
        seeds = derive_seeds(k, 2 if k == 10_000 else 6)
        cap = _cap(spec, k)
        (fused,) = MegaFairEngine().simulate_fused([_fused_cell(spec, k, seeds, cap)])
        assert fused == _per_run(spec, k, seeds, cap)

    @pytest.mark.parametrize("spec", FAIR_SPECS)
    def test_rows_equal_per_run_simulations_in_a_mixed_group(self, spec):
        # Cells of other sizes, caps and (for LFA) parameters share the
        # kernel; none of it may leak into a row.
        protocol_class = type(build_protocol(spec, k=16))
        members = [
            (sibling, _fused_cell(sibling, k, derive_seeds(index * 10 + k, 3), max_slots=cap))
            for index, sibling in enumerate(
                case.values[0]
                for case in FAIR_SPECS
                if type(build_protocol(case.values[0], k=16)) is protocol_class
            )
            for k, cap in ((9, None), (300, None), (60, 200))
        ]
        fused = MegaFairEngine().simulate_fused([cell for _, cell in members])
        for (sibling, cell), results in zip(members, fused):
            assert results == _per_run(sibling, cell.k, cell.seeds, cell.max_slots)

    @pytest.mark.parametrize("spec", FAIR_SPECS)
    def test_rows_equal_per_run_simulations_at_a_binding_cap(self, spec):
        k, seeds = 64, derive_seeds(11, 8)
        per_run = _per_run(spec, k, seeds)
        cap = sorted(result.slots_simulated for result in per_run)[len(per_run) // 2]
        (fused,) = MegaFairEngine().simulate_fused([_fused_cell(spec, k, seeds, cap)])
        capped = _per_run(spec, k, seeds, cap)
        assert fused == capped
        assert any(result.solved for result in capped)
        assert not all(result.solved for result in capped)
        for result in fused:
            if not result.solved:
                assert result.slots_simulated == cap

    def test_rows_equal_per_run_simulations_across_draw_blocks(self):
        # k=400 OFA runs for thousands of slots — several block refills —
        # next to a sibling that retires inside the first block.
        cell = _fused_cell("one-fail-adaptive", 400, derive_seeds(6, 2))
        sibling = _fused_cell("one-fail-adaptive", 10, derive_seeds(8, 2))
        fused = MegaFairEngine().simulate_fused([cell, sibling])
        assert fused[0] == _per_run("one-fail-adaptive", 400, cell.seeds)
        assert min(result.makespan for result in fused[0]) > 2 * _DRAW_BLOCK
        assert fused[1] == _per_run("one-fail-adaptive", 10, sibling.seeds)

    def test_row_does_not_depend_on_its_group(self):
        cell = _fused_cell("one-fail-adaptive", 70, derive_seeds(5, 3))
        alone = MegaFairEngine().simulate_fused([cell])
        grouped = MegaFairEngine().simulate_fused(
            [_fused_cell("one-fail-adaptive", 140, derive_seeds(9, 3)), cell]
        )
        assert grouped[1] == alone[0]
        prefix = dataclasses.replace(cell, seeds=cell.seeds[:1])
        assert MegaFairEngine().simulate_fused([prefix])[0] == alone[0][:1]


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
        per_run = [result.makespan for result in _per_run(spec, k, seeds)]
        assert per_run == makespans, self.BUMP
        (fused,) = simulate_megabatch([_fused_cell(spec, k, seeds)])
        assert [result.makespan for result in fused] == makespans

    def test_fair_stream_version_1_capped_counts(self):
        """Rows cut off by the cap keep their (slots, successes, collisions, silences)."""
        seeds = derive_seeds(4, 3)
        counts = [(300, 32, 255, 13), (300, 29, 245, 26), (300, 30, 253, 17)]
        per_run = _per_run("one-fail-adaptive", 100, seeds, max_slots=300)
        (fused,) = simulate_megabatch([_fused_cell("one-fail-adaptive", 100, seeds, 300)])
        for results in (per_run, fused):
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


_OCCUPANCY_MODES = ("ball-throw", "saturated", "multinomial")


def _occupancy_counts() -> dict[str, float]:
    return {
        mode: window_engine._M_OCCUPANCY.labels(mode=mode).value for mode in _OCCUPANCY_MODES
    }


class TestOccupancyMetric:
    """``repro_window_occupancy_total`` counts every window once, by sampler."""

    def test_large_cell_walks_every_sampler(self):
        before = _occupancy_counts()
        results = [
            WindowEngine().simulate(ExpBackonBackoff(), 4096, seed=seed)
            for seed in derive_seeds(3, 10)
        ]
        after = _occupancy_counts()
        assert [result.makespan for result in results] == [
            21639, 21654, 21574, 21683, 21654, 21808, 21628, 21672, 21661, 21259,
        ]
        deltas = {mode: after[mode] - before[mode] for mode in _OCCUPANCY_MODES}
        assert deltas == {"ball-throw": 200, "saturated": 850, "multinomial": 80}
        assert sum(deltas.values()) == sum(result.metadata["windows"] for result in results)

    @pytest.mark.parametrize(
        "spec",
        ["exp-backon-backoff", "exponential-backoff", "polynomial-backoff", "log-backoff",
         "loglog-iterated-backoff"],
    )
    def test_incremented_once_per_run_and_mode(self, spec, monkeypatch):
        increments = []

        class SpyFamily:
            def labels(self, mode):
                return SpyChild(mode)

        class SpyChild:
            def __init__(self, mode):
                self.mode = mode

            def inc(self, amount=1.0):
                increments.append(self.mode)

        monkeypatch.setattr(window_engine, "_M_OCCUPANCY", SpyFamily())
        result = WindowEngine().simulate(build_protocol(spec, k=300), 300, seed=3)
        assert result.metadata["windows"] > len(_OCCUPANCY_MODES)
        assert len(increments) == len(set(increments)) <= len(_OCCUPANCY_MODES)


class TestResultStructure:
    @pytest.mark.parametrize("spec", FAIR_SPECS)
    def test_solved_run_invariants(self, spec):
        k, seeds = 150, derive_seeds(3, 20)
        results = simulate_batch(build_protocol(spec, k=k), k, seeds, max_slots=_cap(spec, k))
        assert [result.seed for result in results] == seeds
        for result in results:
            assert result.solved
            assert result.k == k
            assert result.successes == k
            assert result.slots_simulated == result.makespan
            assert (
                result.successes + result.collisions + result.silences
                == result.slots_simulated
            )
            assert result.engine == "fair"
            assert result.metadata == {"stream_version": 1}

    def test_deterministic_given_seeds(self):
        cells = [_fused_cell("one-fail-adaptive", 40, derive_seeds(5, 4))]
        assert simulate_megabatch(cells) == simulate_megabatch(cells)

    def test_per_cell_caps_bind_independently(self):
        """A capped cell retires while its uncapped sibling keeps stepping."""
        capped = _fused_cell("one-fail-adaptive", 100, derive_seeds(4, 3), max_slots=20)
        free = _fused_cell("one-fail-adaptive", 30, derive_seeds(5, 3))
        fused = MegaFairEngine().simulate_fused([capped, free])
        assert all(not result.solved and result.slots_simulated == 20 for result in fused[0])
        assert all(result.solved for result in fused[1])

    def test_silent_protocol_burns_to_the_cap(self):
        """p = 0 must censor at the cap with every slot silent, not loop forever."""
        results = MegaFairEngine().simulate_fused(
            [FusedCell(NeverTransmit(), 5, (1, 2, 3), max_slots=40)]
        )[0]
        assert results == [
            FairEngine().simulate(NeverTransmit(), 5, seed=seed, max_slots=40) for seed in (1, 2, 3)
        ]
        for result in results:
            assert not result.solved
            assert result.slots_simulated == 40
            assert result.silences == 40

    def test_prototype_not_mutated(self):
        prototype = OneFailAdaptive()
        MegaFairEngine().simulate_fused([FusedCell(prototype, 50, tuple(derive_seeds(0, 4)))])
        assert prototype.messages_received == 0

    def test_simulate_batch_is_a_group_of_one(self):
        seeds = derive_seeds(7, 4)
        via_batch = simulate_batch(OneFailAdaptive(), 40, seeds)
        (via_fused,) = MegaFairEngine().simulate_fused(
            [FusedCell(OneFailAdaptive(), 40, tuple(seeds), 400_000)]
        )
        assert via_batch == via_fused

    def test_single_run_via_simulate(self):
        result = MegaFairEngine().simulate(OneFailAdaptive(), 20, seed=3)
        assert result == FairEngine().simulate(OneFailAdaptive(), 20, seed=3)
        result = MegaFairEngine().simulate(SlottedAloha(k=1), 1, seed=0)
        assert result.solved and result.makespan == 1


class TestWindowEngineTraces:
    @pytest.mark.parametrize("k", [1, 2, 40, 2048])
    def test_traced_and_untraced_runs_are_equal(self, k):
        # k=2048 walks saturated and multinomial windows as well as ball
        # throws; tracing must not change a single draw.
        for seed in derive_seeds(k, 3):
            trace = ExecutionTrace()
            traced = WindowEngine().simulate(ExpBackonBackoff(), k, seed=seed, trace=trace)
            assert traced == WindowEngine().simulate(ExpBackonBackoff(), k, seed=seed)
            assert len(trace) == traced.slots_simulated
            assert trace.successes == traced.successes

    def test_saturated_windows_are_traced_as_collisions(self):
        trace = ExecutionTrace()
        before = _occupancy_counts()["saturated"]
        WindowEngine().simulate(ExpBackonBackoff(), 2048, seed=1, trace=trace)
        assert _occupancy_counts()["saturated"] > before
        collisions = [record for record in trace if record.outcome.name == "COLLISION"]
        assert {record.transmitters for record in collisions} >= {2}


class _SilentState(FairBatchState):
    def __init__(self, rows: int) -> None:
        self.rows = rows

    def probabilities(self, slot):
        return np.zeros(self.rows)

    def observe_receptions(self, slot, received, received_any=None, received_rows=None):
        return None

    def compact(self, keep):
        self.rows = int(np.count_nonzero(keep))


class NeverTransmit(FairProtocol):
    name: ClassVar[str] = "test-mega-never-transmit"

    def reset(self):
        pass

    def transmission_probability(self, slot):
        return 0.0

    def notify(self, observation):
        pass

    @classmethod
    def make_fused_batch_state(cls, protocols, counts):
        return _SilentState(sum(counts))


class PlainFair(FairProtocol):
    """A fair protocol without a batched kernel."""

    name: ClassVar[str] = "test-mega-plain-fair"

    def __init__(self, k: int = 40) -> None:
        self.k = k
        self.reset()

    @classmethod
    def from_spec(cls, k, **params):
        return cls(k=k)

    def reset(self):
        self._remaining = self.k

    def transmission_probability(self, slot):
        return 1.0 / max(self._remaining, 1)

    def notify(self, observation):
        if observation.received:
            self._remaining = max(self._remaining - 1, 1)


class TestEligibilityAndRejection:
    def test_supports_matrix(self):
        assert MegaFairEngine.supports(OneFailAdaptive())
        assert MegaFairEngine.supports(build_protocol("log-fails-adaptive(xi_t=0.5)", k=16))
        assert MegaFairEngine.supports(SlottedAloha(k=16))
        assert not MegaFairEngine.supports(PlainFair())
        assert not MegaFairEngine.supports(ExpBackonBackoff())

    def test_batch_engine_for_routing(self):
        assert batch_engine_for(OneFailAdaptive()) == "mega"
        assert batch_engine_for(SlottedAloha(k=16)) == "mega"
        assert batch_engine_for(ExpBackonBackoff()) is None
        assert batch_engine_for(PlainFair()) is None
        assert batch_engine_for(OneFailAdaptive(), engine="mega") == "mega"
        assert batch_engine_for(OneFailAdaptive(), engine="fair") is None
        assert (
            batch_engine_for(OneFailAdaptive(), arrivals=PoissonArrival(k=10, rate=0.5))
            is None
        )

    def test_fair_fuse_key_is_the_protocol_class(self):
        xt2 = build_protocol("log-fails-adaptive(xi_t=0.5)", k=16)
        xt10 = build_protocol("log-fails-adaptive(xi_t=0.1)", k=16)
        assert MegaFairEngine.fuse_key(xt2) == MegaFairEngine.fuse_key(xt10)
        assert MegaFairEngine.fuse_key(xt2) != MegaFairEngine.fuse_key(OneFailAdaptive())

    def test_wrong_kind_rejected(self):
        with pytest.raises(TypeError):
            MegaFairEngine().simulate_fused([_fused_cell("exp-backon-backoff", 10, [0, 1])])

    def test_protocol_without_kernel_rejected(self):
        with pytest.raises(ValueError, match="fused kernel"):
            MegaFairEngine().simulate_fused([FusedCell(PlainFair(), 20, (1, 2))])

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError, match="one protocol class"):
            MegaFairEngine().simulate_fused(
                [
                    _fused_cell("one-fail-adaptive", 20, [1, 2]),
                    _fused_cell("log-fails-adaptive(xi_t=0.5)", 20, [3, 4]),
                ]
            )

    def test_empty_group_and_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            MegaFairEngine().simulate_fused([])
        with pytest.raises(ValueError, match="at least one fused cell"):
            simulate_megabatch([])
        with pytest.raises(ValueError, match="at least one seed"):
            _fused_cell("one-fail-adaptive", 20, [])
        with pytest.raises(ValueError, match="at least one seed"):
            simulate_batch(OneFailAdaptive(), 10, [])

    def test_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            MegaFairEngine().simulate(OneFailAdaptive(), 20, seed=0, trace=ExecutionTrace())

    def test_requires_paper_channel(self):
        with pytest.raises(ValueError):
            MegaFairEngine(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))
        with pytest.raises(ValueError):
            MegaFairEngine(channel=ChannelModel(acknowledgements=False))


class TestFrontDoors:
    def test_simulate_megabatch_auto_routes(self):
        cells = [
            _fused_cell("one-fail-adaptive", 30, derive_seeds(1, 2)),
            _fused_cell("one-fail-adaptive", 60, derive_seeds(2, 2)),
        ]
        before = _fused_rows()
        results = simulate_megabatch(cells)
        assert _fused_rows() - before == 4
        assert len(results) == len(cells)
        assert all(result.engine == "fair" for group in results for result in group)

    def test_simulate_batch_routes_fair_cells_only(self):
        assert {r.engine for r in simulate_batch(OneFailAdaptive(), 30, [0, 1, 2])} == {"fair"}
        assert {r.engine for r in simulate_batch(SlottedAloha(k=30), 30, [0, 1])} == {"fair"}
        with pytest.raises(ValueError, match="no batched engine"):
            simulate_batch(ExpBackonBackoff(), 30, [0, 1])

    def test_selector_problems_diagnosed(self):
        # A per-run selector is a selector problem, not a kernel problem.
        with pytest.raises(ValueError, match="not a batched engine"):
            simulate_batch(ExpBackonBackoff(), 10, [0, 1], engine="window")
        with pytest.raises(ValueError, match="not a batched engine"):
            simulate_megabatch([_fused_cell("one-fail-adaptive", 30, [1, 2])], engine="fair")
        # A typo gets the registry's enumerating unknown-engine error.
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_batch(OneFailAdaptive(), 10, [0, 1], engine="bacth")

    def test_protocol_without_kernel_diagnosed(self):
        with pytest.raises(ValueError, match="no batched engine"):
            simulate_megabatch([FusedCell(PlainFair(), 30, (1, 2))])

    def test_pick_engine_and_simulate_accept_the_batched_selector(self):
        assert isinstance(pick_engine(OneFailAdaptive(), engine="mega"), MegaFairEngine)
        assert simulate(OneFailAdaptive(), k=30, seed=1, engine="mega") == simulate(
            OneFailAdaptive(), k=30, seed=1
        )

    def test_auto_never_picks_a_batched_engine_for_single_runs(self):
        assert simulate(OneFailAdaptive(), k=30, seed=1).engine == "fair"
        assert simulate(ExpBackonBackoff(), k=30, seed=1).engine == "window"

    def test_batched_selector_rejected_where_it_cannot_serve(self):
        with pytest.raises(ValueError, match="protocol kinds"):
            pick_engine(ExpBackonBackoff(), engine="mega")
        with pytest.raises(ValueError):
            pick_engine(
                OneFailAdaptive(), engine="mega", arrivals=PoissonArrival(k=10, rate=0.5)
            )


@pytest.fixture
def plain_fair_registered(monkeypatch):
    """Register the kernel-less fair protocol for the test's duration only."""
    monkeypatch.setitem(protocol_base._REGISTRY, PlainFair.name, PlainFair)


def _engines(sweep, key: str, k: int) -> set[str]:
    return {result.engine for result in sweep.cell(key, k).results}


class TestSweepRouting:
    CONFIG = ExperimentConfig(k_values=[20, 40], runs=3, seed=17)
    OFA = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")
    EBB = ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff")

    def test_fair_groups_of_four_rows_fuse(self):
        # Two cells × three replications: six rows of one fuse key, one kernel.
        before = _fused_rows()
        sweep = run_sweep([self.OFA, self.EBB], self.CONFIG)
        assert _fused_rows() - before == 6
        for k in self.CONFIG.k_values:
            assert _engines(sweep, "ofa", k) == {"fair"}
            assert _engines(sweep, "ebb", k) == {"window"}

    def test_small_groups_run_per_run_and_agree(self):
        config = ExperimentConfig(k_values=[20], runs=3, seed=17)
        before = _fused_rows()
        small = run_sweep([self.OFA], config)
        assert _fused_rows() == before
        forced = run_sweep([self.OFA], config, engine="mega")
        assert _fused_rows() - before == 3
        assert small.cell("ofa", 20).results == forced.cell("ofa", 20).results

    def test_explicit_per_run_selector_never_fuses(self):
        before = _fused_rows()
        sweep = run_sweep([self.OFA], self.CONFIG, engine="fair")
        assert _fused_rows() == before
        fused = run_sweep([self.OFA], self.CONFIG)
        for k in self.CONFIG.k_values:
            assert sweep.cell("ofa", k).results == fused.cell("ofa", k).results

    def test_protocol_without_kernel_falls_back_to_per_run(self, plain_fair_registered):
        spec = ProtocolSpec(key="plain", label="Plain", spec=PlainFair.name)
        sweep = run_sweep([spec], self.CONFIG)
        assert _engines(sweep, "plain", 40) == {"fair"}

    def test_arrivals_route_to_slot_engine(self):
        config = ExperimentConfig(k_values=[12], runs=2, seed=17)
        sweep = run_sweep([self.OFA], config, arrivals="poisson(rate=0.2)")
        assert _engines(sweep, "ofa", 12) == {"slot"}

    def test_batched_sweep_bit_identical_across_workers(self):
        serial = run_sweep([self.OFA, self.EBB], self.CONFIG, workers=1)
        pooled = run_sweep([self.OFA, self.EBB], self.CONFIG, workers=2)
        for key in serial.cells:
            assert serial.cells[key].results == pooled.cells[key].results

    def test_progress_counts_per_run(self):
        calls = []
        run_sweep(
            [self.OFA],
            ExperimentConfig(k_values=[40], runs=4, seed=17),
            progress=lambda s, k, done, total: calls.append((s.key, k, done, total)),
        )
        assert calls == [("ofa", 40, done, 4) for done in (1, 2, 3, 4)]


class TestSessionStore:
    GRID = [
        "one-fail-adaptive k=20 reps=3 seed=5",
        "one-fail-adaptive k=45 reps=3 seed=5",
        "one-fail-adaptive k=70 reps=3 seed=5",
    ]

    def scenarios(self) -> list[Scenario]:
        return [Scenario.parse(text) for text in self.GRID]

    def test_fused_results_scatter_into_per_cell_store_records(self, tmp_path):
        scenarios = self.scenarios() + [Scenario.parse("exp-backon-backoff k=50 reps=3 seed=5")]
        stored = Session(store_dir=tmp_path).run_all(scenarios)
        assert [rs.engine_used for rs in stored] == ["fair"] * 3 + ["window"]
        resumed = Session(store_dir=tmp_path).run_all(scenarios)
        for first, second in zip(stored, resumed):
            assert second.cached_runs == 3 and second.new_runs == 0
            assert first.results == second.results

    def test_interrupted_sweep_resimulates_only_missing_cells(self, tmp_path):
        """A sweep killed mid-grid resumes bit-identically: cached cells are
        served from the store and only the missing ones are simulated."""
        full = self.scenarios()
        Session(store_dir=tmp_path).run_all(full[:1])  # the "killed" partial sweep
        resumed = Session(store_dir=tmp_path).run_all(full)
        assert resumed[0].cached_runs == 3 and resumed[0].new_runs == 0
        assert all(rs.cached_runs == 0 and rs.new_runs == 3 for rs in resumed[1:])
        fresh = Session().run_all(full)
        for resumed_set, fresh_set in zip(resumed, fresh):
            assert resumed_set.results == fresh_set.results


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
    """The windowed batch engine, the ``batch`` knob and their stored cells."""

    @pytest.mark.parametrize("selector", ["batch", "batch-window", "mega-window"])
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
            run_sweep([TestSweepRouting.OFA], config, **{knob: False})
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


class TestWindowedProtocolsStayPerRun:
    """Windowed cells never batch; every windowed protocol runs on ``window``."""

    @pytest.mark.parametrize(
        "spec",
        ["exp-backon-backoff", "exponential-backoff", "polynomial-backoff", "log-backoff",
         "loglog-iterated-backoff"],
    )
    def test_session_runs_windowed_cells_on_window(self, spec):
        result_set = Session().run(Scenario(protocol=spec, k=40, replications=5, seed=3))
        assert result_set.engine_used == "window"
        assert all(result.metadata["stream_version"] == 2 for result in result_set.results)
