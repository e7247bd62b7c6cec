"""Tests for the O(1)-per-slot fair-protocol engine.

Besides the engine's own behaviour, this pins its two slot loops against
each other: the compiled loop (``fair_kernel.c``) must equal the Python loop
in every result field for every protocol it implements, in one kernel call
per run, while it classifies most slots from bounds and calls ``pow`` only
for the few its bounds cannot settle; and everything it
does not serve — traced runs, subclasses, other fair protocols — must take
the Python loop and say so in ``repro_fair_runs_total{path}``.  The shared
library's build, cache and failed-build fallback are tested in
``test_native.py``.
"""

from __future__ import annotations

import ctypes
import dataclasses
from typing import ClassVar

import numpy as np
import pytest

import repro.engine.fair_engine as fair_module
import repro.engine.native as native
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import FusedCell, simulate, simulate_batch, simulate_megabatch
from repro.engine.fair_engine import _DRAW_BLOCK, _KERNEL_PROTOCOLS, FairEngine
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import FairProtocol
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.scenarios import Scenario, Session
from repro.scenarios.spec import PROTOCOLS, build_protocol
from repro.util.rng import derive_seeds
from repro.util.validation import DEFAULT_MAX_SLOTS_FACTOR

class TestBasicOperation:
    @pytest.mark.parametrize("k", [1, 2, 10, 500])
    def test_solves_and_counts(self, k, fair_engine):
        result = fair_engine.simulate(OneFailAdaptive(), k, seed=1)
        assert result.solved
        assert result.successes == k
        assert result.makespan >= k
        assert result.successes + result.collisions + result.silences == result.slots_simulated

    def test_engine_name_recorded(self, fair_engine):
        result = fair_engine.simulate(OneFailAdaptive(), 5, seed=1)
        assert result.engine == "fair"
        assert result.protocol == "one-fail-adaptive"

    def test_deterministic_given_seed(self, fair_engine):
        a = fair_engine.simulate(OneFailAdaptive(), 100, seed=9)
        b = fair_engine.simulate(OneFailAdaptive(), 100, seed=9)
        assert a.makespan == b.makespan

    def test_different_seeds_differ(self, fair_engine):
        makespans = {
            fair_engine.simulate(OneFailAdaptive(), 100, seed=seed).makespan for seed in range(5)
        }
        assert len(makespans) > 1

    def test_prototype_not_mutated(self, fair_engine):
        prototype = OneFailAdaptive()
        fair_engine.simulate(prototype, 50, seed=0)
        assert prototype.messages_received == 0

    def test_single_node_aloha_finishes_in_one_slot(self, fair_engine):
        result = fair_engine.simulate(SlottedAloha(k=1), 1, seed=0)
        assert result.makespan == 1

    def test_works_for_log_fails_adaptive(self, fair_engine):
        result = fair_engine.simulate(LogFailsAdaptive.for_k(200), 200, seed=3)
        assert result.solved

    def test_invalid_k_rejected(self, fair_engine):
        with pytest.raises(ValueError):
            fair_engine.simulate(OneFailAdaptive(), 0, seed=0)


class TestProtocolClassChecks:
    def test_rejects_non_fair_protocol(self, fair_engine):
        with pytest.raises(TypeError):
            fair_engine.simulate(ExpBackonBackoff(), 10, seed=0)

    def test_rejects_state_dependent_on_own_transmission(self, fair_engine):
        class Cheater(OneFailAdaptive):
            name = "one-fail-adaptive"  # reuse registration
            state_depends_on_own_transmission = True

        with pytest.raises(ValueError):
            fair_engine.simulate(Cheater(), 10, seed=0)


class TestChannelRestrictions:
    def test_requires_no_cd_channel(self):
        with pytest.raises(ValueError):
            FairEngine(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))


class TestSlotCapAndTrace:
    def test_unsolved_when_capped(self, fair_engine):
        result = fair_engine.simulate(OneFailAdaptive(), 100, seed=0, max_slots=10)
        assert not result.solved
        assert result.slots_simulated == 10

    def test_trace_collected(self, fair_engine):
        trace = ExecutionTrace()
        result = fair_engine.simulate(OneFailAdaptive(), 20, seed=1, trace=trace)
        assert len(trace) == result.slots_simulated
        assert trace.successes == 20
        assert trace.success_slots()[-1] == result.makespan - 1


class TestStatisticalBehaviour:
    def test_ofa_ratio_matches_paper_at_moderate_k(self, fair_engine):
        """Table 1 reports steps/k ~= 7.4 for One-fail Adaptive at k = 10^3."""
        k = 1_000
        ratios = [
            fair_engine.simulate(OneFailAdaptive(), k, seed=seed).steps_per_node
            for seed in range(5)
        ]
        mean = sum(ratios) / len(ratios)
        assert 6.5 < mean < 8.3

    def test_makespan_scales_linearly(self, fair_engine):
        small = fair_engine.simulate(OneFailAdaptive(), 500, seed=2).makespan
        large = fair_engine.simulate(OneFailAdaptive(), 5_000, seed=2).makespan
        assert 7 < large / small < 13  # ~10x for 10x nodes


class TestFairReductionCorrectness:
    def test_collision_probability_consistency(self, fair_engine):
        """With p = 1 and several stations every slot must be a collision until capped."""

        class AlwaysTransmit(FairProtocol):
            name = "test-always-transmit"

            def reset(self):
                pass

            def transmission_probability(self, slot):
                return 1.0

            def notify(self, observation):
                pass

        result = fair_engine.simulate(AlwaysTransmit(), 5, seed=0, max_slots=50)
        assert not result.solved
        assert result.collisions == 50
        assert result.successes == 0


#: One case per rule set of every kernel protocol: One-fail Adaptive inside
#: and outside Theorem 1's range, both Log-fails Adaptive variants of the
#: paper plus an explicit ε, and ALOHA with and without delivery tracking.
KERNEL_SPECS = [
    pytest.param("one-fail-adaptive", id="ofa-2.72"),
    pytest.param("one-fail-adaptive(delta=2.9)", id="ofa-2.9"),
    pytest.param("one-fail-adaptive(delta=3.5,enforce_theorem_range=False)", id="ofa-3.5"),
    pytest.param("log-fails-adaptive(xi_t=0.5)", id="lfa-xt2"),
    pytest.param("log-fails-adaptive(xi_t=0.1)", id="lfa-xt10"),
    pytest.param("log-fails-adaptive(epsilon=0.001)", id="lfa-eps"),
    pytest.param("slotted-aloha", id="aloha"),
    pytest.param("slotted-aloha(track_deliveries=False)", id="aloha-static"),
]


#: Seeds at 32-bit word boundaries: of one, two, three and four words.
WORD_BOUNDARY_SEEDS = [2**32 - 1, 2**32, 2**64, 2**100]


def _fair_runs() -> dict[str, float]:
    return {path: fair_module._M_FAIR_RUNS.labels(path=path).value for path in ("compiled", "python")}


def _runs(spec: str, k: int, seeds, max_slots: int | None = None) -> tuple[list, list]:
    """The compiled and the Python loop's runs of each seed."""
    engine = FairEngine()
    before = _fair_runs()
    compiled = [
        engine.simulate(build_protocol(spec, k=k), k, seed=seed, max_slots=max_slots)
        for seed in seeds
    ]
    assert _fair_runs()["compiled"] - before["compiled"] == len(seeds)
    cap = max_slots if max_slots is not None else DEFAULT_MAX_SLOTS_FACTOR * k
    python = [
        engine._simulate_python(build_protocol(spec, k=k), k, seed, cap, None) for seed in seeds
    ]
    return compiled, python


class TestCompiledLoopIsExact:
    """The compiled loop's runs are the Python loop's, field for field."""

    def test_kernel_table_is_every_registered_fair_protocol(self):
        registered = {cls for cls in PROTOCOLS.values() if cls.protocol_kind == "fair"}
        assert set(_KERNEL_PROTOCOLS) == registered

    def test_cases_cover_every_kernel_protocol(self):
        covered = {type(build_protocol(case.values[0], k=16)) for case in KERNEL_SPECS}
        assert covered == set(_KERNEL_PROTOCOLS)

    @pytest.mark.parametrize("k", [1, 2, 3, 150, 10_000])
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_runs_equal_the_python_loop(self, spec, k):
        compiled, python = _runs(spec, k, derive_seeds(k, 10) + WORD_BOUNDARY_SEEDS)
        assert [result.to_dict() for result in compiled] == [
            result.to_dict() for result in python
        ]
        assert all(result.solved for result in compiled)

    @pytest.mark.parametrize("k", [1, 150, 10_000])
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_a_run_is_one_kernel_call(self, spec, k, kernel_calls):
        """The kernel draws its own uniforms: no per-block round trips."""
        result = FairEngine().simulate(build_protocol(spec, k=k), k, seed=7)
        assert result.solved
        assert kernel_calls == {"fair_simulate": 1}

    @pytest.mark.parametrize("seed", [0, *WORD_BOUNDARY_SEEDS])
    def test_the_first_call_seeds_the_run_and_later_calls_continue(self, seed):
        """The run's generator is ``PCG64(SeedSequence(seed))`` once its first
        call returns, drawless with a budget of 0 slots, and each later call
        steps it once per slot from where the last one left it."""
        library = native.KERNEL.get()
        assert library is not None
        run = fair_module._FairRun(
            remaining=100, cap=10**6, budget=0, last_delivery=-1, stream=native.stream(seed),
            **fair_module._one_fail_fields(OneFailAdaptive()),
        )
        reference = np.random.PCG64(np.random.SeedSequence(seed))
        assert library.fair_simulate(ctypes.byref(run)) == fair_module._PAUSED
        assert run.stream.generator() == reference.state
        for budget in (37, 1, 100):
            run.budget = budget
            slot = run.slot
            library.fair_simulate(ctypes.byref(run))
            reference.advance(run.slot - slot)
            assert run.stream.generator() == reference.state
        assert run.slot == 138

    @pytest.mark.parametrize("budget", [100, 97])
    @pytest.mark.parametrize("cap", [None, 300])
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_paused_calls_resume_where_they_stopped(
        self, spec, cap, budget, kernel_calls, monkeypatch
    ):
        """A call returns after ``native.SLOTS_PER_CALL`` slots and the next
        one carries on: a run takes one call per budget, and does not move.
        An odd budget pauses calls on BT steps as well as on AT steps."""
        k, seeds = 150, derive_seeds(31, 5)
        python = _runs(spec, k, seeds, max_slots=cap)[1]
        monkeypatch.setattr(native, "SLOTS_PER_CALL", budget)
        for seed, reference in zip(seeds, python):
            kernel_calls.clear()
            result = FairEngine().simulate(build_protocol(spec, k=k), k, seed=seed, max_slots=cap)
            assert result.to_dict() == reference.to_dict()
            assert kernel_calls == {"fair_simulate": -(-result.slots_simulated // budget)}

    @pytest.mark.parametrize("cap", [1, _DRAW_BLOCK, _DRAW_BLOCK + 1, "mid-run"])
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_binding_caps_cut_both_loops_alike(self, spec, cap):
        k, seeds = 1_000, derive_seeds(21, 10)
        if cap == "mid-run":
            uncapped = sorted(result.slots_simulated for result in _runs(spec, k, seeds)[1])
            cap = uncapped[len(uncapped) // 2]
        compiled, python = _runs(spec, k, seeds, max_slots=cap)
        assert [result.to_dict() for result in compiled] == [
            result.to_dict() for result in python
        ]
        assert not all(result.solved for result in compiled)
        for result in compiled:
            assert result.solved or result.slots_simulated == cap


#: The paper's protocols: One-fail Adaptive and both Log-fails Adaptive variants.
PAPER_SPECS = [
    pytest.param("one-fail-adaptive", id="ofa"),
    pytest.param("log-fails-adaptive(xi_t=0.5)", id="lfa-xt2"),
    pytest.param("log-fails-adaptive(xi_t=0.1)", id="lfa-xt10"),
]


def _kernel_run(spec: str, k: int, seed: int) -> fair_module._FairRun:
    """A compiled run, called until it ends: its ``fair_run`` struct."""
    library = native.KERNEL.get()
    assert library is not None
    protocol = build_protocol(spec, k=k)
    run = fair_module._FairRun(
        remaining=k, cap=DEFAULT_MAX_SLOTS_FACTOR * k, budget=native.SLOTS_PER_CALL,
        last_delivery=-1, stream=native.stream(seed), **_KERNEL_PROTOCOLS[type(protocol)](protocol),
    )
    while library.fair_simulate(ctypes.byref(run)) == fair_module._PAUSED:
        pass
    return run


class TestBoundedThresholds:
    """The kernel classifies a uniform from bounds on ``pow(1 - p, m - 1)``
    and calls ``pow`` only where they cannot: rarely, and exactly."""

    @pytest.mark.parametrize("spec", PAPER_SPECS)
    def test_pow_is_rare_but_taken(self, spec):
        for seed in derive_seeds(13, 3):
            run = _kernel_run(spec, 10_000, seed)
            assert run.remaining == 0
            assert 0 < run.exact < run.slot / 10

    @pytest.mark.parametrize("k", [2, 3, 10, 40])
    @pytest.mark.parametrize("spec", PAPER_SPECS)
    def test_small_networks_equal_the_python_loop(self, spec, k):
        """With few messages the estimate stays small and its steps are
        large, so the bounds are wide and ``pow`` is frequent."""
        compiled, python = _runs(spec, k, derive_seeds(500 + k, 500))
        assert [result.to_dict() for result in compiled] == [
            result.to_dict() for result in python
        ]


class OneFailVariant(OneFailAdaptive):
    """A subclass: it may override any rule, so it never runs compiled."""


class PlainFair(FairProtocol):
    """A fair protocol the kernel does not implement."""

    name: ClassVar[str] = "test-plain-fair"

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


class NeverTransmit(FairProtocol):
    name: ClassVar[str] = "test-never-transmit"

    def reset(self):
        pass

    def transmission_probability(self, slot):
        return 0.0

    def notify(self, observation):
        pass


class TestPythonFallback:
    """Runs the kernel cannot serve take the Python loop, exactly and visibly."""

    SEEDS = derive_seeds(31, 10)

    def compiled_runs(self) -> list:
        return [FairEngine().simulate(OneFailAdaptive(), 150, seed=seed) for seed in self.SEEDS]

    def test_subclass_takes_the_python_loop(self):
        expected = self.compiled_runs()
        before = _fair_runs()
        runs = [FairEngine().simulate(OneFailVariant(), 150, seed=seed) for seed in self.SEEDS]
        assert runs == expected
        assert _fair_runs()["python"] - before["python"] == len(self.SEEDS)

    def test_traced_run_takes_the_python_loop(self):
        expected = self.compiled_runs()
        before = _fair_runs()
        traces = [ExecutionTrace() for _ in self.SEEDS]
        runs = [
            FairEngine().simulate(OneFailAdaptive(), 150, seed=seed, trace=trace)
            for seed, trace in zip(self.SEEDS, traces)
        ]
        assert runs == expected
        assert _fair_runs()["python"] - before["python"] == len(self.SEEDS)
        assert [len(trace) for trace in traces] == [result.slots_simulated for result in runs]

    def test_other_fair_protocols_take_the_python_loop(self):
        before = _fair_runs()
        result = FairEngine().simulate(PlainFair(k=40), 40, seed=3)
        assert result.solved
        assert _fair_runs()["python"] - before["python"] == 1

    def test_silent_protocol_burns_to_the_cap(self):
        """p = 0 must censor at the cap with every slot silent, not loop forever."""
        for seed in (1, 2, 3):
            result = FairEngine().simulate(NeverTransmit(), 5, seed=seed, max_slots=40)
            assert not result.solved
            assert result.slots_simulated == result.silences == 40


class TestResultStructure:
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_solved_run_invariants(self, spec):
        k, seeds = 150, derive_seeds(3, 20)
        results = simulate_batch(build_protocol(spec, k=k), k, seeds)
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


def _cell(spec: str, k: int, seeds, max_slots: int | None = None) -> FusedCell:
    return FusedCell(protocol=build_protocol(spec, k=k), k=k, seeds=tuple(seeds), max_slots=max_slots)


class TestFrontDoors:
    def test_simulate_batch_is_one_run_per_seed(self):
        seeds = derive_seeds(7, 4)
        assert simulate_batch(OneFailAdaptive(), 40, seeds) == [
            simulate(OneFailAdaptive(), 40, seed=seed) for seed in seeds
        ]
        assert {r.engine for r in simulate_batch(ExpBackonBackoff(), 30, [0, 1])} == {"window"}

    def test_simulate_megabatch_is_one_batch_per_cell(self):
        cells = [
            _cell("one-fail-adaptive", 30, derive_seeds(1, 2)),
            _cell("log-fails-adaptive(xi_t=0.1)", 60, derive_seeds(2, 2)),
        ]
        results = simulate_megabatch(cells)
        assert results == [simulate_batch(cell.protocol, cell.k, cell.seeds) for cell in cells]
        assert simulate_megabatch(cells) == results

    def test_per_cell_caps_bind_independently(self):
        capped = _cell("one-fail-adaptive", 100, derive_seeds(4, 3), max_slots=20)
        free = _cell("one-fail-adaptive", 30, derive_seeds(5, 3))
        results = simulate_megabatch([capped, free])
        assert all(not result.solved and result.slots_simulated == 20 for result in results[0])
        assert all(result.solved for result in results[1])

    def test_unknown_selector_diagnosed(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_batch(OneFailAdaptive(), 10, [0, 1], engine="bacth")


@pytest.fixture
def plain_fair_registered(monkeypatch):
    """Add the kernel-less fair protocol to the table for the test's duration only."""
    monkeypatch.setitem(PROTOCOLS, PlainFair.name, PlainFair)


def _engines(sweep, key: str, k: int) -> set[str]:
    return {result.engine for result in sweep.cell(key, k).results}


class TestSweepRouting:
    CONFIG = ExperimentConfig(k_values=[20, 40], runs=3, seed=17)
    OFA = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")
    EBB = ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff")

    def test_explicit_fair_selector_agrees_with_auto(self):
        explicit = run_sweep([self.OFA], self.CONFIG, engine="fair")
        auto = run_sweep([self.OFA], self.CONFIG)
        for k in self.CONFIG.k_values:
            assert explicit.cell("ofa", k).results == auto.cell("ofa", k).results

    def test_protocol_without_kernel_runs_on_the_python_loop(self, plain_fair_registered):
        spec = ProtocolSpec(key="plain", label="Plain", spec=PlainFair.name)
        before = _fair_runs()
        sweep = run_sweep([spec], self.CONFIG)
        assert _engines(sweep, "plain", 40) == {"fair"}
        assert _fair_runs()["python"] - before["python"] == 6

    def test_arrivals_route_to_slot_engine(self):
        config = ExperimentConfig(k_values=[12], runs=2, seed=17)
        sweep = run_sweep([self.OFA], config, arrivals="poisson(rate=0.2)")
        assert _engines(sweep, "ofa", 12) == {"slot"}

    def test_sweep_bit_identical_across_workers(self):
        serial = run_sweep([self.OFA, self.EBB], self.CONFIG)
        pooled = run_sweep([self.OFA, self.EBB], dataclasses.replace(self.CONFIG, workers=2))
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

    def test_interrupted_sweep_resimulates_only_missing_cells(self, tmp_path):
        """A sweep killed mid-grid resumes bit-identically: cached cells are
        served from the store and only the missing ones are simulated."""
        full = [Scenario.parse(text) for text in self.GRID]
        Session(store_dir=tmp_path).run_all(full[:1])  # the "killed" partial sweep
        resumed = Session(store_dir=tmp_path).run_all(full)
        assert resumed[0].cached_runs == 3 and resumed[0].new_runs == 0
        assert all(rs.cached_runs == 0 and rs.new_runs == 3 for rs in resumed[1:])
        fresh = Session().run_all(full)
        for resumed_set, fresh_set in zip(resumed, fresh):
            assert resumed_set.results == fresh_set.results
