"""Tests for engine selection (`pick_engine_name`, `pick_engine`) and the `simulate` front door.

One rule picks every engine: `pick_engine_name` over the closed `ENGINES`
table.  The routing and validation classes pin that rule; the final class
pins the property it exists for — the scenario layer (`Session`), the sweep
runner (`run_sweep`) and the dispatch front door agree on engine selection
for **every** registered protocol, because they all ask the same function.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro.engine
from repro.channel.arrivals import BurstyArrival, PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import (
    ENGINES,
    available_engines,
    pick_engine,
    pick_engine_name,
    simulate,
)
from repro.engine.fair_engine import FairEngine
from repro.engine.slot_engine import SlotEngine
from repro.engine.window_engine import WindowEngine
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols.aloha import SlottedAloha
from repro.protocols.splitting import BinarySplitting
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import Session
from repro.scenarios.spec import PROTOCOLS, build_protocol
from repro.util.validation import DEFAULT_MAX_SLOTS_FACTOR

CD_CHANNEL = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)


class OwnTransmissionAloha(SlottedAloha):
    """A fair protocol declaring per-station state the fair reduction cannot share."""

    state_depends_on_own_transmission = True


class TestPickEngine:
    """`pick_engine` builds the engine `pick_engine_name` names."""

    def test_fair_protocol_gets_fair_engine(self):
        assert isinstance(pick_engine(OneFailAdaptive()), FairEngine)

    def test_windowed_protocol_gets_window_engine(self):
        assert isinstance(pick_engine(ExpBackonBackoff()), WindowEngine)

    def test_other_protocols_get_slot_engine(self):
        assert isinstance(pick_engine(BinarySplitting(), channel=CD_CHANNEL), SlotEngine)

    def test_non_default_channel_forces_slot_engine(self):
        assert isinstance(pick_engine(OneFailAdaptive(), channel=CD_CHANNEL), SlotEngine)

    def test_explicit_engine_respected(self):
        assert isinstance(pick_engine(OneFailAdaptive(), engine="slot"), SlotEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            pick_engine(OneFailAdaptive(), engine="quantum")

    def test_arrivals_force_slot_engine(self):
        arrivals = PoissonArrival(k=10, rate=0.5)
        assert isinstance(pick_engine(OneFailAdaptive(), arrivals=arrivals), SlotEngine)
        assert isinstance(pick_engine(ExpBackonBackoff(), arrivals=arrivals), SlotEngine)

    def test_arrivals_reject_specialised_engines(self):
        arrivals = PoissonArrival(k=10, rate=0.5)
        with pytest.raises(ValueError):
            pick_engine(OneFailAdaptive(), engine="fair", arrivals=arrivals)
        with pytest.raises(ValueError):
            pick_engine(ExpBackonBackoff(), engine="window", arrivals=arrivals)


class TestEngineTable:
    def test_available_engines_roster(self):
        assert available_engines() == ["auto", "fair", "slot", "window"]

    def test_every_engine_is_named_by_its_table_key(self):
        for name, cls in ENGINES.items():
            assert cls.name == name

    def test_every_public_engine_class_is_in_the_table(self):
        package = repro.engine
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, prefix="repro.engine.")
        ]
        engine_classes = {
            cls
            for module in modules
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
            and name.endswith("Engine")
            and not name.startswith("_")
        }
        assert engine_classes == set(ENGINES.values())

    def test_per_run_engines_declare_stream_versions(self):
        versions = {name: cls.stream_version for name, cls in ENGINES.items()}
        assert versions == {"slot": 1, "fair": 1, "window": 4}

    def test_unknown_engine_error_enumerates_engines(self):
        with pytest.raises(ValueError) as excinfo:
            pick_engine_name(OneFailAdaptive(), engine="quantum")
        for name in ENGINES:
            assert name in str(excinfo.value)


class TestAutoPick:
    def test_kind_routing(self):
        assert pick_engine_name(OneFailAdaptive()) == "fair"
        assert pick_engine_name(ExpBackonBackoff()) == "window"
        assert pick_engine_name(BinarySplitting(), channel=CD_CHANNEL) == "slot"

    @pytest.mark.parametrize("engine", ["auto", "slot"])
    @pytest.mark.parametrize("channel", [None, ChannelModel()])
    def test_collision_detection_protocol_is_refused_without_it(self, engine, channel):
        """Its first slot would raise; the rule refuses it up front."""
        with pytest.raises(ValueError, match="needs collision detection.*channel=cd"):
            pick_engine_name(BinarySplitting(), engine=engine, channel=channel)

    def test_a_scenario_of_it_without_collision_detection_is_not_built(self):
        with pytest.raises(ValueError, match="channel=cd"):
            Scenario.parse("binary-splitting k=4")
        assert Scenario.parse("binary-splitting k=4 channel=cd").channel == "cd"

    def test_non_default_channel_falls_back_to_slot(self):
        assert pick_engine_name(OneFailAdaptive(), channel=CD_CHANNEL) == "slot"

    def test_explicit_default_channel_keeps_reduced_engine(self):
        assert pick_engine_name(OneFailAdaptive(), channel=ChannelModel()) == "fair"

    def test_arrivals_fall_back_to_slot(self):
        arrivals = PoissonArrival(k=10, rate=0.5)
        assert pick_engine_name(OneFailAdaptive(), arrivals=arrivals) == "slot"
        assert pick_engine_name(ExpBackonBackoff(), arrivals=arrivals) == "slot"

    def test_own_transmission_state_falls_back_to_slot(self):
        # FairEngine refuses such a protocol, so "auto" must not pick it, and
        # naming it explicitly is refused up front.
        protocol = OwnTransmissionAloha(k=8)
        assert pick_engine_name(protocol) == "slot"
        assert pick_engine_name(type(protocol)) == "slot"
        result = simulate(protocol, k=8, seed=0)
        assert result.engine == "slot" and result.solved
        with pytest.raises(ValueError, match="own transmissions"):
            pick_engine_name(protocol, engine="fair")


class TestExplicitPickValidation:
    def test_wrong_kind_rejected_with_capable_engines(self):
        with pytest.raises(ValueError) as excinfo:
            pick_engine_name(ExpBackonBackoff(), engine="fair")
        message = str(excinfo.value)
        assert "windowed" in message and "window" in message and "slot" in message

    def test_incapable_channel_rejected_with_capable_engines(self):
        # An explicit choice is validated up front against the rule instead
        # of raising deep inside the engine constructor.
        for engine in ("fair", "window"):
            with pytest.raises(ValueError, match="cannot serve channel"):
                pick_engine_name(OneFailAdaptive(), engine=engine, channel=CD_CHANNEL)

    def test_arrivals_rejected_for_non_arrival_engines(self):
        arrivals = PoissonArrival(k=10, rate=0.5)
        for engine in ("fair", "window"):
            with pytest.raises(ValueError, match="arrival"):
                pick_engine_name(OneFailAdaptive(), engine=engine, arrivals=arrivals)

    def test_slot_serves_everything_explicitly(self):
        assert pick_engine_name(ExpBackonBackoff(), engine="slot", channel=CD_CHANNEL) == "slot"


#: One protocol of each kind, with the channel it needs.
KIND_EXAMPLES = {
    "fair": ("one-fail-adaptive", None),
    "windowed": ("exp-backon-backoff", None),
    "generic": ("binary-splitting", CD_CHANNEL),
}


def _serves(name: str, kind: str) -> bool:
    spec, channel = KIND_EXAMPLES[kind]
    try:
        pick_engine_name(PROTOCOLS[spec], engine=name, channel=channel)
    except ValueError:
        return False
    return True


#: ``(engine, kind)`` for every kind example each engine serves, by the rule.
ENGINE_KINDS = [(name, kind) for name in ENGINES for kind in KIND_EXAMPLES if _serves(name, kind)]


class TestSlotCapsBindEveryEngine:
    """``max_slots`` binds every engine alike: no run goes past its cap, and
    a cap at the uncapped makespan still solves."""

    K = 20

    def test_examples_cover_every_protocol_kind(self):
        kinds = {cls.protocol_kind for cls in PROTOCOLS.values()}
        assert kinds == set(KIND_EXAMPLES)

    def test_rule_pairs_every_engine_with_its_kinds(self):
        assert sorted(ENGINE_KINDS) == [
            ("fair", "fair"),
            ("slot", "fair"),
            ("slot", "generic"),
            ("slot", "windowed"),
            ("window", "windowed"),
        ]

    @pytest.mark.parametrize(
        "engine_name,kind",
        [pytest.param(name, kind, id=f"{name}-{kind}") for name, kind in sorted(ENGINE_KINDS)],
    )
    def test_caps_bind(self, engine_name, kind):
        spec, channel = KIND_EXAMPLES[kind]
        engine = ENGINES[engine_name](channel=channel)
        protocol = build_protocol(spec, k=self.K)
        for seed in range(20):
            makespan = engine.simulate(protocol, self.K, seed=seed).makespan
            for cap in (1, makespan // 2, makespan - 1, makespan):
                result = engine.simulate(protocol, self.K, seed=seed, max_slots=cap)
                assert result.slots_simulated <= cap, (seed, cap, result)
                assert not result.solved or result.makespan <= cap, (seed, cap, result)
                assert result.solved or cap < makespan, (seed, cap, result)


#: Every engine, and both loops of the two compiled ones.
ENGINE_LOOPS = [
    ("fair", "compiled"), ("fair", "python"), ("slot", "python"),
    ("window", "compiled"), ("window", "python"),
]


class TestSlotCapIsCheckedAlike:
    """A slot cap, given or the default ``DEFAULT_MAX_SLOTS_FACTOR * k``, is an
    integer in [1, 2**63 - 1] on every engine and loop, so whether ``cc``
    exists never decides what a cap means."""

    K = 20

    @pytest.fixture(params=ENGINE_LOOPS, ids=lambda pair: "-".join(pair))
    def run(self, request):
        engine_name, loop = request.param
        if loop == "python":
            request.getfixturevalue("no_kernel")
        kind = "fair" if engine_name != "window" else "windowed"
        spec, channel = KIND_EXAMPLES[kind]
        protocol = build_protocol(spec, k=self.K)

        def run(max_slots, k=self.K):
            return ENGINES[engine_name](channel=channel).simulate(
                protocol, k, seed=3, max_slots=max_slots
            )

        return run

    @pytest.mark.parametrize("cap", [2.5, 3.0, "3", True])
    def test_non_integer_caps_raise_type_error(self, run, cap):
        with pytest.raises(TypeError, match="max_slots"):
            run(cap)

    @pytest.mark.parametrize("cap", [0, -3, 2**64])
    def test_out_of_range_caps_raise_value_error(self, run, cap):
        with pytest.raises(ValueError, match="max_slots"):
            run(cap)

    def test_default_cap_beyond_int64_raises_value_error(self, run):
        with pytest.raises(ValueError, match="max_slots"):
            run(None, k=(2**63 - 1) // DEFAULT_MAX_SLOTS_FACTOR + 1)

    def test_numpy_integer_caps_bind_like_ints(self, run):
        capped = run(np.int64(5))
        assert capped == run(5)
        assert not capped.solved and capped.slots_simulated == 5


class TestLayersAgreeForEveryRegisteredProtocol:
    """Session, run_sweep and the front door agree on every protocol's engines.

    This is the regression the one rule prevents: three divergent copies of
    the eligibility logic could (and did) disagree.  For every registered
    protocol we build an instance, ask `pick_engine_name` what should happen,
    and assert that a Session run and a run_sweep cell both produce results
    from exactly the predicted engine, and that naming that engine
    explicitly changes nothing.
    """

    K = 12
    REPS = 5

    #: Protocols that cannot run on the paper's default channel, with the
    #: channel spec they need (binary splitting needs ternary feedback).
    CHANNEL_OVERRIDES = {"binary-splitting": "cd"}

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_session_and_sweep_routing(self, name):
        channel_spec = self.CHANNEL_OVERRIDES.get(name, "default")
        scenario = Scenario(protocol=name, k=self.K, replications=self.REPS, seed=3,
                            channel=channel_spec, max_slots_factor=100)
        protocol = scenario.build_protocol()
        channel = scenario.build_channel()
        predicted_per_run = pick_engine_name(protocol, channel=channel)

        session = Session().run(scenario)
        assert session.engine_used == predicted_per_run
        per_run_session = Session().run(scenario.replace(engine=predicted_per_run))
        assert per_run_session.results == session.results

        if channel_spec != "default":
            return  # run_sweep cells always use the paper's channel
        spec = ProtocolSpec(key=name, label=name, spec=name)
        config = ExperimentConfig(k_values=[self.K], runs=self.REPS, seed=3)
        sweep = run_sweep([spec], config).cell(name, self.K)
        assert {result.engine for result in sweep.results} == {predicted_per_run}
        per_run_sweep = run_sweep([spec], config, engine=predicted_per_run).cell(name, self.K)
        assert per_run_sweep.results == sweep.results


class TestSimulateFrontDoor:
    def test_returns_solved_result(self):
        result = simulate(OneFailAdaptive(), k=50, seed=1)
        assert result.solved
        assert result.engine == "fair"

    def test_windowed_protocol_routed(self):
        result = simulate(ExpBackonBackoff(), k=50, seed=1)
        assert result.engine == "window"

    def test_engine_override(self):
        result = simulate(OneFailAdaptive(), k=10, seed=1, engine="slot")
        assert result.engine == "slot"
        assert result.solved

    def test_max_slots_forwarded(self):
        result = simulate(OneFailAdaptive(), k=50, seed=1, max_slots=10)
        assert not result.solved

    def test_seed_reproducibility_across_calls(self):
        assert simulate(OneFailAdaptive(), 80, seed=5).makespan == simulate(
            OneFailAdaptive(), 80, seed=5
        ).makespan


class TestSimulateWithArrivals:
    def test_poisson_arrivals_end_to_end(self):
        result = simulate(OneFailAdaptive(), k=16, seed=2, arrivals=PoissonArrival(k=16, rate=0.2))
        assert result.solved
        assert result.engine == "slot"
        assert result.metadata["arrivals"] == "PoissonArrival"
        assert len(result.metadata["latencies"]) == 16
        assert all(latency >= 0 for latency in result.metadata["latencies"])

    def test_bursty_arrivals_end_to_end(self):
        arrivals = BurstyArrival(bursts=2, burst_size=5, gap=100)
        result = simulate(OneFailAdaptive(), k=10, seed=2, arrivals=arrivals)
        assert result.solved
        assert result.successes == 10

    def test_windowed_protocol_with_arrivals_uses_slot_engine(self):
        result = simulate(ExpBackonBackoff(), k=12, seed=1, arrivals=PoissonArrival(k=12, rate=0.3))
        assert result.engine == "slot"
        assert result.solved

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate(OneFailAdaptive(), k=5, seed=0, arrivals=PoissonArrival(k=6, rate=0.5))

    def test_arrivals_reproducible(self):
        arrivals = PoissonArrival(k=20, rate=0.1)
        first = simulate(OneFailAdaptive(), k=20, seed=9, arrivals=arrivals)
        second = simulate(OneFailAdaptive(), k=20, seed=9, arrivals=arrivals)
        assert first == second
