"""Tests for the capability-driven engine registry.

The registry is the single source of truth for dispatch: engines declare
capabilities, protocols declare kinds, and `pick_engine_name` answers every
"which engine serves this?" question.  The final class here pins the
property the registry exists for — the scenario layer (`Session`), the sweep
runner (`run_sweep`) and the dispatch front door agree on engine selection
for **every** protocol in the registry, because they all ask the same
query.
"""

from __future__ import annotations

import pytest

from repro.channel.arrivals import PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.registry import (
    EngineCapabilities,
    EngineRegistry,
    available_engines,
    engine_capabilities,
    engine_class,
    engine_names,
    pick_engine_name,
)
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols.base import available_protocols, build_protocol, get_protocol_class
from repro.protocols.splitting import BinarySplitting
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import Session

CD_CHANNEL = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)


class TestRegistryContents:
    def test_available_engines_roster(self):
        assert available_engines() == ["auto", "fair", "slot", "window"]

    def test_every_engine_declares_capabilities(self):
        for name in engine_names():
            caps = engine_capabilities(name)
            assert isinstance(caps, EngineCapabilities)
            assert engine_class(name).name == name

    def test_declared_capability_matrix(self):
        assert engine_capabilities("slot").protocol_kinds is None
        assert engine_capabilities("slot").arrivals
        assert engine_capabilities("fair").protocol_kinds == frozenset({"fair"})
        assert engine_capabilities("window").protocol_kinds == frozenset({"windowed"})
        for name in ("fair", "window"):
            assert not engine_capabilities(name).arrivals

    def test_per_run_engines_declare_stream_versions(self):
        versions = {name: engine_class(name).stream_version for name in engine_names()}
        assert versions == {"slot": 1, "fair": 1, "window": 3}

    def test_unknown_engine_error_enumerates_registry(self):
        with pytest.raises(ValueError) as excinfo:
            engine_class("quantum")
        for name in engine_names():
            assert name in str(excinfo.value)

    def test_registration_validates_declarations(self):
        registry = EngineRegistry()

        class NoCaps:
            name = "no-caps"

        with pytest.raises(ValueError, match="capabilities"):
            registry.register(NoCaps)

        class PerRunWithoutStreamVersion:
            name = "per-run-no-version"
            capabilities = EngineCapabilities()

        with pytest.raises(ValueError, match="stream_version"):
            registry.register(PerRunWithoutStreamVersion)


class TestAutoPick:
    def test_kind_routing(self):
        assert pick_engine_name(OneFailAdaptive()) == "fair"
        assert pick_engine_name(ExpBackonBackoff()) == "window"
        assert pick_engine_name(BinarySplitting()) == "slot"

    def test_non_default_channel_falls_back_to_slot(self):
        assert pick_engine_name(OneFailAdaptive(), channel=CD_CHANNEL) == "slot"

    def test_explicit_default_channel_keeps_reduced_engine(self):
        assert pick_engine_name(OneFailAdaptive(), channel=ChannelModel()) == "fair"

    def test_arrivals_fall_back_to_slot(self):
        arrivals = PoissonArrival(k=10, rate=0.5)
        assert pick_engine_name(OneFailAdaptive(), arrivals=arrivals) == "slot"
        assert pick_engine_name(ExpBackonBackoff(), arrivals=arrivals) == "slot"


class TestExplicitPickValidation:
    def test_wrong_kind_rejected_with_capable_engines(self):
        with pytest.raises(ValueError) as excinfo:
            pick_engine_name(ExpBackonBackoff(), engine="fair")
        message = str(excinfo.value)
        assert "windowed" in message and "window" in message and "slot" in message

    def test_incapable_channel_rejected_with_capable_engines(self):
        # Before the registry this either raised deep inside the engine
        # constructor or silently simulated the wrong feedback model; now the
        # explicit choice is validated up front against declared channels.
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

    def test_ackless_channel_diagnosed_as_such(self):
        # The precise failure is the missing acknowledgements, not any
        # engine's feedback capabilities.
        no_acks = ChannelModel(acknowledgements=False)
        for engine in ("auto", "slot", "fair"):
            with pytest.raises(ValueError, match="without acknowledgements"):
                pick_engine_name(OneFailAdaptive(), engine=engine, channel=no_acks)


#: One protocol of each kind, with the channel it needs.
KIND_EXAMPLES = {
    "fair": ("one-fail-adaptive", None),
    "windowed": ("exp-backon-backoff", None),
    "generic": ("binary-splitting", CD_CHANNEL),
}


def _engine_kinds() -> list:
    """``(engine, kind)`` for every kind each registered engine serves."""
    return [
        pytest.param(name, kind, id=f"{name}-{kind}")
        for name in engine_names()
        for kind in sorted(engine_capabilities(name).protocol_kinds or KIND_EXAMPLES)
    ]


class TestSlotCapsBindEveryEngine:
    """``max_slots`` binds every engine alike: no run goes past its cap, and
    a cap at the uncapped makespan still solves."""

    K = 20

    def test_examples_cover_every_protocol_kind(self):
        kinds = {get_protocol_class(name).protocol_kind for name in available_protocols()}
        assert kinds == set(KIND_EXAMPLES)

    @pytest.mark.parametrize("engine_name,kind", _engine_kinds())
    def test_caps_bind(self, engine_name, kind):
        spec, channel = KIND_EXAMPLES[kind]
        engine = engine_class(engine_name)(channel=channel)
        protocol = build_protocol(spec, k=self.K)
        for seed in range(20):
            makespan = engine.simulate(protocol, self.K, seed=seed).makespan
            for cap in (1, makespan // 2, makespan - 1, makespan):
                result = engine.simulate(protocol, self.K, seed=seed, max_slots=cap)
                assert result.slots_simulated <= cap, (seed, cap, result)
                assert not result.solved or result.makespan <= cap, (seed, cap, result)
                assert result.solved or cap < makespan, (seed, cap, result)


class TestLayersAgreeForEveryRegisteredProtocol:
    """Session, run_sweep and the registry agree on every protocol's engines.

    This is the regression the registry prevents: before it, three divergent
    copies of the eligibility logic could (and did) disagree.  For every
    protocol in the registry we build an instance, ask the registry what
    should happen, and assert that a Session run and a run_sweep cell both
    produce results from exactly the predicted engine, and that naming that
    engine explicitly changes nothing.
    """

    K = 12
    REPS = 5

    #: Protocols that cannot run on the paper's default channel, with the
    #: channel spec they need (binary splitting needs ternary feedback).
    CHANNEL_OVERRIDES = {"binary-splitting": "cd"}

    @pytest.mark.parametrize("name", available_protocols())
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
        config = ExperimentConfig(k_values=[self.K], runs=self.REPS, seed=3,
                                  max_slots_factor=100)
        sweep = run_sweep([spec], config).cell(name, self.K)
        assert {result.engine for result in sweep.results} == {predicted_per_run}
        per_run_sweep = run_sweep([spec], config, engine=predicted_per_run).cell(name, self.K)
        assert per_run_sweep.results == sweep.results
