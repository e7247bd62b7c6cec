"""Tests for the declarative Scenario: round-trips, hashing, builders."""

from __future__ import annotations

import json
import pickle

import pytest

import repro.scenarios.scenario as scenario_module

from repro.channel.arrivals import PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import available_engines, pick_engine_name
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.scenarios import Scenario, SpecError
from repro.scenarios.spec import (
    ARRIVALS,
    CHANNELS,
    build_arrivals,
    build_channel,
    build_protocol,
)
from repro.util.rng import derive_seeds


class TestRegistries:
    def test_available_engines_covers_all(self):
        assert available_engines() == ["auto", "fair", "slot", "window"]

    def test_available_arrivals(self):
        assert set(ARRIVALS) == {"batch", "poisson", "bursty"}

    def test_available_channels(self):
        assert set(CHANNELS) == {"default", "no-cd", "cd"}

    def test_build_protocol_spec(self):
        protocol = build_protocol("one-fail-adaptive(delta=2.9)", k=100)
        assert isinstance(protocol, OneFailAdaptive)
        assert protocol.delta == 2.9

    def test_build_protocol_injects_k_knowledge(self):
        lfa = build_protocol("log-fails-adaptive(xi_t=0.1)", k=499)
        assert isinstance(lfa, LogFailsAdaptive)
        assert lfa.epsilon == pytest.approx(1 / 500)
        aloha = build_protocol("slotted-aloha", k=77)
        assert aloha.k == 77

    def test_build_protocol_explicit_epsilon_wins(self):
        lfa = build_protocol("log-fails-adaptive(epsilon=0.01)", k=10)
        assert lfa.epsilon == 0.01

    def test_build_protocol_bad_parameter(self):
        with pytest.raises(ValueError):
            build_protocol("one-fail-adaptive(nonsense=1)", k=10)

    def test_build_arrivals_batch_is_none(self):
        assert build_arrivals("batch", k=10) is None

    def test_build_arrivals_poisson(self):
        process = build_arrivals("poisson(rate=0.2)", k=32)
        assert isinstance(process, PoissonArrival)
        assert process.total_messages == 32
        assert process.rate == 0.2

    def test_build_arrivals_bursty_derives_shape(self):
        process = build_arrivals("bursty(bursts=4)", k=32)
        assert process.bursts == 4
        assert process.burst_size == 8
        assert process.gap == 32

    def test_build_arrivals_bursty_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            build_arrivals("bursty(bursts=4)", k=30)

    def test_build_arrivals_total_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_arrivals("bursty(bursts=2,burst_size=3)", k=10)

    def test_build_channel(self):
        assert build_channel("default") == ChannelModel()
        assert build_channel("no-cd") == ChannelModel()
        assert build_channel("cd").feedback is FeedbackModel.COLLISION_DETECTION
        # A success is always acknowledged: channels take no parameters.
        with pytest.raises(ValueError, match="unknown channel parameters"):
            build_channel("cd(acknowledgements=false)")

    def test_build_channel_unknown(self):
        with pytest.raises(KeyError, match="unknown channel 'quantum'.*no-cd"):
            build_channel("quantum")


class TestScenarioRoundTrip:
    def test_string_round_trip(self):
        scenario = Scenario(
            protocol="one-fail-adaptive(delta=2.72)",
            k=1000,
            arrivals="poisson(rate=0.1)",
            replications=10,
            seed=7,
        )
        text = scenario.format()
        assert text == (
            "one-fail-adaptive(delta=2.72) k=1000 reps=10 seed=7 arrivals=poisson(rate=0.1)"
        )
        assert Scenario.parse(text) == scenario

    def test_parse_defaults(self):
        scenario = Scenario.parse("exp-backon-backoff k=50")
        assert scenario.replications == 1
        assert scenario.arrivals == "batch"
        assert scenario.channel == "default"
        assert scenario.engine == "auto"

    def test_parse_all_keys(self):
        scenario = Scenario.parse(
            "slotted-aloha k=64 reps=3 seed=5 arrivals=batch channel=cd engine=slot "
            "max_slots_factor=500"
        )
        assert scenario.channel == "cd"
        assert scenario.engine == "slot"
        assert scenario.max_slots_factor == 500
        assert Scenario.parse(scenario.format()) == scenario

    def test_dict_round_trip(self):
        scenario = Scenario.parse("one-fail-adaptive k=10 reps=2 seed=3")
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_dict_accepts_reps_alias(self):
        assert Scenario.from_dict({"protocol": "one-fail-adaptive", "k": 5, "reps": 4}).replications == 4

    def test_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"protocol": "one-fail-adaptive", "k": 5, "sizzle": 1})

    def test_json_round_trip(self):
        scenario = Scenario.parse("log-fails-adaptive(xi_t=0.1) k=100 reps=5 seed=9")
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_toml_round_trip(self):
        scenario = Scenario.parse("one-fail-adaptive(delta=2.72) k=100 reps=5 seed=9 engine=fair")
        assert Scenario.from_toml(scenario.to_toml()) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = Scenario.parse("one-fail-adaptive k=64 reps=2 seed=1")
        toml_path = tmp_path / "cell.toml"
        toml_path.write_text(scenario.to_toml(), encoding="utf-8")
        assert Scenario.from_file(toml_path) == scenario
        json_path = tmp_path / "cell.json"
        json_path.write_text(scenario.to_json(), encoding="utf-8")
        assert Scenario.from_file(json_path) == scenario

    def test_file_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "cell.yaml"
        path.write_text("protocol: nope", encoding="utf-8")
        with pytest.raises(ValueError):
            Scenario.from_file(path)

    def test_parse_requires_protocol_first(self):
        with pytest.raises(SpecError):
            Scenario.parse("k=10 one-fail-adaptive")

    def test_parse_requires_k(self):
        with pytest.raises(SpecError):
            Scenario.parse("one-fail-adaptive reps=3")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(SpecError):
            Scenario.parse("one-fail-adaptive k=10 spin=7")


class TestScenarioValidation:
    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            Scenario(protocol="not-a-protocol", k=10)

    def test_unknown_arrivals(self):
        with pytest.raises(KeyError, match="unknown arrival process 'tidal'.*poisson"):
            Scenario(protocol="one-fail-adaptive", k=10, arrivals="tidal")

    def test_unknown_channel(self):
        with pytest.raises(KeyError):
            Scenario(protocol="one-fail-adaptive", k=10, channel="quantum")

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            Scenario(protocol="one-fail-adaptive", k=10, engine="warp")

    @pytest.mark.parametrize(
        "fields",
        [
            {"protocol": "one-fail-adaptive", "arrivals": "poisson(rate=0.1)", "engine": "fair"},
            {"protocol": "exp-backon-backoff", "engine": "fair"},
            {"protocol": "one-fail-adaptive", "channel": "cd", "engine": "fair"},
            {"protocol": "one-fail-adaptive", "channel": "cd", "engine": "window"},
        ],
        ids=["arrivals", "kind", "channel", "channel-window"],
    )
    def test_arrivals_reject_specialised_engine(self, fields):
        with pytest.raises(ValueError, match=f"engine {fields['engine']!r}"):
            Scenario(k=10, **fields)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("one-fail-adaptive(delta=-1) k=10", "delta must lie in"),
            ("one-fail-adaptive(bogus=1) k=10", "cannot build protocol"),
            ("one-fail-adaptive k=10 arrivals=poisson(rate=5)", "rate is per-slot"),
            ("one-fail-adaptive k=10 arrivals=poisson", "cannot build arrival process"),
            ("one-fail-adaptive k=10 arrivals=bursty(bursts=3)", "multiple of bursts"),
            ("one-fail-adaptive k=10 channel=cd(acknowledgements=false)", "unknown channel parameters"),
        ],
        ids=[
            "bad-delta", "unknown-protocol-parameter", "rate-above-one", "rate-missing",
            "bursts-not-dividing-k", "ack-less-channel",
        ],
    )
    def test_bad_component_parameter_fails_at_construction(self, spec, message):
        with pytest.raises(ValueError, match=message):
            Scenario.parse(spec)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Scenario(protocol="one-fail-adaptive", k=0)
        with pytest.raises(ValueError):
            Scenario(protocol="one-fail-adaptive", k=10, replications=0)
        with pytest.raises(ValueError):
            Scenario(protocol="one-fail-adaptive", k=10, max_slots_factor=1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Scenario(protocol="one-fail-adaptive", k=10, seed=-1)

    @pytest.mark.parametrize(
        "spec,field",
        [
            ("one-fail-adaptive k=10 max_slots_factor=2.5", "max_slots_factor"),
            ("one-fail-adaptive k=10 max_slots_factor=1e3", "max_slots_factor"),
            ("exp-backon-backoff k=10 channel=cd max_slots_factor=2.5", "max_slots_factor"),
            ("one-fail-adaptive k=2.5", "k"),
            ("one-fail-adaptive k=10 reps=2.5", "replications"),
            ("one-fail-adaptive k=10 seed=1.5", "seed"),
            ("one-fail-adaptive k=10 seed=abc", "seed"),
            ("one-fail-adaptive k=10 seed=true", "seed"),
        ],
    )
    def test_non_integer_sizes_fail_at_construction(self, spec, field):
        with pytest.raises(ValueError, match=field):
            Scenario.parse(spec)
        with pytest.raises(ValueError, match=field):
            Scenario.from_json(json.dumps({"protocol": "one-fail-adaptive", "k": 10, field: 2.5}))

    def test_slot_cap_beyond_int64_fails_at_construction(self):
        with pytest.raises(ValueError, match="max_slots"):
            Scenario(protocol="one-fail-adaptive", k=10, max_slots_factor=2**62)
        assert Scenario(protocol="one-fail-adaptive", k=1, max_slots_factor=2**63 - 1)


class TestScenarioHash:
    def test_hash_is_stable_literal(self):
        # Regression anchor: the content hash is part of the on-disk store
        # contract, so an accidental change to the identity derivation must
        # fail a test, not silently orphan every existing store.
        scenario = Scenario(protocol="one-fail-adaptive(delta=2.72)", k=1000, seed=7)
        assert scenario.content_hash() == scenario.content_hash()
        assert len(scenario.content_hash()) == 16
        assert int(scenario.content_hash(), 16) >= 0

    @pytest.mark.parametrize(
        "text,digest",
        [
            ("one-fail-adaptive k=1000 reps=10 seed=7", "59a48e12c8d14639"),
            ("exp-backon-backoff k=256 reps=3 seed=5", "30282994a5287290"),
            (
                "log-fails-adaptive(xi_t=0.1) k=100 seed=3 arrivals=poisson(rate=0.1)",
                "6954771d4300ec8a",
            ),
            ("binary-splitting k=16 channel=cd", "aa6e29a3b6c2b873"),
            ("one-fail-adaptive k=30 engine=slot max_slots_factor=500", "64c90be61c737167"),
        ],
    )
    def test_hash_literal_pins(self, text, digest):
        """Digests of stored cells: a moved digest orphans every store holding them."""
        assert Scenario.parse(text).content_hash() == digest

    def test_equal_scenarios_equal_hash(self):
        first = Scenario.parse("one-fail-adaptive(delta=2.72) k=100 seed=3")
        second = Scenario.parse("one-fail-adaptive(delta=2.72) k=100 seed=3")
        assert first.content_hash() == second.content_hash()

    def test_cosmetic_spelling_does_not_split_cache(self):
        plain = Scenario(protocol="one-fail-adaptive", k=100)
        spaced = Scenario(protocol="one-fail-adaptive( )".replace(" ", ""), k=100)
        assert plain.content_hash() == spaced.content_hash()
        ordered = Scenario(protocol="log-fails-adaptive(xi_t=0.5,xi_delta=0.1)", k=10)
        reordered = Scenario(protocol="log-fails-adaptive(xi_delta=0.1, xi_t=0.5)", k=10)
        assert ordered.content_hash() == reordered.content_hash()

    def test_every_identity_field_changes_hash(self):
        base = Scenario(protocol="one-fail-adaptive", k=100, seed=3)
        variants = [
            base.replace(protocol="exp-backon-backoff"),
            base.replace(k=101),
            base.replace(arrivals="poisson(rate=0.1)"),
            base.replace(channel="cd"),
            base.replace(engine="slot"),
            base.replace(seed=4),
            base.replace(max_slots_factor=100),
        ]
        hashes = {base.content_hash()} | {variant.content_hash() for variant in variants}
        assert len(hashes) == len(variants) + 1

    def test_replications_excluded_from_hash(self):
        # The seed stream is prefix-stable, so more replications extend the
        # same cell instead of renaming it.
        small = Scenario(protocol="one-fail-adaptive", k=100, replications=2, seed=5)
        large = small.replace(replications=7)
        assert small.content_hash() == large.content_hash()
        assert large.seeds()[:2] == small.seeds()


class TestScenarioHashIsMemoised:
    TEXT = "log-fails-adaptive(xi_t=0.5) k=100 seed=3 arrivals=poisson(rate=0.1)"

    def test_specs_are_canonicalised_once_per_instance(self, monkeypatch):
        scenario = Scenario.parse(self.TEXT)
        calls = []
        canonical = scenario_module.canonical_spec
        monkeypatch.setattr(
            scenario_module, "canonical_spec", lambda spec: calls.append(spec) or canonical(spec)
        )
        digests = {scenario.content_hash() for _ in range(10)}
        assert len(digests) == 1
        assert sorted(calls) == sorted([scenario.protocol, scenario.arrivals, scenario.channel])

    def test_replaced_copy_gets_its_own_digest(self):
        scenario = Scenario.parse(self.TEXT)
        digest = scenario.content_hash()
        other = scenario.replace(k=101)
        assert other.content_hash() != digest
        fresh = Scenario.parse(self.TEXT.replace("k=100", "k=101"))
        assert other.content_hash() == fresh.content_hash()
        assert scenario.content_hash() == digest

    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_pickled_and_equal_instances_agree(self, hashed_first):
        scenario = Scenario.parse(self.TEXT)
        if hashed_first:
            scenario.content_hash()
        copy = pickle.loads(pickle.dumps(scenario))
        equal = Scenario.parse(self.TEXT)
        assert copy == scenario == equal
        assert copy.content_hash() == scenario.content_hash() == equal.content_hash()


class TestEngineName:
    """A scenario decides its engine once, when it is built."""

    @pytest.mark.parametrize(
        "text, engine",
        [
            ("one-fail-adaptive k=8", "fair"),
            ("log-fails-adaptive(xi_t=0.1) k=8", "fair"),
            ("exp-backon-backoff k=8", "window"),
            ("binary-splitting k=8 channel=cd", "slot"),
            ("one-fail-adaptive k=8 channel=cd", "slot"),
            ("one-fail-adaptive k=8 arrivals=poisson(rate=0.2)", "slot"),
            ("exp-backon-backoff k=8 engine=slot", "slot"),
        ],
    )
    def test_it_is_the_rule_answer(self, text, engine):
        scenario = Scenario.parse(text)
        answer = pick_engine_name(
            scenario.build_protocol(),
            engine=scenario.engine,
            channel=scenario.build_channel(),
            arrivals=scenario.build_arrivals(),
        )
        assert scenario.engine_name == answer == engine

    def test_it_is_not_part_of_the_identity(self):
        scenario = Scenario.parse("exp-backon-backoff k=8 reps=2 seed=3")
        assert scenario.engine_name == "window"
        assert "engine_name" not in scenario.to_dict()
        assert "engine_name" not in scenario.identity()
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        copy = pickle.loads(pickle.dumps(scenario))
        assert copy == scenario and copy.engine_name == "window"

    def test_it_is_decided_once_per_instance(self, monkeypatch):
        scenario = Scenario.parse("one-fail-adaptive k=8")
        calls = []
        monkeypatch.setattr(
            scenario_module, "pick_engine_name", lambda *args, **kwargs: calls.append(args)
        )
        assert {scenario.engine_name for _ in range(3)} == {"fair"}
        assert calls == []


class TestScenarioSeeds:
    def test_seeds_derive_from_the_root_seed(self):
        scenario = Scenario(protocol="one-fail-adaptive", k=10, replications=4, seed=42)
        assert scenario.seeds() == derive_seeds(42, 4)


class TestRetiredSeedPolicy:
    """``seed_policy`` is gone; dicts written while it existed still load."""

    TEXT = "one-fail-adaptive k=30 reps=3 seed=5"

    def test_field_is_gone(self):
        scenario = Scenario.parse(self.TEXT)
        assert not hasattr(scenario, "seed_policy")
        assert "seed_policy" not in scenario.to_dict()
        assert not hasattr(scenario_module, "SEED_POLICIES")
        with pytest.raises(TypeError):
            Scenario(protocol="one-fail-adaptive", k=10, seed_policy="derive")

    def test_derive_dicts_load_as_the_same_scenario(self):
        scenario = Scenario.parse(self.TEXT)
        legacy = {**scenario.to_dict(), "seed_policy": "derive"}
        loaded = Scenario.from_dict(legacy)
        assert loaded == scenario
        assert loaded.content_hash() == scenario.content_hash()
        assert Scenario.from_json(json.dumps(legacy)) == scenario

    @pytest.mark.parametrize("policy", ["sequential", "lucky"])
    def test_other_policies_are_refused(self, policy):
        legacy = {**Scenario.parse(self.TEXT).to_dict(), "seed_policy": policy}
        with pytest.raises(ValueError, match="no longer supported"):
            Scenario.from_dict(legacy)

    @pytest.mark.parametrize("policy", ["derive", "sequential"])
    def test_compact_grammar_refuses_the_key(self, policy):
        with pytest.raises(SpecError, match="unknown scenario key 'seed_policy'"):
            Scenario.parse(f"{self.TEXT} seed_policy={policy}")

    def test_sequential_cells_are_skipped_by_the_store(self, tmp_path):
        from repro.scenarios import JsonlStore, Session

        scenario = Scenario.parse(self.TEXT)
        Session(store_dir=tmp_path).run(scenario)
        store = JsonlStore(tmp_path)
        sequential = {**scenario.to_dict(), "seed_policy": "sequential"}
        header = {"kind": "scenario", "hash": "0123456789abcdef", "scenario": sequential}
        (tmp_path / "0123456789abcdef.jsonl").write_text(json.dumps(header) + "\n")
        assert store.scenarios_on_record() == [scenario]
        assert store.scenario_for_hash("0123456789abcdef") is None


class TestScenarioBuilders:
    def test_build_protocol(self):
        scenario = Scenario(protocol="one-fail-adaptive(delta=2.9)", k=100)
        protocol = scenario.build_protocol()
        assert isinstance(protocol, OneFailAdaptive)
        assert protocol.delta == 2.9

    def test_build_arrivals_and_channel_defaults(self):
        scenario = Scenario(protocol="one-fail-adaptive", k=100)
        assert scenario.build_arrivals() is None
        assert scenario.build_channel() is None

    def test_build_non_default_channel(self):
        scenario = Scenario(protocol="one-fail-adaptive", k=100, channel="cd")
        assert scenario.build_channel() == ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)

    def test_max_slots(self):
        scenario = Scenario(protocol="one-fail-adaptive", k=100, max_slots_factor=50)
        assert scenario.max_slots() == 5_000
