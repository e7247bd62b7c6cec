"""Tests for the protocol interfaces and their table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.model import Observation
from repro.protocols.base import FairProtocol, WindowedProtocol
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.scenarios.spec import PROTOCOLS, build_protocol


class TestRegistry:
    def test_paper_protocols_registered(self):
        names = PROTOCOLS
        assert "one-fail-adaptive" in names
        assert "exp-backon-backoff" in names
        assert "log-fails-adaptive" in names
        assert "loglog-iterated-backoff" in names

    def test_lookup_returns_class(self):
        assert PROTOCOLS["one-fail-adaptive"] is OneFailAdaptive
        assert PROTOCOLS["exp-backon-backoff"] is ExpBackonBackoff

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown protocol 'does-not-exist'.*one-fail-adaptive"):
            build_protocol("does-not-exist", 8)


class TestSpawn:
    def test_spawn_is_independent_copy(self):
        prototype = OneFailAdaptive()
        prototype.notify(Observation(slot=0, transmitted=False, received=True, delivered=False))
        clone = prototype.spawn()
        assert clone is not prototype
        assert clone.messages_received == 0  # reset
        assert clone.delta == prototype.delta  # parameters preserved

    def test_spawn_preserves_parameters(self):
        clone = LogFailsAdaptive.for_k(500, xi_t=0.1).spawn()
        assert clone.xi_t == 0.1
        assert clone.epsilon == pytest.approx(1.0 / 501)


class TestDescribe:
    def test_describe_reports_parameters(self):
        described = OneFailAdaptive(delta=2.8).describe()
        assert described["name"] == "one-fail-adaptive"
        assert described["parameters"]["delta"] == 2.8

    def test_describe_hides_internal_state(self):
        protocol = OneFailAdaptive()
        assert not any(key.startswith("_") for key in protocol.describe()["parameters"])

    def test_repr_mentions_class(self):
        assert "OneFailAdaptive" in repr(OneFailAdaptive())


class TestFairProtocolWillTransmit:
    def test_probability_one_always_transmits(self):
        class AlwaysOn(FairProtocol):
            name = "test-always-on"
            def reset(self):
                pass
            def transmission_probability(self, slot):
                return 1.0
            def notify(self, observation):
                pass

        protocol = AlwaysOn()
        rng = np.random.default_rng(0)
        assert all(protocol.will_transmit(slot, rng) for slot in range(20))

    def test_empirical_rate_matches_probability(self):
        protocol = OneFailAdaptive()
        rng = np.random.default_rng(1)
        # Keep the state frozen by never notifying; slot 0 is an AT step with
        # probability 1/(delta + 1).
        probability = protocol.transmission_probability(0)
        hits = sum(protocol.will_transmit(0, rng) for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(probability, abs=0.02)


class TestWindowedProtocolBehaviour:
    def test_transmits_exactly_once_per_window(self):
        protocol = ExpBackonBackoff()
        protocol.reset()
        rng = np.random.default_rng(2)
        lengths = []
        schedule = protocol.window_lengths()
        for _ in range(6):
            lengths.append(next(schedule))
        total = sum(lengths)
        fresh = protocol.spawn()
        transmissions = [fresh.will_transmit(slot, rng) for slot in range(total)]
        start = 0
        for length in lengths:
            assert sum(transmissions[start : start + length]) == 1
            start += length

    def test_chosen_slot_uniform_over_window(self):
        protocol = ExpBackonBackoff()
        counts = np.zeros(2, dtype=int)
        for seed in range(400):
            fresh = protocol.spawn()
            rng = np.random.default_rng(seed)
            for slot in range(2):  # first window of Algorithm 2 has length 2
                if fresh.will_transmit(slot, rng):
                    counts[slot] += 1
        assert counts.sum() == 400
        assert counts.min() > 120  # roughly uniform

    def test_invalid_window_length_rejected(self):
        class BadWindows(WindowedProtocol):
            name = "test-bad-windows"
            def window_lengths(self):
                yield 0

        protocol = BadWindows()
        protocol.reset()
        with pytest.raises(ValueError):
            protocol.will_transmit(0, np.random.default_rng(0))
