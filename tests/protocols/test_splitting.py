"""Tests for the binary-splitting (tree) baseline under collision detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.model import ChannelModel, FeedbackModel, Observation, SlotOutcome
from repro.engine.dispatch import simulate
from repro.protocols.splitting import BinarySplitting
from repro.util.rng import derive_seeds


def cd_observation(slot: int, transmitted: bool, outcome: SlotOutcome, delivered: bool = False):
    return Observation(
        slot=slot,
        transmitted=transmitted,
        received=outcome is SlotOutcome.SUCCESS and not delivered and not transmitted,
        delivered=delivered,
        detected=outcome,
    )


class TestStateMachine:
    def test_starts_at_level_zero_and_transmits(self):
        protocol = BinarySplitting()
        assert protocol.level == 0
        assert protocol.will_transmit(0, np.random.default_rng(0))

    def test_waiting_station_does_not_transmit(self):
        protocol = BinarySplitting()
        protocol.will_transmit(0, np.random.default_rng(0))
        protocol.notify(cd_observation(0, transmitted=True, outcome=SlotOutcome.COLLISION))
        if protocol.level > 0:
            assert not protocol.will_transmit(1, np.random.default_rng(1))

    def test_collision_splits_top_group(self):
        """Over many coins, a colliding station stays on top about half the time."""
        stays = 0
        trials = 600
        for seed in range(trials):
            protocol = BinarySplitting()
            protocol.will_transmit(0, np.random.default_rng(seed))
            protocol.notify(cd_observation(0, transmitted=True, outcome=SlotOutcome.COLLISION))
            stays += protocol.level == 0
        assert 0.4 < stays / trials < 0.6

    def test_waiting_station_sinks_on_collision(self):
        protocol = BinarySplitting()
        protocol._level = 2  # station already below two pending groups
        protocol.notify(cd_observation(0, transmitted=False, outcome=SlotOutcome.COLLISION))
        assert protocol.level == 3

    def test_waiting_station_rises_on_success(self):
        protocol = BinarySplitting()
        protocol._level = 2
        protocol.notify(cd_observation(0, transmitted=False, outcome=SlotOutcome.SUCCESS))
        assert protocol.level == 1

    def test_waiting_station_rises_on_silence(self):
        protocol = BinarySplitting()
        protocol._level = 1
        protocol.notify(cd_observation(0, transmitted=False, outcome=SlotOutcome.SILENCE))
        assert protocol.level == 0

    def test_requires_collision_detection(self):
        protocol = BinarySplitting()
        with pytest.raises(RuntimeError):
            protocol.notify(
                Observation(slot=0, transmitted=True, received=False, delivered=False)
            )

    def test_split_probability_validated(self):
        with pytest.raises(ValueError):
            BinarySplitting(split_probability=0.0)
        with pytest.raises(ValueError):
            BinarySplitting(split_probability=1.0)


class TestEndToEnd:
    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_solves_static_k_selection(self, k):
        channel = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)
        result = simulate(BinarySplitting(), k, seed=3, channel=channel)
        assert result.solved
        assert result.successes == k

    def test_linear_makespan_with_tree_constant(self):
        """The tree algorithm resolves a batch of k in roughly 2.9k slots."""
        channel = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)
        k = 300
        ratios = []
        for seed in derive_seeds(1, 5):
            result = simulate(BinarySplitting(), k, seed=seed, channel=channel)
            assert result.solved
            ratios.append(result.makespan / k)
        mean_ratio = sum(ratios) / len(ratios)
        assert 2.2 < mean_ratio < 3.6
