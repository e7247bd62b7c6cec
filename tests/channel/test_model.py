"""Tests for the channel semantics (slot outcomes, feedback, observations)."""

from __future__ import annotations

import pytest

from repro.channel.model import (
    ChannelModel,
    FeedbackModel,
    Observation,
    SlotOutcome,
    resolve_slot,
)


class TestResolveSlot:
    def test_zero_transmitters_is_silence(self):
        assert resolve_slot(0) is SlotOutcome.SILENCE

    def test_one_transmitter_is_success(self):
        assert resolve_slot(1) is SlotOutcome.SUCCESS

    @pytest.mark.parametrize("count", [2, 3, 10, 1000])
    def test_many_transmitters_collide(self, count):
        assert resolve_slot(count) is SlotOutcome.COLLISION

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_slot(-1)


class TestObservation:
    def test_cannot_receive_and_deliver(self):
        with pytest.raises(ValueError):
            Observation(slot=0, transmitted=True, received=True, delivered=True)

    def test_cannot_deliver_without_transmitting(self):
        with pytest.raises(ValueError):
            Observation(slot=0, transmitted=False, received=False, delivered=True)

    def test_heard_something_on_reception(self):
        obs = Observation(slot=0, transmitted=False, received=True, delivered=False)
        assert obs.heard_something

    def test_noise_is_not_heard(self):
        obs = Observation(slot=0, transmitted=True, received=False, delivered=False)
        assert not obs.heard_something

    def test_detection_counts_as_heard(self):
        obs = Observation(
            slot=0, transmitted=False, received=False, delivered=False,
            detected=SlotOutcome.COLLISION,
        )
        assert obs.heard_something


class TestChannelModelNoCollisionDetection:
    def setup_method(self):
        self.channel = ChannelModel()

    def test_default_is_papers_model(self):
        assert self.channel.feedback is FeedbackModel.NO_COLLISION_DETECTION
        assert self.channel == ChannelModel(feedback=FeedbackModel.NO_COLLISION_DETECTION)

    def test_successful_transmitter_gets_ack(self):
        obs = self.channel.observe(
            slot=3, transmitted=True, outcome=SlotOutcome.SUCCESS, is_successful_transmitter=True
        )
        assert obs.delivered and not obs.received and obs.detected is None

    def test_listener_receives_on_success(self):
        obs = self.channel.observe(
            slot=3, transmitted=False, outcome=SlotOutcome.SUCCESS, is_successful_transmitter=False
        )
        assert obs.received and not obs.delivered

    def test_collision_and_silence_are_indistinguishable(self):
        collision = self.channel.observe(
            slot=1, transmitted=False, outcome=SlotOutcome.COLLISION, is_successful_transmitter=False
        )
        silence = self.channel.observe(
            slot=1, transmitted=False, outcome=SlotOutcome.SILENCE, is_successful_transmitter=False
        )
        assert collision.detected is None and silence.detected is None
        assert not collision.heard_something and not silence.heard_something

    def test_successful_transmitter_requires_success_outcome(self):
        with pytest.raises(ValueError):
            self.channel.observe(
                slot=0, transmitted=True, outcome=SlotOutcome.COLLISION,
                is_successful_transmitter=True,
            )

    def test_successful_transmitter_must_transmit(self):
        with pytest.raises(ValueError):
            self.channel.observe(
                slot=0, transmitted=False, outcome=SlotOutcome.SUCCESS,
                is_successful_transmitter=True,
            )


class TestChannelModelCollisionDetection:
    def setup_method(self):
        self.channel = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)

    @pytest.mark.parametrize(
        "outcome", [SlotOutcome.SILENCE, SlotOutcome.SUCCESS, SlotOutcome.COLLISION]
    )
    def test_outcome_is_visible(self, outcome):
        obs = self.channel.observe(
            slot=0, transmitted=False, outcome=outcome, is_successful_transmitter=False
        )
        assert obs.detected is outcome
