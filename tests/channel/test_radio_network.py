"""Tests for the exact node-level Radio Network simulator."""

from __future__ import annotations

import pytest

from repro.channel.arrivals import BatchArrival, BurstyArrival, PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.radio_network import RadioNetwork
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.protocols.aloha import SlottedAloha
from repro.protocols.splitting import BinarySplitting


class TestStaticKSelection:
    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_solves_with_one_fail_adaptive(self, k):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=k, seed=1)
        result = network.run()
        assert result.solved
        assert result.k == k
        assert result.successes == k
        assert len(result.delivery_slots) == k

    def test_solves_with_windowed_protocol(self):
        network = RadioNetwork.for_static_k_selection(ExpBackonBackoff(), k=10, seed=2)
        result = network.run()
        assert result.solved
        assert result.successes == 10

    def test_makespan_is_last_delivery_plus_one(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=5, seed=3)
        result = network.run()
        assert result.makespan == result.delivery_slots[-1] + 1

    def test_makespan_at_least_k(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=8, seed=4)
        result = network.run()
        assert result.makespan >= 8

    def test_delivery_slots_strictly_increasing(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=12, seed=5)
        result = network.run()
        slots = result.delivery_slots
        assert all(a < b for a, b in zip(slots, slots[1:]))

    def test_single_node_with_known_k_delivers_immediately(self):
        network = RadioNetwork.for_static_k_selection(SlottedAloha(k=1), k=1, seed=0)
        result = network.run()
        assert result.makespan == 1

    def test_deterministic_given_seed(self):
        results = [
            RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=10, seed=42).run().makespan
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_different_seeds_vary(self):
        makespans = {
            RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=20, seed=seed).run().makespan
            for seed in range(6)
        }
        assert len(makespans) > 1

    def test_outcome_counts_partition_slots(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=10, seed=6)
        result = network.run()
        assert result.successes + result.collisions + result.silences == result.slots_simulated

    def test_steps_per_node(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=10, seed=6)
        result = network.run()
        assert result.steps_per_node == pytest.approx(result.makespan / 10)


class TestSlotCap:
    def test_unsolved_when_capped(self):
        network = RadioNetwork.for_static_k_selection(
            OneFailAdaptive(), k=20, seed=1, max_slots=5
        )
        result = network.run()
        assert not result.solved
        assert result.makespan is None
        assert result.slots_simulated == 5

    def test_steps_per_node_undefined_for_unsolved(self):
        network = RadioNetwork.for_static_k_selection(
            OneFailAdaptive(), k=20, seed=1, max_slots=5
        )
        result = network.run()
        with pytest.raises(ValueError):
            _ = result.steps_per_node


class TestTraceAndSummaries:
    def test_trace_records_every_slot(self):
        trace = ExecutionTrace()
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=6, seed=7)
        result = network.run(trace=trace)
        assert len(trace) == result.slots_simulated
        assert trace.successes == 6

    def test_trace_success_slots_match_delivery_slots(self):
        trace = ExecutionTrace()
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=6, seed=8)
        result = network.run(trace=trace)
        assert trace.success_slots() == result.delivery_slots

    def test_node_summaries_collected_on_request(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=4, seed=9)
        result = network.run(collect_node_summaries=True)
        assert len(result.node_summaries) == 4
        assert all(summary["state"] == "idle" for summary in result.node_summaries)

    def test_node_summaries_empty_by_default(self):
        network = RadioNetwork.for_static_k_selection(OneFailAdaptive(), k=4, seed=9)
        assert network.run().node_summaries == []


class TestDynamicArrivals:
    def test_poisson_arrivals_solved(self):
        network = RadioNetwork(
            protocol=OneFailAdaptive(),
            arrivals=PoissonArrival(k=15, rate=0.2),
            seed=10,
        )
        result = network.run()
        assert result.solved
        assert result.successes == 15

    def test_bursty_arrivals_solved(self):
        network = RadioNetwork(
            protocol=OneFailAdaptive(),
            arrivals=BurstyArrival(bursts=3, burst_size=5, gap=200),
            seed=11,
        )
        result = network.run()
        assert result.solved
        assert result.k == 15

    def test_no_delivery_before_arrival(self):
        arrivals = BurstyArrival(bursts=2, burst_size=3, gap=500)
        network = RadioNetwork(protocol=OneFailAdaptive(), arrivals=arrivals, seed=12)
        result = network.run(collect_node_summaries=True)
        for summary in result.node_summaries:
            assert summary["delivery_slot"] >= summary["activation_slot"]


class TestArrivalEventScaling:
    def test_many_single_message_events(self):
        """One event per message (the Poisson worst case) must stay cheap:
        the deque cursor makes the arrival phase O(1) per event."""
        arrivals = PoissonArrival(k=400, rate=1.0)
        network = RadioNetwork(protocol=OneFailAdaptive(), arrivals=arrivals, seed=3)
        result = network.run()
        assert result.solved
        assert result.successes == 400


class TestCollisionDetectionChannel:
    def test_binary_splitting_requires_cd(self):
        network = RadioNetwork.for_static_k_selection(BinarySplitting(), k=4, seed=1)
        with pytest.raises(RuntimeError):
            network.run()

    def test_binary_splitting_solves_with_cd(self):
        channel = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)
        network = RadioNetwork.for_static_k_selection(
            BinarySplitting(), k=16, seed=2, channel=channel
        )
        result = network.run()
        assert result.solved
        assert result.successes == 16

    def test_batch_arrival_consistency_check(self):
        class LyingArrival(BatchArrival):
            def events(self, rng):
                return super().events(rng)[:0]

        network = RadioNetwork(protocol=OneFailAdaptive(), arrivals=LyingArrival(3), seed=0)
        with pytest.raises(RuntimeError):
            network.run()
