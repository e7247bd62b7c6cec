"""Tests for the node-level slot engine: the paper's station loop."""

from __future__ import annotations

import pytest

from repro.channel.arrivals import BatchArrival, BurstyArrival, PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel, Observation
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import simulate
from repro.engine.slot_engine import SlotEngine
from repro.protocols.aloha import SlottedAloha
from repro.protocols.splitting import BinarySplitting


class _Recording(OneFailAdaptive):
    """One-fail Adaptive whose station copies log every slot the engine asks
    them about and every observation it hands them.

    ``copies`` lists the copies in the order the engine spawned them, which
    is station order.
    """

    def __init__(self, copies: list[_Recording] | None = None) -> None:
        super().__init__()
        self.copies = copies if copies is not None else []
        self.asked: list[int] = []
        self.observed: list[Observation] = []

    def __deepcopy__(self, memo: dict) -> _Recording:
        clone = _Recording(self.copies)
        self.copies.append(clone)
        return clone

    def will_transmit(self, slot, rng):
        self.asked.append(slot)
        return super().will_transmit(slot, rng)

    def notify(self, observation):
        self.observed.append(observation)
        super().notify(observation)


def _recorded_bursty_run(engine: SlotEngine):
    """Two bursts of three stations, at slots 0 and 500, run with recording
    copies; returns the prototype, each station's arrival and delivery slot,
    the trace and the result."""
    prototype = _Recording()
    trace = ExecutionTrace()
    arrivals = BurstyArrival(bursts=2, burst_size=3, gap=500)
    result = engine.simulate(prototype, 6, seed=12, trace=trace, arrivals=arrivals)
    arrival = [0, 0, 0, 500, 500, 500]
    delivery = {
        record.delivered_node: record.slot for record in trace if record.delivered_node is not None
    }
    return prototype, arrival, [delivery[index] for index in range(6)], trace, result


class TestBasicOperation:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 12, 20])
    def test_solves_any_protocol_class(self, k, slot_engine):
        for protocol in (OneFailAdaptive(), ExpBackonBackoff()):
            trace = ExecutionTrace()
            result = slot_engine.simulate(protocol, k, seed=1, trace=trace)
            assert result.solved
            assert result.k == k
            assert result.successes == k
            assert len(trace.success_slots()) == k

    def test_engine_name(self, slot_engine):
        assert slot_engine.simulate(OneFailAdaptive(), 3, seed=0).engine == "slot"

    def test_metadata_reports_arrivals(self, slot_engine):
        result = slot_engine.simulate(OneFailAdaptive(), 3, seed=0)
        assert result.metadata["arrivals"] == "BatchArrival"
        assert "latencies" not in result.metadata

    def test_deterministic(self, slot_engine):
        a = slot_engine.simulate(OneFailAdaptive(), 15, seed=4)
        b = slot_engine.simulate(OneFailAdaptive(), 15, seed=4)
        assert a.makespan == b.makespan

    def test_trace_forwarded(self, slot_engine):
        trace = ExecutionTrace()
        result = slot_engine.simulate(OneFailAdaptive(), 5, seed=2, trace=trace)
        assert [record.slot for record in trace] == list(range(result.slots_simulated))
        assert trace.successes == 5
        delivered = [record.delivered_node for record in trace if record.delivered_node is not None]
        assert sorted(delivered) == list(range(5))

    def test_unsolved_when_capped(self, slot_engine):
        result = slot_engine.simulate(OneFailAdaptive(), 30, seed=0, max_slots=5)
        assert not result.solved
        assert result.makespan is None
        assert result.k == 30
        assert result.slots_simulated == 5
        assert result.successes + result.collisions + result.silences == 5

    def test_invalid_k(self, slot_engine):
        with pytest.raises(ValueError):
            slot_engine.simulate(OneFailAdaptive(), 0, seed=0)


class TestStationLoop:
    def test_deliveries_increase_and_makespan_is_last_plus_one(self, slot_engine):
        trace = ExecutionTrace()
        result = slot_engine.simulate(OneFailAdaptive(), 12, seed=5, trace=trace)
        deliveries = trace.success_slots()
        assert all(a < b for a, b in zip(deliveries, deliveries[1:]))
        assert result.makespan == deliveries[-1] + 1 == result.slots_simulated

    def test_single_station_with_known_k_delivers_immediately(self, slot_engine):
        assert slot_engine.simulate(SlottedAloha(k=1), 1, seed=0).makespan == 1

    def test_outcome_counts_partition_slots(self, slot_engine):
        result = slot_engine.simulate(OneFailAdaptive(), 10, seed=6)
        assert result.successes + result.collisions + result.silences == result.slots_simulated

    def test_makespan_at_least_k(self, slot_engine):
        assert slot_engine.simulate(OneFailAdaptive(), 8, seed=4).makespan >= 8

    def test_different_seeds_vary(self, slot_engine):
        makespans = {
            slot_engine.simulate(OneFailAdaptive(), 20, seed=seed).makespan for seed in range(6)
        }
        assert len(makespans) > 1

    def test_steps_per_node(self, slot_engine):
        result = slot_engine.simulate(OneFailAdaptive(), 10, seed=6)
        assert result.steps_per_node == pytest.approx(result.makespan / 10)

    def test_steps_per_node_undefined_when_capped(self, slot_engine):
        result = slot_engine.simulate(OneFailAdaptive(), 20, seed=1, max_slots=5)
        with pytest.raises(ValueError):
            _ = result.steps_per_node


class TestStationLifecycle:
    """A station is consulted from its arrival slot to its delivery slot, in
    every one of them, and never outside them."""

    def test_one_copy_per_station_and_the_prototype_stays_idle(self, slot_engine):
        prototype, *_ = _recorded_bursty_run(slot_engine)
        assert len(prototype.copies) == 6
        assert prototype.asked == []
        assert prototype.observed == []

    def test_a_station_is_not_consulted_before_it_arrives(self, slot_engine):
        prototype, arrival, _, _, _ = _recorded_bursty_run(slot_engine)
        assert [station.asked[0] for station in prototype.copies] == arrival

    def test_a_delivered_station_is_never_consulted_again(self, slot_engine):
        prototype, _, delivery, _, _ = _recorded_bursty_run(slot_engine)
        for station, delivered in zip(prototype.copies, delivery):
            assert station.asked[-1] == delivered
            assert [obs.slot for obs in station.observed if obs.delivered] == [delivered]
            assert station.observed[-1].slot == delivered

    def test_an_active_station_observes_every_slot(self, slot_engine):
        prototype, arrival, delivery, trace, _ = _recorded_bursty_run(slot_engine)
        for station, first, last in zip(prototype.copies, arrival, delivery):
            assert station.asked == list(range(first, last + 1))
            assert [obs.slot for obs in station.observed] == station.asked
        observers = [0] * len(trace)
        for station in prototype.copies:
            for obs in station.observed:
                observers[obs.slot] += 1
        assert observers == [record.active_before for record in trace]

    def test_no_delivery_before_arrival(self, slot_engine):
        _, arrival, delivery, _, result = _recorded_bursty_run(slot_engine)
        assert all(last >= first for first, last in zip(arrival, delivery))
        assert result.metadata["latencies"] == tuple(
            last - first for first, last in zip(arrival, delivery)
        )


class TestDynamicArrivals:
    @pytest.mark.parametrize(
        "arrivals",
        [PoissonArrival(k=15, rate=0.2), BurstyArrival(bursts=3, burst_size=5, gap=200)],
        ids=["poisson", "bursty"],
    )
    def test_solves_with_non_negative_latencies(self, arrivals, slot_engine):
        result = slot_engine.simulate(OneFailAdaptive(), 15, seed=10, arrivals=arrivals)
        assert result.solved
        assert result.k == result.successes == 15
        latencies = result.metadata["latencies"]
        assert len(latencies) == 15
        assert all(latency >= 0 for latency in latencies)

    def test_many_single_message_events(self, slot_engine):
        """One event per message (the Poisson worst case) must stay cheap:
        the deque cursor makes the arrival phase O(1) per event."""
        arrivals = PoissonArrival(k=400, rate=1.0)
        result = slot_engine.simulate(OneFailAdaptive(), 400, seed=3, arrivals=arrivals)
        assert result.solved
        assert result.successes == 400

    def test_k_must_match_the_arrival_process(self, slot_engine):
        with pytest.raises(ValueError, match="k=5 disagrees with the arrival process"):
            slot_engine.simulate(OneFailAdaptive(), 5, arrivals=PoissonArrival(k=8, rate=0.2))

    def test_simulate_reports_the_mismatch(self):
        with pytest.raises(
            ValueError,
            match=r"k=5 disagrees with the arrival process, which injects 8 messages; "
            r"pass k=arrivals\.total_messages",
        ):
            simulate(OneFailAdaptive(), 5, arrivals=PoissonArrival(k=8, rate=0.2))

    def test_lying_arrival_process_is_refused(self, slot_engine):
        class LyingArrival(BatchArrival):
            def events(self, rng):
                return super().events(rng)[:0]

        with pytest.raises(RuntimeError, match="announced 3 messages but generated 0"):
            slot_engine.simulate(OneFailAdaptive(), 3, arrivals=LyingArrival(3))


class TestChannels:
    def test_binary_splitting_needs_collision_detection(self, slot_engine):
        with pytest.raises(RuntimeError):
            slot_engine.simulate(BinarySplitting(), 4, seed=1)
        engine = SlotEngine(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))
        result = engine.simulate(BinarySplitting(), 16, seed=2)
        assert result.solved
        assert result.successes == 16
