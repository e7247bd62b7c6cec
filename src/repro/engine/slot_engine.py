"""Exact node-level engine: the paper's station loop, written down once.

This is the reference implementation of the paper's model (Section 2).  Every
station holds its own protocol copy and its own random stream, and every slot
the engine

1. injects the messages that arrive in it, one new station per message;
2. asks every active station whether it transmits;
3. resolves the slot (silence, success or collision);
4. hands each active station the feedback the channel lets it observe; and
5. retires the station whose transmission succeeded (implicit
   acknowledgement: "upon message delivery stop").

The run ends at the last delivery, or at the slot cap, which is reported as
an unsolved run rather than a truncated makespan.

The engine works for every protocol, channel and arrival process, at
O(active stations) per slot.  The specialised fair and window engines are
validated against it by :mod:`repro.engine.validation` and by the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

import numpy as np

from repro.channel.arrivals import ArrivalProcess, BatchArrival
from repro.channel.model import ChannelModel, SlotOutcome, resolve_slot
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.engine.result import SimulationResult
from repro.protocols.base import Protocol
from repro.util.rng import RandomSource
from repro.util.validation import DEFAULT_MAX_SLOTS_FACTOR, check_max_slots, check_positive_int

__all__ = ["SlotEngine"]


class _Station:
    """One station of a run: its index in creation order, its protocol copy,
    its random stream and the slot its message arrived in."""

    __slots__ = ("index", "protocol", "rng", "arrival")

    def __init__(
        self, index: int, protocol: Protocol, rng: np.random.Generator, arrival: int
    ) -> None:
        self.index = index
        self.protocol = protocol
        self.rng = rng
        self.arrival = arrival


class SlotEngine:
    """Simulate any protocol by running every station explicitly."""

    name = "slot"

    #: Version of this engine's random stream (see ``FairEngine.stream_version``).
    stream_version: ClassVar[int] = 1

    def __init__(self, channel: ChannelModel | None = None) -> None:
        self.channel = channel if channel is not None else ChannelModel()

    def simulate(
        self,
        protocol: Protocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
        arrivals: ArrivalProcess | None = None,
    ) -> SimulationResult:
        """Run one instance and return its :class:`SimulationResult`.

        Parameters
        ----------
        protocol:
            Prototype protocol; one copy is spawned per station.
        k:
            Number of messages; an explicit ``arrivals`` process must inject
            exactly ``k`` (``ValueError`` otherwise).
        seed:
            Root seed for the run: ``RandomSource(seed).child(0)`` draws the
            arrivals and ``.child(1).child(i)`` is station ``i``'s stream.
        max_slots:
            Safety cap; defaults to ``DEFAULT_MAX_SLOTS_FACTOR * k``.
        trace:
            Optional :class:`ExecutionTrace` to fill with per-slot records;
            a success names its station's index in ``delivered_node``.
        arrivals:
            Arrival process; defaults to the paper's batched arrivals.  When
            given, ``metadata["latencies"]`` holds each delivered message's
            delivery slot minus its arrival slot, in station order.
        """
        check_positive_int("k", k)
        if arrivals is not None and arrivals.total_messages != k:
            raise ValueError(
                f"k={k} disagrees with the arrival process, which injects "
                f"{arrivals.total_messages} messages; pass k=arrivals.total_messages"
            )
        process = arrivals if arrivals is not None else BatchArrival(k)
        cap = check_max_slots(max_slots if max_slots is not None else DEFAULT_MAX_SLOTS_FACTOR * k)

        source = RandomSource(seed=seed)
        events = sorted(process.events(source.child(0).generator), key=lambda event: event.slot)
        injected = sum(event.count for event in events)
        if injected != k:
            raise RuntimeError(
                f"arrival process announced {k} messages but generated {injected}"
            )
        streams = source.child(1)
        # A deque keeps the per-slot arrival check O(1) per event; Poisson and
        # bursty schedules can hold one event per message.
        pending = deque(events)
        # Stations join on arrival and leave on delivery (at most one per
        # slot), so a slot costs O(active stations), not O(stations created).
        active: list[_Station] = []
        latencies: list[int | None] = []
        observe = self.channel.observe
        successes = collisions = silences = 0
        last_delivery = -1

        slot = 0
        while successes < k and slot < cap:
            while pending and pending[0].slot <= slot:
                for _ in range(pending.popleft().count):
                    index = len(latencies)
                    rng = streams.child(index).generator
                    station = _Station(index, protocol.spawn(), rng, slot)
                    station.protocol.reset()
                    latencies.append(None)
                    active.append(station)

            active_before = len(active)
            decisions = [station.protocol.will_transmit(slot, station.rng) for station in active]
            transmitters = [station for station, sent in zip(active, decisions) if sent]
            outcome = resolve_slot(len(transmitters))
            winner = None
            if outcome is SlotOutcome.SUCCESS:
                successes += 1
                winner = transmitters[0]
            elif outcome is SlotOutcome.COLLISION:
                collisions += 1
            else:
                silences += 1

            for station, sent in zip(active, decisions):
                station.protocol.notify(
                    observe(
                        slot=slot,
                        transmitted=sent,
                        outcome=outcome,
                        is_successful_transmitter=station is winner,
                    )
                )

            if winner is not None:
                active.remove(winner)
                latencies[winner.index] = slot - winner.arrival
                last_delivery = slot
            if trace is not None:
                trace.append(
                    SlotRecord(
                        slot=slot,
                        transmitters=len(transmitters),
                        outcome=outcome,
                        active_before=active_before,
                        delivered_node=winner.index if winner is not None else None,
                    )
                )
            slot += 1

        solved = successes == k
        metadata: dict[str, object] = {
            "arrivals": process.describe()["type"],
            "stream_version": self.stream_version,
        }
        if arrivals is not None:
            metadata["latencies"] = tuple(
                latency for latency in latencies if latency is not None
            )
        return SimulationResult(
            solved=solved,
            makespan=last_delivery + 1 if solved else None,
            k=k,
            slots_simulated=slot,
            successes=successes,
            collisions=collisions,
            silences=silences,
            protocol=protocol.name,
            engine=self.name,
            seed=seed,
            metadata=metadata,
        )
