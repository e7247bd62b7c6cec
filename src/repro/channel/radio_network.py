"""Exact node-level simulator of the single-hop Radio Network.

This is the reference implementation of the paper's model (Section 2): every
station is an explicit :class:`~repro.channel.node.Node` object holding its
own protocol instance and its own random stream; every slot the simulator

1. injects any arriving messages (activating the corresponding nodes),
2. asks every active node whether it transmits,
3. resolves the slot (silence / success / collision), and
4. hands each active node exactly the feedback the channel model allows it to
   observe.

The run ends when every injected message has been delivered (or when the
safety cap on the number of slots is reached, which is reported as a failure
rather than silently returning a truncated makespan).

The node-level simulator is O(active nodes) per slot, so it is the slowest of
the three engines; it exists to *define* the semantics.  The specialised
engines in :mod:`repro.engine` are validated against it in the test suite and
are the ones used for the large sweeps of the evaluation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.channel.arrivals import ArrivalProcess, BatchArrival
from repro.channel.model import ChannelModel, SlotOutcome, resolve_slot
from repro.channel.node import Message, Node
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.protocols.base import Protocol
from repro.util.rng import RandomSource

__all__ = ["RadioNetwork", "RadioNetworkResult"]

#: Default safety cap: no experiment in this repository legitimately needs
#: more than this many slots per contender.
_DEFAULT_SLOT_FACTOR = 10_000


@dataclass
class RadioNetworkResult:
    """Outcome of one node-level simulation run.

    Attributes
    ----------
    solved:
        Whether every message was delivered before the slot cap.
    makespan:
        Number of slots until the last delivery (inclusive); the quantity the
        paper plots in Figure 1 and divides by k in Table 1.  ``None`` when
        the run did not solve the instance.
    k:
        Total number of messages injected.
    slots_simulated:
        Number of slots actually simulated (equals ``makespan`` for solved
        runs).
    successes, collisions, silences:
        Slot-outcome counts over the whole run.
    delivery_slots:
        Slot index (0-based) of every successful delivery, in order.
    node_summaries:
        Per-node statistics (only populated when ``collect_node_summaries``).
    """

    solved: bool
    makespan: int | None
    k: int
    slots_simulated: int
    successes: int
    collisions: int
    silences: int
    delivery_slots: list[int] = field(default_factory=list)
    node_summaries: list[dict[str, object]] = field(default_factory=list)

    @property
    def steps_per_node(self) -> float:
        """The ratio reported in Table 1 of the paper."""
        if not self.solved or self.makespan is None:
            raise ValueError("steps_per_node is only defined for solved runs")
        return self.makespan / self.k


class RadioNetwork:
    """Single-hop Radio Network simulator (exact, per-node).

    Parameters
    ----------
    protocol:
        Prototype protocol instance; each node receives an independent
        :meth:`~repro.protocols.base.Protocol.spawn` copy.
    arrivals:
        Arrival process; defaults must be provided by the caller (static
        k-selection uses :class:`~repro.channel.arrivals.BatchArrival`).
    channel:
        Channel model (defaults to the paper's: no collision detection,
        implicit acknowledgements).
    seed:
        Root seed for the run; node streams and arrival randomness are derived
        from it deterministically.
    max_slots:
        Safety cap on the number of simulated slots; ``None`` selects
        ``_DEFAULT_SLOT_FACTOR * k``.
    """

    def __init__(
        self,
        protocol: Protocol,
        arrivals: ArrivalProcess,
        channel: ChannelModel | None = None,
        seed: int = 0,
        max_slots: int | None = None,
    ) -> None:
        self.protocol_prototype = protocol
        self.arrivals = arrivals
        self.channel = channel if channel is not None else ChannelModel()
        self.seed = seed
        self.k = arrivals.total_messages
        self.max_slots = max_slots if max_slots is not None else _DEFAULT_SLOT_FACTOR * self.k

    @classmethod
    def for_static_k_selection(
        cls,
        protocol: Protocol,
        k: int,
        seed: int = 0,
        channel: ChannelModel | None = None,
        max_slots: int | None = None,
    ) -> "RadioNetwork":
        """Convenience constructor for the paper's setting (batched arrivals)."""
        return cls(
            protocol=protocol,
            arrivals=BatchArrival(k),
            channel=channel,
            seed=seed,
            max_slots=max_slots,
        )

    # ---------------------------------------------------------------- running
    def run(
        self,
        trace: ExecutionTrace | None = None,
        collect_node_summaries: bool = False,
    ) -> RadioNetworkResult:
        """Simulate until every message is delivered (or the slot cap is hit)."""
        source = RandomSource(seed=self.seed)
        arrival_rng = source.child(0).generator
        node_source = source.child(1)

        events = sorted(self.arrivals.events(arrival_rng), key=lambda event: event.slot)
        total_messages = sum(event.count for event in events)
        if total_messages != self.k:
            raise RuntimeError(
                f"arrival process announced {self.k} messages but generated {total_messages}"
            )

        nodes: list[Node] = []
        # The active set is maintained incrementally: nodes join on arrival
        # and leave when their message is delivered (the only way a node goes
        # idle, and at most one per slot).  Rescanning `nodes` every slot
        # would cost O(total nodes ever created) per slot, which dominates
        # long dynamic runs where most nodes are already done.
        active_nodes: list[Node] = []
        # A deque keeps the per-slot arrival check O(1) per event; bursty and
        # Poisson schedules can hold one event per message, and list.pop(0)
        # would make the arrival phase quadratic in the number of events.
        pending_events = deque(events)
        delivered = 0
        successes = collisions = silences = 0
        delivery_slots: list[int] = []

        slot = 0
        while delivered < total_messages:
            if slot >= self.max_slots:
                return RadioNetworkResult(
                    solved=False,
                    makespan=None,
                    k=total_messages,
                    slots_simulated=slot,
                    successes=successes,
                    collisions=collisions,
                    silences=silences,
                    delivery_slots=delivery_slots,
                    node_summaries=[node.summary() for node in nodes]
                    if collect_node_summaries
                    else [],
                )

            # 1. arrivals
            while pending_events and pending_events[0].slot <= slot:
                event = pending_events.popleft()
                for _ in range(event.count):
                    node_id = len(nodes)
                    node = Node(
                        node_id=node_id,
                        protocol=self.protocol_prototype.spawn(),
                        rng=node_source.child(node_id).generator,
                    )
                    node.activate(Message(origin=node_id, arrival_slot=slot), slot)
                    nodes.append(node)
                    active_nodes.append(node)

            # 2. transmission decisions (one flag per active node, so the
            # feedback phase below tests membership in O(1) instead of
            # scanning the transmitter list per node)
            active_before = len(active_nodes)
            decisions = [node.decide_transmission(slot) for node in active_nodes]
            transmitters = [
                node for node, transmitted in zip(active_nodes, decisions) if transmitted
            ]
            outcome = resolve_slot(len(transmitters))
            if outcome is SlotOutcome.SUCCESS:
                successes += 1
            elif outcome is SlotOutcome.COLLISION:
                collisions += 1
            else:
                silences += 1

            successful_node = transmitters[0] if outcome is SlotOutcome.SUCCESS else None

            # 3. feedback
            for node, transmitted in zip(active_nodes, decisions):
                observation = self.channel.observe(
                    slot=slot,
                    transmitted=transmitted,
                    outcome=outcome,
                    is_successful_transmitter=node is successful_node,
                )
                node.receive_feedback(observation)

            if successful_node is not None and not successful_node.is_active:
                delivered += 1
                delivery_slots.append(slot)
                active_nodes.remove(successful_node)

            if trace is not None:
                trace.append(
                    SlotRecord(
                        slot=slot,
                        transmitters=len(transmitters),
                        outcome=outcome,
                        active_before=active_before,
                        delivered_node=successful_node.node_id if successful_node else None,
                    )
                )
            slot += 1

        return RadioNetworkResult(
            solved=True,
            makespan=delivery_slots[-1] + 1 if delivery_slots else 0,
            k=total_messages,
            slots_simulated=slot,
            successes=successes,
            collisions=collisions,
            silences=silences,
            delivery_slots=delivery_slots,
            node_summaries=[node.summary() for node in nodes] if collect_node_summaries else [],
        )
