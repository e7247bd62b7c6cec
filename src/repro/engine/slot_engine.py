"""Exact node-level engine: thin adapter around :class:`RadioNetwork`.

This engine works for every protocol and every channel configuration, at
O(active nodes) cost per slot.  It is the semantic reference: the specialised
fair and window engines are validated against it by
:mod:`repro.engine.validation` and by the test suite.
"""

from __future__ import annotations

from typing import ClassVar

from repro.channel.arrivals import ArrivalProcess, BatchArrival
from repro.channel.model import ChannelModel
from repro.channel.radio_network import RadioNetwork
from repro.channel.trace import ExecutionTrace
from repro.engine.result import SimulationResult
from repro.protocols.base import Protocol
from repro.util.validation import check_max_slots, check_positive_int

__all__ = ["SlotEngine"]


class SlotEngine:
    """Simulate any protocol by instantiating every station explicitly."""

    name = "slot"

    #: Version of this engine's random stream (see ``FairEngine.stream_version``).
    stream_version: ClassVar[int] = 1

    def __init__(self, channel: ChannelModel | None = None, max_slots_factor: int = 10_000) -> None:
        self.channel = channel if channel is not None else ChannelModel()
        self.max_slots_factor = check_positive_int("max_slots_factor", max_slots_factor)

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
            Number of messages (ignored if ``arrivals`` is given explicitly,
            in which case the arrival process defines the workload).
        seed:
            Root seed for the run.
        max_slots:
            Safety cap; defaults to ``max_slots_factor * k``.
        trace:
            Optional :class:`ExecutionTrace` to fill with per-slot records.
        arrivals:
            Arrival process; defaults to the paper's batched arrivals.
        """
        check_positive_int("k", k)
        process = arrivals if arrivals is not None else BatchArrival(k)
        cap = check_max_slots(
            max_slots if max_slots is not None else self.max_slots_factor * process.total_messages
        )
        network = RadioNetwork(
            protocol=protocol, arrivals=process, channel=self.channel, seed=seed, max_slots=cap
        )
        raw = network.run(trace=trace, collect_node_summaries=arrivals is not None)
        metadata: dict[str, object] = {
            "arrivals": process.describe()["type"],
            "stream_version": self.stream_version,
        }
        if arrivals is not None:
            # Per-message delivery latency (delivery slot − arrival slot) is
            # the quantity a dynamic analysis would bound; expose it so the
            # dynamic experiment can aggregate through the simulate() front
            # door instead of driving RadioNetwork directly.
            metadata["latencies"] = tuple(
                int(summary["delivery_slot"]) - int(summary["activation_slot"])
                for summary in raw.node_summaries
                if summary["delivery_slot"] is not None
                and summary["activation_slot"] is not None
            )
        return SimulationResult(
            solved=raw.solved,
            makespan=raw.makespan,
            k=raw.k,
            slots_simulated=raw.slots_simulated,
            successes=raw.successes,
            collisions=raw.collisions,
            silences=raw.silences,
            protocol=protocol.name,
            engine=self.name,
            seed=seed,
            metadata=metadata,
        )
