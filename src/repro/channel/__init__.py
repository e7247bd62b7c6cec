"""Radio-network substrate: the multiple-access channel the paper simulates.

The paper's model (Section 2) is a slot-synchronous single-hop Radio Network
without collision detection: in every communication step each active station
decides whether to transmit; if exactly one transmits the message is delivered
to everyone (and implicitly acknowledged), otherwise the stations hear noise
and cannot tell a collision apart from silence.

This package implements that substrate:

* :mod:`repro.channel.model` — slot outcomes, feedback models and the
  per-station observation produced by a slot.
* :mod:`repro.channel.node` — station state machine (active / idle) wrapping a
  per-node protocol instance.
* :mod:`repro.channel.arrivals` — message-arrival processes: the batch arrival
  of static k-selection plus Poisson and bursty processes for the dynamic
  extension discussed in the paper's conclusions.
* :mod:`repro.channel.trace` — per-slot execution records.
* :mod:`repro.channel.radio_network` — the exact node-level simulator.
"""

from __future__ import annotations

from repro.channel.model import (
    ChannelModel,
    FeedbackModel,
    Observation,
    SlotOutcome,
    resolve_slot,
)
from repro.channel.node import Message, Node, NodeState
from repro.channel.arrivals import (
    ArrivalEvent,
    ArrivalProcess,
    BatchArrival,
    BurstyArrival,
    PoissonArrival,
)
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.channel.radio_network import RadioNetwork, RadioNetworkResult

__all__ = [
    "ChannelModel",
    "FeedbackModel",
    "Observation",
    "SlotOutcome",
    "resolve_slot",
    "Message",
    "Node",
    "NodeState",
    "ArrivalEvent",
    "ArrivalProcess",
    "BatchArrival",
    "BurstyArrival",
    "PoissonArrival",
    "ExecutionTrace",
    "SlotRecord",
    "RadioNetwork",
    "RadioNetworkResult",
]
