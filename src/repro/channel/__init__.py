"""Radio-network substrate: the multiple-access channel the paper simulates.

The paper's model (Section 2) is a slot-synchronous single-hop Radio Network
without collision detection: in every communication step each active station
decides whether to transmit; if exactly one transmits the message is delivered
to everyone (and implicitly acknowledged), otherwise the stations hear noise
and cannot tell a collision apart from silence.

This package implements that substrate:

* :mod:`repro.channel.model` — slot outcomes, feedback models and the
  per-station observation produced by a slot.
* :mod:`repro.channel.arrivals` — message-arrival processes: the batch arrival
  of static k-selection plus Poisson and bursty processes for the dynamic
  extension discussed in the paper's conclusions.
* :mod:`repro.channel.trace` — per-slot execution records.

The station loop that runs this substrate — one protocol copy and one random
stream per station — is :class:`repro.engine.SlotEngine`.
"""

from __future__ import annotations

from repro.channel.model import (
    ChannelModel,
    FeedbackModel,
    Observation,
    SlotOutcome,
    resolve_slot,
)
from repro.channel.arrivals import (
    ArrivalEvent,
    ArrivalProcess,
    BatchArrival,
    BurstyArrival,
    PoissonArrival,
)
from repro.channel.trace import ExecutionTrace, SlotRecord

__all__ = [
    "ChannelModel",
    "FeedbackModel",
    "Observation",
    "SlotOutcome",
    "resolve_slot",
    "ArrivalEvent",
    "ArrivalProcess",
    "BatchArrival",
    "BurstyArrival",
    "PoissonArrival",
    "ExecutionTrace",
    "SlotRecord",
]
