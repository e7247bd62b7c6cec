"""Channel semantics: slot outcomes, feedback models, per-station observations.

The multiple-access channel of the paper is fully described by two rules:

1. **Outcome rule.**  In a slot, if exactly one station transmits the slot is a
   *success* and the message is delivered to every station; if none transmit
   the slot is *silent*; if two or more transmit the slot is a *collision* and
   nothing is delivered.
2. **Feedback rule.**  The paper's model has *no collision detection*: a
   station that did not receive a message cannot tell whether the slot was
   silent or a collision.  A station whose own transmission succeeded learns
   so (implicit acknowledgement, e.g. 802.11-style ACK) and becomes idle.

Other feedback models (full collision detection, as used by the tree/splitting
algorithms discussed in the paper's related work) are provided so baselines
that need them can be expressed in the same framework.  Spec strings name the
channel configurations through the closed table
:data:`repro.scenarios.spec.CHANNELS`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "SlotOutcome",
    "FeedbackModel",
    "Observation",
    "ChannelModel",
    "resolve_slot",
]


class SlotOutcome(enum.Enum):
    """Physical outcome of one communication step on the shared channel."""

    #: No station transmitted; only background noise on the channel.
    SILENCE = "silence"
    #: Exactly one station transmitted; its message was delivered to everyone.
    SUCCESS = "success"
    #: Two or more stations transmitted; messages garbled, nothing delivered.
    COLLISION = "collision"


class FeedbackModel(enum.Enum):
    """How much of the slot outcome a non-receiving station can observe."""

    #: The paper's model: silence and collision are indistinguishable noise.
    NO_COLLISION_DETECTION = "no-cd"
    #: Ternary feedback: every station learns the exact :class:`SlotOutcome`.
    COLLISION_DETECTION = "cd"


def resolve_slot(transmitter_count: int) -> SlotOutcome:
    """Map the number of simultaneous transmitters to the slot outcome."""
    if transmitter_count < 0:
        raise ValueError(f"transmitter_count must be non-negative, got {transmitter_count}")
    if transmitter_count == 0:
        return SlotOutcome.SILENCE
    if transmitter_count == 1:
        return SlotOutcome.SUCCESS
    return SlotOutcome.COLLISION


@dataclass(frozen=True)
class Observation:
    """What one station observes at the end of one slot.

    Attributes
    ----------
    slot:
        Global slot index (0-based).
    transmitted:
        Whether this station transmitted in the slot.
    received:
        Whether this station received a message transmitted by *another*
        station (true exactly when the slot was a success and the station was
        not the transmitter).
    delivered:
        Whether this station's own transmission succeeded in the slot (the
        implicit acknowledgement of the model); the station becomes idle.
    detected:
        The exact slot outcome, populated only under
        :attr:`FeedbackModel.COLLISION_DETECTION`; ``None`` in the paper's
        model, where noise is ambiguous.
    """

    slot: int
    transmitted: bool
    received: bool
    delivered: bool
    detected: SlotOutcome | None = None

    def __post_init__(self) -> None:
        if self.received and self.delivered:
            raise ValueError("a station cannot both receive another message and deliver its own")
        if self.delivered and not self.transmitted:
            raise ValueError("a station cannot deliver without transmitting")

    @property
    def heard_something(self) -> bool:
        """True when the station can positively distinguish this slot from noise."""
        return self.received or self.delivered or self.detected is not None


@dataclass(frozen=True)
class ChannelModel:
    """Configuration of the shared channel.

    The default configuration is exactly the paper's model: no collision
    detection.  Successful transmissions are always acknowledged implicitly,
    so a station whose message got through learns so and retires.
    """

    feedback: FeedbackModel = FeedbackModel.NO_COLLISION_DETECTION

    def observe(
        self,
        slot: int,
        transmitted: bool,
        outcome: SlotOutcome,
        is_successful_transmitter: bool,
    ) -> Observation:
        """Build the :class:`Observation` for a single station.

        Parameters
        ----------
        slot:
            Global slot index.
        transmitted:
            Whether the observing station transmitted.
        outcome:
            The physical outcome of the slot.
        is_successful_transmitter:
            Whether the observing station is the unique transmitter of a
            successful slot.
        """
        if is_successful_transmitter and outcome is not SlotOutcome.SUCCESS:
            raise ValueError("is_successful_transmitter requires a SUCCESS outcome")
        if is_successful_transmitter and not transmitted:
            raise ValueError("the successful transmitter must have transmitted")
        received = outcome is SlotOutcome.SUCCESS and not is_successful_transmitter
        detected = outcome if self.feedback is FeedbackModel.COLLISION_DETECTION else None
        return Observation(
            slot=slot,
            transmitted=transmitted,
            received=received,
            delivered=is_successful_transmitter,
            detected=detected,
        )
