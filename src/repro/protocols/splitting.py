"""Binary splitting (tree algorithm) — the classical collision-detection baseline.

The related-work section of the paper surveys the *tree algorithms* of
Capetanakis, Hayes and Tsybakov–Mikhailov: deterministic-in-structure,
randomized-in-choice protocols that resolve a collision by recursively
splitting the set of colliding stations in two.  They require **collision
detection** (every station must learn whether a slot was a collision), which
is exactly the capability the paper's model removes; they are included here so
the repository can quantify what that capability is worth (and because they
exercise the :class:`~repro.channel.model.FeedbackModel.COLLISION_DETECTION`
channel configuration).

Protocol (obvious-first-come variant of binary splitting for batched
arrivals):

* All active stations start *enabled*.
* In every slot, each enabled station transmits with probability 1... more
  precisely the protocol maintains a conceptual stack of station subsets; an
  enabled station is one whose subset is at the top of the stack.  On a
  collision every station in the colliding subset flips a fair coin: heads
  stay at the top (transmit next slot), tails push themselves below (wait
  until the heads subgroup is fully resolved).  On a success or a silent slot
  the top subset is popped (it is exhausted or empty) and the next subset
  becomes the top.

Each station can run this with two counters and its own coin flips, using
only the ternary feedback of the collision-detection channel; no station
identities and no knowledge of k are needed.  The expected makespan for a
batch of k stations is ≈ 2.89·k slots (the classical tree-algorithm
throughput of ≈ 0.346 for the non-gated variant), linear like the paper's
protocols but with a better constant — the advantage bought by collision
detection.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.channel.model import Observation, SlotOutcome
from repro.protocols.base import Protocol

__all__ = ["BinarySplitting"]


class BinarySplitting(Protocol):
    """Randomized binary splitting (tree) algorithm under collision detection.

    Each station keeps a single integer ``level``:

    * ``level == 0`` — the station is at the top of the conceptual stack and
      transmits in the current slot;
    * ``level > 0``  — the station waits for ``level`` subsets above it to be
      resolved.

    Updates per slot, driven by the ternary feedback:

    * **collision**: stations at level 0 flip a coin — heads stay at level 0,
      tails move to level 1; stations at level > 0 move one level deeper
      (a new subset was pushed above them).
    * **success or silence**: the top subset is exhausted, so every station at
      level > 0 moves one level up; (a station at level 0 that did not
      transmit cannot exist — level 0 stations always transmit).

    The protocol refuses to run on a channel without collision detection
    (its :meth:`notify` needs ``Observation.detected``).
    """

    name: ClassVar[str] = "binary-splitting"
    label: ClassVar[str] = "Binary Splitting (CD)"
    requires_knowledge: ClassVar[frozenset[str]] = frozenset({"collision-detection"})

    def __init__(self, split_probability: float = 0.5) -> None:
        if not 0.0 < split_probability < 1.0:
            raise ValueError(
                f"split_probability must lie strictly between 0 and 1, got {split_probability}"
            )
        self.split_probability = float(split_probability)
        self.reset()

    def reset(self) -> None:
        self._level = 0
        self._pending_coin: bool | None = None

    @property
    def level(self) -> int:
        """Current depth of the station in the conceptual splitting stack."""
        return self._level

    def will_transmit(self, slot: int, rng: np.random.Generator) -> bool:
        transmit = self._level == 0
        if transmit:
            # Pre-draw the coin used if this slot turns out to be a collision,
            # so the decision is attributable to this station's own stream.
            self._pending_coin = bool(rng.random() < self.split_probability)
        else:
            self._pending_coin = None
        return transmit

    def notify(self, observation: Observation) -> None:
        if observation.delivered:
            return
        if observation.detected is None:
            raise RuntimeError(
                "BinarySplitting requires a collision-detection channel "
                "(ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))"
            )
        outcome = observation.detected
        if outcome is SlotOutcome.COLLISION:
            if self._level == 0:
                stays = self._pending_coin if self._pending_coin is not None else True
                self._level = 0 if stays else 1
            else:
                self._level += 1
        else:
            # SUCCESS or SILENCE: the subset at the top of the stack is done.
            if self._level > 0:
                self._level -= 1
        self._pending_coin = None
