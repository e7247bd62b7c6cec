"""One-fail Adaptive (Algorithm 1 of the paper).

The protocol interleaves two transmission rules on alternating communication
steps (steps are numbered 1, 2, … in the paper; slot ``s`` of the simulator is
communication step ``s + 1``):

* **AT rule** (odd communication steps, i.e. ``step mod 2 == 1``): transmit
  with probability ``1/κ̃`` where ``κ̃`` is the *density estimator* — an
  estimate of the number of messages still to be delivered.  After the
  transmission decision of every AT step the estimator is incremented by one
  (this is the "one fail" of the name: a single step without progress is
  enough to revise the estimate upwards).
* **BT rule** (even communication steps): transmit with probability
  ``1/(1 + log₂(σ + 1))`` where ``σ`` counts the messages received so far;
  this rule takes over once only a poly-logarithmic number of messages is
  left.

Upon receiving a message from another station (which every active station
observes, since a successful slot delivers to everyone), the station
increments ``σ`` and decreases ``κ̃`` by ``δ`` on a BT step or by ``δ + 1`` on
an AT step, never letting it drop below ``δ + 1``.  Upon delivering its own
message a station stops (handled by the node/engine layer).

Theorem 1 of the paper: for ``e < δ ≤ Σ_{j=1..5}(5/6)^j``, One-fail Adaptive
solves static k-selection within ``2(δ+1)k + O(log² k)`` communication steps
with probability at least ``1 − 2/(1+k)``.  The protocol uses no knowledge of
``k`` or ``n``.

Fairness.  All active stations observe the same receptions and the same step
parities, so they hold identical ``(κ̃, σ)`` state and use the same
transmission probability in every slot; the protocol is therefore *fair* and
can be simulated by :class:`~repro.engine.fair_engine.FairEngine`.
"""

from __future__ import annotations

import math
from typing import ClassVar

from repro.channel.model import Observation
from repro.core.constants import OFA_DELTA_DEFAULT, OFA_DELTA_MAX, OFA_DELTA_MIN
from repro.protocols.base import FairProtocol
from repro.util.validation import check_in_range

__all__ = ["OneFailAdaptive"]


class OneFailAdaptive(FairProtocol):
    """Algorithm 1 of the paper: the One-fail Adaptive protocol.

    Parameters
    ----------
    delta:
        The constant ``δ`` of Algorithm 1.  Theorem 1 admits
        ``e < δ ≤ Σ_{j=1..5}(5/6)^j ≈ 2.9906``; the paper's evaluation uses
        2.72 (the default).
    enforce_theorem_range:
        When true (default), reject ``δ`` outside the admissible range of
        Theorem 1.  The ablation experiments set this to ``False`` to explore
        how sensitive the protocol is to the choice.
    """

    name: ClassVar[str] = "one-fail-adaptive"
    label: ClassVar[str] = "One-Fail Adaptive"
    requires_knowledge: ClassVar[frozenset[str]] = frozenset()

    def __init__(
        self,
        delta: float = OFA_DELTA_DEFAULT,
        enforce_theorem_range: bool = True,
    ) -> None:
        if enforce_theorem_range:
            self.delta = check_in_range(
                "delta",
                delta,
                OFA_DELTA_MIN,
                OFA_DELTA_MAX,
                low_inclusive=False,
                high_inclusive=True,
            )
        else:
            if delta <= 0:
                raise ValueError(f"delta must be positive, got {delta}")
            self.delta = float(delta)
        self.enforce_theorem_range = enforce_theorem_range
        self.reset()

    # ----------------------------------------------------------------- state
    def reset(self) -> None:
        """Re-initialise to the state of Algorithm 1 upon message arrival."""
        # Line 2: density estimator κ̃ ← δ + 1.
        self._kappa_estimate = self.delta + 1.0
        # Line 3: messages-received counter σ ← 0.
        self._messages_received = 0

    # ------------------------------------------------------------ inspection
    @property
    def density_estimate(self) -> float:
        """Current value of the density estimator ``κ̃``."""
        return self._kappa_estimate

    @property
    def messages_received(self) -> int:
        """Current value of the messages-received counter ``σ``."""
        return self._messages_received

    @staticmethod
    def is_bt_step(slot: int) -> bool:
        """True when slot ``slot`` (0-based) is a BT step.

        The paper numbers communication steps from 1 and makes the even ones
        BT steps, so 0-based slot ``s`` is a BT step iff ``s + 1`` is even.
        """
        return (slot + 1) % 2 == 0

    # ---------------------------------------------------------- transmission
    def transmission_probability(self, slot: int) -> float:
        """Lines 7-10 of Algorithm 1: the per-step transmission probability."""
        if self.is_bt_step(slot):
            # Line 8: transmit with probability 1/(1 + log2(σ + 1)).
            return 1.0 / (1.0 + math.log2(self._messages_received + 1))
        # Line 10: transmit with probability 1/κ̃.
        return 1.0 / self._kappa_estimate

    # -------------------------------------------------------------- feedback
    def notify(self, observation: Observation) -> None:
        """Apply the end-of-step updates of Tasks 1 and 2 of Algorithm 1.

        Task 1 increments ``κ̃`` after every AT step (line 11); Task 2 fires
        upon reception of a message from another station (lines 13-18).  Both
        may apply in the same step; the Task 1 increment is applied first, as
        it precedes the reception in the step's timeline.
        """
        bt_step = self.is_bt_step(observation.slot)
        if not bt_step:
            # Line 11: κ̃ ← κ̃ + 1 at the end of every AT step.
            self._kappa_estimate += 1.0
        if observation.received:
            # Line 14: σ ← σ + 1.
            self._messages_received += 1
            floor = self.delta + 1.0
            if bt_step:
                # Line 16: κ̃ ← max{κ̃ − δ, δ + 1}.
                self._kappa_estimate = max(self._kappa_estimate - self.delta, floor)
            else:
                # Line 18: κ̃ ← max{κ̃ − δ − 1, δ + 1}.
                self._kappa_estimate = max(self._kappa_estimate - self.delta - 1.0, floor)
