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
from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from repro.channel.model import Observation
from repro.core.constants import OFA_DELTA_DEFAULT, OFA_DELTA_MAX, OFA_DELTA_MIN
from repro.protocols.base import FairBatchState, FairProtocol, register_protocol
from repro.util.validation import check_in_range

__all__ = ["OneFailAdaptive"]

#: Shared "no probability rows changed" return of observe_receptions.
_NO_ROWS = np.empty(0, dtype=np.int64)


class _OneFailBatchState(FairBatchState):
    """Vectorised ``(κ̃, σ)`` state of R lockstep One-fail Adaptive replications.

    Line-for-line mirror of the scalar :meth:`OneFailAdaptive.notify` /
    :meth:`OneFailAdaptive.transmission_probability` pair, with the per-slot
    branches turned into array expressions.

    ``δ`` is carried as a *per-row* array so one state can serve rows fused
    from several cells with different parameterisations (the AT/BT parity is
    a pure function of the common slot index and stays scalar).
    """

    def __init__(self, deltas: np.ndarray) -> None:
        self._delta = np.asarray(deltas, dtype=float)
        self._floor = self._delta + 1.0
        self._kappa = self._delta + 1.0
        self._sigma = np.zeros(self._delta.size, dtype=np.int64)
        # σ changes only on receptions, so the BT-step probability is cached
        # (sparse receptions patch the affected rows in place); κ̃ grows every
        # AT step, so the AT probability is always recomputed and carries no
        # cache key — into a reusable buffer, valid only until the next call.
        self._bt_cache: np.ndarray | None = None
        self._at_buf = np.empty(self._delta.size)

    def probabilities(self, slot: int) -> np.ndarray:
        if OneFailAdaptive.is_bt_step(slot):
            # Line 8: transmit with probability 1/(1 + log2(σ + 1)).
            if self._bt_cache is None:
                self._bt_cache = 1.0 / (1.0 + np.log2(self._sigma + 1.0))
            return self._bt_cache
        # Line 10: transmit with probability 1/κ̃.
        return 1.0 / self._kappa

    def probabilities_cached(self, slot: int) -> tuple[np.ndarray, object]:
        if slot % 2 == 1:  # is_bt_step, inlined for the per-slot hot path
            return self.probabilities(slot), True
        return np.divide(1.0, self._kappa, out=self._at_buf), None

    def observe_receptions(
        self,
        slot: int,
        received: np.ndarray,
        received_any: bool | None = None,
        received_rows: np.ndarray | None = None,
    ) -> np.ndarray | None:
        bt_step = slot % 2 == 1  # is_bt_step, inlined for the per-slot hot path
        if not bt_step:
            # Line 11: κ̃ ← κ̃ + 1 at the end of every AT step (before the
            # reception adjustment, matching the scalar update order).  κ̃
            # feeds only the keyless AT probability, so cached-flavor content
            # is unaffected.
            self._kappa += 1.0
        if received_any is None:
            received_any = bool(received.any())
        if not received_any:
            return _NO_ROWS
        rows = received_rows if received_rows is not None else np.flatnonzero(received)
        if rows.size <= 8:
            # Receptions are sparse (usually one row); per-row scalar
            # arithmetic beats whole-array np.where passes.
            bt_cache = self._bt_cache
            for index in rows:
                i = int(index)
                self._sigma[i] += 1
                # Lines 16/18: κ̃ ← max{κ̃ − δ[, − 1]}, floored at δ + 1.
                decrement = self._delta[i] if bt_step else self._delta[i] + 1.0
                self._kappa[i] = max(self._kappa[i] - decrement, self._floor[i])
                if bt_cache is not None:
                    bt_cache[i] = 1.0 / (1.0 + np.log2(self._sigma[i] + 1.0))
            return rows
        self._sigma += received
        decrement = self._delta if bt_step else self._delta + 1.0
        self._kappa = np.where(
            received,
            np.maximum(self._kappa - decrement, self._floor),
            self._kappa,
        )
        self._bt_cache = None
        return None

    def compact(self, keep: np.ndarray) -> None:
        self._delta = self._delta[keep]
        self._floor = self._floor[keep]
        self._kappa = self._kappa[keep]
        self._sigma = self._sigma[keep]
        # The cache is per-row, so it stays current under the same slicing.
        if self._bt_cache is not None:
            self._bt_cache = self._bt_cache[keep]
        self._at_buf = np.empty(self._kappa.size)


@register_protocol
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

    @classmethod
    def make_fused_batch_state(
        cls,
        protocols: "Sequence[FairProtocol]",
        counts: "Sequence[int]",
    ) -> _OneFailBatchState:
        deltas = np.repeat([protocol.delta for protocol in protocols], counts)
        return _OneFailBatchState(deltas)
