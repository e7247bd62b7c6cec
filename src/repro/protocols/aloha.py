"""Slotted ALOHA with known contention: the ``e·k`` reference optimum.

Section 5 of the paper calibrates its Table 1 ratios against "the smallest
ratio expected by any algorithm in which nodes use the same probability at any
step", which is ``e``.  That optimum is achieved by the idealised protocol
that knows the number of active stations ``m`` exactly and has every one of
them transmit with probability ``1/m`` in every slot: the per-slot success
probability is then ``(1 − 1/m)^{m-1} → 1/e``.

The protocol is obviously not a contender in the paper's setting (it requires
exactly the knowledge the paper removes); it is included as the yardstick the
evaluation refers to, and it is also a useful sanity check for the fair
engine (its makespan distribution is easy to reason about analytically).
"""

from __future__ import annotations

from typing import ClassVar

from repro.channel.model import Observation
from repro.protocols.base import FairProtocol
from repro.util.validation import check_positive_int

__all__ = ["SlottedAloha"]


class SlottedAloha(FairProtocol):
    """Idealised slotted ALOHA with perfect knowledge of the contention.

    Parameters
    ----------
    k:
        Number of stations activated together (the protocol's required
        knowledge; declared through :attr:`requires_knowledge`).
    track_deliveries:
        When true (default) the protocol decrements its contention estimate on
        every observed delivery, keeping the transmission probability at
        ``1/(messages left)`` throughout the run — the genie-aided optimum.
        When false it keeps transmitting with ``1/k`` forever, which models
        plain slotted ALOHA with a static probability.
    """

    name: ClassVar[str] = "slotted-aloha"
    label: ClassVar[str] = "Slotted ALOHA (known k)"
    requires_knowledge: ClassVar[frozenset[str]] = frozenset({"k"})

    def __init__(self, k: int, track_deliveries: bool = True) -> None:
        self.k = check_positive_int("k", k)
        self.track_deliveries = bool(track_deliveries)
        self.reset()

    @classmethod
    def from_spec(cls, k: int, **params: object) -> "SlottedAloha":
        """Spec-string hook: the required knowledge ``k`` is the network size."""
        params.setdefault("k", k)
        return cls(**params)  # type: ignore[arg-type]

    def reset(self) -> None:
        self._remaining = self.k

    @property
    def remaining_estimate(self) -> int:
        """The protocol's current count of undelivered messages."""
        return self._remaining

    def transmission_probability(self, slot: int) -> float:
        return 1.0 / max(self._remaining, 1)

    def notify(self, observation: Observation) -> None:
        if self.track_deliveries and observation.received:
            self._remaining = max(self._remaining - 1, 1)
