"""Protocol interfaces.

A *protocol* is the algorithm run by every station holding a message.  The
interface is deliberately narrow and mirrors the information available in the
paper's model:

* at every slot the protocol decides whether to transmit
  (:meth:`Protocol.will_transmit`), and
* at the end of every slot it is handed exactly the feedback the channel model
  grants it (:meth:`Protocol.notify`): its own transmission flag, whether it
  received a message from another station, and whether its own message was
  acknowledged.

Two refinements of the interface capture the structure the simulation engines
exploit:

* :class:`FairProtocol` — every active station uses the same transmission
  probability in every slot (the paper calls these *fair* protocols, after
  Willard).  One-fail Adaptive, Log-fails Adaptive and slotted ALOHA are fair.
  The :class:`~repro.engine.fair_engine.FairEngine` simulates them with one
  Bernoulli draw per slot instead of one per station, in a compiled port of
  their scalar rules for those three classes and through
  :meth:`FairProtocol.transmission_probability` / :meth:`Protocol.notify`
  for any other.
* :class:`WindowedProtocol` — stations commit to one uniformly random slot in
  each contention window, and the window lengths follow a schedule that is a
  pure function of the window index.  Exp Back-on/Back-off and the monotone
  back-off family are windowed.  The
  :class:`~repro.engine.window_engine.WindowEngine` simulates a whole window
  as one balls-in-bins experiment.

Spec strings name protocols through the closed table
:data:`repro.scenarios.spec.PROTOCOLS`; a protocol outside it is handed to
the engines as an instance.
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Iterator
from typing import ClassVar

import numpy as np

from repro.channel.model import Observation

__all__ = ["Protocol", "FairProtocol", "WindowedProtocol"]


class Protocol(abc.ABC):
    """Per-station contention-resolution algorithm.

    Subclasses must be safe to ``deepcopy``: the node-level engine creates one
    instance per station by copying a prototype and calling :meth:`reset`.
    """

    #: Spec name, the protocol's key in
    #: :data:`~repro.scenarios.spec.PROTOCOLS`; subclasses must override.
    name: ClassVar[str] = "protocol"

    #: Human-readable label used in figures and tables.
    label: ClassVar[str] = "Protocol"

    #: Structural kind read by the engine selection rule
    #: (:func:`repro.engine.dispatch.pick_engine_name`), so dispatch never has
    #: to sniff protocol classes.  The two structural refinements below
    #: override this — ``"fair"`` for :class:`FairProtocol`, ``"windowed"``
    #: for :class:`WindowedProtocol` — and everything else is ``"generic"``
    #: (served only by the node-level engine).
    protocol_kind: ClassVar[str] = "generic"

    #: External knowledge the protocol needs (subset of {"k", "n", "epsilon"}).
    #: The paper's own protocols use the empty set — that is the point of the
    #: paper's title ("unbounded" contention resolution).
    requires_knowledge: ClassVar[frozenset[str]] = frozenset()

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the protocol to its state at message-arrival time."""

    @abc.abstractmethod
    def will_transmit(self, slot: int, rng: np.random.Generator) -> bool:
        """Decide whether to transmit in global slot ``slot`` (0-based)."""

    @abc.abstractmethod
    def notify(self, observation: Observation) -> None:
        """Consume the end-of-slot feedback visible to this station."""

    @classmethod
    def from_spec(cls, k: int, **params: object) -> "Protocol":
        """Instantiate from spec-string parameters for a network of size ``k``.

        The default simply forwards the parameters to the constructor;
        protocols whose evaluation parameterisation depends on the network
        size (see :attr:`requires_knowledge`) override this to derive the
        missing parameters from ``k``.
        """
        return cls(**params)  # type: ignore[call-arg]

    def spawn(self) -> "Protocol":
        """Return an independent copy of this protocol, reset to its initial state.

        Engines use this to create one protocol instance per station from a
        single prototype carrying the configured parameters.
        """
        clone = copy.deepcopy(self)
        clone.reset()
        return clone

    def describe(self) -> dict[str, object]:
        """Return a JSON-friendly description of the protocol and its parameters.

        The default implementation reports the public (non-underscore)
        instance attributes, which by convention hold the configuration
        parameters; mutable per-run state is kept in underscore-prefixed
        attributes and therefore excluded.
        """
        params = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and isinstance(value, (int, float, str, bool))
        }
        return {"name": self.name, "label": self.label, "parameters": params}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        described = self.describe()
        params = ", ".join(f"{key}={value!r}" for key, value in described["parameters"].items())
        return f"{type(self).__name__}({params})"


class FairProtocol(Protocol):
    """Protocol in which every active station uses the same probability per slot.

    The defining property (and the contract the fair engine relies on) is that
    the per-slot transmission probability and all state updates are functions
    of the *common* feedback history only — the slot index, the sequence of
    received messages and the slot parities — never of whether this particular
    station transmitted.  All of the paper's adaptive protocols satisfy this:
    in Algorithm 1, for example, the state (``kappa_tilde``, ``sigma``) is
    updated only on receptions, which every active station observes
    identically.
    """

    protocol_kind: ClassVar[str] = "fair"

    #: Fair-engine contract flag; subclasses that (incorrectly for this class)
    #: update state based on their own transmissions must set this to True so
    #: the fair engine refuses them and ``"auto"`` runs them on the node-level
    #: engine.
    state_depends_on_own_transmission: ClassVar[bool] = False

    @abc.abstractmethod
    def transmission_probability(self, slot: int) -> float:
        """Probability with which each active station transmits in ``slot``."""

    def will_transmit(self, slot: int, rng: np.random.Generator) -> bool:
        probability = self.transmission_probability(slot)
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return bool(rng.random() < probability)


class WindowedProtocol(Protocol):
    """Protocol that transmits once per contention window.

    Subclasses provide :meth:`window_lengths`, an iterator of strictly
    positive integer window lengths.  The per-station behaviour implemented
    here is the one used throughout the windowed back-off literature (and by
    Algorithm 2 of the paper): at the first slot of each window the station
    picks one slot of the window uniformly at random and transmits only in
    that slot.  Stations whose message has been delivered are idle and no
    longer consulted by the engines, so no explicit exit is needed here.

    With batched arrivals every active station starts the schedule at slot 0,
    hence all stations share window boundaries; this is what allows the
    vectorised window engine to treat each window as a balls-in-bins
    experiment.
    """

    protocol_kind: ClassVar[str] = "windowed"

    @abc.abstractmethod
    def window_lengths(self) -> Iterator[int]:
        """Yield the successive contention-window lengths (in slots)."""

    def reset(self) -> None:
        self._schedule: Iterator[int] | None = None
        self._window_end = 0
        self._chosen_slot = -1

    def will_transmit(self, slot: int, rng: np.random.Generator) -> bool:
        if self._schedule is None:
            self._schedule = self.window_lengths()
        while slot >= self._window_end:
            try:
                length = next(self._schedule)
            except StopIteration as error:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"{type(self).__name__}: window schedule exhausted at slot {slot}"
                ) from error
            if length < 1:
                raise ValueError(
                    f"{type(self).__name__}: window lengths must be >= 1, got {length}"
                )
            window_start = self._window_end
            self._window_end = window_start + int(length)
            self._chosen_slot = window_start + int(rng.integers(0, int(length)))
        return slot == self._chosen_slot

    def notify(self, observation: Observation) -> None:
        """Windowed protocols keep no feedback-dependent state by default."""
