"""Protocol interfaces and registry.

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
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Callable, Iterator
from typing import ClassVar

import numpy as np

from repro.channel.model import Observation

__all__ = [
    "Protocol",
    "FairProtocol",
    "WindowedProtocol",
    "ProtocolFactory",
    "register_protocol",
    "get_protocol_class",
    "available_protocols",
    "build_protocol",
]

#: A protocol factory maps the number of contenders ``k`` to a fresh protocol
#: instance.  Protocols that genuinely do not use ``k`` (the paper's own two
#: protocols) simply ignore the argument; baselines that require knowledge of
#: ``k`` or of ``epsilon <= 1/(n+1)`` (Log-fails Adaptive, slotted ALOHA) use
#: it, and declare so through :attr:`Protocol.requires_knowledge`.
ProtocolFactory = Callable[[int], "Protocol"]

_REGISTRY: dict[str, type["Protocol"]] = {}


def register_protocol(cls: type["Protocol"]) -> type["Protocol"]:
    """Class decorator adding a protocol class to the global registry.

    The registry lets experiment configurations refer to protocols by their
    ``name`` class attribute (e.g. ``"one-fail-adaptive"``) instead of
    importing classes directly.
    """
    name = cls.name
    if not name or name == Protocol.name:
        raise ValueError(f"{cls.__name__} must define a unique 'name' class attribute")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"protocol name {name!r} already registered by {existing.__name__}")
    _REGISTRY[name] = cls
    return cls


def get_protocol_class(name: str) -> type["Protocol"]:
    """Look up a registered protocol class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown protocol {name!r}; registered protocols: {known}") from None


def available_protocols() -> list[str]:
    """Return the sorted names of all registered protocols."""
    return sorted(_REGISTRY)


def build_protocol(spec: str, k: int) -> "Protocol":
    """Instantiate a protocol from a parameterised spec string.

    ``spec`` is a registry name with optional constructor parameters, e.g.
    ``"one-fail-adaptive"`` or ``"log-fails-adaptive(xi_t=0.1)"`` (see
    :mod:`repro.scenarios.spec` for the grammar).  ``k`` is the network size
    the protocol will face; it is forwarded to the class's
    :meth:`Protocol.from_spec` hook so that protocols *requiring* knowledge of
    the contention (Log-fails Adaptive's ``ε ≤ 1/(k+1)``, slotted ALOHA's
    ``k``) can derive their required parameters, while the paper's own
    oblivious protocols ignore it.
    """
    from repro.scenarios.spec import parse_spec

    name, params = parse_spec(spec)
    cls = get_protocol_class(name)
    try:
        return cls.from_spec(k, **params)
    except TypeError as error:
        raise ValueError(f"cannot build protocol from spec {spec!r}: {error}") from error


class Protocol(abc.ABC):
    """Per-station contention-resolution algorithm.

    Subclasses must be safe to ``deepcopy``: the node-level engine creates one
    instance per station by copying a prototype and calling :meth:`reset`.
    """

    #: Registry name; subclasses must override.
    name: ClassVar[str] = "protocol"

    #: Human-readable label used in figures and tables.
    label: ClassVar[str] = "Protocol"

    #: Capability kind consumed by the engine registry
    #: (:mod:`repro.engine.registry`): engines declare which kinds they can
    #: serve, so dispatch never has to sniff protocol classes.  The two
    #: structural refinements below override this — ``"fair"`` for
    #: :class:`FairProtocol`, ``"windowed"`` for :class:`WindowedProtocol` —
    #: and everything else is ``"generic"`` (served only by the node-level
    #: engine).
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
    #: the fair engine refuses them.
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
