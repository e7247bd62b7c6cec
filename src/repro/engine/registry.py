"""Capability-driven engine registry: the one source of truth for dispatch.

Historically, "which engine can serve this cell?" was answered three times —
by ``isinstance`` sniffing in :func:`repro.engine.dispatch.pick_engine`, by a
hand-rolled conjunction in ``Session._plan`` and by a third copy in
``run_sweep`` — and each copy had to be updated (and kept agreeing) whenever
an engine or protocol class was added.  This module replaces all of that with
a declarative scheme:

* every engine class carries an :class:`EngineCapabilities` declaration —
  which *protocol kinds* it can serve, which channel feedback models, whether
  it supports staggered arrivals, whether it is a *batched* engine (simulates
  many replications per call) and whether it collects traces — and registers
  itself with the module-level :class:`EngineRegistry`;
* every protocol declares its kind through
  :attr:`repro.protocols.base.Protocol.protocol_kind` (``"fair"``,
  ``"windowed"`` or ``"generic"``) instead of being ``isinstance``-sniffed;
* dispatch (:func:`pick_engine_name`), batch planning
  (:func:`batch_engine_for`), CLI/scenario engine choices
  (:func:`available_engines`) and the documentation tables are all *queries*
  against the registry.

:func:`batch_engine_for` is the **single batch-eligibility predicate** in the
repository: the scenario layer and the ``simulate_batch`` /
``simulate_megabatch`` front doors all call it, so they cannot diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel, FeedbackModel

__all__ = [
    "EngineCapabilities",
    "EngineRegistry",
    "register_engine",
    "available_engines",
    "engine_names",
    "engine_class",
    "engine_capabilities",
    "engines_for",
    "check_engine_channel",
    "pick_engine_name",
    "batch_engine_for",
]

#: The paper's channel: no collision detection, implicit acknowledgements.
_PAPER_FEEDBACK = FeedbackModel.NO_COLLISION_DETECTION


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine class declares it can serve.

    Attributes
    ----------
    protocol_kinds:
        The :attr:`~repro.protocols.base.Protocol.protocol_kind` values the
        engine's reduction is exact for; ``None`` means *every* kind (the
        node-level reference engine).
    channels:
        The channel feedback models the engine implements; ``None`` means
        every model.  (All engines additionally require acknowledgements —
        without them no station ever retires, so no engine can terminate;
        the registry enforces that globally.)
    arrivals:
        Whether the engine simulates staggered arrival processes.  The
        reduced engines all assume every station starts at slot 0.
    batched:
        Whether the engine is a *batched* engine: it exposes
        ``simulate_fused(cells)`` running many replications of many
        (protocol, k) cells in one kernel, a ``supports(protocol)`` kernel
        check, a ``fuse_key(protocol)`` grouping hook and ``replays``, the
        per-run engine class whose runs its rows reproduce.  Per-run engines
        declare an integer ``stream_version`` instead (see
        :attr:`~repro.engine.fair_engine.FairEngine.stream_version`).
        Batched engines are never chosen by ``engine="auto"`` for single
        runs; :func:`batch_engine_for` selects among them for whole cells.
    traces:
        Whether the engine can fill an
        :class:`~repro.channel.trace.ExecutionTrace` with per-slot records.
    cost_rank:
        Auto-selection preference: among the engines that can serve a
        request, ``"auto"`` picks the lowest rank (the cheapest engine that
        is exact).  The node-level engine carries the highest rank so it is
        the fallback, never the preference.
    """

    protocol_kinds: frozenset[str] | None = None
    channels: frozenset[FeedbackModel] | None = field(
        default_factory=lambda: frozenset({_PAPER_FEEDBACK})
    )
    arrivals: bool = False
    batched: bool = False
    traces: bool = False
    cost_rank: int = 100


def check_engine_channel(engine_cls: type, channel: ChannelModel | None) -> ChannelModel:
    """Validate ``channel`` against an engine class's declared capabilities.

    The one channel-validation routine shared by every engine constructor —
    the declaration in :attr:`EngineCapabilities.channels` is the single
    statement of what the engine implements, and this helper turns it into
    the constructor-time check (``None`` means the paper's default channel).
    Acknowledgements are required globally: without them no station ever
    retires, so no engine can terminate.
    """
    resolved = channel if channel is not None else ChannelModel()
    if not resolved.acknowledgements:
        raise ValueError(
            f"{engine_cls.__name__} requires a channel with acknowledgements: without them "
            "no station ever retires and k-selection cannot terminate"
        )
    capabilities = engine_cls.capabilities
    if capabilities.channels is not None and resolved.feedback not in capabilities.channels:
        supported = sorted(model.value for model in capabilities.channels)
        raise ValueError(
            f"{engine_cls.__name__} implements only the {supported} feedback model(s) "
            f"declared in its capabilities, got {resolved.feedback.value!r}; "
            "use SlotEngine for other feedback models"
        )
    return resolved


class EngineRegistry:
    """Name → (engine class, declared capabilities) mapping with query API."""

    def __init__(self) -> None:
        self._engines: dict[str, type] = {}

    # ------------------------------------------------------------ registration
    def register(self, cls: type) -> type:
        """Class decorator: register an engine under its ``name`` attribute.

        The class must declare a unique ``name`` and an
        :class:`EngineCapabilities` instance as its ``capabilities``
        attribute; batched engines must additionally provide a
        ``supports(protocol)`` classmethod (the kernel-availability check)
        and ``replays``, per-run engines an integer ``stream_version``.
        """
        name = getattr(cls, "name", None)
        if not isinstance(name, str) or not name:
            raise ValueError(f"{cls.__name__} must define a non-empty 'name' attribute")
        capabilities = getattr(cls, "capabilities", None)
        if not isinstance(capabilities, EngineCapabilities):
            raise ValueError(
                f"{cls.__name__} must declare an EngineCapabilities 'capabilities' attribute"
            )
        if capabilities.batched:
            if not callable(getattr(cls, "supports", None)):
                raise ValueError(
                    f"batched engine {cls.__name__} must provide a supports(protocol) classmethod"
                )
            if not isinstance(getattr(getattr(cls, "replays", None), "stream_version", None), int):
                raise ValueError(
                    f"batched engine {cls.__name__} must name the per-run engine it replays"
                )
        elif not isinstance(getattr(cls, "stream_version", None), int):
            raise ValueError(f"per-run engine {cls.__name__} must declare an int stream_version")
        existing = self._engines.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"engine name {name!r} already registered by {existing.__name__}")
        self._engines[name] = cls
        return cls

    # ----------------------------------------------------------------- lookups
    def names(self) -> list[str]:
        """Sorted names of all registered engines."""
        return sorted(self._engines)

    def available(self) -> list[str]:
        """Valid ``engine=`` selectors: ``"auto"`` plus every registered name."""
        return ["auto", *self.names()]

    def engine_class(self, name: str) -> type:
        """Look up a registered engine class by name."""
        try:
            return self._engines[name]
        except KeyError:
            raise ValueError(
                f"unknown engine {name!r}; choose from {self.names()} or 'auto'"
            ) from None

    def capabilities(self, name: str) -> EngineCapabilities:
        """The declared capabilities of the named engine."""
        return self.engine_class(name).capabilities

    # ----------------------------------------------------------------- queries
    def serves(
        self,
        name: str,
        protocol: object | None = None,
        channel: ChannelModel | None = None,
        arrivals: object | None = None,
    ) -> bool:
        """Whether the named engine's declared capabilities cover the request.

        ``protocol`` is matched by its declared ``protocol_kind``; ``channel``
        ``None`` means the paper's default channel.  This checks *declared*
        capabilities only — for batched engines the per-protocol kernel check
        (``supports``) is layered on top by :meth:`batch_engine_for`.
        """
        caps = self.capabilities(name)
        if arrivals is not None and not caps.arrivals:
            return False
        if protocol is not None and caps.protocol_kinds is not None:
            kind = getattr(protocol, "protocol_kind", "generic")
            if kind not in caps.protocol_kinds:
                return False
        if channel is not None:
            if not channel.acknowledgements:
                return False
            if caps.channels is not None and channel.feedback not in caps.channels:
                return False
        return True

    def engines_for(
        self,
        protocol: object | None = None,
        channel: ChannelModel | None = None,
        arrivals: object | None = None,
        batched: bool | None = None,
        traces: bool | None = None,
    ) -> list[str]:
        """Names of every engine serving the request, cheapest first.

        ``arrivals`` is the requested arrival process; any non-``None``
        value (``True`` works as a pure capability filter) restricts the
        listing to engines declaring arrival support.  ``batched`` and
        ``traces`` filter on the declared flags exactly.
        """
        matches = []
        for name in self.names():
            caps = self.capabilities(name)
            if batched is not None and caps.batched != batched:
                continue
            if traces is not None and caps.traces != traces:
                continue
            if not self.serves(name, protocol=protocol, channel=channel, arrivals=arrivals):
                continue
            matches.append(name)
        return sorted(matches, key=lambda name: (self.capabilities(name).cost_rank, name))

    def pick(
        self,
        protocol: object,
        engine: str = "auto",
        channel: ChannelModel | None = None,
        arrivals: ArrivalProcess | None = None,
    ) -> str:
        """Resolve an ``engine=`` selector to a registered engine name.

        ``"auto"`` returns the cheapest non-batched engine whose declared
        capabilities are exact for the request.  An explicit name is
        validated against the registry — unknown names, engines that cannot
        serve the requested arrival process, channel or protocol kind are all
        rejected with the capable engines enumerated, so a wrong explicit
        choice fails loudly instead of silently simulating a different model.
        """
        if channel is not None and not channel.acknowledgements:
            # A precise diagnosis, not a per-engine capability gap: no
            # registered engine can serve an ack-less channel, because a
            # station that never learns of its delivery never retires.
            raise ValueError(
                "no engine can serve a channel without acknowledgements: a station "
                "that never learns of its own delivery never retires, so k-selection "
                "cannot terminate"
            )
        if engine == "auto":
            candidates = self.engines_for(
                protocol=protocol, channel=channel, arrivals=arrivals, batched=False
            )
            if not candidates:
                raise ValueError(
                    f"no registered engine can serve protocol kind "
                    f"{getattr(protocol, 'protocol_kind', 'generic')!r} with "
                    f"channel={channel!r} and arrivals={type(arrivals).__name__ if arrivals is not None else None}"
                )
            return candidates[0]
        caps = self.capabilities(engine)  # raises with the full roster on unknown names
        if arrivals is not None and not caps.arrivals:
            capable = self.engines_for(arrivals=arrivals)
            raise ValueError(
                f"engine {engine!r} does not support arrival processes; engines that do: "
                f"{capable} (or 'auto')"
            )
        if channel is not None and not self.serves(engine, channel=channel):
            capable = self.engines_for(channel=channel)
            raise ValueError(
                f"engine {engine!r} cannot serve channel {channel!r} "
                f"(it implements {sorted(model.value for model in caps.channels) if caps.channels is not None else 'every'} "
                f"feedback); engines that can: {capable or '<none>'}"
            )
        if caps.protocol_kinds is not None:
            kind = getattr(protocol, "protocol_kind", "generic")
            if kind not in caps.protocol_kinds:
                capable = self.engines_for(protocol=protocol, channel=channel)
                raise ValueError(
                    f"engine {engine!r} serves protocol kinds "
                    f"{sorted(caps.protocol_kinds)}, not {kind!r} "
                    f"({type(protocol).__name__}); engines that can: {capable}"
                )
        return engine

    def batch_engine_for(
        self,
        protocol: object,
        engine: str = "auto",
        channel: ChannelModel | None = None,
        arrivals: ArrivalProcess | None = None,
    ) -> str | None:
        """The batched engine able to run this protocol's cells, or ``None``.

        This is the repository's one batch-eligibility predicate: the
        scenario layer (``Session._plan``) and the ``simulate_batch`` /
        ``simulate_megabatch`` front doors all ask this question here.  A
        cell is batch-eligible when a registered *batched* engine (a) is
        admissible under the ``engine=`` selector (``"auto"`` considers every
        batched engine, an explicit batched name considers only itself, any
        other selector none), (b) declares capabilities covering the protocol
        kind and channel, and (c) confirms a kernel for this specific
        protocol instance via its ``supports`` hook.  Arrival processes are
        never batch-eligible — the batched reductions assume slot-0 arrivals.
        """
        if arrivals is not None:
            return None
        if engine == "auto":
            candidates = self.engines_for(protocol=protocol, channel=channel, batched=True)
        elif engine in self._engines and self.capabilities(engine).batched:
            candidates = [engine] if self.serves(engine, protocol=protocol, channel=channel) else []
        else:
            return None
        for name in candidates:
            if self.engine_class(name).supports(protocol):
                return name
        return None


#: The process-wide registry.  Engine modules register themselves on import;
#: the module-level helpers below lazily import :mod:`repro.engine` so a
#: caller that imports only this module still sees every engine.
_REGISTRY = EngineRegistry()


def register_engine(cls: type) -> type:
    """Register an engine class with the process-wide registry (decorator)."""
    return _REGISTRY.register(cls)


def _loaded() -> EngineRegistry:
    # Importing the package imports every engine module, each of which
    # registers itself; after the first call this is a no-op dict lookup.
    import repro.engine  # noqa: F401

    return _REGISTRY


def available_engines() -> list[str]:
    """Valid ``engine=`` selectors: ``"auto"`` plus every registered engine.

    The CLI, the scenario layer and the docs all derive their accepted
    values from this query, so registering an engine propagates everywhere.
    """
    return _loaded().available()


def engine_names() -> list[str]:
    """Sorted names of all registered engines (without ``"auto"``)."""
    return _loaded().names()


def engine_class(name: str) -> type:
    """Look up a registered engine class by name."""
    return _loaded().engine_class(name)


def engine_capabilities(name: str) -> EngineCapabilities:
    """The declared capabilities of the named engine."""
    return _loaded().capabilities(name)


def engines_for(
    protocol: object | None = None,
    channel: ChannelModel | None = None,
    arrivals: object | None = None,
    batched: bool | None = None,
    traces: bool | None = None,
) -> list[str]:
    """Names of every engine serving the request, cheapest first
    (see :meth:`EngineRegistry.engines_for`)."""
    return _loaded().engines_for(
        protocol=protocol,
        channel=channel,
        arrivals=arrivals,
        batched=batched,
        traces=traces,
    )


def pick_engine_name(
    protocol: object,
    engine: str = "auto",
    channel: ChannelModel | None = None,
    arrivals: ArrivalProcess | None = None,
) -> str:
    """Resolve an ``engine=`` selector to a registered name (see :meth:`EngineRegistry.pick`)."""
    return _loaded().pick(protocol, engine=engine, channel=channel, arrivals=arrivals)


def batch_engine_for(
    protocol: object,
    engine: str = "auto",
    channel: ChannelModel | None = None,
    arrivals: ArrivalProcess | None = None,
) -> str | None:
    """The one batch-eligibility predicate (see :meth:`EngineRegistry.batch_engine_for`)."""
    return _loaded().batch_engine_for(protocol, engine=engine, channel=channel, arrivals=arrivals)

