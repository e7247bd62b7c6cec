"""Engine selection and the one-call simulation front door.

Most callers (examples, experiments, tests) just want "run protocol P with k
contenders and seed s"; :func:`simulate` picks the cheapest engine that is
exact for the given protocol and returns a
:class:`~repro.engine.result.SimulationResult`.

The paper's model is one channel (no collision detection, implicit
acknowledgements, every station present at slot 0), and the reduced engines
rest on two protocol structures, so choosing an engine is a two-row rule,
stated once in :func:`pick_engine_name` over the closed :data:`ENGINES`
table:

* on the paper's channel with slot-0 arrivals, a fair protocol whose state
  ignores its own transmissions runs on ``fair`` and a windowed protocol on
  ``window``;
* everything else runs on ``slot``.

A protocol that needs collision detection (``"collision-detection"`` in its
``requires_knowledge``) is refused on a channel without it, whatever the
engine, so it fails where the scenario is built and not in its first slot.
An explicit engine outside that answer is refused with the engines that can
serve the request.  :func:`simulate` and ``Scenario.engine_name`` (so the
session's reuse key and every CLI command's ``engine=`` token too) both ask
that function, so the layers cannot disagree about a cell's engine.
The components it reads arrive built: :mod:`repro.scenarios.spec` turns
protocol, arrival and channel names into them through closed tables, as
:data:`ENGINES` does for engine names.

Dynamic workloads go through the same front door: passing an
``arrivals=`` process (e.g. :class:`~repro.channel.arrivals.PoissonArrival`)
routes the run to the node-level :class:`SlotEngine`, which runs the paper's
station loop itself, so the runner, CLI and sweep machinery need no
special-casing for the paper's open dynamic problem.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.engine.fair_engine import FairEngine
from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine
from repro.engine.window_engine import WindowEngine
from repro.obs import REGISTRY, span
from repro.protocols.base import Protocol

__all__ = [
    "ENGINES",
    "FusedCell",
    "available_engines",
    "pick_engine",
    "pick_engine_name",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
]

#: Every engine, by the name ``engine=`` selects it with.
ENGINES = {"fair": FairEngine, "slot": SlotEngine, "window": WindowEngine}

#: The engine each protocol kind reduces to on the paper's channel.
_REDUCED = {"fair": "fair", "windowed": "window"}

#: The paper's channel, which ``channel=None`` means.
_PAPER_CHANNEL = ChannelModel()

#: One instance of each engine on the paper's channel: an engine holds no
#: state but its channel, so :func:`simulate` reuses these run after run.
_ON_PAPER_CHANNEL = {name: engine() for name, engine in ENGINES.items()}


def available_engines() -> list[str]:
    """Valid ``engine=`` selectors: ``"auto"`` plus every engine name."""
    return ["auto", *sorted(ENGINES)]


def pick_engine_name(
    protocol: Protocol | type[Protocol],
    engine: str = "auto",
    channel: ChannelModel | None = None,
    arrivals: ArrivalProcess | None = None,
) -> str:
    """Resolve an ``engine=`` selector to an engine name (see the module docstring).

    ``protocol`` may be an instance or its class: the rule reads only class
    attributes.  ``channel`` ``None`` means the paper's channel and
    ``arrivals`` ``None`` means every station is present at slot 0.
    """
    if "collision-detection" in getattr(protocol, "requires_knowledge", ()) and (
        channel is None or channel.feedback is not FeedbackModel.COLLISION_DETECTION
    ):
        raise ValueError(
            f"{protocol.name!r} needs collision detection, which this channel does not "
            "give; run it with channel=cd"
        )
    kind = getattr(protocol, "protocol_kind", "generic")
    reduced = None
    if arrivals is not None:
        request = "arrival processes"
    elif channel is not None and channel != _PAPER_CHANNEL:
        request = f"channel {channel!r}"
    elif getattr(protocol, "state_depends_on_own_transmission", False):
        request = f"{protocol.name!r}, whose state depends on its own transmissions"
    else:
        request = f"{kind} protocol {protocol.name!r}"
        reduced = _REDUCED.get(kind)
    capable = [reduced, "slot"] if reduced else ["slot"]
    if engine == "auto":
        return capable[0]
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {sorted(ENGINES)} or 'auto'")
    if engine not in capable:
        raise ValueError(
            f"engine {engine!r} cannot serve {request}; engines that can: {capable} (or 'auto')"
        )
    return engine


# Engine-layer metric families, fed at this front door: every session /
# sweep / service execution funnels through simulate(), so counting here
# covers all engines without per-slot hooks.
_M_RUNS = REGISTRY.counter(
    "repro_engine_runs_total", "Simulation runs completed, by engine.", ("engine",)
)
_M_SLOTS = REGISTRY.counter(
    "repro_engine_slots_total", "Channel slots simulated, by engine.", ("engine",)
)
#: Each engine's two children, resolved once: simulate() runs per replication.
_M_BY_ENGINE = {
    name: (_M_RUNS.labels(engine=name), _M_SLOTS.labels(engine=name)) for name in ENGINES
}


@dataclass(frozen=True)
class FusedCell:
    """One (protocol, k) cell of replications for :func:`simulate_megabatch`:
    one run per seed, each capped at ``max_slots`` (``None`` means the
    engine's default cap)."""

    protocol: Protocol
    k: int
    seeds: tuple[int, ...]
    max_slots: int | None = None


def pick_engine(
    protocol: Protocol,
    engine: str = "auto",
    channel: ChannelModel | None = None,
    arrivals: ArrivalProcess | None = None,
) -> Any:
    """The engine :func:`pick_engine_name` names for ``protocol``: a shared
    instance on the paper's channel (``channel=None``), a new one otherwise."""
    name = pick_engine_name(protocol, engine=engine, channel=channel, arrivals=arrivals)
    if channel is None:
        return _ON_PAPER_CHANNEL[name]
    return ENGINES[name](channel=channel)


def simulate(
    protocol: Protocol,
    k: int,
    seed: int = 0,
    engine: str = "auto",
    channel: ChannelModel | None = None,
    max_slots: int | None = None,
    trace: ExecutionTrace | None = None,
    arrivals: ArrivalProcess | None = None,
) -> SimulationResult:
    """Simulate one k-selection instance and return its result.

    This is the main entry point of the library::

        from repro import OneFailAdaptive, simulate

        result = simulate(OneFailAdaptive(), k=1000, seed=42)
        print(result.makespan, result.steps_per_node)

    Static k-selection (the paper's setting) is the default; dynamic
    workloads pass an explicit arrival process::

        from repro import PoissonArrival

        result = simulate(OneFailAdaptive(), k=64, seed=42,
                          arrivals=PoissonArrival(k=64, rate=0.1))
        print(result.metadata["latencies"])  # per-message delivery latencies

    ``k`` must equal the arrival process's ``total_messages``; the slot
    engine, the only one that takes an arrival process, refuses a mismatch.
    """
    chosen = pick_engine(protocol, engine=engine, channel=channel, arrivals=arrivals)
    with span("engine.run", k=k) as run_span:
        if arrivals is not None:
            result = chosen.simulate(
                protocol, k, seed=seed, max_slots=max_slots, trace=trace, arrivals=arrivals
            )
        else:
            result = chosen.simulate(protocol, k, seed=seed, max_slots=max_slots, trace=trace)
        run_span["engine"] = chosen.name
    runs, slots = _M_BY_ENGINE[chosen.name]
    runs.inc()
    slots.inc(result.slots_simulated)
    return result


def simulate_batch(
    protocol: Protocol,
    k: int,
    seeds: Sequence[int],
    engine: str = "auto",
    channel: ChannelModel | None = None,
    max_slots: int | None = None,
) -> list[SimulationResult]:
    """Simulate one replication of a (protocol, k) cell per seed.

    Each seed keys its own run, so the result for a seed does not depend on
    its siblings: this is ``[simulate(protocol, k, seed, ...) for seed in
    seeds]``.  Returns one result per seed, in order.
    """
    return [
        simulate(protocol, k, seed=int(seed), engine=engine, channel=channel, max_slots=max_slots)
        for seed in seeds
    ]


def simulate_megabatch(
    cells: Sequence[FusedCell],
    engine: str = "auto",
    channel: ChannelModel | None = None,
) -> list[list[SimulationResult]]:
    """Simulate many (protocol, k) cells: one :func:`simulate_batch` per cell.

    Returns one result list per cell, in input order.
    """
    return [
        simulate_batch(
            cell.protocol, cell.k, cell.seeds, engine=engine, channel=channel,
            max_slots=cell.max_slots,
        )
        for cell in cells
    ]
