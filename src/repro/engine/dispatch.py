"""Engine selection and the one-call simulation front door.

Most callers (examples, experiments, tests) just want "run protocol P with k
contenders and seed s"; :func:`simulate` picks the cheapest engine that is
exact for the given protocol and returns a
:class:`~repro.engine.result.SimulationResult`.

Every selection decision here is a query against the capability-driven
:mod:`repro.engine.registry`: engines declare what they can serve (protocol
kinds, channels, arrivals, traces) and protocols declare their kind, so
this module holds **no** eligibility logic of its own — it resolves names
through the registry and instantiates the chosen engine class.

Dynamic workloads go through the same front door: passing an
``arrivals=`` process (e.g. :class:`~repro.channel.arrivals.PoissonArrival`)
routes the run to the node-level :class:`SlotEngine` — the only registered
engine declaring arrival support — so the runner, CLI and sweep machinery
need no special-casing for the paper's open dynamic problem.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel
from repro.channel.trace import ExecutionTrace

# Importing the engine modules registers each engine with the registry.
from repro.engine.fair_engine import FairEngine  # noqa: F401  (registration)
from repro.engine.registry import (
    available_engines,
    engine_capabilities,
    engine_class,
    pick_engine_name,
)
from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine  # noqa: F401
from repro.engine.window_engine import WindowEngine  # noqa: F401
from repro.obs import REGISTRY, span
from repro.protocols.base import Protocol

__all__ = [
    "FusedCell",
    "available_engines",
    "engine_capabilities",
    "pick_engine",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
]


# Engine-layer metric families, fed at this front door: every session /
# sweep / service execution funnels through simulate(), so counting here
# covers all engines without per-slot hooks.
_M_RUNS = REGISTRY.counter(
    "repro_engine_runs_total", "Simulation runs completed, by engine.", ("engine",)
)
_M_SLOTS = REGISTRY.counter(
    "repro_engine_slots_total", "Channel slots simulated, by engine.", ("engine",)
)


@dataclass(frozen=True)
class FusedCell:
    """One (protocol, k) cell of replications for :func:`simulate_megabatch`:
    one run per seed, each capped at ``max_slots`` (``None`` means the
    engine's default cap)."""

    protocol: Protocol
    k: int
    seeds: tuple[int, ...]
    max_slots: int | None = None


def _instantiate(name: str, channel: ChannelModel | None):
    cls = engine_class(name)
    return cls(channel=channel) if channel is not None else cls()


def pick_engine(
    protocol: Protocol,
    engine: str = "auto",
    channel: ChannelModel | None = None,
    arrivals: ArrivalProcess | None = None,
) -> Any:
    """Instantiate the engine to use for ``protocol``.

    ``engine`` may be ``"auto"`` (default) or any name from
    :func:`~repro.engine.registry.available_engines`.  ``"auto"`` selects
    the cheapest registered engine whose declared capabilities are exact for
    the protocol's kind, the channel and the arrival process — the fair
    engine for fair protocols, the window engine for windowed protocols, and
    the node-level engine otherwise (or whenever a non-default channel or an
    arrival process is requested, since the reduced engines only implement
    the paper's channel with slot-0 arrivals).

    Explicit choices are validated against the registry: an unknown name, an
    engine that cannot serve the requested channel or arrival process, or an
    engine whose declared protocol kinds exclude this protocol are all
    rejected with the capable engines enumerated.
    """
    name = pick_engine_name(protocol, engine=engine, channel=channel, arrivals=arrivals)
    return _instantiate(name, channel)


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
    """
    if arrivals is not None and arrivals.total_messages != k:
        raise ValueError(
            f"k={k} disagrees with the arrival process, which injects "
            f"{arrivals.total_messages} messages; pass k=arrivals.total_messages"
        )
    chosen = pick_engine(protocol, engine=engine, channel=channel, arrivals=arrivals)
    with span("engine.run", k=k) as run_span:
        if arrivals is not None:
            result = chosen.simulate(
                protocol, k, seed=seed, max_slots=max_slots, trace=trace, arrivals=arrivals
            )
        else:
            result = chosen.simulate(protocol, k, seed=seed, max_slots=max_slots, trace=trace)
        run_span["engine"] = chosen.name
    _M_RUNS.labels(engine=chosen.name).inc()
    _M_SLOTS.labels(engine=chosen.name).inc(result.slots_simulated)
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
