"""Engine selection and the one-call simulation front door.

Most callers (examples, experiments, tests) just want "run protocol P with k
contenders and seed s"; :func:`simulate` picks the cheapest engine that is
exact for the given protocol and returns a
:class:`~repro.engine.result.SimulationResult`.

Every selection decision here is a query against the capability-driven
:mod:`repro.engine.registry`: engines declare what they can serve (protocol
kinds, channels, arrivals, batching, traces) and protocols declare their
kind, so this module holds **no** eligibility logic of its own — it resolves
names through the registry and instantiates the chosen engine class.

Dynamic workloads go through the same front door: passing an
``arrivals=`` process (e.g. :class:`~repro.channel.arrivals.PoissonArrival`)
routes the run to the node-level :class:`SlotEngine` — the only registered
engine declaring arrival support — so the runner, CLI and sweep machinery
need no special-casing for the paper's open dynamic problem.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel
from repro.channel.trace import ExecutionTrace

# Importing the engine modules registers each engine with the registry.
from repro.engine.fair_engine import FairEngine  # noqa: F401  (registration)
from repro.engine.megabatch import FusedCell, MegaFairEngine, MegaWindowEngine  # noqa: F401
from repro.engine.registry import (
    available_engines,
    batch_engine_for,
    engine_capabilities,
    engine_class,
    engines_for,
    pick_engine_name,
)
from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine  # noqa: F401
from repro.engine.window_engine import WindowEngine  # noqa: F401
from repro.obs import REGISTRY, span
from repro.protocols.base import Protocol

__all__ = [
    "available_engines",
    "batch_engine_for",
    "engine_capabilities",
    "pick_engine",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
]


# Engine-layer metric families, fed at this front door: every session /
# sweep / service execution funnels through simulate() or
# simulate_megabatch(), so counting here covers all engines without per-slot
# hooks.
_M_RUNS = REGISTRY.counter(
    "repro_engine_runs_total", "Simulation runs completed, by engine.", ("engine",)
)
_M_SLOTS = REGISTRY.counter(
    "repro_engine_slots_total", "Channel slots simulated, by engine.", ("engine",)
)
_M_BATCHES = REGISTRY.counter(
    "repro_engine_batches_total",
    "Batched kernel calls (simulate_megabatch / simulate_batch), by engine.",
    ("engine",),
)


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

    ``"auto"`` never selects a *batched* engine: for a single run the batch
    reduction has nothing to vectorise, and only the per-run engines collect
    traces.  Sweeps are where batching pays off — the scenario
    :class:`~repro.scenarios.session.Session` fuses the cells of a grid into
    :func:`simulate_megabatch` calls whenever
    :func:`~repro.engine.registry.batch_engine_for` reports an eligible
    batched engine.

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
        run_span["engine"] = result.engine
    _M_RUNS.labels(engine=result.engine).inc()
    _M_SLOTS.labels(engine=result.engine).inc(result.slots_simulated)
    return result


def simulate_batch(
    protocol: Protocol,
    k: int,
    seeds: Sequence[int],
    engine: str = "auto",
    channel: ChannelModel | None = None,
    max_slots: int | None = None,
) -> list[SimulationResult]:
    """Simulate many replications of one (protocol, k) cell in a single batch.

    The one-cell form of :func:`simulate_megabatch`: the cell's seeds key
    its random stream and ``max_slots`` (default ``10_000 × k``) caps every
    replication.  Returns one result per seed, in order.
    """
    cell = FusedCell(
        protocol=protocol, k=k, seeds=tuple(int(seed) for seed in seeds), max_slots=max_slots
    )
    return simulate_megabatch([cell], engine=engine, channel=channel)[0]


def simulate_megabatch(
    cells: Sequence[FusedCell],
    engine: str = "auto",
    channel: ChannelModel | None = None,
) -> list[list[SimulationResult]]:
    """Simulate a whole group of fused (protocol, k) cells in one kernel pass.

    Front door to the *batched* engines for callers holding an entire sweep
    group (the session planner, benchmarks): every cell's replications enter
    one padded lockstep kernel and retire row by row, so the group costs one
    kernel traversal of the global maximum makespan instead of one per cell.

    All cells must share one fuse key (same protocol class for fair cells,
    same window schedule for windowed ones) — the engine rejects mixed
    groups.  Eligibility is resolved through the registry's
    :func:`~repro.engine.registry.batch_engine_for` predicate against the
    first cell's protocol; callers needing a silent fallback check the same
    query first and route ineligible cells through per-run :func:`simulate`
    calls.  Returns one result list per cell, in input order; each cell's
    results are independent of the group's composition, so re-fusing a
    subset (e.g. on sweep resume) reproduces the original results bit for
    bit.
    """
    if not cells:
        raise ValueError("simulate_megabatch needs at least one fused cell")
    protocol = cells[0].protocol
    name = batch_engine_for(protocol, engine=engine, channel=channel)
    if name is None:
        # Diagnose precisely: an unknown or per-run selector is a selector
        # problem, not a missing kernel.  engine_capabilities raises the
        # enumerating unknown-engine error for typos.
        if engine != "auto" and not engine_capabilities(engine).batched:
            raise ValueError(
                f"engine {engine!r} is not a batched engine; batched engines: "
                f"{engines_for(batched=True)} (or 'auto')"
            )
        raise ValueError(
            f"no batched engine can serve {type(protocol).__name__} "
            f"(kind {getattr(protocol, 'protocol_kind', 'generic')!r}) with "
            f"engine={engine!r} and channel={channel!r}; batch-eligible protocols "
            "declare a kernel via make_fused_batch_state (fair) or "
            "fused_schedule_key (windowed) and run on the paper's channel"
        )
    chosen = _instantiate(name, channel)
    replications = sum(len(cell.seeds) for cell in cells)
    with span("engine.megabatch", engine=name, cells=len(cells), replications=replications):
        results = chosen.simulate_fused(cells)
    _M_BATCHES.labels(engine=name).inc()
    _M_RUNS.labels(engine=name).inc(replications)
    _M_SLOTS.labels(engine=name).inc(
        sum(result.slots_simulated for cell_results in results for result in cell_results)
    )
    return results
