"""Simulation engines and the capability registry that picks between them.

Three engines sample the *same* stochastic process — the paper's channel —
at very different costs.  Each declares :class:`EngineCapabilities`
(protocol kinds, feedback models, arrivals, traces) with the
:mod:`repro.engine.registry`; each protocol declares its ``protocol_kind``.
Dispatch, session planning and the CLI's ``--engine`` choices are queries
against those declarations.

=========== ============== ======================================= ================================
engine      serves         cost                                    chosen by ``"auto"`` when
=========== ============== ======================================= ================================
``slot``    every kind,    O(active stations) per slot; the        nothing cheaper applies
            channel and    node-level reference the others are     (generic protocols, other
            arrivals;      validated against                       channels, arrival processes)
            traces
``fair``    ``fair``;      O(1) per slot: ``Binomial(m, p)``       a fair run
            traces         outcome from one uniform draw; a
                           compiled slot loop for OFA, LFA and
                           ALOHA, the Python loop otherwise
``window``  ``windowed``;  one occupancy sample per contention      a windowed run
            traces         window (saturated / multinomial /
                           ball throw)
=========== ============== ======================================= ================================

The reduced engines implement only the paper's channel with slot-0 arrivals;
anything else goes to ``slot``.  :func:`simulate` runs one replication on
the cheapest engine; a sweep cell is one :func:`simulate` call per
replication, each keyed by its own seed, so a run never depends on its
siblings.  :func:`simulate_batch` (one cell) and :func:`simulate_megabatch`
(many cells) are loops over it.

:class:`FairEngine` runs the paper's fair protocols in a compiled slot loop
that equals its Python loop run for run (see :mod:`repro.engine.fair_engine`).
Every engine declares a ``stream_version``; results record it in
``metadata["stream_version"]`` and stored runs are reused only under the
(seed, engine, stream version) that produced them.
``tests/engine/test_fair_engine.py`` pins the compiled loop's equality and
``tests/engine/test_streams.py`` the streams;
:mod:`repro.engine.validation` holds the statistical cross-checks against
the node-level engine.
"""

from __future__ import annotations

from repro.engine.registry import (
    EngineCapabilities,
    EngineRegistry,
    available_engines,
    engine_capabilities,
)
from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine
from repro.engine.fair_engine import FairEngine
from repro.engine.window_engine import WindowEngine
from repro.engine.dispatch import (
    FusedCell,
    pick_engine,
    simulate,
    simulate_batch,
    simulate_megabatch,
)
from repro.engine.validation import compare_engines, makespan_samples

__all__ = [
    "SimulationResult",
    "SlotEngine",
    "FairEngine",
    "WindowEngine",
    "FusedCell",
    "EngineCapabilities",
    "EngineRegistry",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
    "pick_engine",
    "available_engines",
    "engine_capabilities",
    "compare_engines",
    "makespan_samples",
]
