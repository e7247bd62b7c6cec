"""Simulation engines and the capability registry that picks between them.

Five engines sample the *same* stochastic process — the paper's channel —
at very different costs.  Each declares :class:`EngineCapabilities`
(protocol kinds, feedback models, arrivals, batched, traces) with the
:mod:`repro.engine.registry`; each protocol declares its ``protocol_kind``.
Dispatch, session planning and the CLI's ``--engine`` choices are queries
against those declarations.

=============== ============== ======================================= ================================
engine          serves         cost                                    chosen by ``"auto"`` when
=============== ============== ======================================= ================================
``slot``        every kind,    O(active stations) per slot; the        nothing cheaper applies
                channel and    node-level reference the others are     (generic protocols, other
                arrivals;      validated against                       channels, arrival processes)
                traces
``fair``        ``fair``;      O(1) per slot: ``Binomial(m, p)``       a single fair run
                traces         outcome from one uniform draw
``window``      ``windowed``;  one balls-in-bins experiment per        a single windowed run
                traces         contention window
``mega``        ``fair``,      one masked numpy pass per slot for all  a sweep cell whose protocol has
                batched        rows (cell × replication) of a group    ``make_fused_batch_state``
``mega-window`` ``windowed``,  one occupancy sample per (cell,         a sweep cell whose protocol has
                batched        window) along one shared schedule       a ``fused_schedule_key``
=============== ============== ======================================= ================================

The reduced engines implement only the paper's channel with slot-0 arrivals;
anything else goes to ``slot``.  :func:`simulate` runs one replication on
the cheapest per-run engine (``"auto"`` never picks a batched one).  Whole
cells batch: the :class:`~repro.scenarios.session.Session` (and so
``run_sweep``, Figure 1, Table 1 and the service) asks
:func:`~repro.engine.registry.batch_engine_for` — the **one**
batch-eligibility predicate — and stacks every eligible cell of a grid that
shares a ``fuse_key`` into one :func:`simulate_megabatch` kernel pass;
:func:`simulate_batch` is its one-cell form.  ``batch=False`` /
``--no-batch`` replays per-run streams; an explicit ``engine="mega"`` or
``"mega-window"`` batches regardless.

Batched results are **distributionally identical, not bit-identical** to
per-run ones: a cell's replications share one stream keyed by its seed
tuple.  Each cell draws from its own stream, so its results never depend on
which cells it was fused with, and a resumed sweep that re-fuses only the
missing cells is bit-identical to a fresh one.
``tests/engine/test_megabatch.py`` pins both properties;
:mod:`repro.engine.validation` holds the statistical cross-checks.
"""

from __future__ import annotations

from repro.engine.registry import (
    EngineCapabilities,
    EngineRegistry,
    available_engines,
    batch_engine_for,
    engine_capabilities,
)
from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine
from repro.engine.fair_engine import FairEngine
from repro.engine.window_engine import WindowEngine
from repro.engine.megabatch import FusedCell, MegaFairEngine, MegaWindowEngine
from repro.engine.dispatch import pick_engine, simulate, simulate_batch, simulate_megabatch
from repro.engine.validation import compare_engines, makespan_samples

__all__ = [
    "SimulationResult",
    "SlotEngine",
    "FairEngine",
    "WindowEngine",
    "MegaFairEngine",
    "MegaWindowEngine",
    "FusedCell",
    "EngineCapabilities",
    "EngineRegistry",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
    "pick_engine",
    "available_engines",
    "batch_engine_for",
    "engine_capabilities",
    "compare_engines",
    "makespan_samples",
]
