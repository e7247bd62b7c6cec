"""Simulation engines and the capability registry that picks between them.

Four engines sample the *same* stochastic process — the paper's channel —
at very different costs.  Each declares :class:`EngineCapabilities`
(protocol kinds, feedback models, arrivals, batched, traces) with the
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
``fair``    ``fair``;      O(1) per slot: ``Binomial(m, p)``       a single fair run
            traces         outcome from one uniform draw
``window``  ``windowed``;  one occupancy sample per contention      a windowed run
            traces         window (saturated / multinomial /
                           ball throw)
``mega``    ``fair``,      one masked numpy pass per slot for all  never; the session fuses a fair
            batched        rows (cell × replication) of a group    group of >= 4 rows whose
                                                                   protocol has
                                                                   ``make_fused_batch_state``
=========== ============== ======================================= ================================

The reduced engines implement only the paper's channel with slot-0 arrivals;
anything else goes to ``slot``.  :func:`simulate` runs one replication on
the cheapest per-run engine (``"auto"`` never picks a batched one).  Fair
cells batch: the :class:`~repro.scenarios.session.Session` (and so
``run_sweep``, Figure 1, Table 1 and the service) asks
:func:`~repro.engine.registry.batch_engine_for` — the **one**
batch-eligibility predicate — and stacks the eligible cells of a grid that
share a ``fuse_key`` into one :func:`simulate_megabatch` kernel pass;
:func:`simulate_batch` is its one-cell form.  An explicit ``engine="mega"``
always batches; an explicit ``engine="fair"`` never does.

Batching is exact: each fused row replays the
:class:`FairEngine` stream of its own seed, so it equals the per-run result
run for run (up to last-bit rounding of the outcome thresholds; see
:mod:`repro.engine.megabatch`) and carries ``engine="fair"``.  Every per-run
engine declares a ``stream_version``; results record it in
``metadata["stream_version"]`` and stored runs are reused only under the
(seed, engine, stream version) that produced them.
``tests/engine/test_megabatch.py`` pins the equality;
:mod:`repro.engine.validation` holds the statistical cross-checks against
the node-level engine.
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
from repro.engine.megabatch import FusedCell, MegaFairEngine
from repro.engine.dispatch import pick_engine, simulate, simulate_batch, simulate_megabatch
from repro.engine.validation import compare_engines, makespan_samples

__all__ = [
    "SimulationResult",
    "SlotEngine",
    "FairEngine",
    "WindowEngine",
    "MegaFairEngine",
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
