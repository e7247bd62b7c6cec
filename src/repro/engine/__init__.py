"""Simulation engines and the one rule that picks between them.

Three engines sample the *same* stochastic process — the paper's channel —
at very different costs.  :data:`ENGINES` names them, and
:func:`pick_engine_name` (in :mod:`repro.engine.dispatch`) states the whole
selection rule from the protocol's ``protocol_kind``, the channel and the
arrival process; dispatch, session planning and scenario validation (so
the CLI's ``engine=`` spec token too) all ask it.

=========== ======================================= ==========================================
engine      cost                                    chosen by ``"auto"`` when
=========== ======================================= ==========================================
``slot``    O(active stations) per slot: the        nothing cheaper applies (generic protocols,
            paper's station loop, one protocol      other channels, arrival processes, fair
            copy and stream per station             protocols whose state depends on their
                                                    own transmissions)
``fair``    O(1) per slot: ``Binomial(m, p)``       a fair protocol whose state ignores its own
            outcome from one uniform draw; a        transmissions, on the paper's channel with
            compiled slot loop for OFA, LFA and     slot-0 arrivals
            ALOHA, the Python loop otherwise
``window``  one balls-in-bins experiment per        a windowed protocol, on the paper's channel
            window: no draws when saturated, one    with slot-0 arrivals
            uniform per ball otherwise; a compiled
            window loop, the Python loop when
            traced
=========== ======================================= ==========================================

Every engine collects traces.  An explicit engine outside the rule's answer
is refused with the engines that can serve the request.  Protocols, arrival
processes and channels reach the rule as built components: spec strings
name them through the closed tables of :mod:`repro.scenarios.spec`.

:func:`simulate` runs one replication on the cheapest engine; a sweep cell
is one :func:`simulate` call per replication, each keyed by its own seed,
so a run never depends on its siblings.  :func:`simulate_batch` (one cell)
and :func:`simulate_megabatch` (many cells) are loops over it.

:class:`FairEngine` runs the paper's fair protocols in a compiled slot loop,
one call per run (per 2^20 slots of a longer run), that equals its Python
loop run for run (see :mod:`repro.engine.fair_engine`), and
:class:`WindowEngine` runs its window loop in a compiled kernel, one call
per schedule chunk, that equals its Python loop run for run (see
:mod:`repro.engine.window_engine`); both kernels live in one lazily built
library (:mod:`repro.engine.native`).
Every engine declares a ``stream_version``; results record it in
``metadata["stream_version"]`` and stored runs are reused only under the
(seed, engine, stream version) that produced them.
``tests/engine/test_fair_engine.py`` and ``tests/engine/test_window_engine.py``
pin the compiled paths' equality, and ``tests/engine/test_conformance.py``
holds every engine to one suite: the exact makespan laws of small cells,
the structure of a result and the pinned streams.
"""

from __future__ import annotations

from repro.engine.result import SimulationResult
from repro.engine.slot_engine import SlotEngine
from repro.engine.fair_engine import FairEngine
from repro.engine.window_engine import WindowEngine
from repro.engine.dispatch import (
    ENGINES,
    FusedCell,
    available_engines,
    pick_engine,
    pick_engine_name,
    simulate,
    simulate_batch,
    simulate_megabatch,
)

__all__ = [
    "SimulationResult",
    "SlotEngine",
    "FairEngine",
    "WindowEngine",
    "FusedCell",
    "ENGINES",
    "simulate",
    "simulate_batch",
    "simulate_megabatch",
    "pick_engine",
    "pick_engine_name",
    "available_engines",
]
