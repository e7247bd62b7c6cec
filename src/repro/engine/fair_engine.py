"""O(1)-per-slot engine for fair protocols.

A *fair* protocol has every active station transmit with the same probability
``p`` in a slot, and updates its state only on information every active
station observes identically (receptions, slot parity).  Consequently the
number of transmitters in a slot with ``m`` active stations is
``Binomial(m, p)`` and the slot outcome distribution is::

    P(success)   = m * p * (1 - p)^(m - 1)
    P(silence)   = (1 - p)^m
    P(collision) = 1 - P(success) - P(silence)

One uniform draw per slot therefore samples the outcome exactly, and a single
shared protocol instance can stand in for the common state of every active
station.  This reduces the cost of a run from O(k) to O(1) per slot — the
difference between minutes and milliseconds for the network sizes of the
paper's Figure 1 — without changing the distribution of the makespan, which the
test suite checks against the exact law of small cells.

The uniform stream derives from :class:`repro.util.rng.RandomSource` like
every other engine's, so a single integer seed keys the same machinery
everywhere: slot ``i`` takes the generator's ``i``-th uniform.  (The
compiled loop seeds and steps its own port of the ``PCG64`` bit generator a
``RandomSource`` wraps: the same uniforms, without numpy around them.)

Compiled slot loop
------------------
The paper's fair protocols — :class:`~repro.core.one_fail_adaptive.OneFailAdaptive`,
:class:`~repro.protocols.log_fails_adaptive.LogFailsAdaptive` and
:class:`~repro.protocols.aloha.SlottedAloha` — also run in a C port of this
loop (``fair_kernel.c``, one loop per protocol), two orders of magnitude
faster per slot.
A run is one call (one per ``native.SLOTS_PER_CALL`` slots of a longer run,
so Ctrl-C is seen): the kernel seeds the run's generator from the seed on
the first call and steps it inline (``pcg64.h``, through
:func:`repro.engine.native.stream`; the values the Python loop reads from
its blocks).  It classifies most slots without ``pow``: each probability
stream carries rigorous bounds on ``(1 - p)^(m - 1)`` from its last exact
``pow``, and the thresholds' bounds, computed with the same rounded products
as above, settle every uniform that does not fall between them.  One that
does takes ``pow`` on this loop's operands, is classified exactly and
re-anchors the bounds.  Rounding is monotone and the bounds hold as long as
libm's ``pow`` is within 1 ulp among normal numbers (values below 2⁻⁹⁶⁰ get
absolute bounds), so with ``-ffp-contract=off`` each run equals the Python
loop's run of the same seed in every field; the run's ``exact`` field counts
the ``pow`` calls, for the tests.  The Python loop stays the reference and
runs everything else: traced runs, other fair protocols (and subclasses of
the three — the kernel is matched by exact type, so an overridden rule is
never skipped) and hosts without a C compiler.
``repro_fair_runs_total{path}`` counts which loop ran.

The kernel shares one lazily compiled, per-user cached library with
:class:`~repro.engine.window_engine.WindowEngine`'s window loop
(:mod:`repro.engine.native`).  A failed build, or a library whose seeding
disagrees with numpy's, logs one warning and leaves the Python loop in
charge.

Which station delivers in a successful slot is irrelevant for the makespan
(they are exchangeable), so station identities are not tracked.
"""

from __future__ import annotations

import ctypes
from typing import ClassVar

from repro.channel.model import ChannelModel, Observation, SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine import native
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import FairProtocol
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.util.rng import RandomSource
from repro.util.validation import DEFAULT_MAX_SLOTS_FACTOR, check_max_slots, check_positive_int

__all__ = ["FairEngine"]

#: The Python loop pulls its uniforms from the numpy generator in blocks of
#: this size: a scalar ``Generator.random()`` call costs several times a
#: ``random.Random.random()`` call, and a block amortises it.  Slot ``i``
#: takes uniform ``i`` whatever the block size, and the surplus of the last
#: block dies with the run's generator, so the block size is not part of the
#: stream: the compiled loop draws one uniform per slot.
_DRAW_BLOCK = 1024

_M_FAIR_RUNS = REGISTRY.counter(
    "repro_fair_runs_total",
    "FairEngine runs, by slot loop (compiled kernel vs Python fallback).",
    ("path",),
)
_M_COMPILED = _M_FAIR_RUNS.labels(path="compiled")
_M_PYTHON = _M_FAIR_RUNS.labels(path="python")

# fair_simulate returns _SOLVED or 2 (capped) once the run ends, and _PAUSED
# after native.SLOTS_PER_CALL slots: the caller calls again.
_PAUSED, _SOLVED = 0, 1


class _FairRun(ctypes.Structure):
    """The ``fair_run`` struct of ``fair_kernel.c``, field for field."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in (
            "slot", "remaining", "cap", "successes", "collisions", "silences",
            "last_delivery", "budget", "protocol",
        )),
        *((name, ctypes.c_double) for name in ("delta", "xi_t", "xi_delta", "bt_probability")),
        *((name, ctypes.c_int64) for name in (
            "failure_threshold", "max_search_exponent", "track_deliveries",
        )),
        ("kappa", ctypes.c_double),
        ("anchor", ctypes.c_double),
        ("count", ctypes.c_int64),
        ("search", ctypes.c_int64),
        ("exact", ctypes.c_int64),
        ("stream", native.Stream),
    ]


def _one_fail_fields(protocol: OneFailAdaptive) -> dict[str, object]:
    # Algorithm 1, lines 2-3: κ̃ ← δ + 1, σ ← 0.
    return {"protocol": 0, "delta": protocol.delta, "kappa": protocol.delta + 1.0}


def _log_fails_fields(protocol: LogFailsAdaptive) -> dict[str, object]:
    return {
        "protocol": 1,
        "xi_t": protocol.xi_t,
        "xi_delta": protocol.xi_delta,
        "bt_probability": protocol.bt_probability,
        "failure_threshold": protocol.failure_threshold,
        "max_search_exponent": protocol.max_search_exponent,
        "kappa": 1.0,
        "anchor": 1.0,
    }


def _aloha_fields(protocol: SlottedAloha) -> dict[str, object]:
    return {"protocol": 2, "track_deliveries": protocol.track_deliveries, "count": protocol.k}


#: The protocols ``fair_kernel.c`` implements, keyed by exact type: each
#: entry maps a prototype to its kernel constants and reset state.
_KERNEL_PROTOCOLS = {
    OneFailAdaptive: _one_fail_fields,
    LogFailsAdaptive: _log_fails_fields,
    SlottedAloha: _aloha_fields,
}


class FairEngine:
    """Simulate a :class:`FairProtocol` with one random draw per slot."""

    name = "fair"

    #: Version of this engine's random stream (seed → draws → outcomes).
    #: Stored runs are reused only under the version that produced them, so
    #: any change to the draw order must bump it.  The compiled and the
    #: Python loop share it: they produce the same runs.
    stream_version: ClassVar[int] = 1

    def __init__(self, channel: ChannelModel | None = None) -> None:
        if channel is not None and channel != ChannelModel():
            raise ValueError(
                "FairEngine implements only the paper's channel (no collision detection, "
                f"implicit acknowledgements), got {channel!r}; use SlotEngine for other channels"
            )
        self.channel = ChannelModel()

    def simulate(
        self,
        protocol: FairProtocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
    ) -> SimulationResult:
        """Run one batched (static) k-selection instance."""
        check_positive_int("k", k)
        if not isinstance(protocol, FairProtocol):
            raise TypeError(
                f"FairEngine requires a FairProtocol, got {type(protocol).__name__}"
            )
        if protocol.state_depends_on_own_transmission:
            raise ValueError(
                f"{type(protocol).__name__} declares per-station state that depends on its own "
                "transmissions; the shared-state reduction of FairEngine does not apply"
            )
        cap = check_max_slots(max_slots if max_slots is not None else DEFAULT_MAX_SLOTS_FACTOR * k)
        fields = _KERNEL_PROTOCOLS.get(type(protocol)) if trace is None else None
        kernel = native.KERNEL.get() if fields is not None else None
        if kernel is not None:
            # The kernel seeds RandomSource(seed)'s generator on the run's
            # first call and draws one of its uniforms per slot.
            run = _FairRun(
                remaining=k, cap=cap, budget=native.SLOTS_PER_CALL, last_delivery=-1,
                stream=native.stream(seed), **fields(protocol),
            )
            _M_COMPILED.inc()
            status = _PAUSED
            while status == _PAUSED:
                status = kernel.fair_simulate(ctypes.byref(run))
            return self._result(
                protocol, k, seed, status == _SOLVED, run.slot, run.successes,
                run.collisions, run.silences, run.last_delivery,
            )
        _M_PYTHON.inc()
        return self._simulate_python(protocol, k, seed, cap, trace)

    def _simulate_python(
        self,
        protocol: FairProtocol,
        k: int,
        seed: int,
        cap: int,
        trace: ExecutionTrace | None,
    ) -> SimulationResult:
        """The reference slot loop: any fair protocol, optionally traced."""
        shared_state = protocol.spawn()
        # Like every other engine, the random stream derives from a
        # RandomSource so one integer seed keys the whole repository's
        # randomness machinery; draws come in blocks to keep the per-slot
        # cost below a scalar numpy call.
        generator = RandomSource(seed=seed).generator
        block = generator.random(_DRAW_BLOCK)
        block_index = 0

        remaining = k
        slot = 0
        successes = collisions = silences = 0
        last_delivery = -1

        while remaining > 0:
            if slot >= cap:
                return self._result(
                    protocol, k, seed, False, slot, successes, collisions, silences, last_delivery
                )
            p = shared_state.transmission_probability(slot)
            if p <= 0.0:
                probability_success = 0.0
                probability_silence = 1.0
            elif p >= 1.0:
                probability_success = 1.0 if remaining == 1 else 0.0
                probability_silence = 0.0
            else:
                q = 1.0 - p
                q_pow = q ** (remaining - 1)
                probability_success = remaining * p * q_pow
                probability_silence = q_pow * q

            if block_index == _DRAW_BLOCK:
                block = generator.random(_DRAW_BLOCK)
                block_index = 0
            draw = block[block_index]
            block_index += 1
            if draw < probability_success:
                outcome = SlotOutcome.SUCCESS
                successes += 1
                remaining -= 1
                last_delivery = slot
            elif draw < probability_success + probability_silence:
                outcome = SlotOutcome.SILENCE
                silences += 1
            else:
                outcome = SlotOutcome.COLLISION
                collisions += 1

            # Feedback as seen by a surviving active station: it receives the
            # delivered message on a success and hears noise otherwise.  Fair
            # protocols' state must not depend on own transmissions, so the
            # `transmitted` flag is reported as False.
            shared_state.notify(
                Observation(
                    slot=slot,
                    transmitted=False,
                    received=outcome is SlotOutcome.SUCCESS,
                    delivered=False,
                )
            )
            if trace is not None:
                transmitters = 1 if outcome is SlotOutcome.SUCCESS else (
                    0 if outcome is SlotOutcome.SILENCE else 2
                )
                trace.append(
                    SlotRecord(
                        slot=slot,
                        transmitters=transmitters,
                        outcome=outcome,
                        active_before=remaining + (1 if outcome is SlotOutcome.SUCCESS else 0),
                    )
                )
            slot += 1

        return self._result(
            protocol, k, seed, True, slot, successes, collisions, silences, last_delivery
        )

    def _result(
        self,
        protocol: FairProtocol,
        k: int,
        seed: int,
        solved: bool,
        slots: int,
        successes: int,
        collisions: int,
        silences: int,
        last_delivery: int,
    ) -> SimulationResult:
        return SimulationResult(
            solved=solved,
            makespan=last_delivery + 1 if solved else None,
            k=k,
            slots_simulated=slots,
            successes=successes,
            collisions=collisions,
            silences=silences,
            protocol=protocol.name,
            engine=self.name,
            seed=seed,
            metadata={"stream_version": self.stream_version},
        )
