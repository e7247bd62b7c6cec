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
paper's Figure 1 — without changing the distribution of the makespan, which is
what the test suite verifies against the node-level engine.

The uniform stream derives from :class:`repro.util.rng.RandomSource` like
every other engine's, so a single integer seed keys the same machinery
everywhere; draws are pulled in blocks to keep the hot loop as cheap as the
stdlib generator this engine historically used.

Compiled slot loop
------------------
The paper's fair protocols — :class:`~repro.core.one_fail_adaptive.OneFailAdaptive`,
:class:`~repro.protocols.log_fails_adaptive.LogFailsAdaptive` and
:class:`~repro.protocols.aloha.SlottedAloha` — also run in a C port of this
loop (``fair_kernel.c``), about 80× faster per slot.  It consumes the same
draw blocks, makes the same libm calls in the same order and is compiled with
``-ffp-contract=off``, so each run equals the Python loop's run of the same
seed in every field.  The Python loop stays the reference and runs everything
else: traced runs, other fair protocols (and subclasses of the three — the
kernel is matched by exact type, so an overridden rule is never skipped) and
hosts without a C compiler.  ``repro_fair_runs_total{path}`` counts which
loop ran.

The library is compiled lazily by the system ``cc`` on first use and cached
per user (``~/.cache/repro``, else ``<tmp>/repro-<uid>``) under a name that
hashes the source, the flags and the machine, so a second process only
loads it.  A failed build logs one warning and leaves the Python loop in
charge.

Which station delivers in a successful slot is irrelevant for the makespan
(they are exchangeable), so station identities are not tracked.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.channel.model import ChannelModel, Observation, SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.registry import EngineCapabilities, check_engine_channel, register_engine
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY, get_logger
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import FairProtocol
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int

__all__ = ["FairEngine"]

#: Uniform draws are pulled from the numpy generator in blocks of this size,
#: at absolute slot multiples of it: a scalar ``Generator.random()`` call
#: costs several times a ``random.Random.random()`` call, but a block
#: amortises the dispatch overhead to well below it.  Runs shorter than one
#: block waste the surplus draws; at 10 runs per cell that is noise next to
#: the per-slot loop.  The block size is part of the stream format, so
#: changing it means bumping ``stream_version``.
_DRAW_BLOCK = 1024

_M_FAIR_RUNS = REGISTRY.counter(
    "repro_fair_runs_total",
    "FairEngine runs, by slot loop (compiled kernel vs Python fallback).",
    ("path",),
)
_M_COMPILED = _M_FAIR_RUNS.labels(path="compiled")
_M_PYTHON = _M_FAIR_RUNS.labels(path="python")

_LOG = get_logger(__name__)

_KERNEL_SOURCE = Path(__file__).with_name("fair_kernel.c")
#: Never -ffast-math or -march=native: either lets the compiler reassociate
#: or fuse the threshold arithmetic, and runs would stop equalling the
#: Python loop's.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# fair_run_block's return values.
_MORE, _SOLVED = 0, 1


class _FairRun(ctypes.Structure):
    """The ``fair_run`` struct of ``fair_kernel.c``, field for field."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in (
            "slot", "remaining", "cap", "successes", "collisions", "silences",
            "last_delivery", "protocol",
        )),
        *((name, ctypes.c_double) for name in ("delta", "xi_t", "xi_delta", "bt_probability")),
        *((name, ctypes.c_int64) for name in (
            "failure_threshold", "max_search_exponent", "track_deliveries",
        )),
        ("kappa", ctypes.c_double),
        ("anchor", ctypes.c_double),
        ("count", ctypes.c_int64),
        ("search", ctypes.c_int64),
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


def _cache_dirs() -> list[Path]:
    """Where the compiled kernel may be cached, in order of preference."""
    directories = [Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]
    try:
        directories.insert(0, Path.home() / ".cache" / "repro")
    except RuntimeError:  # no home directory (unset HOME, uid without passwd entry)
        pass
    return directories


def _private(directory: Path) -> bool:
    """Create ``directory`` if needed; true if only this user can write it."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = directory.stat()
    except OSError:
        return False
    return status.st_uid == os.getuid() and not status.st_mode & 0o022


def _library_name() -> str:
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(platform.machine().encode())
    return f"fair_kernel-{digest.hexdigest()[:16]}.so"


def _build(directory: Path) -> Path:
    """The kernel library in ``directory``, compiled first if it is missing.

    The compiler writes a temporary file that is renamed into place, so a
    concurrent process sees either no library or a complete one.  Raises
    :class:`OSError` with the compiler's last stderr line on failure.
    """
    target = directory / _library_name()
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    handle, partial = tempfile.mkstemp(dir=directory, prefix=".fair_kernel-", suffix=".so")
    os.close(handle)
    try:
        completed = subprocess.run(
            [compiler, *_CFLAGS, "-o", partial, str(_KERNEL_SOURCE), "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            lines = completed.stderr.strip().splitlines() or [f"exit status {completed.returncode}"]
            raise OSError(f"cc failed: {lines[-1]}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _open_kernel() -> ctypes.CDLL | None:
    """Build (or find) and load the kernel; ``None`` if it cannot be had."""
    reason = "no private cache directory"
    for directory in _cache_dirs():
        if not _private(directory):
            continue
        try:
            library = ctypes.CDLL(str(_build(directory)))
        except (OSError, subprocess.SubprocessError) as error:
            reason = str(error)
            continue
        library.fair_run_block.argtypes = [
            ctypes.POINTER(_FairRun), ctypes.c_void_p, ctypes.c_int64,
        ]
        library.fair_run_block.restype = ctypes.c_int
        return library
    _LOG.warning("compiled fair kernel unavailable (%s); FairEngine runs on its Python loop", reason)
    return None


class _KernelLoader:
    """Loads the kernel once per process; worker threads share the result."""

    #: Written only under ``self._lock`` (checked by lint rule LCK001).
    _lock_guarded = frozenset({"_loaded", "_library"})

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._loaded = False
        self._library: ctypes.CDLL | None = None

    def get(self) -> ctypes.CDLL | None:
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._library = _open_kernel()
                    self._loaded = True
        return self._library


_KERNEL = _KernelLoader()


@register_engine
class FairEngine:
    """Simulate a :class:`FairProtocol` with one random draw per slot."""

    name = "fair"

    #: Fair protocols on the paper's channel, one draw per slot; collects
    #: traces, so it is the per-run *and* the traced engine for fair
    #: protocols.  Cheapest rank: ``"auto"`` prefers it whenever it is exact.
    capabilities = EngineCapabilities(
        protocol_kinds=frozenset({"fair"}),
        traces=True,
        cost_rank=10,
    )

    #: Version of this engine's random stream (seed → draws → outcomes).
    #: Stored runs are reused only under the version that produced them, so
    #: any change to the draw order must bump it.  The compiled and the
    #: Python loop share it: they produce the same runs.
    stream_version: ClassVar[int] = 1

    def __init__(self, channel: ChannelModel | None = None, max_slots_factor: int = 10_000) -> None:
        self.channel = check_engine_channel(type(self), channel)
        self.max_slots_factor = check_positive_int("max_slots_factor", max_slots_factor)

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
        cap = max_slots if max_slots is not None else self.max_slots_factor * k
        fields = _KERNEL_PROTOCOLS.get(type(protocol)) if trace is None else None
        kernel = _KERNEL.get() if fields is not None else None
        if kernel is not None:
            _M_COMPILED.inc()
            run = _FairRun(remaining=k, cap=cap, last_delivery=-1, **fields(protocol))
            # The same blocks the Python loop draws, one kernel call per block.
            generator = RandomSource(seed=seed).generator
            draws = np.empty(_DRAW_BLOCK)
            status = _MORE
            while status == _MORE:
                generator.random(out=draws)
                status = kernel.fair_run_block(ctypes.byref(run), draws.ctypes.data, _DRAW_BLOCK)
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
