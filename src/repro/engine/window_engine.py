"""Balls-in-bins engine for windowed protocols.

A :class:`~repro.protocols.base.WindowedProtocol` commits every active station
to one uniformly random slot of each contention window.  With batched arrivals
every station follows the same window schedule, so a window of ``w`` slots
with ``m`` active stations is exactly the balls-in-bins experiment of the
paper's Lemma 1: ``m`` balls dropped uniformly into ``w`` bins, and a station
is delivered iff its bin (slot) holds exactly one ball.

The engine therefore processes a whole window at once, which makes runs with
k = 10⁷ — the right edge of the paper's Figure 1 — take seconds instead of
hours:

* saturated windows (see :data:`_SATURATED_BOUND`) emit the all-collisions
  outcome with no random draws at all — the long descending tails of every
  back-off sawtooth;
* every other window throws its balls: ball ``i`` lands in the bin that
  the ``i``-th draw of ``generator.integers(0, w, size=m, dtype=np.uint32)``
  returns.  numpy draws it from one 32-bit half of a ``PCG64`` output, the
  low half first, keeps the high half in the bit generator for the next
  draw (across calls too), and applies Lemire's multiply-shift with its
  exact rejection, so every bin has probability exactly ``1/w``.  A window
  wider than ``2³²−1`` slots cannot be thrown (:data:`_MAX_THROWN`).

A window cut by the run's slot cap simulates only its slots before the cap,
so a capped run never reports more than ``max_slots`` slots.

Compiled window loop
--------------------
Untraced runs run the window loop in C (``window_kernel.c``, built into the
library of :mod:`repro.engine.native`): the saturation test (a port of
:func:`_saturated` making the same libm calls), the cap, the ball throw into
one byte per bin with the bounded draws of the run's own port of numpy's
``PCG64`` (``pcg64.h``: seeded from the run's seed by its first call,
stepped inline, two balls per output where both halves pass Lemire's test
at once, and carried from call to call, kept half included, in
:func:`repro.engine.native.stream`'s structure), the tally (8 bins at a
time) and the counters.  Every run of one protocol instance reads the same
schedule, so the instance holds it (:class:`_Schedule`): pulled from one
``spawn()``, in chunks of 8, 16, 32, … windows, each pulled once, by the
first run that reaches it, and never changed after; a run makes one call
per chunk it reaches.  Every windowed protocol takes the compiled path,
subclasses and user-defined schedules included.  An error the schedule
raises while a chunk is pulled ahead is held with the chunk and raised in
every run that reaches that window, and in no other, so each run ends
exactly where the per-window loop would.  A thrown window wider than the
run's bin buffer hands back to Python, which grows the buffer to the next
power of two (or refuses a window wider than :data:`_MAX_THROWN`) and
resumes there; so does a call that has run
``native.SLOTS_PER_CALL`` slots, so Ctrl-C is seen.  Traced runs (they
record exact per-slot transmitter counts) and hosts without a C compiler
run the Python per-window loop on a schedule of their own ``spawn()`` and
throw the balls with numpy (:func:`_throw_reference`), which draws the same
values and bins them the same way, so both paths produce the same runs.
``repro_window_runs_total{path}`` counts which one ran.
"""

from __future__ import annotations

import copy
import ctypes
import math
import threading
from array import array
from collections.abc import Iterator
from types import TracebackType
from typing import ClassVar, NamedTuple

import numpy as np

from repro.channel.model import ChannelModel, SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.engine import native
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.protocols.base import WindowedProtocol
from repro.util.rng import RandomSource
from repro.util.validation import DEFAULT_MAX_SLOTS_FACTOR, check_max_slots, check_positive_int

__all__ = ["WindowEngine"]

#: How each window's occupancy was produced: ``saturated`` windows are
#: emitted without any draws and ``ball-throw`` windows throw every ball.
#: Counts one per window, but is incremented once per run and mode, never per
#: window.
_M_OCCUPANCY = REGISTRY.counter(
    "repro_window_occupancy_total",
    "Contention windows simulated by the window engine, by occupancy-sampling mode.",
    ("mode",),
)
_M_SATURATED = _M_OCCUPANCY.labels(mode="saturated")
_M_THROWN = _M_OCCUPANCY.labels(mode="ball-throw")

_M_WINDOW_RUNS = REGISTRY.counter(
    "repro_window_runs_total",
    "WindowEngine runs, by window loop (compiled kernel vs Python reference).",
    ("path",),
)
_M_COMPILED = _M_WINDOW_RUNS.labels(path="compiled")
_M_PYTHON = _M_WINDOW_RUNS.labels(path="python")

#: Threshold under which a window is all-collisions "for sure": a window is
#: *saturated* when the exact union bound ``P(any bin holds <= 1 ball) <=
#: w [(1-1/w)^m + (m/w)(1-1/w)^{m-1}]`` evaluates below this, so emitting the
#: certain all-collisions outcome skips an outcome of probability below
#: ``2^{-54}`` per window (one power of two under ``2^{-53}``, which keeps the
#: margin when the bound's own float rounding is counted) — and the window
#: takes no draws.
_SATURATED_BOUND = 2.0**-54

#: The widest window a ball throw takes: numpy's ``uint32`` bounded draw
#: reaches ``2³²−1`` bins.  A wider window that is not saturated raises
#: :class:`ValueError` on both loops, before any bin buffer is grown.
_MAX_THROWN = 2**32 - 1


def _saturated(length: int, balls: int) -> bool:
    """Whether every bin surely holds >= 2 balls (see :data:`_SATURATED_BOUND`).

    ``length == 1`` with ``balls >= 2`` is the degenerate certain collision.
    """
    if balls < 2 * length:  # deliveries plainly possible; skip the math
        return False
    if length == 1:
        return True
    log_keep_out = math.log1p(-1.0 / length)  # log P(one ball misses a bin)
    p_empty = math.exp(balls * log_keep_out)
    p_singleton = (balls / length) * math.exp((balls - 1) * log_keep_out)
    return length * (p_empty + p_singleton) < _SATURATED_BOUND


#: A window's tally over its first ``limit`` slots: silences, singletons, the
#: last singleton's slot (-1 if none) and the silences before it.
_Tally = tuple[int, int, int, int]


def _check_thrown(length: int) -> None:
    """Refuse a window too wide to throw (see :data:`_MAX_THROWN`)."""
    if length > _MAX_THROWN:
        raise ValueError(
            f"a thrown window holds at most 2**32 - 1 = {_MAX_THROWN} slots, got {length}"
        )


def _throw_reference(
    generator: np.random.Generator, length: int, balls: int, limit: int
) -> tuple[np.ndarray, _Tally]:
    """The numpy ball throw: per-slot ball counts of ``[0, limit)`` and their tally."""
    _check_thrown(length)
    bins = generator.integers(0, length, size=balls, dtype=np.uint32)
    occupancy = np.bincount(bins, minlength=length)[:limit]
    silent = occupancy == 0
    singles = np.flatnonzero(occupancy == 1)
    last = int(singles[-1]) if singles.size else -1
    before = int(np.count_nonzero(silent[:last])) if singles.size else 0
    return occupancy, (int(np.count_nonzero(silent)), int(singles.size), last, before)


class _WindowRun(ctypes.Structure):
    """A run's state and counters: the ``window_run`` struct of
    ``window_kernel.c``, field for field.  The Python loop reports in it too."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in (
            "remaining", "start", "cap", "windows", "successes", "collisions", "silences",
            "saturated", "thrown", "position", "budget",
        )),
        ("stream", native.Stream),
    ]


# window_simulate returns _DONE once the run is solved or capped, 1 when the
# chunk is used up, _GROW when the window at ``position`` needs a larger bin
# buffer (or is wider than _MAX_THROWN), and _PAUSED at ``position`` after
# native.SLOTS_PER_CALL slots.
_DONE, _GROW, _PAUSED = 0, 2, 3

#: Windows in the first schedule chunk of a compiled run; each further chunk
#: is twice the last, so a run of ``n`` windows makes ``⌈log2(n/8 + 1)⌉``
#: calls (plus one per bin-buffer growth and per ``native.SLOTS_PER_CALL``
#: slots) and pulls fewer than ``2n + 8`` windows.
_FIRST_CHUNK = 8

#: Bins of a compiled run's first bin buffer: wide enough for every window an
#: EBB or LLIB run at k <= 10^3 throws, so those runs never hand back.
_FIRST_BINS = 4096


def _window_length(value: object) -> int:
    """One window length of a schedule, checked."""
    length = int(value)
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    return length


def _exhausted(protocol: WindowedProtocol, remaining: int) -> RuntimeError:
    return RuntimeError(
        f"{type(protocol).__name__}: window schedule exhausted with {remaining} messages left"
    )


def _pull(schedule: Iterator[int], count: int) -> tuple[array, Exception | None]:
    """Up to ``count`` window lengths, and the error that cut them short.

    The caller raises the error only if the run reaches that window, which
    the per-window loop would have asked for: a run that ends before it
    never sees an error of the schedule's future.
    """
    lengths = array("q")
    try:
        for _ in range(count):
            lengths.append(_window_length(next(schedule)))
    except Exception as error:  # noqa: BLE001 - deferred, not swallowed (see above)
        return lengths, error
    return lengths, None


class _Chunk(NamedTuple):
    """Window lengths of one schedule chunk, where the kernel reads them, and
    the error that cut the chunk short (with its traceback), if any."""

    lengths: array
    address: int
    count: int
    error: Exception | None
    traceback: TracebackType | None


class _Schedule:
    """A protocol instance's window schedule, shared by its compiled runs.

    The schedule is one ``spawn()`` of the instance, pulled in the chunks a
    run used to pull for itself (8, 16, 32, … windows), so every run reads
    the windows it would have pulled and makes the calls it would have made.
    Each chunk is pulled once, under the lock, by the first run that reaches
    it, and is never changed after: a chunk a kernel call is reading with the
    GIL released is never resized.  No chunk follows one an error cut short.

    The instance holds its schedule (:func:`_schedule_of`), and the schedule a
    snapshot of the instance's attributes as they are once it holds it: a
    copy of the attributes it was spawned from, plus the schedule itself.  A
    run whose instance's attributes differ from the snapshot pulls a new one.
    A copy or a pickle of the instance holds none.
    """

    def __init__(self, protocol: WindowedProtocol) -> None:
        self.kind = type(protocol)
        self.snapshot = copy.deepcopy(
            {key: value for key, value in vars(protocol).items() if key != _SCHEDULE}
        )
        self.snapshot[_SCHEDULE] = self
        self._windows = protocol.spawn().window_lengths()
        self._lock = threading.Lock()
        self._chunks: list[_Chunk] = []

    def chunk(self, index: int) -> _Chunk:
        """The ``index``-th chunk, pulled first if no run has reached it."""
        chunks = self._chunks
        if index >= len(chunks):
            with self._lock:
                while len(chunks) <= index:
                    lengths, error = _pull(self._windows, _FIRST_CHUNK << len(chunks))
                    address, count = lengths.buffer_info()
                    traceback = error.__traceback__ if error is not None else None
                    chunks.append(_Chunk(lengths, address, count, error, traceback))
        return chunks[index]

    def matches(self, protocol: WindowedProtocol) -> bool:
        """Whether this schedule is still the one ``protocol`` would spawn."""
        if type(protocol) is not self.kind:
            return False
        try:
            return bool(vars(protocol) == self.snapshot)
        except (TypeError, ValueError):  # an attribute without one truth value: an array
            return False

    def __reduce__(self) -> tuple[object, tuple[()]]:
        return _no_schedule, ()


def _no_schedule() -> None:
    """What a copied or unpickled protocol instance holds for its schedule."""
    return None


#: The attribute of a protocol instance that holds its :class:`_Schedule`.
_SCHEDULE = "_window_engine_schedule"

#: Serialises :func:`_schedule_of`'s check-and-set: a thread that copies an
#: instance (its snapshot, ``spawn()``) while another thread adds the
#: schedule attribute to it fails with "dictionary changed size during
#: iteration".
_SCHEDULE_LOCK = threading.Lock()


def _schedule_of(protocol: WindowedProtocol) -> _Schedule:
    """The schedule ``protocol``'s compiled runs share, pulled anew when the
    instance's attributes (its parameters) changed since it was pulled."""
    with _SCHEDULE_LOCK:
        schedule = vars(protocol).get(_SCHEDULE)
        if schedule is None or not schedule.matches(protocol):
            schedule = _Schedule(protocol)
            vars(protocol)[_SCHEDULE] = schedule
    return schedule


#: Each thread's idle bin buffer and its address, as ``(bins, address)``:
#: a compiled run borrows it and puts it back, grown if it grew it.
_BINS = threading.local()


def _new_bins(size: int) -> tuple[np.ndarray, int]:
    bins = np.empty(size, dtype=np.uint8)
    return bins, bins.ctypes.data


def _compiled_run(
    window_simulate: ctypes._CFuncPtr,
    protocol: WindowedProtocol,
    schedule: _Schedule,
    seed: int,
    k: int,
    cap: int,
) -> _WindowRun:
    """The run on ``window_kernel.c``: one call per schedule chunk it reaches,
    and one more per bin-buffer growth and per ``native.SLOTS_PER_CALL`` slots.

    The run state, its generator included, belongs to the run, and so does
    the bin buffer while the run holds it, because the GIL is released
    during each call and the service runs windows of different jobs on
    concurrent threads.  The buffer is borrowed from the thread (the kernel
    clears each window's bins before it throws) and is out of the thread's
    slot until the run returns it, so a run nested in this one gets its own;
    a run that raises drops it.
    """
    # The first call seeds RandomSource(seed)'s generator, whose bounded draws
    # the Python loop's generator.integers returns: the kernel draws one per ball.
    run = _WindowRun(
        remaining=k, cap=cap, budget=native.SLOTS_PER_CALL, stream=native.stream(seed)
    )
    bins, bins_address = vars(_BINS).pop("buffer", None) or _new_bins(_FIRST_BINS)
    index = 0
    while True:
        chunk = schedule.chunk(index)
        index += 1
        run.position = 0
        while True:
            status = window_simulate(
                ctypes.byref(run), chunk.address, chunk.count, bins_address, bins.size
            )
            if status == _GROW:
                length = chunk.lengths[run.position]
                _check_thrown(length)
                # The next power of two: at most twice the window that did not fit.
                bins, bins_address = _new_bins(1 << (length - 1).bit_length())
            elif status != _PAUSED:
                break
        if status == _DONE:
            _BINS.buffer = (bins, bins_address)
            return run
        if isinstance(chunk.error, StopIteration):
            raise _exhausted(protocol, run.remaining) from chunk.error
        if chunk.error is not None:
            # Every run that reaches the error raises it from where the
            # schedule raised it, not from the runs before.
            raise chunk.error.with_traceback(chunk.traceback)


class WindowEngine:
    """Simulate a :class:`WindowedProtocol` one contention window at a time."""

    name = "window"

    #: Version of this engine's random stream (see
    #: ``FairEngine.stream_version``).  Version 4 throws every non-saturated
    #: window's balls with ``generator.integers(0, w, dtype=np.uint32)``
    #: (Lemire's exact bounded draw on 32-bit halves); version 3 threw them
    #: from ``generator.random`` (bin ``⌊u·w⌋``); version 2 sampled narrow
    #: windows multinomially; version 1 threw every ball of every window with
    #: bounded integers.
    stream_version: ClassVar[int] = 4

    def __init__(self, channel: ChannelModel | None = None) -> None:
        if channel is not None and channel != ChannelModel():
            raise ValueError(
                "WindowEngine implements only the paper's channel (no collision detection, "
                f"implicit acknowledgements), got {channel!r}; use SlotEngine for other channels"
            )
        self.channel = ChannelModel()

    def simulate(
        self,
        protocol: WindowedProtocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
    ) -> SimulationResult:
        """Run one batched (static) k-selection instance.

        A traced run takes the same draws as an untraced one: a saturated
        window is recorded slot by slot as collisions with ``transmitters=2``,
        the stand-in :class:`~repro.engine.fair_engine.FairEngine` uses too.
        """
        check_positive_int("k", k)
        if not isinstance(protocol, WindowedProtocol):
            raise TypeError(
                f"WindowEngine requires a WindowedProtocol, got {type(protocol).__name__}"
            )
        cap = check_max_slots(max_slots if max_slots is not None else DEFAULT_MAX_SLOTS_FACTOR * k)

        library = native.KERNEL.get() if trace is None else None
        if library is not None:
            _M_COMPILED.inc()
            run = _compiled_run(
                library.window_simulate, protocol, _schedule_of(protocol), seed, k, cap
            )
        else:
            _M_PYTHON.inc()
            schedule = protocol.spawn().window_lengths()
            rng = RandomSource(seed=seed).generator
            run = _python_run(protocol, schedule, rng, k, cap, trace)

        if run.saturated:
            _M_SATURATED.inc(run.saturated)
        if run.thrown:
            _M_THROWN.inc(run.thrown)
        solved = run.remaining == 0
        return SimulationResult(
            solved=solved,
            # A solving window ends at its final delivery, so the run ends
            # exactly at the makespan.
            makespan=run.start if solved else None,
            k=k,
            slots_simulated=run.start,
            successes=run.successes,
            collisions=run.collisions,
            silences=run.silences,
            protocol=protocol.name,
            engine=self.name,
            seed=seed,
            metadata={"windows": run.windows, "stream_version": self.stream_version},
        )


def _python_run(
    protocol: WindowedProtocol,
    schedule: Iterator[int],
    rng: np.random.Generator,
    k: int,
    cap: int,
    trace: ExecutionTrace | None,
) -> _WindowRun:
    """The reference window loop: one window at a time, optionally traced."""
    remaining = k
    window_start = 0
    windows_processed = saturated = thrown = 0
    successes = collisions = silences = 0

    while remaining > 0 and window_start < cap:
        try:
            length = _window_length(next(schedule))
        except StopIteration as error:
            raise _exhausted(protocol, remaining) from error
        windows_processed += 1
        # A window cut by the cap simulates only its slots before it.
        limit = min(length, cap - window_start)

        if _saturated(length, remaining):
            saturated += 1
            collisions += limit
            if trace is not None:
                for offset in range(limit):
                    trace.append(
                        SlotRecord(
                            slot=window_start + offset,
                            transmitters=2,
                            outcome=SlotOutcome.COLLISION,
                            active_before=remaining,
                        )
                    )
            window_start += limit
            continue

        # Balls-in-bins: each of the `remaining` stations picks one slot
        # of the window; slots hit exactly once deliver their message.
        thrown += 1
        occupancy, (silent, delivered, last, silent_before) = _throw_reference(
            rng, length, remaining, limit
        )

        # The node-level engine stops at the slot of the final delivery;
        # when this window solves the instance, it ends there so counters
        # and traces agree with it.
        simulated_length = limit
        if delivered == remaining:
            simulated_length = last + 1
            silent = silent_before

        successes += delivered
        collisions += simulated_length - silent - delivered
        silences += silent

        if trace is not None:
            # Stations committed to their slots at the window start, but a
            # station that delivers becomes idle for the rest of the
            # window, so the active count decreases at every singleton.
            active = remaining
            for offset, count in enumerate(occupancy[:simulated_length].tolist()):
                outcome = (
                    SlotOutcome.SILENCE
                    if count == 0
                    else SlotOutcome.SUCCESS
                    if count == 1
                    else SlotOutcome.COLLISION
                )
                trace.append(
                    SlotRecord(
                        slot=window_start + offset,
                        transmitters=count,
                        outcome=outcome,
                        active_before=active,
                    )
                )
                if count == 1:
                    active -= 1

        remaining -= delivered
        window_start += simulated_length

    return _WindowRun(
        remaining=remaining,
        start=window_start,
        cap=cap,
        windows=windows_processed,
        successes=successes,
        collisions=collisions,
        silences=silences,
        saturated=saturated,
        thrown=thrown,
    )
