"""The batched engines: every same-kind cell of a sweep in one fused kernel.

A Figure-1 sweep is a grid of (protocol, k) cells with R replications each.
The two engines here run **all same-kind cells of a grid in one padded numpy
lockstep kernel** — :class:`MegaFairEngine` (``"mega"``) for fair protocols,
:class:`MegaWindowEngine` (``"mega-window"``) for windowed ones; a lone cell
is simply a group of one:

* rows of the batch are cell × replication, with a row → cell index map;
* protocol parameters, the network size ``k`` and the ``max_slots`` cap are
  *per-row* arrays (see
  :meth:`~repro.protocols.base.FairProtocol.make_fused_batch_state`), so one
  masked kernel pass per slot serves rows with different parameterisations;
* rows retire individually — a solved k=10 replication stops consuming work
  while its k=10⁶ siblings keep stepping — so the kernel's wall clock tracks
  the *global* maximum makespan of the group instead of the sum of per-cell
  maxima.

Randomness and resumability
---------------------------
Each cell consumes its **own** random stream, ``SeedSequence(cell.seeds)``.
The fair kernel pre-draws each cell's uniforms in fixed-size chunks at
absolute slot boundaries (:data:`_CHUNK`), and a cell's draw count per chunk
depends only on its *own* live-row trajectory; the windowed kernel makes
every random decision (saturation shortcut, occupancy sampling) per cell
with the cell's own generator.  Either way a cell's results are
**bit-identical no matter which group it is fused into** — alone, with any
siblings, or re-fused by a resumed sweep that only re-runs the missing
cells.  They are *not* bit-identical to the per-run engines (a cell's
replications share one interleaved stream); ``tests/engine/test_megabatch.py``
pins their distributional parity with
:class:`~repro.engine.fair_engine.FairEngine` and
:class:`~repro.engine.window_engine.WindowEngine`.

Fusion is planned by the scenario layer (:class:`~repro.scenarios.session.Session`
groups batched cells by the engines' ``fuse_key`` hook) and executed through
:func:`repro.engine.dispatch.simulate_megabatch`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from repro.channel.model import ChannelModel
from repro.channel.trace import ExecutionTrace
from repro.engine.registry import EngineCapabilities, check_engine_channel, register_engine
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.protocols.base import FairProtocol, Protocol, WindowedProtocol
from repro.util.validation import check_positive_int

__all__ = ["FusedCell", "MegaFairEngine", "MegaWindowEngine"]

# Megabatch profiling hooks (engine.megabatch.* family): rows fused per
# kernel launch, rows retired, and kernel loop iterations.  Incremented once
# per simulate_fused call, never per slot.
_M_ROWS = REGISTRY.counter(
    "repro_megabatch_rows_total",
    "Rows (cell × replication) entering fused mega-batch kernels, by engine.",
    ("engine",),
)
_M_RETIRED = REGISTRY.counter(
    "repro_megabatch_rows_retired_total",
    "Rows retired from fused mega-batch kernels, by engine.",
    ("engine",),
)
_M_KERNEL = REGISTRY.counter(
    "repro_megabatch_kernel_iterations_total",
    "Fused kernel loop iterations (slots or windows), by engine.",
    ("engine",),
)
_M_CELLS = REGISTRY.counter(
    "repro_megabatch_cells_total",
    "Cells fused into mega-batch kernel launches, by engine.",
    ("engine",),
)


@dataclass(frozen=True)
class FusedCell:
    """One (protocol, k) cell of a fused group.

    ``protocol`` is the configured prototype instance (spawned fresh by the
    kernel), ``seeds`` the per-replication seeds keying the cell's private
    random stream, ``max_slots`` the cell's own safety cap (``None`` means
    the engine's ``max_slots_factor × k``), and ``tag`` an opaque caller
    token carried through to the executor layer.
    """

    protocol: Protocol
    k: int
    seeds: tuple[int, ...]
    max_slots: int | None = None
    tag: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_positive_int("k", self.k)
        if not self.seeds:
            raise ValueError("a fused cell needs at least one seed")
        if self.max_slots is not None:
            check_positive_int("max_slots", self.max_slots)


@dataclass
class _Accumulator:
    """Final per-replication statistics, indexed by the original row."""

    solved: np.ndarray
    makespan: np.ndarray
    slots: np.ndarray
    successes: np.ndarray
    collisions: np.ndarray
    silences: np.ndarray
    windows: np.ndarray

    @classmethod
    def empty(cls, reps: int) -> "_Accumulator":
        return cls(
            np.zeros(reps, dtype=bool),
            *(np.zeros(reps, dtype=np.int64) for _ in range(len(fields(cls)) - 1)),
        )

    def split(self, counts: Sequence[int]) -> list["_Accumulator"]:
        """Per-cell views of a group accumulator whose rows are cell-major."""
        bounds = np.cumsum(counts)[:-1]
        columns = [np.split(getattr(self, column.name), bounds) for column in fields(self)]
        return [type(self)(*parts) for parts in zip(*columns)]


class _BatchedEngine:
    """The front shared by both batched engines: construction, the one-run
    API and the fused-group checks.  Subclasses supply the eligibility hooks
    (``supports``, ``fuse_key``) and the kernel, ``_run(cells, counts, caps,
    generators)``, which returns one accumulator per cell and the number of
    kernel iterations."""

    name: ClassVar[str]
    capabilities: ClassVar[EngineCapabilities]
    #: Protocol base class the kernel serves.
    _protocol_class: ClassVar[type]
    #: What cells of one group must share (named in the mixed-group error).
    _fuse_unit: ClassVar[str]
    #: The per-run engine that collects traces instead.
    _traced_engine: ClassVar[str]
    #: Whether results report the number of contention windows.
    _reports_windows: ClassVar[bool] = False

    def __init__(self, channel: ChannelModel | None = None, max_slots_factor: int = 10_000) -> None:
        self.channel = check_engine_channel(type(self), channel)
        self.max_slots_factor = check_positive_int("max_slots_factor", max_slots_factor)

    def simulate(
        self,
        protocol: Protocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
    ) -> SimulationResult:
        """Run one instance as a fused group of one cell of one replication."""
        if trace is not None:
            raise ValueError(
                f"{type(self).__name__} does not collect traces (outcomes are classified "
                f"in bulk, not slot records); use {self._traced_engine} for traced runs"
            )
        cell = FusedCell(protocol=protocol, k=k, seeds=(int(seed),), max_slots=max_slots)
        return self.simulate_fused([cell])[0][0]

    def simulate_fused(self, cells: Sequence[FusedCell]) -> list[list[SimulationResult]]:
        """Simulate every cell of the group in one fused kernel pass.

        Returns one result list per cell (ordered like ``cells``, one
        :class:`SimulationResult` per seed).  Each cell's results are
        bit-identical regardless of the group's composition.
        """
        engine_name = type(self).__name__
        if not cells:
            raise ValueError(f"{engine_name}.simulate_fused needs at least one cell")
        keys = set()
        for cell in cells:
            if not isinstance(cell.protocol, self._protocol_class):
                raise TypeError(
                    f"{engine_name} requires {self._protocol_class.__name__} cells, got "
                    f"{type(cell.protocol).__name__}"
                )
            if not self.supports(cell.protocol):
                raise ValueError(
                    f"{type(cell.protocol).__name__} has no fused kernel for {engine_name} "
                    "(see its supports() hook)"
                )
            keys.add(self.fuse_key(cell.protocol))
        if len(keys) != 1:
            raise ValueError(
                f"{engine_name} can fuse only cells of one {self._fuse_unit}, "
                f"got {len(keys)} distinct fuse keys"
            )

        counts = [len(cell.seeds) for cell in cells]
        caps = [
            cell.max_slots if cell.max_slots is not None else self.max_slots_factor * cell.k
            for cell in cells
        ]
        generators = [
            np.random.default_rng(np.random.SeedSequence(list(cell.seeds))) for cell in cells
        ]
        outs, iterations = self._run(cells, counts, caps, generators)
        rows = sum(counts)
        _M_ROWS.labels(engine=self.name).inc(rows)
        _M_RETIRED.labels(engine=self.name).inc(rows)
        _M_KERNEL.labels(engine=self.name).inc(iterations)
        _M_CELLS.labels(engine=self.name).inc(len(cells))

        results: list[list[SimulationResult]] = []
        for cell, reps, out in zip(cells, counts, outs):
            cell_results = []
            for index in range(reps):
                solved = bool(out.solved[index])
                metadata: dict[str, object] = {"batch_reps": reps}
                if self._reports_windows:
                    metadata["windows"] = int(out.windows[index])
                cell_results.append(
                    SimulationResult(
                        solved=solved,
                        makespan=int(out.makespan[index]) if solved else None,
                        k=cell.k,
                        slots_simulated=int(out.slots[index]),
                        successes=int(out.successes[index]),
                        collisions=int(out.collisions[index]),
                        silences=int(out.silences[index]),
                        protocol=cell.protocol.name,
                        engine=self.name,
                        seed=cell.seeds[index],
                        metadata=metadata,
                    )
                )
            results.append(cell_results)
        return results


# ---------------------------------------------------------------------------
# Fair protocols: one masked pass per slot
# ---------------------------------------------------------------------------

#: Slots of uniforms pre-drawn per cell per refill of the fair kernel.  The
#: refill boundaries are *absolute* slot multiples of this constant, and each
#: cell draws its own ``(chunk, live-rows)`` block from its own generator, so
#: a cell's stream consumption is independent of its group's composition.
#: The value must stay constant for that guarantee to hold across runs.
_CHUNK = 1024


class _ChunkedCellDraws:
    """Per-cell uniform streams, pre-drawn in composition-independent chunks.

    At every absolute slot multiple of :data:`_CHUNK` each cell with live
    rows draws one ``(chunk, live)`` block from its own generator; the blocks
    are assembled column-wise into one group-level matrix so the kernel's
    per-slot draw is a single row view.  When rows retire, their columns are
    dropped and their unused pre-drawn values discarded — exactly what would
    have happened had the cell run alone.
    """

    def __init__(self, generators: Sequence[np.random.Generator], row_cell: np.ndarray) -> None:
        self._generators = generators
        self._cells = row_cell.copy()
        self._block: np.ndarray | None = None

    def draws(self, slot: int) -> np.ndarray:
        offset = slot % _CHUNK
        if offset == 0 or self._block is None:
            self._refill()
        assert self._block is not None
        return self._block[offset]

    def _refill(self) -> None:
        block = np.empty((_CHUNK, self._cells.size))
        for cell in np.unique(self._cells):
            columns = self._cells == cell
            block[:, columns] = self._generators[cell].random(
                (_CHUNK, int(np.count_nonzero(columns)))
            )
        self._block = block

    def compact(self, keep: np.ndarray) -> None:
        self._cells = self._cells[keep]
        if self._block is not None:
            self._block = self._block[:, keep]


class _FusedLiveBatch:
    """The still-running rows of a fused fair group: counters + protocol state.

    The network size and the slot cap are carried per row (rows come from
    cells with different k).  The kernel is dispatch-overhead bound, so the
    per-slot bookkeeping is collapsed to a single counter: ``under`` counts
    the slots whose uniform draw fell below the silence threshold (successes
    + silences); every other statistic is derived at retirement — successes
    from ``k − remaining``, silences from ``under − successes``, collisions
    from ``slots_lived − under``.
    """

    def __init__(self, ks: np.ndarray, caps: np.ndarray, state: object) -> None:
        rows = ks.size
        self.orig = np.arange(rows)
        self.k = ks.astype(np.int64).copy()
        self.remaining = self.k.copy()
        self.cap = caps.astype(np.int64).copy()
        self.under = np.zeros(rows, dtype=np.int64)
        self.state = state

    @property
    def size(self) -> int:
        return int(self.orig.size)

    def retire(
        self, mask: np.ndarray, out: _Accumulator, solved: bool, slot: int
    ) -> np.ndarray:
        """Write final stats for the masked rows (all of which lived exactly
        ``slot`` slots), drop them, and return the keep mask."""
        idx = self.orig[mask]
        successes = self.k[mask] - self.remaining[mask]
        under = self.under[mask]
        out.solved[idx] = solved
        out.makespan[idx] = slot if solved else 0
        out.slots[idx] = slot
        out.successes[idx] = successes
        out.silences[idx] = under - successes
        out.collisions[idx] = slot - under
        keep = ~mask
        self.orig = self.orig[keep]
        self.k = self.k[keep]
        self.remaining = self.remaining[keep]
        self.cap = self.cap[keep]
        self.under = self.under[keep]
        self.state.compact(keep)
        return keep


@register_engine
class MegaFairEngine(_BatchedEngine):
    """Fuse every fair (protocol, k) cell of a sweep into one lockstep kernel."""

    name = "mega"

    #: The batched engine for fair protocols on the paper's channel: no
    #: traces (outcomes are classified in bulk), no arrivals (slot-0 starts
    #: assumed).  Eligibility of a *specific* protocol is :meth:`supports`.
    capabilities = EngineCapabilities(
        protocol_kinds=frozenset({"fair"}),
        batched=True,
        cost_rank=40,
    )
    _protocol_class = FairProtocol
    _fuse_unit = "protocol class"
    _traced_engine = "FairEngine"

    # ------------------------------------------------------------ eligibility
    @classmethod
    def supports(cls, protocol: Protocol) -> bool:
        """Whether ``protocol``'s cells can run in this engine: the fair kind,
        the fair-engine state contract and a *per-row* kernel
        (:meth:`FairProtocol.make_fused_batch_state` not returning ``None``)."""
        if getattr(protocol, "protocol_kind", "generic") not in cls.capabilities.protocol_kinds:
            return False
        if protocol.state_depends_on_own_transmission:
            return False
        return type(protocol).make_fused_batch_state([protocol.spawn()], [1]) is not None

    @classmethod
    def fuse_key(cls, protocol: Protocol) -> object:
        """Cells sharing this key may enter one fused kernel.

        Fair cells fuse per protocol *class*: the per-row parameter arrays of
        the fused state absorb any difference in constructor parameters, so
        e.g. both Log-fails Adaptive ``ξt`` variants of the paper's suite
        stack into one kernel.
        """
        return type(protocol)

    # -------------------------------------------------------------- internals
    def _run(
        self,
        cells: Sequence[FusedCell],
        counts: Sequence[int],
        caps: Sequence[int],
        generators: Sequence[np.random.Generator],
    ) -> tuple[list[_Accumulator], int]:
        prototypes = [cell.protocol.spawn() for cell in cells]
        state = type(prototypes[0]).make_fused_batch_state(prototypes, counts)
        row_cell = np.repeat(np.arange(len(cells)), counts)
        ks = np.repeat([cell.k for cell in cells], counts)
        live = _FusedLiveBatch(ks, np.repeat(caps, counts), state)
        out = _Accumulator.empty(int(row_cell.size))
        iterations = self._run_lockstep(live, out, generators, row_cell)
        return out.split(counts), iterations

    def _run_lockstep(
        self,
        live: _FusedLiveBatch,
        out: _Accumulator,
        generators: Sequence[np.random.Generator],
        row_cell: np.ndarray,
    ) -> int:
        """One masked kernel pass per slot with per-row retirement.

        Each slot classifies every live row from one uniform draw —
        ``draw < P(success)`` is a success, ``< P(success) + P(silence)`` a
        silence, anything else a collision — and feeds the receptions back
        to the shared state.  The loop is organised around the fact that on
        a few dozen rows every numpy dispatch costs as much as the
        arithmetic:

        * caps are *events*, not per-slot checks — the distinct cap values
          are visited in ascending order and the capped-row pass runs only
          at those slots;
        * the outcome thresholds are cached per state identity
          (:meth:`~repro.protocols.base.FairBatchState.probabilities_cached`)
          and invalidated when the remaining counts change — a protocol
          alternating a few probability flavors (AT/BT schedules) recomputes
          each flavor's thresholds once per reception, not once per slot;
        * successes are sparse, so all success-dependent updates hide behind
          one ``success.any()``.

        Returns the number of slots stepped (the group's makespan).
        """
        draws = _ChunkedCellDraws(generators, row_cell)
        state = live.state
        probabilities_cached = state.probabilities_cached
        observe_receptions = state.observe_receptions
        next_draws = draws.draws
        cap_values = np.unique(live.cap)
        cap_index = 0
        next_cap = int(cap_values[0])
        remaining = live.remaining
        under = live.under
        remaining_f = remaining.astype(float)
        exponent = remaining_f - 1.0
        # Classification thresholds stacked as one (2, rows) array — row 0 is
        # P(success), row 1 is P(success) + P(silence) — so the per-slot
        # classification is a single broadcast comparison.  One entry is kept
        # per probability flavor (see probabilities_cached); `changes` logs
        # the rows whose inputs (probability, remaining count) moved since,
        # and each entry records its position in that log so a cache hit
        # patches only the logged rows, scalar-wise, instead of rebuilding.
        # Row indices shift when rows retire, so retirement drops everything.
        entries: dict[object, list] = {}
        entries_get = entries.get
        changes: list[int] = []
        scratch: np.ndarray | None = None
        # Reusable per-slot buffers: the (2, rows) outcome of the broadcast
        # comparison and the rebuild temporaries q / q**exponent.  Allocated
        # lazily and dropped whenever the row count changes.
        outcome = np.empty((2, remaining.size), dtype=bool)
        success = outcome[0]
        below = outcome[1]
        q_buf: np.ndarray | None = None
        q_pow_buf: np.ndarray | None = None
        slot = 0
        while live.orig.size:
            if slot == next_cap:
                capped = live.cap <= slot
                if capped.any():
                    keep = live.retire(capped, out, solved=False, slot=slot)
                    draws.compact(keep)
                    if not live.orig.size:
                        break
                    remaining = live.remaining
                    under = live.under
                    remaining_f = remaining_f[keep]
                    exponent = exponent[keep]
                    entries.clear()
                    changes.clear()
                    scratch = None
                    outcome = np.empty((2, remaining.size), dtype=bool)
                    success = outcome[0]
                    below = outcome[1]
                    q_buf = None
                    q_pow_buf = None
                cap_index += 1
                next_cap = int(cap_values[cap_index]) if cap_index < cap_values.size else -1
            p, key = probabilities_cached(slot)
            if key is None:
                if scratch is None:
                    scratch = np.empty((2, p.size))
                thresholds = scratch
                rebuild = True
            else:
                entry = entries_get(key)
                if entry is None:
                    thresholds = np.empty((2, p.size))
                    entries[key] = [len(changes), thresholds]
                    rebuild = True
                else:
                    thresholds = entry[1]
                    pointer = entry[0]
                    logged = len(changes)
                    rebuild = False
                    if pointer != logged:
                        stale = set(changes[pointer:])
                        # A scalar np.power costs more than the whole-array
                        # power, so patching pays off only for 1-2 rows.
                        if len(stale) > 2:
                            rebuild = True
                        else:
                            for i in stale:
                                p_i = p[i]
                                q_i = 1.0 - p_i
                                # np.power (not **): the scalar ufunc call is
                                # bit-identical to the array rebuild below,
                                # scalarmath __pow__ is not.
                                q_pow_i = np.power(q_i, exponent[i])
                                t0 = remaining_f[i] * p_i * q_pow_i
                                thresholds[0, i] = t0
                                thresholds[1, i] = q_pow_i * q_i + t0
                        entry[0] = logged
            if rebuild:
                if q_buf is None:
                    q_buf = np.empty(p.size)
                    q_pow_buf = np.empty(p.size)
                q = np.subtract(1.0, p, out=q_buf)
                q_pow = np.power(q, exponent, out=q_pow_buf)
                probability_success = np.multiply(remaining_f, p, out=thresholds[0])
                probability_success *= q_pow
                silence_limit = np.multiply(q_pow, q, out=thresholds[1])
                silence_limit += probability_success
            np.less(next_draws(slot), thresholds, out=outcome)
            under += below
            rows = success.nonzero()[0]
            any_success = rows.size > 0
            state_rows = observe_receptions(slot, success, any_success, rows)
            if state_rows is None:
                entries.clear()
                changes.clear()
            elif state_rows.size:
                changes.extend(state_rows.tolist())
            slot += 1
            if any_success:
                changes.extend(rows.tolist())
                finished_any = False
                if rows.size <= 8:
                    # Successes are sparse (usually one row per slot);
                    # per-row scalar updates beat four whole-array passes.
                    for index in rows:
                        i = int(index)
                        remaining[i] -= 1
                        remaining_f[i] -= 1.0
                        exponent[i] -= 1.0
                        if remaining[i] == 0:
                            finished_any = True
                else:
                    remaining -= success
                    remaining_f -= success
                    exponent -= success
                    finished_any = bool((remaining == 0).any())
                if finished_any:
                    finished = remaining == 0
                    keep = live.retire(finished, out, solved=True, slot=slot)
                    draws.compact(keep)
                    remaining = live.remaining
                    under = live.under
                    remaining_f = remaining_f[keep]
                    exponent = exponent[keep]
                    entries.clear()
                    changes.clear()
                    scratch = None
                    outcome = np.empty((2, remaining.size), dtype=bool)
                    success = outcome[0]
                    below = outcome[1]
                    q_buf = None
                    q_pow_buf = None
        return slot


# ---------------------------------------------------------------------------
# Windowed protocols: one occupancy sample per (cell, window)
# ---------------------------------------------------------------------------
#
# Every cell of a group traverses one shared, feedback-oblivious window
# schedule; each window is a balls-in-bins experiment per live replication.
# The occupancy sampling is adaptive, keyed on the saturation ratio ``m/w``
# (balls per bin):
#
# * saturated windows (see _SATURATED_BOUND) emit the all-collisions outcome
#   with no random draws at all — the long descending tails of every back-off
#   sawtooth;
# * narrow windows (``w·_MULTINOMIAL_RATIO < mean m``) sample each row's bin
#   counts from the multinomial distribution (O(w) binomial draws per row);
# * wide windows (``w ~ m``, where the deliveries happen) throw every ball
#   explicitly — one bounded draw per ball in the narrowest sufficient dtype,
#   one ``bincount`` for the whole occupancy matrix — in row chunks of at
#   most _MAX_WINDOW_CELLS cells.

#: Which sampler produced each window's occupancy: ``saturated`` windows are
#: emitted without any draws, ``multinomial`` rows are sampled bin-wise, and
#: ``ball-throw`` windows materialise every ball.  One increment per (cell,
#: window), or per row chunk, never per slot.
_M_OCCUPANCY = REGISTRY.counter(
    "repro_batch_window_occupancy_total",
    "Occupancy-sampling decisions in the windowed batch engine, by mode.",
    ("mode",),
)
_M_SATURATED = _M_OCCUPANCY.labels(mode="saturated")

#: Threshold under which a window is all-collisions "for sure": a window is
#: *saturated* when the exact union bound ``P(any bin holds <= 1 ball) <=
#: w [(1-1/w)^m + (m/w)(1-1/w)^{m-1}]`` evaluates below this — one power of
#: two under ``2^{-53}``, so even with the bound's own float rounding the
#: event probability is beneath the resolution of the double-precision
#: uniforms every sampler consumes, and emitting the certain all-collisions
#: outcome is indistinguishable from sampling it.
_SATURATED_BOUND = 2.0**-54

#: Saturation ratio above which sampling the occupancy row directly from the
#: multinomial distribution (O(w) binomial draws per replication) is cheaper
#: than throwing the ``m`` balls explicitly (O(m) uniform draws).  Below the
#: ratio the binomial sampler degrades to O(m/w) per bin anyway, so balls win.
_MULTINOMIAL_RATIO = 22

#: Cap on per-chunk work: both the occupancy matrix (replication rows ×
#: window slots) and the ball-throw scratch arrays (rows × remaining
#: messages) are kept at or under this many entries, so memory stays bounded
#: (~64 MB of int64 per chunk) at the paper's Figure-1 right edge (k = 10⁷)
#: instead of scaling with R × w or R × k.  Chunk boundaries are a
#: deterministic function of the live rows, so same-seed runs stay
#: bit-identical.
_MAX_WINDOW_CELLS = 1 << 23


class _LiveWindowBatch:
    """The still-running replications of one cell: per-replication counters.

    There is no per-replication protocol state to carry — the window
    schedule is shared by contract — so compaction only touches the counters.
    """

    def __init__(self, k: int, reps: int) -> None:
        self.orig = np.arange(reps)
        self.remaining = np.full(reps, k, dtype=np.int64)
        self.successes = np.zeros(reps, dtype=np.int64)
        self.collisions = np.zeros(reps, dtype=np.int64)
        self.silences = np.zeros(reps, dtype=np.int64)
        self.windows = np.zeros(reps, dtype=np.int64)

    @property
    def size(self) -> int:
        return int(self.orig.size)

    def retire(
        self,
        mask: np.ndarray,
        out: _Accumulator,
        solved: bool,
        slots: np.ndarray,
    ) -> None:
        """Write final stats for the masked replications and drop them.

        ``slots`` is the per-live-replication total slot count at retirement
        (the truncated end of the finishing window for solved runs, the cap
        boundary for unsolved ones).
        """
        idx = self.orig[mask]
        out.solved[idx] = solved
        out.makespan[idx] = slots[mask] if solved else 0
        out.slots[idx] = slots[mask]
        out.successes[idx] = self.successes[mask]
        out.collisions[idx] = self.collisions[mask]
        out.silences[idx] = self.silences[mask]
        out.windows[idx] = self.windows[mask]
        keep = ~mask
        self.orig = self.orig[keep]
        self.remaining = self.remaining[keep]
        self.successes = self.successes[keep]
        self.collisions = self.collisions[keep]
        self.silences = self.silences[keep]
        self.windows = self.windows[keep]


def _saturated(length: int, m_min: int) -> bool:
    """Whether every bin surely holds >= 2 balls (see :data:`_SATURATED_BOUND`).

    Evaluates the exact union bound over the ``length`` bins at the
    *smallest* live replication's ball count (the bound is decreasing in
    ``m``, so it covers every row).  ``length == 1`` with ``m >= 2`` is the
    degenerate certain collision.
    """
    if m_min < 2 * length:  # deliveries plainly possible; skip the math
        return False
    if length == 1:
        return m_min >= 2
    log_keep_out = math.log1p(-1.0 / length)  # log P(one ball misses a bin)
    p_empty = math.exp(m_min * log_keep_out)
    p_singleton = (m_min / length) * math.exp((m_min - 1) * log_keep_out)
    return length * (p_empty + p_singleton) < _SATURATED_BOUND


def _occupancy(rng: np.random.Generator, remaining: np.ndarray, length: int) -> np.ndarray:
    """Sample the (rows × length) multinomial occupancy matrix.

    Narrow windows (many balls per bin) sample each row's bin counts
    directly; wide windows throw the balls explicitly, offset per row so one
    ``bincount`` builds the whole matrix.
    """
    live = remaining.size
    if length * _MULTINOMIAL_RATIO < int(remaining.mean()):
        _M_OCCUPANCY.labels(mode="multinomial").inc()
        return rng.multinomial(remaining, np.full(length, 1.0 / length))
    _M_OCCUPANCY.labels(mode="ball-throw").inc()
    if length <= np.iinfo(np.uint16).max:
        dtype = np.uint16
    elif length <= np.iinfo(np.uint32).max:
        dtype = np.uint32
    else:
        dtype = np.int64
    choices = rng.integers(0, length, size=int(remaining.sum()), dtype=dtype)
    if live * length <= np.iinfo(np.int32).max:
        rows = np.repeat(np.arange(live, dtype=np.int32), remaining)
        keys = rows * np.int32(length) + choices.astype(np.int32, copy=False)
    else:
        rows = np.repeat(np.arange(live, dtype=np.int64), remaining)
        keys = rows * length + choices
    return np.bincount(keys, minlength=live * length).reshape(live, length)


def _window_outcomes(
    rng: np.random.Generator,
    remaining: np.ndarray,
    length: int,
    window_start: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classify one window for every live replication, in bounded memory.

    Returns per-replication ``(delivered, collisions, silences, end_slot)``;
    ``end_slot`` is the truncated end of the window for the replications it
    finishes (their makespan) and the full window end for everyone else.
    Rows are processed in chunks bounded both in occupancy cells (rows ×
    window slots) and in thrown balls (rows × remaining messages) by
    :data:`_MAX_WINDOW_CELLS`.
    """
    live = remaining.size
    delivered = np.empty(live, dtype=np.int64)
    collisions = np.empty(live, dtype=np.int64)
    silences = np.empty(live, dtype=np.int64)
    end_slot = np.full(live, window_start + length, dtype=np.int64)
    mean_balls = max(1, int(remaining.mean()))
    chunk = max(1, min(_MAX_WINDOW_CELLS // length, _MAX_WINDOW_CELLS // mean_balls))
    for start in range(0, live, chunk):
        stop = min(start + chunk, live)
        occupancy = _occupancy(rng, remaining[start:stop], length)
        singles = occupancy == 1
        chunk_delivered = singles.sum(axis=1, dtype=np.int64)
        occupied = np.count_nonzero(occupancy, axis=1)
        chunk_collisions = occupied - chunk_delivered
        chunk_silences = length - occupied
        finishing = chunk_delivered == remaining[start:stop]
        if finishing.any():
            # Replications solved by this window stop at their final
            # delivery: truncate the trailing slots (mirroring the per-run
            # window engine) so counters agree with the node-level reference.
            singles_f = singles[finishing]
            occ_f = occupancy[finishing]
            last = length - 1 - np.argmax(singles_f[:, ::-1], axis=1)
            pick = np.arange(occ_f.shape[0])
            chunk_collisions[finishing] = np.cumsum(occ_f >= 2, axis=1)[pick, last]
            chunk_silences[finishing] = np.cumsum(occ_f == 0, axis=1)[pick, last]
            end_slot[start:stop][finishing] = window_start + last + 1
        delivered[start:stop] = chunk_delivered
        collisions[start:stop] = chunk_collisions
        silences[start:stop] = chunk_silences
    return delivered, collisions, silences, end_slot


@register_engine
class MegaWindowEngine(_BatchedEngine):
    """Fuse every same-schedule windowed cell of a sweep into one lockstep pass."""

    name = "mega-window"

    #: The batched engine for windowed protocols on the paper's channel; see
    #: :class:`MegaFairEngine` for the selection rules it shares.
    capabilities = EngineCapabilities(
        protocol_kinds=frozenset({"windowed"}),
        batched=True,
        cost_rank=40,
    )
    _protocol_class = WindowedProtocol
    _fuse_unit = "window schedule"
    _traced_engine = "WindowEngine"
    _reports_windows = True

    # ------------------------------------------------------------ eligibility
    @classmethod
    def supports(cls, protocol: Protocol) -> bool:
        """Whether ``protocol``'s cells can run in this engine: the windowed
        kind and a declared schedule identity
        (:meth:`WindowedProtocol.fused_schedule_key` not returning ``None``)."""
        if getattr(protocol, "protocol_kind", "generic") not in cls.capabilities.protocol_kinds:
            return False
        return protocol.fused_schedule_key() is not None

    @classmethod
    def fuse_key(cls, protocol: Protocol) -> object:
        """Cells sharing this key traverse identical window schedules.

        The lockstep window iteration requires every fused row to share
        window boundaries, so only cells whose protocols report equal
        :meth:`~repro.protocols.base.WindowedProtocol.fused_schedule_key`
        values group together (e.g. every k of one backoff parameterisation).
        """
        return protocol.fused_schedule_key()

    # -------------------------------------------------------------- internals
    def _run(
        self,
        cells: Sequence[FusedCell],
        counts: Sequence[int],
        caps: Sequence[int],
        generators: Sequence[np.random.Generator],
    ) -> tuple[list[_Accumulator], int]:
        """Lockstep iteration of the one shared schedule across all cells.

        Every decision that touches randomness — the saturated shortcut and
        the occupancy sampling — is made per cell with the cell's own
        generator, so a cell's draw sequence does not depend on its siblings.
        Returns the per-cell accumulators and the number of windows iterated.
        """
        schedule = cells[0].protocol.spawn().window_lengths()
        lives = [_LiveWindowBatch(cell.k, reps) for cell, reps in zip(cells, counts)]
        outs = [_Accumulator.empty(reps) for reps in counts]
        window_start = 0
        windows = 0
        saturated = 0
        while True:
            running = [index for index, live in enumerate(lives) if live.size]
            if not running:
                break
            for index in running:
                live = lives[index]
                if window_start >= caps[index]:
                    live.retire(
                        np.ones(live.size, dtype=bool),
                        outs[index],
                        solved=False,
                        slots=np.full(live.size, window_start, dtype=np.int64),
                    )
            running = [index for index in running if lives[index].size]
            if not running:
                break
            try:
                length = int(next(schedule))
            except StopIteration as error:
                unsolved = sum(lives[index].size for index in running)
                raise RuntimeError(
                    f"{type(cells[0].protocol).__name__}: window schedule exhausted "
                    f"with {unsolved} fused replications unsolved"
                ) from error
            if length < 1:
                raise ValueError(f"window length must be >= 1, got {length}")
            windows += 1

            for index in running:
                live = lives[index]
                if _saturated(length, int(live.remaining.min())):
                    # Every bin holds >= 2 balls (anything else is below
                    # double-precision resolution): all collisions, no
                    # deliveries, nobody finishes.
                    saturated += 1
                    live.collisions += length
                    live.windows += 1
                    continue
                delivered, collisions, silences, end_slot = _window_outcomes(
                    generators[index], live.remaining, length, window_start
                )
                finishing = delivered == live.remaining
                live.successes += delivered
                live.collisions += collisions
                live.silences += silences
                live.windows += 1
                live.remaining -= delivered
                if finishing.any():
                    live.retire(finishing, outs[index], solved=True, slots=end_slot)
            window_start += length
        _M_SATURATED.inc(saturated)
        return outs, windows
