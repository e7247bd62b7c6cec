"""The batched fair engine: every fair cell of a sweep in one fused kernel.

A Figure-1 sweep is a grid of (protocol, k) cells with R replications each.
:class:`MegaFairEngine` (``"mega"``) runs **all fair cells of one protocol
class in one padded numpy lockstep kernel**; a lone cell is simply a group
of one:

* rows of the batch are cell × replication;
* protocol parameters, the network size ``k`` and the ``max_slots`` cap are
  *per-row* arrays (see
  :meth:`~repro.protocols.base.FairProtocol.make_fused_batch_state`), so one
  masked kernel pass per slot serves rows with different parameterisations;
* rows retire individually — a solved k=10 replication stops consuming work
  while its k=10⁶ siblings keep stepping — so the kernel's wall clock tracks
  the *global* maximum makespan of the group instead of the sum of per-cell
  maxima.

Randomness: every row is a FairEngine run
------------------------------------------
Row *r* draws from its own seed's stream, ``RandomSource(seed_r).generator``,
in blocks of :data:`~repro.engine.fair_engine._DRAW_BLOCK` uniforms pulled at
absolute slot multiples of the block size — exactly the stream format of
:class:`~repro.engine.fair_engine.FairEngine`.  The outcome classification
is FairEngine's too, so each fused row equals
``FairEngine().simulate(protocol, k, seed_r, max_slots)`` run for run, and
its result says so: ``engine="fair"`` and FairEngine's stream version.  The
one caveat is floating point: the kernel computes the outcome thresholds
with numpy, FairEngine with libm, and the two may round the last bit
differently; an outcome can differ only when a uniform lands between the
two roundings (about 10⁻¹⁶ per slot).  ``tests/engine/test_megabatch.py``
pins the equality on a fixed case matrix.

Batching is therefore an invisible speed-up: a row's result does not depend
on its group, its cell's replication count or whether it was fused at all.

Fusion is planned by the scenario layer (:class:`~repro.scenarios.session.Session`
groups batched cells by :meth:`MegaFairEngine.fuse_key`) and executed through
:func:`repro.engine.dispatch.simulate_megabatch`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from repro.channel.model import ChannelModel
from repro.channel.trace import ExecutionTrace
from repro.engine.fair_engine import _DRAW_BLOCK, FairEngine
from repro.engine.registry import EngineCapabilities, check_engine_channel, register_engine
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.protocols.base import FairProtocol, Protocol
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int

__all__ = ["FusedCell", "MegaFairEngine"]

# Megabatch profiling hooks (engine.megabatch.* family): rows and cells fused
# per kernel launch, and kernel loop iterations.  Incremented once per
# simulate_fused call, never per slot.
_M_ROWS = REGISTRY.counter(
    "repro_megabatch_rows_total",
    "Rows (cell × replication) entering fused mega-batch kernels, by engine.",
    ("engine",),
)
_M_KERNEL = REGISTRY.counter(
    "repro_megabatch_kernel_iterations_total",
    "Fused kernel loop iterations (slots), by engine.",
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
    kernel), ``seeds`` the per-replication seeds (each keys its own row's
    stream, as it would key a per-run simulation), ``max_slots`` the cell's
    own safety cap (``None`` means the engine's ``max_slots_factor × k``),
    and ``tag`` an opaque caller token carried through to the executor layer.
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

    @classmethod
    def empty(cls, reps: int) -> "_Accumulator":
        return cls(
            np.zeros(reps, dtype=bool),
            *(np.zeros(reps, dtype=np.int64) for _ in range(len(fields(cls)) - 1)),
        )


class _RowDraws:
    """Every row's uniforms, in FairEngine's stream format.

    At every absolute slot multiple of ``_DRAW_BLOCK`` each live row pulls
    one block from its own generator; the blocks are stacked column-wise so
    the kernel's per-slot draw is a single row view.  When rows retire their
    generators and columns are dropped, exactly as a finished per-run
    simulation stops drawing.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        self._generators = [RandomSource(seed=int(seed)).generator for seed in seeds]
        self._block = np.empty((_DRAW_BLOCK, 0))

    def draws(self, slot: int) -> np.ndarray:
        offset = slot % _DRAW_BLOCK
        if offset == 0:
            self._block = np.stack(
                [generator.random(_DRAW_BLOCK) for generator in self._generators], axis=1
            )
        return self._block[offset]

    def compact(self, keep: np.ndarray) -> None:
        self._generators = [
            generator for generator, kept in zip(self._generators, keep.tolist()) if kept
        ]
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
class MegaFairEngine:
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

    #: The per-run engine whose runs the fused rows replay: results carry its
    #: name and stream version, so stored runs are interchangeable with it.
    replays: ClassVar[type] = FairEngine

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
                "MegaFairEngine does not collect traces (outcomes are classified in bulk, "
                "not slot records); use FairEngine for traced runs"
            )
        cell = FusedCell(protocol=protocol, k=k, seeds=(int(seed),), max_slots=max_slots)
        return self.simulate_fused([cell])[0][0]

    def simulate_fused(self, cells: Sequence[FusedCell]) -> list[list[SimulationResult]]:
        """Simulate every cell of the group in one fused kernel pass.

        Returns one result list per cell (ordered like ``cells``, one
        :class:`SimulationResult` per seed); each equals the FairEngine run
        of its seed.
        """
        if not cells:
            raise ValueError("MegaFairEngine.simulate_fused needs at least one cell")
        keys = set()
        for cell in cells:
            if not isinstance(cell.protocol, FairProtocol):
                raise TypeError(
                    f"MegaFairEngine requires FairProtocol cells, got "
                    f"{type(cell.protocol).__name__}"
                )
            if not self.supports(cell.protocol):
                raise ValueError(
                    f"{type(cell.protocol).__name__} has no fused kernel for MegaFairEngine "
                    "(see its supports() hook)"
                )
            keys.add(self.fuse_key(cell.protocol))
        if len(keys) != 1:
            raise ValueError(
                f"MegaFairEngine can fuse only cells of one protocol class, "
                f"got {len(keys)} distinct fuse keys"
            )

        counts = [len(cell.seeds) for cell in cells]
        caps = [
            cell.max_slots if cell.max_slots is not None else self.max_slots_factor * cell.k
            for cell in cells
        ]
        prototypes = [cell.protocol.spawn() for cell in cells]
        state = type(prototypes[0]).make_fused_batch_state(prototypes, counts)
        seeds = [seed for cell in cells for seed in cell.seeds]
        ks = np.repeat([cell.k for cell in cells], counts)
        live = _FusedLiveBatch(ks, np.repeat(caps, counts), state)
        out = _Accumulator.empty(len(seeds))
        iterations = self._run_lockstep(live, out, _RowDraws(seeds))
        _M_ROWS.labels(engine=self.name).inc(len(seeds))
        _M_KERNEL.labels(engine=self.name).inc(iterations)
        _M_CELLS.labels(engine=self.name).inc(len(cells))

        replayed = self.replays
        results: list[list[SimulationResult]] = []
        row = 0
        for cell in cells:
            cell_results = []
            for seed in cell.seeds:
                solved = bool(out.solved[row])
                cell_results.append(
                    SimulationResult(
                        solved=solved,
                        makespan=int(out.makespan[row]) if solved else None,
                        k=cell.k,
                        slots_simulated=int(out.slots[row]),
                        successes=int(out.successes[row]),
                        collisions=int(out.collisions[row]),
                        silences=int(out.silences[row]),
                        protocol=cell.protocol.name,
                        engine=replayed.name,
                        seed=seed,
                        metadata={"stream_version": replayed.stream_version},
                    )
                )
                row += 1
            results.append(cell_results)
        return results

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
    def _run_lockstep(
        self,
        live: _FusedLiveBatch,
        out: _Accumulator,
        draws: _RowDraws,
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
