"""Tests for the batched engines, ``mega`` (fair) and ``mega-window`` (windowed).

Six contracts are pinned here:

* **Distributional parity** — batched cells sample the same makespan process
  as the per-run :class:`FairEngine` / :class:`WindowEngine` (same mean and
  quantiles within sampling tolerance, same solved rate at a binding cap),
  for every batch-eligible registered protocol, down to k = 1 and 2.  A
  cell's replications share one interleaved stream, so equality can only be
  distributional.
* **Golden streams** — fixed cells reproduce pinned makespans exactly, so a
  change to either kernel's draw order cannot slip through as "still
  distributionally fine" and silently invalidate stored results.
* **Composition independence** — a cell's fused results are bit-identical no
  matter which group it is fused into (alone, with any siblings, across
  parameter variants), which is what makes resumed sweeps that re-fuse only
  the missing cells reproduce fresh ones exactly.
* **Eligibility and rejection** — the registry's one predicate,
  :func:`batch_engine_for`, and the engines' own checks.
* **Routing** — the Session/sweep layer batches every eligible cell, falls
  back to per-run engines for the rest, and scatters fused results back into
  the store under the per-cell hashes.
* **Retired surface** — the selectors and knobs of the deleted per-cell batch
  engines fail loudly, and cells they stored re-simulate once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Iterator
from typing import ClassVar

import numpy as np
import pytest

import repro.engine.megabatch as megabatch
from repro.channel.arrivals import PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import pick_engine, simulate, simulate_batch, simulate_megabatch
from repro.engine.fair_engine import FairEngine
from repro.engine.megabatch import FusedCell, MegaFairEngine, MegaWindowEngine
from repro.engine.registry import batch_engine_for
from repro.engine.window_engine import WindowEngine
from repro.experiments import figure1, table1
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.protocols import base as protocol_base
from repro.protocols.aloha import SlottedAloha
from repro.protocols.base import (
    FairBatchState,
    FairProtocol,
    WindowedProtocol,
    available_protocols,
    build_protocol,
)
from repro.scenarios import Scenario, Session
from repro.scenarios.store import StoredRun, open_store
from repro.util.rng import derive_seeds

#: Every batch-eligible fair protocol, as (spec, k) cases — both Log-fails
#: Adaptive variants of the paper's suite are distinct parameterisations that
#: must nonetheless share one fuse key; slotted ALOHA runs both with and
#: without delivery tracking.
FAIR_CASES = [
    pytest.param("one-fail-adaptive", 150, id="ofa"),
    pytest.param("log-fails-adaptive(xi_t=0.5)", 150, id="lfa-xt2"),
    pytest.param("log-fails-adaptive(xi_t=0.1)", 150, id="lfa-xt10"),
    pytest.param("slotted-aloha", 150, id="aloha"),
    pytest.param("slotted-aloha(track_deliveries=False)", 80, id="aloha-static"),
]

#: Every windowed protocol with an oblivious (fusable) schedule: Algorithm 2
#: exercises the sawtooth schedule (saturated descents + wide delivery
#: windows), the monotone family the ever-growing schedules.
WINDOW_CASES = [
    pytest.param("exp-backon-backoff", 150, id="ebb"),
    pytest.param("exponential-backoff", 150, id="exp"),
    pytest.param("polynomial-backoff", 120, id="poly"),
    pytest.param("log-backoff", 120, id="log"),
    pytest.param("loglog-iterated-backoff", 150, id="loglog"),
]

#: Every batchable protocol at k = 1 and k = 2, where a cell's first window
#: or first success can already finish it.
TINY_CASES = [
    pytest.param(case.values[0], k, id=f"{case.id}-k{k}")
    for case in FAIR_CASES + WINDOW_CASES
    for k in (1, 2)
]

RUNS = 300


def _is_fair(spec: str) -> bool:
    return build_protocol(spec, k=16).protocol_kind == "fair"


def _batched_engine(spec: str) -> MegaFairEngine | MegaWindowEngine:
    return MegaFairEngine() if _is_fair(spec) else MegaWindowEngine()


def _per_run_engine(spec: str) -> FairEngine | WindowEngine:
    return FairEngine() if _is_fair(spec) else WindowEngine()


def _fused_cell(spec: str, k: int, seeds, max_slots: int | None = None) -> FusedCell:
    return FusedCell(protocol=build_protocol(spec, k=k), k=k, seeds=tuple(seeds), max_slots=max_slots)


@functools.lru_cache(maxsize=None)
def _batched_makespans(spec: str, k: int) -> tuple[int, ...]:
    results = simulate_batch(build_protocol(spec, k=k), k, derive_seeds(1, RUNS))
    assert all(result.solved for result in results)
    return tuple(result.makespan for result in results)


@functools.lru_cache(maxsize=None)
def _per_run_makespans(spec: str, k: int) -> tuple[int, ...]:
    engine = _per_run_engine(spec)
    return tuple(
        engine.simulate(build_protocol(spec, k=k), k, seed=seed).makespan
        for seed in derive_seeds(2, RUNS)
    )


def _censored_rates(spec: str, k: int, cap: int) -> tuple[float, float, list]:
    runs = 400
    batched = simulate_batch(build_protocol(spec, k=k), k, derive_seeds(11, runs), max_slots=cap)
    engine = _per_run_engine(spec)
    per_run = [
        engine.simulate(build_protocol(spec, k=k), k, seed=seed, max_slots=cap)
        for seed in derive_seeds(12, runs)
    ]
    return (
        sum(result.solved for result in batched) / runs,
        sum(result.solved for result in per_run) / runs,
        batched,
    )


def _assert_same_mean(batched: np.ndarray, per_run: np.ndarray) -> None:
    """Two-sample z-test on the means, 4-sigma threshold (as in validation.py)."""
    pooled = math.sqrt(batched.var(ddof=1) / batched.size + per_run.var(ddof=1) / per_run.size)
    if pooled == 0.0:  # both samples constant, e.g. every run solved in slot 1
        assert batched.mean() == per_run.mean()
        return
    z_score = abs(batched.mean() - per_run.mean()) / pooled
    assert z_score < 4.0, (
        f"batched mean {batched.mean():.1f} vs per-run mean {per_run.mean():.1f} "
        f"(z={z_score:.2f})"
    )


class TestDistributionalParity:
    """Batched sampling must match the per-run engines' law."""

    def test_cases_cover_every_batchable_registered_protocol(self):
        covered = {build_protocol(case.values[0], k=16).name for case in FAIR_CASES + WINDOW_CASES}
        batchable = {
            name
            for name in available_protocols()
            if batch_engine_for(build_protocol(name, k=16)) is not None
        }
        assert batchable == covered

    @pytest.mark.parametrize("spec,k", FAIR_CASES + WINDOW_CASES)
    def test_makespan_mean_matches_per_run_engine(self, spec, k):
        _assert_same_mean(
            np.asarray(_batched_makespans(spec, k)), np.asarray(_per_run_makespans(spec, k))
        )

    @pytest.mark.parametrize("spec,k", TINY_CASES)
    def test_tiny_k_matches_per_run_engine(self, spec, k):
        """Cells that finish in their first slots or window keep the law."""
        batched = np.asarray(_batched_makespans(spec, k))
        assert batched.min() >= k
        _assert_same_mean(batched, np.asarray(_per_run_makespans(spec, k)))

    @pytest.mark.parametrize("spec,k", FAIR_CASES + WINDOW_CASES)
    def test_makespan_quantiles_match_per_run_engine(self, spec, k):
        batched = np.asarray(_batched_makespans(spec, k))
        per_run = np.asarray(_per_run_makespans(spec, k))
        for quantile in (0.25, 0.5, 0.75):
            batched_q = np.quantile(batched, quantile)
            per_run_q = np.quantile(per_run, quantile)
            assert batched_q == pytest.approx(per_run_q, rel=0.10), (
                f"q{quantile}: batched {batched_q} vs per-run {per_run_q}"
            )

    @pytest.mark.parametrize(
        "spec,k,cap",
        [
            pytest.param("one-fail-adaptive", 64, 400, id="ofa-mid"),
            pytest.param("slotted-aloha", 64, 170, id="aloha-mid"),
            pytest.param("exp-backon-backoff", 64, 321, id="ebb-mid"),
            pytest.param("loglog-iterated-backoff", 64, 352, id="loglog-mid"),
        ],
    )
    def test_solved_rate_at_slot_cap_matches_per_run_engine(self, spec, k, cap):
        """With a binding cap both engines must censor the same fraction of runs."""
        batched_rate, per_run_rate, batched = _censored_rates(spec, k, cap)
        pooled = (batched_rate + per_run_rate) / 2
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / len(batched))
        assert 0.0 < pooled < 1.0, "cap must bind for some runs and not others"
        assert abs(batched_rate - per_run_rate) < 4.0 * sigma + 1e-9, (
            f"solved rate batched {batched_rate:.3f} vs per-run {per_run_rate:.3f}"
        )
        # Fair rows stop exactly at the cap; windowed rows at the first
        # window boundary at or past it, like the per-run window engine.
        for result in batched:
            if not result.solved:
                assert result.makespan is None
                assert result.slots_simulated >= cap
                if result.engine == "mega":
                    assert result.slots_simulated == cap


class TestGoldenStreams:
    """Pinned makespans: the kernels' draw order is part of the store format."""

    @pytest.mark.parametrize(
        "spec,k,root,reps,makespans",
        [
            ("one-fail-adaptive", 60, 5, 3, [456, 372, 432]),
            ("log-fails-adaptive(xi_t=0.5)", 50, 1, 3, [296, 324, 320]),
            ("log-fails-adaptive(xi_t=0.1)", 200, 2, 2, [1715, 1500]),
            ("one-fail-adaptive", 1000, 9, 2, [7370, 7325]),
            ("exp-backon-backoff", 70, 5, 3, [332, 330, 322]),
            ("loglog-iterated-backoff", 300, 6, 3, [1830, 1814, 1855]),
            ("exponential-backoff", 90, 4, 2, [999, 494]),
            ("polynomial-backoff", 80, 3, 3, [373, 409, 385]),
            ("log-backoff", 110, 7, 2, [534, 564]),
        ],
    )
    def test_cell_reproduces_pinned_makespans(self, spec, k, root, reps, makespans):
        (results,) = simulate_megabatch([_fused_cell(spec, k, derive_seeds(root, reps))])
        assert [result.makespan for result in results] == makespans

    @pytest.mark.parametrize(
        "spec,k,root,cap,counts",
        [
            (
                "one-fail-adaptive", 100, 4, 300,
                [(300, 28, 260, 12), (300, 31, 261, 8), (300, 33, 259, 8)],
            ),
            (
                "exp-backon-backoff", 200, 7, 400,
                [(480, 69, 382, 29), (480, 54, 391, 35), (480, 50, 396, 34)],
            ),
        ],
    )
    def test_censored_cell_reproduces_pinned_slot_counts(self, spec, k, root, cap, counts):
        """Rows cut off by the cap keep their (slots, successes, collisions, silences)."""
        (results,) = simulate_megabatch(
            [_fused_cell(spec, k, derive_seeds(root, 3), max_slots=cap)]
        )
        assert not any(result.solved for result in results)
        assert [
            (result.slots_simulated, result.successes, result.collisions, result.silences)
            for result in results
        ] == counts

    def test_large_windowed_cell_and_its_occupancy_modes(self):
        """EBB at k=4096 walks every sampler; each (cell, window) is counted once."""
        modes = ("ball-throw", "saturated", "multinomial")
        before = {mode: megabatch._M_OCCUPANCY.labels(mode=mode).value for mode in modes}
        (results,) = simulate_megabatch(
            [_fused_cell("exp-backon-backoff", 4096, derive_seeds(3, 10))]
        )
        after = {mode: megabatch._M_OCCUPANCY.labels(mode=mode).value for mode in modes}
        assert [result.makespan for result in results] == [
            21670, 21683, 21682, 21628, 21847, 21638, 21670, 21676, 21669, 21667,
        ]
        deltas = {mode: after[mode] - before[mode] for mode in modes}
        assert deltas == {"ball-throw": 21, "saturated": 85, "multinomial": 8}


class TestCompositionIndependence:
    """A cell's fused results never depend on its siblings."""

    @pytest.mark.parametrize("spec,k", FAIR_CASES + WINDOW_CASES)
    def test_cell_alone_vs_grouped(self, spec, k):
        cell = _fused_cell(spec, k, derive_seeds(5, 3))
        engine = _batched_engine(spec)
        alone = engine.simulate_fused([cell])
        grouped = engine.simulate_fused(
            [
                _fused_cell(spec, 2 * k, derive_seeds(9, 3)),
                cell,
                _fused_cell(spec, 15, derive_seeds(7, 2)),
            ]
        )
        assert grouped[1] == alone[0]

    def test_lfa_variants_fuse_into_one_kernel_without_interference(self):
        xt2 = _fused_cell("log-fails-adaptive(xi_t=0.5)", 50, derive_seeds(1, 3))
        xt10 = _fused_cell("log-fails-adaptive(xi_t=0.1)", 50, derive_seeds(2, 3))
        alone = MegaFairEngine().simulate_fused([xt2])
        mixed = MegaFairEngine().simulate_fused([xt10, xt2])
        assert mixed[1] == alone[0]

    def test_independence_across_chunk_boundaries(self):
        """Cells whose makespans straddle the pre-draw chunk size still match."""
        # k=400 OFA runs for thousands of slots — several refill boundaries.
        cell = _fused_cell("one-fail-adaptive", 400, derive_seeds(6, 2))
        sibling = _fused_cell("one-fail-adaptive", 10, derive_seeds(8, 2))
        alone = MegaFairEngine().simulate_fused([cell])
        grouped = MegaFairEngine().simulate_fused([cell, sibling])
        assert grouped[0] == alone[0]


_OCCUPANCY_MODES = ("ball-throw", "saturated", "multinomial")


def _occupancy_deltas(cells: list[FusedCell]) -> tuple[dict[str, float], list]:
    """Run one fused window group; return its occupancy-mode increments and results."""
    before = {mode: megabatch._M_OCCUPANCY.labels(mode=mode).value for mode in _OCCUPANCY_MODES}
    results = MegaWindowEngine().simulate_fused(cells)
    deltas = {
        mode: megabatch._M_OCCUPANCY.labels(mode=mode).value - before[mode]
        for mode in _OCCUPANCY_MODES
    }
    return deltas, results


class TestOccupancyMetric:
    """``repro_batch_window_occupancy_total`` counts one sample per (cell, window)."""

    @pytest.mark.parametrize("spec,k", WINDOW_CASES)
    def test_one_increment_per_cell_and_window(self, spec, k):
        cells = [_fused_cell(spec, 300, derive_seeds(3, 4)), _fused_cell(spec, 40, derive_seeds(4, 3))]
        alone = []
        for cell in cells:
            deltas, (results,) = _occupancy_deltas([cell])
            # A cell steps until its slowest row is solved.
            assert sum(deltas.values()) == max(r.metadata["windows"] for r in results)
            alone.append(deltas)
        grouped, _ = _occupancy_deltas(cells)
        assert grouped == {mode: alone[0][mode] + alone[1][mode] for mode in _OCCUPANCY_MODES}


class TestResultStructure:
    @pytest.mark.parametrize("spec,k", FAIR_CASES + WINDOW_CASES)
    def test_solved_run_invariants(self, spec, k):
        seeds = derive_seeds(3, 20)
        results = simulate_batch(build_protocol(spec, k=k), k, seeds)
        assert [result.seed for result in results] == seeds
        for result in results:
            assert result.solved
            assert result.k == k
            assert result.successes == k
            assert result.slots_simulated == result.makespan
            assert (
                result.successes + result.collisions + result.silences
                == result.slots_simulated
            )
            assert result.metadata["batch_reps"] == 20
            if result.engine == "mega-window":
                assert result.metadata["windows"] >= 1
            else:
                assert result.engine == "mega"
                assert result.metadata == {"batch_reps": 20}

    def test_deterministic_given_seeds(self):
        for spec in ("one-fail-adaptive", "exp-backon-backoff"):
            cells = [_fused_cell(spec, 40, derive_seeds(5, 4))]
            assert simulate_megabatch(cells) == simulate_megabatch(cells)

    @pytest.mark.parametrize("spec,k", FAIR_CASES + WINDOW_CASES)
    def test_unsolved_runs_count_every_slot_and_stop_where_per_run_does(self, spec, k):
        """Fair rows stop at the cap, windowed rows at the first window boundary
        at or past it — exactly where the per-run engine stops."""
        cap = k // 2
        (results,) = simulate_megabatch([_fused_cell(spec, k, derive_seeds(4, 5), max_slots=cap)])
        per_run = _per_run_engine(spec).simulate(build_protocol(spec, k=k), k, seed=5, max_slots=cap)
        assert not per_run.solved
        for result in results:
            assert not result.solved
            assert result.makespan is None
            assert result.slots_simulated == per_run.slots_simulated >= cap
            assert result.successes + result.collisions + result.silences == (
                result.slots_simulated
            )

    @pytest.mark.parametrize("spec", ["one-fail-adaptive", "exp-backon-backoff"])
    def test_per_cell_caps_bind_independently(self, spec):
        """A capped cell retires while its uncapped sibling keeps stepping."""
        capped = _fused_cell(spec, 100, derive_seeds(4, 3), max_slots=20)
        free = _fused_cell(spec, 30, derive_seeds(5, 3))
        fused = _batched_engine(spec).simulate_fused([capped, free])
        assert all(not result.solved and result.slots_simulated >= 20 for result in fused[0])
        assert all(result.solved for result in fused[1])

    def test_silent_protocol_burns_to_the_cap(self):
        """p = 0 must censor at the cap with every slot silent, not loop forever."""
        results = MegaFairEngine().simulate_fused(
            [FusedCell(NeverTransmit(), 5, (1, 2, 3), max_slots=40)]
        )[0]
        for result in results:
            assert not result.solved
            assert result.slots_simulated == 40
            assert result.silences == 40

    def test_chunked_wide_windows_preserve_invariants(self, monkeypatch):
        """Row-chunked occupancy (bounded memory) keeps every invariant.

        Forcing a tiny chunk cap makes every wide window take the multi-chunk
        path; the results must stay structurally sound, deterministic, and
        distributionally in line with the unchunked engine.
        """
        seeds = derive_seeds(21, 40)
        monkeypatch.setattr(megabatch, "_MAX_WINDOW_CELLS", 64)
        chunked = simulate_batch(ExpBackonBackoff(), 100, seeds)
        assert chunked == simulate_batch(ExpBackonBackoff(), 100, seeds)
        for result in chunked:
            assert result.solved
            assert result.successes == 100
            assert result.slots_simulated == result.makespan
            assert (
                result.successes + result.collisions + result.silences
                == result.slots_simulated
            )
        monkeypatch.undo()
        unchunked = simulate_batch(ExpBackonBackoff(), 100, derive_seeds(22, 40))
        chunked_mean = np.mean([result.makespan for result in chunked])
        unchunked_mean = np.mean([result.makespan for result in unchunked])
        assert chunked_mean == pytest.approx(unchunked_mean, rel=0.15)

    def test_prototype_not_mutated(self):
        prototype = OneFailAdaptive()
        MegaFairEngine().simulate_fused([FusedCell(prototype, 50, tuple(derive_seeds(0, 4)))])
        assert prototype.messages_received == 0

    def test_simulate_batch_is_a_group_of_one(self):
        seeds = derive_seeds(7, 4)
        via_batch = simulate_batch(OneFailAdaptive(), 40, seeds)
        (via_fused,) = MegaFairEngine().simulate_fused(
            [FusedCell(OneFailAdaptive(), 40, tuple(seeds), 400_000)]
        )
        assert via_batch == via_fused

    def test_single_run_via_simulate(self):
        result = MegaFairEngine().simulate(OneFailAdaptive(), 20, seed=3)
        assert result.solved and result.engine == "mega"
        result = MegaFairEngine().simulate(SlottedAloha(k=1), 1, seed=0)
        assert result.solved and result.makespan == 1
        result = MegaWindowEngine().simulate(ExpBackonBackoff(), 30, seed=4)
        assert result.solved and result.engine == "mega-window"
        assert result.metadata["batch_reps"] == 1


class _SilentState(FairBatchState):
    def __init__(self, rows: int) -> None:
        self.rows = rows

    def probabilities(self, slot):
        return np.zeros(self.rows)

    def observe_receptions(self, slot, received, received_any=None, received_rows=None):
        return None

    def compact(self, keep):
        self.rows = int(np.count_nonzero(keep))


class NeverTransmit(FairProtocol):
    name: ClassVar[str] = "test-mega-never-transmit"

    def reset(self):
        pass

    def transmission_probability(self, slot):
        return 0.0

    def notify(self, observation):
        pass

    @classmethod
    def make_fused_batch_state(cls, protocols, counts):
        return _SilentState(sum(counts))


class PlainFair(FairProtocol):
    """A fair protocol without a batched kernel."""

    name: ClassVar[str] = "test-mega-plain-fair"

    def __init__(self, k: int = 40) -> None:
        self.k = k
        self.reset()

    @classmethod
    def from_spec(cls, k, **params):
        return cls(k=k)

    def reset(self):
        self._remaining = self.k

    def transmission_probability(self, slot):
        return 1.0 / max(self._remaining, 1)

    def notify(self, observation):
        if observation.received:
            self._remaining = max(self._remaining - 1, 1)


class FeedbackWindowed(WindowedProtocol):
    """A windowed protocol declaring no oblivious schedule."""

    name: ClassVar[str] = "test-mega-feedback-windowed"

    def window_lengths(self) -> Iterator[int]:
        while True:
            yield 4


class TestEligibilityAndRejection:
    def test_supports_matrix(self):
        assert MegaFairEngine.supports(OneFailAdaptive())
        assert MegaFairEngine.supports(build_protocol("log-fails-adaptive(xi_t=0.5)", k=16))
        assert MegaFairEngine.supports(SlottedAloha(k=16))
        assert not MegaFairEngine.supports(PlainFair())
        assert not MegaFairEngine.supports(ExpBackonBackoff())
        for case in WINDOW_CASES:
            assert MegaWindowEngine.supports(build_protocol(case.values[0], k=16))
        assert not MegaWindowEngine.supports(FeedbackWindowed())
        assert not MegaWindowEngine.supports(OneFailAdaptive())

    def test_batch_engine_for_routing(self):
        assert batch_engine_for(OneFailAdaptive()) == "mega"
        assert batch_engine_for(SlottedAloha(k=16)) == "mega"
        assert batch_engine_for(ExpBackonBackoff()) == "mega-window"
        assert batch_engine_for(PlainFair()) is None
        assert batch_engine_for(FeedbackWindowed()) is None
        assert batch_engine_for(OneFailAdaptive(), engine="mega") == "mega"
        assert batch_engine_for(OneFailAdaptive(), engine="mega-window") is None
        assert batch_engine_for(OneFailAdaptive(), engine="fair") is None
        assert (
            batch_engine_for(OneFailAdaptive(), arrivals=PoissonArrival(k=10, rate=0.5))
            is None
        )

    def test_fair_fuse_key_is_the_protocol_class(self):
        xt2 = build_protocol("log-fails-adaptive(xi_t=0.5)", k=16)
        xt10 = build_protocol("log-fails-adaptive(xi_t=0.1)", k=16)
        assert MegaFairEngine.fuse_key(xt2) == MegaFairEngine.fuse_key(xt10)
        assert MegaFairEngine.fuse_key(xt2) != MegaFairEngine.fuse_key(OneFailAdaptive())

    def test_window_fuse_key_separates_schedules(self):
        assert MegaWindowEngine.fuse_key(ExpBackonBackoff()) == MegaWindowEngine.fuse_key(
            ExpBackonBackoff()
        )
        assert MegaWindowEngine.fuse_key(ExpBackonBackoff()) != MegaWindowEngine.fuse_key(
            build_protocol("exponential-backoff", k=16)
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(TypeError):
            MegaFairEngine().simulate_fused([_fused_cell("exp-backon-backoff", 10, [0, 1])])
        with pytest.raises(TypeError):
            MegaWindowEngine().simulate_fused([_fused_cell("one-fail-adaptive", 10, [0, 1])])

    def test_protocol_without_kernel_rejected(self):
        with pytest.raises(ValueError, match="fused kernel"):
            MegaFairEngine().simulate_fused([FusedCell(PlainFair(), 20, (1, 2))])
        with pytest.raises(ValueError, match="fused kernel"):
            MegaWindowEngine().simulate_fused([FusedCell(FeedbackWindowed(), 20, (1, 2))])

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError, match="one protocol class"):
            MegaFairEngine().simulate_fused(
                [
                    _fused_cell("one-fail-adaptive", 20, [1, 2]),
                    _fused_cell("log-fails-adaptive(xi_t=0.5)", 20, [3, 4]),
                ]
            )
        with pytest.raises(ValueError, match="one window schedule"):
            MegaWindowEngine().simulate_fused(
                [
                    _fused_cell("exp-backon-backoff", 20, [1, 2]),
                    _fused_cell("exponential-backoff", 20, [3, 4]),
                ]
            )

    def test_empty_group_and_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            MegaFairEngine().simulate_fused([])
        with pytest.raises(ValueError, match="at least one fused cell"):
            simulate_megabatch([])
        with pytest.raises(ValueError, match="at least one seed"):
            _fused_cell("one-fail-adaptive", 20, [])
        with pytest.raises(ValueError, match="at least one seed"):
            simulate_batch(ExpBackonBackoff(), 10, [])

    def test_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            MegaFairEngine().simulate(OneFailAdaptive(), 20, seed=0, trace=ExecutionTrace())
        with pytest.raises(ValueError, match="trace"):
            MegaWindowEngine().simulate(ExpBackonBackoff(), 20, seed=0, trace=ExecutionTrace())

    @pytest.mark.parametrize("engine_cls", [MegaFairEngine, MegaWindowEngine])
    def test_requires_paper_channel(self, engine_cls):
        with pytest.raises(ValueError):
            engine_cls(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))
        with pytest.raises(ValueError):
            engine_cls(channel=ChannelModel(acknowledgements=False))


class TestFrontDoors:
    def test_simulate_megabatch_auto_routes(self):
        cells = [
            _fused_cell("one-fail-adaptive", 30, derive_seeds(1, 2)),
            _fused_cell("one-fail-adaptive", 60, derive_seeds(2, 2)),
        ]
        results = simulate_megabatch(cells)
        assert len(results) == len(cells)
        assert all(result.engine == "mega" for group in results for result in group)

    def test_simulate_batch_routes_by_kind(self):
        assert {r.engine for r in simulate_batch(OneFailAdaptive(), 30, [0, 1, 2])} == {"mega"}
        assert {r.engine for r in simulate_batch(SlottedAloha(k=30), 30, [0, 1])} == {"mega"}
        assert {r.engine for r in simulate_batch(ExpBackonBackoff(), 30, [0, 1])} == {
            "mega-window"
        }

    def test_selector_problems_diagnosed(self):
        # A per-run selector is a selector problem, not a kernel problem.
        with pytest.raises(ValueError, match="not a batched engine"):
            simulate_batch(ExpBackonBackoff(), 10, [0, 1], engine="window")
        with pytest.raises(ValueError, match="not a batched engine"):
            simulate_megabatch([_fused_cell("one-fail-adaptive", 30, [1, 2])], engine="fair")
        # A typo gets the registry's enumerating unknown-engine error.
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_batch(ExpBackonBackoff(), 10, [0, 1], engine="bacth")

    def test_protocol_without_kernel_diagnosed(self):
        with pytest.raises(ValueError, match="no batched engine"):
            simulate_megabatch([FusedCell(PlainFair(), 30, (1, 2))])

    def test_pick_engine_and_simulate_accept_batched_selectors(self):
        assert isinstance(pick_engine(OneFailAdaptive(), engine="mega"), MegaFairEngine)
        assert isinstance(pick_engine(ExpBackonBackoff(), engine="mega-window"), MegaWindowEngine)
        assert simulate(OneFailAdaptive(), k=30, seed=1, engine="mega").engine == "mega"
        assert simulate(ExpBackonBackoff(), k=30, seed=1, engine="mega-window").engine == (
            "mega-window"
        )

    def test_auto_never_picks_a_batched_engine_for_single_runs(self):
        assert simulate(OneFailAdaptive(), k=30, seed=1).engine == "fair"
        assert simulate(ExpBackonBackoff(), k=30, seed=1).engine == "window"

    def test_batched_selectors_rejected_where_they_cannot_serve(self):
        with pytest.raises(ValueError, match="protocol kinds"):
            pick_engine(ExpBackonBackoff(), engine="mega")
        with pytest.raises(ValueError):
            pick_engine(
                OneFailAdaptive(), engine="mega", arrivals=PoissonArrival(k=10, rate=0.5)
            )


@pytest.fixture
def plain_fair_registered(monkeypatch):
    """Register the kernel-less fair protocol for the test's duration only."""
    monkeypatch.setitem(protocol_base._REGISTRY, PlainFair.name, PlainFair)


def _engines(sweep, key: str, k: int) -> set[str]:
    return {result.engine for result in sweep.cell(key, k).results}


class TestSweepRouting:
    CONFIG = ExperimentConfig(k_values=[20, 40], runs=3, seed=17)

    def test_mixed_suite_routes_each_family_to_its_batched_engine(self):
        specs = [
            ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive"),
            ProtocolSpec(key="aloha", label="ALOHA", spec="slotted-aloha"),
            ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff"),
        ]
        sweep = run_sweep(specs, self.CONFIG)
        for k in self.CONFIG.k_values:
            assert _engines(sweep, "ofa", k) == {"mega"}
            assert _engines(sweep, "aloha", k) == {"mega"}
            assert _engines(sweep, "ebb", k) == {"mega-window"}

    def test_protocol_without_kernel_falls_back_to_per_run(self, plain_fair_registered):
        spec = ProtocolSpec(key="plain", label="Plain", spec=PlainFair.name)
        sweep = run_sweep([spec], self.CONFIG)
        assert _engines(sweep, "plain", 40) == {"fair"}

    def test_arrivals_route_to_slot_engine(self):
        spec = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")
        config = ExperimentConfig(k_values=[12], runs=2, seed=17)
        sweep = run_sweep([spec], config, arrivals="poisson(rate=0.2)")
        assert _engines(sweep, "ofa", 12) == {"slot"}

    def test_explicit_per_run_selector_disables_batching(self):
        spec = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")
        sweep = run_sweep([spec], self.CONFIG, engine="fair")
        assert _engines(sweep, "ofa", 40) == {"fair"}

    def test_batch_false_replays_per_run_streams(self):
        specs = [
            ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive"),
            ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff"),
        ]
        for sweep in (
            run_sweep(specs, self.CONFIG, batch=False),
            run_sweep(specs, ExperimentConfig(k_values=[20, 40], runs=3, seed=17, batch=False)),
        ):
            assert _engines(sweep, "ofa", 40) == {"fair"}
            assert _engines(sweep, "ebb", 40) == {"window"}

    def test_batched_sweep_bit_identical_across_workers(self):
        specs = [
            ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive"),
            ProtocolSpec(key="ebb", label="EBB", spec="exp-backon-backoff"),
        ]
        serial = run_sweep(specs, self.CONFIG, workers=1)
        pooled = run_sweep(specs, self.CONFIG, workers=2)
        for key in serial.cells:
            assert serial.cells[key].results == pooled.cells[key].results

    def test_progress_counts_per_run(self):
        spec = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")
        calls = []
        run_sweep(
            [spec],
            ExperimentConfig(k_values=[40], runs=3, seed=17),
            progress=lambda s, k, done, total: calls.append((s.key, k, done, total)),
        )
        assert calls == [("ofa", 40, 1, 3), ("ofa", 40, 2, 3), ("ofa", 40, 3, 3)]


class TestSessionStore:
    GRID = [
        "one-fail-adaptive k=20 reps=3 seed=5",
        "one-fail-adaptive k=45 reps=3 seed=5",
        "one-fail-adaptive k=70 reps=3 seed=5",
    ]

    def scenarios(self) -> list[Scenario]:
        return [Scenario.parse(text) for text in self.GRID]

    def test_fused_results_scatter_into_per_cell_store_records(self, tmp_path):
        scenarios = self.scenarios() + [Scenario.parse("exp-backon-backoff k=50 reps=3 seed=5")]
        stored = Session(store_dir=tmp_path).run_all(scenarios)
        assert [rs.engine_used for rs in stored] == ["mega"] * 3 + ["mega-window"]
        resumed = Session(store_dir=tmp_path).run_all(scenarios)
        for first, second in zip(stored, resumed):
            assert second.cached_runs == 3 and second.new_runs == 0
            assert first.results == second.results

    def test_interrupted_sweep_refuses_only_missing_cells(self, tmp_path):
        """A sweep killed mid-grid resumes bit-identically: cached cells are
        served from the store and only the missing ones enter the new fused
        group — composition independence makes the two executions equal."""
        full = self.scenarios()
        Session(store_dir=tmp_path).run_all(full[:1])  # the "killed" partial sweep
        resumed = Session(store_dir=tmp_path).run_all(full)
        assert resumed[0].cached_runs == 3 and resumed[0].new_runs == 0
        assert all(rs.cached_runs == 0 and rs.new_runs == 3 for rs in resumed[1:])
        fresh = Session().run_all(full)
        for resumed_set, fresh_set in zip(resumed, fresh):
            assert resumed_set.makespans == fresh_set.makespans
            assert [r.seed for r in resumed_set.results] == [r.seed for r in fresh_set.results]

    def test_explicit_batched_engine_batches_in_a_per_run_session(self):
        scenario = Scenario(
            protocol="exp-backon-backoff", k=50, replications=3, seed=5, engine="mega-window"
        )
        result_set = Session(batch=False).run(scenario)
        assert result_set.engine_used == "mega-window"
        assert result_set.results[0].metadata["batch_reps"] == 3

    def test_batched_store_not_served_to_per_run_session(self, tmp_path):
        scenario = Scenario(protocol="exp-backon-backoff", k=50, replications=4, seed=5)
        Session(store_dir=tmp_path).run(scenario)
        # Cached-run reuse is keyed by engine + batch_reps: a per-run session
        # must not mix batched samples into its result set.
        per_run = Session(store_dir=tmp_path, batch=False).run(scenario)
        assert per_run.engine_used == "window"
        assert per_run.new_runs == 4


class TestRetiredSurface:
    """The per-cell batch engines, their selectors and the ``fuse`` knob are gone."""

    @pytest.mark.parametrize("selector", ["batch", "batch-window"])
    def test_retired_selectors_are_unknown_engines(self, selector):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_batch(OneFailAdaptive(), 10, [0, 1], engine=selector)
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(OneFailAdaptive(), k=10, seed=0, engine=selector)

    def test_fuse_knob_is_gone(self):
        spec = ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")
        config = ExperimentConfig(k_values=[10], runs=1, seed=17)
        with pytest.raises(TypeError):
            ExperimentConfig(k_values=[10], runs=1, fuse=False)
        with pytest.raises(TypeError):
            Session(fuse=False)
        with pytest.raises(TypeError):
            run_sweep([spec], config, fuse=False)

    @pytest.mark.parametrize("flag", ["--fuse", "--no-fuse"])
    def test_figure_and_table_clis_reject_fuse_flags(self, flag, capsys):
        for main in (figure1.main, table1.main):
            with pytest.raises(SystemExit) as excinfo:
                main([flag])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_protocol_specs_need_a_spec_string(self):
        with pytest.raises(TypeError):
            ProtocolSpec(key="ofa", label="OFA", factory=OneFailAdaptive)
        with pytest.raises(TypeError):
            ProtocolSpec(key="ofa", label="OFA")

    def test_cells_stored_by_a_retired_engine_resimulate_once(self, tmp_path):
        """ALOHA cells the deleted ``batch`` engine stored are recomputed under ``mega``."""
        scenario = Scenario(protocol="slotted-aloha", k=30, replications=3, seed=5)
        legacy = [
            StoredRun(replication, result.seed, 0.0, dataclasses.replace(result, engine="batch"))
            for replication, result in enumerate(Session().run(scenario).results)
        ]
        open_store(tmp_path).append(scenario, legacy)
        first = Session(store_dir=tmp_path).run(scenario)
        assert first.engine_used == "mega"
        assert first.cached_runs == 0 and first.new_runs == 3
        again = Session(store_dir=tmp_path).run(scenario)
        assert again.cached_runs == 3 and again.new_runs == 0
        assert again.results == first.results
