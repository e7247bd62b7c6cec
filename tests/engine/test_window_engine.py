"""Tests for the balls-in-bins window engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.window_engine import WindowEngine
from repro.protocols.backoff import ExponentialBackoff, LogLogIteratedBackoff
from repro.protocols.base import WindowedProtocol, build_protocol
from repro.util.rng import derive_seeds


class TestBasicOperation:
    @pytest.mark.parametrize("k", [1, 2, 10, 1_000])
    def test_solves_and_counts(self, k, window_engine):
        result = window_engine.simulate(ExpBackonBackoff(), k, seed=1)
        assert result.solved
        assert result.successes == k
        assert result.makespan >= k

    def test_slots_cover_makespan(self, window_engine):
        result = window_engine.simulate(ExpBackonBackoff(), 50, seed=2)
        assert result.slots_simulated >= result.makespan

    def test_window_count_in_metadata(self, window_engine):
        result = window_engine.simulate(ExpBackonBackoff(), 50, seed=2)
        assert result.metadata["windows"] >= 1

    def test_deterministic_given_seed(self, window_engine):
        a = window_engine.simulate(ExpBackonBackoff(), 200, seed=5)
        b = window_engine.simulate(ExpBackonBackoff(), 200, seed=5)
        assert a.makespan == b.makespan

    def test_different_seeds_differ(self, window_engine):
        makespans = {
            window_engine.simulate(ExpBackonBackoff(), 200, seed=seed).makespan
            for seed in range(5)
        }
        assert len(makespans) > 1

    def test_works_for_all_windowed_protocols(self, window_engine):
        for protocol in (ExpBackonBackoff(), LogLogIteratedBackoff(), ExponentialBackoff()):
            result = window_engine.simulate(protocol, 100, seed=1)
            assert result.solved, protocol.name

    def test_rejects_fair_protocol(self, window_engine):
        with pytest.raises(TypeError):
            window_engine.simulate(OneFailAdaptive(), 10, seed=0)

    def test_invalid_k_rejected(self, window_engine):
        with pytest.raises(ValueError):
            window_engine.simulate(ExpBackonBackoff(), -1, seed=0)

    def test_requires_papers_channel(self):
        with pytest.raises(ValueError):
            WindowEngine(channel=ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION))
        with pytest.raises(ValueError):
            WindowEngine(channel=ChannelModel(acknowledgements=False))


class TestSlotCapAndSchedules:
    def test_unsolved_when_capped(self, window_engine):
        result = window_engine.simulate(ExpBackonBackoff(), 1_000, seed=0, max_slots=50)
        assert not result.solved

    def test_exhausted_schedule_raises(self, window_engine):
        class TinySchedule(WindowedProtocol):
            name = "test-tiny-schedule"

            def window_lengths(self):
                yield 1

        with pytest.raises(RuntimeError):
            window_engine.simulate(TinySchedule(), 10, seed=0)

    def test_invalid_window_length_raises(self, window_engine):
        class ZeroWindow(WindowedProtocol):
            name = "test-zero-window"

            def window_lengths(self):
                while True:
                    yield 0

        with pytest.raises(ValueError):
            window_engine.simulate(ZeroWindow(), 10, seed=0)


class TestBallsInBinsSemantics:
    def test_trace_singletons_match_successes(self, window_engine):
        trace = ExecutionTrace()
        result = window_engine.simulate(ExpBackonBackoff(), 30, seed=3, trace=trace)
        assert trace.successes == result.successes == 30

    def test_makespan_is_last_success_slot_plus_one(self, window_engine):
        trace = ExecutionTrace()
        result = window_engine.simulate(ExpBackonBackoff(), 30, seed=4, trace=trace)
        assert result.makespan == trace.success_slots()[-1] + 1

    def test_single_node_delivers_in_first_window(self, window_engine):
        result = window_engine.simulate(ExpBackonBackoff(), 1, seed=6)
        assert result.makespan <= 2  # first window of Algorithm 2 has two slots

    def test_deterministic_single_slot_windows(self, window_engine):
        """With k=1 and 1-slot windows the message goes out at slot 0."""

        class UnitWindows(WindowedProtocol):
            name = "test-unit-windows"

            def window_lengths(self):
                while True:
                    yield 1

        result = window_engine.simulate(UnitWindows(), 1, seed=0)
        assert result.makespan == 1

    def test_two_nodes_unit_windows_never_solve(self, window_engine):
        """Two stations in 1-slot windows always collide: the cap must trigger."""

        class UnitWindows(WindowedProtocol):
            name = "test-unit-windows-2"

            def window_lengths(self):
                while True:
                    yield 1

        result = window_engine.simulate(UnitWindows(), 2, seed=0, max_slots=100)
        assert not result.solved
        assert result.collisions == 100


class TestStatisticalBehaviour:
    def test_ebb_ratio_matches_paper_at_moderate_k(self, window_engine):
        """Table 1 reports steps/k between ~5 and ~8 for Exp Back-on/Back-off."""
        k = 1_000
        ratios = [
            window_engine.simulate(ExpBackonBackoff(), k, seed=seed).steps_per_node
            for seed in range(5)
        ]
        mean = sum(ratios) / len(ratios)
        assert 4.0 < mean < 8.5

    def test_ebb_within_theorem2_bound(self, window_engine):
        from repro.core.analysis import ebb_makespan_bound

        k = 2_000
        for seed in range(3):
            result = window_engine.simulate(ExpBackonBackoff(), k, seed=seed)
            assert result.makespan <= ebb_makespan_bound(k)


#: Every registered windowed protocol.
WINDOWED_SPECS = [
    "exp-backon-backoff",
    "exponential-backoff",
    "polynomial-backoff",
    "log-backoff",
    "loglog-iterated-backoff",
]


def _reference_makespan(protocol: WindowedProtocol, k: int, rng: np.random.Generator) -> int:
    """The plain balls-in-bins loop: every window throws every ball."""
    remaining, start = k, 0
    for length in protocol.spawn().window_lengths():
        occupancy = np.bincount(rng.integers(0, length, size=remaining), minlength=length)
        singles = np.flatnonzero(occupancy == 1)
        if singles.size == remaining:
            return start + int(singles[-1]) + 1
        remaining -= singles.size
        start += length
    raise AssertionError("window schedule exhausted")


def _assert_same_mean(engine: np.ndarray, reference: np.ndarray) -> None:
    """Two-sample z-test on the means, 4-sigma threshold (as in validation.py)."""
    pooled = math.sqrt(engine.var(ddof=1) / engine.size + reference.var(ddof=1) / reference.size)
    if pooled == 0.0:  # both samples constant, e.g. every run solved in slot 1
        assert engine.mean() == reference.mean()
        return
    z_score = abs(engine.mean() - reference.mean()) / pooled
    assert z_score < 4.0, (
        f"engine mean {engine.mean():.1f} vs reference mean {reference.mean():.1f} "
        f"(z={z_score:.2f})"
    )


class TestOccupancySamplersAgainstBallThrowReference:
    """The saturated/multinomial/ball-throw samplers keep the law of the
    plain loop that throws every ball of every window."""

    @staticmethod
    def samples(spec: str, k: int, runs: int) -> tuple[np.ndarray, np.ndarray]:
        protocol = build_protocol(spec, k=k)
        engine = np.asarray(
            [WindowEngine().simulate(protocol, k, seed=seed).makespan for seed in derive_seeds(1, runs)]
        )
        rng = np.random.default_rng(2)
        reference = np.asarray([_reference_makespan(protocol, k, rng) for _ in range(runs)])
        return engine, reference

    @pytest.mark.parametrize("k", [1, 2, 150])
    @pytest.mark.parametrize("spec", WINDOWED_SPECS)
    def test_makespan_mean_matches_reference(self, spec, k):
        engine, reference = self.samples(spec, k, 300)
        assert engine.min() >= k
        _assert_same_mean(engine, reference)
        if k > 2:
            for quantile in (0.25, 0.5, 0.75):
                assert np.quantile(engine, quantile) == pytest.approx(
                    np.quantile(reference, quantile), rel=0.10
                )

    @pytest.mark.parametrize("spec", ["exp-backon-backoff", "loglog-iterated-backoff"])
    def test_large_k_walks_every_sampler_and_matches_reference(self, spec):
        _assert_same_mean(*self.samples(spec, 2048, 60))
