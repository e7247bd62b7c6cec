"""Tests for the balls-in-bins window engine.

Besides the engine's own behaviour, this pins its two window loops against
each other: the compiled loop (``window_kernel.c``) must equal the Python
loop and its numpy ball throw in every result field for every registered
windowed protocol, cap and thread interleaving, must make one kernel call
per schedule chunk rather than per window, and ``repro_window_runs_total
{path}`` must say which loop ran.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import sys
import threading
import time
import traceback
from array import array

import numpy as np
import pytest

import repro.engine.native as native
import repro.engine.window_engine as window_module
from repro.channel.model import ChannelModel, FeedbackModel
from repro.channel.trace import ExecutionTrace
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.window_engine import WindowEngine, _saturated, _throw_reference, _WindowRun
from repro.protocols.backoff import ExponentialBackoff, LogLogIteratedBackoff
from repro.protocols.base import WindowedProtocol
from repro.scenarios import Scenario, Session
from repro.scenarios.spec import PROTOCOLS, build_protocol
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

#: Seeds at 32-bit word boundaries: of one, two, three and four words.
WORD_BOUNDARY_SEEDS = [2**32 - 1, 2**32, 2**64, 2**100]


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
    """Two-sample z-test on the means, 4-sigma threshold.

    Only for cells without an exact law: at k <= 2 the conformance suite
    holds the engine to the exact one (``test_conformance.py``).
    """
    pooled = math.sqrt(engine.var(ddof=1) / engine.size + reference.var(ddof=1) / reference.size)
    z_score = abs(engine.mean() - reference.mean()) / pooled
    assert z_score < 4.0, (
        f"engine mean {engine.mean():.1f} vs reference mean {reference.mean():.1f} "
        f"(z={z_score:.2f})"
    )


class TestOccupancySamplersAgainstBallThrowReference:
    """The saturated shortcut and the ball throw of bounded ``uint32`` draws
    keep the law of the plain loop that throws every ball of every window
    with numpy's default (``int64``) bounded integers."""

    @staticmethod
    def samples(spec: str, k: int, runs: int) -> tuple[np.ndarray, np.ndarray]:
        protocol = build_protocol(spec, k=k)
        engine = np.asarray(
            [WindowEngine().simulate(protocol, k, seed=seed).makespan for seed in derive_seeds(1, runs)]
        )
        rng = np.random.default_rng(2)
        reference = np.asarray([_reference_makespan(protocol, k, rng) for _ in range(runs)])
        return engine, reference

    @pytest.mark.parametrize("spec", WINDOWED_SPECS)
    def test_makespan_mean_matches_reference(self, spec):
        k = 150
        engine, reference = self.samples(spec, k, 300)
        assert engine.min() >= k
        _assert_same_mean(engine, reference)
        for quantile in (0.25, 0.5, 0.75):
            assert np.quantile(engine, quantile) == pytest.approx(
                np.quantile(reference, quantile), rel=0.10
            )

    @pytest.mark.parametrize("spec", ["exp-backon-backoff", "loglog-iterated-backoff"])
    def test_large_k_walks_every_sampler_and_matches_reference(self, spec):
        _assert_same_mean(*self.samples(spec, 2048, 60))


_OCCUPANCY_MODES = ("ball-throw", "saturated")


def _occupancy_counts() -> dict[str, float]:
    return {
        mode: window_module._M_OCCUPANCY.labels(mode=mode).value for mode in _OCCUPANCY_MODES
    }


class TestOccupancyMetric:
    """``repro_window_occupancy_total`` counts every window once, by sampler."""

    def test_large_cell_walks_every_sampler(self):
        before = _occupancy_counts()
        results = [
            WindowEngine().simulate(ExpBackonBackoff(), 4096, seed=seed)
            for seed in derive_seeds(3, 10)
        ]
        after = _occupancy_counts()
        assert [result.makespan for result in results] == [
            21666, 21675, 21672, 21629, 21261, 21764, 21841, 21502, 21600, 21629,
        ]
        deltas = {mode: after[mode] - before[mode] for mode in _OCCUPANCY_MODES}
        assert deltas == {"ball-throw": 281, "saturated": 850}
        assert sum(deltas.values()) == sum(result.metadata["windows"] for result in results)

    @pytest.mark.parametrize(
        "spec",
        ["exp-backon-backoff", "exponential-backoff", "polynomial-backoff", "log-backoff",
         "loglog-iterated-backoff"],
    )
    def test_incremented_once_per_run_and_mode(self, spec, monkeypatch):
        increments = []

        class SpyChild:
            def __init__(self, mode):
                self.mode = mode

            def inc(self, amount=1.0):
                increments.append(self.mode)

        monkeypatch.setattr(window_module, "_M_SATURATED", SpyChild("saturated"))
        monkeypatch.setattr(window_module, "_M_THROWN", SpyChild("ball-throw"))
        result = WindowEngine().simulate(build_protocol(spec, k=300), 300, seed=3)
        assert result.metadata["windows"] > len(_OCCUPANCY_MODES)
        assert len(increments) == len(set(increments)) <= len(_OCCUPANCY_MODES)


class TestWindowEngineTraces:
    @pytest.mark.parametrize("k", [1, 2, 40, 2048])
    def test_traced_and_untraced_runs_are_equal(self, k):
        # k=2048 walks saturated windows as well as ball throws; tracing
        # (which takes the numpy reference) must not change a single draw.
        for seed in derive_seeds(k, 3):
            trace = ExecutionTrace()
            traced = WindowEngine().simulate(ExpBackonBackoff(), k, seed=seed, trace=trace)
            assert traced == WindowEngine().simulate(ExpBackonBackoff(), k, seed=seed)
            assert len(trace) == traced.slots_simulated
            assert trace.successes == traced.successes

    def test_saturated_windows_are_traced_as_collisions(self):
        trace = ExecutionTrace()
        before = _occupancy_counts()["saturated"]
        WindowEngine().simulate(ExpBackonBackoff(), 2048, seed=1, trace=trace)
        assert _occupancy_counts()["saturated"] > before
        collisions = [record for record in trace if record.outcome.name == "COLLISION"]
        assert {record.transmitters for record in collisions} >= {2}

    def test_active_before_varies_within_window(self, window_engine):
        # With enough deliveries per window, some window must contain two
        # successes, so a constant per-window active count would be wrong.
        trace = ExecutionTrace()
        window_engine.simulate(ExpBackonBackoff(), 200, seed=2, trace=trace)
        per_slot = [record.active_before for record in trace.records]
        assert len(set(per_slot)) > 2
        assert per_slot[0] == 200


class TestWindowedProtocolsStayPerRun:
    """Windowed cells never batch; every windowed protocol runs on ``window``."""

    @pytest.mark.parametrize(
        "spec",
        ["exp-backon-backoff", "exponential-backoff", "polynomial-backoff", "log-backoff",
         "loglog-iterated-backoff"],
    )
    def test_session_runs_windowed_cells_on_window(self, spec):
        result_set = Session().run(Scenario(protocol=spec, k=40, replications=5, seed=3))
        assert result_set.engine_used == "window"
        assert all(result.metadata["stream_version"] == 4 for result in result_set.results)


class _NoLibrary:
    """The kernel loader of a host without a C compiler."""

    def get(self) -> None:
        return None


PATHS = ("compiled", "python")


def _window_runs(path: str, protocol, k: int, seeds, max_slots: int | None = None) -> list:
    """WindowEngine's runs of each seed, all on the given window-loop ``path``."""
    counter = window_module._M_WINDOW_RUNS.labels(path=path)
    before = counter.value
    with pytest.MonkeyPatch.context() as patch:
        if path == "python":
            patch.setattr(native, "KERNEL", _NoLibrary())
        results = [
            WindowEngine().simulate(protocol, k, seed=seed, max_slots=max_slots) for seed in seeds
        ]
    assert counter.value - before == len(seeds), f"not every run took the {path} path"
    return results


def _assert_paths_agree(protocol, k: int, seeds, max_slots: int | None = None) -> list:
    compiled, python = (_window_runs(path, protocol, k, seeds, max_slots) for path in PATHS)
    assert [result.to_dict() for result in compiled] == [result.to_dict() for result in python]
    return compiled


def _windows(protocol, k: int, seed: int) -> list[tuple[int, int, bool]]:
    """``(start, length, saturated)`` of every window of the uncapped run,
    spied on the Python loop (the compiled loop tests saturation in C)."""
    calls = []
    original = window_module._saturated

    def spy(length, balls):
        calls.append((length, original(length, balls)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "KERNEL", _NoLibrary())
        patch.setattr(window_module, "_saturated", spy)
        WindowEngine().simulate(protocol, k, seed=seed)
    starts = itertools.accumulate((length for length, _ in calls), initial=0)
    return [(start, length, saturated) for start, (length, saturated) in zip(starts, calls)]


def _cap(windows: list[tuple[int, int, bool]], where: str) -> int:
    if where == "first-slot":
        return 1
    if where == "window-boundary":
        return windows[-1][0]  # the start of the final window
    start, length, _ = next(
        window for window in windows if window[2] == (where == "saturated") and window[1] >= 2
    )
    return start + length // 2


def _one_window(
    length: int, balls: int, limit: int, seed: int, capacity: int | None = None
) -> tuple[int, _WindowRun]:
    """``window_simulate`` over a one-window chunk: a run of ``balls``
    stations with seed ``seed``, capped at ``limit`` slots, with a bin buffer
    of ``capacity``."""
    return _one_chunk([length], balls, limit, seed, length if capacity is None else capacity)


def _one_chunk(
    lengths: list[int], balls: int, cap: int, seed: int, capacity: int
) -> tuple[int, _WindowRun]:
    """``window_simulate`` over one chunk of ``lengths``, as :func:`_one_window`."""
    library = native.KERNEL.get()
    assert library is not None
    run = _WindowRun(
        remaining=balls, cap=cap, budget=native.SLOTS_PER_CALL, stream=native.stream(seed)
    )
    chunk = array("q", lengths)
    bins = np.empty(capacity, dtype=np.uint8)
    status = library.window_simulate(
        ctypes.byref(run), chunk.buffer_info()[0], len(chunk), bins.ctypes.data, bins.size
    )
    return status, run


def _reference_counters(
    generator: np.random.Generator, length: int, balls: int, limit: int
) -> tuple[int, int, int, int, int]:
    """``(start, remaining, successes, silences, collisions)`` after one
    window of the Python loop, thrown by ``_throw_reference``."""
    _, (silent, delivered, last, before) = _throw_reference(generator, length, balls, limit)
    simulated = limit
    if delivered == balls:  # the solving window ends at its final delivery
        simulated, silent = last + 1, before
    return simulated, balls - delivered, delivered, silent, simulated - silent - delivered


def _counters(run: _WindowRun) -> tuple[int, int, int, int, int]:
    return run.start, run.remaining, run.successes, run.silences, run.collisions


def _saturation_edge(length: int) -> int:
    """The fewest balls ``_saturated`` calls saturating for ``length`` bins."""
    low, high = 2 * length - 1, 4 * length  # fewer than 2 balls a bin never saturate
    while not _saturated(length, high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if _saturated(length, middle):
            high = middle
        else:
            low = middle
    return high


class DoubledBackon(ExpBackonBackoff):
    """A user-defined schedule: Algorithm 2's windows, each twice as long."""

    name = "test-doubled-backon"

    def window_lengths(self):
        for length in super().window_lengths():
            yield 2 * length


class TestCompiledThrowIsExact:
    """The compiled window loop's runs are the Python loop's, field for field."""

    def test_cases_are_every_registered_windowed_protocol(self):
        registered = sorted(
            name for name, cls in PROTOCOLS.items() if cls.protocol_kind == "windowed"
        )
        assert sorted(WINDOWED_SPECS) == registered

    @pytest.mark.parametrize("k", [1, 2, 3, 150, 2048, 10_000])
    @pytest.mark.parametrize("spec", WINDOWED_SPECS)
    def test_runs_equal_the_reference(self, spec, k):
        seeds = derive_seeds(k, 10) + WORD_BOUNDARY_SEEDS
        results = _assert_paths_agree(build_protocol(spec, k=k), k, seeds)
        assert all(result.solved for result in results)

    @pytest.mark.parametrize("where", ["first-slot", "saturated", "thrown", "window-boundary"])
    @pytest.mark.parametrize("spec", WINDOWED_SPECS)
    def test_caps_cut_both_paths_alike(self, spec, where):
        k = 2048
        protocol = build_protocol(spec, k=k)
        for seed in derive_seeds(17, 10):
            cap = _cap(_windows(protocol, k, seed), where)
            (result,) = _assert_paths_agree(protocol, k, [seed], max_slots=cap)
            assert not result.solved
            assert result.slots_simulated == cap
            assert result.successes + result.collisions + result.silences == cap

    def test_subclass_with_its_own_schedule_takes_the_compiled_path(self):
        results = _assert_paths_agree(DoubledBackon(), 300, derive_seeds(5, 10))
        assert all(result.solved for result in results)
        assert results != _window_runs("compiled", ExpBackonBackoff(), 300, derive_seeds(5, 10))

    @pytest.mark.parametrize(
        "length,balls,limit",
        [(1, 1, 1), (2, 3, 1), (7, 20, 7), (1000, 700, 300), (1000, 701, 1000),
         (2**20, 10**5, 2**20), (2**20, 10**5 + 1, 2**20)],
    )
    def test_a_window_takes_exactly_its_balls_draws(self, length, balls, limit):
        """The kernel seeds the run's generator, its counts are the reference
        tally's, and the generator is left, with the half numpy keeps after
        an odd ball count, where ``generator.integers(0, length, size=balls,
        dtype=np.uint32)`` leaves numpy's."""
        reference = np.random.default_rng(9)
        status, run = _one_window(length, balls, limit, 9)
        assert status == window_module._DONE
        assert (run.windows, run.thrown, run.saturated) == (1, 1, 0)
        assert _counters(run) == _reference_counters(reference, length, balls, limit)
        assert run.stream.generator() == reference.bit_generator.state

    def test_a_kept_half_is_the_next_windows_first_draw(self):
        """Three balls in a two-slot window never all deliver and leave a
        half kept; the next window of the chunk draws it first, as numpy's
        next ``integers`` call does."""
        for seed in derive_seeds(14, 20):
            reference = np.random.default_rng(seed)
            status, run = _one_chunk([2, 64], 3, 66, seed, 64)
            start, remaining, successes, silences, collisions = _reference_counters(
                reference, 2, 3, 2
            )
            assert reference.bit_generator.state["has_uint32"] == 1
            second = _reference_counters(reference, 64, remaining, 64)
            assert status == window_module._DONE
            assert (run.windows, run.thrown) == (2, 2)
            assert _counters(run) == (
                start + second[0], second[1], successes + second[2], silences + second[3],
                collisions + second[4],
            )
            assert run.stream.generator() == reference.bit_generator.state

    def test_every_limit_of_a_seventeen_slot_window(self):
        """Limits 1 to 17 tally whole 8-slot words, the tail bytes after them,
        and solving windows whose last delivery falls in the tail."""
        last_in_tail = 0
        for balls, seed, limit in itertools.product((1, 2, 3, 9), range(20), range(1, 18)):
            reference = np.random.default_rng(seed)
            _, run = _one_window(17, balls, limit, seed)
            expected = _reference_counters(reference, 17, balls, limit)
            assert _counters(run) == expected, (balls, seed, limit)
            assert run.stream.generator() == reference.bit_generator.state
            last_in_tail += expected[1] == 0 and expected[0] > limit - limit % 8
        assert last_in_tail > 0

    @pytest.mark.parametrize("k", [10**6 + 1, 10**6 - 1, 3])
    def test_rejection_heavy_windows_equal_the_reference(self, k):
        """641 · 6,700,417 = 2³² + 1, so Lemire's threshold for a window of
        6,700,417 slots is w − 1: about one half in 641 takes the rejection
        step and one output in 320 leaves the two-ball loop."""
        length = 6_700_417
        assert (2**32 - length) % length == length - 1
        windows = 20
        results = _assert_paths_agree(
            Listed([length] * windows), k, [0, 5, 2**64 + 1], max_slots=windows * length
        )
        assert all(result.solved for result in results)

    def test_a_window_too_wide_to_throw_is_refused(self):
        """A thrown window that a ``uint32`` draw cannot cover raises the same
        error on both loops; a saturated one of any width takes no draws."""
        for path in PATHS:
            with pytest.raises(ValueError, match=r"at most 2\*\*32 - 1 = 4294967295 slots"):
                _window_runs(path, Listed([2**32]), 3, [0])
        (result,) = _assert_paths_agree(Listed([2**33]), 2**40, [0], max_slots=2**33)
        assert (result.slots_simulated, result.collisions, result.metadata["windows"]) == (
            2**33, 2**33, 1,
        )

    def test_window_wider_than_the_bin_buffer_is_handed_back(self):
        """A thrown window that does not fit the bin buffer is not started:
        no draws, no counters, and ``position`` names it for the resume."""
        status, run = _one_window(4, 3, 4, 0, capacity=3)
        assert status == window_module._GROW
        assert (run.position, run.windows, run.start, run.remaining) == (0, 0, 0, 3)
        assert run.stream.generator() == native._numpy_generator(0)

    def test_saturation_test_equals_the_reference(self):
        """The kernel's saturation test is ``_saturated``.  With an empty bin
        buffer every window the kernel would throw is handed back, so the
        status tells its verdict; the pairs straddle the saturation edge."""
        rng = np.random.default_rng(2011)
        lengths = np.unique(np.geomspace(1, 2**24, 400).astype(np.int64)).tolist()
        pairs = [
            (int(length), int(length * ratio))
            for length, ratio in zip(
                rng.integers(1, 2**20, 3000), np.exp(rng.uniform(0.0, math.log(200.0), 3000))
            )
        ]
        for length in lengths:
            edge = _saturation_edge(length)
            pairs += [(length, balls) for balls in (edge - 1, edge, edge + 1)]
        verdicts = [
            _one_window(length, balls, length, 0, capacity=0)[0] != window_module._GROW
            for length, balls in pairs
        ]
        assert verdicts == [_saturated(length, balls) for length, balls in pairs]
        assert 0 < sum(verdicts) < len(pairs)

    def test_compiled_run_calls_once_per_schedule_chunk(self, kernel_calls):
        """Chunks of 8, 16, 32 and 64 windows: four calls for EBB's 80."""
        result = WindowEngine().simulate(ExpBackonBackoff(), 1000, seed=derive_seeds(1, 1)[0])
        assert result.metadata["windows"] == 80
        assert kernel_calls == {"window_simulate": 4}

    @pytest.mark.parametrize("spec", WINDOWED_SPECS)
    def test_paused_calls_resume_where_they_stopped(self, spec, kernel_calls, monkeypatch):
        """A call returns at the first window after ``native.SLOTS_PER_CALL``
        slots and the next one carries on there: with a budget of one slot
        every call runs one window, and the runs do not move."""
        k, seeds = 300, derive_seeds(12, 4)
        protocol = build_protocol(spec, k=k)
        python = _window_runs("python", protocol, k, seeds)
        monkeypatch.setattr(native, "SLOTS_PER_CALL", 1)
        for seed, reference in zip(seeds, python):
            kernel_calls.clear()
            result = WindowEngine().simulate(protocol, k, seed=seed)
            assert result.to_dict() == reference.to_dict()
            assert kernel_calls == {"window_simulate": result.metadata["windows"]}

    @pytest.mark.parametrize("spec", WINDOWED_SPECS)
    def test_runs_with_many_windows_make_fewer_calls_than_windows(self, spec, kernel_calls):
        for seed in derive_seeds(3, 3):
            kernel_calls.clear()
            result = WindowEngine().simulate(build_protocol(spec, k=2048), 2048, seed=seed)
            if result.metadata["windows"] > 16:
                assert 0 < sum(kernel_calls.values()) < result.metadata["windows"]

    def test_schedule_errors_past_the_run_end_are_never_raised(self):
        """A chunk is pulled ahead of the run, but an error of the schedule's
        future (exhaustion, a bad length, the back-off safety cap) is raised
        only if the run reaches that window, on both loops."""

        class SafetyCapped(WindowedProtocol):
            name = "test-safety-capped"

            def window_lengths(self):
                yield 1
                raise RuntimeError("window grew beyond the safety cap")

        class BadLength(WindowedProtocol):
            name = "test-bad-length"

            def window_lengths(self):
                yield 1
                yield 0

        class Ends(WindowedProtocol):
            name = "test-ends"

            def window_lengths(self):
                yield 1

        for protocol in (SafetyCapped(), BadLength(), Ends()):
            (result,) = _assert_paths_agree(protocol, 1, [5])
            assert result.solved and result.metadata["windows"] == 1
        for path in PATHS:
            with pytest.raises(RuntimeError, match="safety cap"):
                _window_runs(path, SafetyCapped(), 2, [5])
            with pytest.raises(ValueError, match="window length"):
                _window_runs(path, BadLength(), 2, [5])
            with pytest.raises(RuntimeError, match="exhausted with 2 messages left"):
                _window_runs(path, Ends(), 2, [5])

    def test_concurrent_runs_equal_serial_runs(self):
        """Threads share the library but not a bin buffer: with more threads
        than cores and a tiny switch interval, every run is its serial self.
        The last three threads share one prototype, and so one schedule,
        whose windows outgrow the first bin buffer: they pull its chunks
        concurrently, and their runs take the ``_GROW`` path."""

        def make_jobs():
            shared = build_protocol("exp-backon-backoff", k=10_000)
            return [
                (build_protocol(spec, k=k), k, derive_seeds(k + index, 3))
                for index, (spec, k) in enumerate(
                    [("exp-backon-backoff", 10_000), ("loglog-iterated-backoff", 10_000),
                     ("exp-backon-backoff", 2048), ("polynomial-backoff", 4096)]
                )
            ] + [(shared, 10_000, derive_seeds(index, 3)) for index in range(3)]

        jobs = make_jobs()
        serial = [_window_runs("compiled", *job) for job in make_jobs()]
        reached = min(result.metadata["windows"] for runs in serial[-3:] for result in runs)
        windows = itertools.islice(jobs[-1][0].spawn().window_lengths(), reached)
        assert max(windows) > window_module._FIRST_BINS
        threaded: list = [None] * len(jobs)

        def work(index):
            protocol, k, seeds = jobs[index]
            threaded[index] = [WindowEngine().simulate(protocol, k, seed=seed) for seed in seeds]

        compiled = window_module._M_WINDOW_RUNS.labels(path="compiled")
        before = compiled.value

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,)) for index in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a window run hung"
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert compiled.value - before == sum(len(seeds) for _, _, seeds in jobs)

    def test_a_thread_keeps_the_bin_buffer_a_run_grew(self):
        """A k = 10^5 EBB run grows its thread's bin buffer, and the thread
        keeps it; k = 10 runs after it on that thread equal the runs of a
        fresh thread, which throw into a first-size buffer."""
        seeds = derive_seeds(11, 5)
        fresh: dict = {}
        grown: dict = {}

        def work(out, grow_first):
            if grow_first:
                WindowEngine().simulate(ExpBackonBackoff(), 100_000, seed=3)
            out["runs"] = [WindowEngine().simulate(ExpBackonBackoff(), 10, seed=s) for s in seeds]
            out["bins"] = window_module._BINS.buffer[0].size

        for out, grow_first in ((fresh, False), (grown, True)):
            thread = threading.Thread(target=work, args=(out, grow_first))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "a window run hung"
        assert fresh["bins"] == window_module._FIRST_BINS
        assert grown["bins"] > window_module._FIRST_BINS
        assert grown["runs"] == fresh["runs"]


class Listed(WindowedProtocol):
    """A user-defined schedule: the windows of a list attribute."""

    name = "test-listed"

    def __init__(self, lengths):
        self.lengths = list(lengths)

    def window_lengths(self):
        yield from self.lengths


class CutShort(Listed):
    """The windows of a list attribute, then an error."""

    name = "test-cut-short"

    def window_lengths(self):
        yield from self.lengths
        raise RuntimeError("schedule cut short")


class CountedBackon(ExpBackonBackoff):
    """Algorithm 2's schedule, counting the schedules anyone pulls."""

    name = "test-counted-backon"
    pulled: list = []

    def window_lengths(self):
        CountedBackon.pulled.append(self)
        return super().window_lengths()


class SlowCopy:
    """An attribute whose deep copy sleeps, so another thread runs meanwhile."""

    def __init__(self) -> None:
        self.copying = threading.Event()

    def __deepcopy__(self, memo):
        self.copying.set()
        time.sleep(0.05)
        return self


class TestSharedSchedule:
    """A protocol instance's compiled runs share one schedule, pulled once."""

    def test_threads_first_reaching_one_instance_share_its_schedule(self):
        """The second of two threads that reach a fresh instance together
        waits for the first one's schedule, rather than copying the instance
        while the first adds the schedule to it (``dictionary changed size
        during iteration``)."""
        protocol, slow, seeds = ExpBackonBackoff(), SlowCopy(), derive_seeds(3, 2)
        protocol.slow = slow
        results: list = [None, None]
        errors: list = []

        def work(index):
            try:
                results[index] = WindowEngine().simulate(protocol, 100, seed=seeds[index])
            except Exception as error:  # noqa: BLE001 - reported by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(index,)) for index in range(2)]
        threads[0].start()
        assert slow.copying.wait(timeout=10)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a window run hung"
        assert errors == []
        assert results == [
            WindowEngine().simulate(ExpBackonBackoff(), 100, seed=seed) for seed in seeds
        ]

    def test_runs_of_one_instance_pull_one_schedule(self):
        seeds = derive_seeds(6, 10)
        CountedBackon.pulled.clear()
        shared = CountedBackon()
        runs = [WindowEngine().simulate(shared, 1000, seed=seed) for seed in seeds]
        assert len(CountedBackon.pulled) == 1
        assert runs == _window_runs("python", CountedBackon(), 1000, seeds)

    def test_runs_still_call_once_per_chunk_they_reach(self, kernel_calls):
        """A run whose windows another run pulled makes the calls it made alone."""
        protocol, seed = ExpBackonBackoff(), derive_seeds(1, 1)[0]
        WindowEngine().simulate(protocol, 10_000, seed=seed)
        kernel_calls.clear()
        result = WindowEngine().simulate(protocol, 1000, seed=seed)
        assert result.metadata["windows"] == 80
        assert kernel_calls == {"window_simulate": 4}

    def test_a_parameter_change_between_runs_pulls_the_new_schedule(self):
        seed = derive_seeds(4, 1)[0]
        protocol = ExpBackonBackoff()
        before = WindowEngine().simulate(protocol, 1000, seed=seed)
        protocol.delta = 0.3
        after = WindowEngine().simulate(protocol, 1000, seed=seed)
        assert after == WindowEngine().simulate(ExpBackonBackoff(delta=0.3), 1000, seed=seed)
        assert after != before

    def test_an_attribute_changed_in_place_pulls_the_new_schedule(self):
        seed = derive_seeds(5, 1)[0]
        protocol = Listed([4] * 40)
        before = WindowEngine().simulate(protocol, 3, seed=seed)
        protocol.lengths[:] = [64] * 40
        after = WindowEngine().simulate(protocol, 3, seed=seed)
        assert after == WindowEngine().simulate(Listed([64] * 40), 3, seed=seed)
        assert after != before

    def test_copies_and_pickles_of_an_instance_pull_their_own(self):
        import copy
        import pickle

        protocol, seeds = ExpBackonBackoff(), derive_seeds(9, 3)
        runs = [WindowEngine().simulate(protocol, 500, seed=seed) for seed in seeds]
        for clone in (copy.deepcopy(protocol), pickle.loads(pickle.dumps(protocol)),
                      protocol.spawn()):
            assert [WindowEngine().simulate(clone, 500, seed=seed) for seed in seeds] == runs

    def test_a_schedule_error_is_raised_in_every_run_that_reaches_it(self):
        """Eight saturated one-slot windows fill the first chunk; the error
        ends the second chunk.  Runs that end before it never raise it, on
        both loops, and every run that reaches it raises it, with the
        traceback of the schedule's raise each time."""
        protocol, k, seeds = CutShort([1] * 8 + [5] * 6), 10, derive_seeds(8, 30)
        outcomes = {path: [] for path in PATHS}
        depths = []
        for path in PATHS:
            for seed in seeds:
                try:
                    (result,) = _window_runs(path, protocol, k, [seed])
                except RuntimeError as error:
                    assert str(error) == "schedule cut short"
                    outcomes[path].append("raised")
                    if path == "compiled":
                        depths.append(len(traceback.extract_tb(error.__traceback__)))
                else:
                    outcomes[path].append(result.to_dict())
        assert outcomes["compiled"] == outcomes["python"]
        assert 0 < outcomes["compiled"].count("raised") < len(seeds)
        assert len(set(depths)) == 1
