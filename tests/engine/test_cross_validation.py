"""Cross-engine validation: the specialised engines agree with the node-level one.

These are the most important tests of the engine layer: they confirm that the
fair-protocol and balls-in-bins reductions used for the large sweeps produce
the same makespan distribution as the exact per-node simulation of the paper's
model (up to sampling noise, which the z-score criterion accounts for).
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import pytest

from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.fair_engine import FairEngine
from repro.engine.slot_engine import SlotEngine
from repro.engine.validation import compare_engines, makespan_samples
from repro.engine.window_engine import WindowEngine
from repro.protocols.aloha import SlottedAloha
from repro.protocols.log_fails_adaptive import LogFailsAdaptive


class TestMakespanSamples:
    def test_sample_count_and_determinism(self):
        engine = FairEngine()
        samples = makespan_samples(engine, OneFailAdaptive(), k=20, runs=8, root_seed=1)
        assert len(samples) == 8
        assert samples == makespan_samples(engine, OneFailAdaptive(), k=20, runs=8, root_seed=1)

    def test_unsolved_run_raises(self):
        capped = FairEngine()
        engine = SimpleNamespace(name=capped.name, simulate=partial(capped.simulate, max_slots=400))
        with pytest.raises(RuntimeError):
            makespan_samples(engine, LogFailsAdaptive.for_k(200), k=200, runs=2, root_seed=0)


class TestFairEngineAgainstSlotEngine:
    @pytest.mark.parametrize("k", [5, 30])
    def test_one_fail_adaptive(self, k):
        comparison = compare_engines(
            FairEngine(), SlotEngine(), OneFailAdaptive(), k=k, runs=60, root_seed=3
        )
        assert comparison.compatible, comparison.summary()

    def test_slotted_aloha(self):
        comparison = compare_engines(
            FairEngine(), SlotEngine(), SlottedAloha(k=20), k=20, runs=60, root_seed=5
        )
        assert comparison.compatible, comparison.summary()

    def test_log_fails_adaptive(self):
        comparison = compare_engines(
            FairEngine(), SlotEngine(), LogFailsAdaptive.for_k(20), k=20, runs=60, root_seed=7
        )
        assert comparison.compatible, comparison.summary()


class TestWindowEngineAgainstSlotEngine:
    @pytest.mark.parametrize("k", [5, 30])
    def test_exp_backon_backoff(self, k):
        comparison = compare_engines(
            WindowEngine(), SlotEngine(), ExpBackonBackoff(), k=k, runs=60, root_seed=11
        )
        assert comparison.compatible, comparison.summary()


class TestComparisonMechanics:
    def test_identical_engines_always_compatible(self):
        comparison = compare_engines(
            FairEngine(), FairEngine(), OneFailAdaptive(), k=15, runs=30, root_seed=13
        )
        assert comparison.compatible

    def test_divergent_distributions_detected(self):
        """A protocol with a different delta has a visibly different makespan mean."""
        fast = OneFailAdaptive(delta=2.72)
        slow = OneFailAdaptive(delta=2.99)

        class MislabelledEngine(FairEngine):
            """Engine that silently swaps the protocol — simulates an engine bug."""

            def simulate(self, protocol, k, **kwargs):
                return super().simulate(slow, k, **kwargs)

        comparison = compare_engines(
            MislabelledEngine(), FairEngine(), fast, k=400, runs=40, root_seed=17, z_threshold=3.0
        )
        assert comparison.mean_a > comparison.mean_b

    def test_summary_mentions_protocol(self):
        comparison = compare_engines(
            FairEngine(), FairEngine(), OneFailAdaptive(), k=10, runs=10, root_seed=19
        )
        assert "one-fail-adaptive" in comparison.summary()
