"""Statistical integration tests of the paper's headline claims.

These tests run the actual protocols at moderate sizes and check the claims of
Section 5 that are robust enough to assert on a handful of runs:

* One-fail Adaptive's measured steps/k ratio is very close to the constant
  2(δ+1) of its analysis (the paper calls the analysis "very tight");
* Exp Back-on/Back-off stays well below its (loose) analysis constant and
  within a factor ~3 of the trivial lower bound k;
* both new protocols respect their theorems' high-probability upper bounds;
* the qualitative ordering of the curves at moderate k: the two new protocols
  are faster on average than Loglog-iterated Back-off;
* the genie-aided ALOHA yardstick sits near e, below all of them;
* the two new protocols' makespans are stable from run to run, and Log-fails
  Adaptive's are not;
* across each theorem's δ range, One-fail Adaptive tracks 2(δ+1) and Exp
  Back-on/Back-off stays below 4(1+1/δ).

Each assertion uses generous margins so the tests are deterministic in
practice (fixed seeds) and robust to the statistical noise of small samples.
"""

from __future__ import annotations

import pytest

from repro.core import analysis
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import simulate
from repro.experiments.ablations import run_ebb_delta_ablation, run_ofa_delta_ablation
from repro.experiments.variance import run_variance_experiment
from repro.protocols.aloha import SlottedAloha
from repro.protocols.backoff import LogLogIteratedBackoff
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.util.rng import derive_seeds

K = 3_000
RUNS = 6


def mean_ratio(protocol_factory, k: int = K, runs: int = RUNS, root_seed: int = 1) -> float:
    ratios = []
    for seed in derive_seeds(root_seed, runs):
        result = simulate(protocol_factory(), k=k, seed=seed)
        assert result.solved
        ratios.append(result.steps_per_node)
    return sum(ratios) / len(ratios)


@pytest.fixture(scope="module")
def measured_ratios():
    return {
        "ofa": mean_ratio(OneFailAdaptive, root_seed=11),
        "ebb": mean_ratio(ExpBackonBackoff, root_seed=12),
        "llib": mean_ratio(LogLogIteratedBackoff, root_seed=13),
        "aloha": mean_ratio(lambda: SlottedAloha(k=K), root_seed=14),
        "lfa2": mean_ratio(lambda: LogFailsAdaptive.for_k(K, xi_t=0.5), root_seed=15),
    }


class TestTheorem1:
    def test_ofa_ratio_matches_analysis_constant(self, measured_ratios):
        """Table 1: the measured ratio equals 2(delta+1) ~= 7.4 almost exactly."""
        constant = analysis.ofa_leading_constant(2.72)
        assert measured_ratios["ofa"] == pytest.approx(constant, rel=0.12)

    def test_ofa_within_high_probability_bound(self):
        for seed in derive_seeds(21, 4):
            result = simulate(OneFailAdaptive(), k=K, seed=seed)
            assert result.makespan <= analysis.ofa_makespan_bound(K, log_square_constant=50.0)


class TestTheorem2:
    def test_ebb_within_high_probability_bound(self):
        for seed in derive_seeds(22, 4):
            result = simulate(ExpBackonBackoff(), k=K, seed=seed)
            assert result.makespan <= analysis.ebb_makespan_bound(K)

    def test_ebb_measured_ratio_well_below_analysis(self, measured_ratios):
        """Section 5: measured 4-8 versus the 14.9 of the analysis."""
        assert measured_ratios["ebb"] < 0.7 * analysis.ebb_leading_constant(0.366)

    def test_ebb_linear_in_k(self):
        ratios = [mean_ratio(ExpBackonBackoff, k=k, runs=3, root_seed=31) for k in (500, 4_000)]
        assert max(ratios) / min(ratios) < 1.8


class TestEvaluationOrdering:
    def test_new_protocols_beat_llib(self, measured_ratios):
        assert measured_ratios["ofa"] < measured_ratios["llib"] * 1.1
        assert measured_ratios["ebb"] < measured_ratios["llib"]

    def test_aloha_is_the_floor(self, measured_ratios):
        assert measured_ratios["aloha"] == pytest.approx(2.718, rel=0.15)
        for key in ("ofa", "ebb", "llib", "lfa2"):
            assert measured_ratios[key] > measured_ratios["aloha"]

    def test_all_ratios_in_plausible_band(self, measured_ratios):
        for key, ratio in measured_ratios.items():
            assert 2.0 < ratio < 20.0, (key, ratio)


class TestPredictability:
    def test_new_protocols_more_predictable_than_lfa(self):
        """Section 5: the proposed protocols have "very stable" ratios, LFA does not.

        Measured as the coefficient of variation of the makespan over
        independent runs at k = 1000: One-fail Adaptive's dispersion is an
        order of magnitude smaller than the Log-fails Adaptive reconstruction's.
        """
        k = 1_000

        def coefficient_of_variation(factory, root_seed):
            makespans = []
            for seed in derive_seeds(root_seed, 8):
                result = simulate(factory(), k=k, seed=seed)
                assert result.solved
                makespans.append(result.makespan)
            mean = sum(makespans) / len(makespans)
            variance = sum((value - mean) ** 2 for value in makespans) / (len(makespans) - 1)
            return (variance ** 0.5) / mean

        ofa_cv = coefficient_of_variation(OneFailAdaptive, root_seed=41)
        lfa_cv = coefficient_of_variation(lambda: LogFailsAdaptive.for_k(k), root_seed=42)
        assert ofa_cv < 0.02
        assert lfa_cv > ofa_cv

    def test_stability_at_ten_thousand_nodes(self):
        """The stability claim at k = 10^4, through the variance experiment."""
        result = run_variance_experiment(k_values=(10_000,), runs=10, seed=2011)
        ofa_cv = result.cell("ofa", 10_000).coefficient_of_variation
        ebb_cv = result.cell("ebb", 10_000).coefficient_of_variation
        lfa_cv = result.cell("lfa-xt2", 10_000).coefficient_of_variation
        assert ofa_cv < 0.05
        assert ebb_cv < 0.05
        assert lfa_cv > ofa_cv


class TestDeltaAblations:
    def test_ofa_tracks_its_constant_for_every_delta(self):
        """Theorem 1's constant 2(delta+1) is tight across (e, 2.99]: within 20 %."""
        result = run_ofa_delta_ablation(k_values=(1_000,), runs=5, seed=7)
        for cell in result.cells:
            gap = abs(cell.ratio.mean - cell.analysis_constant) / cell.analysis_constant
            assert gap < 0.2, (cell.delta, cell.ratio.mean)

    def test_ebb_below_its_constant_for_every_delta(self):
        """Theorem 2's constant 4(1+1/delta) bounds the ratio across (0, 1/e)."""
        result = run_ebb_delta_ablation(k_values=(1_000,), runs=5, seed=11)
        for cell in result.cells:
            assert cell.ratio.mean < cell.analysis_constant, (cell.delta, cell.ratio.mean)


class TestUnboundedness:
    def test_new_protocols_take_no_knowledge(self):
        assert OneFailAdaptive.requires_knowledge == frozenset()
        assert ExpBackonBackoff.requires_knowledge == frozenset()

    def test_same_protocol_object_valid_for_any_k(self):
        """The same (knowledge-free) protocol prototype solves any network size."""
        protocol = OneFailAdaptive()
        for k in (1, 17, 400):
            result = simulate(protocol, k=k, seed=5)
            assert result.solved

    def test_baselines_declare_their_knowledge(self):
        assert "epsilon" in LogFailsAdaptive.requires_knowledge
        assert "k" in SlottedAloha.requires_knowledge
