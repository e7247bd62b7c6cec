"""Tests for the ablation and dynamic-arrival experiments."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import run_ebb_delta_ablation, run_ofa_delta_ablation
from repro.experiments.dynamic import run_dynamic_experiment


class TestOfaDeltaAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ofa_delta_ablation(deltas=[2.72, 2.95], k_values=(50, 200), runs=2, seed=3)

    def test_grid_size(self, result):
        assert len(result.cells) == 4

    def test_pinned_ratios(self, result):
        """Mean steps/k per (delta, k), as the ablation first measured them."""
        assert {(cell.delta, cell.k): cell.ratio.mean for cell in result.cells} == {
            (2.72, 50): 5.93,
            (2.72, 200): 6.985,
            (2.95, 50): 6.12,
            (2.95, 200): 7.390000000000001,
        }

    def test_analysis_constants_recorded(self, result):
        by_delta = {cell.delta: cell.analysis_constant for cell in result.cells}
        assert by_delta[2.72] == pytest.approx(7.44)
        assert by_delta[2.95] == pytest.approx(7.9)

    def test_render_contains_headers(self, result):
        assert "mean steps/k" in result.render()

    def test_best_delta_defined(self, result):
        assert result.best_delta(200) in {2.72, 2.95}

    def test_best_delta_unknown_k_raises(self, result):
        with pytest.raises(ValueError):
            result.best_delta(999)


class TestEbbDeltaAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ebb_delta_ablation(deltas=[0.1, 0.3], k_values=(200,), runs=2, seed=4)

    def test_grid_size(self, result):
        assert len(result.cells) == 2

    def test_pinned_ratios(self, result):
        """Mean steps/k per (delta, k), as the ablation first measured them."""
        assert {(cell.delta, cell.k): cell.ratio.mean for cell in result.cells} == {
            (0.1, 200): 9.21,
            (0.3, 200): 6.785,
        }

    def test_ratios_positive(self, result):
        assert all(cell.ratio.mean > 1 for cell in result.cells)

    def test_small_delta_not_better(self, result):
        """A very small delta shrinks windows too slowly to help: ratio should not improve."""
        by_delta = {cell.delta: cell.ratio.mean for cell in result.cells}
        assert by_delta[0.1] >= by_delta[0.3] * 0.8


class TestDynamicExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dynamic_experiment(k=24, runs=2, seed=11)

    def test_cells_cover_protocols_and_arrivals(self, result):
        labels = {(cell.protocol_label, cell.arrivals_description) for cell in result.cells}
        assert len(labels) == 6  # 2 protocols x 3 arrival processes

    def test_pinned_means(self, result):
        """Mean makespan and latency per cell, as the experiment first measured them."""
        measured = {
            (cell.protocol_label, cell.arrivals_description): (cell.makespan.mean, cell.latency.mean)
            for cell in result.cells
        }
        assert measured == {
            ("One-Fail Adaptive", "poisson rate=0.05"): (391.0, 0.4583333333333333),
            ("One-Fail Adaptive", "poisson rate=0.2"): (114.0, 1.7083333333333333),
            ("One-Fail Adaptive", "bursty 4x6"): (92.0, 12.125),
            ("Exp Back-on/Back-off", "poisson rate=0.05"): (456.0, 26.3125),
            ("Exp Back-on/Back-off", "poisson rate=0.2"): (133.5, 7.208333333333333),
            ("Exp Back-on/Back-off", "bursty 4x6"): (92.5, 12.25),
        }

    def test_latencies_non_negative(self, result):
        assert all(cell.latency.minimum >= 0 for cell in result.cells)

    def test_makespan_at_least_k(self, result):
        assert all(cell.makespan.mean >= cell.k for cell in result.cells)

    def test_render(self, result):
        text = result.render()
        assert "mean latency" in text
        assert "One-Fail Adaptive" in text

    def test_custom_protocols_and_arrivals(self):
        result = run_dynamic_experiment(
            k=12,
            runs=1,
            protocols=[("OFA", "one-fail-adaptive")],
            arrival_factories=[("poisson", "poisson(rate=0.3)")],
        )
        assert len(result.cells) == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            run_dynamic_experiment(k=1)
