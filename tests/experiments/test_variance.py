"""Tests for the predictability (makespan-dispersion) experiment."""

from __future__ import annotations

import pytest

from repro.experiments.config import ProtocolSpec, paper_protocol_suite
from repro.experiments.variance import run_variance_experiment


@pytest.fixture(scope="module")
def result():
    return run_variance_experiment(k_values=(500,), runs=5, seed=3)


class TestVarianceExperiment:
    def test_covers_full_suite(self, result):
        assert {cell.spec_key for cell in result.cells} == {
            "lfa-xt2", "lfa-xt10", "ofa", "ebb", "llib",
        }

    def test_statistics_consistent(self, result):
        for cell in result.cells:
            assert cell.makespan.count == 5
            assert cell.makespan.minimum <= cell.makespan.mean <= cell.makespan.maximum
            assert cell.coefficient_of_variation >= 0
            assert cell.spread >= 0

    def test_ofa_is_stable(self, result):
        """The paper: One-fail Adaptive has a "very stable" behaviour."""
        assert result.cell("ofa", 500).coefficient_of_variation < 0.05

    def test_lfa_less_stable_than_ofa(self, result):
        assert (
            result.cell("lfa-xt2", 500).coefficient_of_variation
            > result.cell("ofa", 500).coefficient_of_variation
        )

    def test_render(self, result):
        text = result.render()
        assert "CoV" in text
        assert "One-Fail Adaptive" in text

    def test_cell_lookup_error(self, result):
        with pytest.raises(KeyError):
            result.cell("ofa", 12345)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_variance_experiment(runs=1)
        with pytest.raises(ValueError):
            run_variance_experiment(k_values=())

    def test_custom_spec_subset(self):
        specs = [ProtocolSpec(key="ofa", label="OFA", spec="one-fail-adaptive")]
        result = run_variance_experiment(k_values=(100,), runs=3, specs=specs)
        assert len(result.cells) == 1
