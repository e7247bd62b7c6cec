"""Tests for the generic sweep runner."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.runner import run_sweep
from repro.scenarios.session import ResultSet


def small_specs() -> list[ProtocolSpec]:
    return [
        ProtocolSpec(key="ofa", label="One-Fail Adaptive", spec="one-fail-adaptive"),
        ProtocolSpec(key="ebb", label="Exp Back-on/Back-off", spec="exp-backon-backoff"),
    ]


def small_config(runs: int = 3) -> ExperimentConfig:
    return ExperimentConfig(k_values=[10, 50], runs=runs, seed=99)


class TestRunSweep:
    def test_all_cells_present(self):
        sweep = run_sweep(small_specs(), small_config())
        assert set(sweep.cells) == {("ofa", 10), ("ofa", 50), ("ebb", 10), ("ebb", 50)}

    def test_runs_per_cell(self):
        sweep = run_sweep(small_specs(), small_config(runs=4))
        assert all(len(cell.results) == 4 for cell in sweep.cells.values())

    def test_all_runs_solved(self):
        sweep = run_sweep(small_specs(), small_config())
        assert all(cell.all_solved for cell in sweep.cells.values())

    def test_deterministic(self):
        first = run_sweep(small_specs(), small_config())
        second = run_sweep(small_specs(), small_config())
        for key in first.cells:
            assert first.cells[key].makespans == second.cells[key].makespans

    def test_seeds_differ_across_runs(self):
        sweep = run_sweep(small_specs(), small_config(runs=5))
        seeds = [run.seed for run in sweep.cell("ofa", 10).results]
        assert len(set(seeds)) == 5

    def test_series_sorted_by_k(self):
        sweep = run_sweep(small_specs(), small_config())
        ks, means = sweep.series("ofa")
        assert ks == [10, 50]
        assert all(value > 0 for value in means)

    def test_ratio_series(self):
        sweep = run_sweep(small_specs(), small_config())
        ks, ratios = sweep.ratio_series("ofa")
        _, means = sweep.series("ofa")
        assert ratios == pytest.approx([mean / k for mean, k in zip(means, ks)])

    def test_unknown_cell_raises(self):
        sweep = run_sweep(small_specs(), small_config())
        with pytest.raises(KeyError):
            sweep.cell("nope", 10)

    def test_progress_callback_invoked(self):
        calls = []
        run_sweep(
            small_specs()[:1],
            ExperimentConfig(k_values=[10], runs=2, seed=1),
            progress=lambda spec, k, done, total: calls.append((spec.key, k, done, total)),
        )
        assert calls == [("ofa", 10, 1, 2), ("ofa", 10, 2, 2)]

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], small_config())

    def test_repeated_spec_key_rejected(self):
        """Two specs under one key would both run and one would overwrite the other."""
        ofa, ebb = small_specs()
        twin = ProtocolSpec(key=ofa.key, label=ebb.label, spec=ebb.spec)
        with pytest.raises(ValueError, match="'ofa'"):
            run_sweep([ofa, twin], small_config(runs=2))

    def test_cells_are_session_result_sets(self):
        sweep = run_sweep(small_specs(), small_config(runs=2))
        cell = sweep.cell("ebb", 50)
        assert isinstance(cell, ResultSet)
        assert cell.scenario.protocol == "exp-backon-backoff"
        assert cell.scenario.k == 50

    def test_totals(self):
        sweep = run_sweep(small_specs(), small_config(runs=2))
        assert sweep.total_runs() == 8
        assert sweep.total_elapsed_seconds() > 0

    def test_cell_statistics(self):
        sweep = run_sweep(small_specs(), small_config())
        cell = sweep.cell("ofa", 50)
        stats = cell.makespan_statistics()
        assert stats.count == 3
        assert stats.minimum <= cell.mean_makespan <= stats.maximum
        assert cell.mean_ratio == pytest.approx(cell.mean_makespan / 50)
