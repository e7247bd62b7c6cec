"""Tests for the Figure 1 and Table 1 reproduction harnesses (scaled down)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.config import ExperimentConfig, paper_protocol_suite
from repro.experiments.figure1 import reproduce_figure1
from repro.experiments.table1 import PAPER_TABLE1, reproduce_table1


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(k_values=[10, 100], runs=2, seed=5)


@pytest.fixture(scope="module")
def tiny_figure(tiny_config):
    return reproduce_figure1(config=tiny_config)


@pytest.fixture(scope="module")
def tiny_table(tiny_config):
    return reproduce_table1(config=tiny_config)


class TestFigure1:
    def test_all_curves_present(self, tiny_figure):
        assert set(tiny_figure.series) == {"lfa-xt2", "lfa-xt10", "ofa", "ebb", "llib"}

    def test_series_shapes(self, tiny_figure):
        for ks, means in tiny_figure.series.values():
            assert ks == [10, 100]
            assert len(means) == 2
            assert all(mean >= k for mean, k in zip(means, ks))

    def test_render_plot_mentions_all_labels(self, tiny_figure):
        text = tiny_figure.render_plot(width=40, height=12)
        assert "One-Fail Adaptive" in text
        assert "Exp Back-on/Back-off" in text

    def test_render_table_has_k_rows(self, tiny_figure):
        table = tiny_figure.render_table()
        assert "10" in table and "100" in table

    def test_custom_spec_subset(self, tiny_config):
        specs = [spec for spec in paper_protocol_suite() if spec.key in ("ofa", "ebb")]
        figure = reproduce_figure1(config=tiny_config, specs=specs)
        assert set(figure.series) == {"ofa", "ebb"}


class TestTable1:
    def test_measured_ratios_reasonable(self, tiny_table):
        for spec in tiny_table.specs:
            for k in (10, 100):
                ratio = tiny_table.measured_ratio(spec.key, k)
                assert 1.0 <= ratio < 1_000

    def test_rows_structure(self, tiny_table):
        headers, body = tiny_table.rows()
        assert headers == ["k", "10", "100", "Analysis"]
        assert len(body) == 5
        assert body[2][0] == "One-Fail Adaptive"

    def test_analysis_column_values(self, tiny_table):
        headers, body = tiny_table.rows()
        analysis_by_label = {row[0]: row[-1] for row in body}
        assert analysis_by_label["One-Fail Adaptive"] == "7.4"
        assert analysis_by_label["Exp Back-on/Back-off"] == "14.9"

    def test_comparison_rows_include_paper_values(self, tiny_table):
        headers, body = tiny_table.comparison_rows()
        assert headers[-1] == "paper steps/k"
        ofa_rows = [row for row in body if row[0] == "One-Fail Adaptive"]
        assert ofa_rows[0][-1] == "4.0"  # the paper's value at k = 10

    def test_render_formats(self, tiny_table):
        assert "Analysis" in tiny_table.render()
        assert tiny_table.render(markdown=True).startswith("| k")
        assert "measured steps/k" in tiny_table.render_comparison()


class TestPaperReferenceTable:
    def test_reference_covers_all_protocols_and_sizes(self):
        for key, row in PAPER_TABLE1.items():
            assert "analysis" in row
            for exponent in range(1, 8):
                assert 10**exponent in row, (key, exponent)

    def test_reference_ofa_value(self):
        assert PAPER_TABLE1["ofa"][1_000_000] == 7.4


class TestCommandLineEntryPoints:
    def test_figure1_main_runs(self, capsys, tmp_path):
        exit_code = main(
            ["figure1", "--max-k", "100", "--runs", "1", "--quiet", "--output-dir", str(tmp_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Figure 1" in captured
        assert (tmp_path / "figure1_runs.csv").exists()
        assert (tmp_path / "figure1_summary.json").exists()

    def test_table1_main_runs(self, capsys, tmp_path):
        exit_code = main(
            ["table1", "--max-k", "100", "--runs", "1", "--quiet", "--output-dir", str(tmp_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Table 1" in captured
        assert (tmp_path / "table1_measured.md").exists()
        assert (tmp_path / "table1_comparison.md").exists()


class TestSweepFlags:
    """Worker count and stores, through the paper's experiments."""

    def test_workers_flag_still_honoured(self, tiny_config):
        serial = reproduce_figure1(config=tiny_config)
        parallel = reproduce_figure1(
            config=ExperimentConfig(k_values=[10, 100], runs=2, seed=5, workers=2)
        )
        assert serial.series == parallel.series

    def test_store_backed_figure1_identical(self, tiny_config, tmp_path):
        stored = reproduce_figure1(config=tiny_config, store_dir=tmp_path)
        resumed = reproduce_figure1(config=tiny_config, store_dir=tmp_path)
        in_memory = reproduce_figure1(config=tiny_config)
        assert stored.series == in_memory.series
        assert resumed.series == in_memory.series
