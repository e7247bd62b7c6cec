"""Tests for the CSV / gnuplot / Markdown / JSON exporters."""

from __future__ import annotations

import csv
import json

import pytest

from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.export import write_json, write_markdown, write_series_dat, write_sweep_csv
from repro.experiments.runner import run_sweep


@pytest.fixture(scope="module")
def small_sweep():
    specs = [
        ProtocolSpec(key="ofa", label="One-Fail Adaptive", spec="one-fail-adaptive")
    ]
    config = ExperimentConfig(k_values=[10, 30], runs=3, seed=1)
    return run_sweep(specs, config)


class TestCsvExport:
    def test_one_row_per_run(self, small_sweep, tmp_path):
        path = write_sweep_csv(small_sweep, tmp_path / "runs.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6  # 2 sizes x 3 runs

    def test_columns_and_values(self, small_sweep, tmp_path):
        path = write_sweep_csv(small_sweep, tmp_path / "runs.csv")
        with path.open() as handle:
            row = next(csv.DictReader(handle))
        assert row["protocol_key"] == "ofa"
        assert row["solved"] == "True"
        assert int(row["makespan"]) >= int(row["k"])
        assert float(row["steps_per_node"]) > 1.0

    def test_creates_parent_directories(self, small_sweep, tmp_path):
        path = write_sweep_csv(small_sweep, tmp_path / "nested" / "dir" / "runs.csv")
        assert path.exists()


class TestGnuplotExport:
    def test_one_file_per_protocol(self, small_sweep, tmp_path):
        paths = write_series_dat(small_sweep, tmp_path / "series")
        assert [path.name for path in paths] == ["ofa.dat"]

    def test_file_contents(self, small_sweep, tmp_path):
        path = write_series_dat(small_sweep, tmp_path / "series")[0]
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        data_lines = [line.split() for line in lines[1:]]
        assert [int(fields[0]) for fields in data_lines] == [10, 30]
        assert all(float(fields[1]) >= 10 for fields in data_lines)


class TestMarkdownExport:
    def test_write_markdown(self, tmp_path):
        path = write_markdown(["a", "b"], [[1, 2.5]], tmp_path / "table.md")
        text = path.read_text()
        assert text.startswith("| a")
        assert "2.50" in text


class TestJsonExport:
    def test_structure(self, small_sweep, tmp_path):
        path = write_json(small_sweep, tmp_path / "summary.json")
        payload = json.loads(path.read_text())
        assert payload["config"]["runs"] == 3
        assert len(payload["cells"]) == 2
        cell = payload["cells"][0]
        assert cell["protocol_key"] == "ofa"
        assert cell["solved_runs"] == 3
        assert cell["makespan"]["mean"] > 0
        assert cell["ratio"]["mean"] > 1.0
