"""Tests for the experiment configuration and the paper's protocol suite."""

from __future__ import annotations

import pytest

from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.experiments.config import (
    DEFAULT_MAX_K,
    ExperimentConfig,
    ProtocolSpec,
    paper_k_values,
    paper_protocol_suite,
)
from repro.protocols.backoff import LogLogIteratedBackoff
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.scenarios.spec import build_protocol


class TestPaperKValues:
    def test_default_powers_of_ten(self):
        values = paper_k_values(max_k=100_000)
        assert values == [10, 100, 1_000, 10_000, 100_000]

    def test_default_ceiling(self):
        assert max(paper_k_values()) == DEFAULT_MAX_K

    def test_ceiling_between_powers(self):
        assert paper_k_values(max_k=5_000) == [10, 100, 1_000]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            paper_k_values(max_k=5)


class TestPaperProtocolSuite:
    def test_five_curves_by_default(self):
        suite = paper_protocol_suite()
        assert [spec.key for spec in suite] == ["lfa-xt2", "lfa-xt10", "ofa", "ebb", "llib"]

    def test_factories_build_correct_types(self):
        suite = {spec.key: spec for spec in paper_protocol_suite()}
        assert isinstance(build_protocol(suite["ofa"].spec, 100), OneFailAdaptive)
        assert isinstance(build_protocol(suite["ebb"].spec, 100), ExpBackonBackoff)
        assert isinstance(build_protocol(suite["llib"].spec, 100), LogLogIteratedBackoff)
        assert isinstance(build_protocol(suite["lfa-xt2"].spec, 100), LogFailsAdaptive)

    def test_papers_parameters_applied(self):
        suite = {spec.key: spec for spec in paper_protocol_suite()}
        assert build_protocol(suite["ofa"].spec, 10).delta == pytest.approx(2.72)
        assert build_protocol(suite["ebb"].spec, 10).delta == pytest.approx(0.366)
        lfa = build_protocol(suite["lfa-xt10"].spec, 999)
        assert lfa.xi_t == pytest.approx(0.1)
        assert lfa.epsilon == pytest.approx(1 / 1_000)

    def test_analysis_column_values(self):
        suite = {spec.key: spec for spec in paper_protocol_suite()}
        assert suite["ofa"].analysis_text() == "7.4"
        assert suite["ebb"].analysis_text() == "14.9"
        assert suite["lfa-xt2"].analysis_text() == "7.8"
        assert suite["lfa-xt10"].analysis_text() == "4.4"
        assert "lglg" in suite["llib"].analysis_text()

    def test_lfa_factory_uses_its_own_k(self):
        spec = {s.key: s for s in paper_protocol_suite()}["lfa-xt2"]
        assert build_protocol(spec.spec, 10).epsilon != build_protocol(spec.spec, 1_000).epsilon


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig(k_values=[10, 100])
        assert config.runs == 10
        assert config.workers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=[])
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=[10], runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=[0])

    def test_repeated_k_rejected(self):
        """A repeated k would be simulated twice and kept once."""
        with pytest.raises(ValueError, match="k=10"):
            ExperimentConfig(k_values=[10, 100, 10])

    def test_describe(self):
        config = ExperimentConfig(k_values=[10], runs=2, seed=7)
        description = config.describe()
        assert description["k_values"] == [10]
        assert description["runs"] == 2
        assert description["seed"] == 7


class TestProtocolSpec:
    def test_analysis_text_formats_ratio(self):
        spec = ProtocolSpec(
            key="x", label="X", spec="one-fail-adaptive", analysis_ratio=lambda k: 3.14159
        )
        assert spec.analysis_text(float_format=".2f") == "3.14"

    def test_analysis_text_falls_back_to_note(self):
        spec = ProtocolSpec(key="x", label="X", spec="one-fail-adaptive")
        assert spec.analysis_text() == "-"
