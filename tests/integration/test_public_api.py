"""Integration tests of the top-level public API (what README advertises)."""

from __future__ import annotations

import pytest

import repro
from repro import (
    ExpBackonBackoff,
    OneFailAdaptive,
    PROTOCOLS,
    SimulationResult,
    simulate,
)


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_registry_lists_all_shipped_protocols(self):
        names = PROTOCOLS
        expected = {
            "one-fail-adaptive",
            "exp-backon-backoff",
            "log-fails-adaptive",
            "loglog-iterated-backoff",
            "exponential-backoff",
            "polynomial-backoff",
            "log-backoff",
            "slotted-aloha",
            "binary-splitting",
        }
        assert expected <= set(names)

    def test_registry_roundtrip(self):
        for name in ("one-fail-adaptive", "exp-backon-backoff"):
            assert PROTOCOLS[name].name == name


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        result = simulate(OneFailAdaptive(), k=1_000, seed=1)
        assert isinstance(result, SimulationResult)
        assert result.solved
        assert 5.0 < result.steps_per_node < 10.0

    def test_both_protocols_beat_the_llib_baseline_asymptotics(self):
        """Both new protocols are linear; at k = 2000 their ratios stay below ~9."""
        for protocol in (OneFailAdaptive(), ExpBackonBackoff()):
            result = simulate(protocol, k=2_000, seed=3)
            assert result.steps_per_node < 9.0
