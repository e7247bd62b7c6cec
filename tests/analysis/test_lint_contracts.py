"""Import-time registry-contract rule (REG002).

The conforming side is the repository itself: the live protocol registry
must pass the contract rule.  The violating side injects fake classes and
checks each contract failure is reported.
"""

from __future__ import annotations

import pytest

from repro.analysis.rules_registry import ProtocolContractRule


class TestRealTreeIsClean:
    @pytest.mark.parametrize("rule_cls", [ProtocolContractRule])
    def test_registries_satisfy_their_contracts(self, rule_cls):
        assert list(rule_cls().check_project()) == []


class TestProtocolContract:
    def test_invalid_kind_is_flagged(self, monkeypatch):
        import repro.protocols as protocols

        class WeirdProtocol:
            name = "weird"
            protocol_kind = "quantum"

        monkeypatch.setattr(protocols, "available_protocols", lambda: ["weird"])
        monkeypatch.setattr(protocols, "get_protocol_class", lambda name: WeirdProtocol)
        monkeypatch.setattr(protocols, "build_protocol", lambda name, k: WeirdProtocol())
        findings = list(ProtocolContractRule().check_project())
        assert len(findings) == 1
        assert "invalid protocol_kind" in findings[0].message

    def test_broken_round_trip_is_flagged(self, monkeypatch):
        import repro.protocols as protocols

        class FragileProtocol:
            name = "fragile"
            protocol_kind = "fair"

        def explode(name, k):
            raise RuntimeError("spec cannot rebuild this")

        monkeypatch.setattr(protocols, "available_protocols", lambda: ["fragile"])
        monkeypatch.setattr(protocols, "get_protocol_class", lambda name: FragileProtocol)
        monkeypatch.setattr(protocols, "build_protocol", explode)
        findings = list(ProtocolContractRule().check_project())
        assert len(findings) == 1
        assert "does not round-trip" in findings[0].message

    def test_wrong_class_round_trip_is_flagged(self, monkeypatch):
        import repro.protocols as protocols

        class DeclaredProtocol:
            name = "declared"
            protocol_kind = "fair"

        class OtherProtocol:
            pass

        monkeypatch.setattr(protocols, "available_protocols", lambda: ["declared"])
        monkeypatch.setattr(protocols, "get_protocol_class", lambda name: DeclaredProtocol)
        monkeypatch.setattr(protocols, "build_protocol", lambda name, k: OtherProtocol())
        findings = list(ProtocolContractRule().check_project())
        assert len(findings) == 1
        assert "returned OtherProtocol" in findings[0].message
