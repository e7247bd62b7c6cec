"""Import-time registry-contract rules (REG001-003).

The conforming side is the repository itself: the live registries must pass
every contract rule.  The violating side injects fake modules/classes and
checks each contract failure is reported.
"""

from __future__ import annotations

import sys
import types

import pytest

from repro.analysis.rules_registry import (
    EngineContractRule,
    ProtocolContractRule,
    StoreContractRule,
)


class TestRealTreeIsClean:
    @pytest.mark.parametrize(
        "rule_cls",
        [EngineContractRule, ProtocolContractRule, StoreContractRule],
    )
    def test_registries_satisfy_their_contracts(self, rule_cls):
        assert list(rule_cls().check_project()) == []


@pytest.fixture
def fake_engine_module():
    """Inject a module into repro.engine holding one violating engine class."""
    name = "repro.engine._lint_contract_fixture"
    module = types.ModuleType(name)
    sys.modules[name] = module
    try:
        yield module
    finally:
        sys.modules.pop(name, None)


class TestEngineContract:
    def test_engine_without_capabilities_is_flagged(self, fake_engine_module):
        class BogusEngine:
            name = "bogus"

        BogusEngine.__module__ = fake_engine_module.__name__
        fake_engine_module.BogusEngine = BogusEngine
        findings = list(EngineContractRule().check_project())
        assert len(findings) == 1
        assert "EngineCapabilities" in findings[0].message

    def test_unregistered_engine_is_flagged(self, fake_engine_module):
        from repro.engine.registry import EngineCapabilities

        class StrayEngine:
            name = "stray-never-registered"
            capabilities = EngineCapabilities(protocol_kinds=frozenset({"fair"}))

        StrayEngine.__module__ = fake_engine_module.__name__
        fake_engine_module.StrayEngine = StrayEngine
        findings = list(EngineContractRule().check_project())
        assert len(findings) == 1
        assert "not registered" in findings[0].message

    def test_helper_classes_are_ignored(self, fake_engine_module):
        class NotAnEngineHelper:  # name does not end in "Engine"
            pass

        NotAnEngineHelper.__module__ = fake_engine_module.__name__
        fake_engine_module.NotAnEngineHelper = NotAnEngineHelper
        assert list(EngineContractRule().check_project()) == []


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


class TestStoreContract:
    def test_non_subclass_backend_is_flagged(self, monkeypatch):
        import repro.scenarios.store as store

        class Impostor:
            pass

        monkeypatch.setattr(store, "available_store_backends", lambda: ["impostor"])
        monkeypatch.setattr(store, "store_backend_class", lambda name: Impostor)
        findings = list(StoreContractRule().check_project())
        assert len(findings) == 1
        assert "not a StoreBackend subclass" in findings[0].message

    def test_abstract_backend_is_flagged(self, monkeypatch):
        import repro.scenarios.store as store

        class HalfDone(store.StoreBackend):
            pass  # implements nothing

        monkeypatch.setattr(store, "available_store_backends", lambda: ["half"])
        monkeypatch.setattr(store, "store_backend_class", lambda name: HalfDone)
        findings = list(StoreContractRule().check_project())
        assert len(findings) == 1
        assert "abstract" in findings[0].message

    def test_signature_drift_is_flagged(self, monkeypatch):
        import repro.scenarios.store as store

        abstract = sorted(store.StoreBackend.__abstractmethods__)
        assert abstract, "StoreBackend should declare abstract methods"

        class Drifted(store.StoreBackend):
            pass

        # Implement every abstract method compatibly except the first, whose
        # positional parameter is renamed.
        first = abstract[0]
        for method_name in abstract:
            base_sig_names = [
                p for p in __import__("inspect").signature(
                    getattr(store.StoreBackend, method_name)
                ).parameters
            ]
            renamed = [
                ("zzz_" + n if method_name == first and i == 1 else n)
                for i, n in enumerate(base_sig_names)
            ]
            namespace: dict = {}
            exec(  # build a def with the (possibly renamed) parameter list
                f"def {method_name}({', '.join(renamed)}): pass", namespace
            )
            setattr(Drifted, method_name, namespace[method_name])
        Drifted.__abstractmethods__ = frozenset()

        monkeypatch.setattr(store, "available_store_backends", lambda: ["drifted"])
        monkeypatch.setattr(store, "store_backend_class", lambda name: Drifted)
        findings = list(StoreContractRule().check_project())
        assert len(findings) == 1
        assert "not call-compatible" in findings[0].message

    def test_store_backend_class_lookup(self):
        from repro.scenarios.store import store_backend_class

        for name in ("jsonl", "sqlite"):
            assert store_backend_class(name).__name__
        with pytest.raises(ValueError, match="unknown store backend"):
            store_backend_class("nope")
