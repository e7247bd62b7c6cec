"""Import-time contract rules: the registries' promises, machine-checked.

Protocols and store backends join spec-string registries; these rules verify
that everything in a registry carries a conforming declaration:

* ``REG002`` — every registered protocol declares a valid
  ``protocol_kind`` and round-trips through
  :func:`~repro.protocols.base.build_protocol` back to its own class.
* ``REG003`` — every registered store backend is concrete and implements
  the full :class:`~repro.scenarios.store.StoreBackend` ABC with
  call-compatible signatures.

Unlike the AST rules these import :mod:`repro` and inspect the live
registries, so a declaration that parses but lies (a protocol whose
``from_spec`` cannot rebuild it) is caught here.  Findings point at the
defining class's source location.
"""

from __future__ import annotations

import inspect
from collections.abc import Iterator

from repro.analysis.core import Finding, ModuleInfo, ProjectRule, register_rule

__all__ = [
    "ProtocolContractRule",
    "StoreContractRule",
]

#: The protocol kinds the engine selection rule dispatches on.
_VALID_KINDS = frozenset({"fair", "windowed", "generic"})


def _location(obj: object) -> tuple[str, int]:
    """(source path, line) of a class/function, for finding placement."""
    try:
        path = inspect.getsourcefile(obj) or "<unknown>"
        line = inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return "<unknown>", 1
    return path, line


class _ImportContractRule(ProjectRule):
    """Shared plumbing: project rules ignore per-module AST state."""

    def applies_to(self, module: ModuleInfo) -> bool:  # pragma: no cover - unused
        return False


@register_rule
class ProtocolContractRule(_ImportContractRule):
    """Registered protocols declare a kind and round-trip through build_protocol."""

    id = "REG002"
    name = "protocol-registry-contract"
    description = (
        "every registered protocol declares protocol_kind in "
        "{fair, windowed, generic} and `build_protocol(name, k)` rebuilds an "
        "instance of the registered class"
    )

    #: Contention size used for the round-trip probe (any small k works:
    #: protocols requiring knowledge of k derive their parameters from it).
    probe_k = 8

    def check_project(self) -> Iterator[Finding]:
        from repro.protocols import available_protocols, build_protocol, get_protocol_class

        for name in available_protocols():
            cls = get_protocol_class(name)
            path, line = _location(cls)
            kind = getattr(cls, "protocol_kind", None)
            if kind not in _VALID_KINDS:
                yield Finding(
                    path, line, self.id,
                    f"protocol {name!r} ({cls.__name__}) declares invalid "
                    f"protocol_kind {kind!r}; expected one of {sorted(_VALID_KINDS)}",
                )
            if inspect.isabstract(cls):
                yield Finding(
                    path, line, self.id,
                    f"registered protocol {name!r} ({cls.__name__}) is abstract "
                    "— it can never be instantiated from a spec",
                )
                continue
            try:
                instance = build_protocol(name, self.probe_k)
            except Exception as error:  # noqa: BLE001 - any failure is the finding
                yield Finding(
                    path, line, self.id,
                    f"protocol {name!r} does not round-trip through "
                    f"build_protocol(k={self.probe_k}): {type(error).__name__}: {error}",
                )
                continue
            if not isinstance(instance, cls):
                yield Finding(
                    path, line, self.id,
                    f"build_protocol({name!r}, k={self.probe_k}) returned "
                    f"{type(instance).__name__}, not {cls.__name__}",
                )


@register_rule
class StoreContractRule(_ImportContractRule):
    """Registered store backends fully implement the StoreBackend ABC."""

    id = "REG003"
    name = "store-backend-contract"
    description = (
        "every registered store backend is concrete and implements every "
        "StoreBackend abstract method with a call-compatible signature"
    )

    def check_project(self) -> Iterator[Finding]:
        from repro.scenarios.store import (
            StoreBackend,
            available_store_backends,
            store_backend_class,
        )

        base_methods = sorted(getattr(StoreBackend, "__abstractmethods__", ()))
        for name in available_store_backends():
            cls = store_backend_class(name)
            path, line = _location(cls)
            if not issubclass(cls, StoreBackend):
                yield Finding(
                    path, line, self.id,
                    f"store backend {name!r} ({cls.__name__}) is not a "
                    "StoreBackend subclass",
                )
                continue
            if inspect.isabstract(cls):
                missing = sorted(getattr(cls, "__abstractmethods__", ()))
                yield Finding(
                    path, line, self.id,
                    f"store backend {name!r} ({cls.__name__}) is abstract — "
                    f"unimplemented: {', '.join(missing)}",
                )
                continue
            if not callable(getattr(cls, "from_spec", None)):
                yield Finding(
                    path, line, self.id,
                    f"store backend {name!r} ({cls.__name__}) lacks the "
                    "from_spec(location) constructor classmethod",
                )
            for method_name in base_methods:
                impl = getattr(cls, method_name, None)
                base = getattr(StoreBackend, method_name)
                if impl is None or impl is base:
                    continue  # abstractness already checked above
                problem = _signature_mismatch(base, impl)
                if problem is not None:
                    yield Finding(
                        path, line, self.id,
                        f"store backend {name!r}: `{method_name}` signature is "
                        f"not call-compatible with StoreBackend.{method_name} "
                        f"({problem})",
                    )


def _signature_mismatch(base: object, impl: object) -> str | None:
    """Why ``impl`` cannot be called like ``base``, or ``None`` if it can.

    Positional parameters must match in name and order (extras allowed only
    with defaults); every base keyword must be accepted (directly or via
    ``**kwargs``).
    """
    try:
        base_sig = inspect.signature(base)
        impl_sig = inspect.signature(impl)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return None
    base_params = list(base_sig.parameters.values())
    impl_params = list(impl_sig.parameters.values())
    impl_has_varkw = any(p.kind is p.VAR_KEYWORD for p in impl_params)
    impl_positional = [
        p for p in impl_params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    base_positional = [
        p for p in base_params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    for index, param in enumerate(base_positional):
        if index >= len(impl_positional):
            if any(p.kind is p.VAR_POSITIONAL for p in impl_params):
                continue
            return f"missing positional parameter {param.name!r}"
        if impl_positional[index].name != param.name:
            return (
                f"positional parameter {index} is "
                f"{impl_positional[index].name!r}, expected {param.name!r}"
            )
    for extra in impl_positional[len(base_positional):]:
        if extra.default is inspect.Parameter.empty:
            return f"extra required parameter {extra.name!r}"
    impl_names = {p.name for p in impl_params}
    for param in base_params:
        if param.kind is param.KEYWORD_ONLY and param.name not in impl_names and not impl_has_varkw:
            return f"missing keyword parameter {param.name!r}"
    return None
