"""Import-time contract rule: the protocol registry's promise, machine-checked.

Protocols join a spec-string registry; ``REG002`` verifies that every
registered protocol declares a valid ``protocol_kind`` and round-trips
through :func:`~repro.protocols.base.build_protocol` back to its own class.

Unlike the AST rules this imports :mod:`repro` and inspects the live
registry, so a declaration that parses but lies (a protocol whose
``from_spec`` cannot rebuild it) is caught here.  Findings point at the
defining class's source location.
"""

from __future__ import annotations

import inspect
from collections.abc import Iterator

from repro.analysis.core import Finding, ProjectRule, register_rule

__all__ = ["ProtocolContractRule"]

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


@register_rule
class ProtocolContractRule(ProjectRule):
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
