"""Observability rules: library output goes through the obs layer.

PR 9 gave the library a structured observability stack (:mod:`repro.obs`):
JSON logs that carry trace ids, metrics, and span traces.  A stray
``print()`` in library code bypasses all of it — the line has no level, no
trace id, can't be silenced by ``--quiet``/log level, and corrupts
machine-readable stdout (the ``--json`` modes, the service's wire format).
``OBS001`` keeps library modules print-free.

Exempt by design: :mod:`repro.cli` (stdout *is* its interface) and
:mod:`repro.util.textplot` (renders terminal plots).  The experiment
scripts' report printing — where stdout is the reproduced artefact itself —
stays, justified line-by-line with ``# repro: noqa[OBS001]``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import AstRule, Finding, ModuleInfo

__all__ = ["NoPrintInLibraryRule"]

#: Modules whose stdout is their user interface, exempt from OBS001.
_EXEMPT_MODULES = frozenset({"repro.cli", "repro.util.textplot"})


class NoPrintInLibraryRule(AstRule):
    """Library code logs through :mod:`repro.obs`, never ``print()``."""

    id = "OBS001"
    name = "no-print-in-library"
    description = (
        "library code under repro/ must not call print() — use "
        "repro.obs.get_logger() (structured, levelled, trace-id aware); "
        "only repro.cli and repro.util.textplot own stdout"
    )
    #: Only the installed package: tests and scripts print freely.
    scope = ("repro",)

    def applies_to(self, module: ModuleInfo) -> bool:
        if module.module in _EXEMPT_MODULES:
            return False
        return super().applies_to(module)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    "print() in library code — use repro.obs.get_logger() "
                    "or justify with `# repro: noqa[OBS001] - <reason>`",
                )
