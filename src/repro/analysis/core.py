"""The invariant-linting framework behind ``repro lint``.

Every PR has added invariants that, until now, held only by convention:
engine/protocol randomness must flow through seeded
:class:`~repro.util.rng.RandomSource`/``numpy.random.Generator`` streams,
durations and deadlines must be measured on the monotonic clock, shared
:class:`~repro.service.jobs.JobManager` state must only be written under its
lock, no handler may swallow the chaos layer's
:class:`~repro.service.reliability.SimulatedCrash`, and library code must
not ``print()``.  This module turns those conventions into machine-checked
rules:

* :class:`Finding` — one violation: file, line, rule id, message.
* :class:`AstRule` — the rule interface: a per-module AST walk, with an
  optional cross-module :meth:`AstRule.finish` pass.
* :func:`rule_classes` — the closed id → class table of every rule, like
  the engine and component tables (:data:`repro.engine.ENGINES`,
  :mod:`repro.scenarios.spec`); the CLI, the docs table and the test suite
  all enumerate :func:`available_rules`.
* :func:`load_module` — a per-file AST cache keyed by ``(mtime, size)`` so
  repeated lint runs (and multi-rule runs) parse each file once.
* Suppression — a ``# repro: noqa[rule-id]`` comment on the flagged line
  silences that rule there (``# repro: noqa`` silences every rule); every
  other finding fails the lint.
* :func:`run_lint` — the one entry point: collect files, run rules, apply
  suppressions, return a deterministic :class:`LintReport` (two runs over
  the same tree produce byte-identical JSON).
"""

from __future__ import annotations

import ast
import json
import re
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

__all__ = [
    "Finding",
    "ModuleInfo",
    "AstRule",
    "available_rules",
    "rule_class",
    "rule_classes",
    "load_module",
    "LintReport",
    "run_lint",
]

#: ``# repro: noqa`` or ``# repro: noqa[RULE-1,RULE-2]`` on the flagged line.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_\-,\s]+)\])?")


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location.

    Ordering is ``(path, line, rule, message)`` so reports are deterministic.
    """

    path: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


# --------------------------------------------------------------------------
# Parsed modules + AST cache
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file, shared by every AST rule via the cache."""

    path: Path  #: absolute path on disk
    relpath: str  #: deterministic posix path used in findings
    module: str  #: dotted module name (``repro.…`` when under a repro tree)
    source: str
    tree: ast.Module
    noqa: dict[int, frozenset[str] | None]  #: line -> suppressed ids (None = all)

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``# repro: noqa`` on ``line`` silences ``rule_id``."""
        ids = self.noqa.get(line, frozenset())
        if ids is None:
            return True
        return rule_id in ids

    def line_text(self, line: int) -> str:
        """The raw source line (1-based), or ``""`` past the end."""
        lines = self.source.splitlines()
        return lines[line - 1] if 1 <= line <= len(lines) else ""


def _module_name(path: Path) -> str:
    """Dotted module name: from the last ``repro`` path component when there
    is one (so rule scopes like ``repro.engine`` match files wherever the
    tree is checked out), the bare stem otherwise."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return parts[-1] if parts else ""


def _parse_noqa(source: str) -> dict[int, frozenset[str] | None]:
    table: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            table[lineno] = None
        else:
            table[lineno] = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            )
    return table


#: path -> ((mtime_ns, size), ModuleInfo); repeated runs parse each file once.
_AST_CACHE: dict[Path, tuple[tuple[int, int], ModuleInfo]] = {}
_AST_CACHE_LOCK = threading.Lock()


def load_module(path: str | Path, relpath: str | None = None) -> ModuleInfo:
    """Parse a source file through the ``(mtime, size)``-keyed AST cache.

    Raises :class:`SyntaxError` for unparseable files (reported by
    :func:`run_lint` as a ``parse-error`` finding) and :class:`OSError` for
    unreadable ones.
    """
    path = Path(path).resolve()
    stat = path.stat()
    key = (stat.st_mtime_ns, stat.st_size)
    with _AST_CACHE_LOCK:
        hit = _AST_CACHE.get(path)
        if hit is not None and hit[0] == key:
            return hit[1]
    source = path.read_text(encoding="utf-8")
    info = ModuleInfo(
        path=path,
        relpath=relpath if relpath is not None else path.as_posix(),
        module=_module_name(path),
        source=source,
        tree=ast.parse(source, filename=str(path)),
        noqa=_parse_noqa(source),
    )
    with _AST_CACHE_LOCK:
        _AST_CACHE[path] = (key, info)
    return info


# --------------------------------------------------------------------------
# Rule interface + the closed rule table
# --------------------------------------------------------------------------


class AstRule(ABC):
    """One invariant check that walks one module's AST at a time.

    Subclasses declare ``id``/``name``/``description`` class attributes;
    ``scope`` restricts the rule to dotted-module prefixes (``None`` means
    every linted file).  :meth:`finish` runs once after every module has
    been checked — rules that need cross-module aggregation (the lock-order
    graph) accumulate state in :meth:`check_module` and report from
    :meth:`finish`.
    """

    id: ClassVar[str]
    name: ClassVar[str]
    description: ClassVar[str]
    scope: ClassVar[tuple[str, ...] | None] = None

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.scope is None:
            return True
        return any(
            module.module == prefix or module.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    @abstractmethod
    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one parsed module."""

    def finish(self) -> Iterator[Finding]:
        """Cross-module findings, after every module was checked."""
        return iter(())


def _rules() -> dict[str, type[AstRule]]:
    # Built when asked for: the rule modules import this one.
    from repro.analysis.rules_concurrency import LockDisciplineRule, LockOrderRule
    from repro.analysis.rules_determinism import ClockDisciplineRule, GlobalRandomnessRule
    from repro.analysis.rules_hygiene import (
        BareExceptRule,
        BaseExceptionSwallowRule,
        BroadExceptRule,
        FutureAnnotationsRule,
        PublicApiAnnotationsRule,
    )
    from repro.analysis.rules_obs import NoPrintInLibraryRule

    return {
        cls.id: cls
        for cls in (
            GlobalRandomnessRule,
            ClockDisciplineRule,
            LockDisciplineRule,
            LockOrderRule,
            BareExceptRule,
            BaseExceptionSwallowRule,
            BroadExceptRule,
            FutureAnnotationsRule,
            PublicApiAnnotationsRule,
            NoPrintInLibraryRule,
        )
    }


def available_rules() -> list[str]:
    """Sorted ids of every rule."""
    return sorted(_rules())


def rule_class(rule_id: str) -> type[AstRule]:
    """Look up a rule class by id."""
    try:
        return _rules()[rule_id]
    except KeyError:
        raise ValueError(
            f"unknown rule {rule_id!r}; choose from {available_rules()}"
        ) from None


def rule_classes(rule_ids: Sequence[str] | None = None) -> list[type[AstRule]]:
    """The rule classes for ``rule_ids`` (default: every rule)."""
    ids = available_rules() if rule_ids is None else list(rule_ids)
    return [rule_class(rule_id) for rule_id in ids]


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run; :attr:`findings` are the *actionable*
    ones (noqa-suppressed findings are only counted)."""

    findings: tuple[Finding, ...]
    files: int
    rules: tuple[str, ...]
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        return {
            "findings": [finding.to_dict() for finding in self.findings],
            "files": self.files,
            "rules": list(self.rules),
            "suppressed": self.suppressed,
            "clean": self.clean,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: set[Path] = set()
    for target in paths:
        target = Path(target)
        if target.is_dir():
            files.update(p for p in target.rglob("*.py") if "__pycache__" not in p.parts)
        elif target.suffix == ".py":
            files.add(target)
        else:
            raise ValueError(f"lint target {target} is neither a directory nor a .py file")
    return sorted(files)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
    root: str | Path | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) with the selected rules.

    ``rules`` filters by id (default: every rule); ``root`` anchors the
    deterministic relative paths in findings (default: the current working
    directory).  Unparseable files surface as ``parse-error`` findings
    rather than aborting the run.
    """
    root = Path(root) if root is not None else Path.cwd()
    selected = [cls() for cls in rule_classes(rules)]

    raw: list[Finding] = []
    suppressed = 0
    files = _collect_files(paths)
    for path in files:
        relpath = _relpath(path, root)
        try:
            module = load_module(path, relpath=relpath)
        except SyntaxError as error:
            raw.append(
                Finding(relpath, error.lineno or 1, "parse-error", f"cannot parse: {error.msg}")
            )
            continue
        for rule in selected:
            if not rule.applies_to(module):
                continue
            for finding in rule.check_module(module):
                if module.suppressed(finding.line, finding.rule):
                    suppressed += 1
                else:
                    raw.append(finding)
    for rule in selected:
        raw.extend(rule.finish())

    return LintReport(
        findings=tuple(sorted(raw)),
        files=len(files),
        rules=tuple(sorted(rule.id for rule in selected)),
        suppressed=suppressed,
    )
