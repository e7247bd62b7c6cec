"""Concurrency rules: lock discipline and lock-acquisition ordering.

``LCK001`` machine-checks the convention stated in
:class:`~repro.service.jobs.Job`'s docstring: mutable state shared between
the submitting threads and the worker pool is only written under the owning
manager's lock.  A class opts in by *declaring* its guarded fields::

    class JobManager:
        _lock_guarded = frozenset({"_queue", "_jobs", ...})

The rule then flags every write (assignment, augmented assignment, ``del``,
subscript store, or mutating method call like ``.append``/``.pop``) to a
guarded ``self.<field>`` that is not lexically inside a ``with self.<lock>``
block, where the lock attributes are inferred from ``__init__``
(``self.X = threading.Lock()/RLock()/Condition(...)``; a condition built on
an existing lock aliases it).  Escapes, in order of preference: run the write
under the lock, move it into a helper whose name ends in ``_locked`` or whose
docstring says the "lock must be held", or (last resort) a
``# repro: noqa[LCK001]``.  ``__init__`` is exempt (no sharing before
construction completes); nested functions are *not* assumed to run under the
enclosing lock (callbacks usually fire later, on another thread).

``LCK002`` builds a cross-module lock-acquisition-order graph from lexically
nested ``with`` blocks on inferred lock attributes (and module-level locks)
and reports (a) nested acquisition of the same non-reentrant lock and (b)
order inversions — lock pairs acquired in both orders anywhere in the tree,
the classic deadlock shape.  The analysis is lexical, not interprocedural:
it proves the *absence* of inversions only among directly nested
acquisitions, which is exactly the pattern the codebase allows.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import dotted_name, import_aliases, resolve_call
from repro.analysis.core import AstRule, Finding, ModuleInfo

__all__ = ["LockDisciplineRule", "LockOrderRule"]

#: Method calls that mutate their receiver (dict/list/deque/set vocabulary).
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "rotate",
        "sort",
        "reverse",
    }
)

_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock", "threading.Condition"})

#: Docstring phrases that mark a helper as called-with-lock-held by contract.
_HELD_PHRASES = ("lock must be held", "lock held", "caller holds the lock")


def _lock_attrs(cls: ast.ClassDef, aliases: dict[str, str]) -> dict[str, str]:
    """Lock attribute -> canonical lock attribute (conditions alias their lock).

    Inferred from ``__init__``: ``self._lock = threading.Lock()`` maps
    ``_lock -> _lock``; ``self._cond = threading.Condition(self._lock)`` maps
    ``_cond -> _lock`` (same underlying lock).
    """
    locks: dict[str, str] = {}
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for node in ast.walk(item):
                if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                    continue
                factory = resolve_call(node.value, aliases)
                if factory not in _LOCK_FACTORIES:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        canonical = target.attr
                        if factory == "threading.Condition" and node.value.args:
                            inner = node.value.args[0]
                            if (
                                isinstance(inner, ast.Attribute)
                                and isinstance(inner.value, ast.Name)
                                and inner.value.id == "self"
                            ):
                                canonical = inner.attr
                        locks[target.attr] = locks.get(canonical, canonical)
    return locks


def _guarded_fields(cls: ast.ClassDef) -> frozenset[str] | None:
    """The class's declared ``_lock_guarded`` field set, or ``None``."""
    for item in cls.body:
        value = None
        if isinstance(item, ast.Assign):
            names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            if "_lock_guarded" in names:
                value = item.value
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.target.id == "_lock_guarded":
                value = item.value
        if value is None:
            continue
        if isinstance(value, ast.Call):  # frozenset({...}) / set([...]) / tuple(...)
            value = value.args[0] if value.args else None
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            fields = [
                element.value
                for element in value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]
            return frozenset(fields)
        return frozenset()
    return None


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guarded_root(node: ast.expr, guarded: frozenset[str]) -> str | None:
    """The guarded field a store-target/receiver is rooted at, if any.

    Handles ``self._jobs`` (direct), ``self._jobs[x]`` (subscript store) and
    deeper chains like ``self._totals[key]``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    attr = _self_attr(node)
    if attr is not None and attr in guarded:
        return attr
    return None


def _with_locks(node: ast.With, locks: dict[str, str]) -> list[str]:
    """Canonical lock attrs acquired by one ``with`` statement."""
    acquired = []
    for item in node.items:
        expr = item.context_expr
        # ``with self._lock:`` and ``with self._cond:`` both hold the lock.
        attr = _self_attr(expr)
        if attr is None and isinstance(expr, ast.Call):
            # e.g. ``with self._lock_for(key):`` — not a plain attribute;
            # conservatively not treated as a class lock.
            continue
        if attr is not None and attr in locks:
            acquired.append(locks[attr])
    return acquired


def _expr_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Expression nodes *owned* by one statement: header expressions and
    simple-statement bodies, but not nested statements (those are walked
    separately with their own held-lock state) and not deferred bodies
    (lambdas/nested defs run later, possibly without the lock)."""
    stack: list[ast.AST] = []
    for _, value in ast.iter_fields(stmt):
        values = value if isinstance(value, list) else [value]
        for node in values:
            if isinstance(node, ast.AST) and not isinstance(node, (ast.stmt, ast.ExceptHandler)):
                stack.append(node)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.ExceptHandler)):
                stack.append(child)


def _docstring_marks_held(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    docstring = ast.get_docstring(func) or ""
    lowered = docstring.lower()
    return any(phrase in lowered for phrase in _HELD_PHRASES)


class LockDisciplineRule(AstRule):
    """Writes to declared-guarded fields happen under the class lock."""

    id = "LCK001"
    name = "lock-discipline"
    description = (
        "attribute writes to a class's declared `_lock_guarded` fields must "
        "be lexically inside `with self.<lock>` (or in a `*_locked` / "
        "'lock must be held' helper); `__init__` is exempt"
    )
    scope = None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guarded = _guarded_fields(cls)
            if not guarded:
                continue
            locks = _lock_attrs(cls, aliases)
            for func in cls.body:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if func.name == "__init__" or func.name.endswith("_locked"):
                    continue
                if _docstring_marks_held(func):
                    continue
                yield from self._check_body(
                    func.body, held=False, module=module, cls=cls, func=func,
                    guarded=guarded, locks=locks,
                )

    # ------------------------------------------------------------------ walk
    def _check_body(
        self,
        stmts: list[ast.stmt],
        held: bool,
        module: ModuleInfo,
        cls: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: frozenset[str],
        locks: dict[str, str],
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function runs later, possibly on another thread:
                # never assume the enclosing lock is still held.
                yield from self._check_body(
                    stmt.body, held=False, module=module, cls=cls, func=func,
                    guarded=guarded, locks=locks,
                )
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquires = isinstance(stmt, ast.With) and bool(_with_locks(stmt, locks))
                yield from self._check_body(
                    stmt.body, held=held or acquires, module=module, cls=cls,
                    func=func, guarded=guarded, locks=locks,
                )
                continue
            if not held:
                yield from self._check_stmt(stmt, module, cls, func, guarded)
            # Descend into compound statements (if/for/while/try...).
            for field_name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field_name, None)
                if nested:
                    yield from self._check_body(
                        nested, held=held, module=module, cls=cls, func=func,
                        guarded=guarded, locks=locks,
                    )
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._check_body(
                    handler.body, held=held, module=module, cls=cls, func=func,
                    guarded=guarded, locks=locks,
                )

    def _check_stmt(
        self,
        stmt: ast.stmt,
        module: ModuleInfo,
        cls: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: frozenset[str],
    ) -> Iterator[Finding]:
        hits: list[tuple[int, str, str]] = []  # (line, field, how)
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target] if getattr(stmt, "value", None) is not None else []
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            field = _guarded_root(target, guarded)
            if field is not None:
                hits.append((target.lineno, field, "write to"))
        # Mutating method calls in the statement's own expressions.
        for node in _expr_nodes(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                field = _guarded_root(node.func.value, guarded)
                if field is not None:
                    hits.append((node.lineno, field, f"`.{node.func.attr}()` on"))
        for line, field, how in hits:
            yield Finding(
                module.relpath,
                line,
                self.id,
                f"{how} guarded field `self.{field}` of {cls.name} outside "
                f"`with self.<lock>` (in {func.name}); declared in "
                f"{cls.name}._lock_guarded",
            )


class LockOrderRule(AstRule):
    """Cross-module lock-acquisition-order graph: report inversions."""

    id = "LCK002"
    name = "lock-acquisition-order"
    description = (
        "nested `with <lock>` blocks define a lock ordering; acquiring two "
        "locks in both orders anywhere in the tree (or re-acquiring a "
        "non-reentrant lock) is a potential deadlock"
    )
    scope = None

    def __init__(self) -> None:
        #: (outer key, inner key) -> first (path, line) that acquires in that order
        self._edges: dict[tuple[str, str], tuple[str, int]] = {}
        self._reentrant: list[Finding] = []

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        module_locks = self._module_locks(module.tree, aliases)
        for cls in module.tree.body:
            if isinstance(cls, ast.ClassDef):
                locks = _lock_attrs(cls, aliases)
                for func in cls.body:
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._walk(
                            func.body, [], module, f"{cls.name}.", locks, module_locks
                        )
            elif isinstance(cls, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(cls.body, [], module, "", {}, module_locks)
        return iter(self._reentrant_drain())

    def _reentrant_drain(self) -> list[Finding]:
        found, self._reentrant = self._reentrant, []
        return found

    @staticmethod
    def _module_locks(tree: ast.Module, aliases: dict[str, str]) -> frozenset[str]:
        names = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if resolve_call(node.value, aliases) in _LOCK_FACTORIES:
                    names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        return frozenset(names)

    def _walk(
        self,
        stmts: list[ast.stmt],
        held: list[str],
        module: ModuleInfo,
        prefix: str,
        locks: dict[str, str],
        module_locks: frozenset[str],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(stmt.body, [], module, prefix, locks, module_locks)
                continue
            acquired: list[str] = []
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    expr = item.context_expr
                    attr = _self_attr(expr)
                    if attr is not None and attr in locks:
                        acquired.append(f"{prefix}{locks[attr]}")
                    elif isinstance(expr, ast.Name) and expr.id in module_locks:
                        acquired.append(f"{module.module}.{expr.id}")
                for key in acquired:
                    if key in held and not module.suppressed(stmt.lineno, self.id):
                        self._reentrant.append(
                            Finding(
                                module.relpath,
                                stmt.lineno,
                                self.id,
                                f"nested re-acquisition of non-reentrant lock `{key}`"
                                " — deadlocks at runtime",
                            )
                        )
                    for outer in held:
                        if outer != key:
                            self._edges.setdefault(
                                (outer, key), (module.relpath, stmt.lineno)
                            )
            for field_name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field_name, None)
                if nested:
                    self._walk(
                        nested, held + acquired, module, prefix, locks, module_locks
                    )
            for handler in getattr(stmt, "handlers", []) or []:
                self._walk(
                    handler.body, held + acquired, module, prefix, locks, module_locks
                )

    def finish(self) -> Iterator[Finding]:
        for (outer, inner), (path, line) in sorted(self._edges.items()):
            # Report each inverted pair once, from its lexically first edge.
            if (inner, outer) in self._edges and outer < inner:
                other_path, other_line = self._edges[(inner, outer)]
                yield Finding(
                    path,
                    line,
                    self.id,
                    f"lock-order inversion: `{outer}` -> `{inner}` here, but "
                    f"`{inner}` -> `{outer}` at {other_path}:{other_line}",
                )
