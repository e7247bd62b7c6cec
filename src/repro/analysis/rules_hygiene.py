"""Hygiene rules: exception discipline and annotation coverage.

The fault-injection layer (PR 7) deliberately made
:class:`~repro.service.reliability.SimulatedCrash` a ``BaseException`` so
that ``except Exception`` recovery paths cannot swallow a simulated process
death.  That guarantee only holds while nobody writes a *bare* ``except:`` or
an ``except BaseException:`` that fails to re-raise — ``EXC001``/``EXC002``
enforce exactly that, everywhere.  ``EXC003`` additionally flags broad
``except Exception`` handlers in the modules the fault injector reaches
(the service layer and the store/session/federation paths), where swallowing
an unexpected error usually means swallowing an injected fault: each
surviving site must either re-raise or carry an explicit justification
(``# repro: noqa[EXC003]`` or the pre-existing ``# noqa: BLE001`` markers).

``ANN001``/``ANN002`` enforce the typing floor: every module that defines
functions or classes imports ``from __future__ import annotations``, and
every *public* function signature is fully annotated.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.core import AstRule, Finding, ModuleInfo

__all__ = [
    "BareExceptRule",
    "BaseExceptionSwallowRule",
    "BroadExceptRule",
    "FutureAnnotationsRule",
    "PublicApiAnnotationsRule",
]

#: The flake8-bugbear marker the codebase already uses for justified broad
#: handlers; honoured as an EXC003 suppression so history stays green.
_BLE_NOQA_RE = re.compile(r"#\s*noqa:\s*[A-Z0-9, ]*\bBLE001\b")


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a ``raise`` — the common
    cleanup-then-propagate shape.  Lexical: a ``raise`` inside a nested
    function does not count (a callback's raise does not propagate this
    handler's exception)."""
    for node in _walk_body(handler.body):
        if isinstance(node, ast.Raise):
            return True
    return False


def _walk_body(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            yield child
            yield from _walk_child(child)


def _walk_child(node: ast.AST) -> Iterator[ast.AST]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield child
        yield from _walk_child(child)


def _names_in_type(node: ast.expr | None) -> set[str]:
    """Exception-class names matched by an ``except <type>`` clause."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        names: set[str] = set()
        for element in node.elts:
            names |= _names_in_type(element)
        return names
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


class BareExceptRule(AstRule):
    """No bare ``except:`` — it swallows ``SimulatedCrash`` and ``KeyboardInterrupt``."""

    id = "EXC001"
    name = "no-bare-except"
    description = (
        "a bare `except:` catches BaseException, so it swallows the chaos "
        "layer's SimulatedCrash (and Ctrl-C); name the exceptions instead"
    )
    scope = None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    "bare `except:` swallows BaseException (including "
                    "SimulatedCrash) — catch specific exception types",
                )


class BaseExceptionSwallowRule(AstRule):
    """``except BaseException`` must re-raise."""

    id = "EXC002"
    name = "no-baseexception-swallow"
    description = (
        "`except BaseException` may only be used for cleanup that re-raises; "
        "a handler that swallows it also swallows SimulatedCrash"
    )
    scope = None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if "BaseException" in _names_in_type(node.type) and not _handler_reraises(node):
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    "`except BaseException` without a re-raise swallows "
                    "SimulatedCrash — add `raise` or narrow the handler",
                )


class BroadExceptRule(AstRule):
    """Broad ``except Exception`` in fault-injected modules needs justification."""

    id = "EXC003"
    name = "no-unjustified-broad-except"
    description = (
        "in modules the fault injector reaches, `except Exception` must "
        "re-raise or carry an explicit justification "
        "(`# repro: noqa[EXC003]` or `# noqa: BLE001`)"
    )
    #: Modules reachable from the chaos hooks: the whole service layer plus
    #: the session/store/federation paths the ``chaos:`` backend wraps.
    scope = (
        "repro.service",
        "repro.scenarios.session",
        "repro.scenarios.store",
        "repro.scenarios.store_sqlite",
        "repro.scenarios.store_chaos",
        "repro.scenarios.federation",
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if "Exception" not in _names_in_type(node.type):
                continue
            if _handler_reraises(node):
                continue
            if _BLE_NOQA_RE.search(module.line_text(node.lineno)):
                continue
            yield Finding(
                module.relpath,
                node.lineno,
                self.id,
                "broad `except Exception` in a fault-injected module — "
                "narrow the types, re-raise, or justify with "
                "`# noqa: BLE001 - <reason>`",
            )


class FutureAnnotationsRule(AstRule):
    """Modules that define anything import ``from __future__ import annotations``."""

    id = "ANN001"
    name = "future-annotations"
    description = (
        "every module defining functions or classes must start with "
        "`from __future__ import annotations` (lazy annotations keep "
        "import-time cheap and forward references legal)"
    )
    scope = None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        defines = any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(module.tree)
        )
        if not defines:
            return
        for node in module.tree.body:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(alias.name == "annotations" for alias in node.names)
            ):
                return
        yield Finding(
            module.relpath,
            1,
            self.id,
            "module defines functions/classes but lacks "
            "`from __future__ import annotations`",
        )


class PublicApiAnnotationsRule(AstRule):
    """Public functions and methods carry full type annotations."""

    id = "ANN002"
    name = "public-api-annotations"
    description = (
        "public (non-underscore) module-level functions and class methods "
        "must annotate every parameter and the return type"
    )
    scope = None

    #: Dunders whose signatures are fixed by the object protocol anyway.
    _EXEMPT_DUNDERS = frozenset(
        {"__repr__", "__str__", "__hash__", "__len__", "__iter__", "__next__",
         "__enter__", "__exit__", "__eq__", "__lt__", "__le__", "__gt__",
         "__ge__", "__contains__", "__bool__", "__del__", "__copy__",
         "__deepcopy__", "__getstate__", "__setstate__", "__post_init__"}
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree.body, in_class=False)

    def _check_scope(
        self, module: ModuleInfo, stmts: list[ast.stmt], in_class: bool
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, ast.ClassDef):
                if not stmt.name.startswith("_"):
                    yield from self._check_scope(module, stmt.body, in_class=True)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, stmt, in_class)

    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Finding]:
        name = func.name
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            return
        if name in self._EXEMPT_DUNDERS:
            return
        args = func.args
        positional = list(args.posonlyargs) + list(args.args)
        if in_class and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [arg.arg for arg in positional + list(args.kwonlyargs) if arg.annotation is None]
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"*{star.arg}")
        if missing:
            yield Finding(
                module.relpath,
                func.lineno,
                self.id,
                f"public {'method' if in_class else 'function'} `{name}` has "
                f"unannotated parameter(s): {', '.join(missing)}",
            )
        if func.returns is None:
            yield Finding(
                module.relpath,
                func.lineno,
                self.id,
                f"public {'method' if in_class else 'function'} `{name}` lacks "
                "a return annotation",
            )
