"""Determinism rules: seeded randomness and clock discipline.

The repository's headline claims — bit-identical parallel sweeps,
prefix-stable seeds, compiled runs equal to Python-loop runs
— all rest on one convention: *no simulation code draws from global,
unseeded randomness*.  ``RND001`` enforces it inside the simulation packages.
``CLK001`` enforces the companion timing convention: durations, deadlines and
backoff arithmetic use the monotonic clock (``time.time()`` jumps with NTP
corrections and DST; ``time.monotonic()`` does not), with wall-clock reads
allowed only at explicitly marked metadata sites.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import import_aliases, resolve_call
from repro.analysis.core import AstRule, Finding, ModuleInfo

__all__ = ["GlobalRandomnessRule", "ClockDisciplineRule"]

#: Legacy ``numpy.random`` module-level API: all of it draws from (or mutates)
#: the hidden global ``RandomState`` — exactly the state the seeding
#: discipline exists to avoid.
_NUMPY_LEGACY = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "geometric",
        "multinomial",
    }
)


class GlobalRandomnessRule(AstRule):
    """No global-state randomness inside the simulation packages."""

    id = "RND001"
    name = "no-global-randomness"
    description = (
        "engine/protocol/channel code must draw randomness from a seeded "
        "RandomSource or an injected numpy Generator, never from the stdlib "
        "`random` module, the legacy `np.random.*` global API, or an argless "
        "`default_rng()`"
    )
    scope = ("repro.engine", "repro.protocols", "repro.channel", "repro.core")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, aliases)
            if target is None:
                continue
            if target == "random" or target.startswith("random."):
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    f"call to stdlib `{target}` — route randomness through a "
                    "seeded RandomSource or an injected numpy Generator",
                )
            elif target == "numpy.random.default_rng" and not (node.args or node.keywords):
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    "argless `default_rng()` seeds from the OS — pass an "
                    "explicit seed or SeedSequence",
                )
            elif target.startswith("numpy.random.") and target.rsplit(".", 1)[1] in _NUMPY_LEGACY:
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    f"legacy global-state `{target.replace('numpy', 'np', 1)}` — use an "
                    "injected numpy Generator instead",
                )


class ClockDisciplineRule(AstRule):
    """Durations and deadlines use the monotonic clock."""

    id = "CLK001"
    name = "monotonic-clock-discipline"
    description = (
        "`time.time()` jumps under NTP/DST corrections, so elapsed-time, "
        "deadline and backoff arithmetic must use `time.monotonic()`; "
        "wall-clock *metadata* sites (journal timestamps, persisted "
        "created_at fields) are allowed when marked `# repro: noqa[CLK001]`"
    )
    scope = None  # every linted module

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolve_call(node, aliases) == "time.time":
                yield Finding(
                    module.relpath,
                    node.lineno,
                    self.id,
                    "`time.time()` is not monotonic — use `time.monotonic()` for "
                    "durations/deadlines, or mark a wall-clock metadata site "
                    "with `# repro: noqa[CLK001]`",
                )
