"""Deterministic random-number management for simulations.

Every simulation run in this repository is driven by a single integer seed.
Sweeps (many protocols x many network sizes x many repetitions) derive
independent child seeds through :class:`numpy.random.SeedSequence`, which
guarantees that

* two runs with the same seed produce bit-identical results, and
* sibling runs are statistically independent even when their seeds are
  consecutive integers.

The helpers here are intentionally tiny wrappers around numpy so that the rest
of the code never has to touch ``SeedSequence`` directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RandomSource", "derive_seeds", "make_generator", "spawn_generators"]

#: Upper bound (exclusive) for derived integer seeds.  Fits in a signed int64
#: so seeds survive round-trips through JSON and CSV without precision loss.
_SEED_BOUND = 2**63 - 1


def make_generator(seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed.

    ``None`` produces a generator seeded from OS entropy; experiments always
    pass an explicit integer so their results are reproducible.
    """
    return np.random.default_rng(seed)


#: :func:`derive_seeds` remembers its ``_MEMO_ENTRIES`` most recent
#: derivations (LRU) of at most ``_MEMO_SEEDS`` seeds each: a grid derives
#: each cell's seeds several times (planning, the store's seed check, the
#: result set), and a seed costs a ``SeedSequence`` spawn and a
#: ``generate_state`` call.
_MEMO_ENTRIES = 128
_MEMO_SEEDS = 1024


def derive_seeds(root_seed: int, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from ``root_seed``.

    The derivation uses ``SeedSequence.spawn`` so the children are independent
    of each other and of the parent stream.  Every call returns a new list.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    count:
        Number of child seeds to produce.  Must be non-negative.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count > _MEMO_SEEDS or not isinstance(root_seed, int):
        return list(_derive(root_seed, count))
    return list(_remembered(root_seed, count))


def _derive(root_seed: int, count: int) -> tuple[int, ...]:
    children = np.random.SeedSequence(root_seed).spawn(count)
    return tuple(
        int(child.generate_state(1, dtype=np.uint64)[0] % _SEED_BOUND) for child in children
    )


_remembered = functools.lru_cache(maxsize=_MEMO_ENTRIES)(_derive)


def spawn_generators(root_seed: int, count: int) -> list[np.random.Generator]:
    """Return ``count`` independent generators derived from ``root_seed``."""
    parent = np.random.SeedSequence(root_seed)
    return [np.random.default_rng(child) for child in parent.spawn(count)]


@dataclass
class RandomSource:
    """A reproducible, hierarchically splittable source of randomness.

    A :class:`RandomSource` owns a numpy generator and remembers the seed it
    was created from, so that any result it helped produce can be traced back
    to a single integer.  Child sources created through :meth:`split` are
    independent and also record their lineage.

    Examples
    --------
    >>> src = RandomSource(seed=7)
    >>> child_a, child_b = src.split(2)
    >>> float(child_a.generator.random()) != float(child_b.generator.random())
    True
    """

    seed: int
    lineage: tuple[int, ...] = field(default_factory=tuple)
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sequence = np.random.SeedSequence(self.seed, spawn_key=self.lineage)
        self.generator = np.random.default_rng(sequence)

    def split(self, count: int) -> list["RandomSource"]:
        """Create ``count`` independent child sources."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [
            RandomSource(seed=self.seed, lineage=self.lineage + (index,))
            for index in range(count)
        ]

    def child(self, index: int) -> "RandomSource":
        """Create the ``index``-th child source without materialising siblings."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return RandomSource(seed=self.seed, lineage=self.lineage + (index,))

    def integers(self, low: int, high: int, size: int | None = None) -> int | np.ndarray:
        """Proxy for ``Generator.integers`` (kept for call-site brevity)."""
        return self.generator.integers(low, high, size=size)

    def random(self, size: int | None = None) -> float | np.ndarray:
        """Proxy for ``Generator.random``."""
        return self.generator.random(size=size)
