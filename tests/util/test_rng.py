"""Tests for repro.util.rng: determinism and independence of derived streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import rng
from repro.util.rng import RandomSource, derive_seeds, make_generator, spawn_generators


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)

    def test_different_roots_differ(self):
        assert derive_seeds(1, 5) != derive_seeds(2, 5)

    def test_count_respected(self):
        assert len(derive_seeds(0, 17)) == 17

    def test_zero_count(self):
        assert derive_seeds(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(0, -1)

    def test_seeds_are_distinct(self):
        seeds = derive_seeds(7, 100)
        assert len(set(seeds)) == 100

    def test_seeds_fit_in_int64(self):
        for seed in derive_seeds(3, 50):
            assert 0 <= seed < 2**63


class TestRememberedSeeds:
    """derive_seeds remembers recent derivations; callers cannot tell."""

    def test_lists_are_equal_but_independent(self):
        first = derive_seeds(42, 5)
        second = derive_seeds(42, 5)
        assert first == second and first is not second
        first.append(7)
        first[0] = -1
        assert derive_seeds(42, 5) == second

    def test_prefix_stable(self):
        longer = derive_seeds(11, 10)
        assert derive_seeds(11, 4) == longer[:4]
        assert derive_seeds(11, 10) == longer
        assert derive_seeds(11, rng._MEMO_SEEDS + 3)[:10] == longer

    def test_memory_is_bounded_in_entries_and_seeds(self):
        for root in range(rng._MEMO_ENTRIES + 20):
            derive_seeds(10_000 + root, 3)
        assert rng._remembered.cache_info().currsize == rng._MEMO_ENTRIES
        before = rng._remembered.cache_info()
        derive_seeds(5, rng._MEMO_SEEDS + 1)
        derive_seeds(5, rng._MEMO_SEEDS + 1)
        assert rng._remembered.cache_info() == before

    def test_remembered_seeds_equal_a_fresh_derivation(self):
        parent = np.random.SeedSequence(2011)
        fresh = [
            int(child.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
            for child in parent.spawn(6)
        ]
        assert derive_seeds(2011, 6) == fresh
        assert derive_seeds(2011, 6) == fresh


class TestMakeGenerator:
    def test_same_seed_same_stream(self):
        a = make_generator(9).random(10)
        b = make_generator(9).random(10)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = make_generator(9).random(10)
        b = make_generator(10).random(10)
        assert not np.array_equal(a, b)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(5, 4)) == 4

    def test_children_are_independent(self):
        children = spawn_generators(5, 2)
        a = children[0].random(100)
        b = children[1].random(100)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        first = [g.random() for g in spawn_generators(11, 3)]
        second = [g.random() for g in spawn_generators(11, 3)]
        assert first == second


class TestRandomSource:
    def test_same_seed_reproduces(self):
        assert RandomSource(seed=3).random() == RandomSource(seed=3).random()

    def test_split_children_differ_from_parent_and_each_other(self):
        source = RandomSource(seed=3)
        a, b = source.split(2)
        values = {float(source.random()), float(a.random()), float(b.random())}
        assert len(values) == 3

    def test_child_matches_split(self):
        via_split = RandomSource(seed=8).split(3)[2].random()
        via_child = RandomSource(seed=8).child(2).random()
        assert via_split == via_child

    def test_lineage_recorded(self):
        child = RandomSource(seed=8).child(4).child(1)
        assert child.lineage == (4, 1)

    def test_negative_child_index_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(seed=8).child(-1)

    def test_negative_split_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(seed=8).split(-2)

    def test_integers_in_range(self):
        source = RandomSource(seed=1)
        values = source.integers(0, 10, size=100)
        assert (values >= 0).all() and (values < 10).all()
