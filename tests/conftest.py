"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections
import types

import numpy as np
import pytest

import repro.engine.native as native
from repro.channel.model import ChannelModel, FeedbackModel
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.fair_engine import FairEngine
from repro.engine.slot_engine import SlotEngine
from repro.engine.window_engine import WindowEngine
from repro.protocols.log_fails_adaptive import LogFailsAdaptive


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def ofa() -> OneFailAdaptive:
    """One-fail Adaptive with the paper's parameters."""
    return OneFailAdaptive()


@pytest.fixture
def ebb() -> ExpBackonBackoff:
    """Exp Back-on/Back-off with the paper's parameters."""
    return ExpBackonBackoff()


@pytest.fixture
def lfa() -> LogFailsAdaptive:
    """Log-fails Adaptive for a 100-node network (the paper's epsilon choice)."""
    return LogFailsAdaptive.for_k(100)


@pytest.fixture
def fair_engine() -> FairEngine:
    return FairEngine()


@pytest.fixture
def window_engine() -> WindowEngine:
    return WindowEngine()


@pytest.fixture
def slot_engine() -> SlotEngine:
    return SlotEngine()


@pytest.fixture
def kernel_calls(monkeypatch) -> collections.Counter:
    """Calls into the compiled kernel library while the test runs, by function."""
    library = native.KERNEL.get()
    assert library is not None, "the kernel library did not build"
    calls: collections.Counter = collections.Counter()

    class CountingLibrary:
        def __getattr__(self, name):
            function = getattr(library, name)

            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

    class Loader:
        def get(self) -> CountingLibrary:
            return CountingLibrary()

    monkeypatch.setattr(native, "KERNEL", Loader())
    return calls


@pytest.fixture
def no_kernel(monkeypatch) -> None:
    """The kernel loader of a host without a C compiler, while the test runs."""
    monkeypatch.setattr(native, "KERNEL", types.SimpleNamespace(get=lambda: None))


@pytest.fixture
def cd_channel() -> ChannelModel:
    """A channel with full collision detection (for the splitting baseline)."""
    return ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)
