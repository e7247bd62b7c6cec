"""Tests for the shared kernel library of FairEngine and WindowEngine.

One library holds both compiled kernels and their port of numpy's
``SeedSequence`` and ``PCG64``.  It is built once per user and machine,
loaded by later processes without compiling, never loaded from a directory
other users can write, and seeds every run's generator as numpy does.  A
failed build, or a library whose seeding disagrees with numpy's, leaves both
engines on their Python paths — same runs, one warning.
"""

from __future__ import annotations

import ctypes
import gc
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.engine.fair_engine as fair_module
import repro.engine.native as native
import repro.engine.window_engine as window_module
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.fair_engine import FairEngine
from repro.engine.window_engine import WindowEngine
from repro.util.rng import derive_seeds

_SRC = Path(native.__file__).resolve().parents[2]


def _fresh_loader(monkeypatch, *directories: Path) -> None:
    """Make the next engine run load the library anew from ``directories``."""
    monkeypatch.setattr(native, "KERNEL", native._KernelLoader())
    monkeypatch.setattr(native, "_cache_dirs", lambda: list(directories))


def _runs_by_path() -> dict[str, float]:
    return {
        f"{engine}-{path}": family.labels(path=path).value
        for engine, family in (
            ("fair", fair_module._M_FAIR_RUNS), ("window", window_module._M_WINDOW_RUNS),
        )
        for path in ("compiled", "python")
    }


def _both_engines(seeds: list[int]) -> list:
    """k=150 runs of OFA on FairEngine and EBB on WindowEngine."""
    return [
        engine.simulate(protocol, 150, seed=seed)
        for engine, protocol in (
            (FairEngine(), OneFailAdaptive()), (WindowEngine(), ExpBackonBackoff()),
        )
        for seed in seeds
    ]


class TestFailedBuild:
    SEEDS = derive_seeds(31, 10)

    def runs(self) -> list:
        return _both_engines(self.SEEDS)

    def test_both_engines_fall_back_and_warn_once(self, tmp_path, monkeypatch, caplog):
        expected = self.runs()
        monkeypatch.setattr(native, "_CFLAGS", (*native._CFLAGS, "-fno-such-flag"))
        _fresh_loader(monkeypatch, tmp_path)
        before = _runs_by_path()
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            runs = self.runs()
        assert runs == expected
        after = _runs_by_path()
        assert {key: after[key] - before[key] for key in after} == {
            "fair-compiled": 0, "fair-python": 10, "window-compiled": 0, "window-python": 10,
        }
        (warning,) = [record for record in caplog.records if record.name == native.__name__]
        assert warning.levelno == logging.WARNING
        message = warning.getMessage()
        assert "fno-such-flag" in message
        assert "FairEngine" in message and "WindowEngine" in message
        assert list(tmp_path.iterdir()) == []

    def test_no_user_ids_means_no_private_directory(self, monkeypatch, caplog):
        """Without ``os.getuid`` (Windows) no directory's owner can be
        checked: the loader warns once and the engines run their Python loops."""
        monkeypatch.delattr(os, "getuid")
        loader = native._KernelLoader()
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert loader.get() is None
            assert loader.get() is None
        (warning,) = [record for record in caplog.records if record.name == native.__name__]
        assert "no private cache directory" in warning.getMessage()


#: Loads the library from (building it into) one directory and runs both
#: engines on it.
_BUILD_AND_RUN = """
    from pathlib import Path
    import repro.engine.native as native
    import repro.engine.fair_engine as fair
    import repro.engine.window_engine as window
    from repro.core.exp_backon_backoff import ExpBackonBackoff
    from repro.core.one_fail_adaptive import OneFailAdaptive
    native._cache_dirs = lambda: [Path({directory!r})]
    ofa = fair.FairEngine().simulate(OneFailAdaptive(), 200, seed=5)
    ebb = window.WindowEngine().simulate(ExpBackonBackoff(), 200, seed=5)
    assert fair._M_COMPILED.value == 1, "the compiled slot loop did not run"
    assert window._M_COMPILED.value == 1, "the compiled window loop did not run"
    print(ofa.makespan, ebb.makespan)
"""

#: Makes any further compiler run fail the interpreter.
_NO_COMPILER = """
    import subprocess
    def refuse(*args, **kwargs):
        raise AssertionError("the compiler ran again")
    subprocess.run = refuse
"""


def _interpreter(directory: Path, *preludes: str) -> subprocess.Popen:
    """A fresh interpreter running ``preludes`` then ``_BUILD_AND_RUN``."""
    code = "".join(
        textwrap.dedent(part) for part in (*preludes, _BUILD_AND_RUN.format(directory=str(directory)))
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )


class TestKernelCache:
    def test_second_interpreter_loads_without_compiling(self, tmp_path):
        first = _interpreter(tmp_path)
        first_out, first_err = first.communicate(timeout=120)
        assert first.returncode == 0, first_err
        (library,) = tmp_path.glob("*.so")
        built_at = library.stat().st_mtime_ns
        second = _interpreter(tmp_path, _NO_COMPILER)
        second_out, second_err = second.communicate(timeout=120)
        assert second.returncode == 0, second_err
        assert second_out == first_out
        assert library.stat().st_mtime_ns == built_at

    def test_concurrent_builds_both_succeed(self, tmp_path):
        processes = [_interpreter(tmp_path) for _ in range(2)]
        outputs = [process.communicate(timeout=120) for process in processes]
        assert [process.returncode for process in processes] == [0, 0], outputs
        assert outputs[0][0] == outputs[1][0]
        assert [path.name for path in tmp_path.iterdir()] == [native._library_name()]

    def test_directories_other_users_can_write_are_skipped(self, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        private = tmp_path / "private"
        _fresh_loader(monkeypatch, shared, private)
        assert native.KERNEL.get() is not None
        assert list(shared.iterdir()) == []
        assert [path.name for path in private.iterdir()] == [native._library_name()]

    def test_library_name_hashes_both_sources(self, monkeypatch, tmp_path):
        """And the header both include: an edit to any file renames the library."""
        assert [header.name for header in native._HEADERS] == ["pcg64.h"]
        name = native._library_name()
        for attribute in ("_SOURCES", "_HEADERS"):
            original = getattr(native, attribute)
            for index, source in enumerate(original):
                edited = tmp_path / source.name
                edited.write_bytes(source.read_bytes() + b"\n")
                monkeypatch.setattr(
                    native, attribute, (*original[:index], edited, *original[index + 1:])
                )
                assert native._library_name() != name
            monkeypatch.setattr(native, attribute, original)


#: Seeds at and across 32-bit word boundaries, then random ones of up to
#: 63 and up to 300 bits.
_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1, 2**64, 2**128 + 1, 2**200 + 3,
    *(int(seed) for seed in np.random.default_rng(2011).integers(0, 2**63 - 1, 6)),
    *(
        int.from_bytes(np.random.default_rng(length).bytes(length), "little")
        for length in (5, 9, 17, 38)
    ),
]


class TestStream:
    """The library seeds a run's PCG64 as ``PCG64(SeedSequence(seed))`` does."""

    @pytest.mark.parametrize("seed", [*_SEEDS, np.int64(7), np.uint64(2**64 - 1), True])
    def test_seeded_generator_is_numpys(self, seed):
        library = native.KERNEL.get()
        assert library is not None
        stream = native.stream(seed)
        library.seed_stream(ctypes.byref(stream))
        assert stream.generator() == np.random.PCG64(np.random.SeedSequence(seed)).state

    @pytest.mark.parametrize(
        "seed,error", [(-1, ValueError), (-(2**70), ValueError), (1.0, TypeError), ("7", TypeError)]
    )
    def test_what_numpy_refuses_is_refused(self, seed, error):
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            native.stream(seed)
        for engine, protocol in (
            (FairEngine(), OneFailAdaptive()), (WindowEngine(), ExpBackonBackoff()),
        ):
            with pytest.raises(error):
                engine.simulate(protocol, 10, seed=seed)

    def test_a_run_keeps_its_seed_alive(self):
        """The kernel reads the seed's words through a pointer the run holds."""
        run = fair_module._FairRun(stream=native.stream(2**200 + 3))
        gc.collect()
        offset = fair_module._FairRun.stream.offset + native.Stream.seed.offset
        address = ctypes.c_void_p.from_buffer(run, offset).value
        assert run.stream.words == 7
        assert ctypes.string_at(address, 28) == (2**200 + 3).to_bytes(28, "little")


class TestBitgen:
    """The kernels no longer draw through numpy's ``bitgen_t``."""

    def test_the_ctypes_route_is_gone(self):
        assert not hasattr(native, "uniforms")
        assert not hasattr(native, "bitgen")


class TestSelfCheck:
    def test_a_library_that_disagrees_with_numpy_is_not_used(self, tmp_path, monkeypatch, caplog):
        """A numpy whose seeding moved turns the library off: one warning,
        and every run takes its Python path with the same results."""
        seeds = derive_seeds(8, 6)
        expected = _both_engines(seeds)
        moved = native._numpy_generator

        def moved_numpy(seed):
            generator = moved(seed)
            state = generator["state"]
            return {**generator, "state": {**state, "state": state["state"] ^ 1}}

        monkeypatch.setattr(native, "_numpy_generator", moved_numpy)
        _fresh_loader(monkeypatch, tmp_path)
        before = _runs_by_path()
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            runs = _both_engines(seeds)
        assert runs == expected
        after = _runs_by_path()
        assert {key: after[key] - before[key] for key in after} == {
            "fair-compiled": 0, "fair-python": 6, "window-compiled": 0, "window-python": 6,
        }
        (warning,) = [record for record in caplog.records if record.name == native.__name__]
        assert "disagrees with numpy" in warning.getMessage()

    def test_a_library_whose_bounded_draw_disagrees_is_not_used(
        self, tmp_path, monkeypatch, caplog
    ):
        """A numpy whose ``integers`` moved turns the library off too: one
        warning, and every run takes its Python path with the same results."""
        seeds = derive_seeds(8, 6)
        expected = _both_engines(seeds)
        moved = native._numpy_window

        def moved_numpy(seed, length, balls):
            (silences, deliveries, collisions), generator = moved(seed, length, balls)
            return (silences + 1, deliveries - 1, collisions), generator

        monkeypatch.setattr(native, "_numpy_window", moved_numpy)
        _fresh_loader(monkeypatch, tmp_path)
        before = _runs_by_path()
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            runs = _both_engines(seeds)
        assert runs == expected
        after = _runs_by_path()
        assert {key: after[key] - before[key] for key in after} == {
            "fair-compiled": 0, "fair-python": 6, "window-compiled": 0, "window-python": 6,
        }
        (warning,) = [record for record in caplog.records if record.name == native.__name__]
        assert "disagrees with numpy" in warning.getMessage()

    def test_the_checked_window_keeps_a_half(self):
        """The checked window is thrown, not saturated, and its odd ball
        count leaves numpy's kept half in the stream it compares."""
        seed, length, balls = native._CHECKED_WINDOW
        assert balls % 2 == 1 and not window_module._saturated(length, balls)
        (silences, deliveries, collisions), generator = native._numpy_window(seed, length, balls)
        assert generator["has_uint32"] == 1
        assert silences + deliveries + collisions == length and 0 < deliveries < balls

    def test_a_library_whose_derivation_disagrees_is_not_used(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "spawned_seeds", lambda root, count: (0,) * count)
        _fresh_loader(monkeypatch, tmp_path)
        assert native.KERNEL.get() is None

    def test_the_process_library_agrees_with_numpy(self):
        library = native.KERNEL.get()
        assert library is not None and native._agrees_with_numpy(library)
