"""Tests for the shared kernel library of FairEngine and WindowEngine.

One library holds both compiled kernels.  It is built once per user and
machine, loaded by later processes without compiling, never loaded from a
directory other users can write, and a failed build leaves both engines on
their Python paths — same runs, one warning.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


class TestFailedBuild:
    SEEDS = derive_seeds(31, 10)

    def runs(self) -> list:
        return [
            engine.simulate(protocol, 150, seed=seed)
            for engine, protocol in (
                (FairEngine(), OneFailAdaptive()), (WindowEngine(), ExpBackonBackoff()),
            )
            for seed in self.SEEDS
        ]

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
        original, name = native._SOURCES, native._library_name()
        for index, source in enumerate(original):
            edited = tmp_path / source.name
            edited.write_bytes(source.read_bytes() + b"\n")
            sources = (*original[:index], edited, *original[index + 1:])
            monkeypatch.setattr(native, "_SOURCES", sources)
            assert native._library_name() != name
