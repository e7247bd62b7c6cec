"""The compiled kernels of the reduced engines: one C library, built on demand.

``fair_kernel.c`` holds :class:`~repro.engine.fair_engine.FairEngine`'s slot
loop and ``window_kernel.c`` :class:`~repro.engine.window_engine.WindowEngine`'s
window loop.  An untraced fair run is one call into the library; a windowed
run is one call per chunk of its window schedule.  A call returns after
:data:`SLOTS_PER_CALL` slots and the next one carries on, so a long run
still sees Ctrl-C.  Both draw their uniforms straight from the run's numpy
bit generator, through the ``bitgen_t`` :func:`bitgen` takes from the
generator's capsule.  The system ``cc`` compiles both files into one shared
library on the first run that needs either, and the library is cached per
user (``~/.cache/repro``, else ``<tmp>/repro-<uid>``) under a name that
hashes both sources, the flags and the machine, so a second process only
loads it.  A failed build logs one warning per process and leaves both
engines on their Python paths, which compute the same runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.obs import get_logger

__all__ = ["KERNEL", "SLOTS_PER_CALL", "bitgen"]

_LOG = get_logger(__name__)

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("fair_kernel.c", "window_kernel.c"))
#: Never -ffast-math or -march=native: either lets the compiler reassociate
#: or fuse floating-point arithmetic, and runs would stop equalling the
#: Python paths'.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Slots after which a kernel call returns (a windowed one at its next window)
#: and the caller calls again: the ``budget`` of a run.  A long run returns to
#: Python, where Ctrl-C is handled, every fraction of a second.
SLOTS_PER_CALL = 1 << 20

#: The library's functions: name -> (argtypes, restype).  ``bitgen`` is the
#: address :func:`bitgen` returns.
_SIGNATURES = {
    # fair_simulate(fair_run *run, bitgen_t *bitgen)
    "fair_simulate": ([ctypes.c_void_p] * 2, ctypes.c_int),
    # window_simulate(window_run *run, const int64_t *lengths, int64_t n,
    #                 uint8_t *counts, int64_t capacity, bitgen_t *bitgen)
    "window_simulate": (
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
         ctypes.c_void_p],
        ctypes.c_int,
    ),
}

_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = (ctypes.py_object, ctypes.c_char_p)
_capsule_pointer.restype = ctypes.c_void_p


def bitgen(bit_generator: np.random.BitGenerator) -> int:
    """The address of ``bit_generator``'s ``bitgen_t``: how a kernel draws its uniforms.

    numpy's public C interface to a bit generator, taken from its capsule.
    Its ``next_double(state)`` is what ``Generator.random`` calls, so a
    kernel that calls it takes the values ``generator.random`` would return,
    in order.  The struct lives in ``bit_generator``, which must outlive the
    calls, and only one thread may draw from it at a time.
    """
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


def _cache_dirs() -> list[Path]:
    """Where the compiled library may be cached, in order of preference."""
    directories = [Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]
    try:
        directories.insert(0, Path.home() / ".cache" / "repro")
    except RuntimeError:  # no home directory (unset HOME, uid without passwd entry)
        pass
    return directories


def _private(directory: Path) -> bool:
    """Create ``directory`` if needed; true if only this user can write it."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = directory.stat()
    except OSError:
        return False
    return status.st_uid == os.getuid() and not status.st_mode & 0o022


def _library_name() -> str:
    digest = hashlib.sha256()
    for source in _SOURCES:
        digest.update(source.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(platform.machine().encode())
    return f"repro_kernels-{digest.hexdigest()[:16]}.so"


def _build(directory: Path) -> Path:
    """The library in ``directory``, compiled first if it is missing.

    The compiler writes a temporary file that is renamed into place, so a
    concurrent process sees either no library or a complete one.  Raises
    :class:`OSError` with the compiler's last stderr line on failure.
    """
    target = directory / _library_name()
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    handle, partial = tempfile.mkstemp(dir=directory, prefix=".repro_kernels-", suffix=".so")
    os.close(handle)
    try:
        completed = subprocess.run(
            [compiler, *_CFLAGS, "-o", partial, *map(str, _SOURCES), "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            lines = completed.stderr.strip().splitlines() or [f"exit status {completed.returncode}"]
            raise OSError(f"cc failed: {lines[-1]}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _open_kernel() -> ctypes.CDLL | None:
    """Build (or find) and load the library; ``None`` if it cannot be had."""
    reason = "no private cache directory"
    for directory in _cache_dirs():
        if not _private(directory):
            continue
        try:
            library = ctypes.CDLL(str(_build(directory)))
        except (OSError, subprocess.SubprocessError) as error:
            reason = str(error)
            continue
        for name, (argtypes, restype) in _SIGNATURES.items():
            function = getattr(library, name)
            function.argtypes = argtypes
            function.restype = restype
        return library
    _LOG.warning(
        "compiled engine kernels unavailable (%s); FairEngine runs on its Python slot loop "
        "and WindowEngine on its Python window loop and numpy ball throw",
        reason,
    )
    return None


class _KernelLoader:
    """Loads the library once per process; worker threads share the result."""

    #: Written only under ``self._lock`` (checked by lint rule LCK001).
    _lock_guarded = frozenset({"_loaded", "_library"})

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._loaded = False
        self._library: ctypes.CDLL | None = None

    def get(self) -> ctypes.CDLL | None:
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._library = _open_kernel()
                    self._loaded = True
        return self._library


#: The process's one library (``None`` from :meth:`_KernelLoader.get` when
#: it cannot be built or loaded).
KERNEL = _KernelLoader()
