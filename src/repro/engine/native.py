"""The compiled kernels of the reduced engines: one C library, built on demand.

``fair_kernel.c`` holds :class:`~repro.engine.fair_engine.FairEngine`'s slot
loop and ``window_kernel.c`` :class:`~repro.engine.window_engine.WindowEngine`'s
window loop.  An untraced fair run is one call into the library; a windowed
run is one call per chunk of its window schedule.  A call returns after
:data:`SLOTS_PER_CALL` slots and the next one carries on, so a long run
still sees Ctrl-C.  The kernels own the run's random stream (``pcg64.h``, a
port of numpy's ``SeedSequence`` and ``PCG64``, and of ``Generator.integers``'
bounded ``uint32`` draw): a run hands its seed over in a :class:`Stream`,
the run's first call seeds the generator from it as
``np.random.PCG64(np.random.SeedSequence(seed))`` does, and every call steps
it inline and leaves it in the run for the next.  ``pcg64.c`` serves
:func:`repro.util.rng.derive_seeds` from the same port (:func:`derive_seeds`).
The system ``cc`` compiles the three sources into one shared library on the
first run that needs it, and the library is cached per user
(``~/.cache/repro``, else ``<tmp>/repro-<uid>``) under a name that hashes
the sources, the header, the flags and the machine, so a second process only
loads it.  Each process checks the loaded library's seeding, derivation and
one window's bounded draws against numpy before using it.  A failed build
or a failed check logs one warning per process and leaves both engines on
their Python paths and seed derivation on numpy, which compute the same
runs and seeds.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.obs import get_logger
from repro.util.rng import spawned_seeds

__all__ = ["KERNEL", "SLOTS_PER_CALL", "Stream", "derive_seeds", "stream"]

_LOG = get_logger(__name__)

_SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("fair_kernel.c", "window_kernel.c", "pcg64.c")
)
#: Included by every source: hashed into the library's name, not compiled alone.
_HEADERS = (Path(__file__).with_name("pcg64.h"),)
#: Never -ffast-math or -march=native: either lets the compiler reassociate
#: or fuse floating-point arithmetic, and runs would stop equalling the
#: Python paths'.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Slots after which a kernel call returns (a windowed one at its next window)
#: and the caller calls again: the ``budget`` of a run.  A long run returns to
#: Python, where Ctrl-C is handled, every fraction of a second.
SLOTS_PER_CALL = 1 << 20

#: The library's functions: name -> (argtypes, restype).
_SIGNATURES = {
    # fair_simulate(fair_run *run)
    "fair_simulate": ([ctypes.c_void_p], ctypes.c_int),
    # window_simulate(window_run *run, const int64_t *lengths, int64_t n,
    #                 uint8_t *counts, int64_t capacity)
    "window_simulate": (
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64],
        ctypes.c_int,
    ),
    # seed_stream(pcg64_stream *stream)
    "seed_stream": ([ctypes.c_void_p], None),
    # derive_seeds(const uint8_t *root, int64_t words, int64_t count, int64_t *out)
    "derive_seeds": ([ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p], None),
}


class Stream(ctypes.Structure):
    """A run's random stream: ``pcg64_stream`` of ``pcg64.h``, field for field.

    ``seed`` holds the seed's ``words`` little-endian 32-bit words (the
    structure keeps the bytes alive).  The run's first kernel call seeds the
    generator, a 128-bit state and increment in 64-bit halves, and every call
    leaves it where the next one continues, with the 32-bit half numpy keeps
    between bounded ``uint32`` draws (``has_uint32``, ``uinteger``).
    """

    _fields_ = [
        ("seed", ctypes.c_char_p),
        ("words", ctypes.c_int64),
        *((name, ctypes.c_uint64) for name in ("state_high", "state_low", "inc_high", "inc_low")),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]

    def generator(self) -> dict[str, object]:
        """The generator as ``PCG64.state`` reports it."""
        return {
            "bit_generator": "PCG64",
            "state": {
                "state": self.state_high << 64 | self.state_low,
                "inc": self.inc_high << 64 | self.inc_low,
            },
            "has_uint32": self.has_uint32,
            "uinteger": self.uinteger,
        }


def _seed_words(seed: int) -> tuple[bytes, int]:
    """``seed`` as numpy reads an int: 32-bit words, least significant first,
    one word for 0, any length.

    Raises :class:`TypeError` for what is not an integer (``operator.index``
    takes numpy integers and ``bool``) and :class:`ValueError` for a
    negative one, as ``SeedSequence`` does.
    """
    value = operator.index(seed)
    if value < 0:
        raise ValueError(f"expected non-negative integer seed, got {value}")
    words = max(1, -(-value.bit_length() // 32))
    return value.to_bytes(4 * words, "little"), words


def stream(seed: int) -> Stream:
    """The unseeded stream of a run of ``seed`` (see :func:`_seed_words`)."""
    return Stream(*_seed_words(seed))


def derive_seeds(root_seed: int, count: int) -> tuple[int, ...] | None:
    """:func:`repro.util.rng.derive_seeds` by the library; ``None`` without it.

    Deriving seeds is no engine call, so it reaches the library through the
    process's loader itself and not through :data:`KERNEL`, whose stand-ins
    (a counting or a refusing loader) stand in for engine calls only.
    """
    library = _LOADER.get()
    return None if library is None else _derived(library, root_seed, count)


def _derived(library: ctypes.CDLL, root_seed: int, count: int) -> tuple[int, ...]:
    root, words = _seed_words(root_seed)
    seeds = (ctypes.c_int64 * count)()
    library.derive_seeds(root, words, count, seeds)
    return tuple(seeds[:])  # a slice converts in one call; iterating costs ~6x


#: Seeds of one, two and three words (the last with a carry into its high
#: word) whose seeded generator the library must share with numpy.
_CHECKED_SEEDS = (0, 2**32, 2**64 + 1)


#: The window whose ball throw the library must share with numpy: its seed,
#: slots and balls.  An odd ball count leaves a half kept in the stream.
_CHECKED_WINDOW = (2**64 + 1, 1000, 2001)


def _numpy_generator(seed: int) -> dict[str, object]:
    """numpy's seeded PCG64 for ``seed``: what a run's first kernel call must reproduce."""
    return np.random.PCG64(np.random.SeedSequence(seed)).state


def _numpy_window(seed: int, length: int, balls: int) -> tuple[tuple[int, int, int], dict]:
    """numpy's throw of ``balls`` balls into a fresh run's window of
    ``length`` slots: its (silences, deliveries, collisions), and the
    generator after it."""
    generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    bins = generator.integers(0, length, size=balls, dtype=np.uint32)
    occupancy = np.bincount(bins, minlength=length)
    silences, deliveries = (int(np.count_nonzero(occupancy == count)) for count in (0, 1))
    tally = (silences, deliveries, length - silences - deliveries)
    return tally, generator.bit_generator.state


def _library_window(
    library: ctypes.CDLL, seed: int, length: int, balls: int
) -> tuple[tuple[int, int, int], dict]:
    """:func:`_numpy_window` by one ``window_simulate`` call."""
    # Imported here: window_engine imports this module.
    from repro.engine.window_engine import _WindowRun

    run = _WindowRun(remaining=balls, cap=length, budget=length, stream=stream(seed))
    lengths = (ctypes.c_int64 * 1)(length)
    bins = (ctypes.c_uint8 * length)()
    library.window_simulate(ctypes.byref(run), lengths, 1, bins, length)
    return (run.silences, run.successes, run.collisions), run.stream.generator()


def _agrees_with_numpy(library: ctypes.CDLL) -> bool:
    """Whether ``library`` seeds, derives and throws a window's balls as this
    process's numpy does.

    A numpy whose seeding or bounded draw changed then turns the library off
    instead of putting two streams under one ``stream_version``.
    """
    for seed in _CHECKED_SEEDS:
        checked = stream(seed)
        library.seed_stream(ctypes.byref(checked))
        if checked.generator() != _numpy_generator(seed):
            return False
    root = _CHECKED_SEEDS[-1]
    if _derived(library, root, 10) != spawned_seeds(root, 10):
        return False
    return _library_window(library, *_CHECKED_WINDOW) == _numpy_window(*_CHECKED_WINDOW)


def _cache_dirs() -> list[Path]:
    """Where the compiled library may be cached, in order of preference.

    None where the platform has no user ids (Windows): :func:`_private`
    could not tell who owns a directory.
    """
    if not hasattr(os, "getuid"):
        return []
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
    for source in (*_SOURCES, *_HEADERS):
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
    """Build (or find), load and check the library; ``None`` if it cannot be had."""
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
        if _agrees_with_numpy(library):
            return library
        # The same sources build the same library in any directory.
        reason = (
            f"its SeedSequence, PCG64 and bounded-draw port disagrees with numpy {np.__version__}"
        )
        break
    _LOG.warning(
        "compiled engine kernels unavailable (%s); FairEngine runs on its Python slot loop, "
        "WindowEngine on its Python window loop and numpy ball throw, and seeds derive "
        "through numpy",
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
#: it cannot be built, loaded or trusted).
_LOADER = _KernelLoader()

#: The loader the engines ask for the library.
KERNEL = _LOADER
