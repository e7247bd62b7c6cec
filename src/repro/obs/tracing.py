"""Lightweight span tracing with trace-id propagation and JSONL export.

A *trace* follows one logical request (typically a job submitted over HTTP)
through every layer it touches: HTTP handler → ``JobManager`` submit /
queue-wait / attempt → ``Session`` plan → engine run → store append.  Each
layer wraps its work in a :func:`span` context manager; spans nest via a
:class:`contextvars.ContextVar`, so the current trace and parent span follow
the call stack automatically *within* a thread.

Threads do not share context: the service's worker threads adopt a request's
trace explicitly — the HTTP handler stamps ``job.trace_id`` at submit time and
the worker enters :func:`trace_context` around the attempt.  That one explicit
hand-off is the entire cross-thread story.

Finished spans are appended to a :class:`TraceLog` — JSONL next to the job
journal (see :func:`trace_log_for_store`), one ``write`` per span to a file
the log keeps open, torn-line tolerant on read and on append exactly like
the journal and the JSONL store: a crash mid-write costs at most the line it
was writing.  When no
sink is configured (the default for library use), spans still nest and
propagate ids but write nothing.  Such a span is cheap but not free: a
ContextVar get, set and reset, an ``os.urandom`` span id (and a trace id
when it opens a trace) and two clock reads.

Span durations come from ``time.monotonic`` (wall-clock timestamps are
metadata only), and ids are 64-bit hex from ``os.urandom`` — independent of
the seeded simulation RNG streams, so tracing can never perturb determinism.
"""

from __future__ import annotations

import contextvars
import io
import json
import os
import random
import threading
import time
import weakref
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Any

from repro.util.jsonl import append_lines

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scenarios.store import StoreBackend

__all__ = [
    "SpanEvent",
    "TraceLog",
    "configure_tracing",
    "current_span_id",
    "current_trace_id",
    "new_trace_id",
    "read_trace",
    "span",
    "summarize_trace",
    "trace_context",
    "trace_log_for_store",
    "tracing_sink",
]

#: (trace_id, span_id) of the innermost open span, or ``None`` outside one.
_current: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_trace", default=None
)

_sink: "TraceLog | None" = None
_sink_lock = threading.Lock()

#: Draws the span and trace ids (see the module docstring).
_ids = random.Random(os.urandom(16))
if hasattr(os, "register_at_fork"):  # POSIX; nothing forks elsewhere
    os.register_at_fork(after_in_child=lambda: _ids.seed(os.urandom(16)))


def new_trace_id() -> str:
    """Return a fresh 64-bit hex trace id (not derived from simulation RNG)."""
    return "%016x" % _ids.getrandbits(64)


def current_trace_id() -> str | None:
    """The trace id of the innermost open span/context, or ``None``."""
    ctx = _current.get()
    return ctx[0] if ctx is not None else None


def current_span_id() -> str | None:
    """The span id of the innermost open span, or ``None``."""
    ctx = _current.get()
    return ctx[1] if ctx is not None else None


def configure_tracing(path: "str | Path | None") -> "TraceLog | None":
    """Install (or clear, with ``None``) the process-wide trace sink.

    The sink it replaces closes its file.
    """
    global _sink
    with _sink_lock:
        if _sink is not None:
            _sink.close()
        _sink = TraceLog(path) if path is not None else None
        return _sink


def tracing_sink() -> "TraceLog | None":
    """The currently installed trace sink, if any."""
    return _sink


@contextmanager
def trace_context(trace_id: str | None) -> Iterator[None]:
    """Adopt ``trace_id`` as the current trace (cross-thread hand-off).

    Used by worker threads to continue a trace started in another thread:
    the handler stamps the id on the job, the worker wraps the attempt in
    ``trace_context(job.trace_id)``.  A ``None`` id is a no-op so call sites
    need no conditionals.
    """
    if trace_id is None:
        yield
        return
    token = _current.set((trace_id, ""))
    try:
        yield
    finally:
        _current.reset(token)


def span(name: str, **attrs: Any) -> "_Span":
    """Record a named span around a block of work.

    Opens a child of the current span (starting a new trace when there is
    none), yields the span's attribute dict — callers may add attributes
    mid-flight (``sp["cached"] = True``) — and on exit appends one JSONL
    event to the configured sink.  Exceptions propagate; the span records
    the exception type in ``error`` before re-raising.
    """
    return _Span(name, attrs)


class _Span:
    """The context manager :func:`span` returns (a class: cheaper to enter
    and leave than a generator-based one, and engines open one per run)."""

    __slots__ = ("name", "payload", "parent", "trace_id", "span_id", "token", "started",
                 "started_at")

    def __init__(self, name: str, payload: dict[str, Any]) -> None:
        self.name = name
        self.payload = payload

    def __enter__(self) -> dict[str, Any]:
        parent = self.parent = _current.get()
        self.trace_id = parent[0] if parent is not None else new_trace_id()
        self.span_id = new_trace_id()
        self.token = _current.set((self.trace_id, self.span_id))
        self.started = time.monotonic()
        self.started_at = time.time()  # repro: noqa[CLK001] - wall-clock metadata
        return self.payload

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            self.payload.setdefault("error", exc_type.__name__)
        _current.reset(self.token)
        sink = _sink
        if sink is not None:
            parent = self.parent
            sink.append(
                SpanEvent(
                    trace=self.trace_id,
                    span=self.span_id,
                    parent=parent[1] if parent is not None else None,
                    name=self.name,
                    ts=self.started_at,
                    dur_s=time.monotonic() - self.started,
                    attrs=self.payload,
                )
            )


class SpanEvent:
    """One finished span, as written to / read from the trace log."""

    __slots__ = ("trace", "span", "parent", "name", "ts", "dur_s", "attrs")

    def __init__(
        self,
        trace: str,
        span: str,
        parent: str | None,
        name: str,
        ts: float,
        dur_s: float,
        attrs: Mapping[str, Any] | None = None,
    ) -> None:
        self.trace = trace
        self.span = span
        self.parent = parent
        self.name = name
        self.ts = ts
        self.dur_s = dur_s
        self.attrs = dict(attrs or {})

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trace": self.trace,
            "span": self.span,
            "name": self.name,
            "ts": round(self.ts, 6),
            "dur_s": round(self.dur_s, 9),
        }
        if self.parent:
            out["parent"] = self.parent
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SpanEvent":
        return cls(
            trace=str(record["trace"]),
            span=str(record["span"]),
            parent=record.get("parent"),
            name=str(record["name"]),
            ts=float(record.get("ts", 0.0)),
            dur_s=float(record.get("dur_s", 0.0)),
            attrs=record.get("attrs") or {},
        )


class TraceLog:
    """Append-only JSONL sink for finished spans.

    Writes are serialised under a lock, one unbuffered ``write`` of a whole
    line per span to a file the log keeps open, through the JSONL store's
    :func:`~repro.util.jsonl.append_lines`: like the job journal, a torn
    final line from a crash is skipped on read, and the next span starts a
    line of its own.  The log opens the file anew in a forked child (which
    must not write through its parent's descriptor) and when the path no
    longer names the open file (deleted or replaced), so spans always land
    in the file at :attr:`path`.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        # The open file, what closes it (also when the log is collected),
        # the (device, inode) it is, the process that opened it and its size
        # after the last append (-1 before one); written only under _lock.
        self._file: io.FileIO | None = None
        self._release: weakref.finalize | None = None
        self._identity: tuple[int, int] | None = None
        self._pid = 0
        self._end = -1

    def append(self, event: SpanEvent) -> None:
        data = (json.dumps(event.to_dict(), separators=(",", ":")) + "\n").encode("utf-8")
        with self._lock:
            descriptor, size = self._open()
            self._end = append_lines(descriptor, data, size, self._end)

    def _open(self) -> tuple[int, int]:
        """The open file's descriptor and size, reopened unless it is still
        the file at :attr:`path`."""
        if self._file is not None and self._pid == os.getpid():
            try:
                status = os.stat(self.path)
            except OSError:
                status = None
            if status is not None and (status.st_dev, status.st_ino) == self._identity:
                return self._file.fileno(), status.st_size
        self._close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = io.FileIO(self.path, "a+")
        self._release = weakref.finalize(self, self._file.close)
        self._pid = os.getpid()
        self._end = -1
        status = os.fstat(self._file.fileno())
        self._identity = (status.st_dev, status.st_ino)
        return self._file.fileno(), status.st_size

    def _close(self) -> None:
        if self._release is not None:
            self._release()
        self._file = self._release = None

    def close(self) -> None:
        """Close the file; a later :meth:`append` reopens it."""
        with self._lock:
            self._close()

    def read(self) -> list[SpanEvent]:
        return read_trace(self.path)


def read_trace(path: "str | Path") -> list[SpanEvent]:
    """Parse a trace log, skipping torn or undecodable lines."""
    path = Path(path)
    if not path.exists():
        return []
    events: list[SpanEvent] = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                events.append(SpanEvent.from_dict(record))
            except (ValueError, KeyError, TypeError):
                continue  # torn tail or foreign line; tolerate like the journal
    return events


def trace_log_for_store(store: "StoreBackend | None") -> TraceLog | None:
    """The conventional trace-log location for a store, or ``None``.

    The store's ``trace.jsonl`` sidecar, beside the job journal, so a store
    directory carries its own observability artefacts —
    ``<root>/trace.jsonl`` for a JSONL store, ``<file>.db.trace.jsonl`` for
    SQLite, the wrapped store's for a chaos wrapper, and none for a remote
    service.
    """
    path = store.sidecar("trace.jsonl") if store is not None else None
    return TraceLog(path) if path is not None else None


def summarize_trace(events: list[SpanEvent]) -> dict[str, Any]:
    """Aggregate a trace log for ``repro trace <file>``.

    Returns per-stage (span-name) latency stats and the slowest traces by
    total root-span time, ready for tabular display.
    """
    stages: dict[str, dict[str, float]] = {}
    for ev in events:
        agg = stages.setdefault(
            ev.name, {"count": 0.0, "total_s": 0.0, "max_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += ev.dur_s
        agg["max_s"] = max(agg["max_s"], ev.dur_s)
    stage_rows = [
        {
            "stage": name,
            "count": int(agg["count"]),
            "total_s": agg["total_s"],
            "mean_s": agg["total_s"] / agg["count"] if agg["count"] else 0.0,
            "max_s": agg["max_s"],
        }
        for name, agg in sorted(
            stages.items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
    ]

    roots: dict[str, SpanEvent] = {}
    spans_by_trace: dict[str, int] = {}
    for ev in events:
        spans_by_trace[ev.trace] = spans_by_trace.get(ev.trace, 0) + 1
        if not ev.parent:
            # Keep the longest root per trace (retries re-enter the root).
            prior = roots.get(ev.trace)
            if prior is None or ev.dur_s > prior.dur_s:
                roots[ev.trace] = ev
    slowest = [
        {
            "trace": ev.trace,
            "root": ev.name,
            "dur_s": ev.dur_s,
            "spans": spans_by_trace.get(ev.trace, 0),
            "attrs": ev.attrs,
        }
        for ev in sorted(roots.values(), key=lambda e: e.dur_s, reverse=True)[:10]
    ]
    return {
        "events": len(events),
        "traces": len(spans_by_trace),
        "stages": stage_rows,
        "slowest": slowest,
    }
