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

Finished spans are appended to a :class:`TraceLog` — line-buffered JSONL next
to the job journal (see :func:`trace_log_for_store`), torn-line tolerant on
read exactly like the journal and the JSONL store: a crash mid-write costs at
most the final line.  When no sink is configured (the default for library
use), spans still nest and propagate ids but write nothing.  Such a span is
cheap but not free: a ContextVar get, set and reset, an ``os.urandom`` span
id (and a trace id when it opens a trace) and two clock reads.

Span durations come from ``time.monotonic`` (wall-clock timestamps are
metadata only), and ids are 64-bit hex from ``os.urandom`` — independent of
the seeded simulation RNG streams, so tracing can never perturb determinism.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

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


def new_trace_id() -> str:
    """Return a fresh 64-bit hex trace id (not derived from simulation RNG)."""
    return os.urandom(8).hex()


def current_trace_id() -> str | None:
    """The trace id of the innermost open span/context, or ``None``."""
    ctx = _current.get()
    return ctx[0] if ctx is not None else None


def current_span_id() -> str | None:
    """The span id of the innermost open span, or ``None``."""
    ctx = _current.get()
    return ctx[1] if ctx is not None else None


def configure_tracing(path: "str | Path | None") -> "TraceLog | None":
    """Install (or clear, with ``None``) the process-wide trace sink."""
    global _sink
    with _sink_lock:
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


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
    """Record a named span around a block of work.

    Opens a child of the current span (starting a new trace when there is
    none), yields the span's attribute dict — callers may add attributes
    mid-flight (``sp["cached"] = True``) — and on exit appends one JSONL
    event to the configured sink.  Exceptions propagate; the span records
    the exception type in ``error`` before re-raising.
    """
    parent = _current.get()
    trace_id = parent[0] if parent is not None else new_trace_id()
    span_id = os.urandom(8).hex()
    token = _current.set((trace_id, span_id))
    payload: dict[str, Any] = dict(attrs)
    started = time.monotonic()
    started_at = time.time()  # repro: noqa[CLK001] - wall-clock metadata
    try:
        yield payload
    except BaseException as exc:
        payload.setdefault("error", type(exc).__name__)
        raise
    finally:
        _current.reset(token)
        sink = _sink
        if sink is not None:
            sink.append(
                SpanEvent(
                    trace=trace_id,
                    span=span_id,
                    parent=parent[1] if parent is not None else None,
                    name=name,
                    ts=started_at,
                    dur_s=time.monotonic() - started,
                    attrs=payload,
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

    Writes are serialised under a lock and flushed line-at-a-time; like the
    job journal, a torn final line from a crash is skipped on read rather
    than poisoning the file.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, event: SpanEvent) -> None:
        line = json.dumps(event.to_dict(), separators=(",", ":"))
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")

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
