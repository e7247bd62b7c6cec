"""Span tracing for the traced run, installed from outside the program.

The traced run wraps the public functions of each layer (see ``install``)
with a recorder that keeps spans in memory until the run ends; the untraced
run never imports this module's wrappers, so it calls the unmodified
functions.  ``Patcher.restore`` puts every original attribute back, which the
self-test checks.

Spans nest per thread: a span's parent is the innermost open span on the
same thread, and its *self time* is its duration minus the durations of its
children.  Times are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans recorded in the server child line up
with the client's.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager

from spec import BUDGET_LAYERS, END_TO_END

# Protocol class -> the family key used in engine.<family>.us_per_slot.
FAMILIES = {
    "OneFailAdaptive": "ofa",
    "LogFailsAdaptive": "lfa",
    "ExpBackonBackoff": "ebb",
    "LogLogIteratedBackoff": "llib",
}
# Protocol kind -> the key used in engine.<kind>.us_per_slot.
KINDS = {"fair": "fair", "windowed": "window"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span and counter store shared by every thread of a process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, **attrs: object):
        span = self.begin(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def export(self) -> dict[str, object]:
        """JSON-ready form (the server child ships its spans this way)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            [span.name, span.start, span.end,
             index.get(id(span.parent)) if span.parent is not None else None,
             span.attrs]
            for span in self.spans
        ]
        return {"spans": rows, "counts": dict(self.counts)}

    @staticmethod
    def load(payload: dict) -> tuple[list[Span], dict[str, int]]:
        spans: list[Span] = []
        for name, start, end, _parent, attrs in payload["spans"]:
            span = Span(name, start, None)
            span.end = end
            span.attrs = attrs
            spans.append(span)
        for span, row in zip(spans, payload["spans"]):
            if row[3] is not None:
                span.parent = spans[row[3]]
        return spans, dict(payload["counts"])


class Patcher:
    """Replaces attributes and remembers how to put every one of them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, value = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def _traced(recorder: Recorder, name: str, before=None, after=None):
    """Wrapper factory: one span per call, plus optional attribute hooks.

    ``before(args, kwargs)`` runs outside the span and returns a context
    handed to ``after(attrs, args, kwargs, result, context)``, which runs once
    the span is closed, so neither hook is charged to the wrapped layer.
    """

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            context = before(args, kwargs) if before is not None else None
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(span.attrs, args, kwargs, result, context)
            return result

        return traced

    return make


def _engine_attrs(protocol: object, results: Sequence) -> dict[str, object]:
    cls = type(protocol).__name__
    return {
        "family": FAMILIES.get(cls, cls.lower()),
        "kind": KINDS.get(getattr(protocol, "protocol_kind", "generic"), "other"),
        "runs": len(results),
        "slots": sum(result.slots_simulated for result in results),
        "solved": sum(1 for result in results if result.solved),
    }


def _after_simulate(attrs, args, kwargs, result, _context) -> None:
    attrs.update(_engine_attrs(args[0], [result]))


def _after_batch(attrs, args, kwargs, results, _context) -> None:
    attrs.update(_engine_attrs(args[0], results))


def _after_megabatch(attrs, args, kwargs, per_cell, _context) -> None:
    cells = args[0] if args else kwargs["cells"]
    flat = [result for cell_results in per_cell for result in cell_results]
    attrs.update(_engine_attrs(cells[0].protocol, flat))
    attrs["rows"] = len(flat)
    attrs["longest"] = max((result.slots_simulated for result in flat), default=0)


def _wrappers(recorder: Recorder) -> list[tuple[object, str, Callable]]:
    """``(owner, attribute, wrapper factory)`` for every traced layer."""
    from repro.experiments import parallel
    from repro.scenarios.session import Session
    from repro.scenarios.store import JsonlStore
    from repro.service import server
    from repro.service.jobs import JobManager
    from repro.service.reliability import JobJournal

    def after_parallel(attrs, args, kwargs, result, _context):
        attrs["units"] = len(args[1])

    def after_run_cached(attrs, args, kwargs, result, _context):
        attrs["hit"] = result is not None

    def size_before(args, kwargs):
        try:
            return args[0].path_for(args[1]).stat().st_size
        except OSError:
            return 0

    def after_append(attrs, args, kwargs, result, size):
        attrs["runs"] = len(args[2])
        attrs["bytes"] = size_before(args, kwargs) - size

    queued_at: dict[str, float] = {}

    def after_submit(attrs, args, kwargs, result, _context):
        job, disposition = result
        attrs["disposition"] = disposition
        attrs["job"] = job.id
        if disposition == "queued":
            queued_at[job.id] = time.perf_counter()

    def before_run(args, kwargs):
        started = queued_at.pop(args[1].id, None)
        return None if started is None else time.perf_counter() - started

    def after_run(attrs, args, kwargs, result, queue_wait):
        job = args[1]
        attrs.update(job=job.id, state=job.state, retries=max(job.attempts - 1, 0))
        if queue_wait is not None:
            attrs["queue_wait"] = queue_wait

    def after_finish(attrs, args, kwargs, result, _context):
        attrs["port"] = args[2][1]

    def count_routes(original):
        @functools.wraps(original)
        def counted(path):
            route = original(path)
            recorder.count("route:" + route)
            return route

        return counted

    def traced(name, **hooks):
        return _traced(recorder, name, **hooks)

    return [
        # engine: wrapped where the executor looks the front doors up.
        (parallel, "simulate", traced("engine.simulate", after=_after_simulate)),
        (parallel, "simulate_batch", traced("engine.simulate_batch", after=_after_batch)),
        (parallel, "simulate_megabatch", traced("engine.simulate_megabatch", after=_after_megabatch)),
        (parallel.ParallelExecutor, "run", traced("parallel.run", after=after_parallel)),
        (Session, "run_all", traced("session.run_all")),
        (Session, "run_cached", traced("session.run_cached", after=after_run_cached)),
        (Session, "cached_count", traced("session.cached_count")),
        (JsonlStore, "append", traced("store.append", before=size_before, after=after_append)),
        *[(JsonlStore, op, traced(f"store.{op}"))
          for op in ("load", "cached_count", "cached_counts", "run_index")],
        (JobJournal, "record", traced("journal.record")),
        (JobJournal, "mark", traced("journal.mark")),
        (JobManager, "submit", traced("jobs.submit", after=after_submit)),
        # Both process_next and the worker threads run a job through _run_job.
        (JobManager, "_run_job", traced("jobs.run", before=before_run, after=after_run)),
        (server.ReproServer, "finish_request", traced("http.server", after=after_finish)),
        (server, "_route_label", count_routes),
    ]


def install(recorder: Recorder) -> Patcher:
    """Wrap every traced layer; returns the patcher that undoes it."""
    patcher = Patcher()
    for owner, attr, make in _wrappers(recorder):
        patcher.replace(owner, attr, make)
    return patcher


def patched_attributes() -> dict[tuple[str, str], object]:
    """The own value of every attribute ``install`` replaces (for the self-test)."""
    return {
        (owner.__name__, attr): vars(owner).get(attr)
        for owner, attr, _ in _wrappers(Recorder())
    }


# --------------------------------------------------------------------------
# From spans to metrics
# --------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {id(span): span.duration for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= span.duration
    return own


def layer_of(name: str) -> str:
    """Budget layer of a span name; roots (benchmark ops) are unattributed."""
    if name in ("http.server", "http.transport", "client.poll_wait"):
        return name
    if name == "client.request":
        return "http.transport"
    head = name.split(".", 1)[0]
    return head if head in ("engine", "parallel", "session", "store", "journal", "jobs") else "unattributed"


def budget(roots: Sequence[Span], spans: Sequence[Span]) -> tuple[float, dict[str, float]]:
    """Total wall of ``roots`` and its split into per-layer self seconds.

    Every span under a root contributes its self time to its layer and the
    roots' own self time is the ``unattributed`` remainder, so the parts add
    up to the wall by construction.
    """
    root_ids = {id(root) for root in roots}

    def root_of(span: Span) -> Span | None:
        while span.parent is not None:
            span = span.parent
        return span if id(span) in root_ids else None

    members = [span for span in spans if root_of(span) is not None]
    own = self_times(members)
    parts: dict[str, float] = defaultdict(float)
    for span in members:
        parts[layer_of(span.name)] += own[id(span)]
    return sum(root.duration for root in roots), dict(parts)


def budget_metrics(wall: float, parts: dict[str, float]) -> dict[str, float]:
    """Each budget layer's self time, and the unattributed rest, as shares of wall."""
    metrics = {f"budget.{layer}.self_frac": parts.get(layer, 0.0) / wall for layer in BUDGET_LAYERS}
    metrics["unattributed_frac"] = parts.get("unattributed", 0.0) / wall
    return metrics


def layer_metrics(spans: Sequence[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics (see ``spec.PER_LAYER``) from one traced window."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    own = self_times(spans)
    ms = 1000.0

    def durations(name: str) -> list[float]:
        return [span.duration for span in by_name[name]]

    out: dict[str, float] = {}
    engine = [span for name in ("engine.simulate", "engine.simulate_batch", "engine.simulate_megabatch")
              for span in by_name[name]]
    runs = sum(span.attrs.get("runs", 0) for span in engine)
    slots = sum(span.attrs.get("slots", 0) for span in engine)
    out["engine.calls"] = len(engine)
    out["engine.busy_s"] = sum(span.duration for span in engine)
    out["engine.runs"] = runs
    out["engine.slots"] = slots
    for attr, keys in (("kind", ("fair", "window")), ("family", ("ofa", "lfa", "ebb", "llib"))):
        for key in keys:
            chosen = [span for span in engine if span.attrs.get(attr) == key]
            key_slots = sum(span.attrs["slots"] for span in chosen)
            busy = sum(span.duration for span in chosen)
            out[f"engine.{key}.us_per_slot"] = busy / key_slots * 1e6 if key_slots else 0.0
    fused = by_name["engine.simulate_megabatch"]
    fused_slots = sum(span.attrs["slots"] for span in fused)
    out["engine.fused_occupancy"] = (
        sum(span.attrs["slots"] ** 2 / (span.attrs["rows"] * span.attrs["longest"])
            for span in fused if span.attrs["longest"]) / fused_slots
        if fused_slots else 0.0
    )
    out["engine.solved_frac"] = sum(span.attrs.get("solved", 0) for span in engine) / runs if runs else 0.0

    out["parallel.units"] = sum(span.attrs.get("units", 0) for span in by_name["parallel.run"])
    out["parallel.self_s"] = sum(own[id(span)] for span in by_name["parallel.run"])

    run_all = by_name["session.run_all"]
    out["session.run_all.calls"] = len(run_all)
    out["session.run_all.self_ms"] = percentile([own[id(span)] * ms for span in run_all], 50)
    cached = by_name["session.run_cached"]
    out["session.run_cached.calls"] = len(cached)
    out["session.run_cached.hit_frac"] = (
        sum(1 for span in cached if span.attrs.get("hit")) / len(cached) if cached else 0.0
    )
    out["session.run_cached.p50_ms"] = percentile(durations("session.run_cached"), 50) * ms

    for op in ("append", "load", "cached_count", "cached_counts", "run_index"):
        out[f"store.{op}.calls"] = len(by_name[f"store.{op}"])
        out[f"store.{op}.p50_ms"] = percentile(durations(f"store.{op}"), 50) * ms
    out["store.append.runs"] = sum(span.attrs.get("runs", 0) for span in by_name["store.append"])
    out["store.bytes_written"] = sum(span.attrs.get("bytes", 0) for span in by_name["store.append"])

    out["journal.record.calls"] = len(by_name["journal.record"])
    out["journal.record.p50_ms"] = percentile(durations("journal.record"), 50) * ms
    out["journal.mark.p50_ms"] = percentile(durations("journal.mark"), 50) * ms

    submits = by_name["jobs.submit"]
    for disposition in ("cached", "queued", "deduplicated"):
        out[f"jobs.submit.{disposition}"] = sum(
            1 for span in submits if span.attrs.get("disposition") == disposition
        )
    out["jobs.submit.p50_ms"] = percentile(durations("jobs.submit"), 50) * ms
    waits = [span.attrs["queue_wait"] * ms for span in by_name["jobs.run"] if "queue_wait" in span.attrs]
    out["jobs.queue_wait.p50_ms"] = percentile(waits, 50)
    out["jobs.queue_wait.p90_ms"] = percentile(waits, 90)
    out["jobs.run.p50_ms"] = percentile(durations("jobs.run"), 50) * ms
    out["jobs.retries"] = sum(span.attrs.get("retries", 0) for span in by_name["jobs.run"])

    for route, key in (("/scenarios", "scenarios"), ("/jobs/{id}", "jobs_id"),
                       ("/results/{hash}", "results_hash"), ("/healthz", "healthz")):
        out[f"http.requests.{key}"] = counts.get("route:" + route, 0)
    out["http.server.p50_ms"] = percentile(
        [span.attrs.get("server_s", span.duration) for span in by_name["http.server"]], 50) * ms
    transport = [
        span.duration - child.duration
        for child in by_name["http.server"]
        if (span := child.parent) is not None and span.name == "client.request"
    ]
    out["http.transport.p50_ms"] = percentile(transport, 50) * ms
    return out
