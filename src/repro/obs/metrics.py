"""Thread-safe, stdlib-only metrics primitives with Prometheus exposition.

The design is a small, explicit registry of named families plus
get-or-create accessors, so any subsystem can say

    from repro.obs import REGISTRY

    SLOTS = REGISTRY.counter(
        "repro_engine_slots_total", "Channel slots simulated.", ("engine",)
    )
    SLOTS.labels(engine="fair").inc(out.slots)

without caring whether another module already created the family.  Three
instrument kinds are provided — :class:`Counter` (monotone), :class:`Gauge`
(settable, optionally backed by a live callback) and :class:`Histogram`
(cumulative buckets with ``_sum``/``_count``) — each of which fans out into
per-label-set children.

Two properties matter for correctness and are covered by tests:

* **Determinism** — :meth:`MetricsRegistry.render` emits families sorted by
  name and children sorted by label values, so the exposition text is stable
  for a given set of observations (histogram bucket lines are emitted in
  ascending ``le`` order, cumulative by construction).
* **Zero cost when disabled** — every mutating call checks one module-level
  boolean first; ``repro serve --no-obs`` and the overhead benchmark flip it
  via :func:`set_enabled`.

Everything synchronises on per-registry/per-child locks and is safe to call
from the service's worker threads and HTTP handler threads concurrently.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "enabled",
    "set_enabled",
    "escape_label_value",
    "format_value",
]

# Seconds-scale buckets wide enough for both sub-millisecond cached hits and
# multi-second sweep attempts.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    float("inf"),
)

_enabled = True
_enabled_lock = threading.Lock()


def enabled() -> bool:
    """Return whether instrumentation is currently recording."""
    return _enabled


def set_enabled(value: bool) -> None:
    """Globally enable or disable metric recording (``--no-obs``)."""
    global _enabled
    with _enabled_lock:
        _enabled = bool(value)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if math.isnan(value):
        return "NaN"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(float(value))


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Child:
    """Base for per-label-set instrument children."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class CounterChild(_Child):
    """A single monotone counter series."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not _enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeChild(_Child):
    """A single settable gauge series, optionally backed by a callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Source the gauge from ``fn()`` at scrape time (e.g. queue depth)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:  # noqa: BLE001 - a broken probe must not break scrapes
                return float("nan")
        return self._value


class HistogramChild(_Child):
    """A single histogram series: cumulative buckets plus sum and count."""

    __slots__ = ("buckets", "_bucket_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        super().__init__()
        self.buckets = tuple(buckets)
        self._bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        # First bucket with value <= bound (the +Inf tail bound catches all);
        # per-bucket counts — snapshot() cumulates.  bisect keeps this O(log
        # buckets) in C, cheap enough for per-request call sites.
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._sum += value
            self._count += 1
            self._bucket_counts[index] += 1

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            cumulative: list[int] = []
            running = 0
            for n in self._bucket_counts:
                running += n
                cumulative.append(running)
            return {
                "buckets": dict(zip(self.buckets, cumulative)),
                "sum": self._sum,
                "count": self._count,
            }


class _Family:
    """A named metric family fanning out into per-label-set children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self) -> object:
        raise NotImplementedError

    def _child(self, labelvalues: tuple[str, ...]) -> object:
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = self._make_child()
                self._children[labelvalues] = child
            return child

    def _resolve(self, args: Sequence[str], kwargs: Mapping[str, str]) -> tuple[str, ...]:
        if args and kwargs:
            raise ValueError("pass label values positionally or by name, not both")
        if kwargs:
            try:
                values = tuple(str(kwargs[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name!r} takes labels {self.labelnames}; missing {exc}"
                ) from None
            if len(kwargs) != len(self.labelnames):
                extra = set(kwargs) - set(self.labelnames)
                raise ValueError(f"metric {self.name!r} got unexpected labels {sorted(extra)}")
            return values
        values = tuple(str(v) for v in args)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} label values "
                f"{self.labelnames}; got {len(values)}"
            )
        return values

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class Counter(_Family):
    """Monotonically increasing counter family."""

    kind = "counter"

    def _make_child(self) -> CounterChild:
        return CounterChild()

    def labels(self, *args: str, **kwargs: str) -> CounterChild:
        return self._child(self._resolve(args, kwargs))  # type: ignore[return-value]

    def inc(self, amount: float = 1.0) -> None:
        """Shorthand for the unlabelled child (labelnames must be empty)."""
        self.labels().inc(amount)


class Gauge(_Family):
    """Settable gauge family."""

    kind = "gauge"

    def _make_child(self) -> GaugeChild:
        return GaugeChild()

    def labels(self, *args: str, **kwargs: str) -> GaugeChild:
        return self._child(self._resolve(args, kwargs))  # type: ignore[return-value]

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self.labels().set_function(fn)


class Histogram(_Family):
    """Histogram family with fixed buckets shared by all children."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        cleaned = [float(b) for b in buckets]
        if cleaned != sorted(cleaned):
            raise ValueError(f"histogram buckets must be sorted; got {buckets!r}")
        if not cleaned or cleaned[-1] != math.inf:
            cleaned.append(math.inf)
        self.buckets = tuple(cleaned)

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def labels(self, *args: str, **kwargs: str) -> HistogramChild:
        return self._child(self._resolve(args, kwargs))  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        self.labels().observe(value)


#: A counter series across processes: (family name, help, label names,
#: label values).
CounterKey = tuple[str, str, tuple[str, ...], tuple[str, ...]]


class MetricsRegistry:
    """Get-or-create registry of metric families.

    ``counter``/``gauge``/``histogram`` return the existing family when one
    with the same name is already registered (validating that the kind and
    label names agree), so instrumentation points in different modules can
    share a family without import-order coupling.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str, labelnames: Sequence[str], **kwargs: object) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"  # type: ignore[attr-defined]
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)  # type: ignore[return-value]

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (tests and benchmark harnesses only)."""
        with self._lock:
            self._families.clear()

    def counter_totals(self) -> dict[CounterKey, float]:
        """The current value of every counter series.

        With :meth:`merge_counters` this carries counts across a process
        boundary: a worker process takes the totals before and after a unit
        of work and ships the difference back for the parent to add.
        """
        return {
            (family.name, family.help, family.labelnames, labelvalues): child.value  # type: ignore[attr-defined]
            for family in self.families()
            if isinstance(family, Counter)
            for labelvalues, child in family.children()
        }

    def merge_counters(self, deltas: Mapping[CounterKey, float]) -> None:
        """Add counter increments made elsewhere (see :meth:`counter_totals`)."""
        for (name, help, labelnames, labelvalues), amount in deltas.items():
            self.counter(name, help, labelnames).labels(*labelvalues).inc(amount)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Return all families and children as a plain nested dict."""
        out: dict[str, dict[str, object]] = {}
        for family in self.families():
            series: dict[str, object] = {}
            for labelvalues, child in family.children():
                key = _label_suffix(family.labelnames, labelvalues) or ""
                if isinstance(child, HistogramChild):
                    snap = child.snapshot()
                    series[key] = {
                        "sum": snap["sum"],
                        "count": snap["count"],
                        "buckets": {
                            format_value(bound): count
                            for bound, count in snap["buckets"].items()  # type: ignore[union-attr]
                        },
                    }
                else:
                    series[key] = child.value  # type: ignore[union-attr]
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def render(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                if isinstance(child, HistogramChild):
                    snap = child.snapshot()
                    for bound, count in snap["buckets"].items():  # type: ignore[union-attr]
                        le_values = labelvalues + (format_value(bound),)
                        suffix = _label_suffix(
                            family.labelnames + ("le",), le_values
                        )
                        lines.append(f"{family.name}_bucket{suffix} {count}")
                    suffix = _label_suffix(family.labelnames, labelvalues)
                    lines.append(
                        f"{family.name}_sum{suffix} {format_value(snap['sum'])}"  # type: ignore[arg-type]
                    )
                    lines.append(f"{family.name}_count{suffix} {snap['count']}")
                else:
                    suffix = _label_suffix(family.labelnames, labelvalues)
                    value = child.value  # type: ignore[union-attr]
                    lines.append(f"{family.name}{suffix} {format_value(value)}")
        return "\n".join(lines) + "\n"


#: Process-wide default registry.  Instrumentation throughout the codebase
#: hangs families off this instance; ``GET /metrics`` renders it.
REGISTRY = MetricsRegistry()
