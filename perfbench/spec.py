"""What the benchmark measures: workloads, metrics, bounds and their meaning.

This module is the benchmark's documentation in data form.  ``BENCHMARK.json``
at the repository root restates the names, units, bounds and workload reasons
given here (``test_harness.py`` checks that the two agree), and every
per-layer metric names the end-to-end metric and workload it should move, so
a later change can cite its prediction by name.

It imports nothing from the program: the server child and the set-up probe
use it to find the source tree before anything else is imported.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of this folder).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores and server logs; removed after every run.
WORK = Path(__file__).resolve().parent / "_work"
HISTORY = Path(__file__).resolve().parent / "history.jsonl"


def require_source() -> None:
    """Put ``src`` on the import path, or exit non-zero when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)  # noqa: T201
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What one operation is, in the words of the run output.
    op: str


WORKLOADS = (
    Workload(
        "table1",
        "The ROADMAP reference grid (5 protocols, 10 runs) cut to k<=1e3: the fused "
        "fair kernel does most of the work and the store sees only cold appends.",
        "reproduce_table1 over a fresh JSONL store, then run_cached probes of "
        "every stored cell",
    ),
    Workload(
        "windowed-grid",
        "EBB and LLIB only, k<=1e5, 10 runs: the windowed fused kernel does nearly "
        "all of the work and fair-kernel changes must not move it.",
        "run_sweep over a fresh JSONL store, then run_cached probes of every "
        "stored cell",
    ),
    Workload(
        "service-mix",
        "2 closed-loop clients against repro serve, 90% cached resubmissions and "
        "10% fresh jobs: HTTP, queue, journal, session and store do the work.",
        "one POST /scenarios; fresh ones then poll GET /jobs/<id> every 2 ms "
        "until done",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the parent's median by which the metric
    #: may worsen before a change counts as a regression.
    bound: float | None
    #: What the number is, per workload kind.
    definition: str
    #: Per-layer only: the end-to-end metric and workload it should move.
    moves: str = ""


def _e2e(name: str, unit: str, better: str, bound: float, definition: str) -> Metric:
    return Metric(name, unit, better, bound, definition)


# Every end-to-end metric is reported on every workload.  On the grids an
# operation is a whole grid pass, so "fresh" is a grid computed from scratch
# and "cached" is one stored cell served again; on service-mix they are the
# two kinds of submission.  The CPU speed of a shared VM drifts by tens of
# percent between minutes, so every timed period of a run (a grid pass, an
# operation's 200 cached probes, a 1-second window of the closed loop) is
# bracketed by calibrations of a fixed kernel and put at the reference speed
# (calibrate.py: times in reference seconds, rates per reference second,
# scaled by the kernel's slowness to the 1.5th power, or to 0.75 for
# windowed-grid passes, which slow less with it).
# A run then reports the median over its operations of each per-pass metric
# (grids), and each percentile and rate over every operation or probe of the
# run.  History records keep the unscaled figures as well.
END_TO_END = (
    _e2e("setup_s", "s", "lower", 0.25,
         "Process start to ready, median of 5 set-ups, each scaled by a "
         "calibration just before it: a fresh interpreter that imports the layers "
         "and runs a warm-up grid (grids), or a server child booted and its "
         "40-scenario pool warmed (service-mix)."),
    _e2e("wall_s", "s", "lower", 0.25,
         "Seconds per operation: the median grid pass (grids); the mean closed-loop "
         "operation of either kind, clients x loop time / operations (service-mix)."),
    _e2e("slots_per_s", "slots/s", "higher", 0.25,
         "Channel slots simulated per second: sum of slots_simulated over a pass "
         "/ pass time, median over passes (grids); over every fresh job / loop "
         "time (service-mix)."),
    _e2e("req_per_s", "req/s", "higher", 0.25,
         "Scenario cells completed per second of a cold grid pass, median over "
         "passes (grids); submissions of both kinds completed / loop time "
         "(service-mix)."),
    _e2e("cached_p50_ms", "ms", "lower", 0.25,
         "Median time to serve work already on record, zero simulations: one "
         "stored cell through Session.run_cached, over every probe of the run "
         "(grids); POST /scenarios round trip of a pool resubmission, over every "
         "one of the run (service-mix)."),
    _e2e("cached_p99_ms", "ms", "lower", 0.25,
         "99th percentile of the same samples as cached_p50_ms."),
    _e2e("fresh_p50_ms", "ms", "lower", 0.25,
         "Median time from submitting new work until its results are done: the "
         "median cold grid pass (grids); submit until the client sees the job "
         "done, over every fresh job of the run (service-mix)."),
    _e2e("fresh_p90_ms", "ms", "lower", 0.25,
         "90th percentile of the same samples as fresh_p50_ms (on the grids, "
         "where each pass is one sample, the same median pass)."),
    _e2e("peak_rss_mb", "MB", "lower", 0.1,
         "Peak RSS of the benchmark process, plus the server child on service-mix."),
)


def _layer(name: str, unit: str, better: str, moves: str, definition: str = "") -> Metric:
    return Metric(name, unit, better, None, definition, moves)


#: Layers of the traced run's budget: each one's self time as a share of the
#: workload's wall, which with unattributed_frac adds up to 1.
BUDGET_LAYERS = (
    "engine", "parallel", "session", "store", "journal", "jobs", "http.server",
    "http.transport", "client.poll_wait",
)

_GRIDS = "table1 and windowed-grid"
_FRESH = "service-mix fresh_p50_ms"
_CACHED = "service-mix cached_p50_ms, req_per_s"

PER_LAYER = (
    # engine: repro.engine.dispatch.simulate / simulate_batch /
    # simulate_megabatch, wrapped where repro.experiments.parallel looks them up.
    _layer("engine.calls", "count", "lower", f"wall_s on {_GRIDS}"),
    _layer("engine.busy_s", "s", "lower", f"wall_s on {_GRIDS}; a small share of service-mix"),
    _layer("engine.runs", "count", "higher", "slots_per_s on every workload"),
    _layer("engine.slots", "count", "higher", "slots_per_s on every workload"),
    _layer("engine.fair.us_per_slot", "us", "lower",
           "table1 wall_s and slots_per_s; flat on windowed-grid and service-mix"),
    _layer("engine.window.us_per_slot", "us", "lower",
           "windowed-grid wall_s; flat on table1"),
    _layer("engine.ofa.us_per_slot", "us", "lower", "table1 wall_s"),
    _layer("engine.lfa.us_per_slot", "us", "lower", "table1 wall_s"),
    _layer("engine.ebb.us_per_slot", "us", "lower", "windowed-grid wall_s"),
    _layer("engine.llib.us_per_slot", "us", "lower", "windowed-grid wall_s"),
    _layer("engine.fused_occupancy", "ratio", "higher",
           "table1 wall_s; a per-run kernel makes it 1.0",
           "Sum of row slots / (rows x longest row), slot-weighted over fused calls."),
    _layer("engine.solved_frac", "ratio", "higher", "correctness on every workload"),
    # experiments.parallel: ParallelExecutor.run.
    _layer("parallel.units", "count", "lower", f"wall_s on {_GRIDS}"),
    _layer("parallel.self_s", "s", "lower", f"wall_s on {_GRIDS}",
           "Executor time minus engine time."),
    # scenarios.session: Session.run_all / run_cached / cached_count.
    _layer("session.run_all.calls", "count", "lower", _FRESH),
    _layer("session.run_all.self_ms", "ms", "lower", _FRESH,
           "Median per call of run_all time minus executor and store calls."),
    _layer("session.run_cached.calls", "count", "lower", _CACHED),
    _layer("session.run_cached.hit_frac", "ratio", "higher", _CACHED),
    _layer("session.run_cached.p50_ms", "ms", "lower", _CACHED),
    # scenarios.store: StoreBackend append / load / cached_count /
    # cached_counts / run_index on the JSONL backend.
    _layer("store.append.calls", "count", "lower", _FRESH),
    _layer("store.append.p50_ms", "ms", "lower", f"{_FRESH}; too small to show on table1"),
    _layer("store.append.runs", "count", "higher", _FRESH),
    _layer("store.bytes_written", "bytes", "lower", _FRESH),
    _layer("store.load.calls", "count", "lower", "cached_p50_ms on every workload"),
    _layer("store.load.p50_ms", "ms", "lower", "cached_p50_ms on every workload"),
    _layer("store.cached_count.calls", "count", "lower", "service-mix cached_p50_ms"),
    _layer("store.cached_count.p50_ms", "ms", "lower", "service-mix cached_p50_ms"),
    _layer("store.cached_counts.calls", "count", "lower", f"cached_p50_ms on {_GRIDS}"),
    _layer("store.cached_counts.p50_ms", "ms", "lower", f"cached_p50_ms on {_GRIDS}"),
    _layer("store.run_index.calls", "count", "lower", "service-mix cached_p50_ms"),
    _layer("store.run_index.p50_ms", "ms", "lower", "service-mix cached_p50_ms"),
    # service.reliability: JobJournal.record / mark.
    _layer("journal.record.calls", "count", "lower", _FRESH),
    _layer("journal.record.p50_ms", "ms", "lower", _FRESH),
    _layer("journal.mark.p50_ms", "ms", "lower", _FRESH),
    # service.jobs: JobManager.submit, and JobManager._run_job (the call both
    # process_next and the worker threads make).
    _layer("jobs.submit.cached", "count", "higher", _CACHED),
    _layer("jobs.submit.queued", "count", "lower", "service-mix fresh_p90_ms"),
    _layer("jobs.submit.deduplicated", "count", "lower", "service-mix fresh_p90_ms"),
    _layer("jobs.submit.p50_ms", "ms", "lower", _CACHED),
    _layer("jobs.queue_wait.p50_ms", "ms", "lower", "service-mix fresh_p90_ms",
           "Queued submit return until a worker picks the job up."),
    _layer("jobs.queue_wait.p90_ms", "ms", "lower", "service-mix fresh_p90_ms"),
    _layer("jobs.run.p50_ms", "ms", "lower", "service-mix fresh_p90_ms"),
    _layer("jobs.retries", "count", "lower", "service-mix fresh_p90_ms"),
    # service.server: ReproServer.finish_request, routes from _route_label.
    _layer("http.requests.scenarios", "count", "higher", "service-mix req_per_s"),
    _layer("http.requests.jobs_id", "count", "lower", _FRESH),
    _layer("http.requests.results_hash", "count", "lower", "service-mix req_per_s"),
    _layer("http.requests.healthz", "count", "lower", "service-mix setup_s"),
    _layer("http.server.p50_ms", "ms", "lower", _CACHED),
    _layer("http.transport.p50_ms", "ms", "lower", _CACHED,
           "Median over requests of client round trip minus server time."),
    # service.client: the benchmark's own polling client.
    _layer("client.polls_per_fresh", "count", "lower", _FRESH,
           "Mean GET /jobs/<id> polls per fresh job (useful / attempted = 1 / this)."),
    # whole workload.
    _layer("unattributed_frac", "ratio", "lower", "must stay small on every workload",
           "(wall - sum of layer self times) / wall."),
    _layer("trace.overhead_frac", "ratio", "lower", "none: the cost of tracing itself",
           "Traced / untraced op time - 1: alternating probe passes on the grids, "
           "the loop's untraced and traced halves on service-mix."),
    _layer("failed_frac", "ratio", "lower", "every end-to-end metric",
           "Failed ops / attempted ops, as in the result line."),
) + tuple(
    _layer(f"budget.{layer}.self_frac", "ratio", "lower",
           "wall_s on the grids, cached_p50_ms and fresh_p50_ms on service-mix",
           "Self time of the layer's spans under the workload's ops / their wall.")
    for layer in BUDGET_LAYERS
)

