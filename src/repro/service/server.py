"""The threaded HTTP/JSON simulation server behind ``repro serve``.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
routes the endpoints onto a :class:`~repro.service.jobs.JobManager` and its
shared :class:`~repro.scenarios.session.Session`:

========================  ====================================================
``POST /scenarios``       submit a scenario (spec string / JSON / TOML body;
                          optional ``?deadline=<seconds>`` wall-clock budget);
                          202 + job payload when queued, 200 with
                          ``cached: true`` (zero new simulations) or
                          ``deduplicated: true`` otherwise; 503 +
                          ``Retry-After`` when the queue is full or draining
``GET /jobs/<id>``        job status + per-replication progress
``DELETE /jobs/<id>``     cancel a job (immediate while queued, cooperative
                          between batches of replications while running;
                          409 once finished)
``GET /jobs``             all known jobs, oldest first
``GET /results/<hash>``   completed ``ResultSet.to_dict()`` payload for a
                          scenario content hash (from a finished job or
                          straight from the result store)
``POST /results/<hash>``  federation ingest: merge externally produced
                          replications into the server's store (diffed by
                          replication index; existing results are never
                          overwritten) — what :func:`repro.scenarios.
                          federation.sync` uses to push to a server
``GET /store``            the store listing (one record per scenario cell)
``GET /healthz``          liveness + degradation: job counts (live and
                          lifetime), queue depth/limit/accepting, journal
                          backlog, last failure, metrics summary
``GET /metrics``          Prometheus text exposition of the process-wide
                          metrics registry (see :mod:`repro.obs`)
========================  ====================================================

Each request runs on its own thread (``ThreadingHTTPServer``), while
simulations run on the job manager's worker threads — a slow cell never
blocks health checks or status polls.  Requests that *do* execute scenarios
synchronously (cached submissions, store-served ``/results/<hash>``) perform
zero simulations by construction, so they stay fast too.

Reliability (see :mod:`repro.service.reliability`): when the session has a
store, :func:`create_server` wires a crash-safe job journal next to it and
replays unfinished submissions on boot; ``repro serve`` installs
SIGTERM/SIGINT handlers that drain gracefully (stop accepting → 503, finish
in-flight jobs, leave the queued rest journaled).  A
:class:`~repro.service.reliability.FaultInjector` passed to the server
injects HTTP-level chaos (500s and connection resets) ahead of routing, for
client-retry tests.
"""

from __future__ import annotations

import signal
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.obs import (
    REGISTRY,
    configure_json_logging,
    configure_tracing,
    enabled as obs_enabled,
    get_logger,
    set_enabled,
    span,
    trace_log_for_store,
)
from repro.scenarios.session import Session
from repro.scenarios.spec import SpecError
from repro.service.jobs import JobManager
from repro.service.reliability import (
    FaultInjector,
    InjectedFault,
    Overloaded,
    SimulatedCrash,
    journal_for_store,
)
from repro.service.wire import dump_json, parse_results_body, parse_scenario_body

__all__ = ["ReproServer", "create_server", "serve"]

log = get_logger("service.server")

_M_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, normalised route and status.",
    ("method", "route", "status"),
)
_M_REQ_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request handling time, by method and normalised route.",
    ("method", "route"),
)
_M_HTTP_FAULTS = REGISTRY.counter(
    "repro_http_faults_injected_total",
    "HTTP-level chaos faults fired before routing, by kind.",
    ("kind",),
)

#: Exact-match routes; parameterised paths normalise to placeholder labels so
#: metric cardinality stays bounded no matter how many jobs/hashes exist.
_KNOWN_ROUTES = frozenset({"/", "/healthz", "/metrics", "/store", "/jobs", "/scenarios"})


def _route_label(path: str) -> str:
    path = urlsplit(path).path.rstrip("/") or "/"
    if path.startswith("/jobs/"):
        return "/jobs/{id}"
    if path.startswith("/results/"):
        return "/results/{hash}"
    return path if path in _KNOWN_ROUTES else "other"


def _metrics_summary() -> dict[str, object]:
    """Headline numbers for ``/healthz`` (full detail lives at ``/metrics``)."""
    snapshot = REGISTRY.snapshot()

    def total(name: str) -> float:
        family = snapshot.get(name)
        if family is None:
            return 0
        out = 0.0
        for value in family["series"].values():  # type: ignore[union-attr]
            if isinstance(value, dict):
                out += value.get("count", 0)
            else:
                out += value
        return out

    return {
        "enabled": obs_enabled(),
        "families": len(snapshot),
        "http_requests": total("repro_http_requests_total"),
        "jobs_submitted": total("repro_jobs_submitted_total"),
        "slots_simulated": total("repro_engine_slots_total"),
    }


class ReproServer(ThreadingHTTPServer):
    """HTTP server owning the session and job manager it serves."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        session: Session,
        jobs: JobManager,
        quiet: bool = True,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.session = session
        self.jobs = jobs
        self.quiet = quiet
        self.fault_injector = fault_injector

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and benchmarks); returns it."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> int:
        """Stop serving and drain gracefully; idempotent.

        Running jobs finish; jobs still queued are left journaled for the
        next boot to replay (returned count).  Use ``jobs.shutdown()``
        directly for the old run-everything-first behaviour.
        """
        self.shutdown()
        self.server_close()
        return self.jobs.drain()


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer

    # ----------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = dump_json(payload)
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _timed(self, method: str, handler: Callable[[], None]) -> None:
        """Run one request handler under a span + latency/status metrics.

        ``_send`` records the response status on the handler instance; a
        request eaten by the connection-reset chaos fault (no response at
        all) is counted under status ``0``.
        """
        route = _route_label(self.path)
        self._status = 0
        started = time.monotonic()
        with span("http.request", method=method, route=route) as request_span:
            try:
                handler()
            finally:
                request_span["status"] = self._status
        _M_REQ_LATENCY.labels(method=method, route=route).observe(
            time.monotonic() - started
        )
        _M_REQUESTS.labels(method=method, route=route, status=str(self._status)).inc()

    def _error(self, status: int, message: str, **extra: object) -> None:
        self._send(status, {"error": message, **extra})

    def _inject_http_fault(self) -> bool:
        """HTTP-level chaos hook; returns True when the request was eaten.

        ``http-500`` answers with a retryable 500 before routing;
        ``http-reset`` slams the connection shut mid-response (the client
        sees a connection reset / truncated read).  ``/healthz`` is exempt —
        it is how chaos tests observe the server.
        """
        injector = self.server.fault_injector
        if injector is None or self.path.rstrip("/") == "/healthz":
            return False
        try:
            injector.maybe_fail("http-500")
            if injector.roll("http-reset"):
                _M_HTTP_FAULTS.labels(kind="reset").inc()
                self.close_connection = True
                self.connection.close()
                return True
        except SimulatedCrash:  # pragma: no cover - defensive
            raise
        except InjectedFault as error:  # → a retryable 500
            _M_HTTP_FAULTS.labels(kind="500").inc()
            self._error(500, f"injected server fault: {error}")
            return True
        return False

    # ------------------------------------------------------------------ routes
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._timed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._timed("POST", self._handle_post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server contract
        self._timed("DELETE", self._handle_delete)

    def _handle_get(self) -> None:
        if self._inject_http_fault():
            return
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._get_healthz()
        elif path == "/metrics":
            self._get_metrics()
        elif path == "/store":
            self._get_store()
        elif path == "/jobs":
            self._send(200, {"jobs": [job.snapshot() for job in self.server.jobs.jobs()]})
        elif path.startswith("/jobs/"):
            self._get_job(path.removeprefix("/jobs/"))
        elif path.startswith("/results/"):
            self._get_result(path.removeprefix("/results/"))
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _handle_post(self) -> None:
        if self._inject_http_fault():
            return
        url = urlsplit(self.path)
        path = url.path.rstrip("/")
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if path.startswith("/results/"):
            self._post_result(path.removeprefix("/results/"), body)
            return
        if path != "/scenarios":
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            scenario = parse_scenario_body(body, self.headers.get("Content-Type"))
            deadline = self._parse_deadline(url.query)
        except (SpecError, ValueError, KeyError) as error:
            self._error(400, f"bad scenario: {error}")
            return
        try:
            job, disposition = self.server.jobs.submit(scenario, deadline=deadline)
        except Overloaded as error:
            self._send(
                503,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{max(1, round(error.retry_after))}"},
            )
            return
        payload = {
            "job": job.snapshot(),
            "hash": job.content_hash,
            "cached": disposition == "cached",
            "deduplicated": disposition == "deduplicated",
        }
        self._send(202 if disposition == "queued" else 200, payload)

    def _handle_delete(self) -> None:
        if self._inject_http_fault():
            return
        path = self.path.rstrip("/")
        if not path.startswith("/jobs/"):
            self._error(404, f"unknown path {self.path!r}")
            return
        job_id = path.removeprefix("/jobs/")
        disposition = self.server.jobs.cancel(job_id)
        if disposition is None:
            self._error(404, f"unknown job {job_id!r}")
        elif disposition == "finished":
            job = self.server.jobs.get(job_id)
            self._error(
                409,
                f"job {job_id!r} already finished",
                job=job.snapshot() if job is not None else None,
            )
        else:
            job = self.server.jobs.get(job_id)
            self._send(
                200,
                {
                    "cancelled": disposition == "cancelled",
                    "cancelling": disposition == "cancelling",
                    "job": job.snapshot() if job is not None else None,
                },
            )

    @staticmethod
    def _parse_deadline(query: str) -> float | None:
        """``?deadline=<seconds from now>`` → validated relative seconds.

        The manager tracks the deadline on the monotonic clock; the wire
        stays relative so clients and server need not share a wall clock.
        """
        for key, value in parse_qsl(query, keep_blank_values=True):
            if key == "deadline":
                seconds = float(value)
                if seconds <= 0:
                    raise ValueError(f"deadline must be positive, got {seconds}")
                return seconds
        return None

    # ---------------------------------------------------------------- handlers
    def _get_healthz(self) -> None:
        from repro import __version__

        server = self.server
        session = server.session
        jobs = server.jobs
        depth = jobs.queue_depth()
        accepting = jobs.accepting
        queue_full = jobs.max_queue is not None and depth >= jobs.max_queue
        if not accepting:
            status = "draining"
        elif queue_full:
            status = "degraded"
        else:
            status = "ok"
        self._send(
            200,
            {
                "status": status,
                "version": __version__,
                "store": session.store.describe() if session.store is not None else None,
                "jobs": jobs.counts(),
                "totals": jobs.lifetime_counts(),
                "queue": {
                    "depth": depth,
                    "limit": jobs.max_queue,
                    "accepting": accepting,
                },
                "journal": {
                    "backlog": jobs.journal.backlog() if jobs.journal is not None else 0
                },
                "last_failure": jobs.last_failure,
                "metrics": _metrics_summary(),
            },
        )

    def _get_metrics(self) -> None:
        """Prometheus text exposition of the process-wide registry."""
        body = REGISTRY.render().encode("utf-8")
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_store(self) -> None:
        store = self.server.session.store
        records = [record.to_dict() for record in store.summaries()] if store else []
        self._send(200, {"records": records})

    def _get_job(self, job_id: str) -> None:
        job = self.server.jobs.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send(200, {"job": job.snapshot()})

    def _get_result(self, content_hash: str) -> None:
        result_set = self.server.jobs.result_for_hash(content_hash)
        if result_set is not None:
            self._send(200, result_set.to_dict())
            return
        session = self.server.session
        scenario = (
            session.store.scenario_for_hash(content_hash) if session.store is not None else None
        )
        if scenario is None:
            self._error(404, f"no results for hash {content_hash!r}")
            return
        # Fully on record: served entirely from the store, zero simulations.
        stored = session.run_cached(scenario)
        if stored is None:
            self._error(
                409,
                f"scenario {content_hash!r} is incomplete",
                cached_replications=session.cached_count(scenario),
                replications=scenario.replications,
            )
            return
        self._send(200, stored.to_dict())

    def _post_result(self, content_hash: str, body: bytes) -> None:
        """Federation ingest: merge pushed replications into the store."""
        session = self.server.session
        if session.store is None:
            self._error(409, "server has no result store to ingest into")
            return
        try:
            scenario, runs = parse_results_body(body)
        except (SpecError, ValueError, KeyError, TypeError) as error:
            self._error(400, f"bad results body: {error}")
            return
        if scenario.content_hash() != content_hash:
            self._error(
                400,
                f"scenario hashes to {scenario.content_hash()!r}, "
                f"not the requested {content_hash!r}",
            )
            return
        expected_seeds = scenario.seeds()
        valid = [
            run
            for run in runs
            if run.replication >= len(expected_seeds)
            or run.seed == expected_seeds[run.replication]
        ]
        added = session.ingest(scenario, valid)
        self._send(
            200,
            {
                "hash": content_hash,
                "received": len(runs),
                "added": added,
                "rejected": len(runs) - len(valid),
            },
        )


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store_dir: str | Path | None = None,
    workers: int | None = 1,
    job_workers: int = 1,
    quiet: bool = True,
    max_queue: int | None = None,
    fault_injector: FaultInjector | None = None,
    obs: bool = True,
) -> ReproServer:
    """Assemble a ready-to-serve :class:`ReproServer` (port 0 = ephemeral).

    When the session has a store, a crash-safe job journal is wired beside it
    (see :func:`~repro.service.reliability.journal_for_store`) and any
    submissions left unfinished by a previous process are replayed *before*
    the server takes traffic — content-hash dedup and the store-cached fast
    path make the replay idempotent.  ``max_queue`` bounds accepted-but-
    unstarted jobs (full → 503 + ``Retry-After``); ``fault_injector`` adds
    HTTP-level chaos for tests.

    ``obs`` toggles the observability layer (``repro serve --no-obs``):
    metric recording is flipped process-wide, and when a store is configured
    spans are exported to a trace log beside the journal (see
    :func:`~repro.obs.tracing.trace_log_for_store`).  ``GET /metrics``
    serves either way — frozen counters under ``--no-obs``.
    """
    session = Session(store_dir=store_dir, workers=workers)
    set_enabled(obs)
    if obs and session.store is not None:
        trace_log = trace_log_for_store(session.store)
        configure_tracing(trace_log.path if trace_log is not None else None)
    else:
        configure_tracing(None)
    journal = journal_for_store(session.store)
    jobs = JobManager(
        session,
        workers=job_workers,
        max_queue=max_queue,
        journal=journal,
        fault_injector=fault_injector,
    )
    jobs.replay_journal()
    return ReproServer(
        (host, port), session, jobs, quiet=quiet, fault_injector=fault_injector
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    store_dir: str | Path | None = None,
    workers: int | None = 1,
    job_workers: int = 1,
    quiet: bool = False,
    max_queue: int | None = None,
    obs: bool = True,
) -> int:
    """Blocking entry point behind ``repro serve`` (Ctrl-C/SIGTERM to stop).

    SIGTERM and SIGINT trigger a graceful drain: the server stops accepting
    (new submissions get 503 + ``Retry-After``), in-flight jobs finish, and
    jobs still queued stay journaled for the next boot to replay.  Service
    logs are structured JSON lines on stderr, each carrying the trace id of
    the request it belongs to; ``obs=False`` (``--no-obs``) freezes metric
    recording and span export.
    """
    configure_json_logging()
    server = create_server(
        host=host,
        port=port,
        store_dir=store_dir,
        workers=workers,
        job_workers=job_workers,
        quiet=quiet,
        max_queue=max_queue,
        obs=obs,
    )

    def _graceful(signum: int, _frame: object) -> None:  # pragma: no cover
        # serve_forever runs on this thread, so shutdown() must come from
        # another one — calling it here would deadlock.
        if not quiet:
            log.info("signal %d: draining (in-flight jobs will finish)", signum)
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    except ValueError:  # pragma: no cover - not on the main thread
        pass
    log.info(
        "repro service listening on %s (store: %s, obs: %s)",
        server.url,
        store_dir if store_dir is not None else "none — in-memory",
        "on" if obs else "off",
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        leftover = server.close()
        if leftover and not quiet:  # pragma: no cover - interactive shutdown
            log.info("drained: %d queued job(s) journaled for next boot", leftover)
    return 0
