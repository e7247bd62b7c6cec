"""Observability through the service: /metrics, trace propagation, progress.

These tests read the process-wide :data:`repro.obs.REGISTRY`, which the whole
suite shares — every assertion is therefore a *delta* against a snapshot
taken at the start of the test, never an absolute count.
"""

from __future__ import annotations

import time
import urllib.request

import pytest

from repro.obs import (
    REGISTRY,
    enabled as obs_enabled,
    read_trace,
    set_enabled,
    tracing_sink,
)
from repro.service import JOB_DONE, ServiceClient, create_server
from repro.service.wire import JobStatus

SPEC = "one-fail-adaptive k=48 reps=3 seed=2011"


@pytest.fixture
def server(tmp_path):
    server = create_server(port=0, store_dir=tmp_path / "store", quiet=True)
    server.start_background()
    yield server
    server.close()
    # create_server(obs=True) enabled metrics and installed a trace sink
    # pointing into tmp_path; detach it so later tests don't write there.
    from repro.obs import configure_tracing

    configure_tracing(None)


@pytest.fixture
def client(server) -> ServiceClient:
    return ServiceClient(server.url, timeout=30.0)


def _http_get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def _counter_value(name: str, **labels: str) -> float:
    family = REGISTRY.snapshot().get(name)
    if family is None:
        return 0.0
    key = (
        "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}" if labels else ""
    )
    value = family["series"].get(key, 0.0)
    return float(value) if not isinstance(value, dict) else float(value["count"])


class TestMetricsEndpoint:
    def test_metrics_serves_prometheus_text(self, server, client):
        first = client.submit(SPEC)
        client.wait(first.id, timeout=60.0)
        status, content_type, text = _http_get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        # One family per instrumented layer: http, jobs, session, store, engine.
        for family in (
            "repro_http_requests_total",
            "repro_jobs_submitted_total",
            "repro_session_cache_lookups_total",
            "repro_store_append_seconds",
            "repro_engine_runs_total",
        ):
            assert f"# TYPE {family}" in text, f"missing family {family}"
        # The scrape itself is typed and help-ed Prometheus text.
        assert "# HELP repro_http_requests_total" in text

    def test_request_metrics_count_routes_and_statuses(self, server, client):
        before = _counter_value(
            "repro_http_requests_total", method="GET", route="/healthz", status="200"
        )
        client.health()
        client.health()
        # The handler thread increments *after* flushing the response, so the
        # last request's sample can trail the client return by a beat.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            after = _counter_value(
                "repro_http_requests_total", method="GET", route="/healthz", status="200"
            )
            if after - before >= 2:
                break
            time.sleep(0.01)
        assert after - before == 2

    def test_job_metrics_move_through_lifecycle(self, client):
        submitted = _counter_value("repro_jobs_submitted_total", disposition="queued")
        finished = _counter_value("repro_jobs_finished_total", state="done")
        status = client.submit(SPEC)
        status = client.wait(status.id, timeout=60.0)
        assert status.state == JOB_DONE
        assert (
            _counter_value("repro_jobs_submitted_total", disposition="queued")
            - submitted
            == 1
        )
        assert _counter_value("repro_jobs_finished_total", state="done") - finished == 1

    def test_healthz_carries_metrics_summary(self, client):
        payload = client.health()
        summary = payload["metrics"]
        assert summary["enabled"] is True
        assert summary["families"] > 0

    def test_no_obs_server_freezes_counters(self, tmp_path):
        server = create_server(
            port=0, store_dir=tmp_path / "store2", quiet=True, obs=False
        )
        server.start_background()
        try:
            assert not obs_enabled()
            assert tracing_sink() is None
            client = ServiceClient(server.url, timeout=30.0)
            before = _counter_value(
                "repro_http_requests_total", method="GET", route="/healthz", status="200"
            )
            client.health()
            after = _counter_value(
                "repro_http_requests_total", method="GET", route="/healthz", status="200"
            )
            assert after == before
            # /metrics still answers (families render, values frozen).
            status, _, text = _http_get(server.url + "/metrics")
            assert status == 200 and "# TYPE" in text
        finally:
            server.close()
            set_enabled(True)


class TestTracePropagation:
    def test_one_trace_spans_http_to_store(self, tmp_path, server, client):
        status = client.submit(SPEC)
        status = client.wait(status.id, timeout=60.0)
        assert status.state == JOB_DONE
        trace_path = tmp_path / "store" / "trace.jsonl"
        assert trace_path.is_file(), "serve must write the trace log beside the store"
        events = read_trace(trace_path)
        # The submit request's trace must cover every layer end to end.
        job_runs = [ev for ev in events if ev.name == "job.run"]
        assert job_runs, "worker must record a job.run span"
        trace = job_runs[0].trace
        stages = {ev.name for ev in events if ev.trace == trace}
        assert {
            "http.request",
            "job.run",
            "job.attempt",
            "session.plan",
            "engine.run",
            "store.append",
        } <= stages
        # The HTTP span and the worker spans agree on the trace id even
        # though they ran on different threads.
        http_spans = [
            ev for ev in events if ev.trace == trace and ev.name == "http.request"
        ]
        assert http_spans and http_spans[0].attrs.get("route") == "/scenarios"

    def test_distinct_submissions_get_distinct_traces(self, tmp_path, client):
        first = client.submit("one-fail-adaptive k=32 reps=2 seed=1")
        client.wait(first.id, timeout=60.0)
        second = client.submit("one-fail-adaptive k=32 reps=2 seed=2")
        client.wait(second.id, timeout=60.0)
        events = read_trace(tmp_path / "store" / "trace.jsonl")
        traces = {ev.trace for ev in events if ev.name == "job.run"}
        assert len(traces) == 2


class TestWaitProgress:
    def test_on_progress_sees_changes_and_final_state(self, client):
        seen: list[JobStatus] = []
        status = client.submit(SPEC)
        status = client.wait(status.id, timeout=60.0, on_progress=seen.append)
        assert status.state == JOB_DONE
        assert seen, "at least the final status must be reported"
        assert seen[-1].finished and seen[-1].done == 3
        # No duplicate (state, done) pairs: the callback only fires on change.
        pairs = [(s.state, s.done) for s in seen]
        assert len(pairs) == len(set(pairs))

    def test_wait_without_callback_unchanged(self, client):
        status = client.submit(SPEC)
        assert client.wait(status.id, timeout=60.0).state == JOB_DONE
