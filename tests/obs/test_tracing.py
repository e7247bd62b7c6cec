"""Span tracing: nesting, propagation, JSONL sink, store siting, summaries."""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from repro.obs.tracing import (
    SpanEvent,
    TraceLog,
    configure_tracing,
    current_span_id,
    current_trace_id,
    new_trace_id,
    read_trace,
    span,
    summarize_trace,
    trace_context,
    trace_log_for_store,
    tracing_sink,
)
from repro.scenarios.federation import RemoteStore
from repro.scenarios.store import JsonlStore
from repro.scenarios.store_chaos import ChaosStore
from repro.scenarios.store_sqlite import SqliteStore


@pytest.fixture
def sink(tmp_path):
    """A configured trace sink, torn down afterwards."""
    log = configure_tracing(tmp_path / "trace.jsonl")
    yield log
    configure_tracing(None)


class TestSpanNesting:
    def test_no_context_outside_spans(self):
        assert current_trace_id() is None
        assert current_span_id() is None

    def test_span_opens_and_closes_context(self):
        with span("outer"):
            trace = current_trace_id()
            outer_span = current_span_id()
            assert trace and outer_span
            with span("inner"):
                assert current_trace_id() == trace, "children share the trace"
                assert current_span_id() != outer_span
            assert current_span_id() == outer_span
        assert current_trace_id() is None

    def test_sibling_spans_get_distinct_traces(self):
        with span("a"):
            first = current_trace_id()
        with span("b"):
            second = current_trace_id()
        assert first != second

    def test_trace_context_adopts_id(self):
        trace = new_trace_id()
        with trace_context(trace):
            assert current_trace_id() == trace
            with span("child"):
                assert current_trace_id() == trace
        assert current_trace_id() is None

    def test_trace_context_none_is_noop(self):
        with trace_context(None):
            assert current_trace_id() is None

    def test_span_attrs_mutable_and_error_recorded(self, sink):
        with pytest.raises(RuntimeError):
            with span("failing", fixed=1) as sp:
                sp["extra"] = "yes"
                raise RuntimeError("boom")
        events = sink.read()
        assert len(events) == 1
        assert events[0].attrs == {"fixed": 1, "extra": "yes", "error": "RuntimeError"}


class TestIds:
    def test_ids_are_sixteen_hex_digits(self):
        with span("outer"):
            ids = [current_trace_id(), current_span_id(), new_trace_id()]
        assert all(re.fullmatch("[0-9a-f]{16}", value) for value in ids)

    def test_spans_without_a_sink_make_no_urandom_call(self, monkeypatch):
        assert tracing_sink() is None
        calls = []
        draw = os.urandom
        monkeypatch.setattr(os, "urandom", lambda size: calls.append(size) or draw(size))
        for _ in range(1000):
            with span("quiet"):
                pass
        assert calls == []

    def test_a_forked_child_draws_other_ids_than_its_parent(self):
        read, write = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            try:
                os.write(write, new_trace_id().encode())
            finally:
                os._exit(0)
        os.close(write)
        try:
            parent = new_trace_id()
            with os.fdopen(read, "rb") as pipe:
                drawn = pipe.read().decode()
        finally:
            os.waitpid(child, 0)
        assert len(drawn) == 16 and drawn != parent


class TestSink:
    def test_no_sink_no_writes(self, tmp_path):
        assert tracing_sink() is None
        with span("quiet"):
            pass  # must not raise, must not write anywhere

    def test_events_written_with_parent_links(self, sink):
        with span("outer", k=64):
            with span("inner"):
                pass
        events = sink.read()
        assert [ev.name for ev in events] == ["inner", "outer"]
        inner, outer = events
        assert inner.trace == outer.trace
        assert inner.parent == outer.span
        assert outer.parent is None
        assert outer.attrs == {"k": 64}
        assert inner.dur_s >= 0 and outer.dur_s >= inner.dur_s

    def test_torn_final_line_is_skipped(self, sink):
        with span("kept"):
            pass
        with sink.path.open("a", encoding="utf-8") as fh:
            fh.write('{"trace": "deadbeef", "span": "01", "name": "torn", "dur_')
        events = read_trace(sink.path)
        assert [ev.name for ev in events] == ["kept"]
        # The next span starts a line of its own: the tear costs only itself.
        with span("after"):
            pass
        assert [ev.name for ev in read_trace(sink.path)] == ["kept", "after"]

    def test_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n{}\n" + json.dumps(
            {"trace": "t1", "span": "s1", "name": "ok", "ts": 1.0, "dur_s": 0.5}
        ) + "\n")
        events = read_trace(path)
        assert [ev.name for ev in events] == ["ok"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_trace(tmp_path / "absent.jsonl") == []

    def test_round_trip_preserves_fields(self, tmp_path):
        log = TraceLog(tmp_path / "t.jsonl")
        log.append(SpanEvent("t", "s", "p", "name", ts=1.5, dur_s=0.25, attrs={"a": 1}))
        (event,) = log.read()
        assert (event.trace, event.span, event.parent) == ("t", "s", "p")
        assert event.ts == 1.5 and event.dur_s == 0.25 and event.attrs == {"a": 1}


class TestSinkFile:
    """The sink keeps its file open, and still writes to the file at its path."""

    def test_a_span_in_a_forked_child_lands_exactly_once(self, sink):
        with span("before"):
            pass
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                with span("child"):
                    pass
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while not (done := os.waitpid(child, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        if not done[0]:
            os.kill(child, 9)
            os.waitpid(child, 0)
        assert done[0] and os.waitstatus_to_exitcode(done[1]) == 0, "the forked child failed"
        with span("after"):
            pass
        assert [event.name for event in sink.read()] == ["before", "child", "after"]

    def test_deleting_the_log_mid_run_recreates_it(self, sink):
        with span("lost"):
            pass
        sink.path.unlink()
        with span("kept"):
            pass
        assert [event.name for event in sink.read()] == ["kept"]

    def test_a_log_replaced_mid_run_takes_the_next_spans(self, sink):
        with span("old"):
            pass
        moved = sink.path.with_name("rotated.jsonl")
        sink.path.rename(moved)
        with span("new"):
            pass
        assert [event.name for event in read_trace(moved)] == ["old"]
        assert [event.name for event in sink.read()] == ["new"]

    def test_read_still_skips_a_torn_tail(self, sink):
        for name in ("first", "second"):
            with span(name):
                pass
        with sink.path.open("a", encoding="utf-8") as fh:
            fh.write('{"trace": "deadbeef", "span": "02", "name": "torn"')
        assert [event.name for event in read_trace(sink.path)] == ["first", "second"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_configure_tracing_closes_the_sink_it_replaces(self, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        configure_tracing(tmp_path / "one.jsonl")
        with span("one"):
            pass
        configure_tracing(tmp_path / "two.jsonl")
        with span("two"):
            pass
        configure_tracing(None)
        assert len(os.listdir("/proc/self/fd")) == before
        assert [event.name for event in read_trace(tmp_path / "one.jsonl")] == ["one"]
        assert [event.name for event in read_trace(tmp_path / "two.jsonl")] == ["two"]


class TestStoreSiting:
    def test_jsonl_store_gets_root_trace_log(self, tmp_path):
        store = JsonlStore(tmp_path / "store")
        log = trace_log_for_store(store)
        assert log.path == tmp_path / "store" / "trace.jsonl"

    def test_sqlite_store_gets_sidecar(self, tmp_path):
        store = SqliteStore(tmp_path / "results.db")
        try:
            log = trace_log_for_store(store)
        finally:
            store.close()
        assert log.path == tmp_path / "results.db.trace.jsonl"

    def test_chaos_wrapper_delegates_to_inner(self, tmp_path):
        store = ChaosStore(JsonlStore(tmp_path / "store"))
        log = trace_log_for_store(store)
        assert log.path == tmp_path / "store" / "trace.jsonl"

    def test_chaos_wrapped_sqlite_store_uses_the_inner_sidecar(self, tmp_path):
        store = ChaosStore(SqliteStore(tmp_path / "results.db"))
        try:
            log = trace_log_for_store(store)
        finally:
            store.close()
        assert log.path == tmp_path / "results.db.trace.jsonl"

    def test_remote_store_has_no_log(self):
        assert trace_log_for_store(RemoteStore("http://127.0.0.1:8765")) is None

    def test_none_store_has_no_log(self):
        assert trace_log_for_store(None) is None


class TestSummary:
    def _events(self):
        return [
            SpanEvent("t1", "s1", None, "job.run", ts=1.0, dur_s=2.0),
            SpanEvent("t1", "s2", "s1", "engine.run", ts=1.1, dur_s=1.5),
            SpanEvent("t2", "s3", None, "job.run", ts=2.0, dur_s=0.5),
            SpanEvent("t2", "s4", "s3", "engine.run", ts=2.1, dur_s=0.25),
        ]

    def test_stage_aggregation(self):
        summary = summarize_trace(self._events())
        assert summary["events"] == 4
        assert summary["traces"] == 2
        stages = {row["stage"]: row for row in summary["stages"]}
        assert stages["job.run"]["count"] == 2
        assert stages["job.run"]["total_s"] == pytest.approx(2.5)
        assert stages["job.run"]["mean_s"] == pytest.approx(1.25)
        assert stages["job.run"]["max_s"] == pytest.approx(2.0)
        # Sorted by total time, descending: job.run (2.5s) first.
        assert summary["stages"][0]["stage"] == "job.run"

    def test_slowest_keeps_roots_sorted(self):
        summary = summarize_trace(self._events())
        assert [row["trace"] for row in summary["slowest"]] == ["t1", "t2"]
        assert summary["slowest"][0]["root"] == "job.run"
        assert summary["slowest"][0]["spans"] == 2

    def test_retry_reentry_keeps_longest_root(self):
        events = [
            SpanEvent("t1", "s1", None, "job.run", ts=1.0, dur_s=0.5),
            SpanEvent("t1", "s2", None, "job.run", ts=2.0, dur_s=3.0),
        ]
        summary = summarize_trace(events)
        assert len(summary["slowest"]) == 1
        assert summary["slowest"][0]["dur_s"] == pytest.approx(3.0)

    def test_empty_log_summary(self):
        summary = summarize_trace([])
        assert summary == {"events": 0, "traces": 0, "stages": [], "slowest": []}
