"""Unit tests for the job-queue layer: dedup, FIFO order, cached fast path."""

from __future__ import annotations

import threading
import time

import pytest

from repro.scenarios import Scenario, Session
from repro.service import JOB_CANCELLED, JOB_DONE, JOB_FAILED, JOB_QUEUED, JobJournal, JobManager
from repro.service.jobs import _M_FINISHED


def scenario(text: str = "one-fail-adaptive k=40 reps=3 seed=7") -> Scenario:
    return Scenario.parse(text)


@pytest.fixture
def manager(tmp_path) -> JobManager:
    """A manager without worker threads: jobs only run via process_next,
    so intermediate queue states are observable deterministically."""
    return JobManager(Session(store_dir=tmp_path / "store"), start=False)


class TestSubmission:
    def test_fresh_scenario_queues(self, manager):
        job, disposition = manager.submit(scenario())
        assert disposition == "queued"
        assert job.state == JOB_QUEUED
        assert job.total == 3
        assert manager.counts()[JOB_QUEUED] == 1

    def test_fifo_execution_order(self, manager):
        first, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        second, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        third, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=3"))
        assert [manager.process_next() for _ in range(3)] == [first, second, third]
        assert manager.process_next() is None
        assert all(job.state == JOB_DONE for job in (first, second, third))

    def test_completed_job_carries_result_set(self, manager):
        job, _ = manager.submit(scenario())
        manager.process_next()
        assert job.state == JOB_DONE
        assert job.done == job.total == 3
        assert job.result_set is not None
        assert job.result_set.new_runs == 3
        assert job.finished.is_set()

    def test_job_ids_are_unique_and_lookup_works(self, manager):
        job_a, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        job_b, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        assert job_a.id != job_b.id
        assert manager.get(job_a.id) is job_a
        assert manager.get("job-999") is None
        with pytest.raises(KeyError):
            manager.wait("job-999")


class TestDedup:
    def test_identical_submissions_attach_to_inflight_job(self, manager):
        job, _ = manager.submit(scenario())
        duplicate, disposition = manager.submit(scenario())
        assert disposition == "deduplicated"
        assert duplicate is job
        assert manager.counts()[JOB_QUEUED] == 1

    def test_dedup_covers_fewer_replications(self, manager):
        job, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=3 seed=7"))
        duplicate, disposition = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=7"))
        assert disposition == "deduplicated"
        assert duplicate is job

    def test_more_replications_is_a_new_job(self, manager):
        job, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=3 seed=7"))
        bigger, disposition = manager.submit(scenario("one-fail-adaptive k=40 reps=5 seed=7"))
        assert disposition == "queued"
        assert bigger is not job

    def test_different_scenarios_do_not_dedup(self, manager):
        manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        _, disposition = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        assert disposition == "queued"
        assert manager.counts()[JOB_QUEUED] == 2

    def test_completed_job_no_longer_absorbs_submissions(self, manager):
        manager.submit(scenario())
        manager.process_next()
        # Re-submission after completion is served from the store instead.
        job, disposition = manager.submit(scenario())
        assert disposition == "cached"
        assert job.state == JOB_DONE


class TestCachedFastPath:
    def test_stored_scenario_answers_synchronously(self, manager):
        manager.submit(scenario())
        manager.process_next()
        job, disposition = manager.submit(scenario())
        assert disposition == "cached"
        assert job.cached
        assert job.state == JOB_DONE
        assert job.result_set.new_runs == 0
        assert job.result_set.cached_runs == 3
        # The cached path never touches the queue.
        assert manager.counts()[JOB_QUEUED] == 0
        assert manager.process_next() is None

    def test_store_less_session_never_reports_cached(self):
        manager = JobManager(Session(), start=False)
        manager.submit(scenario())
        manager.process_next()
        _, disposition = manager.submit(scenario())
        assert disposition == "queued"

    def test_snapshot_is_wire_ready(self, manager):
        manager.submit(scenario())
        manager.process_next()
        job, _ = manager.submit(scenario())
        snapshot = job.snapshot()
        assert snapshot["state"] == JOB_DONE
        assert snapshot["cached"] is True
        assert snapshot["done"] == snapshot["total"] == 3
        assert snapshot["hash"] == scenario().content_hash()
        assert snapshot["scenario"] == scenario().format()


class TestFailuresAndWorkers:
    def test_failed_job_records_error_and_frees_hash(self, manager, monkeypatch):
        def explode(*_args, **_kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(manager.session, "run", explode)
        job, _ = manager.submit(scenario())
        manager.process_next()
        assert job.state == JOB_FAILED
        assert "engine exploded" in job.error
        assert job.finished.is_set()
        # The hash is no longer in flight: a new submission queues fresh.
        monkeypatch.undo()
        retry, disposition = manager.submit(scenario())
        assert disposition == "queued"
        assert retry is not job

    def test_worker_threads_drain_the_queue(self, tmp_path):
        manager = JobManager(Session(store_dir=tmp_path / "store"), workers=2)
        try:
            jobs = [
                manager.submit(scenario(f"one-fail-adaptive k=40 reps=2 seed={seed}"))[0]
                for seed in range(4)
            ]
            for job in jobs:
                finished = manager.wait(job.id, timeout=60.0)
                assert finished.state == JOB_DONE
        finally:
            manager.shutdown()

    def test_result_for_hash_returns_latest_completed(self, manager):
        job, _ = manager.submit(scenario())
        assert manager.result_for_hash(job.content_hash) is None
        manager.process_next()
        assert manager.result_for_hash(job.content_hash) is job.result_set
        assert manager.result_for_hash("no-such-hash") is None

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            JobManager(Session(), workers=0)
        with pytest.raises(ValueError):
            JobManager(Session(), max_finished=0)


class TestRetention:
    def test_finished_jobs_evicted_beyond_max_finished(self, tmp_path):
        manager = JobManager(Session(store_dir=tmp_path / "store"), start=False, max_finished=2)
        jobs = []
        for seed in range(4):
            job, _ = manager.submit(scenario(f"one-fail-adaptive k=40 reps=2 seed={seed}"))
            manager.process_next()
            jobs.append(job)
        # Only the two most recently finished jobs remain addressable.
        assert manager.get(jobs[0].id) is None
        assert manager.get(jobs[1].id) is None
        assert manager.get(jobs[2].id) is jobs[2]
        assert manager.get(jobs[3].id) is jobs[3]
        # Evicted results are still served from the store (cached path).
        replay, disposition = manager.submit(
            scenario("one-fail-adaptive k=40 reps=2 seed=0")
        )
        assert disposition == "cached"
        assert replay.result_set.new_runs == 0

    def test_cached_submissions_count_against_retention(self, tmp_path):
        manager = JobManager(Session(store_dir=tmp_path / "store"), start=False, max_finished=3)
        manager.submit(scenario())
        manager.process_next()
        for _ in range(10):
            job, disposition = manager.submit(scenario())
            assert disposition == "cached"
        assert len(manager.jobs()) == 3

    def test_queued_jobs_never_evicted(self, tmp_path):
        manager = JobManager(Session(store_dir=tmp_path / "store"), start=False, max_finished=1)
        first, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        second, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        still_queued, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=3"))
        manager.process_next()
        manager.process_next()  # first finishes, then second evicts it
        assert manager.get(first.id) is None
        assert manager.get(second.id) is second
        # Eviction only ever touches *finished* jobs: the queued one survives.
        assert manager.get(still_queued.id) is still_queued
        assert still_queued.state == JOB_QUEUED


class _HeldJournal(JobJournal):
    """A journal whose terminal marks wait until the test releases them."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.release = threading.Event()

    def mark(self, job_id: str, state: str) -> None:
        self.release.wait(timeout=60)
        super().mark(job_id, state)


def _poll_state(job, state: str) -> None:
    """Poll the ``GET /jobs/<id>`` payload until it reports ``state``."""
    deadline = time.monotonic() + 60
    while job.snapshot()["state"] != state:
        assert time.monotonic() < deadline, f"job never reached {state}"
        time.sleep(0.001)


class TestTerminalStateIsCounted:
    """Whoever sees a job terminal sees ``repro_jobs_finished_total`` count
    it, although the journal mark and the finished bookkeeping come later."""

    def test_done_job_is_counted_before_its_journal_mark(self, tmp_path):
        journal = _HeldJournal(tmp_path / "jobs.journal")
        manager = JobManager(Session(store_dir=tmp_path / "store"), journal=journal)
        before = _M_FINISHED.labels(state=JOB_DONE).value
        try:
            job, _ = manager.submit(scenario())
            _poll_state(job, JOB_DONE)
            assert _M_FINISHED.labels(state=JOB_DONE).value - before == 1
            assert not job.finished.is_set()  # the mark is still held
        finally:
            journal.release.set()
            manager.shutdown()
        assert job.finished.is_set()
        assert _M_FINISHED.labels(state=JOB_DONE).value - before == 1

    def test_cancelled_queued_job_is_counted_before_its_journal_mark(self, tmp_path):
        journal = _HeldJournal(tmp_path / "jobs.journal")
        manager = JobManager(Session(store_dir=tmp_path / "store"), start=False, journal=journal)
        before = _M_FINISHED.labels(state=JOB_CANCELLED).value
        job, _ = manager.submit(scenario())
        canceller = threading.Thread(target=manager.cancel, args=(job.id,))
        canceller.start()
        try:
            _poll_state(job, JOB_CANCELLED)
            assert _M_FINISHED.labels(state=JOB_CANCELLED).value - before == 1
        finally:
            journal.release.set()
            canceller.join(timeout=60)
        assert job.finished.is_set()
        assert _M_FINISHED.labels(state=JOB_CANCELLED).value - before == 1
