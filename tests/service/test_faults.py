"""Fault-injection tests: every recovery path, deterministically.

Crash/restart journal replay (zero lost submissions, zero duplicate
simulations), retry-with-backoff on injected store faults with partial-cell
resume, per-job deadlines and cancellation, bounded-queue 503 + Retry-After
with client backoff, HTTP 5xx / connection-reset client retries, flaky
federation sync, and the adaptive ``ServiceClient.wait`` poller.  All chaos
is seeded through :class:`~repro.service.reliability.FaultInjector`, so
every failure fires at the same place on every run.
"""

from __future__ import annotations

import time

import pytest

from repro.scenarios import Scenario, Session, open_store
from repro.scenarios.federation import sync
from repro.service import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_QUEUED,
    FaultInjector,
    JobManager,
    Overloaded,
    ReproServer,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SimulatedCrash,
    TransientServiceError,
    create_server,
    journal_for_store,
)
from repro.service.wire import JobStatus

pytestmark = pytest.mark.chaos

#: No-sleep retry policy: attempts are exhausted instantly in tests.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=False)


def scenario(text: str = "one-fail-adaptive k=40 reps=3 seed=7") -> Scenario:
    return Scenario.parse(text)


def make_manager(session: Session, **kwargs) -> JobManager:
    """A thread-less manager with instant retries (drive via process_next)."""
    kwargs.setdefault("retry_policy", FAST_RETRY)
    kwargs.setdefault("retry_sleep", lambda _delay: None)
    kwargs.setdefault("journal", journal_for_store(session.store))
    return JobManager(session, start=False, **kwargs)


def store_run_lines(store_dir, scen: Scenario) -> int:
    """Raw ``kind: run`` line count in the cell's JSONL file — duplicates
    would show up here even though ``load()`` dedups by replication."""
    import json

    path = store_dir / f"{scen.content_hash()}.jsonl"
    if not path.exists():
        return 0
    return sum(
        1
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and json.loads(line).get("kind") == "run"
    )


class TestJournalReplay:
    def test_kill_and_restart_loses_no_submissions(self, tmp_path):
        store_dir = tmp_path / "store"
        first = scenario("one-fail-adaptive k=40 reps=2 seed=1")
        second = scenario("one-fail-adaptive k=40 reps=2 seed=2")
        manager = make_manager(Session(store_dir=store_dir))
        manager.submit(first)
        manager.submit(second)
        manager.process_next()  # only the first job ran before the "crash"
        # Kill: the manager is simply abandoned, queue contents and all.
        session = Session(store_dir=store_dir)
        reborn = make_manager(session)
        assert reborn.replay_journal() == 1  # first was marked done; second wasn't
        assert reborn.lifetime_counts()["replayed"] == 1
        job = reborn.process_next()
        assert job is not None and job.state == JOB_DONE
        assert job.scenario == second
        # Zero lost: both cells complete.  Zero duplicates: the first cell
        # was not re-simulated (its replay would have come back "cached").
        assert session.cached_count(first) == 2
        assert session.cached_count(second) == 2
        assert store_run_lines(store_dir, first) == 2
        assert store_run_lines(store_dir, second) == 2

    def test_crash_after_persist_replays_as_cached(self, tmp_path):
        store_dir = tmp_path / "store"
        chaos = FaultInjector(seed=0, rates={"worker-crash": 1.0}, caps={"worker-crash": 1})
        manager = make_manager(Session(store_dir=store_dir), fault_injector=chaos)
        job, _ = manager.submit(scenario())
        # The worker dies after the results are persisted but before the
        # journal mark — exactly like a killed process.
        with pytest.raises(SimulatedCrash):
            manager.process_next()
        assert job.state != JOB_DONE  # never reached the terminal bookkeeping
        assert manager.journal.backlog() == 1
        # Next boot: replay deduplicates to the store — zero new simulations.
        session = Session(store_dir=store_dir)
        reborn = make_manager(session)
        assert reborn.replay_journal() == 1
        replayed = reborn.jobs()[0]
        assert replayed.state == JOB_DONE
        assert replayed.cached is True
        assert replayed.result_set.new_runs == 0
        assert store_run_lines(store_dir, scenario()) == 3
        assert reborn.journal.backlog() == 0

    # The worker thread dying IS the scenario under test.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_http_restart_round_trip(self, tmp_path):
        store_dir = tmp_path / "store"
        chaos = FaultInjector(seed=0, rates={"worker-crash": 1.0}, caps={"worker-crash": 1})
        server = create_server(store_dir=store_dir, quiet=True, fault_injector=chaos)
        server.start_background()
        client = ServiceClient(server.url, timeout=30.0)
        try:
            client.submit(scenario())
            # The job persists its replications, then its worker crashes
            # before the journal mark; wait for the store to fill.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if any(
                    record["replications_on_record"] == 3
                    for record in client.store_records()
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("store never filled")
            assert client.health()["journal"]["backlog"] == 1
        finally:
            server.close()
        # Restart on the same store: the journal replays before traffic.
        server = create_server(store_dir=store_dir, quiet=True)
        client = ServiceClient(server.url, timeout=30.0)
        server.start_background()
        try:
            statuses = client.jobs()
            assert len(statuses) == 1
            assert statuses[0].state == JOB_DONE
            assert client.health()["journal"]["backlog"] == 0
            assert client.health()["totals"]["replayed"] == 1
        finally:
            server.close()
        assert store_run_lines(store_dir, scenario()) == 3  # zero duplicates

    # The worker thread dying IS the scenario under test.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_client_finds_its_job_across_a_restart(self, tmp_path):
        """Replay keeps the ids jobs were acknowledged with, so a client that
        polls its job through a restart gets its own scenario's results."""
        store_dir = tmp_path / "store"
        scenarios = [scenario(f"one-fail-adaptive k=40 reps=2 seed={seed}") for seed in (1, 2, 3)]
        # The first job finishes; the worker dies after persisting the
        # second's replications, before its journal mark; the third stays
        # queued.
        chaos = FaultInjector(seed=0, rates={"worker-crash": 1.0}, skips={"worker-crash": 1})
        server = create_server(store_dir=store_dir, quiet=True, fault_injector=chaos)
        server.start_background()
        client = ServiceClient(server.url, timeout=30.0)
        try:
            ids = [client.submit(scen).id for scen in scenarios]
            assert client.wait(ids[0], timeout=30.0).state == JOB_DONE
            deadline = time.monotonic() + 60.0
            while not chaos.fired["worker-crash"] and time.monotonic() < deadline:
                time.sleep(0.02)
            assert chaos.fired["worker-crash"] == 1
        finally:
            server.close()
        server = create_server(store_dir=store_dir, quiet=True)
        server.start_background()
        client = ServiceClient(server.url, timeout=30.0)
        try:
            for job_id, scen in zip(ids[1:], scenarios[1:]):
                status = client.wait(job_id, timeout=30.0)
                assert status.state == JOB_DONE
                assert status.hash == scen.content_hash()
                assert client.result(status.hash)["scenario_string"] == scen.format()
            assert client.health()["journal"]["backlog"] == 0
        finally:
            server.close()

    def test_a_replay_killed_partway_leaves_every_entry_pending(self, tmp_path):
        store_dir = tmp_path / "store"
        manager = make_manager(Session(store_dir=store_dir))
        ids = [
            manager.submit(scenario(f"one-fail-adaptive k=40 reps=2 seed={seed}"))[0].id
            for seed in (1, 2, 3)
        ]
        manager.drain()

        class DiesOnTheSecondProbe(Session):
            probes = 0

            def run_cached(self, *args, **kwargs):
                self.probes += 1
                if self.probes == 2:
                    raise SimulatedCrash("killed mid-replay")
                return super().run_cached(*args, **kwargs)

        with pytest.raises(SimulatedCrash):
            make_manager(DiesOnTheSecondProbe(store_dir=store_dir)).replay_journal()
        reborn = make_manager(Session(store_dir=store_dir))
        assert [entry.job_id for entry in reborn.journal.pending()] == ids
        assert reborn.replay_journal() == 3
        assert [job.id for job in reborn.jobs()] == ids

    def test_boots_with_nothing_pending_compact_the_journal(self, tmp_path):
        """Three boots of five fresh jobs each: every boot compacts away the
        last one's finished lines, so the journal never holds more than one
        boot's submit and mark lines."""
        store_dir = tmp_path / "store"
        fresh = make_manager(Session(store_dir=store_dir))
        assert fresh.replay_journal() == 0
        assert not fresh.journal.path.exists()  # a fresh store gets no journal
        for boot in range(3):
            manager = make_manager(Session(store_dir=store_dir))
            assert manager.replay_journal() == 0
            lines = manager.journal.path.read_text().splitlines() if boot else []
            assert lines == []
            for seed in range(5):
                manager.submit(scenario(f"one-fail-adaptive k=10 reps=1 seed={10 * boot + seed}"))
            while manager.process_next() is not None:
                pass
            assert manager.journal.backlog() == 0
            assert len(manager.journal.path.read_text().splitlines()) == 10

    def test_drain_keeps_queued_jobs_journaled(self, tmp_path):
        store_dir = tmp_path / "store"
        manager = make_manager(Session(store_dir=store_dir))
        manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        assert manager.drain() == 2
        assert manager.journal.backlog() == 2
        assert manager.accepting is False
        with pytest.raises(Overloaded):
            manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=3"))
        reborn = make_manager(Session(store_dir=store_dir))
        assert reborn.replay_journal() == 2
        assert reborn.queue_depth() == 2

    def test_replay_converts_journaled_deadline_back_to_relative(self, tmp_path):
        """The journal persists the wall-clock ETA (monotonic clocks do not
        survive a restart); replay re-derives the seconds remaining."""
        store_dir = tmp_path / "store"
        manager = make_manager(Session(store_dir=store_dir))
        manager.submit(scenario(), deadline=3600.0)
        manager.drain()
        reborn = make_manager(Session(store_dir=store_dir))
        assert reborn.replay_journal() == 1
        job = reborn.jobs()[0]
        # Still roughly an hour of budget, on both clocks.
        assert job.deadline is not None and job.deadline_at is not None
        assert 3500.0 < job.deadline - time.monotonic() <= 3600.0
        assert 3500.0 < job.deadline_at - time.time() <= 3600.0

    def test_replay_of_expired_deadline_aborts_not_simulates(self, tmp_path):
        store_dir = tmp_path / "store"
        manager = make_manager(Session(store_dir=store_dir))
        job, _ = manager.submit(scenario(), deadline=0.001)
        manager.drain()
        time.sleep(0.01)  # the budget lapses while the process is "down"
        reborn = make_manager(Session(store_dir=store_dir))
        assert reborn.replay_journal() == 1
        replayed = reborn.process_next()
        assert replayed is not None and replayed.state == JOB_CANCELLED
        assert "deadline exceeded" in replayed.error
        assert replayed.attempts == 1  # aborted before any simulation work


class TestRetriesAndResume:
    def test_partial_cell_failure_resumes_from_completed_prefix(self, tmp_path):
        # Each OFA run at k = 150,000 exceeds native.SLOTS_PER_CALL slots, so
        # every replication is a batch of its own and one append.  The store
        # dies on the third append (calls 1-2 are skipped, at most one
        # failure), so attempt 1 persists replications 0-1 and crashes;
        # attempt 2 must re-simulate ONLY the missing two.
        store_dir = tmp_path / "store"
        spec = (
            f"chaos:jsonl:{store_dir}"
            "?seed=1&append_fail=1&append_fail_skip=2&append_fail_max=1"
        )
        session = Session(store_dir=spec)
        manager = make_manager(session)
        scen = scenario("one-fail-adaptive k=150000 reps=4 seed=7")
        job, disposition = manager.submit(scen)
        assert disposition == "queued"
        manager.process_next()
        assert job.state == JOB_DONE
        assert job.attempts == 2
        assert manager.lifetime_counts()["retried"] == 1
        assert job.result_set.cached_runs == 2  # the persisted prefix
        assert job.result_set.new_runs == 2  # only the missing suffix re-ran
        assert store_run_lines(store_dir, scen) == 4  # zero duplicates

    def test_a_failed_one_batch_cell_reruns_whole(self, tmp_path):
        # A small cell's runs finish together and reach the store in one
        # append; when that append fails, nothing is on record, and the
        # retry simulates the whole cell once more.
        store_dir = tmp_path / "store"
        spec = f"chaos:jsonl:{store_dir}?seed=1&append_fail=1&append_fail_max=1"
        manager = make_manager(Session(store_dir=spec))
        scen = scenario("one-fail-adaptive k=40 reps=4 seed=7")
        job, _ = manager.submit(scen)
        manager.process_next()
        assert job.state == JOB_DONE
        assert job.attempts == 2
        assert job.result_set.cached_runs == 0
        assert job.result_set.new_runs == 4
        assert store_run_lines(store_dir, scen) == 4  # zero duplicates

    def test_terminal_error_is_not_retried(self, tmp_path):
        session = Session(store_dir=tmp_path / "store")
        manager = make_manager(session)
        job, _ = manager.submit(scenario())

        def explode(*_args, **_kwargs):
            raise RuntimeError("engine exploded")  # not in the retryable tuple

        session.run = explode
        manager.process_next()
        assert job.state == "failed"
        assert job.attempts == 1
        assert manager.lifetime_counts()["retried"] == 0
        assert manager.last_failure["error"].endswith("engine exploded")

    def test_retries_give_up_after_max_attempts(self, tmp_path):
        spec = f"chaos:jsonl:{tmp_path / 'store'}?seed=1&append_fail=1"
        manager = make_manager(Session(store_dir=spec))
        job, _ = manager.submit(scenario())
        manager.process_next()
        assert job.state == "failed"
        assert job.attempts == FAST_RETRY.max_attempts
        assert "injected store-append failure" in job.error


class TestCancellationAndDeadlines:
    def test_cancel_queued_job(self, tmp_path):
        manager = make_manager(Session(store_dir=tmp_path / "store"))
        keep, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        drop, _ = manager.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        assert manager.cancel(drop.id) == "cancelled"
        assert drop.state == JOB_CANCELLED
        assert drop.finished.is_set()
        assert manager.counts()[JOB_CANCELLED] == 1
        assert manager.process_next() is keep
        assert manager.process_next() is None  # the cancelled job never runs
        assert manager.cancel(keep.id) == "finished"
        assert manager.cancel("job-404") is None
        assert manager.journal.backlog() == 0  # both reached terminal marks

    def test_cancel_requested_aborts_before_work(self, tmp_path):
        manager = make_manager(Session(store_dir=tmp_path / "store"))
        job, _ = manager.submit(scenario())
        job.cancel_requested.set()  # what cancel() does to a running job
        manager.process_next()
        assert job.state == JOB_CANCELLED
        assert job.result_set is None
        assert manager.lifetime_counts()["cancelled"] == 1

    def test_cancel_running_job_is_cooperative(self, tmp_path):
        manager = make_manager(Session(store_dir=tmp_path / "store"))
        job, _ = manager.submit(scenario())
        job.state = "running"  # as the worker would set it
        assert manager.cancel(job.id) == "cancelling"
        assert job.cancel_requested.is_set()
        assert not job.finished.is_set()  # the worker finishes it, not cancel()

    def test_expired_deadline_cancels_with_deadline_error(self, tmp_path):
        manager = make_manager(Session(store_dir=tmp_path / "store"))
        # Deadlines are relative seconds-from-now; a non-positive budget is
        # already expired (the journal-replay path submits these).
        job, _ = manager.submit(scenario(), deadline=-1.0)
        assert job.deadline is not None
        manager.process_next()
        assert job.state == JOB_CANCELLED
        assert "deadline exceeded" in job.error
        # The wire reports the wall-clock ETA, not the monotonic limit.
        assert job.snapshot()["deadline"] == job.deadline_at
        assert job.deadline_at is not None and job.deadline_at <= time.time()

    def test_deadline_is_never_retried(self, tmp_path):
        manager = make_manager(Session(store_dir=tmp_path / "store"))
        job, _ = manager.submit(scenario(), deadline=-1.0)
        manager.process_next()
        assert job.attempts == 1
        assert manager.lifetime_counts()["retried"] == 0


class TestOverloadHTTP:
    @pytest.fixture
    def stalled_server(self, tmp_path):
        """A live server whose jobs only run when the test says so."""
        session = Session(store_dir=tmp_path / "store")
        jobs = make_manager(session, max_queue=1)
        server = ReproServer(("127.0.0.1", 0), session, jobs, quiet=True)
        server.start_background()
        yield server
        server.shutdown()
        server.server_close()

    def test_queue_full_returns_503_and_client_backs_off(self, stalled_server):
        manager = stalled_server.jobs
        no_retry = ServiceClient(stalled_server.url, retry=None)
        first = no_retry.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        assert first.state == JOB_QUEUED
        # Queue is now full: an unretried client sees the 503 + hint.
        with pytest.raises(ServiceError) as info:
            no_retry.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        assert info.value.status == 503
        assert getattr(info.value, "retry_after") >= 1.0
        assert no_retry.health()["status"] == "degraded"
        assert manager.lifetime_counts()["rejected"] == 1
        # A retrying client backs off (honouring Retry-After as the floor)
        # and succeeds once the backlog drains during its sleep.
        patient = ServiceClient(
            stalled_server.url,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=False),
        )
        delays = []

        def drain_one(delay: float) -> None:
            delays.append(delay)
            manager.process_next()

        patient._sleep = drain_one
        status = patient.submit(scenario("one-fail-adaptive k=40 reps=2 seed=2"))
        assert status.state == JOB_QUEUED
        assert delays and delays[0] >= 1.0  # the server's Retry-After floor

    def test_cancel_endpoint(self, stalled_server):
        client = ServiceClient(stalled_server.url)
        status = client.submit(scenario("one-fail-adaptive k=40 reps=2 seed=1"))
        payload = client.cancel(status.id)
        assert payload["cancelled"] is True
        assert JobStatus.from_wire(payload["job"]).state == JOB_CANCELLED
        with pytest.raises(ServiceError) as info:
            client.cancel(status.id)  # already finished now
        assert info.value.status == 409
        with pytest.raises(ServiceError) as info:
            client.cancel("job-404")
        assert info.value.status == 404

    def test_deadline_query_validation(self, stalled_server):
        client = ServiceClient(stalled_server.url, retry=None)
        with pytest.raises(ServiceError) as info:
            client.submit(scenario(), deadline=-3.0)
        assert info.value.status == 400
        status = client.submit(scenario(), deadline=120.0)
        assert status.deadline is not None
        assert status.deadline > time.time()


class TestClientHTTPRetries:
    def make_server(self, tmp_path, injector: FaultInjector) -> ReproServer:
        session = Session(store_dir=tmp_path / "store")
        jobs = make_manager(session)
        return ReproServer(
            ("127.0.0.1", 0), session, jobs, quiet=True, fault_injector=injector
        )

    def test_injected_500s_are_retried_until_success(self, tmp_path):
        injector = FaultInjector(seed=0, rates={"http-500": 1.0}, caps={"http-500": 2})
        server = self.make_server(tmp_path, injector)
        server.start_background()
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=False),
            )
            client._sleep = lambda _delay: None
            assert client.store_records() == []
            assert injector.fired["http-500"] == 2
        finally:
            server.shutdown()
            server.server_close()

    def test_injected_connection_reset_is_retried(self, tmp_path):
        injector = FaultInjector(seed=0, rates={"http-reset": 1.0}, caps={"http-reset": 1})
        server = self.make_server(tmp_path, injector)
        server.start_background()
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=False),
            )
            client._sleep = lambda _delay: None
            assert client.jobs() == []
            assert injector.fired["http-reset"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_exhausted_retries_surface_as_transient(self, tmp_path):
        injector = FaultInjector(seed=0, rates={"http-500": 1.0})  # uncapped
        server = self.make_server(tmp_path, injector)
        server.start_background()
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=False),
            )
            client._sleep = lambda _delay: None
            with pytest.raises(TransientServiceError):
                client.store_records()
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_is_exempt_from_chaos(self, tmp_path):
        injector = FaultInjector(seed=0, rates={"http-500": 1.0})
        server = self.make_server(tmp_path, injector)
        server.start_background()
        try:
            client = ServiceClient(server.url, retry=None)
            assert client.health()["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()


class TestAdaptiveWait:
    def make_client(self) -> tuple[ServiceClient, list]:
        client = ServiceClient("http://127.0.0.1:9", retry=None)
        sleeps = []
        client._sleep = sleeps.append
        return client, sleeps

    @staticmethod
    def status(state: str) -> JobStatus:
        return JobStatus(
            id="job-1", hash="abc", scenario="s", state=state, done=0, total=3
        )

    def test_poll_interval_grows_to_cap(self, monkeypatch):
        client, sleeps = self.make_client()
        polls = iter([self.status("running")] * 8 + [self.status("done")])
        monkeypatch.setattr(client, "job", lambda _job_id: next(polls))
        result = client.wait("job-1", timeout=None, poll_interval=0.05,
                             max_poll_interval=0.4)
        assert result.state == "done"
        assert len(sleeps) == 8
        assert sleeps == sorted(sleeps)  # monotone growth...
        assert sleeps[0] == pytest.approx(0.05)
        assert max(sleeps) <= 0.4  # ...capped

    def test_transient_poll_failures_are_tolerated(self, monkeypatch):
        client, _sleeps = self.make_client()
        polls = iter(
            [TransientServiceError("reset"), TransientServiceError("refused"),
             self.status("done")]
        )

        def poll(_job_id):
            item = next(polls)
            if isinstance(item, Exception):
                raise item
            return item

        monkeypatch.setattr(client, "job", poll)
        assert client.wait("job-1", timeout=30.0).state == "done"

    def test_unreachable_job_times_out_with_last_error(self, monkeypatch):
        client, _sleeps = self.make_client()

        def poll(_job_id):
            raise TransientServiceError("connection refused")

        monkeypatch.setattr(client, "job", poll)
        with pytest.raises(ServiceError, match="unreachable"):
            client.wait("job-1", timeout=0.0)


class TestLifetimeCounters:
    def test_counts_survive_finished_job_eviction(self, tmp_path):
        manager = make_manager(Session(store_dir=tmp_path / "store"), max_finished=2)
        for seed in (1, 2, 3):
            manager.submit(scenario(f"one-fail-adaptive k=40 reps=2 seed={seed}"))
            manager.process_next()
        # Live counts drifted (the oldest finished job was evicted)...
        assert manager.counts()[JOB_DONE] == 2
        assert len(manager.jobs()) == 2
        # ...but the lifetime totals are monotonic and immune.
        totals = manager.lifetime_counts()
        assert totals["submitted"] == 3
        assert totals["done"] == 3
        assert totals["failed"] == totals["cancelled"] == 0


class TestFlakySync:
    def populate(self, tmp_path, count: int = 2):
        src = open_store(f"jsonl:{tmp_path / 'src'}")
        session = Session(store_dir=f"jsonl:{tmp_path / 'src'}")
        scens = [
            scenario(f"one-fail-adaptive k=40 reps=2 seed={seed}")
            for seed in range(1, count + 1)
        ]
        for scen in scens:
            session.run(scen)
        return src, scens

    def test_sync_retries_through_transient_append_faults(self, tmp_path):
        _src, scens = self.populate(tmp_path)
        dst_spec = f"chaos:jsonl:{tmp_path / 'dst'}?seed=1&append_fail=1&append_fail_max=1"
        dst = open_store(dst_spec)
        report = sync(
            f"jsonl:{tmp_path / 'src'}", dst,
            retry=FAST_RETRY, sleep=lambda _delay: None,
        )
        assert report.scenarios_failed == 0
        assert report.scenarios_copied == 2
        assert report.replications_copied == 4
        for scen in scens:
            assert sorted(dst.load(scen)) == [0, 1]

    def test_failed_cells_are_reported_and_resumable(self, tmp_path):
        _src, scens = self.populate(tmp_path)
        dst = open_store(
            f"chaos:jsonl:{tmp_path / 'dst'}?seed=1&append_fail=1&append_fail_max=1"
        )
        # No retry: the first cell's append fails (fault cap 1), the second
        # succeeds — a partial sync, recorded rather than raised.
        first = sync(f"jsonl:{tmp_path / 'src'}", dst)
        assert first.scenarios_failed == 1
        assert first.scenarios_copied == 1
        assert len(first.failures) == 1
        # Resume against the same store: the copied cell diffs to nothing,
        # only the failed cell moves (the injector's fault budget is spent).
        second = sync(f"jsonl:{tmp_path / 'src'}", dst)
        assert second.scenarios_failed == 0
        assert second.scenarios_copied == 1
        for scen in scens:
            assert sorted(dst.load(scen)) == [0, 1]
