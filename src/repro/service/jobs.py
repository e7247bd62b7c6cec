"""The job-queue layer: FIFO workers draining scenarios through one Session.

A :class:`JobManager` owns a strict-FIFO queue of :class:`Job`\\ s and a pool
of daemon worker threads that drain it through **one shared**
:class:`~repro.scenarios.session.Session` (whose store access is
thread-safe, see :mod:`repro.scenarios.session`).  Submissions take one of
three paths:

* **cached** — every replication is already on record in the session's
  store, so the scenario is executed synchronously on the submitting thread
  (zero new simulations, the session serves the store) and the job is born
  ``done`` with ``cached=True``; it never touches the queue;
* **deduplicated** — an identical scenario (same
  :meth:`~repro.scenarios.scenario.Scenario.content_hash`, replication count
  covered) is already queued or running, so the submission attaches to that
  in-flight job instead of enqueueing a duplicate — N clients asking for the
  same cell cost one execution;
* **queued** — anything else is journaled (when a
  :class:`~repro.service.reliability.JobJournal` is configured, the entry is
  durable *before* the submission is acknowledged), then joins the tail of
  the FIFO queue.

Progress flows from the session's :data:`~repro.scenarios.session.SessionProgress`
callback (invoked in worker callback context) into ``Job.done``, so
``GET /jobs/<id>`` can report per-replication progress while the cell runs.

Fault tolerance (see :mod:`repro.service.reliability`)
------------------------------------------------------
* **Retries** — job execution runs under a :class:`RetryPolicy`: transient
  errors (injected faults, store/connection hiccups) are retried with
  exponential backoff; because completed replications persist as they finish,
  a retry re-simulates only the *missing* ones (partial-cell resume).
* **Deadlines & cancellation** — each job may carry a ``deadline`` given as
  *seconds from submission*; internally it is tracked on the monotonic clock
  (immune to NTP/DST wall-clock jumps) while the wire and the journal carry
  the wall-clock ETA.  :meth:`cancel` aborts a queued job immediately and
  requests cooperative cancellation of a running one.  Both abort paths are
  checked between replications from the progress callback.
* **Bounded queue & drain** — ``max_queue`` caps accepted-but-unstarted
  work; beyond it :meth:`submit` raises
  :class:`~repro.service.reliability.Overloaded` (the server maps this to
  503 + ``Retry-After``).  :meth:`drain` stops intake, lets running jobs
  finish, and leaves the queued rest journaled for the next boot.
* **Journal replay** — :meth:`replay_journal` re-submits every journal entry
  with no terminal mark through the normal submission path, under the job
  id it was acknowledged with, so a restart after a crash loses zero
  submissions, a client polling its job across the restart finds that job,
  and — via the store-cached fast path — zero completed replications are
  re-simulated.  Job ids are random, so no two processes hand out the same
  one.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs import REGISTRY, current_trace_id, new_trace_id, span, trace_context
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import ResultSet, Session
from repro.service.reliability import (
    DeadlineExceeded,
    FaultInjector,
    JobCancelled,
    JobJournal,
    Overloaded,
    RetryPolicy,
)
from repro.service.wire import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
)

__all__ = ["Job", "JobManager"]

log = logging.getLogger("repro.service")

#: Lifetime-counter keys, all present from the first ``/healthz`` response.
_TOTAL_KEYS = (
    "submitted",
    "done",
    "failed",
    "cancelled",
    "rejected",
    "retried",
    "replayed",
)

# Metric families for the job layer (see README § Observability).  Created
# once at import; label-set children materialise on first use.
_M_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total",
    "Accepted job submissions by disposition (cached/deduplicated/queued).",
    ("disposition",),
)
_M_FINISHED = REGISTRY.counter(
    "repro_jobs_finished_total",
    "Jobs reaching a terminal state, by state.",
    ("state",),
)
_M_REJECTED = REGISTRY.counter(
    "repro_jobs_rejected_total",
    "Submissions rejected with Overloaded (queue full or draining).",
)
_M_RETRIED = REGISTRY.counter(
    "repro_jobs_retries_total", "Job attempts retried after a transient failure."
)
_M_DEADLINE = REGISTRY.counter(
    "repro_jobs_deadline_exceeded_total", "Jobs cancelled by their deadline."
)
_M_REPLAYED = REGISTRY.counter(
    "repro_jobs_replayed_total", "Journal entries replayed at boot."
)
_M_QUEUE_WAIT = REGISTRY.histogram(
    "repro_job_queue_wait_seconds",
    "Time a job spent queued before its first attempt started.",
)
_M_RUN = REGISTRY.histogram(
    "repro_job_run_seconds", "Job execution wall time across all attempts."
)
_M_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_job_queue_depth", "Jobs accepted but not yet started."
)


@dataclass
class Job:
    """One submitted scenario and its lifecycle state.

    Mutable fields are only written under the owning manager's lock (or by
    the single worker executing the job); readers take :meth:`snapshot` for
    a consistent wire-ready view.
    """

    id: str
    scenario: Scenario
    content_hash: str
    state: str = JOB_QUEUED
    done: int = 0
    cached: bool = False
    error: str | None = None
    result_set: ResultSet | None = None
    deadline: float | None = None  #: absolute monotonic limit (time.monotonic())
    deadline_at: float | None = None  #: wall-clock ETA of the deadline (wire/journal)
    attempts: int = 0
    trace_id: str | None = None  #: adopted by the worker thread for span continuity
    queued_at: float | None = None  #: monotonic enqueue time (queue-wait histogram)
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    finished: threading.Event = field(default_factory=threading.Event, repr=False)
    cancel_requested: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    @property
    def total(self) -> int:
        return self.scenario.replications

    def snapshot(self) -> dict[str, object]:
        """Wire-ready view of the job (the ``GET /jobs/<id>`` payload)."""
        return {
            "id": self.id,
            "hash": self.content_hash,
            "scenario": self.scenario.format(),
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "cached": self.cached,
            "error": self.error,
            "attempts": self.attempts,
            "deadline": self.deadline_at,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobManager:
    """FIFO worker pool executing scenarios through one shared session.

    Parameters
    ----------
    session:
        The (thread-safe) session all jobs run through; give it a
        ``store_dir`` to get the cached fast path and cross-restart reuse.
    workers:
        Number of concurrently executing jobs.  ``1`` (the default) keeps
        strict FIFO *completion* order; higher values still *start* jobs in
        FIFO order.
    start:
        ``False`` creates the manager without worker threads — jobs then
        only run via :meth:`process_next` (the unit tests drive the queue
        this way to observe intermediate states deterministically).
    max_finished:
        Finished jobs retained for ``GET /jobs/<id>`` lookups.  An always-on
        server creates one :class:`Job` per submission (cached hits
        included), so the oldest finished jobs — and their result sets — are
        evicted beyond this bound; their results remain available through
        the store via ``GET /results/<hash>``.  Eviction never touches the
        lifetime counters (:meth:`lifetime_counts`).
    max_queue:
        Bound on *queued* (accepted, unstarted) jobs; ``None`` is unbounded.
        A full queue rejects with :class:`Overloaded` instead of accepting
        work the process may never live to run.
    journal:
        Crash-safe :class:`JobJournal` of accepted submissions, or ``None``.
    retry_policy:
        :class:`RetryPolicy` for job execution; ``None`` disables retries.
        The default retries transient errors up to 3 attempts.
    fault_injector:
        Optional chaos hook: after a job's successful execution (results
        persisted) and *before* its journal mark, ``worker-crash`` rolls may
        raise :class:`~repro.service.reliability.SimulatedCrash`, killing the
        worker thread exactly like a crashed process — the journal-replay
        recovery path's test harness.
    retry_sleep:
        Sleep used between retry attempts (injectable for tests).
    """

    #: Shared state written only under ``self._lock`` — machine-checked by
    #: the ``repro lint`` lock-discipline rule (LCK001).
    _lock_guarded = frozenset(
        {
            "_queue",
            "_jobs",
            "_inflight",
            "_finished_order",
            "_shutdown",
            "_accepting",
            "_totals",
            "_last_failure",
        }
    )

    def __init__(
        self,
        session: Session,
        workers: int = 1,
        start: bool = True,
        max_finished: int = 1024,
        max_queue: int | None = None,
        journal: JobJournal | None = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        fault_injector: FaultInjector | None = None,
        retry_sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_finished < 1:
            raise ValueError(f"max_finished must be positive, got {max_finished}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be positive (or None), got {max_queue}")
        self.session = session
        self.max_finished = max_finished
        self.max_queue = max_queue
        self.journal = journal
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self._retry_sleep = retry_sleep
        self._retry_rng = random.Random()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}  # content hash -> queued/running job
        self._finished_order: deque[str] = deque()  # job ids, oldest first
        self._shutdown = False
        self._accepting = True
        self._totals: dict[str, int] = {key: 0 for key in _TOTAL_KEYS}
        self._last_failure: dict[str, object] | None = None
        self._threads: list[threading.Thread] = []
        # Live queue depth, sourced at scrape time; the most recently built
        # manager owns the gauge (one manager per server process).
        _M_QUEUE_DEPTH.set_function(self.queue_depth)
        if start:
            for index in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"repro-job-worker-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    # ---------------------------------------------------------------- submit
    def submit(
        self, scenario: Scenario, deadline: float | None = None
    ) -> tuple[Job, str]:
        """Submit a scenario; returns ``(job, disposition)``.

        ``disposition`` is ``"cached"``, ``"deduplicated"`` or ``"queued"``
        (see module docstring).  ``deadline`` is a *relative* limit in
        seconds from now (checked on the monotonic clock, so wall-clock
        jumps cannot spuriously expire or extend it); a job whose deadline
        passes before it completes is cancelled with
        :class:`DeadlineExceeded`.  Raises :class:`Overloaded` when the
        queue is full or the manager is draining — the journal entry for a
        queued submission is durable before this method returns.
        """
        return self._submit(scenario, deadline)

    def _submit(
        self, scenario: Scenario, deadline: float | None, entry_id: str | None = None
    ) -> tuple[Job, str]:
        """:meth:`submit`, or with ``entry_id`` the replay of the journal
        entry of that id: the job takes the id, attaches to no other job and
        is not journaled a second time."""
        content_hash = scenario.content_hash()
        with self._lock:
            self._check_accepting()
            existing = None if entry_id else self._dedup_target(content_hash, scenario)
            if existing is not None:
                self._totals["submitted"] += 1
                _M_SUBMITTED.labels(disposition="deduplicated").inc()
                return existing, "deduplicated"
        # The cache probe reads the store, so it runs outside the lock; on a
        # hit it *is* the answer (one store read, zero simulations).  A store
        # too broken to probe must degrade to a queued job (whose execution
        # retries under the policy), never to a failed submission.
        try:
            cached_result = self.session.run_cached(scenario)
        except Exception as error:  # noqa: BLE001 - probe failure = cache miss
            cached_result = None
            self._note_failure(None, f"cache probe: {type(error).__name__}: {error}")
        if cached_result is not None:
            with self._lock:
                self._totals["submitted"] += 1
                job = self._register(scenario, content_hash, False, entry_id)
                job.trace_id = current_trace_id()
                job.started_at = job.finished_at = time.time()  # repro: noqa[CLK001] - wall-clock metadata
                job.result_set = cached_result
                job.done = job.total
                job.cached = True
                self._publish_terminal(job, JOB_DONE)
            self._mark_finished(job)
            _M_SUBMITTED.labels(disposition="cached").inc()
            return job, "cached"
        with self._lock:
            self._check_accepting()
            existing = None if entry_id else self._dedup_target(content_hash, scenario)
            if existing is not None:
                self._totals["submitted"] += 1
                _M_SUBMITTED.labels(disposition="deduplicated").inc()
                return existing, "deduplicated"
            if self.max_queue is not None and len(self._queue) >= self.max_queue:
                self._totals["rejected"] += 1
                _M_REJECTED.inc()
                raise Overloaded(
                    f"job queue is full ({len(self._queue)} queued, "
                    f"limit {self.max_queue})",
                    retry_after=self._retry_after_hint(),
                )
            job = self._register(scenario, content_hash, True, entry_id)
            job.trace_id = current_trace_id() or new_trace_id()
            job.queued_at = time.monotonic()
            if deadline is not None:
                job.deadline = time.monotonic() + deadline
                job.deadline_at = time.time() + deadline  # repro: noqa[CLK001] - wall-clock ETA for the wire/journal
            if self.journal is not None and entry_id is None:
                try:
                    self.journal.record(job.id, scenario, deadline=job.deadline_at)
                except Exception:
                    # The durability guarantee is journal-then-accept; a
                    # submission we cannot journal is a submission we never
                    # accepted.
                    del self._jobs[job.id]
                    del self._inflight[content_hash]
                    raise
            self._totals["submitted"] += 1
            self._queue.append(job)
            self._work_available.notify()
        _M_SUBMITTED.labels(disposition="queued").inc()
        return job, "queued"

    def _check_accepting(self) -> None:
        """Reject during drain; the manager lock must be held."""
        if not self._accepting:
            self._totals["rejected"] += 1
            _M_REJECTED.inc()
            raise Overloaded("server is draining", retry_after=5.0)

    def _retry_after_hint(self) -> float:
        """Crude full-queue backoff hint: half a second per queued job."""
        return max(1.0, 0.5 * len(self._queue))

    def _dedup_target(self, content_hash: str, scenario: Scenario) -> Job | None:
        """The in-flight job a duplicate submission attaches to, if any.

        The hash excludes the replication count, so an in-flight job only
        absorbs submissions it covers (asking for *more* replications than
        the running job would under-deliver → new job; the store then serves
        the overlap when it runs).
        """
        job = self._inflight.get(content_hash)
        if job is None or job.state not in (JOB_QUEUED, JOB_RUNNING):
            return None
        if job.scenario.replications < scenario.replications:
            return None
        return job

    def _register(
        self, scenario: Scenario, content_hash: str, inflight: bool, job_id: str | None
    ) -> Job:
        """Create and index a job, under ``job_id`` or a new random id; the
        manager lock must be held."""
        job = Job(
            id=job_id or f"job-{os.urandom(8).hex()}",
            scenario=scenario,
            content_hash=content_hash,
        )
        self._jobs[job.id] = job
        if inflight:
            self._inflight[content_hash] = job
        return job

    # --------------------------------------------------------------- queries
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes (or the timeout elapses); returns it."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        job.finished.wait(timeout)
        return job

    def result_for_hash(self, content_hash: str) -> ResultSet | None:
        """The result set of the most recent completed job for this hash."""
        with self._lock:
            candidates = [
                job
                for job in self._jobs.values()
                if job.content_hash == content_hash and job.state == JOB_DONE
            ]
        if not candidates:
            return None
        return max(candidates, key=lambda job: job.finished_at or 0.0).result_set

    def counts(self) -> dict[str, int]:
        """*Live* jobs per lifecycle state (finished jobs age out of these
        counts with :attr:`max_finished` eviction — use
        :meth:`lifetime_counts` for monotonic totals)."""
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        return {
            JOB_QUEUED: states.count(JOB_QUEUED),
            JOB_RUNNING: states.count(JOB_RUNNING),
            JOB_DONE: states.count(JOB_DONE),
            JOB_FAILED: states.count(JOB_FAILED),
            JOB_CANCELLED: states.count(JOB_CANCELLED),
        }

    def lifetime_counts(self) -> dict[str, int]:
        """Monotonic since-boot totals — immune to finished-job eviction."""
        with self._lock:
            return dict(self._totals)

    def queue_depth(self) -> int:
        """Jobs accepted but not yet started."""
        with self._lock:
            return len(self._queue)

    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` currently accepts new work."""
        with self._lock:
            return self._accepting

    @property
    def last_failure(self) -> dict[str, object] | None:
        """The most recent failure observed (job or cache probe), or ``None``."""
        with self._lock:
            return dict(self._last_failure) if self._last_failure else None

    def _note_failure(self, job_id: str | None, message: str) -> None:
        with self._lock:
            self._last_failure = {"job": job_id, "error": message, "at": time.time()}  # repro: noqa[CLK001] - wall-clock metadata

    # ------------------------------------------------------------- execution
    def process_next(self) -> Job | None:
        """Run the head-of-queue job on the calling thread (test hook)."""
        while True:
            with self._lock:
                if not self._queue:
                    return None
                job = self._queue.popleft()
            if job.state == JOB_CANCELLED:
                continue  # cancelled while queued; already terminal
            self._run_job(job)
            return job

    def _worker_loop(self) -> None:
        while True:
            with self._work_available:
                while not self._queue and not self._shutdown:
                    self._work_available.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft()
            if job.state == JOB_CANCELLED:
                continue
            self._run_job(job)

    def _check_abort(self, job: Job) -> None:
        """Raise the cooperative-abort signal if the job should stop now."""
        if job.cancel_requested.is_set():
            raise JobCancelled("cancelled by request")
        if job.deadline is not None and time.monotonic() >= job.deadline:
            raise DeadlineExceeded(
                f"deadline exceeded ({job.done}/{job.total} replications done)"
            )

    def _run_job(self, job: Job) -> None:
        """Execute one job with retries, deadline checks and journaling.

        Deliberately *not* wrapped in ``try/finally``: a
        :class:`~repro.service.reliability.SimulatedCrash` (the chaos
        harness's worker-death fault) must skip the journal mark and the
        finished bookkeeping exactly like a killed process would, so the
        entry stays pending for the next boot's replay.
        """
        job.state = JOB_RUNNING
        job.started_at = time.time()  # repro: noqa[CLK001] - wall-clock metadata
        if job.queued_at is not None:
            _M_QUEUE_WAIT.observe(time.monotonic() - job.queued_at)
        run_started = time.monotonic()

        def progress(_index: int, _scenario: Scenario, done: int, _total: int) -> None:
            job.done = done
            # Cooperative abort between replications: everything already
            # appended to the store stays there, so a later retry/resubmit
            # resumes from the completed prefix.
            self._check_abort(job)

        policy = self.retry_policy
        with trace_context(job.trace_id), span(
            "job.run", job=job.id, hash=job.content_hash
        ) as job_span:
            while True:
                job.attempts += 1
                try:
                    self._check_abort(job)
                    with span("job.attempt", attempt=job.attempts):
                        job.result_set = self.session.run(
                            job.scenario, progress=progress
                        )
                except JobCancelled as error:
                    state = JOB_CANCELLED
                    job.error = str(error)
                    if isinstance(error, DeadlineExceeded):
                        _M_DEADLINE.inc()
                    break
                except Exception as error:  # noqa: BLE001 - a failed job must not kill its worker (SimulatedCrash is a BaseException, so it still propagates)
                    if (
                        policy is not None
                        and job.attempts < policy.max_attempts
                        and policy.is_retryable(error)
                        and not job.cancel_requested.is_set()
                    ):
                        with self._lock:
                            self._totals["retried"] += 1
                        _M_RETRIED.inc()
                        log.info(
                            "job %s attempt %d failed (%s: %s); retrying",
                            job.id, job.attempts, type(error).__name__, error,
                        )
                        self._retry_sleep(policy.delay(job.attempts, self._retry_rng))
                        continue
                    state = JOB_FAILED
                    job.error = f"{type(error).__name__}: {error}"
                    self._note_failure(job.id, job.error)
                    break
                else:
                    # Chaos hook: a worker-crash roll fires *after* the results
                    # are persisted but *before* the journal mark — the exact
                    # window journal replay exists to cover.
                    if self.fault_injector is not None:
                        self.fault_injector.maybe_crash("worker-crash")
                    state = JOB_DONE
                    job.done = job.total
                    break
            job_span["state"] = state
            job_span["attempts"] = job.attempts
        _M_RUN.observe(time.monotonic() - run_started)
        job.finished_at = time.time()  # repro: noqa[CLK001] - wall-clock metadata
        with self._lock:
            if self._inflight.get(job.content_hash) is job:
                del self._inflight[job.content_hash]
            self._publish_terminal(job, state)
        self._journal_mark(job)
        self._mark_finished(job)

    def _journal_mark(self, job: Job) -> None:
        if self.journal is None:
            return
        try:
            self.journal.mark(job.id, job.state)
        except Exception as error:  # noqa: BLE001 - a mark failure only costs
            # one spurious (deduplicated-to-cached) replay on the next boot.
            log.warning("could not mark job %s in journal: %s", job.id, error)

    def _publish_terminal(self, job: Job, state: str) -> None:
        """Count ``state`` and make it the job's state; the manager lock must be held.

        The counters move where the state is published, so whoever sees a
        job terminal (``GET /jobs/<id>``) sees ``repro_jobs_finished_total``
        count it: the journal mark and :meth:`_mark_finished` come after.
        """
        self._totals[state] += 1
        _M_FINISHED.labels(state=state).inc()
        job.state = state

    def _mark_finished(self, job: Job) -> None:
        """Record a finished job and evict the oldest beyond ``max_finished``."""
        with self._lock:
            self._finished_order.append(job.id)
            while len(self._finished_order) > self.max_finished:
                evicted = self._finished_order.popleft()
                self._jobs.pop(evicted, None)
        job.finished.set()

    # ---------------------------------------------------------- cancellation
    def cancel(self, job_id: str) -> str | None:
        """Cancel a job; returns the disposition or ``None`` if unknown.

        ``"cancelled"`` — it was still queued and is now terminal;
        ``"cancelling"`` — it is running and will abort cooperatively at the
        next replication boundary; ``"finished"`` — it already reached a
        terminal state (nothing to do).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == JOB_QUEUED:
                job.error = "cancelled before start"
                job.finished_at = time.time()  # repro: noqa[CLK001] - wall-clock metadata
                self._publish_terminal(job, JOB_CANCELLED)
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass  # already popped by a worker racing us; it will skip
                if self._inflight.get(job.content_hash) is job:
                    del self._inflight[job.content_hash]
            elif job.state == JOB_RUNNING:
                job.cancel_requested.set()
                return "cancelling"
            else:
                return "finished"
        self._journal_mark(job)
        self._mark_finished(job)
        return "cancelled"

    # ---------------------------------------------------------------- replay
    def replay_journal(self) -> int:
        """Re-submit every journal entry without a terminal mark.

        Called on boot, before traffic: each pending entry goes through the
        normal submission path under its journaled job id, so a client that
        polls its job across the restart finds it.  Work that crashed after
        persisting its replications comes back ``cached`` (zero duplicate
        simulations) and is marked done; an entry whose scenario no longer
        parses is marked failed (and logged); an entry that no longer fits
        the queue bound simply stays journaled, so *nothing is lost* even on
        an overloaded boot.  The journal is then compacted to the entries
        still pending, even when there are none; it is never truncated
        first, so a crash mid-replay leaves every entry for the next boot.
        A journal that does not exist is left uncreated.
        """
        if self.journal is None or not self.journal.path.exists():
            return 0
        replayed = 0
        for entry in self.journal.pending():
            try:
                scenario = Scenario.from_dict(entry.scenario)
            except Exception as error:  # noqa: BLE001 - skip poison entries
                log.warning(
                    "dropping unreplayable journal entry %s: %s", entry.job_id, error
                )
                self.journal.mark(entry.job_id, JOB_FAILED)
                continue
            # The journal persists the wall-clock deadline ETA (monotonic
            # clocks do not survive a restart); convert back to seconds
            # remaining — an already-expired entry submits with a
            # non-positive budget and aborts with DeadlineExceeded.
            remaining = None
            if entry.deadline is not None:
                remaining = entry.deadline - time.time()  # repro: noqa[CLK001] - wall-clock ETA from the journal
            try:
                job, disposition = self._submit(scenario, remaining, entry.job_id)
            except Overloaded:
                continue
            if disposition == "cached":
                self._journal_mark(job)
            replayed += 1
            _M_REPLAYED.inc()
            with self._lock:
                self._totals["replayed"] += 1
        self.journal.compact()
        if replayed:
            log.info("replayed %d journaled job(s) from %s", replayed, self.journal.path)
        return replayed

    # -------------------------------------------------------------- shutdown
    def drain(self) -> int:
        """Graceful shutdown: stop intake, finish running jobs, keep the rest.

        Queued jobs are pulled off the queue *unrun* — their journal entries
        (written at acceptance) stay unmarked, so the next boot replays them.
        Returns how many were set aside.  Idempotent.
        """
        with self._work_available:
            self._accepting = False
            self._shutdown = True
            leftover = list(self._queue)
            self._queue.clear()
            self._work_available.notify_all()
        for thread in self._threads:
            thread.join(timeout=30.0)
        if leftover:
            if self.journal is not None:
                log.info(
                    "drain: %d queued job(s) left journaled for replay on next boot",
                    len(leftover),
                )
            else:
                log.warning(
                    "drain: %d queued job(s) dropped (no journal configured)",
                    len(leftover),
                )
        return len(leftover)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers after the queue drains; idempotent.

        Unlike :meth:`drain`, the workers keep executing until the queue is
        empty.  If they have not finished within the join timeout, the jobs
        still queued are *not* silently dropped: they are already journaled
        (when a journal is configured) and the abandonment is logged.
        """
        with self._work_available:
            self._accepting = False
            self._shutdown = True
            self._work_available.notify_all()
        if not wait:
            return
        for thread in self._threads:
            thread.join(timeout=30.0)
        with self._lock:
            abandoned = len(self._queue)
        if abandoned:
            if self.journal is not None:
                log.warning(
                    "shutdown timeout: %d queued job(s) abandoned but journaled "
                    "for replay on next boot",
                    abandoned,
                )
            else:
                log.warning(
                    "shutdown timeout: %d queued job(s) abandoned with no journal "
                    "— these submissions are lost",
                    abandoned,
                )
