"""The simulation service: ``repro serve`` and its client.

This package turns the spec-driven :class:`~repro.scenarios.session.Session`
front door into an always-on scenario-serving system — the PODC'11
reproduction as a long-running process instead of a batch CLI.  Four layers,
bottom to top:

1. **Session + store** (:mod:`repro.scenarios`) — the execution substrate.
   One session, shared by every worker thread, content-hashes scenarios,
   serves completed replications from its result store (whose ``append``
   is safe under concurrent writers, so worker threads and even concurrent
   *server processes* sharing a store cannot tear its records), and fans
   missing replications out over the parallel executor.

2. **Job queue** (:mod:`repro.service.jobs`) — :class:`JobManager`, a strict
   FIFO of :class:`Job`\\ s drained by daemon worker threads.  Submissions
   dedup by :meth:`~repro.scenarios.scenario.Scenario.content_hash` — N
   identical submissions attach to one in-flight job — and scenarios whose
   replications are all on record are answered synchronously from the store
   (``cached``, zero new simulations) without touching the queue.

3. **HTTP server** (:mod:`repro.service.server`) — a stdlib
   :class:`~http.server.ThreadingHTTPServer` exposing the wire protocol of
   :mod:`repro.service.wire`: ``POST /scenarios`` (spec string / JSON / TOML
   body), ``GET /jobs/<id>`` (status + per-replication progress),
   ``GET /results/<hash>`` (completed ``ResultSet.to_dict()`` payloads),
   ``GET /store`` (the store listing) and ``GET /healthz``.

4. **Client** (:mod:`repro.service.client`) — :class:`ServiceClient`, the
   typed ``submit``/``wait``/``result`` wrapper over ``urllib`` that backs
   the ``repro submit --url`` CLI.

Threaded through all four layers is the fault-tolerance vocabulary of
:mod:`repro.service.reliability`: a crash-safe job journal replayed on boot
(zero lost submissions, zero duplicate simulations), :class:`RetryPolicy`
backoff on job execution / client HTTP calls / federation sync, per-job
deadlines and cooperative cancellation (``DELETE /jobs/<id>``), a bounded
queue that degrades to 503 + ``Retry-After``, graceful SIGTERM drain, and a
seeded :class:`FaultInjector` (plus the ``chaos:`` store wrapper) so every
one of those recovery paths is deterministically testable.

Quickstart::

    # terminal 1 — an always-on server with a persistent store
    #   $ repro serve --port 8765 --store results/store

    from repro import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    payload = client.run("one-fail-adaptive k=1000 reps=10 seed=7")
    print(payload["mean_makespan"], payload["new_runs"], payload["cached_runs"])

Submitting the same scenario again costs zero simulations: while the first
run is in flight the submission dedups onto it; afterwards the result store
answers it synchronously (``cached: true``).
"""

from __future__ import annotations

from repro.service.client import ServiceClient, ServiceError, TransientServiceError
from repro.service.jobs import Job, JobManager
from repro.service.reliability import (
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    JobCancelled,
    JobJournal,
    Overloaded,
    RetryPolicy,
    SimulatedCrash,
    TransientError,
    journal_for_store,
)
from repro.service.server import ReproServer, create_server, serve
from repro.service.wire import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    TERMINAL_STATES,
    JobStatus,
    parse_scenario_body,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "TransientServiceError",
    "Job",
    "JobManager",
    "JobStatus",
    "ReproServer",
    "create_server",
    "serve",
    "parse_scenario_body",
    "RetryPolicy",
    "JobJournal",
    "journal_for_store",
    "FaultInjector",
    "TransientError",
    "InjectedFault",
    "SimulatedCrash",
    "JobCancelled",
    "DeadlineExceeded",
    "Overloaded",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
]
