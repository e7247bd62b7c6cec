"""The fault-tolerance vocabulary: retries, journaling, deadlines, chaos.

The paper's whole subject is protocols that stay live under adversarial
timing; this module gives the *service* layer the same discipline.  Four
building blocks, consumed by :mod:`repro.service.jobs`,
:mod:`repro.service.server`, :mod:`repro.service.client` and
:mod:`repro.scenarios.federation`:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and full
  jitter, plus the retryable-vs-terminal error classification.  A transient
  store hiccup or connection reset is retried; a malformed scenario fails
  once.  Applied to job execution (:meth:`JobManager._run_job`), to every
  :class:`~repro.service.client.ServiceClient` HTTP call (honoring
  ``Retry-After``), and to :func:`repro.scenarios.federation.sync` over
  flaky links.
* :class:`JobJournal` — a crash-safe write-ahead journal of accepted
  submissions.  A scenario is journaled *before* it joins the queue and
  marked when its job reaches a terminal state, so a server killed with
  queued and running jobs replays the unmarked entries on the next boot:
  zero lost submissions, and — because replay goes through the normal
  submission path with its content-hash dedup and store-cached fast path —
  zero duplicate simulations.
* **Deadlines and cancellation** — :class:`JobCancelled` /
  :class:`DeadlineExceeded` are the cooperative-abort signals a job's
  :data:`~repro.scenarios.session.SessionProgress` callback raises between
  replications; completed replications stay persisted, so a cancelled cell
  resumes from the store later.
* :class:`FaultInjector` — seeded, deterministic fault injection: store
  append/load failures and slow I/O (via the ``chaos:`` store backend of
  :mod:`repro.scenarios.store_chaos`), worker crashes *before* the journal
  mark (:class:`SimulatedCrash`, a ``BaseException`` so it kills the worker
  thread exactly like a crashed process), and HTTP 5xx / connection resets
  (wired into :class:`~repro.service.server.ReproServer`).  Every recovery
  path above is exercised by tests and ``benchmarks/bench_faults.py``
  under fixed seeds, not by hope.

Error taxonomy
--------------
:class:`TransientError` marks "try again later" failures; anything raised
as (a subclass of) it — plus ``ConnectionError``/``TimeoutError``/``OSError``
— is retryable under the default :class:`RetryPolicy`.  :class:`Overloaded`
is the bounded-queue rejection the server maps to ``503`` +
``Retry-After``.  :class:`JobCancelled` is always terminal.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.util.jsonl import append_lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.scenario import Scenario
    from repro.scenarios.store import StoreBackend

__all__ = [
    "TransientError",
    "InjectedFault",
    "SimulatedCrash",
    "JobCancelled",
    "DeadlineExceeded",
    "Overloaded",
    "RetryPolicy",
    "JournalEntry",
    "JobJournal",
    "journal_for_store",
    "FaultInjector",
]


# --------------------------------------------------------------------------
# Error taxonomy
# --------------------------------------------------------------------------


class TransientError(RuntimeError):
    """A failure worth retrying: the operation may succeed on a later attempt."""


class InjectedFault(TransientError):
    """A deterministic fault fired by a :class:`FaultInjector` (retryable)."""

    def __init__(self, kind: str, message: str | None = None) -> None:
        super().__init__(message or f"injected fault: {kind}")
        self.kind = kind


class SimulatedCrash(BaseException):
    """A :class:`FaultInjector` 'process died here' — deliberately a
    ``BaseException`` so no ``except Exception`` recovery path can swallow
    it: the worker thread dies mid-job exactly like a killed process, leaving
    the journal unmarked for the next boot to replay."""

    def __init__(self, kind: str) -> None:
        super().__init__(f"simulated crash: {kind}")
        self.kind = kind


class JobCancelled(Exception):
    """Cooperative-cancel signal raised between batches of replications; terminal."""


class DeadlineExceeded(JobCancelled):
    """The job's wall-clock deadline passed before it finished."""


class Overloaded(RuntimeError):
    """The server cannot accept the submission right now (full or draining).

    ``retry_after`` is the server's backoff hint in seconds — the value of
    the ``Retry-After`` header on the 503 response.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


# --------------------------------------------------------------------------
# RetryPolicy
# --------------------------------------------------------------------------

#: Module-level jitter source for callers that don't inject their own rng.
_JITTER_RNG = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and full jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial attempt plus up to two retries.  The backoff before retry
    ``n`` (1-based attempt that just failed) is drawn uniformly from
    ``[0, min(max_delay, base_delay * 2**(n-1))]`` — AWS-style *full
    jitter*, which decorrelates a thundering herd of clients retrying the
    same overloaded server.  ``jitter=False`` makes the delay the
    deterministic upper bound instead (tests, reproducible benchmarks).

    Classification: an error is retryable when it is an instance of one of
    ``retryable_errors``.  :class:`JobCancelled` is never retried, whatever
    the tuple says.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    max_delay: float = 5.0
    jitter: bool = True
    retryable_errors: tuple[type[BaseException], ...] = (
        TransientError,
        ConnectionError,
        TimeoutError,
        OSError,
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")

    def is_retryable(self, error: BaseException) -> bool:
        if isinstance(error, JobCancelled):
            return False
        return isinstance(error, self.retryable_errors)

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff after the ``attempt``-th failure (1-based)."""
        cap = min(self.max_delay, self.base_delay * (2.0 ** max(attempt - 1, 0)))
        if not self.jitter:
            return cap
        return (rng or _JITTER_RNG).uniform(0.0, cap)

    def call(
        self,
        fn: Callable[[], object],
        *,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> object:
        """Run ``fn`` under this policy; returns its result or re-raises.

        Terminal errors and the final attempt's error propagate unchanged;
        ``on_retry(attempt, error)`` fires before each backoff sleep.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except Exception as error:
                if attempt >= self.max_attempts or not self.is_retryable(error):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(self.delay(attempt, rng))


# --------------------------------------------------------------------------
# JobJournal
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalEntry:
    """One journaled submission awaiting a terminal mark."""

    job_id: str
    scenario: dict
    deadline: float | None = None
    recorded_at: float = 0.0

    def to_record(self) -> dict:
        """The entry's ``{"kind": "submit", ...}`` journal line."""
        return {
            "kind": "submit",
            "id": self.job_id,
            "scenario": self.scenario,
            "deadline": self.deadline,
            "recorded_at": self.recorded_at,
        }


class JobJournal:
    """Append-only, crash-safe journal of accepted (not yet finished) jobs.

    One JSONL file: ``{"kind": "submit", ...}`` lines record acceptance,
    ``{"kind": "mark", ...}`` lines record terminal states.  Every append is
    fsynced before the submission is acknowledged, so a ``kill -9`` can lose
    at most a submission the client never saw accepted.  A torn final line
    (a crash mid-append) costs only itself, exactly as in the JSONL result
    store: it reads as absent, and the next append starts a line of its own
    (:func:`~repro.util.jsonl.append_lines`).

    The journal is intentionally tiny — submissions, not results.  Replay
    (:meth:`pending` + :meth:`JobManager.replay_journal`) re-submits each
    entry under its journaled id through the normal submission path, whose
    store-cached fast path guarantees that a job that crashed *after*
    persisting its replications but *before* its mark is answered from the
    store with zero duplicate simulations; :meth:`compact` then rewrites
    the file to the entries still pending.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging cosmetics
        return f"JobJournal({str(self.path)!r})"

    # -------------------------------------------------------------- writing
    def _append(self, record: dict) -> None:
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            descriptor = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                append_lines(descriptor, data, os.fstat(descriptor).st_size, -1)
                os.fsync(descriptor)
            finally:
                os.close(descriptor)

    def record(
        self, job_id: str, scenario: "Scenario", deadline: float | None = None
    ) -> None:
        """Journal an accepted submission (called *before* it is queued)."""
        recorded_at = time.time()  # repro: noqa[CLK001] - persisted wall-clock metadata
        self._append(JournalEntry(job_id, scenario.to_dict(), deadline, recorded_at).to_record())

    def mark(self, job_id: str, state: str) -> None:
        """Record a job's terminal state; its submit entry stops being pending."""
        self._append({"kind": "mark", "id": job_id, "state": state, "at": time.time()})  # repro: noqa[CLK001] - persisted wall-clock metadata

    def compact(self) -> None:
        """Rewrite the journal to its pending entries, in one atomic replace.

        The entries are written to a temporary file, which is fsynced and
        renamed over the journal: a crash at any point leaves either the old
        file or the new one, each with every pending entry.
        """
        with self._lock:
            temp = self.path.with_name(self.path.name + ".compact")
            with temp.open("w", encoding="utf-8") as handle:
                handle.writelines(
                    json.dumps(entry.to_record(), sort_keys=True) + "\n" for entry in self.pending()
                )
                handle.flush()
                os.fsync(handle.fileno())
            temp.replace(self.path)

    # -------------------------------------------------------------- reading
    def pending(self) -> list[JournalEntry]:
        """Submissions with no terminal mark, in acceptance order."""
        entries: dict[str, JournalEntry] = {}
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a crashed append
            if not isinstance(record, dict):
                continue
            kind = record.get("kind")
            if kind == "submit":
                try:
                    entry = JournalEntry(
                        job_id=str(record["id"]),
                        scenario=dict(record["scenario"]),
                        deadline=(
                            float(record["deadline"])
                            if record.get("deadline") is not None
                            else None
                        ),
                        recorded_at=float(record.get("recorded_at", 0.0)),
                    )
                except (KeyError, TypeError, ValueError):
                    continue  # malformed record: skip, never raise
                entries[entry.job_id] = entry
            elif kind == "mark":
                entries.pop(str(record.get("id")), None)
        return list(entries.values())

    def backlog(self) -> int:
        """How many journaled submissions have not reached a terminal state."""
        return len(self.pending())


def journal_for_store(store: "StoreBackend | None") -> JobJournal | None:
    """The conventional journal location for a store, or ``None``.

    The store's ``jobs.journal`` sidecar (see
    :meth:`~repro.scenarios.store.StoreBackend.sidecar`), so journal and
    results share fate across restarts: ``<root>/jobs.journal`` beside a
    JSONL store's cells, ``<file>.db.jobs.journal`` beside a SQLite store,
    the wrapped store's for a chaos wrapper, and none for a remote service.
    """
    path = store.sidecar("jobs.journal") if store is not None else None
    return JobJournal(path) if path is not None else None


# --------------------------------------------------------------------------
# FaultInjector
# --------------------------------------------------------------------------


class FaultInjector:
    """Seeded, deterministic fault decisions, shared by every chaos hook.

    Each fault *kind* (``"append"``, ``"load"``, ``"http-500"``,
    ``"http-reset"``, ``"worker-crash"``, …) draws from its own
    ``random.Random(f"{seed}:{kind}")`` stream, so decisions for one kind are
    reproducible regardless of how other kinds interleave.  Per kind:

    * ``rates[kind]`` — probability a roll fires (``1.0`` = always);
    * ``skips[kind]`` — the first N rolls never fire (lets a test say
      "succeed twice, then die mid-cell");
    * ``caps[kind]`` — at most N fires ever (lets a test say "fail twice,
      then recover", guaranteeing eventual success under retry);
    * ``delays[kind]`` — seconds of injected latency for
      :meth:`maybe_delay` (slow I/O simulation).

    ``calls``/``fired`` counters make assertions cheap.  Thread-safe.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
        skips: Mapping[str, int] | None = None,
        caps: Mapping[str, int] | None = None,
        delays: Mapping[str, float] | None = None,
    ) -> None:
        self.seed = seed
        self.rates = dict(rates or {})
        self.skips = dict(skips or {})
        self.caps = dict(caps or {})
        self.delays = dict(delays or {})
        self.calls: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()
        self._rngs: dict[str, random.Random] = {}
        self._lock = threading.Lock()

    def _rng(self, kind: str) -> random.Random:
        rng = self._rngs.get(kind)
        if rng is None:
            rng = self._rngs[kind] = random.Random(f"{self.seed}:{kind}")
        return rng

    def roll(self, kind: str) -> bool:
        """Deterministically decide whether fault ``kind`` fires this call."""
        with self._lock:
            self.calls[kind] += 1
            rate = self.rates.get(kind, 0.0)
            if rate <= 0.0:
                return False
            if self.calls[kind] <= self.skips.get(kind, 0):
                return False
            cap = self.caps.get(kind)
            if cap is not None and self.fired[kind] >= cap:
                return False
            fire = rate >= 1.0 or self._rng(kind).random() < rate
            if fire:
                self.fired[kind] += 1
            return fire

    def maybe_fail(self, kind: str, message: str | None = None) -> None:
        """Raise a retryable :class:`InjectedFault` when the roll fires."""
        if self.roll(kind):
            raise InjectedFault(kind, message)

    def maybe_crash(self, kind: str = "worker-crash") -> None:
        """Raise :class:`SimulatedCrash` (kills the worker thread) on fire."""
        if self.roll(kind):
            raise SimulatedCrash(kind)

    def maybe_delay(
        self, kind: str = "slow", sleep: Callable[[float], None] = time.sleep
    ) -> None:
        """Inject ``delays[kind]`` seconds of latency, if configured."""
        delay = self.delays.get(kind, 0.0)
        if delay > 0.0:
            sleep(delay)

    # ------------------------------------------------------------- spec form
    def spec_params(self) -> str:
        """Canonical ``key=value&…`` form (the chaos store spec suffix)."""
        parts: list[str] = [f"seed={self.seed}"]
        for kind in sorted(self.rates):
            parts.append(f"{kind}_fail={self.rates[kind]:g}")
            if kind in self.skips:
                parts.append(f"{kind}_fail_skip={self.skips[kind]}")
            if kind in self.caps:
                parts.append(f"{kind}_fail_max={self.caps[kind]}")
        if "slow" in self.delays:
            parts.append(f"slow_ms={self.delays['slow'] * 1000.0:g}")
        return "&".join(parts)
