"""Unit tests for the fault-tolerance vocabulary: retry policy, journal,
fault injector, and the chaos store wrapper's spec grammar."""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.scenarios import ChaosStore, Scenario, open_store
from repro.scenarios.store_chaos import _split_chaos_spec
from repro.service.reliability import (
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    JobCancelled,
    JobJournal,
    JournalEntry,
    Overloaded,
    RetryPolicy,
    SimulatedCrash,
    TransientError,
    journal_for_store,
)


def scenario(text: str = "one-fail-adaptive k=40 reps=3 seed=7") -> Scenario:
    return Scenario.parse(text)


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientError("hiccup"))
        assert policy.is_retryable(InjectedFault("append"))
        assert policy.is_retryable(ConnectionResetError("reset"))
        assert policy.is_retryable(TimeoutError())
        assert policy.is_retryable(OSError("disk"))
        assert not policy.is_retryable(ValueError("bad scenario"))
        assert not policy.is_retryable(RuntimeError("engine exploded"))

    def test_cancellation_is_never_retryable(self):
        # Even when the retryable tuple would otherwise match.
        policy = RetryPolicy(retryable_errors=(Exception,))
        assert not policy.is_retryable(JobCancelled("stop"))
        assert not policy.is_retryable(DeadlineExceeded("too late"))
        assert policy.is_retryable(ValueError("anything else"))

    def test_deterministic_delay_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=False)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(10) == pytest.approx(1.0)  # capped

    def test_full_jitter_stays_in_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=True)
        rng = random.Random(42)
        for attempt in range(1, 8):
            cap = min(1.0, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                assert 0.0 <= policy.delay(attempt, rng) <= cap

    def test_call_retries_transients_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("not yet")
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=False)
        assert policy.call(flaky, sleep=slept.append) == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_call_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=False)
        with pytest.raises(TransientError):
            policy.call(lambda: (_ for _ in ()).throw(TransientError("always")),
                        sleep=lambda _: None)

    def test_call_raises_terminal_errors_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("malformed")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        with pytest.raises(ValueError):
            policy.call(broken, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestJobJournal:
    def test_record_mark_pending_cycle(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record("job-1", scenario(), deadline=None)
        journal.record("job-2", scenario("one-fail-adaptive k=40 reps=2 seed=9"),
                       deadline=123.5)
        assert journal.backlog() == 2
        journal.mark("job-1", "done")
        pending = journal.pending()
        assert [entry.job_id for entry in pending] == ["job-2"]
        assert pending[0].deadline == 123.5
        assert Scenario.from_dict(pending[0].scenario) == scenario(
            "one-fail-adaptive k=40 reps=2 seed=9"
        )

    def test_reset_truncates(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        journal.record("job-1", scenario())
        journal.reset()
        assert journal.pending() == []
        assert journal.backlog() == 0

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert JobJournal(tmp_path / "never-written.journal").pending() == []

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path)
        journal.record("job-1", scenario())
        journal.record("job-2", scenario())
        # Simulate a crash mid-append: the last line is torn.
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2],
                        encoding="utf-8")
        assert [entry.job_id for entry in journal.pending()] == ["job-1"]

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path)
        journal.record("job-1", scenario())
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(["not", "a", "dict"]) + "\n")
            handle.write(json.dumps({"kind": "submit"}) + "\n")  # missing fields
        assert [entry.job_id for entry in journal.pending()] == ["job-1"]

    def test_record_entry_round_trips(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        entry = JournalEntry(
            job_id="job-9", scenario=scenario().to_dict(), deadline=7.0,
            recorded_at=1.0,
        )
        journal.record_entry(entry)
        assert journal.pending() == [entry]

    def test_concurrent_appends_stay_line_atomic(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal")
        threads = [
            threading.Thread(
                target=lambda i=i: [journal.record(f"job-{i}-{j}", scenario())
                                    for j in range(20)]
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert journal.backlog() == 80


class TestJournalForStore:
    def test_jsonl_store_gets_journal_in_root(self, tmp_path):
        store = open_store(tmp_path / "store")
        journal = journal_for_store(store)
        assert journal is not None
        assert journal.path == tmp_path / "store" / "jobs.journal"

    def test_sqlite_store_gets_sidecar_journal(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path / 'results.db'}")
        journal = journal_for_store(store)
        assert journal is not None
        assert journal.path == tmp_path / "results.db.jobs.journal"

    def test_chaos_wrapper_delegates_to_inner(self, tmp_path):
        store = open_store(f"chaos:jsonl:{tmp_path / 'store'}?seed=1")
        journal = journal_for_store(store)
        assert journal is not None
        # The journal lands beside the *inner* store's data — it is the
        # recovery mechanism, never itself chaos-wrapped.
        assert journal.path == tmp_path / "store" / "jobs.journal"

    def test_chaos_wrapped_sqlite_store_uses_the_inner_sidecar(self, tmp_path):
        store = open_store(f"chaos:sqlite:{tmp_path / 'results.db'}?seed=1")
        journal = journal_for_store(store)
        assert journal is not None
        assert journal.path == tmp_path / "results.db.jobs.journal"

    def test_none_for_a_remote_store(self):
        assert journal_for_store(open_store("http://127.0.0.1:8765")) is None

    def test_none_for_no_store(self):
        assert journal_for_store(None) is None


class TestFaultInjector:
    def test_rate_one_always_fires_and_counts(self):
        injector = FaultInjector(seed=1, rates={"append": 1.0})
        with pytest.raises(InjectedFault) as info:
            injector.maybe_fail("append")
        assert info.value.kind == "append"
        assert injector.calls["append"] == 1
        assert injector.fired["append"] == 1

    def test_rate_zero_never_fires(self):
        injector = FaultInjector(seed=1)
        for _ in range(100):
            injector.maybe_fail("append")
        assert injector.fired["append"] == 0

    def test_skip_protects_early_calls(self):
        injector = FaultInjector(seed=1, rates={"append": 1.0}, skips={"append": 2})
        injector.maybe_fail("append")
        injector.maybe_fail("append")
        with pytest.raises(InjectedFault):
            injector.maybe_fail("append")

    def test_cap_guarantees_eventual_success(self):
        injector = FaultInjector(seed=1, rates={"append": 1.0}, caps={"append": 2})
        fails = 0
        for _ in range(10):
            try:
                injector.maybe_fail("append")
            except InjectedFault:
                fails += 1
        assert fails == 2

    def test_decisions_are_deterministic_per_seed(self):
        a = [FaultInjector(seed=7, rates={"load": 0.5}).roll("load") for _ in range(1)]
        rolls_a = FaultInjector(seed=7, rates={"load": 0.5})
        rolls_b = FaultInjector(seed=7, rates={"load": 0.5})
        assert [rolls_a.roll("load") for _ in range(50)] == [
            rolls_b.roll("load") for _ in range(50)
        ]
        assert a  # smoke: single-roll construction works too

    def test_kind_streams_are_independent(self):
        # Interleaving other kinds must not perturb a kind's decisions.
        solo = FaultInjector(seed=3, rates={"load": 0.5})
        solo_rolls = [solo.roll("load") for _ in range(20)]
        mixed = FaultInjector(seed=3, rates={"load": 0.5, "append": 0.5})
        mixed_rolls = []
        for _ in range(20):
            mixed.roll("append")
            mixed_rolls.append(mixed.roll("load"))
        assert solo_rolls == mixed_rolls

    def test_maybe_crash_raises_base_exception(self):
        injector = FaultInjector(seed=1, rates={"worker-crash": 1.0})
        with pytest.raises(SimulatedCrash):
            try:
                injector.maybe_crash()
            except Exception:  # noqa: BLE001 - the point: this must NOT catch
                pytest.fail("SimulatedCrash must not be swallowed by 'except Exception'")

    def test_maybe_delay_uses_injected_sleep(self):
        injector = FaultInjector(seed=1, delays={"slow": 0.25})
        slept = []
        injector.maybe_delay("slow", sleep=slept.append)
        assert slept == [0.25]
        injector.maybe_delay("other-kind", sleep=slept.append)
        assert slept == [0.25]


class TestChaosSpecGrammar:
    def test_plain_spec_has_no_chaos_params(self):
        assert _split_chaos_spec("jsonl:results/store") == ("jsonl:results/store", [])

    def test_trailing_chaos_params_split_off(self):
        inner, params = _split_chaos_spec("jsonl:store?seed=3&append_fail=0.5")
        assert inner == "jsonl:store"
        assert dict(params) == {"seed": "3", "append_fail": "0.5"}

    def test_inner_query_is_preserved(self):
        # sqlite's own ?ttl= options are not chaos keys: they stay inner.
        inner, params = _split_chaos_spec("sqlite:store.db?ttl=60?seed=1&load_fail=1")
        assert inner == "sqlite:store.db?ttl=60"
        assert dict(params) == {"seed": "1", "load_fail": "1"}

    def test_non_chaos_trailing_query_stays_inner(self):
        inner, params = _split_chaos_spec("sqlite:store.db?ttl=60")
        assert inner == "sqlite:store.db?ttl=60"
        assert params == []

    def test_bad_option_value_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bad chaos option"):
            ChaosStore.from_spec(f"{tmp_path / 'store'}?seed=not-a-number")

    def test_nested_chaos_is_rejected(self, tmp_path):
        store = open_store(f"chaos:{tmp_path / 'store'}?seed=1")
        with pytest.raises(ValueError, match="do not nest"):
            ChaosStore(store)

    def test_describe_round_trips_through_open_store(self, tmp_path):
        spec = f"chaos:jsonl:{tmp_path / 'store'}?seed=5&append_fail=0.25"
        store = open_store(spec)
        reopened = open_store(store.describe())
        assert isinstance(reopened, ChaosStore)
        assert reopened.injector.seed == 5
        assert reopened.injector.rates == {"append": 0.25}


class TestOverloaded:
    def test_carries_retry_after(self):
        error = Overloaded("full", retry_after=3.5)
        assert error.retry_after == 3.5
        assert "full" in str(error)
