"""Chaos smoke: crash-recovery time and zero-duplicate guarantees, measured.

The reliability layer's two load-bearing promises (see
:mod:`repro.service.reliability`):

* **Recovery is fast and lossless** — a server killed after persisting a
  job's replications but before its journal mark replays the journal on the
  next boot and answers the job from the store: zero lost submissions, zero
  duplicate simulations.  Measured here as wall-clock from "dead process"
  to "replayed job done".
* **Transient faults cost retries, not results** — under seeded store-append
  chaos every job still completes, partial cells resume from their persisted
  prefix, and the store ends up with *exactly* ``replications`` run records
  per cell (duplicates would betray re-simulation of completed work).

Both are asserted, not just measured, and everything runs under fixed
:class:`~repro.service.reliability.FaultInjector` seeds — rerunning produces
the same fault schedule.  The artefact lands in
``benchmark_results/BENCH_faults.json``; the whole module is smoke-marked,
so ``scripts/bench_smoke.sh`` runs it in CI.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.scenarios import Scenario, Session
from repro.service import FaultInjector, JobManager, RetryPolicy, SimulatedCrash
from repro.service.jobs import JOB_DONE
from repro.service.reliability import journal_for_store

ARTIFACT_NAME = "BENCH_faults.json"

#: Instant retries: the benchmark measures recovery machinery, not sleeps.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=False)

CHAOS_SEED = 2011  # PODC'11 — same fault schedule on every run


def scenario_for(seed: int, replications: int = 4) -> Scenario:
    return Scenario.parse(f"one-fail-adaptive k=64 reps={replications} seed={seed}")


def run_lines(store_dir, scenario: Scenario) -> int:
    """Raw run-record count in a cell's JSONL file (duplicates visible)."""
    path = store_dir / f"{scenario.content_hash()}.jsonl"
    if not path.exists():
        return 0
    return sum(
        1
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and json.loads(line).get("kind") == "run"
    )


def make_manager(session: Session, **kwargs) -> JobManager:
    kwargs.setdefault("retry_policy", FAST_RETRY)
    kwargs.setdefault("retry_sleep", lambda _delay: None)
    kwargs.setdefault("journal", journal_for_store(session.store))
    return JobManager(session, start=False, **kwargs)


@pytest.mark.smoke
def test_crash_recovery_and_chaos_retries(tmp_path, results_dir):
    artifact: dict[str, object] = {
        "benchmark": "fault-tolerance: crash recovery + retry-under-chaos",
        "chaos_seed": CHAOS_SEED,
    }

    # --- crash before the journal mark, then recover -----------------------
    crash_dir = tmp_path / "crash_store"
    crash_scenario = scenario_for(seed=1)
    injector = FaultInjector(
        seed=CHAOS_SEED, rates={"worker-crash": 1.0}, caps={"worker-crash": 1}
    )
    manager = make_manager(Session(store_dir=crash_dir), fault_injector=injector)
    manager.submit(crash_scenario)
    with pytest.raises(SimulatedCrash):
        manager.process_next()  # dies after persisting, before the mark
    assert manager.journal.backlog() == 1

    started = time.perf_counter()
    session = Session(store_dir=crash_dir)
    reborn = make_manager(session)
    replayed = reborn.replay_journal()
    recovery_seconds = time.perf_counter() - started

    assert replayed == 1, "the unmarked submission must replay"
    job = reborn.jobs()[0]
    assert job.state == JOB_DONE and job.cached, "replay must dedup to the store"
    assert job.result_set.new_runs == 0, "recovery must not re-simulate"
    duplicates = run_lines(crash_dir, crash_scenario) - crash_scenario.replications
    assert duplicates == 0, f"{duplicates} duplicate run record(s) after recovery"
    artifact["crash_recovery"] = {
        "recovery_seconds": recovery_seconds,
        "replayed_jobs": replayed,
        "re_simulated_runs": job.result_set.new_runs,
        "duplicate_run_records": duplicates,
    }

    # --- seeded store chaos: every job completes, no duplicates ------------
    chaos_dir = tmp_path / "chaos_store"
    # Cap the fault budget below the retry budget: at most max_attempts-1
    # injected failures can ever land on one job, so completion is
    # guaranteed — the interesting measurement is how many retries it cost.
    spec = (
        f"chaos:jsonl:{chaos_dir}"
        f"?seed={CHAOS_SEED}&append_fail=0.3"
        f"&append_fail_max={FAST_RETRY.max_attempts - 1}"
    )
    session = Session(store_dir=spec)
    manager = make_manager(session)
    scenarios = [scenario_for(seed=seed) for seed in range(10, 16)]
    started = time.perf_counter()
    jobs = [manager.submit(scen)[0] for scen in scenarios]
    while manager.process_next() is not None:
        pass
    chaos_seconds = time.perf_counter() - started

    assert all(job.state == JOB_DONE for job in jobs), [
        (job.id, job.state, job.error) for job in jobs
    ]
    total_duplicates = sum(
        run_lines(chaos_dir, scen) - scen.replications for scen in scenarios
    )
    assert total_duplicates == 0, (
        f"{total_duplicates} duplicate run record(s) under chaos"
    )
    totals = manager.lifetime_counts()
    injected = session.store.injector.fired["append"]
    assert injected > 0, "the fault schedule must actually fire for this seed"
    artifact["retry_under_chaos"] = {
        "jobs": len(jobs),
        "injected_append_failures": injected,
        "job_retries": totals["retried"],
        "max_attempts_seen": max(job.attempts for job in jobs),
        "duplicate_run_records": total_duplicates,
        "elapsed_seconds": chaos_seconds,
    }

    results_dir.mkdir(exist_ok=True)
    path = results_dir / ARTIFACT_NAME
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True), encoding="utf-8")
    print(f"\nwrote {path}")
    print(
        f"recovery: {recovery_seconds * 1e3:.1f} ms, "
        f"chaos: {injected} injected failure(s), {totals['retried']} retried, "
        f"0 duplicates"
    )
