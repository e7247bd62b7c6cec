"""Tests for the parallel execution layer and the parallel sweep path.

The contract under test: a sweep dispatched over N worker processes is
*bit-identical* to the serial sweep, because every work unit carries its own
pre-derived seed and the executor returns outcomes in submission order.
"""

from __future__ import annotations

import pytest

from repro.channel.arrivals import PoissonArrival
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.experiments.config import ExperimentConfig, ProtocolSpec
from repro.experiments.parallel import (
    ParallelExecutor,
    SimulationUnit,
    UnitOutcome,
    resolve_workers,
)
from repro.experiments.runner import run_sweep
from repro.obs import REGISTRY
from repro.scenarios import Scenario, Session


def small_specs() -> list[ProtocolSpec]:
    return [
        ProtocolSpec(key="ofa", label="One-Fail Adaptive", spec="one-fail-adaptive"),
        ProtocolSpec(key="ebb", label="Exp Back-on/Back-off", spec="exp-backon-backoff"),
    ]


def small_units(count: int = 6) -> list[SimulationUnit]:
    return [
        SimulationUnit(protocol=OneFailAdaptive(), k=10, seed=seed, tag=("ofa", 10))
        for seed in range(count)
    ]


class TestResolveWorkers:
    def test_explicit_value_passes_through(self):
        assert resolve_workers(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestParallelExecutor:
    def test_serial_executes_in_order(self):
        outcomes = ParallelExecutor(workers=1).run(small_units())
        assert [outcome.index for outcome in outcomes] == list(range(6))
        assert all(isinstance(outcome, UnitOutcome) for outcome in outcomes)
        assert all(outcome.result.solved for outcome in outcomes)

    def test_pool_returns_submission_order(self):
        outcomes = ParallelExecutor(workers=2).run(small_units())
        assert [outcome.index for outcome in outcomes] == list(range(6))

    def test_pool_matches_serial_bitwise(self):
        units = small_units()
        serial = ParallelExecutor(workers=1).run(units)
        pooled = ParallelExecutor(workers=3).run(units)
        assert [outcome.result for outcome in serial] == [outcome.result for outcome in pooled]

    def test_tags_travel_with_outcomes(self):
        outcomes = ParallelExecutor(workers=2).run(small_units())
        assert all(outcome.tag == ("ofa", 10) for outcome in outcomes)

    def test_elapsed_is_positive(self):
        outcomes = ParallelExecutor(workers=1).run(small_units(2))
        assert all(outcome.elapsed_seconds > 0 for outcome in outcomes)

    def test_progress_called_once_per_unit(self):
        seen = []
        ParallelExecutor(workers=2).run(small_units(), progress=seen.append)
        assert sorted(outcome.index for outcome in seen) == list(range(6))

    def test_empty_unit_list(self):
        assert ParallelExecutor(workers=2).run([]) == []

    def test_dynamic_units_cross_process(self):
        units = [
            SimulationUnit(
                protocol=OneFailAdaptive(),
                k=12,
                seed=seed,
                arrivals=PoissonArrival(k=12, rate=0.2),
            )
            for seed in range(4)
        ]
        serial = ParallelExecutor(workers=1).run(units)
        pooled = ParallelExecutor(workers=2).run(units)
        assert [outcome.result for outcome in serial] == [outcome.result for outcome in pooled]
        assert all(len(outcome.result.metadata["latencies"]) == 12 for outcome in pooled)


class TestParallelSweep:
    def test_workers_4_reproduces_workers_1_exactly(self):
        config = ExperimentConfig(k_values=[10, 50], runs=3, seed=99)
        serial = run_sweep(small_specs(), config, workers=1)
        parallel = run_sweep(small_specs(), config, workers=4)
        assert set(serial.cells) == set(parallel.cells)
        for key in serial.cells:
            assert serial.cells[key].results == parallel.cells[key].results
            assert serial.cells[key].makespans == parallel.cells[key].makespans

    def test_config_workers_is_the_default(self):
        config = ExperimentConfig(k_values=[10], runs=2, seed=5, workers=2)
        sweep = run_sweep(small_specs()[:1], config)
        reference = run_sweep(small_specs()[:1], ExperimentConfig(k_values=[10], runs=2, seed=5))
        assert sweep.cell("ofa", 10).results == reference.cell("ofa", 10).results

    def test_progress_counts_per_cell(self):
        calls = []
        run_sweep(
            small_specs(),
            ExperimentConfig(k_values=[10], runs=2, seed=1),
            workers=2,
            progress=lambda spec, k, done, total: calls.append((spec.key, k, done, total)),
        )
        assert sorted(calls) == [
            ("ebb", 10, 1, 2),
            ("ebb", 10, 2, 2),
            ("ofa", 10, 1, 2),
            ("ofa", 10, 2, 2),
        ]

    def test_arrivals_route_to_slot_engine(self):
        config = ExperimentConfig(k_values=[12], runs=2, seed=3)
        sweep = run_sweep(small_specs()[:1], config, arrivals="poisson(rate=0.2)")
        for result in sweep.cell("ofa", 12).results:
            assert result.engine == "slot"
            assert result.metadata["arrivals"] == "PoissonArrival"

    def test_arrivals_sweep_parallel_matches_serial(self):
        config = ExperimentConfig(k_values=[12], runs=2, seed=3)
        arrivals = "poisson(rate=0.2)"
        serial = run_sweep(small_specs()[:1], config, workers=1, arrivals=arrivals)
        parallel = run_sweep(small_specs()[:1], config, workers=2, arrivals=arrivals)
        assert serial.cell("ofa", 12).results == parallel.cell("ofa", 12).results


def _engine_counters() -> dict[str, float]:
    """Every engine-layer counter series, keyed by name and labels."""
    return {
        name + labels: value
        for name, family in REGISTRY.snapshot().items()
        if name.startswith("repro_engine_")
        or name in (
            "repro_fair_runs_total", "repro_window_runs_total", "repro_window_occupancy_total",
        )
        for labels, value in family["series"].items()
    }


class TestWorkerCountersReachTheParent:
    """Counters incremented in pool workers are added to the parent's registry."""

    SCENARIOS = [
        "one-fail-adaptive k=30 reps=4 seed=1",  # eight per-run fair units
        "one-fail-adaptive k=60 reps=4 seed=2",
        "exp-backon-backoff k=300 reps=3 seed=3",  # three per-run window units
        "one-fail-adaptive k=20 reps=2 seed=4 engine=fair",  # two per-run fair units
    ]

    def deltas(self, workers: int) -> dict[str, float]:
        before = _engine_counters()
        Session(workers=workers).run_all([Scenario.parse(text) for text in self.SCENARIOS])
        after = _engine_counters()
        return {
            key: value - before.get(key, 0.0)
            for key, value in after.items()
            if value != before.get(key, 0.0)
        }

    def test_pooled_counters_equal_serial_counters(self):
        serial = self.deltas(workers=1)
        assert self.deltas(workers=2) == serial
        assert serial['repro_engine_runs_total{engine="window"}'] == 3
        assert serial['repro_engine_runs_total{engine="fair"}'] == 10
        assert sum(
            value for key, value in serial.items() if key.startswith("repro_fair_runs_total")
        ) == 10
        assert sum(
            value for key, value in serial.items() if key.startswith("repro_window_runs_total")
        ) == 3
        assert any(key.startswith("repro_window_occupancy_total") for key in serial)
