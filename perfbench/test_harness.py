"""Self-test of the benchmark harness: a tiny grid and a 1-second service mix.

Run from the repository root with ``python -m pytest perfbench -q``.  It
checks that the traced run's budget adds up to its wall, that the tracing
wrappers are gone afterwards, that result digests repeat for a seed and
differ between seeds, and that ``BENCHMARK.json`` restates ``spec.py``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import spec

spec.require_source()

import calibrate  # noqa: E402
import grids  # noqa: E402
import service_mix  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(autouse=True)
def work_dir():
    spec.WORK.mkdir(exist_ok=True)
    yield
    shutil.rmtree(spec.WORK, ignore_errors=True)


def tiny_run(name: str, seed: int, trace: bool = False) -> dict:
    return grids.run(grids.tiny(grids.GRIDS[name]), seed, seconds=0.0, trace=trace,
                     setup_repeats=1, probe_pairs=1)


def service_run(seed: int, trace: bool = False) -> dict:
    return service_mix.run(seed, seconds=1.0, trace=trace, setup_repeats=1, digest_ops=16)


def assert_reports(summary: dict, declared) -> None:
    """Every declared metric but failed_frac (added by run.py) has a value."""
    assert {m.name for m in declared} - {"failed_frac"} <= set(summary["metrics"])


def assert_budget_adds_up(summary: dict) -> None:
    assert_reports(summary, spec.PER_LAYER)
    budget, metrics = summary["budget"], summary["metrics"]
    assert all(value >= 0 for layer, value in budget["self_s"].items()
               if layer not in ("jobs", "client.poll_wait")), budget
    assert sum(budget["self_s"].values()) == pytest.approx(budget["wall_s"])
    shares = sum(metrics[f"budget.{layer}.self_frac"] for layer in spec.BUDGET_LAYERS)
    assert shares + metrics["unattributed_frac"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(grids.GRIDS))
def test_traced_grid_budget_adds_up_and_unwraps(name):
    original = tracer.patched_attributes()
    summary = tiny_run(name, seed=5, trace=True)
    assert summary["failed"] == 0
    assert_budget_adds_up(summary)
    assert summary["metrics"]["engine.solved_frac"] == 1.0
    assert summary["metrics"]["engine.runs"] > 0
    assert tracer.patched_attributes() == original


def test_grid_digests_repeat_per_seed():
    runs = [tiny_run("windowed-grid", seed) for seed in (7, 7, 8)]
    assert_reports(runs[0], spec.END_TO_END)
    first, again, other = (run["digests"][0] for run in runs)
    assert first == again != other


def test_traced_service_mix_budget_adds_up():
    summary = service_run(seed=3, trace=True)
    assert summary["failed"] == 0, summary
    assert_budget_adds_up(summary)
    metrics = summary["metrics"]
    assert metrics["jobs.submit.cached"] > 0
    assert metrics["http.requests.scenarios"] > 0
    assert sum(summary["clients"].values()) == summary["attempted"]


def test_service_mix_digests_repeat_per_seed():
    runs = [service_run(seed) for seed in (4, 4, 5)]
    assert_reports(runs[0], spec.END_TO_END)
    first, again, other = (run["digests"][0] for run in runs)
    assert first == again != other


def test_reference_scaling_shortens_times_and_raises_rates():
    # A core twice as slow as the reference: a 2 s pass is 1 reference second.
    scaled = calibrate.scale({"wall_s": 2.0, "slots_per_s": 10.0, "cached_p99_ms": 4.0}, 2.0)
    assert scaled == {"wall_s": 1.0, "slots_per_s": 20.0, "cached_p99_ms": 2.0}
    assert 0.5 < calibrate.slowness() < 5.0


def test_benchmark_json_restates_spec():
    doc = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in spec.WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]


def test_fails_without_program_source(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "history.jsonl"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
