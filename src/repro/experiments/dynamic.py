"""Dynamic k-selection extension (experiment E6).

The paper analyses the *static* problem (all messages arrive in one batch) and
names the *dynamic* problem — messages arriving over time, statistically or
adversarially — as the main open direction (Section 6).  This experiment
exercises the same protocols under the two dynamic arrival processes of
:mod:`repro.channel.arrivals`:

* Poisson arrivals at a configurable per-slot rate, and
* bursty arrivals (batches of ``burst_size`` every ``gap`` slots).

Each (protocol, arrival process) cell is described by one declarative
:class:`~repro.scenarios.scenario.Scenario` built from spec strings
(``"one-fail-adaptive"`` × ``"poisson(rate=0.05)"`` …) and executed by a
:class:`~repro.scenarios.session.Session`, which routes the runs through the
exact node-level engine (the fair and window reductions assume batched
arrivals) and fans the cells out over a
:class:`~repro.experiments.parallel.ParallelExecutor`; a ``store_dir`` makes
the experiment resumable like any other scenario workload.  The reported
metrics are the makespan (slot of the last delivery) and the per-message
delivery latency (delivery slot − arrival slot), which is the quantity a
dynamic analysis would bound.

Run from the command line with::

    python -m repro dynamic --k 64 --runs 5 --workers 0
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.statistics import RunStatistics, summarize_makespans
from repro.engine.result import SimulationResult
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import Session
from repro.scenarios.spec import ARRIVALS, parse_spec
from repro.util.tables import format_text_table

__all__ = ["DynamicResult", "run_dynamic_experiment", "main"]


@dataclass(frozen=True)
class DynamicCell:
    """Aggregated metrics for one (protocol, arrival process) combination."""

    protocol_label: str
    arrivals_description: str
    k: int
    makespan: RunStatistics
    latency: RunStatistics
    unsolved_runs: int


@dataclass
class DynamicResult:
    """Result of the dynamic-arrivals experiment."""

    cells: list[DynamicCell]

    def render(self) -> str:
        headers = [
            "protocol",
            "arrivals",
            "k",
            "mean makespan",
            "mean latency",
            "p90 latency",
            "unsolved",
        ]
        rows = [
            [
                cell.protocol_label,
                cell.arrivals_description,
                cell.k,
                f"{cell.makespan.mean:.1f}",
                f"{cell.latency.mean:.1f}",
                f"{cell.latency.p90:.1f}",
                cell.unsolved_runs,
            ]
            for cell in self.cells
        ]
        return format_text_table(headers, rows)


def _default_protocols() -> list[tuple[str, str]]:
    return [
        ("One-Fail Adaptive", "one-fail-adaptive"),
        ("Exp Back-on/Back-off", "exp-backon-backoff"),
    ]


def _default_arrivals(k: int) -> list[tuple[str, str]]:
    burst_size = max(k // 4, 1)
    return [
        ("poisson rate=0.05", "poisson(rate=0.05)"),
        ("poisson rate=0.2", "poisson(rate=0.2)"),
        (
            "bursty 4x" + str(burst_size),
            f"bursty(bursts=4,burst_size={burst_size},gap={max(k, 1)})",
        ),
    ]


def _arrival_total(spec: str, k: int) -> int:
    """Messages actually injected by ``spec`` built for a nominal ``k``."""
    name, params = parse_spec(spec)
    return ARRIVALS[name].from_spec(k, **params).total_messages


def _aggregate_cell(
    protocol_label: str,
    arrival_label: str,
    k: int,
    results: Sequence[SimulationResult],
) -> DynamicCell:
    makespans: list[float] = []
    latencies: list[float] = []
    unsolved = 0
    for result in results:
        if not result.solved or result.makespan is None:
            unsolved += 1
            continue
        makespans.append(float(result.makespan))
        latencies.extend(float(latency) for latency in result.metadata["latencies"])
    if not makespans:
        raise RuntimeError(
            f"dynamic experiment: no solved runs for {protocol_label} / {arrival_label}"
        )
    return DynamicCell(
        protocol_label=protocol_label,
        arrivals_description=arrival_label,
        k=k,
        makespan=summarize_makespans(makespans),
        latency=summarize_makespans(latencies),
        unsolved_runs=unsolved,
    )


def run_dynamic_experiment(
    k: int = 64,
    runs: int = 5,
    seed: int = 23,
    protocols: Sequence[tuple[str, str]] | None = None,
    arrival_factories: Sequence[tuple[str, str]] | None = None,
    workers: int = 1,
    store_dir: str | Path | None = None,
) -> DynamicResult:
    """Measure makespan and delivery latency under dynamic arrivals.

    Parameters
    ----------
    k:
        Total number of messages injected per run (kept small: the node-level
        engine is O(active nodes) per slot).
    runs:
        Independent repetitions per cell.
    seed:
        Root seed.
    protocols, arrival_factories:
        Optional overrides of the default protocol and arrival-process sets,
        as ``(label, spec string)`` pairs, e.g.
        ``("OFA", "one-fail-adaptive")`` and ``("poisson", "poisson(rate=0.3)")``.
    workers:
        Worker processes (``1`` = serial, ``0`` = one per CPU); per-run seeds
        are derived up front, so the results do not depend on this.
    store_dir:
        Optional Session store directory; cells completed on a previous run
        are served from it.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    protocol_set = list(protocols) if protocols is not None else _default_protocols()
    arrival_set = (
        list(arrival_factories) if arrival_factories is not None else _default_arrivals(k)
    )
    labels: list[tuple[str, str]] = []
    scenarios: list[Scenario] = []
    for protocol_index, (protocol_label, protocol) in enumerate(protocol_set):
        for arrival_index, (arrival_label, arrivals) in enumerate(arrival_set):
            labels.append((protocol_label, arrival_label))
            # The arrival spec rules the cell's message count (an explicit
            # burst shape may round k down).
            scenarios.append(
                Scenario(
                    protocol=protocol,
                    k=_arrival_total(arrivals, k),
                    arrivals=arrivals,
                    replications=runs,
                    seed=seed + 101 * protocol_index + 13 * arrival_index,
                )
            )
    result_sets = Session(store_dir=store_dir, workers=workers).run_all(scenarios)
    return DynamicResult(
        cells=[
            _aggregate_cell(protocol_label, arrival_label, result_set.scenario.k, result_set.results)
            for (protocol_label, arrival_label), result_set in zip(labels, result_sets)
        ]
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point (``python -m repro dynamic``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=64, help="messages injected per run")
    parser.add_argument("--runs", type=int, default=5, help="repetitions per cell")
    parser.add_argument("--seed", type=int, default=23, help="root seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU); results are identical for any value",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="Session result store (directory or spec like sqlite:results.db); "
        "completed cells are reused on re-run",
    )
    args = parser.parse_args(argv)

    print(f"Dynamic k-selection with k = {args.k} messages, {args.runs} runs per cell")  # repro: noqa[OBS001] - experiment stdout is the artefact
    print("(node-level simulation; latency = delivery slot - arrival slot)")  # repro: noqa[OBS001] - experiment stdout is the artefact
    print()  # repro: noqa[OBS001] - experiment stdout is the artefact
    result = run_dynamic_experiment(
        k=args.k, runs=args.runs, seed=args.seed, workers=args.workers, store_dir=args.store
    )
    print(result.render())  # repro: noqa[OBS001] - experiment stdout is the artefact
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
