"""Reproduction of Figure 1: average steps to solve static k-selection vs k.

The paper's Figure 1 is a log-log plot with one curve per protocol (the five
of Section 5) and one point per power-of-ten network size, each point being
the average of 10 independent runs.  :func:`reproduce_figure1` runs that sweep
and returns the curves; the module's ``main`` renders them as an ASCII log-log
plot and writes CSV / gnuplot / JSON artefacts.

Run it with::

    python -m repro.experiments.figure1 --max-k 10000 --runs 10 --output-dir results/

or, for the full paper range (slow on one CPU)::

    REPRO_MAX_K=10000000 python -m repro.experiments.figure1
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import (
    DEFAULT_RUNS,
    ExperimentConfig,
    ProtocolSpec,
    paper_k_values,
    paper_protocol_suite,
)
from repro.experiments.export import write_json, write_series_dat, write_sweep_csv
from repro.experiments.runner import SweepResult, run_sweep
from repro.util.tables import format_text_table
from repro.util.textplot import LogLogPlot

__all__ = ["Figure1Result", "reproduce_figure1", "main"]


@dataclass
class Figure1Result:
    """The reproduced Figure 1: one (k values, mean steps) series per curve."""

    sweep: SweepResult
    series: dict[str, tuple[list[int], list[float]]]
    labels: dict[str, str]

    def render_plot(self, width: int = 72, height: int = 24) -> str:
        """ASCII rendering of the log-log figure."""
        plot = LogLogPlot(width=width, height=height, x_label="Nodes (k)", y_label="Steps")
        for key, (ks, means) in self.series.items():
            plot.add_series(self.labels.get(key, key), ks, means)
        return plot.render()

    def render_table(self) -> str:
        """Mean steps per (protocol, k) as an aligned text table."""
        keys = list(self.series)
        ks = sorted({k for key in keys for k in self.series[key][0]})
        headers = ["k"] + [self.labels.get(key, key) for key in keys]
        rows = []
        for k in ks:
            row: list[object] = [k]
            for key in keys:
                k_values, means = self.series[key]
                if k in k_values:
                    row.append(means[k_values.index(k)])
                else:
                    row.append("-")
            rows.append(row)
        return format_text_table(headers, rows, float_format=".1f")


def reproduce_figure1(
    config: ExperimentConfig | None = None,
    specs: list[ProtocolSpec] | None = None,
    engine: str = "auto",
    progress: bool = False,
    store_dir: "str | Path | None" = None,
) -> Figure1Result:
    """Run the Figure 1 sweep and return the curves.

    Parameters
    ----------
    config:
        Sweep configuration; defaults to the paper's (10 runs per point,
        powers of ten up to the ``REPRO_MAX_K`` ceiling).
    specs:
        Protocol curves; defaults to the paper's five.
    engine:
        Engine selector (``"auto"`` picks the cheapest exact engine).
    progress:
        When true, prints one line per completed (protocol, k) cell to stderr.
    store_dir:
        Optional Session result store (a directory, store spec string, or
        built backend): completed cells are persisted there and served from
        it on re-run (resumable sweeps).
    """
    if config is None:
        config = ExperimentConfig()
    if specs is None:
        specs = paper_protocol_suite()

    def progress_callback(spec: ProtocolSpec, k: int, done: int, total: int) -> None:
        if done == total:
            print(f"[figure1] {spec.label}: k={k} ({total} runs done)", file=sys.stderr)  # repro: noqa[OBS001] - experiment stdout is the artefact

    sweep = run_sweep(
        specs,
        config,
        engine=engine,
        progress=progress_callback if progress else None,
        store_dir=store_dir,
    )
    series = {spec.key: sweep.series(spec.key) for spec in specs}
    labels = {spec.key: spec.label for spec in specs}
    return Figure1Result(sweep=sweep, series=series, labels=labels)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (also installed as ``repro-figure1``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=None, help="largest network size to sweep")
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS, help="runs per (protocol, k)")
    parser.add_argument("--seed", type=int, default=2011, help="root seed of the sweep")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (0 = one per CPU); results are identical for any value",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory for CSV/gnuplot/JSON artefacts (omit to skip writing)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="Session result store (directory or spec like sqlite:results.db): "
        "completed cells are persisted there and served from it on re-run "
        "(resumable sweeps)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        k_values=paper_k_values(max_k=args.max_k),
        runs=args.runs,
        seed=args.seed,
        workers=args.workers,
    )
    figure = reproduce_figure1(config=config, progress=not args.quiet, store_dir=args.store)

    print("Figure 1 — number of steps to solve static k-selection, per number of nodes k")  # repro: noqa[OBS001] - experiment stdout is the artefact
    print()  # repro: noqa[OBS001] - experiment stdout is the artefact
    print(figure.render_table())  # repro: noqa[OBS001] - experiment stdout is the artefact
    print()  # repro: noqa[OBS001] - experiment stdout is the artefact
    print(figure.render_plot())  # repro: noqa[OBS001] - experiment stdout is the artefact

    if args.output_dir is not None:
        csv_path = write_sweep_csv(figure.sweep, args.output_dir / "figure1_runs.csv")
        dat_paths = write_series_dat(figure.sweep, args.output_dir / "figure1_series")
        json_path = write_json(figure.sweep, args.output_dir / "figure1_summary.json")
        print()  # repro: noqa[OBS001] - experiment stdout is the artefact
        print(f"wrote {csv_path}, {json_path} and {len(dat_paths)} gnuplot series files")  # repro: noqa[OBS001] - experiment stdout is the artefact
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
