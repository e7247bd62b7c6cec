"""Reproduction of Figure 1: average steps to solve static k-selection vs k.

The paper's Figure 1 is a log-log plot with one curve per protocol (the five
of Section 5) and one point per power-of-ten network size, each point being
the average of 10 independent runs.  :func:`reproduce_figure1` runs that sweep
and returns the curves, which render as a table and an ASCII log-log plot;
``repro figure1`` prints both and writes CSV / gnuplot / JSON artefacts.

Run it with::

    python -m repro figure1 --max-k 10000 --runs 10 --output-dir results/

or, for the full paper range (slow on one CPU)::

    python -m repro figure1 --max-k 10000000
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import ExperimentConfig, ProtocolSpec, paper_protocol_suite
from repro.experiments.runner import ProgressCallback, SweepResult, run_sweep
from repro.util.tables import format_text_table
from repro.util.textplot import LogLogPlot

__all__ = ["Figure1Result", "reproduce_figure1"]


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
    progress: ProgressCallback | None = None,
    store_dir: "str | Path | None" = None,
) -> Figure1Result:
    """Run the Figure 1 sweep and return the curves.

    Parameters
    ----------
    config:
        Sweep configuration; defaults to the paper's (10 runs per point,
        powers of ten up to :data:`~repro.experiments.config.DEFAULT_MAX_K`).
    specs:
        Protocol curves; defaults to the paper's five.
    progress:
        Optional callback invoked after every completed run (see
        :func:`~repro.experiments.runner.run_sweep`).
    store_dir:
        Optional Session result store (a directory, store spec string, or
        built backend): completed cells are persisted there and served from
        it on re-run (resumable sweeps).
    """
    sweep = run_sweep(
        specs if specs is not None else paper_protocol_suite(),
        config if config is not None else ExperimentConfig(),
        progress=progress,
        store_dir=store_dir,
    )
    series = {spec.key: sweep.series(spec.key) for spec in sweep.specs}
    labels = {spec.key: spec.label for spec in sweep.specs}
    return Figure1Result(sweep=sweep, series=series, labels=labels)
