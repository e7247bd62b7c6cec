"""Exporters: CSV, gnuplot data files, Markdown and JSON.

The reproduced artefacts are *data*; these writers put that data in formats a
downstream user can plot or diff:

* ``write_sweep_csv`` — one row per individual run (long format);
* ``write_series_dat`` — one whitespace-separated file per curve, directly
  loadable by gnuplot (the tool the original figure appears to have been made
  with);
* ``write_markdown`` — a rendered table for EXPERIMENTS.md;
* ``write_json`` — the full sweep with per-cell statistics.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.experiments.runner import SweepResult
from repro.util.tables import format_markdown_table

__all__ = [
    "write_sweep_csv",
    "write_series_dat",
    "write_markdown",
    "write_json",
]


def write_sweep_csv(sweep: SweepResult, path: str | Path) -> Path:
    """Write every individual run of the sweep as one CSV row."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = [
        "protocol_key",
        "label",
        "k",
        "seed",
        "solved",
        "makespan",
        "steps_per_node",
        "slots_simulated",
        "successes",
        "collisions",
        "silences",
        "engine",
    ]
    labels = {spec.key: spec.label for spec in sweep.specs}
    with target.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for (key, k), cell in sorted(sweep.cells.items()):
            for run in cell.results:
                writer.writerow(
                    {
                        "protocol_key": key,
                        "label": labels[key],
                        "k": k,
                        "seed": run.seed,
                        "solved": run.solved,
                        "makespan": run.makespan if run.makespan is not None else "",
                        "steps_per_node": (
                            f"{run.steps_per_node:.6f}" if run.solved else ""
                        ),
                        "slots_simulated": run.slots_simulated,
                        "successes": run.successes,
                        "collisions": run.collisions,
                        "silences": run.silences,
                        "engine": run.engine,
                    }
                )
    return target


def write_series_dat(sweep: SweepResult, directory: str | Path) -> list[Path]:
    """Write one gnuplot-ready ``<protocol>.dat`` file per curve.

    Each file has the columns ``k  mean_steps  std  min  max`` and can be
    plotted with ``plot 'ofa.dat' using 1:2 with linespoints``.
    """
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    keys = sorted({key for key, _ in sweep.cells})
    for key in keys:
        ks = sorted(k for cell_key, k in sweep.cells if cell_key == key)
        path = target_dir / f"{key}.dat"
        with path.open("w") as handle:
            handle.write("# k  mean_steps  std  min  max\n")
            for k in ks:
                stats = sweep.cells[(key, k)].makespan_statistics()
                handle.write(
                    f"{k} {stats.mean:.3f} {stats.std:.3f} {stats.minimum:.0f} {stats.maximum:.0f}\n"
                )
        written.append(path)
    return written


def write_markdown(headers: list[str], rows: list[list[object]], path: str | Path) -> Path:
    """Write a Markdown table to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(format_markdown_table(headers, rows) + "\n")
    return target


def write_json(sweep: SweepResult, path: str | Path) -> Path:
    """Write the sweep configuration and per-cell statistics as JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    labels = {spec.key: spec.label for spec in sweep.specs}
    payload: dict[str, object] = {
        "config": sweep.config.describe(),
        "cells": [
            {
                "protocol_key": key,
                "label": labels[key],
                "k": k,
                "runs": len(cell.results),
                "solved_runs": len(cell.solved_results),
                "elapsed_seconds": cell.elapsed_seconds,
                "makespan": cell.makespan_statistics().to_dict() if cell.makespans else None,
                "ratio": cell.ratio_statistics().to_dict() if cell.makespans else None,
            }
            for (key, k), cell in sorted(sweep.cells.items())
        ],
    }
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target
