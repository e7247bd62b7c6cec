"""Compare all protocols of the paper's evaluation on a small sweep.

This is a scaled-down, interactive version of the Figure 1 / Table 1
experiments: it sweeps the five curves of Section 5 (plus the slotted-ALOHA
genie as a yardstick) over a handful of network sizes, prints the mean
steps/node ratios, and renders an ASCII log-log plot of the mean makespans.

Run with::

    python examples/compare_protocols.py            # k up to 10^4, 5 runs each
    python examples/compare_protocols.py 100000 10  # k up to 10^5, 10 runs each

For the full-scale reproduction (CSV/gnuplot artefacts, paper comparison) use
``python -m repro figure1`` and ``python -m repro table1``.
"""

from __future__ import annotations

import sys

from repro import paper_analysis
from repro.experiments import ExperimentConfig, reproduce_figure1
from repro.experiments.config import ProtocolSpec, paper_k_values, paper_protocol_suite
from repro.util.tables import format_text_table


def main() -> int:
    max_k = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    specs = paper_protocol_suite()
    specs.append(
        ProtocolSpec(
            key="aloha",
            label="Slotted ALOHA (known k)",
            spec="slotted-aloha",
            analysis_ratio=lambda k: paper_analysis.fair_protocol_optimal_ratio(),
        )
    )
    config = ExperimentConfig(k_values=paper_k_values(max_k=max_k), runs=runs)

    print(f"Sweeping k in {list(config.k_values)} with {runs} runs per point ...")

    def progress(spec: ProtocolSpec, k: int, done: int, total: int) -> None:
        if done == total:
            print(f"[figure1] {spec.label}: k={k} ({total} runs done)", file=sys.stderr)

    figure = reproduce_figure1(config=config, specs=specs, progress=progress)

    headers = ["Protocol"] + [f"k={k}" for k in config.k_values] + ["Analysis"]
    rows = []
    for spec in specs:
        ks, means = figure.sweep.ratio_series(spec.key)
        row: list[object] = [spec.label]
        row.extend(f"{mean:.2f}" for mean in means)
        row.append(spec.analysis_text())
        rows.append(row)

    print()
    print("Mean steps/node ratio (the metric of Table 1):")
    print(format_text_table(headers, rows))
    print()
    print("Mean makespans on log-log axes (the shape of Figure 1):")
    print(figure.render_plot(width=70, height=20))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
