"""Reproduction of Table 1: steps/nodes ratio as a function of k.

Table 1 of the paper divides the Figure 1 averages by k and appends the
constant predicted by each protocol's analysis.  The paper's reference values
(for its own simulation, averaged over 10 runs) are kept here verbatim so the
reproduction can be compared side by side; see EXPERIMENTS.md for the
measured-vs-paper discussion.  ``repro table1`` prints the measured table and
the comparison and writes Markdown / CSV / JSON artefacts.  Run with::

    python -m repro table1 --max-k 10000
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import ExperimentConfig, ProtocolSpec, paper_protocol_suite
from repro.experiments.runner import ProgressCallback, SweepResult, run_sweep
from repro.util.tables import format_markdown_table, format_text_table

__all__ = ["Table1Result", "reproduce_table1", "PAPER_TABLE1"]

#: The ratios published in Table 1 of the paper (steps/nodes, 10-run averages),
#: keyed by protocol spec key and then by k.  "analysis" is the constant the
#: paper reports from each protocol's analysis.
PAPER_TABLE1: dict[str, dict[int | str, float | str]] = {
    "lfa-xt2": {
        10: 46.4, 100: 1292.4, 1_000: 181.9, 10_000: 26.6,
        100_000: 9.4, 1_000_000: 8.0, 10_000_000: 7.8, "analysis": 7.8,
    },
    "lfa-xt10": {
        10: 26.3, 100: 3289.2, 1_000: 593.8, 10_000: 50.3,
        100_000: 11.5, 1_000_000: 4.5, 10_000_000: 4.4, "analysis": 4.4,
    },
    "ofa": {
        10: 4.0, 100: 6.9, 1_000: 7.4, 10_000: 7.4,
        100_000: 7.4, 1_000_000: 7.4, 10_000_000: 7.4, "analysis": 7.4,
    },
    "ebb": {
        10: 4.0, 100: 5.5, 1_000: 5.2, 10_000: 7.2,
        100_000: 6.6, 1_000_000: 5.6, 10_000_000: 7.9, "analysis": 14.9,
    },
    "llib": {
        10: 5.6, 100: 8.6, 1_000: 9.6, 10_000: 9.2,
        100_000: 10.5, 1_000_000: 10.5, 10_000_000: 10.1,
        "analysis": "Theta(lglg k/lglglg k)",
    },
}


@dataclass
class Table1Result:
    """The reproduced Table 1 plus the paper's reference values."""

    sweep: SweepResult
    specs: list[ProtocolSpec]

    def measured_ratio(self, spec_key: str, k: int) -> float:
        return self.sweep.cell(spec_key, k).mean_ratio

    def rows(self, float_format: str = ".1f") -> tuple[list[str], list[list[object]]]:
        """Headers and rows of the reproduced table (measured ratios)."""
        k_values = list(self.sweep.config.k_values)
        headers = ["k"] + [str(k) for k in k_values] + ["Analysis"]
        body: list[list[object]] = []
        for spec in self.specs:
            row: list[object] = [spec.label]
            for k in k_values:
                row.append(format(self.measured_ratio(spec.key, k), float_format))
            row.append(spec.analysis_text())
            body.append(row)
        return headers, body

    def comparison_rows(self, float_format: str = ".1f") -> tuple[list[str], list[list[object]]]:
        """Measured ratios next to the paper's, for the k values swept."""
        k_values = list(self.sweep.config.k_values)
        headers = ["Protocol", "k", "measured steps/k", "paper steps/k"]
        body: list[list[object]] = []
        for spec in self.specs:
            reference = PAPER_TABLE1.get(spec.key, {})
            for k in k_values:
                paper_value = reference.get(k, "-")
                body.append(
                    [
                        spec.label,
                        k,
                        format(self.measured_ratio(spec.key, k), float_format),
                        paper_value if isinstance(paper_value, str) else format(paper_value, float_format),
                    ]
                )
        return headers, body

    def render(self, markdown: bool = False) -> str:
        headers, body = self.rows()
        if markdown:
            return format_markdown_table(headers, body)
        return format_text_table(headers, body)

    def render_comparison(self, markdown: bool = False) -> str:
        headers, body = self.comparison_rows()
        if markdown:
            return format_markdown_table(headers, body)
        return format_text_table(headers, body)


def reproduce_table1(
    config: ExperimentConfig | None = None,
    specs: list[ProtocolSpec] | None = None,
    progress: ProgressCallback | None = None,
    store_dir: "str | Path | None" = None,
) -> Table1Result:
    """Run the Table 1 sweep (same sweep as Figure 1) and return the ratios.

    The arguments are :func:`~repro.experiments.figure1.reproduce_figure1`'s.
    """
    sweep = run_sweep(
        specs if specs is not None else paper_protocol_suite(),
        config if config is not None else ExperimentConfig(),
        progress=progress,
        store_dir=store_dir,
    )
    return Table1Result(sweep=sweep, specs=list(sweep.specs))
