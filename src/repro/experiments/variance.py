"""Predictability experiment: dispersion of the makespan across runs.

Section 5 of the paper closes with the observation that "for all values of k
simulated, One-fail Adaptive and Exp Back-on/Back-off have a very stable and
efficient behavior", in contrast with Log-fails Adaptive, which is described
as much less predictable.  Figure 1 and Table 1 only show averages, so this
experiment quantifies the stability claim directly: for every protocol of the
evaluation and every network size it reports the standard deviation, the
coefficient of variation and the min–max spread of the makespan over
independently seeded runs.  Each (protocol, k) cell is one
:class:`~repro.scenarios.scenario.Scenario`, and the grid is one
:meth:`~repro.scenarios.session.Session.run_all` call.

Regenerated by ``benchmarks/bench_variance.py``; a scaled-down version is
exercised by the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.statistics import RunStatistics
from repro.experiments.config import ProtocolSpec, paper_protocol_suite
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import Session
from repro.util.tables import format_text_table

__all__ = ["VarianceCell", "VarianceResult", "run_variance_experiment"]


@dataclass(frozen=True)
class VarianceCell:
    """Dispersion statistics of one (protocol, k) cell."""

    spec_key: str
    label: str
    k: int
    makespan: RunStatistics

    @property
    def coefficient_of_variation(self) -> float:
        return self.makespan.coefficient_of_variation

    @property
    def spread(self) -> float:
        """Relative min-max spread: (max − min) / mean."""
        if self.makespan.mean == 0:
            return 0.0
        return (self.makespan.maximum - self.makespan.minimum) / self.makespan.mean


@dataclass
class VarianceResult:
    """Dispersion statistics for a whole protocol suite."""

    cells: list[VarianceCell]
    runs: int

    def cell(self, spec_key: str, k: int) -> VarianceCell:
        for candidate in self.cells:
            if candidate.spec_key == spec_key and candidate.k == k:
                return candidate
        raise KeyError(f"no variance cell for {spec_key!r} at k={k}")

    def render(self) -> str:
        headers = ["protocol", "k", "mean makespan", "std", "CoV", "relative spread"]
        rows = [
            [
                cell.label,
                cell.k,
                f"{cell.makespan.mean:.0f}",
                f"{cell.makespan.std:.0f}",
                f"{cell.coefficient_of_variation:.4f}",
                f"{cell.spread:.4f}",
            ]
            for cell in self.cells
        ]
        return format_text_table(headers, rows)


def run_variance_experiment(
    k_values: Sequence[int] = (1_000, 10_000),
    runs: int = 10,
    seed: int = 2011,
    specs: Sequence[ProtocolSpec] | None = None,
) -> VarianceResult:
    """Measure makespan dispersion for every protocol of the paper's suite."""
    if runs < 2:
        raise ValueError(f"variance needs at least 2 runs per cell, got {runs}")
    if not k_values:
        raise ValueError("k_values must not be empty")
    protocol_specs = list(specs) if specs is not None else paper_protocol_suite()
    grid = [(spec, k) for spec in protocol_specs for k in k_values]
    scenarios = [
        Scenario(protocol=spec.spec, k=k, replications=runs, seed=seed + 881 * i + 29 * j)
        for i, spec in enumerate(protocol_specs)
        for j, k in enumerate(k_values)
    ]
    cells: list[VarianceCell] = []
    for (spec, k), result_set in zip(grid, Session().run_all(scenarios)):
        if len(result_set.makespans) < 2:
            raise RuntimeError(f"variance experiment: not enough solved runs for {spec.key}, k={k}")
        cells.append(
            VarianceCell(
                spec_key=spec.key,
                label=spec.label,
                k=int(k),
                makespan=result_set.makespan_statistics(),
            )
        )
    return VarianceResult(cells=cells, runs=runs)
