"""Ablation sweeps over the protocols' δ parameter (experiments E3 and E4).

The paper fixes ``δ = 2.72`` for One-fail Adaptive and ``δ = 0.366`` for Exp
Back-on/Back-off without exploring the sensitivity of the makespan to those
choices (the theorems admit ranges ``(e, 2.99]`` and ``(0, 1/e)``
respectively).  These ablations quantify that sensitivity: for each admissible
δ on a grid and each network size, they measure the mean steps/k ratio, which
is how the paper's choice of δ is justified empirically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.statistics import RunStatistics, summarize_makespans
from repro.core import analysis as core_analysis
from repro.core.constants import EBB_DELTA_MAX, OFA_DELTA_MAX, OFA_DELTA_MIN
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import simulate
from repro.util.rng import derive_seeds
from repro.util.tables import format_text_table

__all__ = ["AblationResult", "run_ofa_delta_ablation", "run_ebb_delta_ablation"]


@dataclass(frozen=True)
class AblationCell:
    """Measured ratios for one (δ, k) combination."""

    delta: float
    k: int
    ratio: RunStatistics
    analysis_constant: float


@dataclass
class AblationResult:
    """Result of a δ-sweep for one protocol."""

    protocol_label: str
    cells: list[AblationCell]

    def render(self) -> str:
        headers = ["delta", "k", "mean steps/k", "std", "analysis constant"]
        rows = [
            [
                f"{cell.delta:.3f}",
                cell.k,
                f"{cell.ratio.mean:.2f}",
                f"{cell.ratio.std:.2f}",
                f"{cell.analysis_constant:.2f}",
            ]
            for cell in self.cells
        ]
        return format_text_table(headers, rows)

    def best_delta(self, k: int) -> float:
        """The δ with the smallest mean ratio at network size ``k``."""
        candidates = [cell for cell in self.cells if cell.k == k]
        if not candidates:
            raise ValueError(f"no ablation cells for k={k}")
        return min(candidates, key=lambda cell: cell.ratio.mean).delta


def _run_delta_grid(
    protocol_factory,
    analysis_constant,
    deltas: Sequence[float],
    k_values: Sequence[int],
    runs: int,
    seed: int,
    label: str,
) -> AblationResult:
    cells: list[AblationCell] = []
    for delta_index, delta in enumerate(deltas):
        for k_index, k in enumerate(k_values):
            seeds = derive_seeds(seed + 131 * delta_index + 17 * k_index, runs)
            makespans = []
            for run_seed in seeds:
                result = simulate(protocol_factory(delta), k, seed=run_seed)
                if result.solved and result.makespan is not None:
                    makespans.append(result.makespan / k)
            if not makespans:
                raise RuntimeError(f"{label}: no solved runs for delta={delta}, k={k}")
            cells.append(
                AblationCell(
                    delta=float(delta),
                    k=int(k),
                    ratio=summarize_makespans(makespans),
                    analysis_constant=analysis_constant(delta),
                )
            )
    return AblationResult(protocol_label=label, cells=cells)


def run_ofa_delta_ablation(
    deltas: Sequence[float] | None = None,
    k_values: Sequence[int] = (100, 1_000, 10_000),
    runs: int = 5,
    seed: int = 7,
) -> AblationResult:
    """Sweep One-fail Adaptive's δ over (e, 2.99] (experiment E4)."""
    if deltas is None:
        low = OFA_DELTA_MIN + 0.002
        high = OFA_DELTA_MAX
        deltas = [low, 2.72, 2.8, 2.9, high]
    return _run_delta_grid(
        protocol_factory=lambda delta: OneFailAdaptive(delta=delta),
        analysis_constant=core_analysis.ofa_leading_constant,
        deltas=deltas,
        k_values=k_values,
        runs=runs,
        seed=seed,
        label="One-Fail Adaptive",
    )


def run_ebb_delta_ablation(
    deltas: Sequence[float] | None = None,
    k_values: Sequence[int] = (100, 1_000, 10_000),
    runs: int = 5,
    seed: int = 11,
) -> AblationResult:
    """Sweep Exp Back-on/Back-off's δ over (0, 1/e) (experiment E3)."""
    if deltas is None:
        deltas = [0.05, 0.15, 0.25, 0.33, 0.366, EBB_DELTA_MAX - 0.001]
    return _run_delta_grid(
        protocol_factory=lambda delta: ExpBackonBackoff(delta=delta),
        analysis_constant=core_analysis.ebb_leading_constant,
        deltas=deltas,
        k_values=k_values,
        runs=runs,
        seed=seed,
        label="Exp Back-on/Back-off",
    )
