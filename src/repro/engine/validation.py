"""Statistical cross-validation of the simulation engines.

The specialised engines (fair, window) are mathematically exact reductions of
the node-level simulation; these helpers provide the *empirical* counterpart:
they draw makespan samples from two engines for the same protocol and network
size and compare the samples' means with a two-sample z-test-style criterion.
The test suite uses them with small k and moderate sample counts, and
``benchmarks/bench_engines.py`` uses them to document the speed/fidelity
trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.engine.result import SimulationResult
from repro.protocols.base import Protocol
from repro.util.rng import derive_seeds

__all__ = ["makespan_samples", "compare_engines", "EngineComparison"]


def makespan_samples(
    engine: Any,
    protocol: Protocol,
    k: int,
    runs: int,
    root_seed: int = 0,
) -> list[int]:
    """Collect ``runs`` makespans of ``protocol`` on ``engine`` for size ``k``.

    Raises if any run fails to solve the instance — engine validation is only
    meaningful on solved runs.
    """
    seeds = derive_seeds(root_seed, runs)
    samples: list[int] = []
    for seed in seeds:
        result: SimulationResult = engine.simulate(protocol, k, seed=seed)
        if not result.solved or result.makespan is None:
            raise RuntimeError(
                f"engine {engine.name} failed to solve k={k} with protocol {protocol.name}"
            )
        samples.append(result.makespan)
    return samples


@dataclass(frozen=True)
class EngineComparison:
    """Summary of a two-engine comparison."""

    protocol: str
    k: int
    runs: int
    mean_a: float
    mean_b: float
    std_a: float
    std_b: float
    z_score: float
    compatible: bool

    def summary(self) -> str:
        return (
            f"{self.protocol} k={self.k}: mean_a={self.mean_a:.1f} mean_b={self.mean_b:.1f} "
            f"z={self.z_score:.2f} -> {'compatible' if self.compatible else 'DIVERGENT'}"
        )


def _mean_std(samples: list[int]) -> tuple[float, float]:
    n = len(samples)
    mean = sum(samples) / n
    if n < 2:
        return mean, 0.0
    variance = sum((value - mean) ** 2 for value in samples) / (n - 1)
    return mean, math.sqrt(variance)


def compare_engines(
    engine_a: Any,
    engine_b: Any,
    protocol: Protocol,
    k: int,
    runs: int = 50,
    root_seed: int = 0,
    z_threshold: float = 4.0,
) -> EngineComparison:
    """Compare the makespan distributions produced by two engines.

    The criterion is a two-sample z-score on the means; ``z_threshold = 4``
    keeps the false-alarm probability of a correct pair of engines below
    ~1e-4 per comparison while still flagging any systematic discrepancy of a
    few percent once ``runs`` is in the hundreds.
    """
    samples_a = makespan_samples(engine_a, protocol, k, runs, root_seed=root_seed)
    samples_b = makespan_samples(engine_b, protocol, k, runs, root_seed=root_seed + 1)
    mean_a, std_a = _mean_std(samples_a)
    mean_b, std_b = _mean_std(samples_b)
    pooled = math.sqrt(std_a**2 / len(samples_a) + std_b**2 / len(samples_b))
    if pooled == 0.0:
        z_score = 0.0 if mean_a == mean_b else math.inf
    else:
        z_score = abs(mean_a - mean_b) / pooled
    return EngineComparison(
        protocol=protocol.name,
        k=k,
        runs=runs,
        mean_a=mean_a,
        mean_b=mean_b,
        std_a=std_a,
        std_b=std_b,
        z_score=z_score,
        compatible=z_score <= z_threshold,
    )
