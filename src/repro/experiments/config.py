"""Experiment configuration and the paper's protocol suite.

The evaluation of Section 5 fixes the following parameters, all of which are
encoded here (values imported from :mod:`repro.core.constants`):

* One-fail Adaptive: ``δ = 2.72``;
* Exp Back-on/Back-off: ``δ = 0.366``;
* Log-fails Adaptive: ``ξδ = ξβ = 0.1``, ``ε ≈ 1/(k+1)``, and two variants
  ``ξt = 1/2`` ("Log-Fails Adaptive (2)") and ``ξt = 1/10``
  ("Log-Fails Adaptive (10)");
* Loglog-iterated Back-off: ``r = 2``;
* each (protocol, k) point is the average of 10 runs;
* k ranges over powers of ten from 10 to 10⁷.

The paper's largest sizes take a long while on a single CPU, so the default
configuration sweeps k up to ``10⁵``; the ``--max-k`` flag of ``repro figure1``
and ``repro table1`` raises the ceiling.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core import analysis as core_analysis
from repro.core.constants import (
    EBB_DELTA_DEFAULT,
    LFA_XI_BETA_DEFAULT,
    LFA_XI_DELTA_DEFAULT,
    LLIB_R_DEFAULT,
    OFA_DELTA_DEFAULT,
)

__all__ = [
    "ProtocolSpec",
    "ExperimentConfig",
    "paper_k_values",
    "paper_protocol_suite",
    "DEFAULT_MAX_K",
    "PAPER_MAX_K",
    "DEFAULT_RUNS",
]

#: Number of runs averaged per (protocol, k) point in the paper.
DEFAULT_RUNS = 10

#: Largest k simulated by the paper (Figure 1 / Table 1).
PAPER_MAX_K = 10**7

#: Largest k swept by default in this reproduction (single-CPU budget).
DEFAULT_MAX_K = 10**5


@dataclass(frozen=True)
class ProtocolSpec:
    """One curve of the evaluation: a protocol family plus its parameters.

    Attributes
    ----------
    key:
        Short machine-friendly identifier (used in CSV columns and file names).
    label:
        The curve label used by the paper's figure/table.
    spec:
        Protocol spec string (e.g. ``"one-fail-adaptive(delta=2.72)"``).
        The sweep runner turns every (spec, k) cell into a content-hashed,
        cacheable and resumable
        :class:`~repro.scenarios.scenario.Scenario`.
    analysis_ratio:
        Callable mapping ``k`` to the steps/k constant predicted by the
        protocol's analysis, or ``None`` when the analysis only gives an
        asymptotic order (Loglog-iterated Back-off).
    analysis_note:
        Text used in the Analysis column when ``analysis_ratio`` is ``None``.
    """

    key: str
    label: str
    spec: str
    analysis_ratio: Callable[[int], float] | None = None
    analysis_note: str = ""

    def analysis_text(self, k: int | None = None, float_format: str = ".1f") -> str:
        """Human-readable entry for the Analysis column of Table 1."""
        if self.analysis_ratio is not None:
            reference_k = k if k is not None else PAPER_MAX_K
            return format(self.analysis_ratio(reference_k), float_format)
        return self.analysis_note or "-"


def paper_k_values(max_k: int | None = None) -> list[int]:
    """Powers of ten from 10 to ``max_k`` (default :data:`DEFAULT_MAX_K`)."""
    if max_k is None:
        max_k = DEFAULT_MAX_K
    if max_k < 10:
        raise ValueError(f"max_k={max_k} is smaller than the smallest size, 10")
    values = [10]
    while values[-1] * 10 <= max_k:
        values.append(values[-1] * 10)
    return values


def paper_protocol_suite() -> list[ProtocolSpec]:
    """The five curves of Figure 1, with the parameters of Section 5."""
    return [
        ProtocolSpec(
            key="lfa-xt2",
            label="Log-Fails Adaptive (2)",
            spec="log-fails-adaptive"
            f"(xi_t=0.5,xi_delta={LFA_XI_DELTA_DEFAULT},xi_beta={LFA_XI_BETA_DEFAULT})",
            analysis_ratio=lambda k: core_analysis.lfa_leading_constant(0.5),
        ),
        ProtocolSpec(
            key="lfa-xt10",
            label="Log-Fails Adaptive (10)",
            spec="log-fails-adaptive"
            f"(xi_t=0.1,xi_delta={LFA_XI_DELTA_DEFAULT},xi_beta={LFA_XI_BETA_DEFAULT})",
            analysis_ratio=lambda k: core_analysis.lfa_leading_constant(0.1),
        ),
        ProtocolSpec(
            key="ofa",
            label="One-Fail Adaptive",
            spec=f"one-fail-adaptive(delta={OFA_DELTA_DEFAULT})",
            analysis_ratio=lambda k: core_analysis.ofa_leading_constant(OFA_DELTA_DEFAULT),
        ),
        ProtocolSpec(
            key="ebb",
            label="Exp Back-on/Back-off",
            spec=f"exp-backon-backoff(delta={EBB_DELTA_DEFAULT})",
            analysis_ratio=lambda k: core_analysis.ebb_leading_constant(EBB_DELTA_DEFAULT),
        ),
        ProtocolSpec(
            key="llib",
            label="Loglog-Iterated Backoff",
            spec=f"loglog-iterated-backoff(r={float(LLIB_R_DEFAULT)})",
            analysis_ratio=None,
            analysis_note="Theta(lglg k / lglglg k)",
        ),
    ]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a Figure 1 / Table 1 style sweep.

    ``workers`` is the process count of the sweep's session: ``1`` runs
    serially in-process, ``0`` means one worker per CPU.  Seeds are derived
    before dispatch, so the worker count never changes the results.
    """

    k_values: Sequence[int] = field(default_factory=paper_k_values)
    runs: int = DEFAULT_RUNS
    seed: int = 2011  # year of the paper; any fixed value works
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.k_values:
            raise ValueError("k_values must not be empty")
        if any(k < 1 for k in self.k_values):
            raise ValueError(f"all k values must be positive, got {list(self.k_values)}")
        repeated = [k for index, k in enumerate(self.k_values) if k in self.k_values[:index]]
        if repeated:
            raise ValueError(f"k_values repeats k={repeated[0]}: {list(self.k_values)}")
        if self.runs < 1:
            raise ValueError(f"runs must be positive, got {self.runs}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {self.workers}")

    def describe(self) -> dict[str, object]:
        return {
            "k_values": list(self.k_values),
            "runs": self.runs,
            "seed": self.seed,
            "workers": self.workers,
        }
