"""Experiment harness: the sweeps behind Figure 1, Table 1 and the ablations.

Every experiment builds one :class:`~repro.scenarios.scenario.Scenario` per
cell and runs its grid with one
:meth:`~repro.scenarios.session.Session.run_all` call.

* :mod:`repro.experiments.config` — experiment configuration and the paper's
  protocol suite (the five curves of Figure 1 with the parameters of
  Section 5).
* :mod:`repro.experiments.runner` — generic (protocol × k × seeds) sweep
  runner returning one :class:`~repro.scenarios.session.ResultSet` per cell.
* :mod:`repro.experiments.parallel` — the process-pool execution layer
  :class:`~repro.scenarios.session.Session` fans its independent work units
  out over (``workers=1`` falls back to a serial in-process loop).
* :mod:`repro.experiments.figure1` — reproduces Figure 1 (average steps vs k).
* :mod:`repro.experiments.table1` — reproduces Table 1 (steps/k ratios plus
  the analysis column).
* :mod:`repro.experiments.ablations` — δ-sensitivity sweeps for the paper's
  two protocols (experiments E3/E4).
* :mod:`repro.experiments.dynamic` — the dynamic-arrivals extension
  (experiment E6).
* :mod:`repro.experiments.variance` — the makespan-dispersion (predictability)
  experiment (E7).
* :mod:`repro.experiments.export` — CSV / Markdown / gnuplot writers.
"""

from __future__ import annotations

from repro.experiments.config import (
    ExperimentConfig,
    ProtocolSpec,
    paper_k_values,
    paper_protocol_suite,
)
from repro.experiments.parallel import ParallelExecutor, SimulationUnit, UnitOutcome
from repro.experiments.runner import SweepResult, run_sweep
from repro.experiments.figure1 import Figure1Result, reproduce_figure1
from repro.experiments.table1 import Table1Result, reproduce_table1
from repro.experiments.ablations import AblationResult, run_ebb_delta_ablation, run_ofa_delta_ablation
from repro.experiments.dynamic import DynamicResult, run_dynamic_experiment
from repro.experiments.variance import VarianceResult, run_variance_experiment

__all__ = [
    "ExperimentConfig",
    "ProtocolSpec",
    "paper_k_values",
    "paper_protocol_suite",
    "ParallelExecutor",
    "SimulationUnit",
    "UnitOutcome",
    "SweepResult",
    "run_sweep",
    "Figure1Result",
    "reproduce_figure1",
    "Table1Result",
    "reproduce_table1",
    "AblationResult",
    "run_ebb_delta_ablation",
    "run_ofa_delta_ablation",
    "DynamicResult",
    "run_dynamic_experiment",
    "VarianceResult",
    "run_variance_experiment",
]
