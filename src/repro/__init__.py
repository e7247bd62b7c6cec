"""repro — Unbounded Contention Resolution in Multiple-Access Channels.

A faithful, tested reproduction of the protocols and evaluation of

    Antonio Fernández Anta, Miguel A. Mosteiro, Jorge Ramón Muñoz,
    "Unbounded Contention Resolution in Multiple-Access Channels",
    PODC 2011 (brief announcement); full version arXiv:1107.0234.

The library provides:

* the paper's two protocols — :class:`OneFailAdaptive` (Algorithm 1) and
  :class:`ExpBackonBackoff` (Algorithm 2) — which solve static k-selection on
  a single-hop radio network *without collision detection and without any
  knowledge of the number of contenders*;
* the baselines the paper compares against — :class:`LogFailsAdaptive`
  (reconstruction of reference [7]) and :class:`LogLogIteratedBackoff` plus
  the rest of the monotone back-off family of reference [2];
* the channel substrate (:mod:`repro.channel`) and three cross-validated
  simulation engines behind one capability registry (:mod:`repro.engine`);
* the analysis toolkit (:mod:`repro.analysis`, :mod:`repro.core.analysis`);
* the experiment harness regenerating Figure 1 and Table 1
  (:mod:`repro.experiments`); and
* the simulation service (:mod:`repro.service`) — ``repro serve`` — exposing
  the scenario front door over HTTP with a dedup'ing job queue and a
  persistent result store.

Quickstart::

    from repro import OneFailAdaptive, ExpBackonBackoff, simulate

    result = simulate(OneFailAdaptive(), k=10_000, seed=1)
    print(result.makespan, result.steps_per_node)   # ≈ 7.4 * k, ≈ 7.4
"""

from __future__ import annotations

from repro.channel import (
    BatchArrival,
    BurstyArrival,
    ChannelModel,
    ExecutionTrace,
    FeedbackModel,
    PoissonArrival,
    RadioNetwork,
    SlotOutcome,
    available_arrivals,
    available_channels,
    build_arrivals,
    build_channel,
)
from repro.core import ExpBackonBackoff, OneFailAdaptive
from repro.core import analysis as paper_analysis
from repro.engine import (
    EngineCapabilities,
    FairEngine,
    SimulationResult,
    SlotEngine,
    WindowEngine,
    available_engines,
    compare_engines,
    engine_capabilities,
    simulate,
    simulate_batch,
)
from repro.experiments import (
    ExperimentConfig,
    paper_k_values,
    paper_protocol_suite,
    reproduce_figure1,
    reproduce_table1,
)
from repro.protocols import (
    BinarySplitting,
    ExponentialBackoff,
    LogBackoff,
    LogFailsAdaptive,
    LogLogIteratedBackoff,
    PolynomialBackoff,
    SlottedAloha,
    available_protocols,
    build_protocol,
    get_protocol_class,
)
from repro.scenarios import (
    JsonlStore,
    ResultSet,
    ResultStore,
    Scenario,
    Session,
    SqliteStore,
    StoreBackend,
    SyncReport,
    available_store_backends,
    open_store,
    sync_stores,
)
from repro.service import ServiceClient, ServiceError

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # protocols (paper)
    "OneFailAdaptive",
    "ExpBackonBackoff",
    # protocols (baselines / related work)
    "LogFailsAdaptive",
    "LogLogIteratedBackoff",
    "ExponentialBackoff",
    "PolynomialBackoff",
    "LogBackoff",
    "SlottedAloha",
    "BinarySplitting",
    "available_protocols",
    "get_protocol_class",
    "build_protocol",
    # channel substrate
    "ChannelModel",
    "FeedbackModel",
    "SlotOutcome",
    "RadioNetwork",
    "BatchArrival",
    "PoissonArrival",
    "BurstyArrival",
    "ExecutionTrace",
    "available_arrivals",
    "available_channels",
    "build_arrivals",
    "build_channel",
    # engines
    "simulate",
    "simulate_batch",
    "SimulationResult",
    "FairEngine",
    "WindowEngine",
    "SlotEngine",
    "EngineCapabilities",
    "available_engines",
    "engine_capabilities",
    "compare_engines",
    # scenarios (declarative front door)
    "Scenario",
    "Session",
    "ResultSet",
    # result stores & federation
    "StoreBackend",
    "JsonlStore",
    "SqliteStore",
    "ResultStore",
    "open_store",
    "available_store_backends",
    "sync_stores",
    "SyncReport",
    # simulation service
    "ServiceClient",
    "ServiceError",
    # analysis & experiments
    "paper_analysis",
    "ExperimentConfig",
    "paper_k_values",
    "paper_protocol_suite",
    "reproduce_figure1",
    "reproduce_table1",
]
