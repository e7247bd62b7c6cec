"""Engine conformance suite: every engine in ``ENGINES``, one contract.

Each class runs parametrised over every engine of the closed table
:data:`repro.engine.dispatch.ENGINES` (each table below is asserted to cover
it, so adding an engine without adding it here fails loudly), on the
protocols that engine serves.

* **Exact laws** — at k <= 3 the makespan law of the paper's model is
  computed exactly (:mod:`exact_laws`, beside this file), from the protocol
  alone: a dynamic programme over the fair protocols' shared state, Lemma 1's
  balls in bins over the windowed protocols' schedules.  A fixed-seed sample
  of each engine must lie within the Kolmogorov–Smirnov bound for a
  false-alarm rate of 10⁻³.  The reduced engines are held to it on their
  compiled paths; their Python paths equal those run for run
  (``test_fair_engine.py``, ``test_window_engine.py``).  A negative control
  shows the bound catches a wrong δ.
* **Structure** — a solved run stops at its final delivery, which comes no
  earlier than slot k; the outcome counters partition the simulated slots,
  capped runs included; a trace records every slot and the true active count.
* **Golden streams** — fixed cells reproduce pinned makespans exactly, on
  every loop of every engine, so a change to an engine's draw order cannot
  slip through and silently invalidate stored results: it must bump the
  engine's ``stream_version``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.engine.fair_engine as fair_module
import repro.engine.window_engine as window_module
from exact_laws import fair_law, ks_distance, ks_limit, window_law
from repro.channel.arrivals import PoissonArrival
from repro.channel.model import SlotOutcome
from repro.channel.trace import ExecutionTrace
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import ENGINES, simulate
from repro.engine.fair_engine import FairEngine
from repro.protocols.base import FairProtocol
from repro.scenarios.spec import build_channel, build_protocol
from repro.util.rng import derive_seeds

WINDOWED = [
    "exp-backon-backoff",
    "loglog-iterated-backoff",
    "exponential-backoff",
    "polynomial-backoff",
    "log-backoff",
]

#: Fair cells with an exact law: (spec, k, horizon).  The horizon leaves at
#: most 1.2·10⁻⁵ of the mass in the law's "beyond" bin (OFA at k = 2, whose
#: tail falls as t⁻²).
FAIR_LAWS = [
    ("one-fail-adaptive", 2, 2_000),
    ("one-fail-adaptive", 3, 2_000),
    ("log-fails-adaptive(xi_t=0.5)", 2, 400),
    ("log-fails-adaptive(xi_t=0.5)", 3, 400),
    ("log-fails-adaptive(xi_t=0.1)", 2, 400),
    ("log-fails-adaptive(xi_t=0.1)", 3, 400),
    ("slotted-aloha", 3, 400),
]
WINDOW_LAWS = [(spec, k, 1_000) for spec in WINDOWED for k in (1, 2)]

#: engine -> the exact laws of the protocols it serves.
LAWS = {"fair": FAIR_LAWS, "slot": FAIR_LAWS + WINDOW_LAWS, "window": WINDOW_LAWS}

#: engine -> fixed-seed runs per law, sized by the engine's cost per run.
RUNS = {"fair": 20_000, "slot": 2_000, "window": 20_000}

#: The root of every law sample's seeds.
ROOT = 2011

#: engine -> its runs counter, by loop, where it has more than one loop.
LOOP_RUNS = {"fair": fair_module._M_FAIR_RUNS, "window": window_module._M_WINDOW_RUNS}


@functools.lru_cache(maxsize=None)
def exact_law(spec: str, k: int, horizon: int) -> np.ndarray:
    """The cell's law, computed once per session and shared read-only."""
    protocol = build_protocol(spec, k=k)
    law = (fair_law if isinstance(protocol, FairProtocol) else window_law)(protocol, k, horizon)
    law.flags.writeable = False
    return law


def makespans(engine, spec: str, k: int, runs: int) -> list[int | None]:
    protocol = build_protocol(spec, k=k)
    return [engine.simulate(protocol, k, seed=seed).makespan for seed in derive_seeds(ROOT, runs)]


class TestExactLaws:
    @pytest.mark.parametrize(
        "engine,spec,k,horizon",
        [
            pytest.param(engine, *law, id=f"{engine}-{law[0]}-k{law[1]}")
            for engine, laws in LAWS.items()
            for law in laws
        ],
    )
    def test_makespan_follows_the_exact_law(self, engine, spec, k, horizon):
        runs = RUNS[engine]
        compiled = LOOP_RUNS[engine].labels(path="compiled") if engine in LOOP_RUNS else None
        before = compiled.value if compiled is not None else 0
        sample = makespans(ENGINES[engine](), spec, k, runs)
        if compiled is not None:
            assert compiled.value - before == runs, f"not every {engine} run took its compiled path"
        distance = ks_distance(exact_law(spec, k, horizon), sample)
        assert distance < ks_limit(runs), (
            f"{engine} {spec} k={k}: KS distance {distance:.4f} >= {ks_limit(runs):.4f}"
        )

    def test_a_wrong_delta_fails_the_law(self):
        """The negative control: an engine that runs OFA with δ = 2.99 when
        asked for δ = 2.72 fails the k = 3 law at the fair legs' runs and
        seeds."""

        class MislabelledEngine(FairEngine):
            def simulate(self, protocol, k, **kwargs):
                return super().simulate(OneFailAdaptive(delta=2.99), k, **kwargs)

        runs = RUNS["fair"]
        sample = makespans(MislabelledEngine(), "one-fail-adaptive", 3, runs)
        assert ks_distance(exact_law("one-fail-adaptive", 3, 2_000), sample) > ks_limit(runs)

    def test_the_laws_are_distributions(self):
        for spec, k, horizon in FAIR_LAWS + WINDOW_LAWS:
            law = exact_law(spec, k, horizon)
            assert law.min() >= 0.0 and law[0] == 0.0
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            assert law[:k].sum() == 0.0  # k deliveries take k slots
            assert law[-1] < 1.2e-5  # the horizon leaves little beyond it


#: engine -> the protocols the structural checks run it on.
SERVED = {
    "fair": ["one-fail-adaptive", "log-fails-adaptive", "slotted-aloha"],
    "slot": ["one-fail-adaptive", "exp-backon-backoff", "loglog-iterated-backoff"],
    "window": WINDOWED,
}

SEEDS = [0, 1, 7]
K = 40


@pytest.mark.parametrize(
    "engine,spec",
    [
        pytest.param(engine, spec, id=f"{engine}-{spec}")
        for engine, specs in SERVED.items()
        for spec in specs
    ],
)
class TestStructure:
    def simulate(self, engine: str, spec: str, seed: int, **options):
        return ENGINES[engine]().simulate(build_protocol(spec, k=K), K, seed=seed, **options)

    def test_stops_at_final_delivery(self, engine, spec):
        for seed in SEEDS:
            result = self.simulate(engine, spec, seed)
            assert result.solved
            assert result.slots_simulated == result.makespan

    def test_makespan_is_at_least_k(self, engine, spec):
        for seed in SEEDS:
            assert self.simulate(engine, spec, seed).makespan >= K

    def test_counters_partition_slots(self, engine, spec):
        for seed in SEEDS:
            result = self.simulate(engine, spec, seed)
            assert result.successes + result.collisions + result.silences == result.slots_simulated
            assert result.successes == K

    def test_capped_runs_count_every_slot(self, engine, spec):
        result = self.simulate(engine, spec, 0, max_slots=K // 2)
        assert not result.solved and result.makespan is None
        assert result.slots_simulated == K // 2
        assert result.successes + result.collisions + result.silences == K // 2

    def test_trace_covers_simulated_slots(self, engine, spec):
        trace = ExecutionTrace()
        result = self.simulate(engine, spec, 3, trace=trace)
        assert len(trace) == result.slots_simulated
        assert [record.slot for record in trace.records] == list(range(result.slots_simulated))

    def test_trace_active_before_counts_down_at_successes(self, engine, spec):
        trace = ExecutionTrace()
        self.simulate(engine, spec, 5, trace=trace)
        active = K
        for record in trace.records:
            assert record.active_before == active
            if record.outcome is SlotOutcome.SUCCESS:
                active -= 1
        assert active == 0

    def test_trace_ends_with_success(self, engine, spec):
        trace = ExecutionTrace()
        self.simulate(engine, spec, 9, trace=trace)
        assert trace.records[-1].outcome is SlotOutcome.SUCCESS
        assert trace.records[-1].active_before == 1


#: engine -> its stream version and pinned cells: (spec, k, root seed, reps,
#: makespans).
STREAM_VERSIONS = {"fair": 1, "slot": 1, "window": 4}
GOLDEN = {
    "fair": [
        ("one-fail-adaptive", 60, 5, 3, [408, 365, 369]),
        ("log-fails-adaptive(xi_t=0.5)", 50, 1, 3, [429, 382, 382]),
        ("log-fails-adaptive(xi_t=0.1)", 200, 2, 2, [737, 1450]),
        ("one-fail-adaptive", 1000, 9, 2, [7302, 7373]),
        ("slotted-aloha", 150, 3, 3, [389, 382, 420]),
        ("slotted-aloha(track_deliveries=False)", 80, 3, 3, [479, 519, 639]),
    ],
    "slot": [
        ("one-fail-adaptive", 20, 3, 3, [108, 87, 92]),
        ("exp-backon-backoff", 20, 3, 3, [82, 80, 80]),
        ("binary-splitting", 16, 3, 3, [53, 42, 47]),
    ],
    "window": [
        ("exp-backon-backoff", 70, 5, 3, [339, 327, 317]),
        ("loglog-iterated-backoff", 300, 6, 3, [1767, 1887, 1874]),
        ("exponential-backoff", 90, 4, 2, [504, 987]),
        ("polynomial-backoff", 80, 3, 3, [371, 381, 282]),
        ("log-backoff", 110, 7, 2, [621, 558]),
    ],
}

#: engine -> a cell cut off by the cap: (spec, k, root seed, max_slots, and
#: each run's (slots, successes, collisions, silences)).
CAPPED = {
    "fair": (
        "one-fail-adaptive", 100, 4, 300,
        [(300, 32, 255, 13), (300, 29, 245, 26), (300, 30, 253, 17)],
    ),
    "slot": ("one-fail-adaptive", 30, 3, 40, [(40, 1, 38, 1), (40, 3, 34, 3), (40, 3, 36, 1)]),
    "window": (
        "exp-backon-backoff", 200, 7, 400,
        [(400, 30, 358, 12), (400, 34, 352, 14), (400, 26, 360, 14)],
    ),
}

#: engine -> its loops: the reduced engines' compiled kernel and Python
#: reference, the slot engine's station loop.
PATHS = {"fair": ("compiled", "python"), "slot": ("station",), "window": ("compiled", "python")}

_ENGINE_PATHS = [
    pytest.param(engine, path, id=f"{engine}-{path}")
    for engine, paths in PATHS.items()
    for path in paths
]


def stream_runs(
    engine: str, path: str, spec: str, k: int, seeds, max_slots: int | None = None
) -> list:
    """The engine's runs of each seed, all on the given loop (the caller
    takes the ``no_kernel`` fixture for the Python loops)."""
    protocol = build_protocol(spec, k=k)
    needs_cd = "collision-detection" in protocol.requires_knowledge
    channel = build_channel("cd" if needs_cd else "default")
    counter = LOOP_RUNS[engine].labels(path=path) if engine in LOOP_RUNS else None
    before = counter.value if counter is not None else 0
    results = [
        simulate(protocol, k, seed=seed, engine=engine, channel=channel, max_slots=max_slots)
        for seed in seeds
    ]
    if counter is not None:
        assert counter.value - before == len(seeds), f"not every run took the {path} path"
    return results


class TestGoldenStreams:
    """Pinned makespans: each engine's draw order is part of the store format."""

    BUMP = "the stream moved: bump the engine's stream_version"

    @pytest.mark.parametrize(
        "engine,path,spec,k,root,reps,makespans",
        [
            pytest.param(engine, path, *cell, id=f"{engine}-{path}-{cell[0]}-{cell[1]}")
            for engine, paths in PATHS.items()
            for path in paths
            for cell in GOLDEN[engine]
        ],
    )
    def test_stream_version(self, engine, path, spec, k, root, reps, makespans, request):
        if path == "python":
            request.getfixturevalue("no_kernel")
        assert ENGINES[engine].stream_version == STREAM_VERSIONS[engine]
        results = stream_runs(engine, path, spec, k, derive_seeds(root, reps))
        assert [result.makespan for result in results] == makespans, self.BUMP

    @pytest.mark.parametrize("engine,path", _ENGINE_PATHS)
    def test_stream_version_capped_counts(self, engine, path, request):
        """Runs cut off by the cap keep their (slots, successes, collisions, silences)."""
        if path == "python":
            request.getfixturevalue("no_kernel")
        spec, k, root, max_slots, counts = CAPPED[engine]
        results = stream_runs(engine, path, spec, k, derive_seeds(root, len(counts)), max_slots)
        assert not any(result.solved for result in results)
        assert [
            (result.slots_simulated, result.successes, result.collisions, result.silences)
            for result in results
        ] == counts, self.BUMP

    def test_slot_stream_version_1_poisson_latencies(self):
        result = simulate(
            OneFailAdaptive(), 16, seed=derive_seeds(3, 3)[0],
            arrivals=PoissonArrival(k=16, rate=0.2),
        )
        assert result.engine == "slot"
        assert result.makespan == 111, self.BUMP
        assert result.metadata["latencies"] == (
            1, 0, 1, 0, 0, 1, 0, 0, 1, 10, 7, 0, 0, 0, 0, 0
        ), self.BUMP

    def test_slot_stream_version_1_trace(self):
        """Every record of a traced run: (transmitters, outcome, active_before,
        delivered_node), the station index of a delivery included."""
        trace = ExecutionTrace()
        result = simulate(
            OneFailAdaptive(), 6, seed=derive_seeds(3, 3)[0], engine="slot", trace=trace
        )
        assert result.makespan == 25, self.BUMP
        C, S, X = "collision", "silence", "success"
        assert [
            (record.transmitters, record.outcome.value, record.active_before,
             record.delivered_node)
            for record in trace
        ] == [
            (2, C, 6, None), (6, C, 6, None), (0, S, 6, None), (6, C, 6, None),
            (2, C, 6, None), (6, C, 6, None), (0, S, 6, None), (6, C, 6, None),
            (1, X, 6, 1), (4, C, 5, None), (0, S, 5, None), (3, C, 5, None),
            (0, S, 5, None), (4, C, 5, None), (0, S, 5, None), (1, X, 5, 2),
            (0, S, 4, None), (1, X, 4, 0), (0, S, 3, None), (0, S, 3, None),
            (2, C, 3, None), (0, S, 3, None), (1, X, 3, 3), (1, X, 2, 5),
            (1, X, 1, 4),
        ], self.BUMP
        assert [record.slot for record in trace] == list(range(25))


def test_every_engine_is_covered():
    for table in (LAWS, RUNS, SERVED, STREAM_VERSIONS, GOLDEN, CAPPED, PATHS):
        assert set(table) == set(ENGINES)
