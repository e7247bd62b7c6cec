"""Deterministic fault-injecting store wrapper (``chaos:<inner-spec>?…``).

:class:`ChaosStore` wraps any other :class:`~repro.scenarios.store.
StoreBackend` and injects seeded, reproducible faults on the two paths a
session exercises under load — ``append`` and ``load`` — plus optional slow
I/O.  It exists so every recovery path in the service layer (job retry with
backoff, journal replay, partial-cell resume, federation retry) is exercised
by *deterministic* tests and the ``bench_faults`` chaos smoke instead of by
hope.  With no fault parameters it is a transparent proxy and passes the
full backend-conformance suite.

Spec grammar (the trailing query belongs to chaos; everything before the
last ``?`` whose keys are all chaos options is the inner spec, so an inner
``sqlite:store.db?ttl=60`` keeps its own options)::

    chaos:results/store?seed=7&append_fail=0.3
    chaos:jsonl:results/store?seed=7&append_fail=1&append_fail_max=2
    chaos:sqlite:store.db?ttl=60?seed=1&load_fail=0.5&slow_ms=5

Options — each of ``append``/``load`` takes ``<kind>_fail`` (probability,
``1`` = always), ``<kind>_fail_skip`` (first N calls never fail) and
``<kind>_fail_max`` (at most N injected failures, guaranteeing eventual
success under retry); ``slow_ms`` adds fixed latency to both paths;
``seed`` fixes every decision stream (see
:class:`~repro.service.reliability.FaultInjector`).

Injected failures raise :class:`~repro.service.reliability.InjectedFault`,
a :class:`~repro.service.reliability.TransientError` — retryable under the
default :class:`~repro.service.reliability.RetryPolicy`.  Listing, probe and
janitorial methods (``cached_count``, ``cached_counts``, ``run_index``,
``scenario_for_hash``, ``compact``, ``sidecar``, …) delegate untouched: the
chaos surface is the result-I/O hot path, not the bookkeeping around it.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from urllib.parse import parse_qsl

from repro.scenarios.scenario import Scenario
from repro.scenarios.store import (
    CompactionReport,
    RunMeta,
    StoreBackend,
    StoredRun,
    StoreRecord,
    open_store,
)
from repro.service.reliability import FaultInjector

__all__ = ["ChaosStore"]

#: Query keys the chaos layer owns; a trailing query with any other key is
#: part of the inner spec (e.g. sqlite's ``ttl``/``max_rows``).
_FAULT_KINDS = ("append", "load")
_CHAOS_KEYS = frozenset(
    {"seed", "slow_ms"}
    | {f"{kind}_fail" for kind in _FAULT_KINDS}
    | {f"{kind}_fail_skip" for kind in _FAULT_KINDS}
    | {f"{kind}_fail_max" for kind in _FAULT_KINDS}
)


def _split_chaos_spec(location: str) -> tuple[str, list[tuple[str, str]]]:
    """Split ``<inner-spec>[?chaos-params]`` on the *last* ``?`` — and only
    when every key in that query is a chaos option."""
    inner, sep, query = location.rpartition("?")
    if not sep:
        return location, []
    params = parse_qsl(query, keep_blank_values=True)
    if params and all(key in _CHAOS_KEYS for key, _ in params):
        return inner, params
    return location, []


class ChaosStore(StoreBackend):
    """A :class:`FaultInjector`-wrapped view of any other store backend."""

    name = "chaos"

    def __init__(
        self, inner: "StoreBackend | str", injector: FaultInjector | None = None
    ) -> None:
        self.inner = open_store(inner)
        if isinstance(self.inner, ChaosStore):
            raise ValueError("chaos stores do not nest")
        self.injector = injector if injector is not None else FaultInjector()

    @classmethod
    def from_spec(cls, location: str) -> "ChaosStore":
        inner_spec, params = _split_chaos_spec(location)
        if not inner_spec:
            raise ValueError(f"chaos spec {location!r} names no inner store")
        seed = 0
        rates: dict[str, float] = {}
        skips: dict[str, int] = {}
        caps: dict[str, int] = {}
        delays: dict[str, float] = {}
        for key, value in params:
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "slow_ms":
                    delays["slow"] = float(value) / 1000.0
                elif key.endswith("_fail_skip"):
                    skips[key.removesuffix("_fail_skip")] = int(value)
                elif key.endswith("_fail_max"):
                    caps[key.removesuffix("_fail_max")] = int(value)
                elif key.endswith("_fail"):
                    rates[key.removesuffix("_fail")] = float(value)
            except ValueError as error:
                raise ValueError(f"bad chaos option {key}={value!r}: {error}") from None
        injector = FaultInjector(
            seed=seed, rates=rates, skips=skips, caps=caps, delays=delays
        )
        return cls(open_store(inner_spec), injector)

    def describe(self) -> str:
        return f"{self.name}:{self.inner.describe()}?{self.injector.spec_params()}"

    # ------------------------------------------------------- injected paths
    def append(self, scenario: Scenario, runs: Sequence[StoredRun]) -> None:
        self.injector.maybe_delay("slow")
        self.injector.maybe_fail("append", "injected store-append failure")
        self.inner.append(scenario, runs)

    def load(self, scenario: Scenario) -> dict[int, StoredRun]:
        self.injector.maybe_delay("slow")
        self.injector.maybe_fail("load", "injected store-load failure")
        return self.inner.load(scenario)

    # ------------------------------------------------------ clean delegates
    def run_index(self, scenario: Scenario) -> dict[int, RunMeta]:
        return self.inner.run_index(scenario)

    def cached_count(self, scenario: Scenario) -> int:
        return self.inner.cached_count(scenario)

    def cached_counts(self, scenarios: Sequence[Scenario]) -> list[int]:
        return self.inner.cached_counts(scenarios)

    def scenarios_on_record(self) -> list[Scenario]:
        return self.inner.scenarios_on_record()

    def scenario_for_hash(self, content_hash: str) -> Scenario | None:
        return self.inner.scenario_for_hash(content_hash)

    def compact(self) -> CompactionReport:
        return self.inner.compact()

    def summaries(self) -> list[StoreRecord]:
        return self.inner.summaries()

    def close(self) -> None:
        self.inner.close()

    def sidecar(self, name: str) -> Path | None:
        # The journal and trace log sit beside the inner store's data, never
        # chaos-wrapped: they are the recovery mechanism under test.
        return self.inner.sidecar(name)
