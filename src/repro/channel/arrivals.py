"""Message-arrival processes.

Static k-selection — the problem the paper analyses and simulates — assumes
*batched* arrivals: all k messages arrive simultaneously at slot 0
(:class:`BatchArrival`).  The paper's conclusions single out the *dynamic*
version of the problem, where messages arrive over time under statistical or
adversarial processes, as the main open direction; :class:`PoissonArrival` and
:class:`BurstyArrival` implement the two canonical instances of that setting
so the protocols can also be exercised beyond the paper's experiments (see
``examples/dynamic_arrivals.py`` and ``benchmarks/bench_dynamic.py``).  Spec
strings name the three through the closed table
:data:`repro.scenarios.spec.ARRIVALS`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "ArrivalEvent",
    "ArrivalProcess",
    "BatchArrival",
    "PoissonArrival",
    "BurstyArrival",
]


@dataclass(frozen=True)
class ArrivalEvent:
    """One message arrival: ``count`` messages arrive at ``slot``."""

    slot: int
    count: int

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError(f"slot must be non-negative, got {self.slot}")
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")


class ArrivalProcess(abc.ABC):
    """Generates the arrival schedule for one simulation run."""

    @classmethod
    def from_spec(cls, k: int, **params: object) -> "ArrivalProcess":
        """Instantiate from spec-string parameters for ``k`` total messages.

        The default forwards ``k`` plus the parameters to the constructor;
        processes whose constructor does not take a plain ``k`` (bursty
        arrivals) override this to derive their shape from ``k``.
        """
        return cls(k=k, **params)  # type: ignore[call-arg]

    @abc.abstractmethod
    def events(self, rng: np.random.Generator) -> list[ArrivalEvent]:
        """Return the (finite) list of arrival events, ordered by slot."""

    @property
    @abc.abstractmethod
    def total_messages(self) -> int:
        """Total number of messages the process will inject (its ``k``)."""

    def describe(self) -> dict[str, object]:
        """JSON-friendly description, used by experiment metadata."""
        params = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and isinstance(value, (int, float, str, bool))
        }
        return {"type": type(self).__name__, "parameters": params}


class BatchArrival(ArrivalProcess):
    """All ``k`` messages arrive simultaneously at slot 0 (static k-selection)."""

    def __init__(self, k: int) -> None:
        self.k = check_positive_int("k", k)

    def events(self, rng: np.random.Generator) -> list[ArrivalEvent]:
        return [ArrivalEvent(slot=0, count=self.k)]

    @property
    def total_messages(self) -> int:
        return self.k


class PoissonArrival(ArrivalProcess):
    """Messages arrive one by one, with independent exponential gaps.

    The process injects exactly ``k`` messages; the gap between consecutive
    arrivals is geometric with mean ``1/rate`` slots (the discrete-time
    analogue of a Poisson process with intensity ``rate`` messages per slot).
    The first message arrives at slot 0 so every run has work to do from the
    start.
    """

    def __init__(self, k: int, rate: float) -> None:
        self.k = check_positive_int("k", k)
        self.rate = check_positive("rate", rate)
        if self.rate > 1:
            raise ValueError(f"rate is per-slot and must be <= 1, got {rate}")

    def events(self, rng: np.random.Generator) -> list[ArrivalEvent]:
        events: list[ArrivalEvent] = [ArrivalEvent(slot=0, count=1)]
        slot = 0
        for _ in range(self.k - 1):
            gap = int(rng.geometric(self.rate))
            slot += max(gap, 1)
            events.append(ArrivalEvent(slot=slot, count=1))
        return events

    @property
    def total_messages(self) -> int:
        return self.k


class BurstyArrival(ArrivalProcess):
    """Adversarial-style bursts: ``burst_size`` messages every ``gap`` slots.

    This is the worst-case arrival pattern the paper's introduction cites as
    frequent in practice (batched/bursty traffic): contention arrives in
    lumps rather than smoothly.
    """

    @classmethod
    def from_spec(
        cls,
        k: int,
        bursts: int = 4,
        burst_size: int | None = None,
        gap: int | None = None,
    ) -> "BurstyArrival":
        """Derive the burst shape from ``k``: ``k`` split into ``bursts`` batches.

        ``burst_size`` defaults to ``k / bursts`` (``k`` must then be a
        positive multiple of ``bursts``); ``gap`` defaults to ``k`` slots.
        """
        if bursts < 1:
            raise ValueError(f"bursts must be positive, got {bursts}")
        if burst_size is None:
            burst_size, leftover = divmod(k, bursts)
            if burst_size < 1 or leftover:
                raise ValueError(f"k={k} must be a positive multiple of bursts={bursts}")
        return cls(bursts=bursts, burst_size=burst_size, gap=gap if gap is not None else k)

    def __init__(self, bursts: int, burst_size: int, gap: int) -> None:
        self.bursts = check_positive_int("bursts", bursts)
        self.burst_size = check_positive_int("burst_size", burst_size)
        self.gap = check_positive_int("gap", gap)

    def events(self, rng: np.random.Generator) -> list[ArrivalEvent]:
        return [
            ArrivalEvent(slot=index * self.gap, count=self.burst_size)
            for index in range(self.bursts)
        ]

    @property
    def total_messages(self) -> int:
        return self.bursts * self.burst_size
