"""The monotone windowed back-off family of Bender et al. (SPAA 2005).

Reference [2] of the paper analyses *monotone* back-off strategies for batched
arrivals on a multiple-access channel: the stations move through a fixed,
non-decreasing sequence of contention windows ``w₁, w₂, …`` and transmit in
one uniformly random slot of each window until their message gets through.
With a batch arrival all stations traverse the same windows in lockstep, so
each window is a balls-in-bins experiment — exactly the structure exploited by
:class:`~repro.engine.window_engine.WindowEngine`.

The family members implemented here, with the makespans proved in [2]:

=======================  ===========================================  ==========================================
Protocol                 Window schedule                               Makespan (batch of k, w.h.p.)
=======================  ===========================================  ==========================================
r-exponential back-off   ``w_i = r^i``                                 ``Θ(k · loglog_r k)``
r-polynomial back-off    ``w_i = i^r``                                 polynomial, superlinear in k
log back-off             ``w_{i+1} = w_i (1 + 1/lg w_i)``              ``Θ(k · lg k / lglg k)``
loglog-iterated back-off ``w_{i+1} = w_i (1 + 1/lglg w_i)``            ``Θ(k · lglg k / lglglg k)``
=======================  ===========================================  ==========================================

The paper's evaluation (Section 5) uses loglog-iterated back-off with
``r = 2`` — the best monotone strategy of [2] and the only one of the family
that appears in Figure 1 / Table 1.  The exact pseudocode of [2] is not
reproduced in the paper; the schedules above are reconstructions from the
published growth rates (see DESIGN.md), seeded at ``w₁ = r`` and rounded up to
integers.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Iterator
from typing import ClassVar

from repro.core.constants import LLIB_R_DEFAULT
from repro.protocols.base import WindowedProtocol, register_protocol
from repro.util.validation import check_positive

__all__ = [
    "WindowBackoffProtocol",
    "ExponentialBackoff",
    "PolynomialBackoff",
    "LogBackoff",
    "LogLogIteratedBackoff",
]


class WindowBackoffProtocol(WindowedProtocol):
    """Base class for monotone windowed back-off protocols.

    Subclasses implement :meth:`window_sequence`, a generator of real-valued
    window sizes; this base class rounds them up to integers, enforces
    monotonicity (the defining property of the family) and caps the growth at
    ``max_window`` as a safety net for runaway schedules.
    """

    #: Safety cap on a single window length (2^40 slots ≈ 10^12).
    max_window: ClassVar[float] = float(2**40)

    @abc.abstractmethod
    def window_sequence(self) -> Iterator[float]:
        """Yield the (real-valued, non-decreasing) window sizes."""

    def fused_schedule_key(self) -> tuple:
        """Every member of the family is defined by a fixed window sequence —
        a pure function of the round index and the public parameters, never
        of channel feedback (that is what *monotone back-off* means in [2]) —
        so replications may traverse one shared iterator in lockstep."""
        parameters = self.describe()["parameters"]
        return (self.name, tuple(sorted(parameters.items())))  # type: ignore[union-attr]

    def window_lengths(self) -> Iterator[int]:
        previous = 0
        for size in self.window_sequence():
            if size > self.max_window:
                raise RuntimeError(
                    f"{type(self).__name__}: window grew beyond the safety cap "
                    f"({size:.3g} > {self.max_window:.3g})"
                )
            if size < 1.0:
                raise ValueError(f"{type(self).__name__}: window length {size} < 1")
            length = int(math.ceil(size))
            if length < previous:
                raise RuntimeError(
                    f"{type(self).__name__}: monotone back-off schedule decreased "
                    f"from {previous} to {length}"
                )
            previous = length
            yield length


@register_protocol
class ExponentialBackoff(WindowBackoffProtocol):
    """r-exponential back-off: window ``r^i`` in round ``i``.

    The classical strategy (binary exponential back-off for ``r = 2``), shown
    in [2] to have makespan ``Θ(k loglog_r k)`` for a batch of ``k`` — slightly
    superlinear, which is why the paper's protocols beat it.
    """

    name: ClassVar[str] = "exponential-backoff"
    label: ClassVar[str] = "Exponential Back-off"

    def __init__(self, r: float = 2.0) -> None:
        self.r = check_positive("r", r)
        if self.r <= 1.0:
            raise ValueError(f"r must be > 1 for the window to grow, got {r}")
        self.reset()

    def window_sequence(self) -> Iterator[float]:
        size = self.r
        while True:
            yield size
            size *= self.r


@register_protocol
class PolynomialBackoff(WindowBackoffProtocol):
    """r-polynomial back-off: window ``i^r`` in round ``i`` (``r > 1``)."""

    name: ClassVar[str] = "polynomial-backoff"
    label: ClassVar[str] = "Polynomial Back-off"

    def __init__(self, r: float = 2.0) -> None:
        self.r = check_positive("r", r)
        if self.r <= 1.0:
            raise ValueError(f"r must be > 1 for the analysis of [2] to apply, got {r}")
        self.reset()

    def window_sequence(self) -> Iterator[float]:
        index = 1
        while True:
            yield float(index) ** self.r
            index += 1


class _GrowthFactorBackoff(WindowBackoffProtocol):
    """Common machinery for back-offs defined by a size-dependent growth factor."""

    def __init__(self, r: float = float(LLIB_R_DEFAULT)) -> None:
        self.r = check_positive("r", r)
        if self.r <= 1.0:
            raise ValueError(f"the seed window r must be > 1, got {r}")
        self.reset()

    @abc.abstractmethod
    def growth_denominator(self, size: float) -> float:
        """Return ``f(w)`` such that the next window is ``w · (1 + 1/f(w))``."""

    def window_sequence(self) -> Iterator[float]:
        size = self.r
        while True:
            yield size
            denominator = max(self.growth_denominator(size), 1.0)
            size *= 1.0 + 1.0 / denominator


@register_protocol
class LogBackoff(_GrowthFactorBackoff):
    """Log back-off: the window grows by the factor ``1 + 1/lg w``."""

    name: ClassVar[str] = "log-backoff"
    label: ClassVar[str] = "Log Back-off"

    def growth_denominator(self, size: float) -> float:
        return math.log2(size) if size > 2.0 else 1.0


@register_protocol
class LogLogIteratedBackoff(_GrowthFactorBackoff):
    """Loglog-iterated back-off: the window grows by the factor ``1 + 1/lglg w``.

    The best monotone strategy of [2], with makespan
    ``Θ(k · lglg k / lglglg k)`` w.h.p., and the monotone baseline the paper
    simulates (with ``r = 2``).  Because the growth rate is so close to 1 for
    the window sizes reachable in practice, its empirical steps/k ratio looks
    constant (≈ 10 in Table 1) even though it is asymptotically unbounded.
    """

    name: ClassVar[str] = "loglog-iterated-backoff"
    label: ClassVar[str] = "Loglog-Iterated Backoff"

    def growth_denominator(self, size: float) -> float:
        log_size = math.log2(size)
        if log_size <= 2.0:
            return 1.0
        return math.log2(log_size)
