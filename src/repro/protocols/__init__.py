"""Contention-resolution protocols: framework, baselines and related work.

The paper's own contributions (One-fail Adaptive and Exp Back-on/Back-off)
live in :mod:`repro.core`; this package provides the protocol framework they
are built on plus every protocol the paper compares against or discusses:

* :mod:`repro.protocols.base` — the :class:`Protocol`, :class:`FairProtocol`
  and :class:`WindowedProtocol` interfaces.
* :mod:`repro.protocols.log_fails_adaptive` — reconstruction of the
  Log-fails Adaptive protocol of Fernández Anta & Mosteiro (DMAA 2010),
  the paper's closest prior work (reference [7]).
* :mod:`repro.protocols.backoff` — the monotone windowed back-off family of
  Bender et al. (SPAA 2005): r-exponential, polynomial, log and
  loglog-iterated back-off (reference [2]).
* :mod:`repro.protocols.aloha` — slotted ALOHA with known k, the ``e·k``
  reference optimum mentioned in Section 5.
* :mod:`repro.protocols.splitting` — binary splitting / tree algorithm, the
  classical collision-detection baseline from the related-work section.

Spec strings name these protocols through the closed table
:data:`repro.scenarios.spec.PROTOCOLS`, which :func:`repro.build_protocol`
reads.
"""

from __future__ import annotations

from repro.protocols.base import FairProtocol, Protocol, WindowedProtocol
from repro.protocols.aloha import SlottedAloha
from repro.protocols.backoff import (
    ExponentialBackoff,
    LogBackoff,
    LogLogIteratedBackoff,
    PolynomialBackoff,
    WindowBackoffProtocol,
)
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.protocols.splitting import BinarySplitting

__all__ = [
    "Protocol",
    "FairProtocol",
    "WindowedProtocol",
    "SlottedAloha",
    "WindowBackoffProtocol",
    "ExponentialBackoff",
    "PolynomialBackoff",
    "LogBackoff",
    "LogLogIteratedBackoff",
    "LogFailsAdaptive",
    "BinarySplitting",
]
