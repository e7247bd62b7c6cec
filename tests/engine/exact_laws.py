"""Exact makespan laws of the paper's static problem at small k, for tests.

Both reduced engines are exact by construction: a fair protocol's slot is one
``Binomial(m, p)`` draw, and a windowed protocol's window is the
balls-in-bins experiment of the paper's Lemma 1.  The laws here follow from
that model alone, with no engine loop in between, so a modelling bug that a
compiled loop and its Python port share still shows against them.

A law is an array ``law`` with ``law[t] = P(makespan = t)`` for
``1 <= t <= horizon``, ``law[0] = 0`` and ``law[horizon + 1] = P(makespan >
horizon)``, the "beyond" bin.  :func:`ks_distance` compares one with a
sample of makespans, of which an unsolved run (``None``) counts as beyond.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable

import numpy as np

from repro.channel.model import Observation
from repro.protocols.base import FairProtocol, WindowedProtocol

#: The asymptotic Kolmogorov bound for a false-alarm rate of 10⁻³: a sample
#: of n draws from the law lies within ``KS_BOUND / √n`` of its CDF with
#: probability at least 1 − 10⁻³; for a discrete law, more.
KS_BOUND = 1.949


def fair_law(protocol: FairProtocol, k: int, horizon: int) -> np.ndarray:
    """The makespan law of a fair protocol with ``k`` stations at slot 0.

    A dynamic programme over (slot, remaining, protocol state): the shared
    state comes from the protocol's own ``spawn()``, and each slot asks its
    ``transmission_probability`` and hands it ``notify`` on copies.  A slot
    with ``m`` stations left delivers with the Binomial probability
    ``m·p·(1 − p)^(m − 1)``; otherwise every station hears noise, as the
    paper's channel has no collision detection.  States of one ``remaining``
    whose ``vars()`` are equal are merged.
    """
    law = np.zeros(horizon + 2)
    live: dict[tuple, tuple[int, float, FairProtocol]] = {}
    _merge(live, k, 1.0, protocol.spawn())
    for slot in range(horizon):
        heard = Observation(slot=slot, transmitted=False, received=True, delivered=False)
        noise = Observation(slot=slot, transmitted=False, received=False, delivered=False)
        following: dict[tuple, tuple[int, float, FairProtocol]] = {}
        for remaining, mass, state in live.values():
            p = state.transmission_probability(slot)
            if p >= 1.0:
                success = 1.0 if remaining == 1 else 0.0
            elif p <= 0.0:
                success = 0.0
            else:
                success = remaining * p * (1.0 - p) ** (remaining - 1)
            if success > 0.0:
                if remaining == 1:
                    law[slot + 1] += mass * success
                else:
                    receiver = copy.copy(state)
                    receiver.notify(heard)
                    _merge(following, remaining - 1, mass * success, receiver)
            if success < 1.0:
                state.notify(noise)
                _merge(following, remaining, mass * (1.0 - success), state)
        live = following
    law[-1] = sum(mass for _, mass, _ in live.values())
    return law


def _merge(
    states: dict[tuple, tuple[int, float, FairProtocol]],
    remaining: int,
    mass: float,
    state: FairProtocol,
) -> None:
    key = (remaining, *sorted(vars(state).items()))
    held = states.get(key)
    states[key] = (remaining, mass + held[1], held[2]) if held else (remaining, mass, state)


def window_law(protocol: WindowedProtocol, k: int, horizon: int) -> np.ndarray:
    """The makespan law of a windowed protocol with ``k <= 2`` stations at slot 0.

    From the protocol's ``window_lengths()`` alone: one ball in ``w`` bins
    lands in each slot with probability ``1/w``; two balls collide with
    probability ``1/w`` and both try again in the next window, and otherwise
    both deliver, the later one in slot ``j`` (0-based) of the window with
    probability ``2j/w²``.
    """
    if k not in (1, 2):
        raise ValueError(f"the window law is derived for k <= 2, got k={k}")
    law = np.zeros(horizon + 2)
    alive, start = 1.0, 0
    for length in protocol.spawn().window_lengths():
        if start >= horizon or alive == 0.0:
            break
        slots = np.arange(min(length, horizon - start), dtype=float)
        if k == 1:
            law[start + 1 : start + 1 + slots.size] += alive / length
            alive = 0.0
        else:
            law[start + 1 : start + 1 + slots.size] += alive * 2.0 * slots / length**2
            alive /= length
        start += length
    law[-1] = max(1.0 - law[:-1].sum(), 0.0)
    return law


def ks_distance(law: np.ndarray, makespans: Iterable[int | None]) -> float:
    """The largest gap between the law's CDF and the sample's empirical CDF."""
    beyond = law.size - 1
    sample = np.asarray(
        [beyond if makespan is None or makespan >= beyond else makespan for makespan in makespans]
    )
    empirical = np.cumsum(np.bincount(sample, minlength=law.size)) / sample.size
    return float(np.max(np.abs(empirical - np.cumsum(law))))


def ks_limit(runs: int) -> float:
    """The largest KS distance a sample of ``runs`` draws may show at α = 10⁻³."""
    return KS_BOUND / math.sqrt(runs)
