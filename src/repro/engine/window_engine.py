"""Vectorised balls-in-bins engine for windowed protocols.

A :class:`~repro.protocols.base.WindowedProtocol` commits every active station
to one uniformly random slot of each contention window.  With batched arrivals
every station follows the same window schedule, so a window of ``w`` slots
with ``m`` active stations is exactly the balls-in-bins experiment of the
paper's Lemma 1: ``m`` balls dropped uniformly into ``w`` bins, and a station
is delivered iff its bin (slot) holds exactly one ball.

The engine therefore processes a whole window in a handful of numpy
operations, which makes runs with k = 10⁷ — the right edge of the paper's
Figure 1 — take seconds instead of hours.  How a window's occupancy is
sampled depends on its saturation ``m/w`` (balls per bin):

* saturated windows (see :data:`_SATURATED_BOUND`) emit the all-collisions
  outcome with no random draws at all — the long descending tails of every
  back-off sawtooth;
* narrow windows (``w·_MULTINOMIAL_RATIO < m``) sample the bin counts from
  the multinomial distribution (O(w) binomial draws);
* wide windows (``w ~ m``, where the deliveries happen) throw every ball
  explicitly — one bounded draw per ball in the narrowest sufficient dtype,
  then one ``bincount``.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from repro.channel.model import ChannelModel, SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.engine.registry import EngineCapabilities, check_engine_channel, register_engine
from repro.engine.result import SimulationResult
from repro.obs import REGISTRY
from repro.protocols.base import WindowedProtocol
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int

__all__ = ["WindowEngine"]

#: Which sampler produced each window's occupancy: ``saturated`` windows are
#: emitted without any draws, ``multinomial`` ones are sampled bin-wise, and
#: ``ball-throw`` windows materialise every ball.  Counts one per window, but
#: is incremented once per run and mode, never per window.
_M_OCCUPANCY = REGISTRY.counter(
    "repro_window_occupancy_total",
    "Contention windows simulated by the window engine, by occupancy-sampling mode.",
    ("mode",),
)
_OCCUPANCY_MODES = ("saturated", "multinomial", "ball-throw")

#: Threshold under which a window is all-collisions "for sure": a window is
#: *saturated* when the exact union bound ``P(any bin holds <= 1 ball) <=
#: w [(1-1/w)^m + (m/w)(1-1/w)^{m-1}]`` evaluates below this — one power of
#: two under ``2^{-53}``, so even with the bound's own float rounding the
#: event probability is beneath the resolution of the double-precision
#: uniforms every sampler consumes, and emitting the certain all-collisions
#: outcome is indistinguishable from sampling it.
_SATURATED_BOUND = 2.0**-54

#: Saturation ratio above which sampling the occupancy directly from the
#: multinomial distribution (O(w) binomial draws) is cheaper than throwing
#: the ``m`` balls explicitly (O(m) uniform draws).  Below the ratio the
#: binomial sampler degrades to O(m/w) per bin anyway, so balls win.
_MULTINOMIAL_RATIO = 22

_UINT16_MAX = int(np.iinfo(np.uint16).max)
_UINT32_MAX = int(np.iinfo(np.uint32).max)


def _saturated(length: int, balls: int) -> bool:
    """Whether every bin surely holds >= 2 balls (see :data:`_SATURATED_BOUND`).

    ``length == 1`` with ``balls >= 2`` is the degenerate certain collision.
    """
    if balls < 2 * length:  # deliveries plainly possible; skip the math
        return False
    if length == 1:
        return True
    log_keep_out = math.log1p(-1.0 / length)  # log P(one ball misses a bin)
    p_empty = math.exp(balls * log_keep_out)
    p_singleton = (balls / length) * math.exp((balls - 1) * log_keep_out)
    return length * (p_empty + p_singleton) < _SATURATED_BOUND


def _occupancy(rng: np.random.Generator, balls: int, length: int) -> tuple[str, np.ndarray]:
    """Sample one window's bin counts; returns the sampling mode and the counts."""
    if length * _MULTINOMIAL_RATIO < balls:
        return "multinomial", rng.multinomial(balls, np.full(length, 1.0 / length))
    if length <= _UINT16_MAX:
        dtype: type = np.uint16
    elif length <= _UINT32_MAX:
        dtype = np.uint32
    else:
        dtype = np.int64
    choices = rng.integers(0, length, size=balls, dtype=dtype)
    return "ball-throw", np.bincount(choices, minlength=length)


@register_engine
class WindowEngine:
    """Simulate a :class:`WindowedProtocol` one contention window at a time."""

    name = "window"

    #: Windowed protocols on the paper's channel, one balls-in-bins
    #: experiment per contention window; collects traces.
    capabilities = EngineCapabilities(
        protocol_kinds=frozenset({"windowed"}),
        traces=True,
        cost_rank=10,
    )

    #: Version of this engine's random stream (see
    #: ``FairEngine.stream_version``).  Version 2 samples each window with
    #: the adaptive occupancy samplers; version 1 threw every ball.
    stream_version: ClassVar[int] = 2

    def __init__(self, channel: ChannelModel | None = None, max_slots_factor: int = 10_000) -> None:
        self.channel = check_engine_channel(type(self), channel)
        self.max_slots_factor = check_positive_int("max_slots_factor", max_slots_factor)

    def simulate(
        self,
        protocol: WindowedProtocol,
        k: int,
        seed: int = 0,
        max_slots: int | None = None,
        trace: ExecutionTrace | None = None,
    ) -> SimulationResult:
        """Run one batched (static) k-selection instance.

        A traced run takes the same draws as an untraced one: a saturated
        window is recorded slot by slot as collisions with ``transmitters=2``,
        the stand-in :class:`~repro.engine.fair_engine.FairEngine` uses too.
        """
        check_positive_int("k", k)
        if not isinstance(protocol, WindowedProtocol):
            raise TypeError(
                f"WindowEngine requires a WindowedProtocol, got {type(protocol).__name__}"
            )

        schedule = protocol.spawn().window_lengths()
        rng = RandomSource(seed=seed).generator
        cap = max_slots if max_slots is not None else self.max_slots_factor * k
        modes = dict.fromkeys(_OCCUPANCY_MODES, 0)

        remaining = k
        window_start = 0
        windows_processed = 0
        successes = collisions = silences = 0

        while remaining > 0 and window_start < cap:
            try:
                length = int(next(schedule))
            except StopIteration as error:
                raise RuntimeError(
                    f"{type(protocol).__name__}: window schedule exhausted with "
                    f"{remaining} messages left"
                ) from error
            if length < 1:
                raise ValueError(f"window length must be >= 1, got {length}")
            windows_processed += 1

            if _saturated(length, remaining):
                modes["saturated"] += 1
                collisions += length
                if trace is not None:
                    for offset in range(length):
                        trace.append(
                            SlotRecord(
                                slot=window_start + offset,
                                transmitters=2,
                                outcome=SlotOutcome.COLLISION,
                                active_before=remaining,
                            )
                        )
                window_start += length
                continue

            # Balls-in-bins: each of the `remaining` stations picks one slot
            # of the window; slots hit exactly once deliver their message.
            mode, occupancy = _occupancy(rng, remaining, length)
            modes[mode] += 1
            silent, delivered = np.bincount(occupancy, minlength=2)[:2].tolist()

            # The node-level engine stops at the slot of the final delivery;
            # when this window solves the instance, truncate the trailing
            # slots so counters and traces agree with it.
            if delivered == remaining:
                occupancy = occupancy[: int(np.flatnonzero(occupancy == 1)[-1]) + 1]
                silent = int(np.count_nonzero(occupancy == 0))
            simulated_length = int(occupancy.size)

            successes += delivered
            collisions += simulated_length - silent - delivered
            silences += silent

            if trace is not None:
                # Stations committed to their slots at the window start, but a
                # station that delivers becomes idle for the rest of the
                # window, so the active count decreases at every singleton.
                active = remaining
                for offset, count in enumerate(occupancy.tolist()):
                    outcome = (
                        SlotOutcome.SILENCE
                        if count == 0
                        else SlotOutcome.SUCCESS
                        if count == 1
                        else SlotOutcome.COLLISION
                    )
                    trace.append(
                        SlotRecord(
                            slot=window_start + offset,
                            transmitters=count,
                            outcome=outcome,
                            active_before=active,
                        )
                    )
                    if count == 1:
                        active -= 1

            remaining -= delivered
            window_start += simulated_length

        for mode, count in modes.items():
            if count:
                _M_OCCUPANCY.labels(mode=mode).inc(count)
        solved = remaining == 0
        return SimulationResult(
            solved=solved,
            # A solving window is truncated at its final delivery, so the
            # run ends exactly at the makespan.
            makespan=window_start if solved else None,
            k=k,
            slots_simulated=window_start,
            successes=successes,
            collisions=collisions,
            silences=silences,
            protocol=protocol.name,
            engine=self.name,
            seed=seed,
            metadata={"windows": windows_processed, "stream_version": self.stream_version},
        )
