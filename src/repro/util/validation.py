"""Parameter-validation helpers shared by protocols and experiment configs.

Protocols in this repository validate their parameters eagerly at construction
time so that an invalid configuration (a probability outside (0, 1], a
non-positive network size, a delta outside the range admitted by the paper's
theorems) fails with a clear message instead of silently producing meaningless
simulation results.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "check_in_range",
    "check_max_slots",
    "check_positive",
    "check_positive_int",
    "check_probability",
]


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number strictly greater than zero."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def check_positive_int(name: str, value: int) -> int:
    """Return ``value`` if it is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


#: The largest slot cap: the compiled engines keep run state in int64.
_MAX_SLOTS_LIMIT = 2**63 - 1


def check_max_slots(max_slots: object) -> int:
    """Return an engine's slot cap, given or its default, as an ``int`` >= 1.

    Any integer type passes (``operator.index``: numpy integers too);
    ``bool``, floats and everything else raise ``TypeError``, and caps below
    1 or beyond int64 raise ``ValueError``.
    """
    if isinstance(max_slots, bool):
        raise TypeError("max_slots must be an int, got bool")
    try:
        cap = operator.index(max_slots)
    except TypeError:
        raise TypeError(f"max_slots must be an int, got {type(max_slots).__name__}") from None
    if not 1 <= cap <= _MAX_SLOTS_LIMIT:
        raise ValueError(f"max_slots must lie in [1, 2**63 - 1], got {cap}")
    return cap


def check_probability(name: str, value: float, allow_zero: bool = False) -> float:
    """Return ``value`` if it is a valid probability.

    Probabilities must lie in ``(0, 1]`` (or ``[0, 1]`` when ``allow_zero``),
    which matches how transmission probabilities are used by the channel: a
    probability of exactly 1 is legal (the node transmits for sure), a
    probability above 1 is a bug.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    lower_ok = value >= 0 if allow_zero else value > 0
    if not lower_ok or value > 1:
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must be a probability in {bound}, got {value!r}")
    return float(value)


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Return ``value`` if it lies in the requested interval.

    Used for the admissible ranges stated by the paper's theorems, e.g.
    ``e < delta <= sum((5/6)**j for j in 1..5)`` for One-fail Adaptive and
    ``0 < delta < 1/e`` for Exp Back-on/Back-off.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    low_ok = value >= low if low_inclusive else value > low
    high_ok = value <= high if high_inclusive else value < high
    if not (low_ok and high_ok):
        left = "[" if low_inclusive else "("
        right = "]" if high_inclusive else ")"
        raise ValueError(f"{name} must lie in {left}{low}, {high}{right}, got {value!r}")
    return float(value)
