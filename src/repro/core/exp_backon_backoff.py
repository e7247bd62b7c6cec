"""Exp Back-on/Back-off (Algorithm 2 of the paper).

The protocol is windowed: in every contention window each active station picks
one slot of the window uniformly at random and transmits only in that slot.
The window lengths follow the sawtooth schedule of Algorithm 2:

* **back-on** (outer loop): phase ``i = 1, 2, …`` starts with window size
  ``w = 2^i``;
* **back-off** (inner loop): while ``w ≥ 1`` the station uses a window of
  ``w`` slots and then shrinks it to ``w(1 − δ)``.

The intuition (Section 4 of the paper): when the window size is at least the
number of remaining messages, a constant fraction ``δ`` of them is delivered
per window with high probability (Lemma 1, a balls-in-bins argument); shrinking
the window geometrically keeps it matched to the shrinking contention, and the
doubling outer loop removes the need to know ``k``.

Theorem 2: for any constant ``0 < δ < 1/e``, the protocol solves static
k-selection within ``4(1 + 1/δ)k`` slots with probability at least
``1 − 1/k^c`` for big enough ``k``.  The paper's evaluation uses ``δ = 0.366``.

The paper treats window sizes as real numbers and notes that integrality "is
omitted for clarity"; this implementation rounds every window length up
(``ceil``), which can only enlarge windows and therefore never invalidates the
analysis' collision bounds.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import ClassVar

from repro.core.constants import EBB_DELTA_DEFAULT, EBB_DELTA_MAX
from repro.protocols.base import WindowedProtocol
from repro.util.validation import check_in_range

__all__ = ["ExpBackonBackoff"]


class ExpBackonBackoff(WindowedProtocol):
    """Algorithm 2 of the paper: the Exp Back-on/Back-off protocol.

    Parameters
    ----------
    delta:
        The back-off factor ``δ`` of Algorithm 2 (window shrinks by the factor
        ``1 − δ`` in the inner loop).  Theorem 2 admits ``0 < δ < 1/e``; the
        paper's evaluation uses 0.366 (the default).
    max_phase:
        Safety limit on the number of outer-loop phases generated by
        :meth:`window_lengths`.  Phase ``i`` starts at window size ``2^i``, so
        the default of 60 supports contention up to ``2^60`` messages — far
        beyond anything simulable — while keeping the schedule iterator finite
        for inspection and testing.
    enforce_theorem_range:
        When true (default), reject ``δ`` outside ``(0, 1/e)``; ablations set
        it to ``False``.
    """

    name: ClassVar[str] = "exp-backon-backoff"
    label: ClassVar[str] = "Exp Back-on/Back-off"
    requires_knowledge: ClassVar[frozenset[str]] = frozenset()

    def __init__(
        self,
        delta: float = EBB_DELTA_DEFAULT,
        max_phase: int = 60,
        enforce_theorem_range: bool = True,
    ) -> None:
        if enforce_theorem_range:
            self.delta = check_in_range(
                "delta",
                delta,
                0.0,
                EBB_DELTA_MAX,
                low_inclusive=False,
                high_inclusive=False,
            )
        else:
            if not 0.0 < delta < 1.0:
                raise ValueError(f"delta must lie in (0, 1), got {delta}")
            self.delta = float(delta)
        if max_phase < 1:
            raise ValueError(f"max_phase must be at least 1, got {max_phase}")
        self.max_phase = int(max_phase)
        self.enforce_theorem_range = enforce_theorem_range
        self.reset()

    # -------------------------------------------------------------- schedule
    def window_lengths(self) -> Iterator[int]:
        """Yield the sawtooth window schedule of Algorithm 2.

        Phase ``i`` (lines 1-2) starts at ``w = 2^i``; the inner loop
        (lines 3-5) emits a window of ``ceil(w)`` slots and shrinks ``w`` by
        the factor ``1 − δ`` while ``w ≥ 1``.
        """
        for phase in range(1, self.max_phase + 1):
            w = float(2**phase)
            while w >= 1.0:
                yield int(math.ceil(w))
                w *= 1.0 - self.delta

    def phase_of_window(self, window_index: int) -> int:
        """Return the outer-loop phase (1-based) of the ``window_index``-th window.

        Convenience used by tests and by the window engine's diagnostics;
        ``window_index`` is 0-based in schedule order.
        """
        if window_index < 0:
            raise ValueError(f"window_index must be non-negative, got {window_index}")
        count = 0
        for phase in range(1, self.max_phase + 1):
            rounds = self.rounds_in_phase(phase)
            if window_index < count + rounds:
                return phase
            count += rounds
        raise ValueError(f"window_index {window_index} beyond max_phase={self.max_phase}")

    def rounds_in_phase(self, phase: int) -> int:
        """Number of inner-loop rounds in outer-loop phase ``phase``.

        The inner loop runs while ``2^phase (1−δ)^j ≥ 1``, i.e. for
        ``j = 0 … floor(phase / log_{1/(1−δ)} 2)``; computed by direct
        iteration to avoid floating-point edge cases at the boundary.
        """
        if phase < 1:
            raise ValueError(f"phase must be >= 1, got {phase}")
        w = float(2**phase)
        rounds = 0
        while w >= 1.0:
            rounds += 1
            w *= 1.0 - self.delta
        return rounds
