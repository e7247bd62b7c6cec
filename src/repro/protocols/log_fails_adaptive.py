"""Log-fails Adaptive — reconstruction of the protocol of reference [7].

The paper's evaluation compares its two new protocols against **Log-fails
Adaptive**, the authors' earlier k-selection protocol (Fernández Anta &
Mosteiro, *Contention resolution in multiple-access channels: k-selection in
radio networks*, Discrete Mathematics, Algorithms and Applications 2(4),
2010).  The full pseudocode of that protocol is published in [7], which is not
available to this reproduction; the class below is therefore a **documented
reconstruction** assembled from everything the present paper states about it:

* it is composed of two interleaved randomized rules, like One-fail Adaptive
  (Section 3, first paragraph);
* its *BT* rule transmits with a **fixed** inverse-logarithmic probability
  (whereas One-fail Adaptive uses ``1/(1+log₂(σ+1))``);
* its *AT* rule transmits with probability ``1/κ̃`` where the density
  estimator ``κ̃`` is updated only "after some steps without communication"
  (whereas One-fail Adaptive updates it continuously — after every single
  step, hence the names *Log-fails* vs *One-fail*);
* it requires ``ε ≤ 1/(n+1)``, i.e. an upper bound on the number of
  contenders, to guarantee its running time of ``(e + 1 + ξ)k + O(log²(1/ε))``
  steps with probability at least ``1 − 2ε``, where ``ξ > 0`` is an
  arbitrarily small constant;
* the evaluation uses ``ξδ = ξβ = 0.1``, ``ε ≈ 1/(k+1)`` and
  ``ξt ∈ {1/2, 1/10}``, and reports asymptotic steps/k ratios of 7.8 and 4.4
  respectively — consistent with a fraction ``ξt`` of the schedule being spent
  on the BT rule, i.e. an overall constant of ``(e + 1 + ξδ + ξβ)/(1 − ξt)``.

Reconstruction choices (kept as close to the above as possible):

* **Schedule.**  A deterministic fraction ``ξt`` of the communication steps
  are BT steps (step ``s`` is a BT step iff ``⌊s·ξt⌋ > ⌊(s−1)·ξt⌋``); the rest
  are AT steps.
* **BT rule.**  Transmit with the fixed probability ``1/(1 + log₂(1/ε))``
  (ε enters here: the rule is sized for a residual of Θ(log(1/ε)) ≥ Θ(log n)
  messages).
* **AT rule.**  Transmit with probability ``1/κ̃``.  The estimator starts at
  1 and decreases by ``1 + ξδ`` on every observed delivery.  The "log fails"
  mechanism is the only other update: after every
  ``⌈(1 + log₂(1/ε))(1 + ξβ)⌉`` consecutive steps without a reception the
  estimator takes one step of an **alternating exponential search** around the
  value it had when the silent stretch began — ``×2, ÷2, ×4, ÷4, ×8, …`` —
  because without collision detection the station cannot tell whether the
  stretch means too much contention (it should raise the estimate) or too
  little (it should lower it).  The explored factor is capped at the known
  contention bound (``2/ε``); an exhausted sweep starts over from the same
  anchor.  The search finds the right order of magnitude
  within ``O(log k)`` corrections, so ramping the estimator from 1 up to the
  actual contention k costs ``Θ(log(1/ε)·log k) = O(log²(1/ε))`` steps — the
  additive term of the published bound.  The coarseness of this block-wise
  correction (it needs a full logarithmic streak of failures before reacting,
  and then jumps by factors of two) is exactly what One-fail Adaptive removes
  by adjusting the estimate after every single step.

What the reconstruction reproduces (and what it does not): it preserves the
qualitative comparison drawn in Section 5 — Log-fails Adaptive needs knowledge
of ε, is noticeably worse and far less predictable than the paper's protocols
for small to moderate k, and converges towards its analytical constant for
large k.  The *extreme* ratios reported in Table 1 for k = 10²–10³ (which
depend on internal constants of [7] we cannot recover, and on the heavy tail
of 10-run averages) are not matched quantitatively; EXPERIMENTS.md reports the
measured values side by side with the paper's.
"""

from __future__ import annotations

import math
from typing import ClassVar

from repro.channel.model import Observation
from repro.core.constants import LFA_XI_BETA_DEFAULT, LFA_XI_DELTA_DEFAULT
from repro.protocols.base import FairProtocol
from repro.util.validation import check_in_range

__all__ = ["LogFailsAdaptive"]


class LogFailsAdaptive(FairProtocol):
    """Reconstruction of Log-fails Adaptive (reference [7] of the paper).

    Parameters
    ----------
    epsilon:
        Error-probability parameter; must satisfy ``ε ≤ 1/(n+1)`` for the
        published guarantee, which is why the protocol is said to require
        knowledge of (an upper bound on) the number of contenders.  The
        paper's evaluation uses ``ε ≈ 1/(k+1)``.
    xi_t:
        Fraction of the communication steps devoted to the BT (fixed
        probability) rule.  The paper's evaluation uses 1/2 and 1/10.
    xi_delta, xi_beta:
        Small slack constants (0.1 in the paper's evaluation).  ``xi_delta``
        inflates the per-delivery decrement of the density estimator;
        ``xi_beta`` inflates the length of the failure streak that triggers
        the coarse upward correction.
    """

    name: ClassVar[str] = "log-fails-adaptive"
    label: ClassVar[str] = "Log-Fails Adaptive"
    requires_knowledge: ClassVar[frozenset[str]] = frozenset({"epsilon"})

    def __init__(
        self,
        epsilon: float,
        xi_t: float = 0.5,
        xi_delta: float = LFA_XI_DELTA_DEFAULT,
        xi_beta: float = LFA_XI_BETA_DEFAULT,
    ) -> None:
        self.epsilon = check_in_range(
            "epsilon", epsilon, 0.0, 1.0, low_inclusive=False, high_inclusive=False
        )
        self.xi_t = check_in_range(
            "xi_t", xi_t, 0.0, 1.0, low_inclusive=False, high_inclusive=False
        )
        self.xi_delta = check_in_range("xi_delta", xi_delta, 0.0, 1.0, low_inclusive=False)
        self.xi_beta = check_in_range("xi_beta", xi_beta, 0.0, 1.0, low_inclusive=False)
        self.reset()

    @classmethod
    def for_k(
        cls,
        k: int,
        xi_t: float = 0.5,
        xi_delta: float = LFA_XI_DELTA_DEFAULT,
        xi_beta: float = LFA_XI_BETA_DEFAULT,
    ) -> "LogFailsAdaptive":
        """Instantiate with the evaluation's choice ``ε = 1/(k+1)``."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        return cls(epsilon=1.0 / (k + 1.0), xi_t=xi_t, xi_delta=xi_delta, xi_beta=xi_beta)

    @classmethod
    def from_spec(cls, k: int, **params: object) -> "LogFailsAdaptive":
        """Spec-string hook: default ``ε = 1/(k+1)`` unless given explicitly."""
        if "epsilon" in params:
            return cls(**params)  # type: ignore[arg-type]
        return cls.for_k(k, **params)  # type: ignore[arg-type]

    # ----------------------------------------------------------------- state
    def reset(self) -> None:
        # The AT estimator starts at 1 and is ramped up/corrected by the
        # coarse block-wise exponential search; see the module docstring.
        self._kappa_estimate = 1.0
        self._consecutive_failures = 0
        # Exponential-search state: value of the estimator when the current
        # silent stretch started, and how many corrections it has triggered.
        self._search_anchor = 1.0
        self._search_index = 0

    # ------------------------------------------------------------ inspection
    @property
    def density_estimate(self) -> float:
        """Current value of the density estimator ``κ̃``."""
        return self._kappa_estimate

    @property
    def failure_streak(self) -> int:
        """Number of consecutive steps without an observed delivery."""
        return self._consecutive_failures

    @property
    def search_index(self) -> int:
        """Number of coarse corrections since the last observed delivery."""
        return self._search_index

    @property
    def bt_probability(self) -> float:
        """The fixed transmission probability of the BT rule."""
        return 1.0 / (1.0 + math.log2(1.0 / self.epsilon))

    @property
    def failure_threshold(self) -> int:
        """Length of the failure streak that triggers the coarse correction.

        ``⌈(1 + log₂(1/ε)) · (1 + ξβ)⌉`` — logarithmic in ``1/ε``, hence the
        protocol's name.
        """
        return int(math.ceil((1.0 + math.log2(1.0 / self.epsilon)) * (1.0 + self.xi_beta)))

    @property
    def max_search_exponent(self) -> int:
        """Largest power of two explored by the coarse correction: ``⌈log₂(1/ε)⌉ + 1``.

        ``1/ε ≥ n + 1`` bounds the possible contention, so the estimator never
        needs to exceed ``2/ε``; this is the second place where knowledge of ε
        enters the protocol.
        """
        return int(math.ceil(math.log2(1.0 / self.epsilon))) + 1

    def is_bt_step(self, slot: int) -> bool:
        """Whether slot ``slot`` (0-based) is a BT step.

        A deterministic ``ξt`` fraction of steps are BT steps: step ``s``
        (1-based) is a BT step iff ``⌊s·ξt⌋ > ⌊(s−1)·ξt⌋``.  For ``ξt = 1/2``
        this is exactly the even steps, matching One-fail Adaptive's
        interleaving.
        """
        step = slot + 1
        return math.floor(step * self.xi_t) > math.floor((step - 1) * self.xi_t)

    # ---------------------------------------------------------- transmission
    def transmission_probability(self, slot: int) -> float:
        if self.is_bt_step(slot):
            return self.bt_probability
        return min(1.0, 1.0 / self._kappa_estimate)

    # -------------------------------------------------------------- feedback
    def notify(self, observation: Observation) -> None:
        if observation.received:
            # A delivery: the density went down by one, so the estimate
            # follows (with the ξδ slack), and the exponential search resets
            # around the corrected value.
            self._consecutive_failures = 0
            self._kappa_estimate = max(self._kappa_estimate - 1.0 - self.xi_delta, 1.0)
            self._search_anchor = self._kappa_estimate
            self._search_index = 0
            return
        if observation.delivered:
            # Own message delivered; the node stops, state no longer matters.
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            # A logarithmic stretch of steps without any communication: take
            # the next step of the alternating exponential search around the
            # estimate held when the stretch began (x2, /2, x4, /4, x8, ...).
            # The explored exponent is bounded by the known contention bound
            # 1/epsilon (the estimate never needs to exceed ~2/epsilon >= 2n);
            # when a sweep exhausts that range without finding a productive
            # estimate, the search starts a new sweep from the same anchor.
            self._consecutive_failures = 0
            self._search_index += 1
            exponent = (self._search_index + 1) // 2
            if exponent > self.max_search_exponent:
                self._search_index = 1
                exponent = 1
            magnitude = 2.0**exponent
            if self._search_index % 2 == 1:
                candidate = self._search_anchor * magnitude
            else:
                candidate = self._search_anchor / magnitude
            self._kappa_estimate = max(candidate, 1.0)
