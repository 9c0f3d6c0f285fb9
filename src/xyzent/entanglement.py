"""Exact separability verdicts and entanglement measures.

For a BellMixture the two separability inequalities are

    (12):  (v_minus/Delta) |p_2 - p_1|  <=  p_0 + p_3
    (03):  |p_3 - p_0|  <=  sqrt((p_1+p_2)^2 - (b/Delta)^2 (p_2-p_1)^2)

The state is entangled iff one of them is violated (never both), and its
concurrence equals the size of the violation.  The labels 12/03 name the
eigenstate pair the entanglement is attributed to when the corresponding
inequality breaks.  The general (any two-qubit density matrix) route via
the spin-flipped product spectrum is the oracle linalg.concurrence_general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .states import BellMixture

__all__ = [
    "SeparabilityReport",
    "PTSpectrum",
    "separability_exact",
    "exact_margins",
    "pt_spectrum",
    "entanglement_of_formation",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SeparabilityReport:
    """Signed margins (RHS - LHS, negative means violated) and verdict."""

    margin_12: float
    margin_03: float
    entangled: bool
    violated: str | None  # None | "12" | "03"
    concurrence: float


@dataclass(frozen=True)
class PTSpectrum:
    """Closed-form eigenvalues of the partial transpose."""

    q_0: float
    q_1: float
    q_2: float
    q_3: float

    @property
    def values(self) -> np.ndarray:
        return np.array([self.q_0, self.q_1, self.q_2, self.q_3])

    @property
    def minimum(self) -> float:
        return min(self.q_0, self.q_1, self.q_2, self.q_3)


def _exact_margin_rows(w, a1, a2, vm_r):
    """(margin_12, margin_03) of the mixture w / sum(w), times sum(w).

    w has shape (4, ...) and may be unnormalised; everything broadcasts
    over the trailing axes, vm_r included.

    a1, a2 are the amplitudes sqrt(w_1), sqrt(w_2).  The cross term is
    their product, never sqrt(w_1 w_2), so it survives where w_1 alone
    underflows.  Both margins are in cancellation-free form: the 03
    radicand (w1+w2)^2 - (b/Delta)^2 (w2-w1)^2 equals
    (v_minus/Delta)^2 (w2-w1)^2 + 4 w1 w2 identically, and the 12 margin
    groups the two dominant weights first so near-degenerate ground pairs
    cancel exactly instead of leaving O(eps) verdict noise.
    """
    hi = np.maximum(w[1], w[2])
    lo = np.minimum(w[1], w[2])
    big = np.maximum(w[0], w[3])
    small = np.minimum(w[0], w[3])
    margin_12 = (big - vm_r * hi) + small + vm_r * lo
    margin_03 = np.hypot(vm_r * (w[2] - w[1]), 2.0 * a1 * a2) - np.abs(w[3] - w[0])
    return margin_12, margin_03


def exact_margins(m: BellMixture) -> tuple[float, float]:
    """(margin_12, margin_03) for the mixture; negative means violated."""
    p = m.probs
    margin_12, margin_03 = _exact_margin_rows(p, math.sqrt(p[1]), math.sqrt(p[2]), m.eigen.vm_ratio)
    return float(margin_12), float(margin_03)


def separability_exact(m: BellMixture) -> SeparabilityReport:
    """Exact verdict; margins at exactly zero classify as separable."""
    margin_12, margin_03 = exact_margins(m)
    worst = min(margin_12, margin_03)
    entangled = bool(worst < 0.0)
    if not entangled:
        violated = None
    else:
        violated = "12" if margin_12 < margin_03 else "03"
    return SeparabilityReport(
        margin_12=margin_12,
        margin_03=margin_03,
        entangled=entangled,
        violated=violated,
        concurrence=max(0.0, -worst),
    )


def pt_spectrum(m: BellMixture) -> PTSpectrum:
    """Closed-form partial-transpose eigenvalues.

    q_{1,2} = [p_0 + p_3 +- (v_minus/Delta)(p_2 - p_1)] / 2
    q_{0,3} = [p_1 + p_2 +- sqrt((p_3-p_0)^2 + (b/Delta)^2 (p_2-p_1)^2)] / 2

    At most one of them is negative, exactly when the state is entangled.
    """
    p0, p1, p2, p3 = m.probs
    split_12 = m.eigen.vm_ratio * (p2 - p1)
    root_03 = math.hypot(p3 - p0, m.eigen.b_ratio * (p2 - p1))
    return PTSpectrum(
        q_0=0.5 * (p1 + p2 + root_03),
        q_1=0.5 * (p0 + p3 + split_12),
        q_2=0.5 * (p0 + p3 - split_12),
        q_3=0.5 * (p1 + p2 - root_03),
    )


def entanglement_of_formation(concurrence):
    """Entanglement of formation in bits as a function of concurrence.

    E = h((1 - sqrt(1 - C^2)) / 2) with h the binary entropy; monotone
    increasing from E(0) = 0 to E(1) = 1.  The argument is evaluated as
    C^2 / (2 (1 + sqrt(1 - C^2))), which does not cancel at small C.
    Broadcasts over arrays; a scalar concurrence gives a float.
    """
    c = np.asarray(concurrence, dtype=float)
    bad = ~((-1e-12 <= c) & (c <= 1.0 + 1e-12))
    if bad.any():
        raise OutOfRange(f"concurrence must lie in [0, 1], got {float(c[bad][0])!r}")
    c = np.clip(c, 0.0, 1.0)
    e = _binary_entropy_bits(c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c))))
    return float(e) if e.ndim == 0 else e


def _xlogx(q):
    """q ln q, with 0 ln 0 = 0; broadcasts."""
    q = np.asarray(q, dtype=float)
    return q * np.log(np.where(q > 0.0, q, 1.0))


def _binary_entropy_bits(q):
    """Binary entropy h(q) in bits, with 0 log 0 = 0; broadcasts.

    The complement term is (1 - q) log1p(-q), so h keeps full relative
    accuracy for q far below machine epsilon.  Subtracting from 0.0
    (rather than negating) makes h(0) = h(1) = +0.0, so a separable
    state's entanglement of formation prints as 0, not -0.
    """
    q = np.asarray(q, dtype=float)
    return (0.0 - (_xlogx(q) + (1.0 - q) * np.log1p(-np.where(q < 1.0, q, 0.0)))) / _LN2
