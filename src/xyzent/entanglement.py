"""Exact separability verdicts and entanglement measures.

For a BellMixture the two separability inequalities are

    (12):  (v_minus/Delta) |p_2 - p_1|  <=  p_0 + p_3
    (03):  |p_3 - p_0|  <=  sqrt((p_1+p_2)^2 - (b/Delta)^2 (p_2-p_1)^2)

The state is entangled iff one of them is violated (never both), and its
concurrence equals the size of the violation.  The labels 12/03 name the
eigenstate pair the entanglement is attributed to when the corresponding
inequality breaks.  The general (any two-qubit density matrix) route via
the spin-flipped product spectrum is the oracle linalg.concurrence_general.

The margin rows and the entanglement-of-formation formula are those of
the margin kernel in states (_exact_margin_rows, _eof); this module
applies them to one mixture and reports the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .states import BellMixture, _eof, _exact_margin_rows

__all__ = [
    "SeparabilityReport",
    "PTSpectrum",
    "separability_exact",
    "exact_margins",
    "pt_spectrum",
    "entanglement_of_formation",
]


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
    e = _eof(c)
    return float(e) if e.ndim == 0 else e
