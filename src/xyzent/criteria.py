"""Weaker entanglement-detection criteria: disorder and entropic.

Both compare the global state against its single-qubit reductions and
can only under-detect: every detection implies genuine entanglement, but
entangled states may pass.  The disorder (majorization) check is exact
at zero field; the entropic check is strictly weaker for mixed states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import _LN2, _xlogx, separability_exact
from .states import BellMixture

__all__ = [
    "CriterionReport",
    "exact_check",
    "disorder_check",
    "entropic_check",
]


@dataclass(frozen=True)
class CriterionReport:
    criterion: str  # "exact" | "disorder" | "entropic"
    detected: bool
    #: most-violated signed margin; negative means detection
    margin: float
    #: per-inequality margins backing `margin`
    detail: tuple[float, ...]


def exact_check(m: BellMixture) -> CriterionReport:
    """The exact verdict repackaged as a CriterionReport."""
    rep = separability_exact(m)
    return CriterionReport(
        criterion="exact",
        detected=rep.entangled,
        margin=float(min(rep.margin_12, rep.margin_03)),
        detail=(rep.margin_12, rep.margin_03),
    )


def disorder_check(m: BellMixture) -> CriterionReport:
    """Disorder (majorization) criterion.

    A separable state is majorized by each of its reductions; for two
    qubits that reduces to comparing largest eigenvalues, i.e.

        p_j <= [1 + |<S_z>|] / 2   for every j,

    with |<S_z>| = |(b/Delta)(p_2 - p_1)|.  Detection requires some
    p_j > 1/2, and the check is exact when b = 0.
    """
    margins = tuple(float(x) for x in _disorder_margin_rows(m.probs, m.eigen.b_ratio))
    worst = min(margins)
    return CriterionReport(
        criterion="disorder",
        detected=bool(worst < 0.0),
        margin=worst,
        detail=margins,
    )


def _disorder_margin_rows(p, b_r):
    """Per-level disorder margins [1 + |(b/Delta)(p_2 - p_1)|]/2 - p_j of
    probabilities p (shape (4, ...)); b_r broadcasts with p[0]."""
    bound = 0.5 * (1.0 + np.abs(b_r * (p[2] - p[1])))
    return bound - p


def entropic_check(m: BellMixture) -> CriterionReport:
    """Von Neumann entropic criterion, base-2 on both sides.

    margin = S(rho) - max(S(rho_A), S(rho_B)); the global entropy comes
    straight from the mixture weights (the state is diagonal in its own
    eigenbasis) and each reduction has spectrum (1 +- <S_z>)/2.
    """
    margin = float(_entropic_margin_row(m.probs, m.eigen.b_ratio))
    return CriterionReport(
        criterion="entropic",
        detected=bool(margin < 0.0),
        margin=margin,
        detail=(margin, margin),
    )


def _entropic_margin_row(p, b_r):
    """Entropic margin S(rho) - S(rho_A) in bits of probabilities p
    (shape (4,) or (4, N)), b_r broadcasting with p[0].  The two
    reductions are identical by permutation symmetry, with spectrum
    (1 +- <S_z>)/2 and <S_z> = (b/Delta)(p_1 - p_2).

    The spectrum is built from the weights as q_1 = s + a p_1 + (1-a) p_2
    and q_2 = s + (1-a) p_1 + a p_2, with s = (p_0 + p_3)/2 and
    a = (1 + |b/Delta|)/2, and each q_k ln q_k is paired with the
    p_k ln p_k it cancels against, so the separable product-diagonal
    mixture (p_0 = p_3 = 0, |b/Delta| = 1, hence q_k = p_k) gives exactly
    0; subtracting the two entropies whole can leave -1 ulp there.  The
    sums are elementwise, as a matrix product rounds by batch size.
    """
    a = 0.5 * (1.0 + np.abs(b_r))
    xq1 = _xlogx(0.5 * p[0] + a * p[1] + (1.0 - a) * p[2] + 0.5 * p[3])
    xq2 = _xlogx(0.5 * p[0] + (1.0 - a) * p[1] + a * p[2] + 0.5 * p[3])
    xp = _xlogx(p)
    return ((xq1 - xp[1]) + (xq2 - xp[2]) - xp[0] - xp[3]) / _LN2
