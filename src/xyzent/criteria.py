"""Weaker entanglement-detection criteria: disorder and entropic.

Both criteria compare the global state against its single-qubit
reductions and can only under-detect: every detection implies genuine
entanglement, but entangled states may pass.  The disorder
(majorization) check is exact at zero field; the entropic check is
strictly weaker for mixed states.

The checks report on one mixture from the margin rows of the kernel in
states (_disorder_margin_rows, _entropic_margin_row), which the CLI's
state columns and the limit scan read for thermal states.  The exact
verdict they are weaker than is entanglement.separability_exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entanglement import separability_exact  # noqa: F401  (kept bound for tracing)
from .states import BellMixture, _disorder_margin_rows, _entropic_margin_row

__all__ = [
    "CriterionReport",
    "disorder_check",
    "entropic_check",
]


@dataclass(frozen=True)
class CriterionReport:
    criterion: str  # "disorder" | "entropic"
    detected: bool
    #: most-violated signed margin; negative means detection
    margin: float
    #: per-inequality margins backing `margin`
    detail: tuple[float, ...]


def disorder_check(m: BellMixture) -> CriterionReport:
    """Disorder (majorization) criterion.

    A separable state is majorized by each of its reductions; for two
    qubits that reduces to comparing largest eigenvalues, i.e.

        p_j <= [1 + |<S_z>|] / 2   for every j,

    with |<S_z>| = |(b/Delta)(p_2 - p_1)|.  Detection requires some
    p_j > 1/2, and the check is exact when b = 0.
    """
    rows = _disorder_margin_rows(m.probs[:, None], m.eigen.b_ratio, m.eigen.vm_ratio)
    margins = tuple(float(x) for x in rows[:, 0])
    worst = min(margins)
    return CriterionReport(
        criterion="disorder",
        detected=bool(worst < 0.0),
        margin=worst,
        detail=margins,
    )


def entropic_check(m: BellMixture) -> CriterionReport:
    """Von Neumann entropic criterion, base-2 on both sides.

    margin = S(rho) - max(S(rho_A), S(rho_B)); the global entropy comes
    straight from the mixture weights (the state is diagonal in its own
    eigenbasis) and each reduction has spectrum (1 +- <S_z>)/2.
    """
    margin = float(_entropic_margin_row(m.probs[:, None], m.eigen.b_ratio, m.eigen.vm_ratio)[0])
    return CriterionReport(
        criterion="entropic",
        detected=bool(margin < 0.0),
        margin=margin,
        detail=(margin, margin),
    )
