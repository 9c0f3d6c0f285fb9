"""Mixtures of the XYZ eigenstates and their realization as density matrices.

A BellMixture is the most general two-qubit state that is permutation
and phase-flip symmetric and real in the standard basis: a probability
vector (p_0..p_3) over the four eigenstates |Phi_j> of the model.  Gibbs
thermal states are the special case p_j ~ exp(-E_j / T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, InvalidMixture, InvalidTemperature
from .model import EigenSystem, XYZParams, eigensystem

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class BellMixture:
    """Probability 4-vector over the model eigenstates, with its context."""

    probs: np.ndarray  # shape (4,)
    params: XYZParams
    eigen: EigenSystem

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (4,):
            raise InvalidMixture(f"expected 4 weights, got shape {p.shape}")
        if (p < -_PROB_TOL).any() or abs(p.sum() - 1.0) > _PROB_TOL:
            raise InvalidMixture(f"not a probability vector: {p!r}")
        if self.eigen.degenerate and abs(p[1] - p[2]) > _PROB_TOL:
            # With Delta = 0 the |Phi_1>, |Phi_2> basis choice is a pure
            # convention; closed forms are exact only for equal weights.
            raise DegenerateBasis(f"degenerate aligned sector requires p_1 == p_2, got {p[1]!r} and {p[2]!r}")
        object.__setattr__(self, "probs", p)


def mixture(params: XYZParams, probs) -> BellMixture:
    """Build a BellMixture from canonical parameters and weights."""
    return BellMixture(probs=np.asarray(probs, dtype=float), params=params, eigen=eigensystem(params))


def _gibbs_exponents(energies, temperature) -> np.ndarray:
    """The Boltzmann exponents (E_j - E_min)/T.

    energies has shape (4,), one model broadcast over any shape of T, or
    (4, K), one model per column at the temperatures T of shape (K,).
    Exactly 0 on the ground levels and +inf above them wherever the ratio
    overflows, T = 0 included, so exp(-r) is the T -> 0+ limit of the
    Gibbs factors at every temperature and nothing warns.
    """
    t = np.asarray(temperature, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0.0))
    if bad.any():
        raise InvalidTemperature(f"temperature must be finite and >= 0, got {float(t[bad][0])!r}")
    gap = energies - energies.min(axis=0)
    gap = gap.reshape(gap.shape + (1,) * (t.ndim + 1 - gap.ndim))
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(gap, t, out=np.zeros(np.broadcast_shapes(gap.shape, t.shape)), where=gap > 0.0)


def thermal_probabilities(eigen: EigenSystem, temperature) -> np.ndarray:
    """Gibbs weights exp(-E_j/T)/Z, broadcast over an array of temperatures.

    Computed from the exponents of _gibbs_exponents, so arbitrarily low
    temperatures neither overflow nor produce NaN.  At T = 0 the weight is
    spread uniformly over all degenerate ground levels (the T -> 0+ limit
    of the Gibbs state).
    """
    w = np.exp(-_gibbs_exponents(eigen.energies, temperature))
    return w / w.sum(axis=0)


def thermal_mixture(params: XYZParams, temperature: float) -> BellMixture:
    """The Gibbs state of the canonical Hamiltonian at temperature T >= 0."""
    eig = eigensystem(params)
    p = thermal_probabilities(eig, float(temperature))
    return BellMixture(probs=p, params=params, eigen=eig)
