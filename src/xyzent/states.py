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


@dataclass(frozen=True)
class SpinAverages:
    """Total and pair spin expectations of a BellMixture.

    sz is <S_z>; sxsx, sysy, szsz are the pair correlators <s_i^A s_i^B>;
    sx2, sy2, sz2 are <S_i^2> = 2 <s_i^A s_i^B> + 1/2.
    """

    sz: float
    sxsx: float
    sysy: float
    szsz: float
    sx2: float
    sy2: float
    sz2: float


def spin_averages(m: BellMixture) -> SpinAverages:
    """Spin expectations in closed form.

    <S_z>        = (b/Delta) (p_1 - p_2)
    <s_z s_z>    = (p_1 + p_2 - 1/2) / 2
    <s_x s_x>    = [p_3 - p_0 + (v_minus/Delta)(p_2 - p_1)] / 4
    <s_y s_y>    = [p_3 - p_0 - (v_minus/Delta)(p_2 - p_1)] / 4
    """
    p0, p1, p2, p3 = m.probs
    eig = m.eigen
    sz = eig.b_ratio * (p1 - p2)
    szsz = 0.5 * (p1 + p2 - 0.5)
    sxsx = 0.25 * (p3 - p0 + eig.vm_ratio * (p2 - p1))
    sysy = 0.25 * (p3 - p0 - eig.vm_ratio * (p2 - p1))
    return SpinAverages(
        sz=sz,
        sxsx=sxsx,
        sysy=sysy,
        szsz=szsz,
        sx2=2.0 * sxsx + 0.5,
        sy2=2.0 * sysy + 0.5,
        sz2=2.0 * szsz + 0.5,
    )


_SZ = np.diag([1.0, 0.0, 0.0, -1.0])
_XX = np.fliplr(np.eye(4))
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_ZZ = np.diag([1.0, -1.0, -1.0, 1.0])


def realize_matrix(m: BellMixture) -> np.ndarray:
    """The mixture as an explicit 4x4 density matrix (real, standard basis).

    Built two ways and cross-checked entry-wise to 1e-12: the spectral
    sum over projectors onto the eigenvectors, and the operator form
    1/4 + <S_z> S_z / 2 + sum_i <s_i s_i> sigma_i (x) sigma_i.
    """
    spectral = np.einsum("j,ja,jb->ab", m.probs, m.eigen.vectors, m.eigen.vectors)
    spectral = 0.5 * (spectral + spectral.T)  # exact symmetry
    a = spin_averages(m)
    operator = 0.25 * np.eye(4) + 0.5 * a.sz * _SZ + a.sxsx * _XX + a.sysy * _YY + a.szsz * _ZZ
    dev = np.abs(spectral - operator).max()
    if dev > 1e-12:
        raise AssertionError(f"spectral and operator constructions disagree by {dev:.3e}")
    return spectral
