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
        _check_weights(p, self.eigen)
        object.__setattr__(self, "probs", p)


def _check_weights(p: np.ndarray, eigen: EigenSystem) -> None:
    """Raise unless p, shape (4,) or (4, N), holds probability vectors over
    the levels of eigen (one per column); names the first bad column."""
    q = p.reshape(4, -1)
    bad = (q < -_PROB_TOL).any(axis=0) | (np.abs(q.sum(axis=0) - 1.0) > _PROB_TOL)
    if bad.any():
        raise InvalidMixture(f"not a probability vector: {q[:, bad.argmax()]!r}")
    bad = np.abs(q[1] - q[2]) > _PROB_TOL
    if eigen.degenerate and bad.any():
        # With Delta = 0 the |Phi_1>, |Phi_2> basis choice is a pure
        # convention; closed forms are exact only for equal weights.
        p1, p2 = q[1:3, bad.argmax()]
        raise DegenerateBasis(f"degenerate aligned sector requires p_1 == p_2, got {p1!r} and {p2!r}")


def mixture(params: XYZParams, probs) -> BellMixture:
    """Build a BellMixture from canonical parameters and weights."""
    return BellMixture(probs=np.asarray(probs, dtype=float), params=params, eigen=eigensystem(params))


def thermal_probabilities(eigen: EigenSystem, temperature) -> np.ndarray:
    """Gibbs weights exp(-E_j/T)/Z, broadcast over an array of temperatures.

    Computed with the minimum energy subtracted before exponentiation, so
    arbitrarily low temperatures neither overflow nor produce NaN.  At
    T = 0 the weight is spread uniformly over all degenerate ground
    levels (the T -> 0+ limit of the Gibbs state).
    """
    t = np.asarray(temperature, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0.0))
    if bad.any():
        raise InvalidTemperature(f"temperature must be finite and >= 0, got {float(t[bad][0])!r}")
    e = eigen.energies
    scalar = t.ndim == 0
    t2 = np.atleast_1d(t)
    p = np.empty((4, t2.size))
    pos = t2 > 0.0
    if pos.any():
        w = np.exp(-(e[:, None] - e.min()) / t2[None, pos])
        p[:, pos] = w / w.sum(axis=0)
    if (~pos).any():
        ground = np.zeros(4)
        ground[list(eigen.ground_indices)] = 1.0 / len(eigen.ground_indices)
        p[:, ~pos] = ground[:, None]
    return p[:, 0] if scalar else p


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
