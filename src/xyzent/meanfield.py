"""Finite-temperature independent-qubit (mean-field) approximation.

The free energy F = <H> - T S is minimized over product states
rho_A (x) rho_B, each qubit parameterized by an effective field vector
lambda with

    <s> = -lambda tanh(|lambda| / 2T) / (2 |lambda|),

which turns stationarity into the self-consistency conditions

    lambda_i^{A,B} = b delta_{iz} - 2 v_i <s_i^{B,A}>.

A transverse (x or y) component of lambda breaks phase-flip symmetry;
lambda^A != lambda^B breaks permutation symmetry.  The transverse
solution exists below the critical temperature

    T_c = v_max * chi / ln[(1+chi)/(1-chi)],   chi = |b| / (v_max - vz),

feasible for v_max > max(vz, 0) and |b| < v_max - vz, with T_c -> v_max/2 as
chi -> 0.  Entropies here are natural-log (thermodynamic convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import _xlogx
from .errors import InvalidTemperature, NoConvergence
from .model import XYZParams, eigensystem
from .states import _gibbs_exponents

__all__ = [
    "MeanFieldSolution",
    "CriticalTemperature",
    "qubit_expectations",
    "mf_free_energy",
    "exact_free_energy",
    "solve_mf",
    "critical_temperature",
]

#: |lambda_{x,y}| above this multiple of v_max counts as a broken phase flip
BREAK_TOL = 1e-6
#: self-consistency residual accepted as converged, relative to energy_scale
RESIDUAL_TOL = 1e-9
#: damped fixed-point sweeps before the Newton polish takes over
FP_SWEEPS = 2000
#: largest component update at which the fixed-point sweeps stop, relative to energy_scale
UPDATE_TOL = 1e-12
#: a polished seed stops once its full Newton step is this small relative to |lambda|
NEWTON_STEP_TOL = 1e-13
#: Newton steps per polish, and step halvings per Newton step
NEWTON_STEPS = 100
NEWTON_HALVINGS = 60


@dataclass(frozen=True)
class MeanFieldSolution:
    lambda_a: np.ndarray  # effective field of qubit A, shape (3,)
    lambda_b: np.ndarray
    s_a: np.ndarray  # spin expectation of qubit A, |s| <= 1/2
    s_b: np.ndarray
    free_energy: float
    broken_phase_flip: bool
    broken_permutation: bool
    converged: bool
    iterations: int


@dataclass(frozen=True)
class CriticalTemperature:
    t_c: float | None  # None when the broken solution is infeasible
    chi: float
    v_max: float
    feasible: bool


def _check_temperature(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTemperature(f"mean field needs T > 0, got {t!r}")
    return t


def qubit_expectations(lambdas, temperature: float) -> np.ndarray:
    """<s> for each effective field row; zero field gives zero spin.

    Norms here and below come from np.hypot.reduce, which never squares a
    component, so fields near the top of the float range do not overflow.
    """
    lam = np.asarray(lambdas, dtype=float)
    norm = np.hypot.reduce(lam, axis=-1, keepdims=True)
    amp = np.divide(
        np.tanh(0.5 * norm / temperature), norm, out=np.zeros_like(norm), where=norm > 0.0
    )
    return -0.5 * lam * amp


def _qubit_entropy_nat(s) -> np.ndarray:
    """Natural-log entropy of qubits with spin expectation rows s."""
    m = np.hypot.reduce(np.asarray(s, dtype=float), axis=-1)
    up, dn = 0.5 + m, 0.5 - m
    return -(_xlogx(up) + _xlogx(dn))


def _interaction_energy(p: XYZParams, s_a, s_b) -> np.ndarray:
    v = np.array([p.vx, p.vy, p.vz])
    return p.b * (s_a[..., 2] + s_b[..., 2]) - 2.0 * (v * s_a * s_b).sum(axis=-1)


def mf_free_energy(lambda_a, lambda_b, p: XYZParams, temperature: float) -> float:
    """Free energy of the product state defined by the two field vectors.

    Exact for genuinely uncorrelated problems (all couplings zero).
    """
    t = _check_temperature(temperature)
    s_a = qubit_expectations(lambda_a, t)
    s_b = qubit_expectations(lambda_b, t)
    energy = _interaction_energy(p, s_a, s_b)
    return float(energy - t * (_qubit_entropy_nat(s_a) + _qubit_entropy_nat(s_b)))


def exact_free_energy(p: XYZParams, temperature: float) -> float:
    """-T ln Z from the exact spectrum; lower bound for every product state."""
    t = _check_temperature(temperature)
    eig = eigensystem(p)
    return float(eig.energies.min() - t * np.log(np.exp(-_gibbs_exponents(eig, t)).sum()))


def _default_seeds(p: XYZParams) -> np.ndarray:
    """Seed fields, shape (n_seeds, 2, 3): symmetric first (tie-break order),
    then +x, +y transverse, then one permutation-asymmetric x seed.

    No -x or -y seed: the map is odd in the transverse components, so a
    mirrored seed converges to the negated fields in the same sweep, with
    the same free energy, and would lose every tie to its mirror image.
    """
    v = max(p.v_max, 0.0)
    seeds = np.zeros((4, 2, 3))
    seeds[1, :, 0] = v
    seeds[2, :, 1] = v
    seeds[3, 0, 0] = v
    seeds[3, 1, 0] = -v
    return seeds


def _self_consistent_map(lam, p: XYZParams, t: float) -> np.ndarray:
    """One sweep of lambda_i^{A,B} = b delta_iz - 2 v_i <s_i^{B,A}>."""
    v = np.array([p.vx, p.vy, p.vz])
    s = qubit_expectations(lam, t)
    out = -2.0 * v * s[..., ::-1, :]
    out[..., 2] += p.b
    return out


def _residual(lam, p: XYZParams, t: float) -> np.ndarray:
    return _self_consistent_map(lam, p, t) - lam


def _residual_jacobian(lam, p: XYZParams, t: float) -> np.ndarray:
    """Jacobian of r(lambda) = F(lambda) - lambda for seed rows of shape
    (k, 2, 3), flattened to (k, 6, 6).

    F_A depends only on lambda_B, through -2 v_i <s_i>, and

        d<s>/dlambda = -[(tanh(n/2T)/n)(I - u u^T) + (sech^2(n/2T)/2T) u u^T] / 2

    with n = |lambda|, u = lambda/n, and the limit -I/(4T) at n = 0.  u u^T
    comes from the unit vector, never lambda lambda^T / n^2, which would
    overflow for |lambda| beyond ~1e154.
    """
    n = np.hypot.reduce(lam, axis=-1, keepdims=True)
    u = np.divide(lam, n, out=np.zeros_like(lam), where=n > 0.0)
    th = np.tanh(0.5 * n / t)
    across = np.divide(th, n, out=np.full_like(n, 0.5 / t), where=n > 0.0)[..., None]
    along = ((1.0 - th * th) / (2.0 * t))[..., None]
    uu = u[..., :, None] * u[..., None, :]
    d_map = np.array([p.vx, p.vy, p.vz])[:, None] * (across * (np.eye(3) - uu) + along * uu)
    jac = np.zeros((lam.shape[0], 6, 6))
    jac[:, :3, 3:] = d_map[:, 1]
    jac[:, 3:, :3] = d_map[:, 0]
    return jac - np.eye(6)


def _newton_polish(lam: np.ndarray, live: np.ndarray, p: XYZParams, t: float, tol: float) -> None:
    """Newton's method on r(lambda) = 0 for the seed rows lam[live], all
    at once and in place.

    Each step is the minimum-norm solution of J step = -r (a pseudo-
    inverse: J is singular along the Goldstone direction of a broken root
    with |vx| = |vy|), halved until the residual norm strictly decreases;
    an equal residual is no progress (a 2-cycle of the damped iteration
    looks like that).  A seed stops once its full step is within
    NEWTON_STEP_TOL |lambda| with its residual at most tol, when no halving
    decreases its residual, or after NEWTON_STEPS steps.
    """
    for _ in range(NEWTON_STEPS):
        if live.size == 0:
            break
        x = lam[live]
        r = _residual(x, p, t)
        step = -(np.linalg.pinv(_residual_jacobian(x, p, t)) @ r.reshape(-1, 6, 1)).reshape(x.shape)
        small = np.hypot.reduce(step, axis=(1, 2)) <= NEWTON_STEP_TOL * np.hypot.reduce(x, axis=(1, 2))
        going = ~(small & (np.abs(r).max(axis=(1, 2)) <= tol))
        r_norm = np.hypot.reduce(r, axis=(1, 2))
        moved = np.zeros(live.size, dtype=bool)
        frac = 1.0
        for _ in range(NEWTON_HALVINGS):
            todo = np.flatnonzero(going & ~moved)
            if todo.size == 0:
                break
            trial = x[todo] + frac * step[todo]
            better = np.hypot.reduce(_residual(trial, p, t), axis=(1, 2)) < r_norm[todo]
            lam[live[todo[better]]] = trial[better]
            moved[todo[better]] = True
            frac *= 0.5
        live = live[moved]


def solve_mf(p: XYZParams, temperature: float, seeds=None) -> MeanFieldSolution:
    """Damped fixed-point solution of the self-consistency conditions.

    All seeds are iterated (damping 0.5) for up to FP_SWEEPS sweeps,
    until the largest component update is at most UPDATE_TOL; seeds
    whose residual is still above RESIDUAL_TOL get a Newton finish
    (_newton_polish), which cures the critical slowing down of plain
    iteration near T_c.  Among the seeds whose final residual is at most
    RESIDUAL_TOL the one with the lowest free energy wins (ties fall to
    seed order, so results are deterministic).  Both tolerances are
    relative to p.energy_scale, so the solution and `iterations` (the
    fixed-point sweeps) do not depend on the energy unit; the all-zero
    model converges in one sweep.
    """
    t = _check_temperature(temperature)
    lam = np.array(seeds, dtype=float) if seeds is not None else _default_seeds(p)
    if lam.ndim == 2:
        lam = lam[None]
    if lam.shape[1:] != (2, 3):
        raise ValueError(f"seeds must have shape (n, 2, 3), got {lam.shape}")

    iterations = 0
    active = np.ones(lam.shape[0], dtype=bool)
    for _ in range(FP_SWEEPS):
        new = 0.5 * lam[active] + 0.5 * _self_consistent_map(lam[active], p, t)
        moved = np.abs(new - lam[active]).max(axis=(1, 2))
        lam[active] = new
        iterations += 1
        still = moved > UPDATE_TOL * p.energy_scale
        if not still.any():
            active[:] = False
            break
        idx = np.flatnonzero(active)
        active[idx[~still]] = False

    # plain iteration slows critically near T_c; the stragglers' iterates
    # are already in the right basin
    tol = RESIDUAL_TOL * p.energy_scale
    stragglers = np.flatnonzero(np.abs(_residual(lam, p, t)).max(axis=(1, 2)) > tol)
    _newton_polish(lam, stragglers, p, t, tol)
    resid = np.abs(_residual(lam, p, t)).max(axis=(1, 2))
    ok = resid <= tol
    if not ok.any():
        raise NoConvergence(f"no seed converged; best residual {resid.min():.3e}")

    s = qubit_expectations(lam, t)
    energy = _interaction_energy(p, s[:, 0], s[:, 1])
    free = energy - t * (_qubit_entropy_nat(s[:, 0]) + _qubit_entropy_nat(s[:, 1]))
    free = np.where(ok, free, np.inf)
    winner = int(np.argmin(free))  # argmin takes the first minimum: seed order

    lam_a, lam_b = lam[winner]
    break_scale = BREAK_TOL * p.v_max
    transverse = max(abs(lam_a[0]), abs(lam_a[1]), abs(lam_b[0]), abs(lam_b[1]))
    return MeanFieldSolution(
        lambda_a=lam_a,
        lambda_b=lam_b,
        s_a=s[winner, 0],
        s_b=s[winner, 1],
        free_energy=float(free[winner]),
        broken_phase_flip=bool(transverse > break_scale),
        broken_permutation=bool(np.abs(lam_a - lam_b).max() > break_scale),
        converged=bool(ok[winner]),
        iterations=iterations,
    )


def critical_temperature(p: XYZParams, method: str = "closed") -> CriticalTemperature:
    """Critical temperature of the transverse symmetry-breaking solution.

    "closed" evaluates T_c = v_max chi / ln[(1+chi)/(1-chi)] (the chi -> 0
    limit v_max/2 taken analytically); "numeric" bisects the onset of
    broken_phase_flip in solve_mf to 1e-6 relative.  Absent (t_c None)
    whenever v_max <= max(vz, 0) or |b| >= v_max - vz.
    """
    v_max = p.v_max
    chi = p.chi
    # chi < 1 also requires v_max > vz; without transverse coupling there
    # is nothing to break
    feasible = v_max > 0.0 and chi < 1.0
    if not feasible:
        return CriticalTemperature(t_c=None, chi=chi, v_max=v_max, feasible=False)

    if method == "closed":
        t_c = 0.5 * v_max if chi == 0.0 else v_max * chi / (2.0 * math.atanh(chi))
        return CriticalTemperature(t_c=t_c, chi=chi, v_max=v_max, feasible=True)
    if method != "numeric":
        raise ValueError(f"method must be 'closed' or 'numeric', got {method!r}")

    lo, hi = 1e-4 * v_max, 0.75 * v_max
    if not solve_mf(p, lo).broken_phase_flip:
        return CriticalTemperature(t_c=None, chi=chi, v_max=v_max, feasible=True)
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if solve_mf(p, mid).broken_phase_flip:
            lo = mid
        else:
            hi = mid
    return CriticalTemperature(t_c=0.5 * (lo + hi), chi=chi, v_max=v_max, feasible=True)
