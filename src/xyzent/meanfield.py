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
from typing import NamedTuple

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
#: backstop cap on a seed row's damped sweeps; the hand-off below ends rows first
FP_SWEEPS = 2000
#: a seed row hands off to Newton after HANDOFF_SWEEPS sweeps that each shrank its largest
#: update by less than HANDOFF_RATIO or held it (2-cycle) to within rounding, never grew it
HANDOFF_RATIO, HANDOFF_HOLD, HANDOFF_SWEEPS = 0.9, 1.0 + 1e-6, 20
#: largest component update at which the fixed-point sweeps stop, relative to energy_scale
UPDATE_TOL = 1e-12
#: a polished seed stops once its full Newton step is this small relative to |lambda|
NEWTON_STEP_TOL = 1e-13
#: Newton steps per polish, and step halvings per Newton step
NEWTON_STEPS = 100
NEWTON_HALVINGS = 60
#: bisection levels of the numeric T_c solved together in each round after the first
TREE_LEVELS = 5


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
    """<s> for each effective field row; zero field gives zero spin."""
    return _spins(np.asarray(lambdas, dtype=float), _check_temperature(temperature))


def _spins(lam: np.ndarray, temperature) -> np.ndarray:
    """qubit_expectations for a validated temperature, a float or an array
    that broadcasts against the field rows.

    Norms here and below come from np.hypot.reduce, which never squares a
    component, so fields near the top of the float range do not overflow.
    """
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
    s_a = _spins(np.asarray(lambda_a, dtype=float), t)
    s_b = _spins(np.asarray(lambda_b, dtype=float), t)
    energy = _interaction_energy(p, s_a, s_b)
    return float(energy - t * (_qubit_entropy_nat(s_a) + _qubit_entropy_nat(s_b)))


def exact_free_energy(p: XYZParams, temperature: float) -> float:
    """-T ln Z from the exact spectrum; lower bound for every product state."""
    t = _check_temperature(temperature)
    eig = eigensystem(p)
    return float(eig.energies.min() - t * np.log(np.exp(-_gibbs_exponents(eig.energies, t)).sum()))


def _default_seeds(p: XYZParams) -> np.ndarray:
    """Seed fields, shape (n_seeds, 2, 3): symmetric first (tie-break order),
    then +x, +y transverse, then one permutation-asymmetric x seed.

    No -x or -y seed: the map is odd in the transverse components, so a
    mirrored seed converges to the negated fields in the same sweep, with
    the same free energy, and would lose every tie to its mirror image.
    """
    v = p.v_max  # >= 0 in the canonical sector (XYZParams)
    seeds = np.zeros((4, 2, 3))
    seeds[1, :, 0] = v
    seeds[2, :, 1] = v
    seeds[3, 0, 0] = v
    seeds[3, 1, 0] = -v
    return seeds


def _self_consistent_map(lam, p: XYZParams, t) -> np.ndarray:
    """One sweep of lambda_i^{A,B} = b delta_iz - 2 v_i <s_i^{B,A}> for seed
    rows of shape (k, 2, 3) at temperatures t of shape (k, 1, 1)."""
    v = np.array([p.vx, p.vy, p.vz])
    s = _spins(lam, t)
    out = -2.0 * v * s[..., ::-1, :]
    out[..., 2] += p.b
    return out


def _residual(lam, p: XYZParams, t) -> np.ndarray:
    return _self_consistent_map(lam, p, t) - lam


def _residual_jacobian(lam, p: XYZParams, t) -> np.ndarray:
    """Jacobian of r(lambda) = F(lambda) - lambda for seed rows of shape
    (k, 2, 3) at temperatures t of shape (k, 1, 1), flattened to (k, 6, 6).

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


def _newton_polish(lam: np.ndarray, t: np.ndarray, live: np.ndarray, p: XYZParams, tol: float) -> None:
    """Newton's method on r(lambda) = 0 for the seed rows lam[live] at their
    temperatures t[live], all at once and in place.

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
        x, tx = lam[live], t[live]
        r = _residual(x, p, tx)
        step = -(np.linalg.pinv(_residual_jacobian(x, p, tx)) @ r.reshape(-1, 6, 1)).reshape(x.shape)
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
            better = np.hypot.reduce(_residual(trial, p, tx[todo]), axis=(1, 2)) < r_norm[todo]
            lam[live[todo[better]]] = trial[better]
            moved[todo[better]] = True
            frac *= 0.5
        live = live[moved]


class _Rows(NamedTuple):
    """solve_mf at k temperatures of one model; entry i belongs to row i."""

    lam: np.ndarray  # winning seed's fields, (k, 2, 3)
    s: np.ndarray  # their spin expectations, (k, 2, 3)
    free_energy: np.ndarray  # (k,)
    converged: np.ndarray  # (k,) bool: the winner's residual is accepted
    residual: np.ndarray  # (k,) smallest residual over the row's seeds
    iterations: np.ndarray  # (k,) sweeps before the stop or hand-off, the max over the row's seeds
    broken_phase_flip: np.ndarray  # (k,) bool
    broken_permutation: np.ndarray  # (k,) bool

    def solution(self, i: int) -> MeanFieldSolution:
        """Row i as solve_mf returns it; NoConvergence if no seed converged."""
        if not self.converged[i]:
            raise NoConvergence(f"no seed converged; best residual {self.residual[i]:.3e}")
        return MeanFieldSolution(
            lambda_a=self.lam[i, 0],
            lambda_b=self.lam[i, 1],
            s_a=self.s[i, 0],
            s_b=self.s[i, 1],
            free_energy=float(self.free_energy[i]),
            broken_phase_flip=bool(self.broken_phase_flip[i]),
            broken_permutation=bool(self.broken_permutation[i]),
            converged=True,
            iterations=int(self.iterations[i]),
        )


def _solve_rows(p: XYZParams, temperatures: np.ndarray, seeds: np.ndarray) -> _Rows:
    """The solver of solve_mf over a row axis: row i holds every seed at
    temperatures[i], which must be valid (finite and > 0).

    The rows are flattened to seed rows of shape (k * n_seeds, 2, 3); each
    stops or hands off (see solve_mf) on its own updates alone, so row i
    is solve_mf(p, temperatures[i], seeds) bit for bit.
    """
    k, n = temperatures.size, seeds.shape[0]
    lam = np.tile(seeds, (k, 1, 1))
    t = np.repeat(temperatures, n)[:, None, None]
    sweeps = np.full(k * n, FP_SWEEPS)
    active = np.arange(k * n)
    last, slow = np.full(k * n, np.inf), np.zeros(k * n, dtype=int)
    update_tol = UPDATE_TOL * p.energy_scale
    for sweep in range(1, FP_SWEEPS + 1):
        x = lam[active]
        new = 0.5 * x + 0.5 * _self_consistent_map(x, p, t[active])
        lam[active] = new
        moved = np.abs(new - x).max(axis=(1, 2))
        ratio, last = moved / last, moved
        slow = np.where((ratio > HANDOFF_RATIO) & (ratio <= HANDOFF_HOLD), slow + 1, 0)
        still = (moved > update_tol) & (slow < HANDOFF_SWEEPS)
        if not still.all():
            sweeps[active[~still]] = sweep
            active, last, slow = active[still], moved[still], slow[still]
            if active.size == 0:
                break

    # plain iteration slows critically near T_c; the rows handed off (or
    # cut at FP_SWEEPS) are already in the right basin
    tol = RESIDUAL_TOL * p.energy_scale
    stragglers = np.flatnonzero(np.abs(_residual(lam, p, t)).max(axis=(1, 2)) > tol)
    _newton_polish(lam, t, stragglers, p, tol)
    resid = np.abs(_residual(lam, p, t)).max(axis=(1, 2))
    ok = resid <= tol

    s = _spins(lam, t)
    energy = _interaction_energy(p, s[:, 0], s[:, 1])
    free = energy - t[:, 0, 0] * (_qubit_entropy_nat(s[:, 0]) + _qubit_entropy_nat(s[:, 1]))
    free = np.where(ok, free, np.inf)
    # argmin takes the first minimum: seed order
    winner = np.arange(k) * n + np.argmin(free.reshape(k, n), axis=1)

    lam = lam[winner]
    break_scale = BREAK_TOL * p.v_max
    return _Rows(
        lam=lam,
        s=s[winner],
        free_energy=free[winner],
        converged=ok[winner],
        residual=resid.reshape(k, n).min(axis=1),
        iterations=sweeps.reshape(k, n).max(axis=1),
        broken_phase_flip=np.abs(lam[:, :, :2]).max(axis=(1, 2)) > break_scale,
        broken_permutation=np.abs(lam[:, 0] - lam[:, 1]).max(axis=1) > break_scale,
    )


def solve_mf(p: XYZParams, temperature: float, seeds=None) -> MeanFieldSolution:
    """Damped fixed-point solution of the self-consistency conditions.

    Seeds are iterated (damping 0.5) until the largest component update
    is at most UPDATE_TOL, or hand off once HANDOFF_SWEEPS sweeps in a row
    shrank it by less than the factor HANDOFF_RATIO without growing it
    (near T_c, or in a 2-cycle); FP_SWEEPS is only a backstop.  Seeds whose
    residual is then above RESIDUAL_TOL get a Newton finish (_newton_polish).
    Among the seeds whose final residual is at most RESIDUAL_TOL the one
    with the lowest free energy wins (ties fall to seed order, so results
    are deterministic).  Both tolerances are relative to p.energy_scale and
    the hand-off compares updates only, so the solution and `iterations`
    (sweeps of the slowest seed before its stop or hand-off) do not depend
    on the energy unit; the all-zero model converges in one sweep.
    """
    t = _check_temperature(temperature)
    lam = np.array(seeds, dtype=float) if seeds is not None else _default_seeds(p)
    if lam.ndim == 2:
        lam = lam[None]
    if lam.shape[1:] != (2, 3) or lam.shape[0] == 0:
        raise ValueError(f"seeds must have shape (n, 2, 3) with n >= 1, got {lam.shape}")
    return _solve_rows(p, np.array([t]), lam).solution(0)


def _unresolved(lo: float, hi: float) -> bool:
    """Whether the numeric T_c bisection still halves [lo, hi]."""
    return hi - lo > 1e-6 * hi


def _bisection_path(lo: float, hi: float, t: float) -> list[tuple[float, float]]:
    """Every bracket the numeric T_c bisection halves from [lo, hi] if each
    midpoint below t is broken and each other midpoint is not."""
    path = []
    while _unresolved(lo, hi):
        path.append((lo, hi))
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < t else (lo, mid)
    return path


def _bisection_tree(lo: float, hi: float, levels: int = TREE_LEVELS) -> list[tuple[float, float]]:
    """Every bracket the numeric T_c bisection can halve in its next
    `levels` steps from [lo, hi]: at most 2**levels - 1, fewer where it
    stops first."""
    if levels == 0 or not _unresolved(lo, hi):
        return []
    mid = 0.5 * (lo + hi)
    return [(lo, hi)] + _bisection_tree(lo, mid, levels - 1) + _bisection_tree(mid, hi, levels - 1)


def critical_temperature(p: XYZParams, method: str = "closed") -> CriticalTemperature:
    """Critical temperature of the transverse symmetry-breaking solution.

    "closed" returns XYZParams.t_critical, T_c = v_max chi /
    ln[(1+chi)/(1-chi)] (the chi -> 0 limit v_max/2 taken analytically),
    which needs nothing of this module; "numeric" bisects the onset of
    broken_phase_flip in solve_mf to 1e-6 relative.  The bisection runs
    in rounds, each one batch of _solve_rows, walked as the step-by-step
    bisection would walk them, with the same midpoints and stop test, so
    T_c is the same to the last bit.  The first round solves the lowest
    temperature and every midpoint of the path the bisection takes if the
    closed-form T_c is right (_bisection_path); where the walk leaves it,
    each further round solves every bracket of the next TREE_LEVELS steps
    (up to 2**TREE_LEVELS - 1 temperatures).  The closed form only
    schedules temperatures, never decides a verdict, so where it is wrong
    T_c takes at most one round more than trees alone.  Only a midpoint
    the walk visits raises NoConvergence.  Absent (t_c None) whenever
    v_max <= max(vz, 0) or |b| >= v_max - vz.
    """
    if method not in ("closed", "numeric"):
        raise ValueError(f"method must be 'closed' or 'numeric', got {method!r}")
    v_max, chi, t_closed = p.v_max, p.chi, p.t_critical
    if t_closed is None:
        return CriticalTemperature(t_c=None, chi=chi, v_max=v_max, feasible=False)
    if method == "closed":
        return CriticalTemperature(t_c=t_closed, chi=chi, v_max=v_max, feasible=True)

    seeds = _default_seeds(p)

    def solve_round(brackets, *extra):
        """Rows for `extra`, then the midpoint of each bracket."""
        rows = _solve_rows(p, np.array([*extra, *(0.5 * (a + b) for a, b in brackets)]), seeds)
        return rows, {bracket: i for i, bracket in enumerate(brackets, len(extra))}

    lo, hi = _check_temperature(1e-4 * v_max), 0.75 * v_max
    rows, row_of = solve_round(_bisection_path(lo, hi, t_closed), lo)
    if not rows.solution(0).broken_phase_flip:
        return CriticalTemperature(t_c=None, chi=chi, v_max=v_max, feasible=True)
    while _unresolved(lo, hi):
        if (lo, hi) not in row_of:
            rows, row_of = solve_round(_bisection_tree(lo, hi))
        mid = 0.5 * (lo + hi)
        if rows.solution(row_of[lo, hi]).broken_phase_flip:
            lo = mid
        else:
            hi = mid
    return CriticalTemperature(t_c=0.5 * (lo + hi), chi=chi, v_max=v_max, feasible=True)
