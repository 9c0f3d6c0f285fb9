"""Finite-temperature independent-qubit (mean-field) approximation.

The free energy

    F(s_A, s_B) = b (s_A^z + s_B^z) - 2 sum_i v_i s_A^i s_B^i - T [S(s_A) + S(s_B)]

is minimized over product states rho_A (x) rho_B, each qubit
parameterized by an effective field vector lambda with

    <s> = -lambda tanh(|lambda| / 2T) / (2 |lambda|),

which turns stationarity into the self-consistency conditions

    lambda_i^{A,B} = b delta_{iz} - 2 v_i <s_i^{B,A}>.

A transverse (x or y) component of lambda breaks phase-flip symmetry;
lambda^A != lambda^B breaks permutation symmetry.  The transverse
solution exists below the critical temperature

    T_c = v_max * chi / ln[(1+chi)/(1-chi)],   chi = |b| / (v_max - vz),

feasible for v_max > max(vz, 0) and |b| < v_max - vz, with T_c -> v_max/2 as
chi -> 0.  Entropies here are natural-log (thermodynamic convention).

solve_mf returns the least-F point of a complete list of stationary
points, so nothing iterates.  With vx >= |vy| (the canonical sector),
vx s_A^x s_B^x + |vy| s_A^y s_B^y <= vx rho_A rho_B for transverse lengths
rho, so a global minimum can be taken with its transverse part along x,
and its stationary points fall into three families:

- z only: lambda^A = b + vz tanh(lambda^B / 2T) and back.  Among uniform
  ones the largest root is lowest for b >= 0 (split at cosh w =
  sqrt(vz/2T) where vz > 2T).  For vz < 0 the map is decreasing, so there
  is one uniform root lambda_0, and a staggered pair exists iff the map's
  slope at lambda_0 exceeds 1 in size; its square has negative Schwarzian,
  hence at most one pair.
- uniform x: tanh(n/2T) = n/vx, lambda_z = vx chi, which exists iff
  T < T_c and is then the lowest uniform state (XYZParams.t_critical_is_onset).
- canted x: 2 vx kappa = rho and 1/rho on the two qubits (kappa =
  tanh(n/2T)/2n, rho > 1), with z fields b (1 + (vz/vx)/rho)/D and
  b (1 + (vz/vx) rho)/D, D = 1 - (vz/vx)^2; consistency is one chord
  condition on psi(kappa) = kappa n^2, so they exist only for vz^2 > vx^2
  and b > 0, and at most one pair (_canted).

For T >= -vz/2 every global minimum is uniform (the same proof), so the
non-uniform families are solved only below -vz/2.  critical_temperature
is the onset of the minimum's broken phase flip: the closed form T_c
wherever XYZParams.t_critical_is_onset holds (T_c >= -vz/2), and
otherwise found from solve_mf's verdicts.  Every formula is a ratio of
couplings, fields and T, so results scale exactly with the energy unit;
each root is bisected to adjacent floats in their order (_bisect), or
found by a monotone Newton iteration (_nu).
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTemperature
from .model import XYZParams, eigensystem
from .states import _gibbs

__all__ = [
    "MeanFieldSolution",
    "mf_free_energy",
    "exact_free_energy",
    "solve_mf",
    "critical_temperature",
]


@dataclass(frozen=True)
class MeanFieldSolution:
    lambda_a: np.ndarray  # effective field of qubit A, shape (3,)
    lambda_b: np.ndarray
    s_a: np.ndarray  # spin expectation of qubit A, |s| <= 1/2
    s_b: np.ndarray
    free_energy: float
    broken_phase_flip: bool  # uniform or canted x
    broken_permutation: bool  # staggered z or canted x
    #: always True and 0: the minimum is enumerated, nothing iterates
    converged: bool = True
    iterations: int = 0


def _check_temperature(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTemperature(f"mean field needs T > 0, got {t!r}")
    return t


def _qubit(lam, t: float):
    """(<s>, -T S) of one qubit in the field lam at T, with
    exp(-|lam|/T) = e giving tanh = (1 - e)/(1 + e) and
    S = ln(2 cosh x) - x tanh x = 2x e/(1 + e) + ln(1 + e), x = |lam|/2T,
    to full relative accuracy at every T."""
    n = math.hypot(*lam)
    e = math.exp(-n / t)
    m = 0.5 * (1.0 - e) / (1.0 + e)
    return [-m * (c / n) if n > 0.0 else 0.0 for c in lam], -(n * e / (1.0 + e) + t * math.log1p(e))


def _free(p: XYZParams, t: float, lam_a, lam_b):
    """(F, s_A, s_B) of the product state of the fields lam_a, lam_b."""
    s_a, ts_a = _qubit(lam_a, t)
    s_b, ts_b = _qubit(lam_b, t)
    energy = p.b * (s_a[2] + s_b[2]) - 2.0 * (p.vx * s_a[0] * s_b[0] + p.vy * s_a[1] * s_b[1] + p.vz * s_a[2] * s_b[2])
    return energy + (ts_a + ts_b), s_a, s_b


def mf_free_energy(lambda_a, lambda_b, p: XYZParams, temperature: float) -> float:
    """Free energy of the product state defined by the two field vectors.

    Exact for genuinely uncorrelated problems (all couplings zero).
    """
    t = _check_temperature(temperature)
    return _free(p, t, *(np.asarray(lam, dtype=float).tolist() for lam in (lambda_a, lambda_b)))[0]


def exact_free_energy(p: XYZParams, temperature: float) -> float:
    """-T ln Z = E_min - T ln sum_j a_j^2, a_j = exp(-g_j/2T) of the level gaps g_j
    (states._gibbs); lower bound for every product state."""
    t = _check_temperature(temperature)
    eig = eigensystem(p)
    return float(eig.energies.min() - t * np.log(np.square(_gibbs(eig.gaps, t)[1]).sum()))


_DOUBLE, _INT = struct.Struct("<d"), struct.Struct("<q")


def _order(x: float) -> int:
    """The position of x among the floats, as an integer."""
    i = _INT.unpack(_DOUBLE.pack(x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _float(k: int) -> float:
    """The float at position k (the inverse of _order)."""
    return _DOUBLE.unpack(_INT.pack(k if k >= 0 else -k - (1 << 63)))[0]


def _bisect(inside, lo: float, hi: float, unit: float = 1.0) -> tuple[float, float]:
    """unit times adjacent floats lo' < hi' in [lo/unit, hi/unit] with
    inside(unit lo') and not inside(unit hi'), where inside(lo) and not
    inside(hi) are taken as given: each step halves the floats between
    them, so at most 64 steps.  A field bisected in units of a coupling
    scales exactly with the energy unit."""
    a, b = _order(lo / unit), _order(hi / unit)
    while b - a > 1:
        mid = (a + b) // 2
        if inside(unit * _float(mid)):
            a = mid
        else:
            b = mid
    return unit * _float(a), unit * _float(b)


def _nu(a: float, c: float) -> float:
    """The nu > 0 with nu = a tanh(c nu), for a c > 1.  h(nu) = a tanh(c nu) - nu
    is concave and tanh(u) <= u/sqrt(1 + u^2/3), so h <= 0 at
    min(a, sqrt(3 (a^2 c^2 - 1))/c), and Newton from there decreases
    monotonically to the root; it stops where a step no longer decreases nu."""
    nu = min(a, math.sqrt(3.0 * (a * c - 1.0) * (a * c + 1.0)) / c)
    while True:
        e = math.exp(-2.0 * c * nu)
        slope = a * c * 4.0 * e / (1.0 + e) ** 2 - 1.0 if e > 0.0 else -1.0
        step = (a * (1.0 - e) / (1.0 + e) - nu) / slope
        if not nu - step < nu:
            return nu
        nu -= step


def _uniform_z(p: XYZParams, t: float) -> float:
    """The largest root of lambda = b + vz tanh(lambda/2T): the lowest
    uniform z-only state, as b >= 0.  For vz < 0 it is the one root, in
    [0, b], bisected in the floats' order: near 2T atanh(b/|vz|) at low T,
    it may lie below 2^-1074 b.  Where vz > 2T the root function decreases
    between -+lambda*, cosh(lambda*/2T) = sqrt(vz/2T), and is <= -b at
    lambda*, so the root lies above lambda*."""
    b, vz = p.b, p.vz
    inside = lambda lam: lam - b - vz * math.tanh(lam / (2.0 * t)) < 0.0
    if vz < 0.0:
        return _bisect(inside, 0.0, b)[1]
    hi = b + vz
    if hi == 0.0:
        return 0.0
    lo = min(2.0 * t * math.acosh(math.sqrt(vz / (2.0 * t))), hi) if vz > 2.0 * t else b - vz
    return _bisect(inside, lo, hi, hi)[1]


def _uniform_x(p: XYZParams, t: float):
    """The fields of the uniform x branch at T < T_c: |lambda| = vx nu with
    nu = tanh(vx nu/2T), lambda_z = vx chi."""
    nu, chi = _nu(1.0, p.vx / (2.0 * t)), p.chi
    lam = [p.vx * math.sqrt(max((nu - chi) * (nu + chi), 0.0)), 0.0, p.vx * chi]
    return lam, lam


def _staggered(p: XYZParams, t: float, lam0: float):
    """The staggered z pair around the uniform root lam0 (vz < 0), or None:
    it exists iff |vz|/2T sech^2(lam0/2T) > 1, and its lower field is the
    one sign change of H(H(lambda)) - lambda below lam0."""
    vz, b = p.vz, p.b
    e = math.exp(-abs(lam0) / t)
    if not -vz * 4.0 * e / (1.0 + e) ** 2 > 2.0 * t:
        return None
    field = lambda lam: b + vz * math.tanh(lam / (2.0 * t))
    low = _bisect(lambda lam: field(field(lam)) > lam, b + vz, lam0, b - vz)[1]
    return [0.0, 0.0, field(low)], [0.0, 0.0, low]


def _canted(p: XYZParams, t: float):
    """The canted x pair, or None.  With c = vx/2T, 2 vx kappa_A = rho and
    2 vx kappa_B = 1/rho for some rho in (1, c), and nu = |lambda|/vx solves
    nu_A = tanh(c nu_A)/rho and nu_B = rho tanh(c nu_B); the chord
    condition reads

        G(rho) = (nu_B^2/rho - rho nu_A^2)/(1/rho - rho) - (b/vx)^2/D = 0,

    with G monotone (decreasing on every grid tried), nu_A = 0 at rho = c,
    and G(1+) = nu_0^2 (1 + c s)/(c s - 1) - (b/vx)^2/D at the uniform x
    root nu_0, s = sech^2(c nu_0).  Its x components need |lambda| >
    |lambda_z| on A, and lambda_B^x = rho lambda_A^x.  As D < 0 (|vz| > vx),
    (b/vx)^2/D = (b/vz)^2/(q^2 - 1), q = vx/vz, and the z fields over vx,
    (b/vz)(q + 1/rho)/(q^2 - 1) and (b/vz)(q + rho)/(q^2 - 1), never overflow.
    exp(-2 c nu_0) leaves the normal floats only where c nu_0 > 354; c s is
    then below 2^-1000, so its rounding does not move G(1+)'s sign."""
    vx, c = p.vx, p.vx / (2.0 * t)
    if not (p.b > 0.0 and abs(p.vz) > vx and 1.0 < c < math.inf):
        return None
    q, bz = vx / p.vz, p.b / p.vz
    d = (q - 1.0) * (q + 1.0)
    rhs = bz * bz / d

    def g(rho):
        nu_a, nu_b = (_nu(1.0 / rho, c) if rho < c else 0.0), _nu(rho, c)
        return (nu_b / rho * nu_b - rho * nu_a * nu_a) / (1.0 / rho - rho) - rhs

    nu0 = _nu(1.0, c)
    e = math.exp(-2.0 * c * nu0)
    cs = c * 4.0 * e / (1.0 + e) ** 2
    sign = nu0 * nu0 * (1.0 + cs) / (cs - 1.0) - rhs > 0.0
    if sign == (g(c) > 0.0):
        return None
    rho = _bisect(lambda rho: (g(rho) > 0.0) == sign, 1.0, c)[1]
    nu_a = _nu(1.0 / rho, c) if rho < c else 0.0
    z_a, z_b = bz * (q + 1.0 / rho) / d, bz * (q + rho) / d
    if not nu_a > abs(z_a):
        return None
    x_a = math.sqrt((nu_a - abs(z_a)) * (nu_a + abs(z_a)))
    return [vx * x_a, 0.0, vx * z_a], [vx * (rho * x_a), 0.0, vx * z_b]


def solve_mf(p: XYZParams, temperature: float) -> MeanFieldSolution:
    """The global minimum of the product-state free energy at T, the
    least-F point of the enumerated stationary points (module docstring);
    ties keep the first of uniform, staggered, canted.  Its transverse
    part lies along +x; of the staggered and canted pairs, qubit A holds
    the field along b (staggered) or the shorter field (canted)."""
    t, t_c = _check_temperature(temperature), p.t_critical
    x = t_c is not None and t < t_c
    lam0 = None if x and t >= -0.5 * p.vz else _uniform_z(p, t)
    candidates = [(_uniform_x(p, t) if x else ([0.0, 0.0, lam0],) * 2, x, False)]
    if t < -0.5 * p.vz:
        candidates += [(_staggered(p, t, lam0), False, True), (p.vx > 0.0 and _canted(p, t), True, True)]
    best = None
    for fields, flip, perm in candidates:
        if fields:
            f, s_a, s_b = _free(p, t, *fields)
            if best is None or f < best.free_energy:
                best = MeanFieldSolution(*map(np.array, (*fields, s_a, s_b)), f, flip, perm)
    return best


def critical_temperature(p: XYZParams) -> float | None:
    """The onset of the broken phase flip of solve_mf's global minimum, or
    None where it is broken at no temperature.

    Where XYZParams.t_critical_is_onset holds, that is the closed form
    XYZParams.t_critical bit for bit, None included (absent whenever
    v_max <= max(vz, 0) or |b| >= v_max - vz).  Elsewhere (Neel-z models,
    vz < -2 T_c) it is T_c too unless the staggered z pair is the minimum
    at T_c; then the uniform x branch can win only below a first-order
    crossing with it, bisected to adjacent floats of T/T_c between T_c
    and eps T_c (where every Boltzmann factor of an O(T_c) gap
    underflows; or the least tau with T_c tau > 0), and the onset is None
    where the branch does not win there either.
    """
    t_c = p.t_critical
    if p.t_critical_is_onset:
        return t_c
    at_tc = solve_mf(p, t_c)
    if at_tc.broken_permutation and not at_tc.broken_phase_flip:
        broken = lambda tau: solve_mf(p, t_c * tau).broken_phase_flip
        lo = max(sys.float_info.epsilon, math.ulp(0.0) / t_c)
        t_c = t_c * _bisect(broken, lo, 1.0)[1] if broken(lo) else None
    return t_c
