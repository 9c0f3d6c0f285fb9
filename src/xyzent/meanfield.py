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

solve_mf returns the least-F point of a complete list of stationary points,
so nothing iterates.  With vx >= |vy| (the canonical sector),
vx s_A^x s_B^x + |vy| s_A^y s_B^y <= vx rho_A rho_B for transverse lengths
rho, so a global minimum can be taken with its transverse part along x.  A
qubit in a field of length n has spin length m = tanh(n/2T)/2 and
k = n/m = 2n coth(n/2T), both rising with n (k from 4T); stationarity reads
k_A s_A = 2 V s_B - b z, k_B s_B = 2 V s_A - b z with V = diag(v), and the
x rows give k_A k_B = 4 vx^2 where s^x != 0.  The minimum is in one of:

- z only: lambda^A = b + vz tanh(lambda^B / 2T) and back.  Among uniform
  ones the largest root is lowest for b >= 0 (split at cosh w =
  sqrt(vz/2T) where vz > 2T).  For vz < 0 the map is decreasing, so there
  is one uniform root lambda_0, and a staggered pair exists iff the map's
  slope at lambda_0 exceeds 1 in size; its square has negative Schwarzian,
  hence at most one pair.
- uniform x (k_A = k_B = 2 vx): tanh(n/2T) = n/vx, lambda_z = vx chi, which
  exists iff T < T_c and is then the lowest uniform state
  (XYZParams.t_critical_is_onset).  The z rows then give s_A = s_B, or,
  at b = 0 = vx + vz, mirror images in z with the uniform state's F.

The canted x pairs (s^x != 0, k_A != k_B) are saddles, never a minimum.

Proof.  Take k_A < k_B, so m_A < m_B; write s = (p, z) in the xz plane
that holds the pair, and D = vz^2 - vx^2.  The z rows give
4 D (z_B - z_A) = b (k_A - k_B), and with the x rows
k_A m_A^2 - k_B m_B^2 = b (z_B - z_A) < 0; hence D > 0 and b != 0.  The
Hessian of -TS at s is k across s and r = T/(1/4 - m^2) > k along it, so
on the plane F's Hessian is H = K + gamma_A v_A v_A^T + gamma_B v_B v_B^T,
K = [[k_A, -2V], [-2V, k_B]], v_A = (s_A, 0), v_B = (0, s_B) and
gamma = (r - k)/m^2 > 0.  K's x block is singular, so det K = 0 and
adj K = -4 D adj(K_x) on the x rows; expanding det H in the two rank-one
terms, with pi = k_A p_A^2 = k_B p_B^2 and the z rows in the tangent block,

    det H = 4 D pi [gamma_A gamma_B (m_B^2 - m_A^2)/(k_B - k_A) - gamma_A k_B/k_A - gamma_B k_A/k_B].

At fixed T, dk/dm = (r - k)/m, so 1/gamma = M'(k)/2 for M(k) = m^2, and
with G(k) = k^2 M(k) = n^2,

    det H = -(2 D pi gamma_A gamma_B/(k_A k_B)) [G'(k_A) + G'(k_B) - 2 (G(k_B) - G(k_A))/(k_B - k_A)],

whose bracket is 2/(k_B - k_A) times the excess of the trapezoid rule
over the integral of G' on [k_A, k_B], positive as G''' > 0 (below).  So
det H < 0: H has a negative eigenvalue, and F decreases along its vector.

G''' > 0.  With x = n/2T, k = 4T x coth x and G = 4T^2 x^2, so
G''' = N(2x)/(32 T (sinh 2x - 2x)^5), where N(t), an odd function, is

    (t^2 + 6) sinh 4t - 6t cosh 4t - 12 (t^2 + 3) sinh 3t + 4t (t^2 + 9) cosh 3t + 2 (19 t^2 + 42) sinh 2t
    - 12t (t^2 + 8) cosh 2t - 4 (11 t^2 + 21) sinh t + 12t (t^2 + 13) cosh t - 4 t^3 - 90 t

and its t^j coefficient, j odd, is 4 c_j/j! less the polynomial's, with
c_j = 4^(j-3) (j^2 - 25j + 96) + 3^(j-3) (j^3 - 12j^2 + 92j - 243)
      - 2^(j-3) (3j^3 - 28j^2 + 121j - 168) + 3j^3 - 20j^2 + 56j - 21.
c_1 = 45/2 and c_3 = 6 cancel the polynomial, c_5 ... c_13 = 0, and c_15,
c_17, c_19 = 34594560, 2352430080, 95429228544.  For j >= 5 the second and
last terms are positive and the third is above -2^(j-3) 3j^3, and for
j >= 21 the first is at least 12 4^(j-3) > 2^(j-3) 3j^3, so c_j > 0.  So
N(t) > 0 for t > 0.  tests/test_meanfield.py checks the c_j, and N and
det H at 50 digits.

For T >= -vz/2 every global minimum is uniform (the same proof), so the
staggered pair is solved only below -vz/2.  critical_temperature is the
onset of the minimum's broken phase flip: the closed form T_c wherever
XYZParams.t_critical_is_onset holds (T_c >= -vz/2), and otherwise found from
solve_mf's verdicts.  Every formula is a ratio of couplings, fields and T,
so results scale exactly with the energy unit; each root is bisected to
adjacent floats in their order (_bisect), or found by a monotone Newton
iteration (_nu).  The exact free energy -T ln Z, which bounds every product
state's F from below, is an oracle in linalg (exact_free_energy)."""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTemperature
from .model import XYZParams
from .model import eigensystem  # noqa: F401  (kept bound for tracing)

__all__ = [
    "MeanFieldSolution",
    "mf_free_energy",
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
    broken_phase_flip: bool  # uniform x
    broken_permutation: bool  # staggered z
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


def _nu(c: float) -> float:
    """The nu > 0 with nu = tanh(c nu), for c > 1.  h(nu) = tanh(c nu) - nu
    is concave and tanh(u) <= u/sqrt(1 + u^2/3), so h <= 0 at
    min(1, sqrt(3 (c^2 - 1))/c), and Newton from there decreases
    monotonically to the root; it stops where a step no longer decreases nu."""
    nu = min(1.0, math.sqrt(3.0 * (c - 1.0) * (c + 1.0)) / c)
    while True:
        e = math.exp(-2.0 * c * nu)
        slope = c * 4.0 * e / (1.0 + e) ** 2 - 1.0 if e > 0.0 else -1.0
        step = ((1.0 - e) / (1.0 + e) - nu) / slope
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
    nu, chi = _nu(p.vx / (2.0 * t)), p.chi
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


def solve_mf(p: XYZParams, temperature: float) -> MeanFieldSolution:
    """The global minimum of the product-state free energy at T, the
    least-F point of the enumerated stationary points (module docstring);
    ties keep the uniform state.  Its transverse part lies along +x; of
    the staggered pair, qubit A holds the field along b."""
    t, t_c = _check_temperature(temperature), p.t_critical
    x = t_c is not None and t < t_c
    lam0 = None if x and t >= -0.5 * p.vz else _uniform_z(p, t)
    candidates = [(_uniform_x(p, t) if x else ([0.0, 0.0, lam0],) * 2, x, False)]
    if t < -0.5 * p.vz:
        candidates.append((_staggered(p, t, lam0), False, True))
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
