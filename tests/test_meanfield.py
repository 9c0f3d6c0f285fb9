import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xyzent.errors import InvalidTemperature
from xyzent.linalg import exact_free_energy
from xyzent.meanfield import (
    _qubit,
    critical_temperature,
    mf_free_energy,
    solve_mf,
)
from xyzent.model import canonicalize

from conftest import NEEL_Z_MODELS, log_uniform, neel_z_family, random_canonical_params

XCHAIN = canonicalize(1.0, 0.0, 0.0, 0.0)  # v_max = 1, T_c = 1/2


def gap_equation_magnetization(v, t):
    """Scalar bisection for m = tanh(v m / t) / 2 with m > 0."""
    lo, hi = 1e-12, 0.5
    f = lambda m: 0.5 * math.tanh(v * m / t) - m
    if f(lo) <= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFreeEnergy:
    def test_zero_fields(self):
        f = mf_free_energy(np.zeros(3), np.zeros(3), XCHAIN, 0.7)
        assert abs(f - (-2 * 0.7 * math.log(2))) < 1e-14

    def test_noninteracting_exactness(self):
        # b only: the mean field reproduces the exact two-spin free energy
        p = canonicalize(0.0, 0.0, 0.0, 1.0)
        lam = np.array([0.0, 0.0, 1.0])
        for t in (0.2, 0.5, 1.0, 3.0):
            expected = -2 * t * math.log(2 * math.cosh(0.5 / t))
            assert abs(mf_free_energy(lam, lam, p, t) - expected) < 1e-12
            assert abs(exact_free_energy(p, t) - expected) < 1e-12

    def test_broken_beats_symmetric_below_tc(self):
        t = 0.25
        m = gap_equation_magnetization(1.0, t)
        lam = np.array([2.0 * m, 0.0, 0.0])  # lambda_x = -2 v_x s_x
        f_broken = mf_free_energy(lam, lam, XCHAIN, t)
        f_sym = mf_free_energy(np.zeros(3), np.zeros(3), XCHAIN, t)
        assert f_broken < f_sym

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidTemperature):
            mf_free_energy(np.zeros(3), np.zeros(3), XCHAIN, 0.0)


class TestQubitExpectations:
    """<s> of one qubit in an effective field, as solve_mf's free energy uses it."""

    def test_zero_field(self):
        assert _qubit(np.zeros(3), 1.0)[0] == [0.0, 0.0, 0.0]

    def test_saturation(self):
        s = _qubit(np.array([0.0, 0.0, 100.0]), 0.01)[0]
        assert abs(s[2] + 0.5) < 1e-12

    def test_self_consistency_relation(self, rng):
        for _ in range(20):
            lam = rng.normal(size=3)
            t = float(log_uniform(rng, 0.05, 5.0))
            s = _qubit(lam, t)[0]
            norm = np.linalg.norm(lam)
            assert abs(np.linalg.norm(s) - 0.5 * math.tanh(0.5 * norm / t)) < 1e-9


class TestSolveMF:
    def test_symmetric_above_tc(self):
        sol = solve_mf(XCHAIN, 0.6)
        assert sol.converged
        assert not sol.broken_phase_flip
        assert not sol.broken_permutation
        assert_allclose(sol.lambda_a, np.zeros(3), atol=1e-9)
        assert sol.s_a.tolist() == sol.s_b.tolist() == [0.0, 0.0, 0.0]  # zero field, zero spin

    def test_broken_below_tc_solves_gap_equation(self):
        t = 0.25
        sol = solve_mf(XCHAIN, t)
        assert sol.broken_phase_flip and sol.converged
        m = gap_equation_magnetization(1.0, t)
        assert abs(abs(sol.s_a[0]) - m) < 1e-9
        assert 0.0 < m < 0.5
        # far below T_c the spin saturates at 1/2 to the last bit
        assert solve_mf(XCHAIN, 1e-3).s_a.tolist() == [-0.5, 0.0, 0.0]

    def test_permutation_symmetric_ferromagnet(self, rng):
        for t in (0.1, 0.3, 0.8):
            sol = solve_mf(canonicalize(1.0, 0.4, 0.2, 0.3), t)
            assert_allclose(sol.lambda_a, sol.lambda_b, atol=1e-8)
            assert not sol.broken_permutation

    def test_sign_degeneracy(self):
        # the minimum's transverse part lies along +x; its mirror image has the same F
        t = 0.3
        sol = solve_mf(XCHAIN, t)
        assert sol.lambda_a[0] > 0.0
        flip = np.array([-1.0, 1.0, 1.0])
        assert mf_free_energy(flip * sol.lambda_a, flip * sol.lambda_b, XCHAIN, t) == sol.free_energy

    def test_self_consistency_residual(self, rng):
        v = np.array([0, 0, 0.0])
        for _ in range(10):
            vx, vy, vz, b = log_uniform(rng, 0.1, 3.0, size=4)
            p = canonicalize(vx, vy, vz * rng.choice([-1.0, 1.0]), b)
            t = float(log_uniform(rng, 0.05, 3.0))
            sol = solve_mf(p, t)
            vvec = np.array([p.vx, p.vy, p.vz])
            bvec = np.array([0.0, 0.0, p.b])
            res_a = sol.lambda_a - (bvec - 2 * vvec * sol.s_b)
            res_b = sol.lambda_b - (bvec - 2 * vvec * sol.s_a)
            assert np.abs(res_a).max() < 1e-9 * max(1, p.energy_scale)
            assert np.abs(res_b).max() < 1e-9 * max(1, p.energy_scale)
            assert abs(np.linalg.norm(sol.s_a) - 0.5 * math.tanh(
                0.5 * np.linalg.norm(sol.lambda_a) / t)) < 1e-9

    def test_rejects_zero_temperature(self):
        with pytest.raises(InvalidTemperature):
            solve_mf(XCHAIN, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_temperature(self, t):
        # at T = 0 the tanh argument divides by zero; at T < 0 the spin
        # would take the wrong sign
        with pytest.raises(InvalidTemperature):
            solve_mf(XCHAIN, t)

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 3, 2), (6,)])
    def test_rejects_bad_seed_shape(self, shape):
        # the minimum is enumerated: solve_mf takes no seeds of any shape
        with pytest.raises(TypeError, match="seeds"):
            solve_mf(XCHAIN, 0.3, seeds=np.zeros(shape))


def _max_residual(p, sol):
    v = np.array([p.vx, p.vy, p.vz])
    b = np.array([0.0, 0.0, p.b])
    return max(
        np.abs(sol.lambda_a - (b - 2 * v * sol.s_b)).max(),
        np.abs(sol.lambda_b - (b - 2 * v * sol.s_a)).max(),
    )


#: models on which the former iterative solver's Newton polish once failed
_POLISH_REGRESSIONS = [
    # stop rule: a polish that stopped as soon as the residual was below
    # tolerance accepted non-roots near T_c and moved T_c by 8e-6
    pytest.param(
        canonicalize(4004660.677592519, 2952603.4204812893, 949004.5412642648, 2113942.929786735),
        None,
        id="stop_rule",
    ),
    # |vx| = |vy|: the broken root is degenerate along the Goldstone direction
    pytest.param(
        canonicalize(8.890061109800813e42, -8.890061109800813e42, 0.0, 8.112159671074608e42),
        None,
        id="singular_jacobian",
    ),
    # the damped iteration ended in a 2-cycle near the uniform z root, which
    # vz = -72 makes a saddle: the minimum is the staggered z pair
    pytest.param(
        canonicalize(4.561518660819901, 4.266003906532173, -71.71507665235677, 9.339780289050124),
        0.012324222183123517,
        id="two_cycle",
    ),
    # norms of fields beyond ~1e154 must not square their components
    *(
        pytest.param(canonicalize(*(s * x for x in (1.0, 0.3, 0.1, 0.4))), None, id=f"scale_{s:.0e}")
        for s in (1e200, 1e300)
    ),
]


@pytest.mark.parametrize("p, t", _POLISH_REGRESSIONS)
def test_newton_polish_regressions(p, t):
    if t is None:
        closed = p.t_critical
        numeric = critical_temperature(p)
        assert abs(numeric - closed) <= 2e-6 * closed
        return
    sol = solve_mf(p, t)
    assert _max_residual(p, sol) < 1e-9 * max(1.0, p.energy_scale)
    assert not sol.broken_phase_flip and sol.broken_permutation
    assert sol.lambda_a[2] > 0.0 > sol.lambda_b[2]
    # the uniform z root the iteration used to return lies far above it
    uniform = np.array([0.0, 0.0, 0.003227286273768])
    assert sol.free_energy < mf_free_energy(uniform, uniform, p, t) - 35.0


class TestCriticalTemperature:
    def test_zero_field_limit(self):
        tc = critical_temperature(canonicalize(1.0, 0.0, 0.0, 1e-6))
        assert abs(tc - 0.5) < 1e-6
        tc0 = critical_temperature(XCHAIN)
        assert tc0 == 0.5

    def test_half_chi(self):
        tc = critical_temperature(canonicalize(1.0, 0.0, 0.0, 0.5))
        assert abs(tc - 0.5 / math.log(3.0)) < 1e-12

    def test_closed_vs_numeric(self):
        p = canonicalize(1.0, 0.0, 0.0, 0.5)
        closed = p.t_critical
        numeric = critical_temperature(p)
        assert abs(closed - numeric) / closed < 1e-4

    def test_absent_above_critical_field(self):
        p = canonicalize(1.0, 0.0, 0.0, 1.5)
        assert critical_temperature(p) is None and p.t_critical is None

    def test_absent_for_dominant_zz(self):
        # v_max <= vz, and v_max = 0 (nothing transverse to break) with vz < 0
        for p in (canonicalize(0.5, 0.5, 1.0, 0.1), canonicalize(0, 0, -1, 0.2)):
            assert critical_temperature(p) is None and p.t_critical is None, p

    def test_monotone_decreasing_in_chi(self):
        chis = [0.05, 0.2, 0.5, 0.8, 0.95, 0.999]
        tcs = [critical_temperature(canonicalize(1.0, 0.0, 0.0, c)) for c in chis]
        assert all(a > b for a, b in zip(tcs, tcs[1:]))
        assert tcs[-1] < 0.14  # T_c -> 0 as chi -> 1

    def test_insensitive_to_weaker_coupling(self):
        # broken solution and T_c depend only on max(vx, vy)
        ref = solve_mf(canonicalize(1.0, 0.0, 0.0, 0.2), 0.3)
        for vy in (0.2, 0.5, 0.9):
            p = canonicalize(1.0, vy, 0.0, 0.2)
            sol = solve_mf(p, 0.3)
            assert abs(sol.free_energy - ref.free_energy) < 1e-9
            assert abs(critical_temperature(p) - critical_temperature(canonicalize(1.0, 0.0, 0.0, 0.2))) < 1e-12


def _ref_numeric_tc(p):
    """The onset of solve_mf's broken phase flip as a step-by-step bisection
    of its verdicts between 1e-4 v_max and 0.75 v_max, to 1e-6 relative."""
    if p.t_critical is None:
        return None
    lo, hi = 1e-4 * p.v_max, 0.75 * p.v_max
    if not solve_mf(p, lo).broken_phase_flip:
        return None
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if solve_mf(p, mid).broken_phase_flip else (lo, mid)
    return 0.5 * (lo + hi)


def _seeded_tc_models():
    """Low, mid and high chi, chi > 1 and v_max <= vz, at energy scales
    from 1e-300 to 1e300."""
    rng = np.random.default_rng(20261018)
    chi_range = {"low": (0.0, 0.05), "mid": (0.3, 0.7), "high": (0.9, 0.95), "field": (1.05, 2.0)}
    models = []
    for kind in ("low", "mid", "high", "field", "zz"):
        for k in range(4):
            vy = rng.uniform(-0.9, 0.9)  # v_max = 1 before scaling
            if kind == "zz":
                vz, b = rng.uniform(1.05, 1.5), rng.uniform(0.0, 1.0)
            else:
                vz = rng.uniform(-0.5, 0.5)
                b = rng.uniform(*chi_range[kind]) * (1.0 - vz)
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            p = canonicalize(scale, scale * vy, scale * vz, scale * b)
            models.append(pytest.param(p, id=f"{kind}{k}"))
    return models


#: a Neel-z model whose staggered z pair wins at every T below T_c: no onset
NEEL_MISS = canonicalize(0.865, 0.192, -2.775, 0.877)

_TC_MODELS = [
    *(pytest.param(case.values[0], id=case.id) for case in _POLISH_REGRESSIONS),
    pytest.param(XCHAIN, id="xchain"),
    pytest.param(NEEL_MISS, id="neel_miss"),
    *_seeded_tc_models(),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", _TC_MODELS)
def test_numeric_tc_matches_sequential_bisection(p):
    # the numeric onset agrees with solve_mf's verdicts, bisected one by one
    t_c, ref = critical_temperature(p), _ref_numeric_tc(p)
    assert (t_c is None) == (ref is None)
    if ref is not None:
        assert abs(t_c - ref) <= 1e-6 * ref


class TestVariationalBound:
    def test_mean_field_above_exact(self, rng):
        for _ in range(60):
            vx, vy, vz, b = log_uniform(rng, 1e-2, 1e1, size=4)
            p = canonicalize(vx, -vy, vz * rng.choice([-1.0, 1.0]), b)
            t = float(log_uniform(rng, 5e-2, 1e1))
            sol = solve_mf(p, t)
            assert sol.free_energy >= exact_free_energy(p, t) - 1e-9


# ---------------------------------------------------------------------------
# solve_mf and the onset against a multi-start minimization of F
# ---------------------------------------------------------------------------

#: a Neel-z model whose staggered z minimum the former iterative solver missed
NEEL_REPRO = canonicalize(0.4276, 0.2210, -3.0231, 0.1091)


def _certified_models():
    """Seeded certified models of every family: low, mid and high chi,
    just above the level crossing, xx and maximal anisotropy, and near the
    certificate's boundary, -vz/2 < T_c < -0.65 vz, at energy scales from
    1e-300 to 1e300."""
    rng = np.random.default_rng(20261019)
    chi_range = {"low": (0.0, 0.05), "mid": (0.3, 0.7), "high": (0.9, 0.95)}

    def draw(kind):
        v_minus = rng.uniform(0.0, 0.9)
        v_max = 1.0 + v_minus
        if kind in chi_range:
            vz = rng.uniform(-0.5, 0.5)
            return 1.0 + v_minus, 1.0 - v_minus, vz, rng.uniform(*chi_range[kind]) * (v_max - vz)
        if kind == "reentry":
            vz = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.6)
            b = math.sqrt((1.0 - vz) ** 2 - v_minus**2) * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
            return 1.0 + v_minus, 1.0 - v_minus, vz, b
        if kind == "xx":
            return 1.0, 1.0, 0.0, rng.uniform(0.0, 0.95)
        if kind == "max_anisotropy":
            return 1.0, -1.0, 0.0, rng.uniform(0.0, 0.95)
        # boundary: T_c = ratio (-vz/2) with ratio - 1 log-uniform in [1e-3, 0.3],
        # or in [1e-6, 1e-3] at the edge
        ratio = 1.0 + 10.0 ** (rng.uniform(-6.0, -3.0) if kind == "edge" else rng.uniform(-3.0, math.log10(0.3)))
        vz = -rng.uniform(0.1, 0.95) * v_max / ratio
        chi = _bisect(lambda c: c / math.atanh(c) + ratio * vz / v_max, 1e-300, math.nextafter(1.0, 0.0))
        return 1.0 + v_minus, 1.0 - v_minus, vz, chi * (v_max - vz)

    models = []
    for kind, n in [*((k, 3) for k in (*chi_range, "reentry", "xx", "max_anisotropy")), ("boundary", 8), ("edge", 4)]:
        k = 0
        while k < n:
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            p = canonicalize(*(scale * x for x in draw(kind)))
            if p.t_critical is not None and p.t_critical_is_onset:
                models.append(pytest.param(p, kind, id=f"{kind}{k}"))
                k += 1
    return models


def _ball_free_energy(y, v, b, t):
    """F and dF/dy of rows of six unconstrained numbers y, which give the
    spins s = tanh(|y|) y/(2|y|) of A and B inside the ball |s| < 1/2, with
    S = ln(2 cosh |y|) - |y| tanh |y|; couplings and T in one unit."""
    y = y.reshape(-1, 2, 3)
    r = np.hypot.reduce(y, axis=2)
    th = np.tanh(r)
    u = np.divide(y, r[..., None], out=np.zeros_like(y), where=r[..., None] > 0.0)
    s = 0.5 * th[..., None] * u
    entropy = (np.logaddexp(r, -r) - r * th).sum(axis=1)
    f = b * s[..., 2].sum(axis=1) - 2.0 * (v * s[:, 0] * s[:, 1]).sum(axis=1) - t * entropy
    # dF/ds, then the chain rule through s(y): radial sech^2/2, tangential tanh(r)/2r
    grad_s = b * np.eye(3)[2] - 2.0 * v * s[:, ::-1] + 2.0 * t * r[..., None] * u
    along = (grad_s * u).sum(axis=2, keepdims=True)
    across = np.divide(0.5 * th, r, out=np.full_like(r, 0.5), where=r > 0.0)[..., None]
    grad = 0.5 * (1.0 - th * th)[..., None] * along * u + across * (grad_s - along * u)
    return f, grad.reshape(-1, 6), s


#: the fixed starts (A then B): small and symmetric, uniform x, staggered z
#: either way, canted x either way
_STARTS = np.array(
    [
        [0.1, 0.0, 0.1, 0.1, 0.0, 0.1],
        [2.0, 0.0, 0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 0.0, -2.0],
        [0.0, 0.0, -2.0, 0.0, 0.0, 2.0],
        [1.0, 0.0, 1.0, 1.0, 0.0, -1.0],
        [1.0, 0.0, -1.0, 1.0, 0.0, 1.0],
    ]
)


def _multi_start_minimum(p, t, rng, h=1e-6):
    """(F, broken) of the lowest local minimum of F reached from the fixed
    starts and four random ones, broken where a transverse spin exceeds
    1e-4.  Each start takes saddle-free Newton steps (the Hessian from
    central differences of the gradient, its eigenvalues taken in size),
    halved until F decreases, until its gradient is below 1e-11 or no
    step decreases F."""
    scale = p.energy_scale
    args = (np.array([p.vx, p.vy, p.vz]) / scale, p.b / scale, t / scale)
    y = np.concatenate([_STARTS, 2.0 * rng.normal(size=(4, 6))])
    f, g, _ = _ball_free_energy(y, *args)
    live, probe = np.arange(len(y)), h * np.concatenate([np.eye(6), -np.eye(6)])
    for _ in range(100):
        live = live[np.abs(g[live]).max(axis=1) > 1e-11]
        if live.size == 0:
            break
        near = _ball_free_energy((y[live, None, :] + probe).reshape(-1, 6), *args)[1].reshape(-1, 12, 6)
        hess = (near[:, :6] - near[:, 6:]) / (2.0 * h)
        w, vec = np.linalg.eigh(0.5 * (hess + hess.transpose(0, 2, 1)))
        step = -np.einsum("kij,kj->ki", vec, np.einsum("kji,kj->ki", vec, g[live]) / np.maximum(np.abs(w), 1e-12))
        moved = np.zeros(live.size, dtype=bool)
        for _ in range(30):
            todo = np.flatnonzero(~moved)
            if todo.size == 0:
                break
            trial = y[live[todo]] + step[todo]
            f_t, g_t, _ = _ball_free_energy(trial, *args)
            ok = f_t < f[live[todo]]
            done = live[todo[ok]]
            y[done], f[done], g[done] = trial[ok], f_t[ok], g_t[ok]
            moved[todo[ok]] = True
            step[todo] *= 0.5
        live = live[moved]
    best = np.argmin(f)
    s = _ball_free_energy(y[best], *args)[2][0]
    return f[best] * scale, bool(np.hypot(s[:, 0], s[:, 1]).max() > 1e-4)


def _bisect(f, lo, hi):
    """A root of f between lo and hi, where f changes sign, to 2^-110 of hi - lo."""
    positive = f(lo) > 0
    for _ in range(110):
        mid = (lo + hi) / 2
        if (f(mid) > 0) == positive:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _broken_gain(p, t):
    """(gain, F) at T < T_c, in 30-digit arithmetic: F of the transverse
    branch of uniform states, and the gain by which it lies below the
    lowest z-only uniform state, the free energy a broken verdict wins by."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        v, vz, b, t = (mpmath.mpf(x) for x in (p.v_max, p.vz, p.b, t))
        half = mpmath.mpf(1) / 2

        def free(sx, sz):
            m = mpmath.sqrt(sx * sx + sz * sz)
            entropy = sum(x * mpmath.log(x) for x in (half + m, half - m) if x > 0)
            return 2 * b * sz - 2 * v * sx * sx - 2 * vz * sz * sz + 2 * t * entropy

        # broken: tanh(n/2T) = n/v_max, |s| = n/(2 v_max), s_z = -chi/2
        n = _bisect(lambda n: mpmath.tanh(n / (2 * t)) - n / v, v * mpmath.mpf(10) ** -20, v)
        sz = -b / (2 * (v - vz))
        broken = free(mpmath.sqrt((n / (2 * v)) ** 2 - sz * sz), sz)
        # z-only: every minimum of F(0, s_z) on (-1/2, 0], located on a grid, and s_z = 0
        slope = lambda m: 2 * b - 4 * vz * m + 4 * t * mpmath.atanh(2 * m)
        grid = [-half + mpmath.mpf(10) ** -28] + [-half + half * mpmath.mpf(k) / 64 for k in range(1, 65)]
        minima = [_bisect(slope, lo, hi) for lo, hi in zip(grid, grid[1:]) if slope(lo) < 0 <= slope(hi)]
        z_only = min(free(0, m) for m in [*minima, mpmath.mpf(0)])
        return float(z_only - broken), float(broken)


def _resolved(p, t):
    """Whether the broken branch wins at t by more than 8 ulps of |F|, so a
    double-precision comparison of free energies can see it."""
    gain, f = _broken_gain(p, t)
    return gain > 8.0 * math.ulp(1.0) * abs(f)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, kind", _certified_models())
def test_certified_closed_form_is_the_multi_start_onset(p, kind):
    t_c, tau = p.t_critical, -0.5 * p.vz
    rng = np.random.default_rng(20261019)
    below = t_c * (1.0 - 1e-3)
    # near chi = 1 the broken gain vanishes like (1 - chi)^2, below what a
    # double-precision free energy resolves (test_unresolved_gain_near_chi_one)
    check_below = below > tau and _resolved(p, below)
    assert kind in ("boundary", "edge") or (check_below and _resolved(p, t_c * (1.0 - 2e-6)))
    temps = [t_c * 1.5, t_c * (1.0 + 1e-3)] + [below] * check_below
    for t, broken in zip(temps, (False, False, True)):
        # the lowest free energy over every start is unbroken above T_c,
        # broken just below, and no lower than solve_mf's
        f, oracle_broken = _multi_start_minimum(p, t, rng)
        sol = solve_mf(p, t)
        assert oracle_broken == sol.broken_phase_flip == broken, t
        assert f >= sol.free_energy - 1e-14 * p.energy_scale, t
    # the certified closed form is the numeric onset, bit for bit
    assert critical_temperature(p) == t_c


def test_boundary_family_is_mostly_resolved():
    # the oracle's verdicts are not vacuous near the certificate's boundary
    boundary = [case.values[0] for case in _certified_models() if case.values[1] in ("boundary", "edge")]
    resolved = [p for p in boundary if _resolved(p, p.t_critical * (1.0 - 2e-6))]
    below = [p for p in boundary if p.t_critical * (1.0 - 1e-3) > -0.5 * p.vz]
    assert len(resolved) >= 6 and sum(_resolved(p, p.t_critical * (1.0 - 1e-3)) for p in below) >= 4


def test_unresolved_gain_near_chi_one():
    # certified at chi = 1 - 8e-7, where the broken minimum wins by less than
    # rounding, so no comparison of free energies could place the onset; the
    # numeric onset is the certified closed form and compares none
    p = canonicalize(4.297213449286957e37, 1.7503162380788435e37, -5.256414461862536e36, 4.822851165038169e37)
    assert p.t_critical_is_onset and 1.0 - p.chi < 1e-6
    assert not _resolved(p, p.t_critical * (1.0 - 2e-6))
    assert critical_temperature(p) == p.t_critical


def test_neel_z_models_are_not_certified():
    for p in NEEL_Z_MODELS:
        assert p.t_critical is not None and not p.t_critical_is_onset, p


def test_neel_z_family_onsets():
    # 29 have no onset, 28 the closed form and 3 a crossing below it
    kinds = []
    for p in neel_z_family():
        t_c = critical_temperature(p)
        kinds.append("none" if t_c is None else "closed" if t_c == p.t_critical else "crossing")
        assert t_c is None or t_c <= p.t_critical
    assert (kinds.count("none"), kinds.count("closed"), kinds.count("crossing")) == (29, 28, 3)


#: float.hex of critical_temperature on NEEL_Z_MODELS, then neel_z_family(),
#: pinned while solve_mf still weighed the canted x pairs: dropping those
#: saddles moved no onset
NEEL_Z_ONSETS = [
    None, None, None, '0x1.0634e8d39a681p-1', None, None, '0x1.0941971cb6c6bp+0', None,
    '0x1.585e906526ca3p+0', '0x1.056be5c7b6e4ep-1', '0x1.67d1d7e0928b0p-2', None,
    '0x1.e4e6d88ca82fdp-3', None, '0x1.3a2af17f0f904p+0', None, '0x1.09e2149516677p+0',
    '0x1.fb0bb1acaaa00p-1', None, '0x1.1eb581f2abbc6p+0', '0x1.3732def307e03p-2',
    '0x1.196d1277e8c53p+0', '0x1.36c4d29d5a1f8p-1', '0x1.023379802de8ep+0', '0x1.1279ca195a4a6p-1',
    None, '0x1.65a5d1efb4c62p-1', None, None, '0x1.4d9084bcf74f6p-2', None, None,
    '0x1.560347c7350adp-1', None, '0x1.cdc63700b6e0dp-1', '0x1.185b071b87049p-1',
    '0x1.d2510b121a442p-2', None, None, '0x1.8a16b003b55a5p-2', '0x1.2c25352e693efp+0',
    '0x1.56d879708ecf8p+0', None, None, '0x1.4ee8cf88cac24p-1', '0x1.2d983086e28fcp+0', None,
    '0x1.db8c65769f069p-2', '0x1.074609f96557ep+0', None, None, None, None, '0x1.177c57b010948p+0',
    None, None, '0x1.3a482784de574p+0', None, None, None, None, '0x1.12e345ce46c65p+0', None,
    '0x1.25bd98b6dc216p-1',
]


def test_neel_z_onsets_are_pinned():
    onsets = [critical_temperature(p) for p in [*NEEL_Z_MODELS, *neel_z_family()]]
    assert [None if t is None else t.hex() for t in onsets] == NEEL_Z_ONSETS


def _canted_pair(mp, t, x_a, x_b, q):
    """The canted x pair (vx, vz, b, s_A, s_B, k) at field lengths n = 2T x
    (x_a < x_b) and vz = q vx (|q| > 1), or None: vx from k_A k_B = 4 vx^2,
    b from the chord k_A m_A^2 - k_B m_B^2 = b (z_B - z_A), and the z rows
    solved (meanfield module docstring)."""
    m = [mp.tanh(x) / 2 for x in (x_a, x_b)]
    k = [4 * t * x * mp.coth(x) for x in (x_a, x_b)]
    vx = mp.sqrt(k[0] * k[1]) / 2
    vz = q * vx
    d = vz**2 - vx**2
    b = mp.sqrt(4 * d * (k[1] * m[1] ** 2 - k[0] * m[0] ** 2) / (k[1] - k[0]))
    z_a, z_b = b * (k[1] + 2 * vz) / (4 * d), b * (k[0] + 2 * vz) / (4 * d)
    if not m[0] ** 2 > z_a**2:
        return None
    p_a = mp.sqrt(m[0] ** 2 - z_a**2)
    return vx, vz, b, (p_a, z_a), (k[0] * p_a / (2 * vx), z_b), k


def test_canted_pairs_are_saddles():
    # at 200 canted x pairs built at 50 digits (either sign of vz, T over
    # four decades), F's Hessian in the spins on the xz plane has the
    # determinant the module docstring derives, and it is negative
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    found = 0
    with mp.workdps(50):
        while found < 200:
            t = mp.mpf(10.0 ** rng.uniform(-3.0, 1.0))
            x_a = mp.mpf(10.0 ** rng.uniform(-3.0, 1.0))
            x_b = x_a * (1 + mp.mpf(10.0 ** rng.uniform(-6.0, 0.3)))
            q = (1 + mp.mpf(10.0 ** rng.uniform(-4.0, 1.0))) * rng.choice([-1, 1])
            pair = _canted_pair(mp, t, x_a, x_b, q)
            if pair is None:
                continue
            found += 1
            vx, vz, b, s_a, s_b, k = pair
            v = (vx, vz)
            h = mp.zeros(4, 4)
            gamma = []
            for j, (s, x) in enumerate(((s_a, x_a), (s_b, x_b))):
                m2 = s[0] ** 2 + s[1] ** 2
                assert abs(mp.sqrt(m2) - mp.tanh(x) / 2) < mp.mpf(10) ** -45
                gamma.append((4 * t * mp.cosh(x) ** 2 - k[j]) / m2)
                for i in range(2):
                    h[2 * j + i, 2 * (1 - j) + i] = -2 * v[i]
                    for l in range(2):
                        h[2 * j + i, 2 * j + l] = k[j] * (i == l) + gamma[j] * s[i] * s[l]
            # stationarity: k_A s_A = 2 V s_B - b z, and back
            for s, o, kj in ((s_a, s_b, k[0]), (s_b, s_a, k[1])):
                assert abs(kj * s[0] - 2 * vx * o[0]) + abs(kj * s[1] - 2 * vz * o[1] + b) < mp.mpf(10) ** -40 * (vx + b)
            trapezoid = lambda f, df: df(k[0]) + df(k[1]) - 2 * (f(k[1]) - f(k[0])) / (k[1] - k[0])
            n2 = lambda kk: (2 * t * mp.findroot(lambda x: 4 * t * x * mp.coth(x) - kk, x_a)) ** 2
            dn2 = lambda kk: mp.diff(n2, kk)
            pi = k[0] * s_a[0] ** 2
            det = -(2 * (vz**2 - vx**2) * pi * gamma[0] * gamma[1] / (k[0] * k[1])) * trapezoid(n2, dn2)
            assert det < 0 and abs(mp.det(h) / det - 1) < mp.mpf(10) ** -20, (t, x_a, x_b, vz)
            assert min(mp.eigsy(h)[0]) < 0


def test_trapezoid_lemma():
    # d^3(x^2)/d kappa^3 = N(2x)/(2 (sinh 2x - 2x)^5) for kappa = x coth x,
    # and N's odd Taylor coefficients 4 c_j/j! are those of the module
    # docstring: 0 below j = 15 (with t and t^3 cancelled), positive above
    mp = pytest.importorskip("mpmath")

    def c(j):
        w = lambda base: Fraction(base) ** (j - 3)
        return (
            w(4) * (j * j - 25 * j + 96)
            + w(3) * (j**3 - 12 * j * j + 92 * j - 243)
            - w(2) * (3 * j**3 - 28 * j * j + 121 * j - 168)
            + 3 * j**3 - 20 * j * j + 56 * j - 21
        )

    assert [c(j) for j in (1, 3)] == [Fraction(45, 2), 6] and all(c(j) == 0 for j in range(5, 15, 2))
    assert [c(j) for j in (15, 17, 19)] == [34594560, 2352430080, 95429228544]
    assert all(c(j) > 0 and 2 ** (j - 3) * 12 > 3 * j**3 for j in range(21, 41, 2))
    with mp.workdps(50):

        def n(t):
            sh, ch = mp.sinh, mp.cosh
            return (
                (t * t + 6) * sh(4 * t) - 6 * t * ch(4 * t) - 12 * (t * t + 3) * sh(3 * t)
                + 4 * t * (t * t + 9) * ch(3 * t) + 2 * (19 * t * t + 42) * sh(2 * t)
                - 12 * t * (t * t + 8) * ch(2 * t) - 4 * (11 * t * t + 21) * sh(t)
                + 12 * t * (t * t + 13) * ch(t) - 4 * t**3 - 90 * t
            )

        kappa = lambda x: x * mp.coth(x)
        d1 = lambda x: 2 * x / mp.diff(kappa, x)  # d(x^2)/d kappa
        d2 = lambda x: mp.diff(d1, x) / mp.diff(kappa, x)
        for x in map(mp.mpf, ("0.4", "1", "3", "8")):
            t = 2 * x
            series = sum(4 * mp.mpf(c(j).numerator) / c(j).denominator * t**j / mp.factorial(j) for j in range(1, 302, 2))
            assert abs(series - 4 * t**3 - 90 * t - n(t)) < mp.mpf(10) ** -30 * n(t)
            third = mp.diff(d2, x) / mp.diff(kappa, x)
            assert abs(third * 2 * (mp.sinh(t) - t) ** 5 / n(t) - 1) < mp.mpf(10) ** -20


@pytest.mark.filterwarnings("error")
def test_enumerated_minimum_is_the_multi_start_minimum(rng):
    # no start finds a lower free energy than solve_mf, and the lowest one
    # found is broken just below each onset and unbroken just above it
    family = neel_z_family()
    crossings = [p for p in family if critical_temperature(p) not in (None, p.t_critical)]
    for p in [*NEEL_Z_MODELS, *family[::6], *crossings]:
        onset = critical_temperature(p)
        top = onset or p.t_critical
        for t, broken in ((0.5 * top, onset is not None), (0.99 * top, onset is not None), (1.01 * top, False)):
            f, oracle_broken = _multi_start_minimum(p, t, rng)
            sol = solve_mf(p, t)
            assert oracle_broken == sol.broken_phase_flip == broken, (p, t)
            assert f >= sol.free_energy - 1e-14 * p.energy_scale, (p, t)


def _product_free_energy(v, b, t, s_a, s_b):
    """F(s_A, s_B) = b (s_A^z + s_B^z) - 2 sum_i v_i s_A^i s_B^i - T [S(s_A) + S(s_B)]
    of rows of spin vectors, natural-log entropies."""

    def entropy(s):
        m = np.linalg.norm(s, axis=-1)
        return -sum(np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0) for x in (0.5 + m, 0.5 - m))

    energy = b * (s_a[:, 2] + s_b[:, 2]) - 2.0 * (v * s_a * s_b).sum(axis=-1)
    return energy - t * (entropy(s_a) + entropy(s_b))


def _ball(rng, n):
    """n points drawn uniformly in the open ball of radius 1/2."""
    x = rng.normal(size=(n, 3))
    return 0.5 * (1.0 - 1e-9) * rng.uniform(size=(n, 1)) ** (1.0 / 3.0) * x / np.linalg.norm(x, axis=1, keepdims=True)


def test_uniform_state_is_lowest_on_antisymmetric_lines(rng):
    # the convexity step of the certificate: once vy -> |vy| (flipping s_B^y),
    # F(sigma + d, sigma - d) >= F(sigma, sigma) for every T >= max(-vz/2, 0)
    flip = np.array([1.0, -1.0, 1.0])
    for k in range(200):
        p = random_canonical_params(rng)
        v = np.array([p.vx, p.vy, p.vz])
        s_a, s_b = _ball(rng, 64), _ball(rng, 64)
        t_floor = max(-0.5 * p.vz, 0.0)
        t = t_floor if k % 4 == 0 else t_floor + float(log_uniform(rng, 1e-3, 10.0)) * p.energy_scale
        if t == 0.0:
            continue
        flipped = v * flip if p.vy < 0.0 else v
        # the flip changes nothing but the sign of vy
        assert_allclose(
            _product_free_energy(v, p.b, t, s_a, s_b),
            _product_free_energy(flipped, p.b, t, s_a, s_b * (flip if p.vy < 0.0 else 1.0)),
            rtol=1e-13,
            atol=1e-13 * p.energy_scale,
        )
        sigma = 0.5 * (s_a + s_b)
        pair = _product_free_energy(flipped, p.b, t, s_a, s_b)
        uniform = _product_free_energy(flipped, p.b, t, sigma, sigma)
        assert (pair >= uniform - 1e-12 * p.energy_scale).all(), (p, t)
