import dataclasses
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xyzent import meanfield
from xyzent.errors import InvalidTemperature, NoConvergence
from xyzent.meanfield import (
    critical_temperature,
    exact_free_energy,
    mf_free_energy,
    qubit_expectations,
    solve_mf,
)
from xyzent.model import canonicalize

from conftest import log_uniform, random_canonical_params

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
        with pytest.raises(InvalidTemperature):
            exact_free_energy(XCHAIN, -1.0)


class TestQubitExpectations:
    def test_zero_field(self):
        assert_allclose(qubit_expectations(np.zeros(3), 1.0), np.zeros(3))

    def test_saturation(self):
        s = qubit_expectations(np.array([0.0, 0.0, 100.0]), 0.01)
        assert abs(s[2] + 0.5) < 1e-12

    def test_self_consistency_relation(self, rng):
        for _ in range(20):
            lam = rng.normal(size=3)
            t = float(log_uniform(rng, 0.05, 5.0))
            s = qubit_expectations(lam, t)
            norm = np.linalg.norm(lam)
            assert abs(np.linalg.norm(s) - 0.5 * math.tanh(0.5 * norm / t)) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_temperature(self, t):
        # at T = 0 the tanh argument divides by zero; at T < 0 the spin
        # silently took the wrong sign
        with pytest.raises(InvalidTemperature):
            qubit_expectations([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], t)


class TestSolveMF:
    def test_symmetric_above_tc(self):
        sol = solve_mf(XCHAIN, 0.6)
        assert sol.converged
        assert not sol.broken_phase_flip
        assert not sol.broken_permutation
        assert_allclose(sol.lambda_a, np.zeros(3), atol=1e-9)

    def test_broken_below_tc_solves_gap_equation(self):
        t = 0.25
        sol = solve_mf(XCHAIN, t)
        assert sol.broken_phase_flip and sol.converged
        m = gap_equation_magnetization(1.0, t)
        assert abs(abs(sol.s_a[0]) - m) < 1e-9
        assert 0.0 < m < 0.5

    def test_permutation_symmetric_ferromagnet(self, rng):
        for t in (0.1, 0.3, 0.8):
            sol = solve_mf(canonicalize(1.0, 0.4, 0.2, 0.3), t)
            assert_allclose(sol.lambda_a, sol.lambda_b, atol=1e-8)
            assert not sol.broken_permutation

    def test_sign_degeneracy(self):
        t = 0.3
        seeds = np.zeros((1, 2, 3))
        seeds[0, :, 0] = 1.0
        plus = solve_mf(XCHAIN, t, seeds=seeds)
        seeds[0, :, 0] = -1.0
        minus = solve_mf(XCHAIN, t, seeds=seeds)
        assert abs(plus.free_energy - minus.free_energy) < 1e-10
        assert abs(plus.lambda_a[0] + minus.lambda_a[0]) < 1e-8

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

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 3, 2), (6,)])
    def test_rejects_bad_seed_shape(self, shape):
        with pytest.raises(ValueError, match=r"seeds must have shape \(n, 2, 3\)"):
            solve_mf(XCHAIN, 0.3, seeds=np.zeros(shape))


def _max_residual(p, sol):
    v = np.array([p.vx, p.vy, p.vz])
    b = np.array([0.0, 0.0, p.b])
    return max(
        np.abs(sol.lambda_a - (b - 2 * v * sol.s_b)).max(),
        np.abs(sol.lambda_b - (b - 2 * v * sol.s_a)).max(),
    )


_POLISH_REGRESSIONS = [
    # stop rule: a polish that stops as soon as the residual is below
    # tolerance accepts non-roots near T_c and moves T_c by 8e-6
    pytest.param(
        canonicalize(4004660.677592519, 2952603.4204812893, 949004.5412642648, 2113942.929786735),
        None,
        id="stop_rule",
    ),
    # |vx| = |vy|: the Jacobian at the broken root is singular along
    # the Goldstone direction, so only a minimum-norm step works
    pytest.param(
        canonicalize(8.890061109800813e42, -8.890061109800813e42, 0.0, 8.112159671074608e42),
        None,
        id="singular_jacobian",
    ),
    # the damped iteration ends in a 2-cycle whose half Newton step has
    # exactly the same residual: backtracking needs a strict decrease
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
        closed = critical_temperature(p, "closed").t_c
        numeric = critical_temperature(p, "numeric").t_c
        assert abs(numeric - closed) <= 2e-6 * closed
        return
    sol = solve_mf(p, t)
    assert sol.converged
    assert _max_residual(p, sol) < 1e-9 * max(1.0, p.energy_scale)
    assert not sol.broken_phase_flip and not sol.broken_permutation
    assert_allclose([sol.lambda_a[2], sol.lambda_b[2]], 0.003227, rtol=1e-3)


def _with_mirrored_seeds(p):
    """Symmetric, +-x, +-y transverse, then the permutation-asymmetric x
    seed: the default seeds plus the mirror images of the +x and +y rows."""
    v = max(p.v_max, 0.0)
    seeds = np.zeros((6, 2, 3))
    seeds[1, :, 0] = v
    seeds[2, :, 0] = -v
    seeds[3, :, 1] = v
    seeds[4, :, 1] = -v
    seeds[5, 0, 0] = v
    seeds[5, 1, 0] = -v
    return seeds


def _solver_cases(rng):
    """(model, temperatures) pairs around T_c, where the Newton polish fires:
    four Newton-regression models, four seeded ones and the x chain."""
    cases = [case.values for case in _POLISH_REGRESSIONS[:4]]
    cases += [(random_canonical_params(rng), None) for _ in range(4)] + [(XCHAIN, None)]
    for p, t_case in cases:
        t_c = critical_temperature(p).t_c or p.energy_scale
        yield p, [t_c * x for x in (0.05, 0.5, 1.0 - 1e-5, 1.0 + 1e-5, 3.0)] + ([t_case] if t_case else [])


def test_mirrored_seeds_change_nothing(rng):
    # a -x or -y seed converges to the negated fields of its mirror image in
    # the same sweep, at the same free energy, and loses the tie to it
    for p, temps in _solver_cases(rng):
        for t in temps:
            got, ref = solve_mf(p, t), solve_mf(p, t, seeds=_with_mirrored_seeds(p))
            for f in dataclasses.fields(got):
                assert np.array_equal(getattr(got, f.name), getattr(ref, f.name)), (p, t, f.name)


class TestCriticalTemperature:
    def test_zero_field_limit(self):
        tc = critical_temperature(canonicalize(1.0, 0.0, 0.0, 1e-6))
        assert abs(tc.t_c - 0.5) < 1e-6
        tc0 = critical_temperature(XCHAIN)
        assert tc0.t_c == 0.5

    def test_half_chi(self):
        tc = critical_temperature(canonicalize(1.0, 0.0, 0.0, 0.5))
        assert abs(tc.t_c - 0.5 / math.log(3.0)) < 1e-12

    def test_closed_vs_numeric(self):
        p = canonicalize(1.0, 0.0, 0.0, 0.5)
        closed = critical_temperature(p, "closed").t_c
        numeric = critical_temperature(p, "numeric").t_c
        assert abs(closed - numeric) / closed < 1e-4

    def test_absent_above_critical_field(self):
        tc = critical_temperature(canonicalize(1.0, 0.0, 0.0, 1.5))
        assert tc.t_c is None and not tc.feasible

    def test_absent_for_dominant_zz(self):
        # v_max <= vz, and v_max = 0 (nothing transverse to break) with vz < 0
        for p in (canonicalize(0.5, 0.5, 1.0, 0.1), canonicalize(0, 0, -1, 0.2)):
            for method in ("closed", "numeric"):
                tc = critical_temperature(p, method)
                assert tc.t_c is None and not tc.feasible, (p, method)

    def test_monotone_decreasing_in_chi(self):
        chis = [0.05, 0.2, 0.5, 0.8, 0.95, 0.999]
        tcs = [critical_temperature(canonicalize(1.0, 0.0, 0.0, c)).t_c for c in chis]
        assert all(a > b for a, b in zip(tcs, tcs[1:]))
        assert tcs[-1] < 0.14  # T_c -> 0 as chi -> 1

    def test_insensitive_to_weaker_coupling(self):
        # broken solution and T_c depend only on max(vx, vy)
        ref = solve_mf(canonicalize(1.0, 0.0, 0.0, 0.2), 0.3)
        for vy in (0.2, 0.5, 0.9):
            p = canonicalize(1.0, vy, 0.0, 0.2)
            sol = solve_mf(p, 0.3)
            assert abs(sol.free_energy - ref.free_energy) < 1e-9
            assert abs(critical_temperature(p).t_c - critical_temperature(
                canonicalize(1.0, 0.0, 0.0, 0.2)).t_c) < 1e-12

    def test_method_validation(self):
        with pytest.raises(ValueError):
            critical_temperature(XCHAIN, "analytic")

    def test_method_validated_on_infeasible_models(self):
        # the method used to be checked only after the infeasible return
        for p in (canonicalize(1.0, 0.4, 0.1, 5.0), canonicalize(0.5, 0.5, 1.0, 0.1)):
            with pytest.raises(ValueError, match="method"):
                critical_temperature(p, "numerci")


@functools.lru_cache(maxsize=None)
def _ref_bisection(p):
    """The numeric T_c as a step-by-step bisection, one solve_mf per
    temperature, and the temperatures it solves in order."""
    visited = []

    def broken(t):
        visited.append(t)
        return solve_mf(p, t).broken_phase_flip

    if not critical_temperature(p).feasible:
        return None, ()
    lo, hi = 1e-4 * p.v_max, 0.75 * p.v_max
    if not broken(lo):
        return None, tuple(visited)
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if broken(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tuple(visited)


def _ref_numeric_tc(p):
    return _ref_bisection(p)[0]


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


_TC_MODELS = [
    *(pytest.param(case.values[0], id=case.id) for case in _POLISH_REGRESSIONS),
    pytest.param(XCHAIN, id="xchain"),
    *_seeded_tc_models(),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", _TC_MODELS)
def test_numeric_tc_matches_sequential_bisection(p):
    # each round solves a tree of midpoints at once; the walk through it
    # must end on exactly the bits of the step-by-step bisection
    assert critical_temperature(p, "numeric").t_c == _ref_numeric_tc(p)


def test_rows_match_one_temperature_solves(rng):
    # all temperatures of a model in one row solve, each equal to its own solve_mf
    for p, temps in _solver_cases(rng):
        rows = meanfield._solve_rows(p, np.array(temps), meanfield._default_seeds(p))
        for i, t in enumerate(temps):
            got, ref = rows.solution(i), solve_mf(p, t)
            for f in dataclasses.fields(got):
                assert np.array_equal(getattr(got, f.name), getattr(ref, f.name)), (p, t, f.name)


def _failing_rows(monkeypatch, fails):
    """Make every row whose temperature satisfies fails(t) report no converged seed."""
    solve_rows = meanfield._solve_rows

    def patched(p, temperatures, seeds):
        rows = solve_rows(p, temperatures, seeds)
        bad = np.array([fails(t) for t in temperatures], dtype=bool)
        return rows._replace(converged=rows.converged & ~bad)

    monkeypatch.setattr(meanfield, "_solve_rows", patched)


@pytest.mark.parametrize("p", [XCHAIN, canonicalize(1.0, 0.4, 0.1, 0.5)])
def test_unvisited_rows_may_fail(monkeypatch, p):
    t_c, visited = _ref_bisection(p)
    _failing_rows(monkeypatch, lambda t: t not in visited)
    assert critical_temperature(p, "numeric").t_c == t_c


def test_visited_row_failure_raises(monkeypatch):
    visited = _ref_bisection(XCHAIN)[1]
    _failing_rows(monkeypatch, lambda t: t == visited[7])
    with pytest.raises(NoConvergence, match="no seed converged"):
        critical_temperature(XCHAIN, "numeric")


class TestVariationalBound:
    def test_mean_field_above_exact(self, rng):
        for _ in range(60):
            vx, vy, vz, b = log_uniform(rng, 1e-2, 1e1, size=4)
            p = canonicalize(vx, -vy, vz * rng.choice([-1.0, 1.0]), b)
            t = float(log_uniform(rng, 5e-2, 1e1))
            sol = solve_mf(p, t)
            assert sol.free_energy >= exact_free_energy(p, t) - 1e-9
