import itertools
import math

import numpy as np
import pytest
from scipy.special import xlogy

from xyzent.criteria import disorder_check, entropic_check
from xyzent.entanglement import exact_margins, separability_exact
from xyzent.errors import DegenerateBasis, OutOfRange
from xyzent.limits import (
    DEFAULT_GRID,
    DEFAULT_REL_TOL,
    LimitTemperatures,
    ReentryWindow,
    _limit_records,
    _margin_columns,
    _scan_grid,
    closed_form_limits,
    limit_temperatures,
    margin_table,
    mixture_thresholds,
    reentry_two_level,
    thermal_margin_exact,
)
from xyzent.meanfield import critical_temperature
from xyzent.model import canonicalize, eigensystem
from xyzent.states import mixture, thermal_mixture, thermal_probabilities

from conftest import log_uniform, random_canonical_params

ALPHA = 1.0 / math.log(1.0 + math.sqrt(2.0))  # 1.134593

XX = lambda b: canonicalize(1.0, 1.0, 0.0, b)  # case 1: v_plus = 1
MAX_ANISO = lambda b: canonicalize(1.0, -1.0, 0.0, b)  # case 2: v_minus = 1
CASE3 = lambda b: canonicalize(1.7, 0.3, 0.0, b)  # v_plus = 1, v_minus = 0.7


class TestThermalMarginExact:
    def test_xx_boundary(self):
        # at T = alpha*v_plus the second inequality saturates: sinh(1/alpha) = 1
        m1, m2 = thermal_margin_exact(XX(0.5), ALPHA)
        assert abs(m2) < 1e-6
        assert m1 > 0

    def test_high_temperature_separable(self):
        m1, m2 = thermal_margin_exact(CASE3(0.9), 1e6)
        assert m1 > 0 and m2 > 0

    def test_near_reentry_point(self):
        # Eq.-(11)-style two-level estimate: T_r = (E_3-E_2)/ln(Delta/v_minus)
        t_r = reentry_two_level(CASE3(0.9))
        assert abs(t_r - 0.2873) < 1e-4
        m1, _ = thermal_margin_exact(CASE3(0.9), t_r)
        assert abs(m1) < 0.05

    def test_scaled_identity_with_probability_margins(self, rng):
        # the hyperbolic margins are the probability margins times
        # Z-dependent positive factors; verify both scalings exactly
        for _ in range(100):
            vp, vm, b = log_uniform(rng, 1e-2, 1e1, size=3)
            vz = log_uniform(rng, 1e-2, 1e1) * rng.choice([-1.0, 1.0])
            p = canonicalize(vp + vm, vp - vm, vz, b)
            t = float(log_uniform(rng, 0.1, 5.0)) * p.energy_scale
            beta = 1.0 / t
            z = np.exp(-beta * eigensystem(p).energies).sum()
            m10 = thermal_margin_exact(p, t)
            m5 = exact_margins(thermal_mixture(p, t))
            assert abs(m10[0] * 2 * math.exp(-beta * vz / 2) / z - m5[0]) < 1e-10
            assert abs(m10[1] * 2 * math.exp(beta * vz / 2) / z - m5[1]) < 1e-10

    def test_verdict_matches_exact(self, rng):
        for _ in range(100):
            vp, vm, b = log_uniform(rng, 1e-1, 1e1, size=3)
            p = canonicalize(vp + vm, vp - vm, 0.0, b)
            t = float(log_uniform(rng, 0.1, 5.0)) * p.energy_scale
            entangled = separability_exact(thermal_mixture(p, t)).entangled
            assert (min(thermal_margin_exact(p, t)) < 0) == entangled

    def test_no_nan_at_extreme_beta(self):
        m1, m2 = thermal_margin_exact(CASE3(0.9), 1e-6)
        assert not (math.isnan(m1) or math.isnan(m2))


class TestEntangledIntervals:
    def test_xx_single_interval(self):
        ints = limit_temperatures(XX(0.5)).intervals
        assert len(ints) == 1
        lo, hi = ints[0]
        assert lo == 0.0
        assert abs(hi - ALPHA) < 1e-6

    def test_case3_reentry_gap(self):
        ints = limit_temperatures(CASE3(0.9)).intervals
        assert len(ints) == 2
        assert ints[0][1] < ints[1][0]
        assert abs(ints[0][1] - 0.2873) < 0.03
        gap_mid = 0.5 * (ints[0][1] + ints[1][0])
        assert not separability_exact(thermal_mixture(CASE3(0.9), gap_mid)).entangled

    def test_dominant_zz_coupling_never_entangled(self):
        # v_plus < vz: no entanglement at any temperature
        p = canonicalize(0.5, 0.5, 1.0, 0.3)
        assert limit_temperatures(p).intervals == ()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            limit_temperatures(XX(0.5), grid_n=16)
        with pytest.raises(ValueError):
            limit_temperatures(XX(0.5), t_max=-1.0)

    def test_invalid_scan_settings_are_out_of_range(self):
        for kwargs in ({"grid_n": 63}, {"t_max": 0.0}, {"t_max": math.nan}, {"t_max": math.inf}):
            with pytest.raises(OutOfRange):
                limit_temperatures(XX(0.5), **kwargs)


class TestLimitTemperature:
    def test_xx_field_independent(self):
        values = [limit_temperatures(XX(b)).t_exact for b in (0.1, 0.5, 0.9)]
        for v in values:
            assert abs(v - ALPHA) < 1e-6
        assert max(values) - min(values) < 1e-6

    def test_max_anisotropy_zero_field(self):
        t = limit_temperatures(MAX_ANISO(0.0)).t_exact
        assert abs(t - 1.0 / math.asinh(1.0)) < 1e-6

    def test_entropic_xx_small_field(self):
        t = limit_temperatures(XX(0.01)).t_entropic
        assert abs(t - 0.478) < 0.002

    def test_disorder_case2_closed_form(self):
        # Delta/arcsinh(Delta/(Delta-b)) at v_minus = 1, b = 0.5
        t = limit_temperatures(MAX_ANISO(0.5)).t_disorder
        d = math.hypot(1.0, 0.5)
        assert abs(t - d / math.asinh(d / (d - 0.5))) < 1e-6
        assert abs(t - 0.825232) < 1e-4

    def test_never_detected_is_none(self):
        lt = limit_temperatures(canonicalize(0.5, 0.5, 1.0, 0.3))
        assert lt.t_exact == 0.0
        assert lt.t_disorder is None and lt.t_entropic is None

    def test_case2_growth_in_field(self):
        values = [limit_temperatures(MAX_ANISO(b)).t_exact for b in (0.0, 1, 3, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))
        big = limit_temperatures(MAX_ANISO(100.0)).t_exact
        assert big > 15.0  # ~ b / ln(2b)

    def test_sign_invariance(self):
        ref = limit_temperatures(CASE3(0.9)).t_exact
        for vx, vy, b in [(-1.7, -0.3, 0.9), (0.3, 1.7, -0.9), (-0.3, -1.7, 0.9)]:
            t = limit_temperatures(canonicalize(vx, vy, 0.0, b)).t_exact
            assert abs(t - ref) < 1e-10


class TestReentryWindow:
    def test_case3_window(self):
        w = limit_temperatures(CASE3(0.9)).reentry
        assert w is not None
        assert abs(w.two_level - 0.28733) < 1e-4
        for endpoint in (w.lower, w.upper):
            assert abs(endpoint - w.two_level) < 0.1 * w.two_level

    def test_absent_above_reentry_field(self):
        assert limit_temperatures(CASE3(2.0)).reentry is None

    def test_absent_at_small_field(self):
        # v_minus/b large: gap temperature runs off to infinity
        assert limit_temperatures(canonicalize(1.0, -1.0, 0.0, 0.01)).reentry is None

    def test_two_level_form_undefined_at_zero_field(self):
        assert reentry_two_level(MAX_ANISO(0.0)) is None

    def test_disorder_blind_to_reentry(self):
        # detection stops below the gap: T_e^d <= T_r^-
        lt = limit_temperatures(CASE3(0.9))
        assert lt.t_disorder is not None and lt.t_disorder <= lt.reentry.lower + 1e-9


class TestMixtureThresholds:
    def test_zero_field(self):
        th = mixture_thresholds(MAX_ANISO(0.0))
        assert th.p_c == th.p_d == th.p_d_prime == 0.5

    def test_separable_pair_limit(self):
        th = mixture_thresholds(canonicalize(1e-3, -1e-3, 0.0, 1.0))
        assert th.p_c > 0.999

    def test_case3_values(self):
        th = mixture_thresholds(CASE3(0.9))
        assert abs(th.p_c - 0.61960) < 1e-4
        assert abs(th.p_d - 0.82600) < 1e-4
        assert abs(th.p_d_prime - 0.35851) < 1e-4
        assert th.p_d_prime <= 0.5 <= th.p_c <= th.p_d

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBasis):
            mixture_thresholds(canonicalize(0.5, 0.5, 0.0, 0.0))

    def test_two_level_concurrence(self, rng):
        p = CASE3(0.9)
        th = mixture_thresholds(p)
        for p2 in rng.uniform(0.0, 1.0, size=25):
            rep = separability_exact(mixture(p, [0.0, 0.0, p2, 1.0 - p2]))
            assert abs(rep.concurrence - abs(p2 / th.p_c - 1.0)) < 1e-12


class TestClosedFormLimits:
    def test_xx(self):
        cf = closed_form_limits(XX(0.7))
        assert cf.case == "xx"
        assert abs(cf.t_exact - ALPHA) < 1e-12

    def test_max_anisotropy(self):
        cf = closed_form_limits(MAX_ANISO(1.0))
        assert cf.case == "max_anisotropy"
        assert abs(cf.t_exact - 1.2338) < 1e-4

    def test_large_field_asymptote(self):
        cf = closed_form_limits(MAX_ANISO(100.0))
        assert abs(cf.t_exact - 100.0 / math.log(200.0)) / cf.t_exact < 0.02

    def test_generic_case_empty(self):
        assert closed_form_limits(CASE3(0.9)).case is None

    def test_matches_scan(self):
        for p in (XX(0.3), MAX_ANISO(0.8)):
            cf = closed_form_limits(p)
            assert abs(cf.t_exact - limit_temperatures(p).t_exact) < 1e-6
        cf = closed_form_limits(MAX_ANISO(0.8))
        assert abs(cf.t_disorder - limit_temperatures(MAX_ANISO(0.8)).t_disorder) < 1e-6


class TestLimitRecord:
    def test_hierarchy_on_grid(self):
        # T_e_s <= T_e_d <= T_e over couplings x fields, equality of
        # disorder and exact limits at zero field
        for vm in np.linspace(0.0, 1.5, 6):
            for b in np.linspace(0.0, 2.0, 6):
                p = canonicalize(1.0 + vm, 1.0 - vm, 0.0, float(b))
                lt = limit_temperatures(p, grid_n=1024)
                if lt.t_entropic is not None:
                    assert lt.t_disorder is not None
                    assert lt.t_entropic <= lt.t_disorder + 1e-9
                if lt.t_disorder is not None:
                    assert lt.t_disorder <= lt.t_exact + 1e-9
                if b == 0.0 and lt.t_disorder is not None:
                    assert abs(lt.t_disorder - lt.t_exact) < 1e-6

    def test_disorder_over_exact_ratio_case2(self):
        for b in (0.0, 0.5, 1.0, 2.0, 5.0):
            lt = limit_temperatures(MAX_ANISO(b), grid_n=2048)
            assert lt.t_disorder / lt.t_exact >= 0.5 - 1e-9

    def test_reentry_flag_matches_interval_count(self):
        lt = limit_temperatures(CASE3(0.9))
        assert lt.reentry is not None and len(lt.intervals) == 2
        lt = limit_temperatures(XX(0.5))
        assert lt.reentry is None and len(lt.intervals) == 1

    def test_censored_names_criteria_firing_at_t_max(self):
        lt = limit_temperatures(XX(0.0), t_max=0.5)
        assert lt.censored == ("exact", "disorder")
        assert lt.t_exact == lt.t_disorder == 0.5 and lt.t_entropic < 0.5
        assert limit_temperatures(XX(0.0)).censored == ()

    def test_separable_model_reports_zero(self):
        # degenerate ground state at zero field: T_c exists but T_e = 0
        p = canonicalize(1.0, 0.4, 0.4, 0.0)
        lt = limit_temperatures(p)
        assert lt.t_exact == 0.0
        assert lt.t_disorder is None
        assert critical_temperature(p).t_c == pytest.approx(0.5, abs=1e-12)


class TestScanFromZero:
    """T = 0 is the first grid sample, so a limit below the first positive
    sample t_max / grid_n is still found."""

    def test_criteria_firing_only_below_first_step(self):
        # fig4 model at b/v = 0.71: disorder and entropic fire only below
        # T = 0.00549, under the first positive sample 20 * 1.7 / 4096
        lt = limit_temperatures(CASE3(0.71))
        assert lt.t_disorder < 20.0 * 1.7 / DEFAULT_GRID
        assert lt.t_disorder == pytest.approx(0.00549421282194, rel=1e-10)
        assert lt.t_entropic == pytest.approx(0.00549421282194, rel=1e-10)
        below, above = (thermal_mixture(CASE3(0.71), t) for t in (0.0054, 0.0056))
        assert disorder_check(below).detected and entropic_check(below).detected
        assert not (disorder_check(above).detected or entropic_check(above).detected)

    def test_whole_entangled_range_below_first_coarse_step(self):
        # Bell ground state |Phi_3>; entangled on [0, 1.899], first grid-64
        # sample at 20 * 6.26 / 64 = 1.96
        p = canonicalize(1.343514123042203, -1.1694385314915339, -6.263640849586743, 0.8798462890500257)
        coarse = limit_temperatures(p, grid_n=64)
        assert coarse.intervals[0][0] == 0.0
        assert coarse.t_exact == pytest.approx(1.89878669384, rel=1e-10)
        assert coarse.t_exact == pytest.approx(limit_temperatures(p).t_exact, rel=1e-10)
        assert coarse.t_disorder is not None and coarse.t_entropic is not None

    def test_zero_margin_at_zero_temperature_takes_next_sign(self):
        # XX above b = 1: m03 is exactly 0 from T = 0 until exp stops
        # underflowing; the interval still starts at 0, not at that edge
        assert margin_table(eigensystem(XX(1.5)), np.array([0.0]))[1, 0] == 0.0
        (lo, hi), = limit_temperatures(XX(1.5)).intervals
        assert lo == 0.0 and abs(hi - ALPHA) < 1e-6


class TestDefaultScanRange:
    """The default t_max = 20 energy_scale needs no check that the state is
    separable at the top of the scan: both exact margins are positive from
    T = 3 energy_scale on, at every scale and on a coupling lattice."""

    def assert_separable_from_three_scales(self, p):
        s = p.energy_scale or 1.0
        table = margin_table(eigensystem(p), np.array([3.0 * s, 20.0 * s]))
        assert np.all(table[:2] > 0.0), (p, table[:2])

    def test_seeded_models_at_every_scale(self, rng):
        for lam in 10.0 ** np.arange(-300.0, 301.0, 50.0):
            for _ in range(20):
                p = random_canonical_params(rng)
                self.assert_separable_from_three_scales(
                    canonicalize(lam * p.vx, lam * p.vy, lam * p.vz, lam * p.b)
                )

    def test_coupling_lattice(self):
        values = (-1.0, -0.5, 0.0, 0.5, 1.0)
        for model in itertools.product(values, repeat=4):
            self.assert_separable_from_three_scales(canonicalize(*model))


# ---------------------------------------------------------------------------
# Reference: one grid scan and one scalar bisection per margin, each
# criterion on its own, with the array margins written out separately.
# The single-table scan must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def _ref_exact(eig, ts):
    gap = eig.energies[:, None] - eig.energies.min()
    ts = np.asarray(ts)[None, :]
    # T = 0 is the T -> 0+ limit: exponent 0 on the ground levels, +inf above
    r = np.where(ts > 0.0, gap / np.where(ts > 0.0, ts, 1.0), np.where(gap > 0.0, np.inf, 0.0))
    a = np.exp(-0.5 * r)
    w = a * a
    z = w.sum(axis=0)
    vm_r = eig.vm_ratio
    hi = np.maximum(w[1], w[2])
    lo = np.minimum(w[1], w[2])
    big = np.maximum(w[0], w[3])
    small = np.minimum(w[0], w[3])
    m12 = ((big - vm_r * hi) + small + vm_r * lo) / z
    m03 = (np.hypot(vm_r * (w[2] - w[1]), 2.0 * a[1] * a[2]) - np.abs(w[3] - w[0])) / z
    return m12, m03


def _ref_disorder(eig, ts):
    p = thermal_probabilities(eig, ts)
    return 0.5 * (1.0 + np.abs(eig.b_ratio * (p[2] - p[1]))) - p.max(axis=0)


def _ref_entropic(eig, ts):
    # S(rho) - S(rho_A), each reduced-spectrum term q_k ln q_k paired with
    # the weight term p_k ln p_k it cancels against
    p = thermal_probabilities(eig, ts)
    a = 0.5 * (1.0 + abs(eig.b_ratio))
    q1 = 0.5 * p[0] + a * p[1] + (1.0 - a) * p[2] + 0.5 * p[3]
    q2 = 0.5 * p[0] + (1.0 - a) * p[1] + a * p[2] + 0.5 * p[3]
    x = xlogy(p, p)
    return ((xlogy(q1, q1) - x[1]) + (xlogy(q2, q2) - x[2]) - x[0] - x[3]) / math.log(2.0)


def _ref_bisect(f, lo, hi, f_lo_neg, rel):
    for _ in range(200):
        if hi - lo <= rel * hi:
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == f_lo_neg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_violation_intervals(f_arr, ts, t_end, rel):
    """The intervals where f_arr is negative, and whether the last one
    reaches t_end (the criterion still fires at the top of the scan)."""
    values = f_arr(ts)
    neg = values < 0.0
    if values[0] == 0.0:  # a margin exactly 0 at T = 0 takes the next sample's sign
        neg[0] = neg[1]
    if not neg.any():
        return [], False

    def f(t):
        return float(f_arr(np.array([t]))[0])

    intervals = []
    starts = [0.0] if neg[0] else []
    for i in np.flatnonzero(np.diff(neg.astype(int)) != 0):
        t_cross = _ref_bisect(f, float(ts[i]), float(ts[i + 1]), bool(neg[i]), rel)
        if neg[i]:
            intervals.append((starts.pop(), t_cross))
        else:
            starts.append(t_cross)
    if neg[-1]:
        intervals.append((starts.pop(), float(t_end)))
    return intervals, bool(neg[-1])


def reference_limit_temperatures(p, t_max=None, grid_n=DEFAULT_GRID, rel_tol=DEFAULT_REL_TOL):
    def scan(f_arr):
        eig = eigensystem(p)
        ts, t_end = _scan_grid(p, eig, reentry_two_level(p), t_max, grid_n)
        return _ref_violation_intervals(lambda t: f_arr(eig, t), ts, t_end, rel_tol)

    (m12, top_12), (m03, top_03) = (scan(lambda e, t: _ref_exact(e, t)[k]) for k in (0, 1))
    raw = sorted(m12 + m03)
    ints = []
    for lo, hi in raw:
        if ints and lo < ints[-1][1]:
            if ints[-1][1] - lo > 1e-6 * max(lo, ints[-1][1]):
                ints[-1] = (ints[-1][0], max(hi, ints[-1][1]))
                continue
            lo = ints[-1][1]
        ints.append((lo, max(lo, hi)))
    t_disorder, top_dis = scan(_ref_disorder)
    t_entropic, top_ent = scan(_ref_entropic)
    reentry = None
    if len(ints) >= 2:
        reentry = ReentryWindow(lower=ints[0][1], upper=ints[1][0], two_level=reentry_two_level(p))
    return LimitTemperatures(
        t_exact=ints[-1][1] if ints else 0.0,
        t_disorder=t_disorder[-1][1] if t_disorder else None,
        t_entropic=t_entropic[-1][1] if t_entropic else None,
        intervals=tuple(ints),
        reentry=reentry,
        censored=tuple(
            c for c, top in zip(("exact", "disorder", "entropic"), (top_12 or top_03, top_dis, top_ent)) if top
        ),
    )


def _reference_cases(rng):
    """About 200 (params, t_max, grid_n) cases over the awkward corners."""
    grids = (64, 256, 1024, DEFAULT_GRID)
    cases = []
    for k in range(80):  # generic, vz != 0
        vp, vm, b = log_uniform(rng, 1e-2, 1e1, size=3)
        vz = log_uniform(rng, 1e-2, 1e1) * rng.choice([-1.0, 1.0])
        cases.append((canonicalize(vp + vm, vp - vm, vz, b), None, grids[k % 4]))
    while len(cases) < 130:  # just above the level-crossing field
        vp = rng.uniform(0.5, 2.0)
        vm = rng.uniform(0.0, 0.9) * vp
        vz = rng.uniform(-0.5, 0.3) * vp
        bc = canonicalize(vp + vm, vp - vm, vz, 0.0).b_crossing
        if bc > 0.0:
            b = bc * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
            cases.append((canonicalize(vp + vm, vp - vm, vz, b), None, grids[len(cases) % 4]))
    for k in range(20):  # Delta = 0
        vp = log_uniform(rng, 1e-1, 1e1)
        vz = rng.uniform(-1.0, 1.0) * vp
        cases.append((canonicalize(vp, vp, vz, 0.0), None, grids[k % 4]))
    for k in range(20):  # v_minus = 0, vz above v_plus: never entangled
        vp = rng.uniform(0.1, 1.0)
        vz = vp + rng.uniform(0.1, 2.0)
        cases.append((canonicalize(vp, vp, vz, rng.uniform(0.0, 2.0)), None, grids[k % 4]))
    for k in range(30):  # user t_max, often below t_exact (censored)
        vp, vm, b = rng.uniform(0.1, 2.0, size=3)
        vz = rng.uniform(-0.5, 0.5)
        cases.append((canonicalize(vp + vm, vp - vm, vz, b), rng.uniform(0.05, 3.0), grids[k % 4]))
    return cases


class TestSingleScanMatchesReference:
    def test_bit_identical_to_per_criterion_scans(self, rng):
        cases = _reference_cases(rng)
        assert len(cases) >= 200
        censored = never = reentry = 0
        for p, t_max, grid_n in cases:
            got = limit_temperatures(p, t_max=t_max, grid_n=grid_n)
            assert got == reference_limit_temperatures(p, t_max=t_max, grid_n=grid_n), (p, t_max)
            censored += "exact" in got.censored
            never += not got.intervals
            reentry += got.reentry is not None
        assert censored and never and reentry

    def test_scalar_checks_match_table(self, rng):
        # the disorder and entropic checks run the table's formulas on the
        # same weights, so they agree bit for bit; the exact margins take
        # their cross term from sqrt(p_1 p_2) instead of the amplitudes
        eps = np.finfo(float).eps
        for p, _, _ in _reference_cases(rng)[::5]:
            eig = eigensystem(p)
            ts = np.concatenate([[0.0], log_uniform(rng, 1e-2, 1e1, size=8) * p.energy_scale, [0.0]])
            table = margin_table(eig, ts)
            for k, t in enumerate(ts):
                m = thermal_mixture(p, float(t))
                assert np.abs(np.array(exact_margins(m)) - table[:2, k]).max() <= 16 * eps, (p, t)
                assert disorder_check(m).margin == table[2, k], (p, t)
                assert entropic_check(m).margin == table[3, k], (p, t)

    def test_table_columns_do_not_depend_on_the_batch(self, rng):
        # a column has the same bits alone, among 7 and among 5000, and the
        # scalar checks (what `point` prints) equal it; a matrix product in
        # the entropic row used to round columns by batch size
        for _ in range(20):
            p = random_canonical_params(rng)
            eig = eigensystem(p)
            ts = log_uniform(rng, 1e-2, 1e1, size=5000) * p.energy_scale
            batch = margin_table(eig, ts)
            for k in range(3, 5000, 125):
                alone = margin_table(eig, ts[k : k + 1])[:, 0]
                assert np.array_equal(alone, batch[:, k]), (p, ts[k])
                assert np.array_equal(margin_table(eig, ts[k - 3 : k + 4])[:, 3], alone), (p, ts[k])
                m = thermal_mixture(p, float(ts[k]))
                assert disorder_check(m).margin == batch[2, k], (p, ts[k])
                assert entropic_check(m).margin == batch[3, k], (p, ts[k])

    def test_kernel_columns_are_one_model_tables(self, rng):
        # one model per column gives each column the bits of its own table
        models = [random_canonical_params(rng) for _ in range(30)] + [canonicalize(0.7, 0.7, -0.3, 0.0)]
        eigs = [eigensystem(p) for p in models]
        ts = np.concatenate([[0.0], log_uniform(rng, 1e-2, 1e1, size=len(models) - 1)])
        ts *= [p.energy_scale for p in models]
        table = _margin_columns(
            np.stack([e.energies for e in eigs], axis=1),
            np.array([e.vm_ratio for e in eigs]),
            np.array([e.b_ratio for e in eigs]),
            ts,
        )
        for k, (eig, t) in enumerate(zip(eigs, ts)):
            assert np.array_equal(table[:, k], margin_table(eig, np.array([t]))[:, 0]), (models[k], t)


class TestBatchedScan:
    def test_groups_match_one_model_scans(self, rng):
        # every (t_max, grid_n) group in one scan: each record equals the
        # model's own limit_temperatures field for field, bit for bit
        groups = {}
        for p, t_max, grid_n in _reference_cases(rng):
            groups.setdefault((t_max, grid_n), []).append(p)
            if t_max is None:  # and every default-range model in one scan
                groups.setdefault((None, 512), []).append(p)
        assert max(map(len, groups.values())) >= 150
        censored = never = reentry = degenerate = 0
        for (t_max, grid_n), ps in groups.items():
            got = _limit_records(ps, t_max, grid_n, DEFAULT_REL_TOL)
            assert len(got) == len(ps)
            for p, lt in zip(ps, got):
                assert lt == limit_temperatures(p, t_max=t_max, grid_n=grid_n), (p, t_max, grid_n)
                censored += "exact" in lt.censored
                never += not lt.intervals
                reentry += lt.reentry is not None
                degenerate += eigensystem(p).degenerate
        assert censored and never and reentry and degenerate


class TestZeroTemperatureLimit:
    """T = 0 is the T -> 0+ limit of the one Gibbs formula: the weights and
    the margins at T = 0 equal those at any temperature far below the
    level gaps, the smallest positive float included, bit for bit."""

    GROUNDS = {
        (1.0, 1.0, 1.0, 0.0): (1, 2, 3),  # triple ground
        (0.0, 0.0, 1.0, 0.0): (1, 2),
        (0.0, 0.0, -1.0, 0.0): (0, 3),
        (1.0, 0.4, 0.4, 0.0): (2, 3),
        (0.0, 0.0, 0.0, 0.0): (0, 1, 2, 3),  # all-zero model
    }

    def test_zero_temperature_is_the_cold_limit(self):
        eps = np.finfo(float).eps
        for model, ground in self.GROUNDS.items():
            p = canonicalize(*model)
            eig = eigensystem(p)
            cold = np.array([0.0, 1e-200 * (p.energy_scale or 1.0), np.nextafter(0.0, 1.0)])

            probs = thermal_probabilities(eig, cold)
            assert np.flatnonzero(probs[:, 0]).tolist() == list(ground), model
            assert np.all(probs[list(ground), 0] == 1.0 / len(ground)), model
            assert np.array_equal(thermal_probabilities(eig, 0.0), probs[:, 0]), model
            assert np.array_equal(probs, np.repeat(probs[:, :1], cold.size, axis=1)), model

            table = margin_table(eig, cold)
            assert np.array_equal(table, np.repeat(table[:, :1], cold.size, axis=1)), model
            m = thermal_mixture(p, 0.0)
            scalar = (*exact_margins(m), disorder_check(m).margin, entropic_check(m).margin)
            assert np.abs(np.array(scalar) - table[:, 0]).max() <= 16 * eps, model

    def test_exact_margins_at_zero_temperature_are_exact(self):
        # the (|Phi_1>, |Phi_2>) = (|++>, |-->) ground pair is separable
        # with m03 = 1 exactly; amplitudes sqrt(1/2) would round it up
        table = margin_table(eigensystem(canonicalize(0.0, 0.0, 1.0, 0.0)), np.array([0.0]))
        assert table[1, 0] == 1.0
