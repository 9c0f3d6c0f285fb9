import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from xyzent import limits
from xyzent.criteria import disorder_check, entropic_check, margin_table
from xyzent.entanglement import exact_margins, separability_exact
from xyzent.errors import DegenerateBasis, OutOfRange
from xyzent.limits import (
    DEFAULT_GRID,
    DEFAULT_REL_TOL,
    LimitTemperatures,
    ReentryWindow,
    _default_t_max,
    _limit_records,
    _margin_columns,
    limit_temperatures,
    reentry_two_level,
)
from xyzent.linalg import b_crossing, closed_form_limits, mixture_thresholds, thermal_margin_exact
from xyzent.meanfield import critical_temperature
from xyzent.model import MAX_ENERGY_SCALE, MIN_ENERGY_SCALE, canonicalize, eigensystem
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

    def test_grid_is_bounded_above(self):
        # the entropic sampling is linear in grid_n; the settings are checked
        # once per scan, before any model (an empty batch included)
        assert limits.MAX_GRID == 2**20 == 256 * DEFAULT_GRID
        for ps in ([], [CASE3(0.2)] * 3):
            with pytest.raises(OutOfRange, match=r"grid_n must be <= 1048576 \(2\*\*20\), got 1048577"):
                _limit_records(ps, grid_n=limits.MAX_GRID + 1)
        with pytest.raises(OutOfRange):
            limit_temperatures(CASE3(0.2), grid_n=10**19)
        # at the bound the scan runs; the exact and disorder limits ignore the grid
        fine, default = limit_temperatures(CASE3(0.2), grid_n=limits.MAX_GRID), limit_temperatures(CASE3(0.2))
        assert (fine.t_exact, fine.t_disorder) == (default.t_exact, default.t_disorder)
        assert fine.t_entropic == pytest.approx(default.t_entropic, rel=1e-9)


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

    def test_degenerate_separable_ground_pair_is_not_detected(self):
        # E2 = E3 and b/Delta = 2.6e-9: every thermal state is separable, the
        # disorder margin is +6.5e-10 and the entropic one +1.2e-18 bits, which
        # the short form of the entropic margin rounded to -8e-17 up to T = 0.0186
        lt = limit_temperatures(canonicalize(0.890625, 0.125, 0.125, 1e-9))
        assert (lt.t_exact, lt.t_disorder, lt.t_entropic, lt.intervals) == (0.0, None, None, ())

    def test_field_far_above_v_minus_keeps_its_limits(self):
        # b >> v_minus: c = 1 - b/Delta lies near or below the float spacing
        # of 1, and forming it as 1 - b/Delta lost the disorder and entropic
        # detection of the first model and put t_entropic above t_disorder in
        # the second; the references are 50-digit roots of the margins
        lt = limit_temperatures(canonicalize(1.00000001, 0.99999999, 0.3, 1.0))
        assert lt.t_disorder == pytest.approx(0.007992644918878, rel=1e-9)
        assert lt.t_entropic == pytest.approx(0.007992644918878, rel=1e-9)
        p = canonicalize(1.0000001310448017, 0.9999998689551984, 0.21050010602433808, 4.652433864616178)
        lt = limit_temperatures(p)
        assert lt.t_disorder == pytest.approx(0.10892740132904, rel=1e-9)
        assert lt.t_entropic <= lt.t_disorder <= lt.t_exact


class TestBisectionConverges:
    def test_limits_do_not_depend_on_t_max(self):
        # the bracket [0, t_max / grid_n] needs log2(step / limit) + 34
        # halvings, about 1,060 at t_max = 1.7e308; 200 used to stop it early
        p = canonicalize(1.0, 0.3, 0.0, 0.0)
        ref = limit_temperatures(p)
        assert ref.t_exact == pytest.approx(0.66442074918, rel=1e-10)
        for t_max in (1e20, 1e60, 1e100, 1.7e308):
            lt = limit_temperatures(p, t_max=t_max)
            for key in ("t_exact", "t_disorder", "t_entropic"):
                assert getattr(lt, key) == pytest.approx(getattr(ref, key), rel=1e-9), (t_max, key)
            assert lt.censored == ()

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # a rel_tol below the float spacing is never met; each bracket stops
        # once lo and hi are neighbours, where more steps would move nothing
        calls = []
        kernel = limits._margin_columns
        monkeypatch.setattr(limits, "_margin_columns", lambda *args: calls.append(1) or kernel(*args))
        lt = limit_temperatures(CASE3(0.9), rel_tol=1e-300)
        assert len(calls) <= 100  # the root and entropic tables, about 50 halvings
        monkeypatch.undo()
        assert lt == reference_limit_temperatures(CASE3(0.9), rel_tol=1e-300)


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
        # underflowing; it takes the sign of its sum's leading coefficient,
        # its sign just above T = 0, so the interval still starts at 0
        assert margin_table(eigensystem(XX(1.5)), np.array([0.0]))[1, 0] == 0.0
        (lo, hi), = limit_temperatures(XX(1.5)).intervals
        assert lo == 0.0 and abs(hi - ALPHA) < 1e-6


class TestDefaultScanRange:
    """No scan range needs a check that the state is separable at its top:
    both exact margins are positive from T = 3 energy_scale on, and all
    four margins are >= 0.1 (asserted >= 0.09) at every sample past
    t_cut = (E_max - E_min)/ln 2 <= 4.33 energy_scale, where every Gibbs
    weight is within a factor 2 of every other.  This holds at every
    scale up to MAX_ENERGY_SCALE, on a coupling lattice and at fields
    just above the level crossing, so each model's scan ends at
    t_end = min(t_max, t_cut)."""

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

    @staticmethod
    def t_cut(eig):
        return (eig.energies.max() - eig.energies.min()) / math.log(2.0)

    def assert_margins_positive_past_cut(self, p):
        eig = eigensystem(p)
        t_cut = self.t_cut(eig)
        above = np.array([np.nextafter(t_cut, np.inf), t_cut * (1.0 + 1e-9), 1.5 * t_cut, 4.0 * t_cut])
        table = margin_table(eig, np.append(above, 20.0 * (p.energy_scale or 1.0)))
        assert table.min() >= 0.09, (p, table.min(axis=1))

    def test_margins_past_cut_at_every_scale(self, rng):
        for lam in 10.0 ** np.arange(-300.0, 301.0, 50.0):
            for _ in range(50):
                p = random_canonical_params(rng)
                self.assert_margins_positive_past_cut(canonicalize(lam * p.vx, lam * p.vy, lam * p.vz, lam * p.b))

    def test_margins_past_cut_on_coupling_lattice(self):
        values = (-1.0, -0.5, 0.0, 0.5, 1.0)
        for model in itertools.product(values, repeat=4):
            self.assert_margins_positive_past_cut(canonicalize(*model))

    def test_margins_past_cut_just_above_level_crossing(self, rng):
        checked = 0
        while checked < 500:
            vp = rng.uniform(0.5, 2.0)
            vm = rng.uniform(0.0, 0.9) * vp
            vz = rng.uniform(-0.5, 0.3) * vp
            bc = b_crossing(canonicalize(vp + vm, vp - vm, vz, 0.0))
            if bc > 0.0:
                b = bc * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0))
                self.assert_margins_positive_past_cut(canonicalize(vp + vm, vp - vm, vz, b))
                checked += 1

    def test_margins_past_cut_at_the_energy_scale_bound(self):
        top = MAX_ENERGY_SCALE
        for model in itertools.product((-top, -0.3 * top, 0.0, 0.7 * top, top), repeat=4):
            self.assert_margins_positive_past_cut(canonicalize(*model))

    def test_unpaired_sign_change_raises(self, monkeypatch):
        # one spurious bracket leaves an exact row with an odd number of
        # edges; the record must refuse it rather than drop a limit
        assert limit_temperatures(CASE3(0.9)).intervals
        roots = limits._root_brackets

        def spurious(*args):
            first, last, *brackets = roots(*args)
            return first, last, *(np.append(x, a) for x, a in zip((1, True, 0.01, 0.02, 0), brackets))

        monkeypatch.setattr(limits, "_root_brackets", spurious)
        with pytest.raises(RuntimeError, match="unpaired sign changes"):
            limit_temperatures(CASE3(0.9))

    def test_top_edge_against_the_top_sign_raises(self, monkeypatch):
        # of the entropic row only the top bracket is refined; one entering
        # the negative set contradicts the row's non-negative last sample,
        # and the record must refuse it
        lt = limit_temperatures(CASE3(0.9))
        assert lt.t_entropic is not None and "entropic" not in lt.censored
        entropic = limits._entropic_brackets

        def entering(*args):
            first, last, leaving, *bracket = entropic(*args)
            return first, last, ~leaving, *bracket

        monkeypatch.setattr(limits, "_entropic_brackets", entering)
        with pytest.raises(RuntimeError, match="top edge"):
            limit_temperatures(CASE3(0.9))

    @pytest.mark.parametrize("fault", ["above", "censored"])
    def test_entropic_detection_without_disorder_detection_raises(self, monkeypatch, fault):
        # entropic detection implies disorder detection, so an entropic limit
        # more than refinement noise above the disorder limit, or an entropic
        # row still negative above the disorder row's top bracket, is a fault
        # of the scan that the record must refuse, not report
        lt = limit_temperatures(CASE3(0.9))
        assert "disorder" not in lt.censored
        entropic = limits._entropic_brackets

        def faulty(*args):
            first, last, leaving, lo, hi, model = entropic(*args)
            if fault == "censored":
                return first, np.ones_like(last), ~leaving, lo, hi, model
            t = np.full_like(lo, lt.t_disorder * (1.0 + 1e-9))
            return first, last, leaving, t, t, model

        monkeypatch.setattr(limits, "_entropic_brackets", faulty)
        with pytest.raises(RuntimeError, match="lies above" if fault == "above" else "detects where"):
            limit_temperatures(CASE3(0.9))

    def test_grid_pass_evaluates_only_grid_samples(self, monkeypatch):
        # the entropic pass evaluates the samples i t_max/grid_n of each model
        # from the first above the disorder row's top bracket (i = grid_n where
        # the disorder row detects at t_max) down, in chunks of 64, 256, 1024,
        # ... samples, and stops at the end of the chunk that holds its top
        # sign change (at T = 0 without one): a contiguous run of grid samples
        # reaching at most one chunk below that change, and none where the
        # disorder row never detects.  Over the whole scan, bisection included,
        # fig2's, fig3's and fig4's 201 models take at most 20,000, 33,000 and
        # 25,000 kernel columns (21,493, 41,138 and 22,296 when the row was
        # sampled from T = 0 up; fig4 took 65,658 when the exact and disorder
        # rows were found on the grid too)
        calls, in_entropic_pass, uppers = [], [], []
        kernel, entropic = limits._margin_columns, limits._entropic_brackets

        def record(energies, vm_ratio, b_ratio, ts):
            table = kernel(energies, vm_ratio, b_ratio, ts)
            calls.append((energies, ts, table[3], bool(in_entropic_pass)))
            return table

        def flagged(*args):
            uppers.append(args[-1])  # the disorder row's top bracket ends, or t_max
            in_entropic_pass.append(True)
            try:
                return entropic(*args)
            finally:
                in_entropic_pass.clear()

        monkeypatch.setattr(limits, "_margin_columns", record)
        monkeypatch.setattr(limits, "_entropic_brackets", flagged)
        fields = np.linspace(0.0, 2.0, 201)
        for t_max, ps, budget in (
            (None, [XX(b) for b in fields], 20_000),
            (None, [MAX_ANISO(b) for b in fields], 33_000),
            (None, [CASE3(b) for b in fields], 25_000),
            (0.5, [CASE3(b) for b in (0.0, 0.9, 2.0)], None),
            (30.0, [CASE3(0.9), XX(0.5), canonicalize(0.0, 0.0, 0.0, 0.0)], None),
        ):
            calls.clear()
            uppers.clear()
            records = _limit_records(ps, t_max)
            (upper,) = uppers
            energies, ts, margin = (np.concatenate([c[k] for c in calls if c[3]], axis=-1) for k in range(3))
            stopped = 0
            for p, lt, hi in zip(ps, records, upper):
                step = (_default_t_max(p) if t_max is None else t_max) / DEFAULT_GRID
                mine = (energies == eigensystem(p).gaps[:, None]).all(axis=0)
                order = np.argsort(-ts[mine], kind="stable")
                evaluated, neg = ts[mine][order], margin[mine][order] < 0.0
                if lt.t_disorder is None:
                    assert evaluated.size == 0, p
                    continue
                top = DEFAULT_GRID if "disorder" in lt.censored else round(evaluated[0] / step)
                assert np.array_equal(evaluated, np.arange(top, top - evaluated.size, -1) * step), p
                if "disorder" not in lt.censored:
                    assert lt.t_disorder <= hi <= lt.t_disorder * (1.0 + 1e-5), p
                    assert evaluated[1] <= hi < evaluated[0], p
                if evaluated[-1] == 0.0 and margin[mine][order][-1] == 0.0:
                    neg[-1] = neg[-2]  # a margin exactly 0 at T = 0 takes the sign above it
                changes = np.flatnonzero(neg[1:] != neg[:-1])
                ends = np.cumsum(limits._FIRST_CHUNK * limits._GROWTH ** np.arange(8))  # down to each chunk's end
                if changes.size == 0:
                    assert evaluated[-1] == 0.0, p
                    continue
                stopped += 1
                c = changes[0] + 1  # the sample below the top sign change, in evaluation order
                assert evaluated.size == min(top + 1, ends[np.searchsorted(ends, c, side="right")]), p
                if lt.t_entropic is not None and "entropic" not in lt.censored:
                    assert evaluated[c] <= lt.t_entropic <= evaluated[c - 1], p
            assert stopped
            if budget is not None:
                assert sum(t.size for _, t, _, _ in calls) <= budget


class TestSignChangeCertificate:
    """The exact and disorder rows are bracketed from the zeros of their
    exponential sums, isolated by Laguerre's rule of signs and Rolle steps
    (module docstring): the bound holds on every full grid, narrow lobes are
    found, and entropic detection implies disorder detection pointwise, so
    the entropic row need not be sampled above the disorder row's top."""

    #: between these fields (4 ulps apart) the second exact interval of CASE3,
    #: an m03 lobe near T = 0.6451, closes: the minimum of the 50-digit m03
    #: over T is -1.1e-16 at the first and +7.0e-17 at the second (a grid of
    #: 4096 samples with the t_r window lost the lobe from 1.117688862704923 up)
    LOBE_OPEN, LOBE_CLOSED = 1.1176889433537176, 1.1176889433537185
    #: m03 has bound 2, as -(w3 - w0)^2 puts -1, 2, -1 on nearly equal exponents
    LOOSE_BOUND = (0.0812208166341524, -0.01757039728340143, -5.472783263878623, 6.800158599933459)

    @staticmethod
    def certificate(p):
        """The bounds of rows m12, m03 and disorder."""
        eig = eigensystem(p)
        return limits._sign_change_bounds(eig.gaps[:, None], np.array([eig.vm_ratio]), np.array([eig.b_ratio]))[0][:, 0]

    @staticmethod
    def grid_sign_changes(table):
        neg = table < 0.0
        neg[:, 0] = np.where(table[:, 0] == 0.0, neg[:, 1], neg[:, 0])
        return (neg[:, 1:] != neg[:, :-1]).sum(axis=1)

    def test_grid_sign_changes_within_the_partial_sum_bound(self, rng):
        tight = 0
        for p, t_max, grid_n in _reference_cases(rng):
            eig = eigensystem(p)
            changes = self.grid_sign_changes(margin_table(eig, _ref_grid(p, t_max, grid_n)))[:3]
            bound = self.certificate(p)
            assert np.all(changes <= bound), (p, changes, bound)
            tight += int(np.sum((changes == bound) & (changes == 2)))
        assert tight  # reentry models meet the bound of 2

    def test_field_far_above_v_minus_within_its_bound(self):
        # b >> v_minus (the two ROADMAP repros): the disorder row's coefficient
        # 1 - b/Delta lies near or below the float spacing of 1, and formed as
        # 1 - b it left the first model a bound of 0 beside its one sign change
        ps = [
            canonicalize(1.00000001, 0.99999999, 0.3, 1.0),
            canonicalize(1.0000001310448017, 0.9999998689551984, 0.21050010602433808, 4.652433864616178),
        ]
        for p in ps:
            changes = self.grid_sign_changes(margin_table(eigensystem(p), _ref_grid(p, None, DEFAULT_GRID)))[:3]
            bound = self.certificate(p)
            assert changes[2] == 1 and np.all(changes <= bound), (p, changes, bound)

    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(-300, 300),
    )
    @example(1.7, 0.3, 0.0, 0.71, 0)  # disorder and entropic fire only below 0.00549
    @example(1.0, 1.0, 0.0, 1.5, 0)  # m03 exactly 0 at T = 0
    @example(1.0, 0.0, 0.0, 1.0, 300)  # |b/Delta| near 1, product-diagonal ground pair
    @example(1.343514123042203, -1.1694385314915339, -6.263640849586743, 0.8798462890500257, -300)
    @example(0.0, 0.0, 0.0, 0.0, 0)
    @example(0.890625, 0.125, 0.125, 1e-9, 0)  # separable ground pair E2 = E3, entropic margin +1.2e-18
    @example(1.0000001310448017, 0.9999998689551984, 0.21050010602433808, 4.652433864616178, 0)  # b >> v_minus
    @settings(max_examples=300, deadline=None)
    def test_entropic_detection_implies_disorder_detection(self, vx, vy, vz, b, exponent):
        lam = 10.0**exponent
        vals = (lam * vx, lam * vy, lam * vz, lam * b)
        if 0.0 < max(map(abs, vals)) < MIN_ENERGY_SCALE:
            with pytest.raises(OutOfRange):  # a nonzero scale below the bound is rejected
                canonicalize(*vals)
            return
        p = canonicalize(*vals)
        ts = np.concatenate([[0.0], np.geomspace(1e-4, 10.0, 400)]) * (p.energy_scale or 1.0)
        table = margin_table(eigensystem(p), ts)
        assert np.all(table[2, table[3] < 0.0] < 0.0), (p, ts[(table[3] < 0.0) & (table[2] >= 0.0)])

    def test_pinned_cases_keep_their_second_interval(self):
        # m03 has bound 2 in both; the loose bound's record is the grid scan's,
        # and CASE3's second interval is found up to the last ulp of b where
        # it exists, however narrow it gets
        for p in (canonicalize(*self.LOOSE_BOUND), CASE3(self.LOBE_OPEN * (1.0 - 1e-6))):
            assert self.certificate(p)[1] == 2, p
        p = canonicalize(*self.LOOSE_BOUND)
        assert_within(limit_temperatures(p, grid_n=64), reference_limit_temperatures(p, None, 64), 2 * DEFAULT_REL_TOL)
        widths = []
        for b in [self.LOBE_OPEN * (1.0 - 10.0**-k) for k in range(3, 16)] + [self.LOBE_OPEN]:
            lt = limit_temperatures(CASE3(b))
            assert len(lt.intervals) == 2 and lt.intervals[1][0] == pytest.approx(0.645, abs=0.02), (b, lt)
            widths.append(lt.intervals[1][1] - lt.intervals[1][0])
        assert widths == sorted(widths, reverse=True) and widths[-1] < 1e-6
        for b in (self.LOBE_CLOSED, self.LOBE_CLOSED * (1.0 + 1e-9)):
            assert limit_temperatures(CASE3(b)).reentry is None, b

    def test_entropic_row_is_evaluated_wherever_disorder_detects(self, monkeypatch):
        # no real model shows a second entropic interval, so a narrow one is
        # put into the kernel inside CASE3(0.2)'s disorder-only range
        # (0.378, 0.718); the entropic row has no bound of its own, and the
        # scan finds the interval because it samples the row up to the
        # disorder row's top edge
        kernel = limits._margin_columns

        def with_lobe(energies, vm_ratio, b_ratio, ts):
            table = kernel(energies, vm_ratio, b_ratio, ts)
            table[3, (0.6 < ts) & (ts < 0.61)] = -1.0
            return table

        monkeypatch.setattr(limits, "_margin_columns", with_lobe)
        lt = limit_temperatures(CASE3(0.2), grid_n=8192)
        assert lt.t_entropic == pytest.approx(0.61, rel=1e-9) and lt.t_disorder == pytest.approx(0.718, rel=1e-3)

    def test_entropic_sign_changes_below_the_top_detection_are_not_needed(self, monkeypatch):
        # a positive blip in the entropic row below CASE3(0.2)'s top entropic
        # edge (0.378), where the row detects on every grid sample: the
        # entropic pass scans down from the disorder row's top edge (0.718)
        # and stops in the first chunk that holds the top sign change, so it
        # never evaluates the blip, and the record is the same
        p = CASE3(0.2)
        want = limit_temperatures(p)
        step = _default_t_max(p) / DEFAULT_GRID
        grid = np.arange(math.ceil(0.1 / step), math.floor(0.11 / step) + 1) * step
        assert grid.size and np.all(margin_table(eigensystem(p), grid)[3] < 0.0)
        kernel, entropic, blip, in_entropic_pass = limits._margin_columns, limits._entropic_brackets, [], []

        def with_blip(energies, vm_ratio, b_ratio, ts):
            table = kernel(energies, vm_ratio, b_ratio, ts)
            inside = (0.1 < ts) & (ts < 0.11)
            if in_entropic_pass:
                blip.append(ts[inside])
            table[3, inside] = 1.0
            return table

        def flagged(*args):
            in_entropic_pass.append(True)
            try:
                return entropic(*args)
            finally:
                in_entropic_pass.clear()

        monkeypatch.setattr(limits, "_margin_columns", with_blip)
        monkeypatch.setattr(limits, "_entropic_brackets", flagged)
        assert limit_temperatures(p) == want
        assert blip and np.concatenate(blip).size == 0  # the entropic pass ran, and never inside the blip

    def test_exact_and_disorder_limits_ignore_the_grid(self, rng):
        # the exact and disorder rows take no grid: grid_n, and a t_max above
        # t_cut, change no bit of their limits (only the entropic row's sampling)
        ps = [random_canonical_params(rng) for _ in range(400)]
        while len(ps) < 500:  # and fields just above the level crossing
            vp = rng.uniform(0.5, 2.0)
            vm = rng.uniform(0.0, 0.9) * vp
            bc = b_crossing(canonicalize(vp + vm, vp - vm, 0.2 * vp, 0.0))
            ps.append(canonicalize(vp + vm, vp - vm, 0.2 * vp, bc * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0))))
        key = lambda lt: (lt.t_exact, lt.t_disorder, lt.intervals, lt.reentry)
        want = [key(lt) for lt in _limit_records(ps)]
        for t_max, grid_n in ((None, 64), (1e6, DEFAULT_GRID), (1e6, 64)):
            assert [key(lt) for lt in _limit_records(ps, t_max, grid_n)] == want, (t_max, grid_n)


class TestSharedScanBoundaries:
    """Models share the scan's kernel calls, the entropic pass's in batches
    of samples, but one model's last sample and the next one's T = 0 sample
    are no bracket: a model still negative at t_max followed by one
    separable at T = 0 (or the reverse) gives each model its own record."""

    @pytest.mark.parametrize("batch", [limits._BATCH, 64])
    def test_censored_models_in_one_scan(self, monkeypatch, batch):
        monkeypatch.setattr(limits, "_BATCH", batch)
        ps = [CASE3(b) for b in np.linspace(0.0, 2.0, 21)] + [XX(0.0), canonicalize(1.0, 0.4, 0.4, 0.0)]
        for t_max in (0.3, 0.5, None):
            got = _limit_records(ps, t_max)
            assert got == [limit_temperatures(p, t_max=t_max) for p in ps], t_max
            assert t_max is None or sum(bool(lt.censored) for lt in got) >= 10


# ---------------------------------------------------------------------------
# Reference: one grid scan and one scalar bisection per margin, each
# criterion on its own, with the array margins written out separately.
# The single-table scan must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def _ref_exact(eig, ts):
    gap = eig.gaps[:, None]
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


#: the reference scans take each disorder or entropic margin closer to 0
#: than this exactly, from the same float weights: in rationals, or in
#: mpmath with up to 1,400 bits where logs enter.  It lies far above the
#: rounding of the short forms (under 2e-15), so the kernel's forms near 0
#: are checked against exact arithmetic, not reused.
_REF_NEAR_ZERO = 1e-10


def _ref_ratios(eig):
    # |b/Delta| as exact rationals: b_ratio, and where its distance from 1
    # counts (|b/Delta| >= 1/2) 1 - c with c = (v_minus/Delta)^2 / (1 + |b/Delta|),
    # since 1 - |b_ratio| is rounding there
    b = abs(Fraction(eig.b_ratio))
    return b, 1 - Fraction(eig.vm_ratio) ** 2 / (1 + b) if 2 * b >= 1 else b


def _ref_weights(eig, t):
    return [Fraction(float(x)) for x in thermal_probabilities(eig, np.array([t]))[:, 0]]


def _exact_disorder(eig, t):
    # the worst level's (sum p + |b/Delta| |p_2 - p_1|)/2 - p_j
    w, (b, b_top) = _ref_weights(eig, t), _ref_ratios(eig)
    top = 1 if w[1] >= w[2] else 2
    return float(min((sum(w) + (b_top if j == top else b) * abs(w[2] - w[1])) / 2 - w[j] for j in range(4)))


def _exact_entropic(eig, t):
    # sum_k q_k ln(q_k/sigma) - sum_j p_j ln(p_j/sigma), over sigma ln 2, with
    # sigma = sum p and the reduced spectrum q = (sigma +- |b/Delta| (p_1 - p_2))/2
    mpmath = pytest.importorskip("mpmath")
    w = _ref_weights(eig, t)
    sigma, split = sum(w), _ref_ratios(eig)[1] * (w[1] - w[2])
    for prec in (160, 1400):  # the terms are at most ~1 in size; 160 bits settle all but tiny margins
        with mpmath.workprec(prec):
            mp = lambda f: mpmath.mpf(f.numerator) / f.denominator
            s = mp(sigma)
            xlog = lambda f: mp(f) * mpmath.log(mp(f) / s) if f else mpmath.mpf(0)
            terms = [xlog((sigma + split) / 2), xlog((sigma - split) / 2)] + [-xlog(f) for f in w]
            margin = mpmath.fsum(terms) / (s * mpmath.log(2))
            if abs(margin) > 1e-40:
                break
    return float(margin)


def _ref_near_zero(eig, ts, values, exact, row, ulps):
    """values, with each one within _REF_NEAR_ZERO of 0 replaced by the exact
    margin.  Where the kernel's sign differs from it, the exact margin must
    change sign within ulps ulps of t, where no float evaluation can be held
    to a sign; the kernel's value is taken there."""
    for k in np.flatnonzero(np.abs(values) < _REF_NEAR_ZERO):
        t = float(ts[k])
        values[k] = exact(eig, t)
        kernel = margin_table(eig, np.array([t]))[row, 0]
        if (values[k] < 0.0) != (kernel < 0.0):
            around = [t]
            for direction in (-math.inf, math.inf):
                u = t
                for _ in range(ulps):
                    u = math.nextafter(u, direction)
                    around.append(u)
            signs = {exact(eig, u) < 0.0 for u in around if u >= 0.0}
            assert len(signs) == 2, (eig, t, row, values[k], kernel)
            values[k] = kernel
    return values


def _ref_disorder(eig, ts):
    # the worst level's margin
    p = thermal_probabilities(eig, ts)
    short = (0.5 * (1.0 + np.abs(eig.b_ratio * (p[2] - p[1]))) - p).min(axis=0)
    return _ref_near_zero(eig, ts, short, _exact_disorder, 2, 4)


def _ref_entropic(eig, ts):
    # S(rho) - S(rho_A), each reduced-spectrum term q_k ln q_k paired with
    # the weight term p_k ln p_k it cancels against
    p = thermal_probabilities(eig, ts)
    a = 0.5 * (1.0 + abs(eig.b_ratio))
    q1 = 0.5 * p[0] + a * p[1] + (1.0 - a) * p[2] + 0.5 * p[3]
    q2 = 0.5 * p[0] + (1.0 - a) * p[1] + a * p[2] + 0.5 * p[3]
    x = xlogy(p, p)
    short = ((xlogy(q1, q1) - x[1]) + (xlogy(q2, q2) - x[2]) - x[0] - x[3]) / math.log(2.0)
    # the kernel's entropic margin rounds its logs by ~1e-16, which the shallow
    # root of one reference case (T = 0.2431690018419792) spreads over 6 ulps
    return _ref_near_zero(eig, ts, short, _exact_entropic, 3, 6)


def _ref_bisect(f, lo, hi, f_lo_neg, rel):
    for _ in range(2200):
        if hi - lo <= rel * hi:
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == f_lo_neg:
            lo = mid
        else:
            hi = mid
    return hi if f_lo_neg else lo  # the end where the margin is >= 0


def _ref_violation_intervals(f_arr, ts, t_end, rel):
    """The intervals where f_arr is negative, and whether the last one
    reaches t_end (the criterion still fires at the top of the scan)."""
    values = f_arr(ts)
    neg = values < 0.0
    if values[0] == 0.0:  # a margin exactly 0 at T = 0 takes the next sample's sign
        neg[0] = neg[1]
    if not neg.any():
        return [], False

    @functools.cache  # a bisection below the float spacing repeats its last midpoint
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


def _ref_grid(p, t_max, grid_n):
    """The whole grid up to t_max, with a window of grid_n samples up to
    3 t_r merged in where the two-level gap temperature t_r exists and
    level 3 lies below levels 0 and 1, so both lobes around the separable
    gap are sampled even where they are much narrower than the grid step."""
    eig = eigensystem(p)
    t_end = _default_t_max(p) if t_max is None else t_max
    ts = np.linspace(0.0, t_end, grid_n + 1)
    t_r = reentry_two_level(p)
    if t_r is not None and eig.energies[3] < min(eig.energies[:2]):
        ts = np.unique(np.concatenate([ts, np.linspace(t_r / grid_n, min(3.0 * t_r, t_end), grid_n)]))
    return ts[ts <= t_end]


def reference_limit_temperatures(p, t_max=None, grid_n=DEFAULT_GRID, rel_tol=DEFAULT_REL_TOL):
    # the whole grid up to t_max: the scan's claim that no margin changes
    # sign past t_cut is checked, not assumed
    eig = eigensystem(p)
    t_end = _default_t_max(p) if t_max is None else t_max
    ts = _ref_grid(p, t_max, grid_n)

    def scan(f_arr):
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
        bc = b_crossing(canonicalize(vp + vm, vp - vm, vz, 0.0))
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
    for k in range(12):  # user t_max far above t_cut, where the scan stops its tables
        vp, vm, b = rng.uniform(0.1, 2.0, size=3)
        p = canonicalize(vp + vm, vp - vm, rng.uniform(-0.5, 0.5), b)
        cases.append((p, rng.uniform(5.0, 100.0) * p.energy_scale, grids[k % 4]))
    return cases


def assert_within(got, want, rel):
    """The records have the same structure and their temperatures agree within rel."""
    assert (got.censored, len(got.intervals), got.reentry is None) == (want.censored, len(want.intervals), want.reentry is None)
    pairs = [(got.t_exact, want.t_exact), (got.t_disorder, want.t_disorder), (got.t_entropic, want.t_entropic)]
    pairs += list(zip(np.ravel(got.intervals), np.ravel(want.intervals)))
    if got.reentry is not None:
        pairs += [(got.reentry.lower, want.reentry.lower), (got.reentry.upper, want.reentry.upper)]
        assert got.reentry.two_level == want.reentry.two_level
    for a, b in pairs:
        assert (a is None) == (b is None) and (a is None or abs(a - b) <= rel * b), (got, want)


class TestSingleScanMatchesReference:
    #: the one reference case whose kernel margin flips sign more than once
    #: near its limit: the disorder margin reads +, +, -, -, -, + on the six
    #: floats from T = 0.864397809566739 up, so bisections from different
    #: brackets stop on different flips, 5 ulps apart (CHANGES.md, FOUND:
    #: `limits._margin_columns` flips the sign of a margin)
    FLIPPING = canonicalize(3.8376180877178805, -0.08983962495432518, -0.48062809776662885, 0.7076993154781767)

    def test_bit_identical_to_per_criterion_scans(self, rng):
        # both sides refine to adjacent floats, so the brackets the zeros of
        # the sums give end where the grid scans' do, on the same sign flip
        # of the kernel's margin
        cases = _reference_cases(rng)
        assert len(cases) >= 200
        censored = never = reentry = flipping = 0
        for p, t_max, grid_n in cases:
            got = limit_temperatures(p, t_max=t_max, grid_n=grid_n, rel_tol=1e-300)
            want = reference_limit_temperatures(p, t_max, grid_n, rel_tol=1e-300)
            if p == self.FLIPPING:
                flipping += 1
                assert got == dataclasses.replace(want, t_disorder=got.t_disorder), (p, t_max)
                assert abs(got.t_disorder - want.t_disorder) <= 5 * math.ulp(want.t_disorder), (got, want)
            else:
                assert got == want, (p, t_max)
            censored += "exact" in got.censored
            never += not got.intervals
            reentry += got.reentry is not None
        assert censored and never and reentry and flipping == 1

    def test_default_tolerance_matches_per_criterion_scans(self, rng):
        # at rel_tol = 1e-10 the brackets differ, and so the last steps of each
        # bisection: the same record structure, every temperature within 2 rel_tol
        for p, t_max, grid_n in _reference_cases(rng):
            got = limit_temperatures(p, t_max=t_max, grid_n=grid_n)
            assert_within(got, reference_limit_temperatures(p, t_max, grid_n), 2 * DEFAULT_REL_TOL)

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

    def test_margins_near_zero_match_exact_arithmetic(self):
        # margins within 1e-13 of 0 away from any sign change: a degenerate
        # separable ground pair (b/Delta from 2.6e-12 to 2.6e-4) and b >> v_minus
        # below the disorder limit; each keeps full relative accuracy
        ts = np.geomspace(1e-3, 1.5e-2, 7)
        cases = [(canonicalize(0.890625, 0.125, 0.125, b), ts) for b in np.geomspace(1e-12, 1e-4, 5)]
        cases.append((canonicalize(1.00000001, 0.99999999, 0.3, 1.0), np.geomspace(2e-3, 6e-3, 7)))
        checked = 0
        for p, ts in cases:
            eig = eigensystem(p)
            table = margin_table(eig, ts)
            for k, t in enumerate(ts):
                for row, exact in ((2, _exact_disorder), (3, _exact_entropic)):
                    want = exact(eig, float(t))
                    if 0.0 < abs(want) < 1e-13:
                        assert abs(table[row, k] - want) <= 1e-12 * abs(want), (p, t, row, table[row, k], want)
                        checked += 1
        assert checked >= 30

    def test_kernel_columns_are_one_model_tables(self, rng):
        # one model per column gives each column the bits of its own table
        models = [random_canonical_params(rng) for _ in range(30)] + [canonicalize(0.7, 0.7, -0.3, 0.0)]
        eigs = [eigensystem(p) for p in models]
        ts = np.concatenate([[0.0], log_uniform(rng, 1e-2, 1e1, size=len(models) - 1)])
        ts *= [p.energy_scale for p in models]
        table = _margin_columns(
            np.stack([e.gaps for e in eigs], axis=1),
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
