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
from xyzent.cli import _FIGURES, main
from xyzent.criteria import disorder_check, entropic_check
from xyzent.entanglement import exact_margins, separability_exact
from xyzent.errors import DegenerateBasis, OutOfRange
from xyzent.limits import (
    LimitTemperatures,
    ReentryWindow,
    _limit_records,
    _margin_columns,
    limit_temperatures,
    reentry_two_level,
)
from xyzent.linalg import b_crossing, closed_form_limits, mixture_thresholds, thermal_margin_exact
from xyzent.meanfield import critical_temperature
from xyzent.model import MAX_ENERGY_SCALE, MIN_ENERGY_SCALE, _eigen_columns, canonicalize, eigensystem
from xyzent.states import _NEAR_ZERO, _entropic_near_zero, _gibbs, mixture, thermal_mixture, thermal_probabilities

from conftest import limit_families, log_uniform, random_canonical_params, tiny_coupling_family

ALPHA = 1.0 / math.log(1.0 + math.sqrt(2.0))  # 1.134593

XX = lambda b: canonicalize(1.0, 1.0, 0.0, b)  # case 1: v_plus = 1
MAX_ANISO = lambda b: canonicalize(1.0, -1.0, 0.0, b)  # case 2: v_minus = 1
CASE3 = lambda b: canonicalize(1.7, 0.3, 0.0, b)  # v_plus = 1, v_minus = 0.7
#: the 597 in-range models of the tiny-coupling family
TINY = [canonicalize(*m) for m in tiny_coupling_family(600) if max(map(abs, m)) >= MIN_ENERGY_SCALE]

#: the reference scans' own grid: samples every REF_RANGE/REF_GRID up to
#: REF_RANGE energy scales (1 for the all-zero model), far past t_cut
REF_GRID, REF_RANGE = 4096, 20.0
#: the reference scans' bisection stop, hi - lo <= REF_REL_TOL hi
REF_REL_TOL = 1e-10


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
        # the scan takes no grid and no range: each model's ends at its own
        # t_cut, and a record names no criterion cut off at the top
        for setting in ({"grid_n": 4096}, {"t_max": 30.0}):
            with pytest.raises(TypeError):
                limit_temperatures(XX(0.5), **setting)
        assert [f.name for f in dataclasses.fields(LimitTemperatures)] == [
            "t_exact", "t_disorder", "t_entropic", "intervals", "reentry",
        ]

    def test_grid_is_bounded_above(self, monkeypatch):
        # the entropic pass samples each model on the floor grid U i/4096 at
        # most, the size of the grid it replaced: with a bound that proves
        # nothing it splits every piece above the highest negative sample down
        # to the floor, in one call of the entropic row for the ends and one
        # per round, and finds the same records, as a piece the bound drops
        # holds no negative sample
        ps = [CASE3(0.2), CASE3(0.9), XX(0.5), MAX_ANISO(1.0)]
        want = _limit_records(ps)
        columns, in_pass = [], []
        kernel, entropic = limits._entropic_columns, limits._entropic_brackets

        def record(*args):
            if in_pass:
                columns.append(args[-1].size)
            return kernel(*args)

        def flagged(*args):
            in_pass.append(True)
            try:
                return entropic(*args)
            finally:
                in_pass.clear()

        monkeypatch.setattr(limits, "_entropic_columns", record)
        monkeypatch.setattr(limits, "_entropic_brackets", flagged)
        monkeypatch.setattr(limits, "_entropic_margin_bound", lambda gaps, b_r, lo, hi: np.full(lo.shape, -1.0))
        assert _limit_records(ps) == want
        assert 2 * len(ps) < sum(columns) <= 4097 * len(ps) and len(columns) == limits._ROUNDS + 1, columns


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
                lt = limit_temperatures(p)
                if lt.t_entropic is not None:
                    assert lt.t_disorder is not None
                    assert lt.t_entropic <= lt.t_disorder + 1e-9
                if lt.t_disorder is not None:
                    assert lt.t_disorder <= lt.t_exact + 1e-9
                if b == 0.0 and lt.t_disorder is not None:
                    assert abs(lt.t_disorder - lt.t_exact) < 1e-6

    def test_disorder_over_exact_ratio_case2(self):
        for b in (0.0, 0.5, 1.0, 2.0, 5.0):
            lt = limit_temperatures(MAX_ANISO(b))
            assert lt.t_disorder / lt.t_exact >= 0.5 - 1e-9

    def test_reentry_flag_matches_interval_count(self):
        lt = limit_temperatures(CASE3(0.9))
        assert lt.reentry is not None and len(lt.intervals) == 2
        lt = limit_temperatures(XX(0.5))
        assert lt.reentry is None and len(lt.intervals) == 1

    def test_separable_model_reports_zero(self):
        # degenerate ground state at zero field: T_c exists but T_e = 0
        p = canonicalize(1.0, 0.4, 0.4, 0.0)
        lt = limit_temperatures(p)
        assert lt.t_exact == 0.0
        assert lt.t_disorder is None
        assert critical_temperature(p) == pytest.approx(0.5, abs=1e-12)

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
    def test_scan_ends_at_t_cut(self, monkeypatch):
        # the kernel samples the model from T = 0 up to its own t_cut, the
        # scan's range, and no higher
        p = canonicalize(1.0, 0.3, 0.0, 0.0)
        kernel, ts = limits._margin_columns, []
        monkeypatch.setattr(limits, "_margin_columns", lambda *args: ts.append(args[-1]) or kernel(*args))
        assert limit_temperatures(p).t_exact == pytest.approx(0.66442074918, rel=1e-10)
        eig, ts = eigensystem(p), np.concatenate(ts)
        assert (ts.min(), ts.max()) == (0.0, (eig.energies.max() - eig.energies.min()) / math.log(2.0))

    #: the most kernel calls of one scan: a figure's 201 models, and one model
    BUDGET = {"figure": 20, "one model": 16}

    def test_bisection_stops_at_adjacent_floats(self, rng, monkeypatch):
        # every edge is certified by the kernel itself: its row's margin is
        # >= 0 at the edge and negative on the next float toward the
        # detecting side, on fig2-4 and the oracle's families, and the scan
        # takes at most BUDGET kernel calls
        calls = []
        kernel = limits._margin_columns
        monkeypatch.setattr(limits, "_margin_columns", lambda *args: calls.append(1) or kernel(*args))
        groups = []
        for v_plus, v_minus, _ in _FIGURES.values():
            fields = np.linspace(0.0, 2.0, 201) * (v_plus or v_minus)
            groups.append(("figure", [canonicalize(v_plus + v_minus, v_plus - v_minus, 0.0, float(b)) for b in fields]))
        groups.append(("one model", [CASE3(0.2)]))
        cases = []
        for kind, ps in groups:
            calls.clear()
            cases += zip(ps, _limit_records(ps))
            assert len(calls) <= self.BUDGET[kind], (kind, len(calls))
        ps = limit_families(rng, 60)
        cases += zip(ps, _limit_records(ps))
        monkeypatch.undo()
        edges = 0
        for p, lt in cases:
            eig = eigensystem(p)
            for rows, t, side in self.edges(lt):
                ts = np.array([t, np.nextafter(t, side * math.inf)])
                near = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)
                assert any(near[r, 0] >= 0.0 > near[r, 1] for r in rows), (p, lt, rows, t)
                edges += 1
            if lt.t_entropic is not None and lt.t_entropic == lt.t_disorder:
                # an entropic edge within 16 eps above the disorder one is moved
                # onto it (_limit_table): the entropic margin is >= 0 by then
                ts = lt.t_disorder * (1.0 + np.arange(17) * np.finfo(float).eps)
                assert (_margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)[3] >= 0.0).any(), (p, lt)
        assert edges >= 2000, edges

    def test_minimal_steps_still_reach_adjacent_floats(self, monkeypatch):
        # a margin that reads 0 wherever it is not negative, and -inf wherever
        # it is (so that no Illinois halving moves it), pins every regula
        # falsi step to 4 ulps inside a bracket leaving the negative set, so
        # only the midpoint safeguard shrinks it, by half its width in floats
        # every third step.  Widened to [5e-324, 1e300], with the clipped
        # margins at its new ends, the m03 bracket of CASE3(0.2) then takes
        # about 180 steps, and still ends on the same adjacent floats within
        # _MAX_STEPS; with fewer steps the scan raises rather than report an
        # edge of a wider bracket
        want = limit_temperatures(CASE3(0.2))
        roots, values, calls = limits._root_brackets, limits._values, []

        def wide(gaps, vm_ratio, b_ratio):
            first, rows, leaving, lo, hi, f_lo, f_hi, model = roots(gaps, vm_ratio, b_ratio)
            assert rows.tolist() == [2, 1] and lo[1] < want.t_exact <= hi[1]
            lo[1], hi[1] = 5e-324, 1e300
            ends = np.array([lo[1], hi[1]])
            f_lo[1], f_hi[1] = clipped(_margin_columns, gaps, vm_ratio, b_ratio, model[[1, 1]], ends)[1]
            return first, rows, leaving, lo, hi, f_lo, f_hi, model

        def clipped(*args):
            calls.append(1)
            return np.where(values(*args) < 0.0, -math.inf, 0.0)

        monkeypatch.setattr(limits, "_root_brackets", wide)
        monkeypatch.setattr(limits, "_values", clipped)
        assert limit_temperatures(CASE3(0.2)) == want
        assert 150 < len(calls) <= limits._MAX_STEPS, len(calls)
        monkeypatch.setattr(limits, "_MAX_STEPS", 150)
        with pytest.raises(RuntimeError, match="not adjacent floats after 150 steps"):
            limit_temperatures(CASE3(0.2))

    @staticmethod
    def edges(lt):
        """(rows, edge, side) of every edge of a record: the rows of the
        margin table that change sign there, and the side (+-1) of the
        negative margin.  An entropic edge on the disorder one, and a lower
        end on the upper end below it, are left out: limits._limit_table
        moved them onto that edge (coinciding limits, overlapping violation
        sets), which is certified."""
        ints = lt.intervals
        for k, (lo, hi) in enumerate(ints):
            if lo > 0.0 and not (k and lo == ints[k - 1][1]):
                yield (0, 1), lo, 1.0
            yield (0, 1), hi, -1.0
        for row, t in ((2, lt.t_disorder), (3, lt.t_entropic)):
            if t is not None and not (row == 3 and t == lt.t_disorder):
                yield (row,), t, -1.0


class TestScanFromZero:
    """T = 0 is the first sample of every row, so a limit far below the scan
    range is still found."""

    def test_criteria_firing_only_below_first_step(self):
        # fig4 model at b/v = 0.71: disorder and entropic fire only below
        # T = 0.00549, under the first positive sample 20 * 1.7 / 4096 of a
        # 4096-step grid over the default range
        lt = limit_temperatures(CASE3(0.71))
        assert lt.t_disorder < 20.0 * 1.7 / REF_GRID
        assert lt.t_disorder == pytest.approx(0.00549421282194, rel=1e-10)
        assert lt.t_entropic == pytest.approx(0.00549421282194, rel=1e-10)
        below, above = (thermal_mixture(CASE3(0.71), t) for t in (0.0054, 0.0056))
        assert disorder_check(below).detected and entropic_check(below).detected
        assert not (disorder_check(above).detected or entropic_check(above).detected)

    def test_whole_entangled_range_below_first_coarse_step(self):
        # Bell ground state |Phi_3>; entangled on [0, 1.899], below the first
        # sample 20 * 6.26 / 64 = 1.96 of a 64-step grid over the default range
        p = canonicalize(1.343514123042203, -1.1694385314915339, -6.263640849586743, 0.8798462890500257)
        lt = limit_temperatures(p)
        assert lt.intervals[0][0] == 0.0
        assert lt.t_exact == pytest.approx(1.89878669384, rel=1e-10) and lt.t_exact < 20.0 * 6.26 / 64
        assert lt.t_disorder is not None and lt.t_entropic is not None

    def test_zero_margin_at_zero_temperature_takes_next_sign(self):
        # XX above b = 1: m03 is exactly 0 from T = 0 until exp stops
        # underflowing; it takes the sign of its sum's leading coefficient,
        # its sign just above T = 0, so the interval still starts at 0
        eig = eigensystem(XX(1.5))
        assert _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([0.0]))[1, 0] == 0.0
        (lo, hi), = limit_temperatures(XX(1.5)).intervals
        assert lo == 0.0 and abs(hi - ALPHA) < 1e-6


class TestDefaultScanRange:
    """No scan range needs a check that the state is separable at its top:
    both exact margins are positive from T = 3 energy_scale on, and all
    four margins are >= 0.1 (asserted >= 0.09) at every sample past
    t_cut = (E_max - E_min)/ln 2 <= 4.33 energy_scale, where every Gibbs
    weight is within a factor 2 of every other.  This holds at every
    scale up to MAX_ENERGY_SCALE, on a coupling lattice and at fields
    just above the level crossing, so each model's scan ends at its t_cut,
    and a margin negative there is a fault of the scan."""

    def assert_separable_from_three_scales(self, p):
        s = p.energy_scale or 1.0
        eig = eigensystem(p)
        table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([3.0 * s, 20.0 * s]))
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
        # from t_cut as the scan takes it, its last sample, which it does not check
        eig = eigensystem(p)
        t_cut = self.t_cut(eig)
        ts = [eig.gaps.max() / math.log(2.0), np.nextafter(t_cut, np.inf), t_cut * (1.0 + 1e-9), 1.5 * t_cut, 4.0 * t_cut]
        table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array(ts + [20.0 * (p.energy_scale or 1.0)]))
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

    @pytest.mark.parametrize("row", [3])
    def test_margin_negative_at_t_cut_raises(self, monkeypatch, row):
        # the entropic row's range ends at the disorder row's top edge, below
        # t_cut, so it can be negative at its top: a fault that the scan must
        # refuse, rather than report a limit cut off at the top.  The other
        # rows end at t_cut, where no margin is negative (the past-cut tests
        # above), and the scan does not check them there
        p = CASE3(0.9)
        top = limit_temperatures(p).t_disorder
        kernel = limits._entropic_columns

        def negative_at_top(gaps, vm_ratio, b_ratio, ts):
            margin = kernel(gaps, vm_ratio, b_ratio, ts)
            margin[ts > top] = -1.0
            return margin

        monkeypatch.setattr(limits, "_entropic_columns", negative_at_top)
        with pytest.raises(RuntimeError, match="negative at the top of its range"):
            limit_temperatures(p)

    @pytest.mark.parametrize("fault", ["above", "censored"])
    def test_entropic_detection_without_disorder_detection_raises(self, monkeypatch, fault):
        # entropic detection implies disorder detection, so an entropic limit
        # more than refinement noise above the disorder limit, or an entropic
        # row still negative at the top of its range, the end of the disorder
        # row's top bracket, is a fault of the scan that it must refuse, not
        # report
        p = CASE3(0.9)
        lt = limit_temperatures(p)
        assert lt.t_entropic is not None
        entropic = limits._entropic_brackets

        def faulty(*args):
            last, lo, hi, model = entropic(*args)
            if fault == "censored":
                return np.ones_like(last), lo, hi, model
            t = np.full_like(lo, lt.t_disorder * (1.0 + 1e-9))
            return last, t, t, model

        monkeypatch.setattr(limits, "_entropic_brackets", faulty)
        match = {"above": "lies above", "censored": "top of its range"}[fault]
        with pytest.raises(RuntimeError, match=match):
            limit_temperatures(p)

    def test_bracket_invariants_that_need_no_check(self, rng):
        # the scan makes no check of what its brackets decide
        # (limits._limit_table): no exact or disorder row is negative at its
        # last sample, t_cut; a row's count of sign changes is odd exactly
        # where its first and last samples differ in sign; the top sign
        # change of a row leaves the negative set, as its last sample is
        # >= 0; and only a model whose disorder row has a top bracket gets an
        # entropic one.  All four hold on the oracle's families and the
        # in-range tiny-coupling models
        for ps in (limit_families(rng, 800), TINY):
            gaps, vm_ratio, b_ratio, _ = _eigen_columns(ps)
            first, rows, leaving, lo, hi, _, _, model = limits._root_brackets(gaps, vm_ratio, b_ratio)
            last = _margin_columns(gaps, vm_ratio, b_ratio, gaps.max(axis=0) / math.log(2.0))[:3] < 0.0
            assert not last.any()
            count = np.zeros((3, len(ps)), int)
            np.add.at(count, (rows, model), 1)
            assert np.array_equal(count % 2, first ^ last)
            tops = []
            for r in range(3):
                mine = np.flatnonzero(rows == r)
                tops.append(mine[model[mine] != np.append(model[mine][1:], -1)])
                assert leaving[tops[r]].all(), r
            upper = np.zeros(len(ps))
            upper[model[tops[2]]] = hi[tops[2]]
            ent_last, ent_lo, ent_hi, ent_model = limits._entropic_brackets(gaps, vm_ratio, b_ratio, upper)
            assert not ent_last.any() and (upper[ent_model] > 0.0).all()
            assert np.all((0.0 <= ent_lo) & (ent_lo < ent_hi) & (ent_hi <= upper[ent_model]))
        assert len(TINY) == 597

    def test_bracket_ends_carry_the_kernels_margins(self, rng):
        # the refinement starts from the margins _root_brackets sampled at
        # each bracket's ends, not from a second kernel call: they are the
        # kernel's at the same (model, T) bit for bit, T = 0 included, where
        # a margin of exactly 0 stays 0.0 though its leading coefficient sets
        # its sign (140 brackets of the tiny-coupling models)
        from_zero = 0
        for ps in (limit_families(rng, 800), TINY):
            gaps, vm_ratio, b_ratio, _ = _eigen_columns(ps)
            _, rows, _, lo, hi, f_lo, f_hi, model = limits._root_brackets(gaps, vm_ratio, b_ratio)
            for t, f in ((lo, f_lo), (hi, f_hi)):
                want = _margin_columns(gaps[:, model], vm_ratio[model], b_ratio[model], t)[rows, np.arange(t.size)]
                assert rows.size > 500 and want.tobytes() == f.tobytes()
            from_zero += np.count_nonzero((lo == 0.0) & (f_lo == 0.0))
        assert from_zero > 100, from_zero

    def test_certified_pass_drops_only_certified_pieces(self, monkeypatch):
        # the entropic pass samples each model at U i/4096 on [0, U], U the
        # end of the disorder row's top bracket, none where the disorder row
        # never detects.  Each piece
        # between neighbouring samples was dropped: it lies below the highest
        # negative sample, is one floor U/4096 wide, or lies inside a piece
        # whose bound exceeds _NEAR_ZERO, so the entropic margin is positive
        # on it.  The top bracket is the floor piece from the highest negative
        # sample, and t_entropic lies in it.  Kernel columns plus bounds of the
        # pass on fig2, fig3 and fig4 (3,864, 9,680 and 7,033) stay below the
        # 11,569, 20,198 and 7,172 samples of the grid the pass replaced
        columns, bounds, uppers, in_pass = [], [], [], []
        kernel, bound, entropic = limits._entropic_columns, limits._entropic_margin_bound, limits._entropic_brackets

        def record(gaps, vm_ratio, b_ratio, ts):
            margin = kernel(gaps, vm_ratio, b_ratio, ts)
            if in_pass:
                columns.append((gaps, ts, margin))
            return margin

        def record_bound(gaps, b_ratio, t_lo, t_hi):
            out = bound(gaps, b_ratio, t_lo, t_hi)
            bounds.append((gaps, t_lo, t_hi, out))
            return out

        def flagged(*args):
            uppers.append(args[-1])
            in_pass.append(True)
            try:
                return entropic(*args)
            finally:
                in_pass.clear()

        monkeypatch.setattr(limits, "_entropic_columns", record)
        monkeypatch.setattr(limits, "_entropic_margin_bound", record_bound)
        monkeypatch.setattr(limits, "_entropic_brackets", flagged)
        fields = np.linspace(0.0, 2.0, 201)
        for ps, budget in (
            ([XX(b) for b in fields], 4_000),
            ([MAX_ANISO(b) for b in fields], 10_000),
            ([CASE3(b) for b in fields], 7_172),
            ([CASE3(b) for b in (0.0, 0.9, 2.0)], None),
            ([CASE3(0.9), XX(0.5), canonicalize(0.0, 0.0, 0.0, 0.0)], None),
        ):
            columns.clear(), bounds.clear(), uppers.clear()
            records = _limit_records(ps)
            (upper,) = uppers
            gaps, ts, margin = (np.concatenate([c[k] for c in columns], axis=-1) for k in range(3))
            b_gaps, b_lo, b_hi, b_val = (np.concatenate([c[k] for c in bounds], axis=-1) for k in range(4))
            tops = 0
            for p, lt, u in zip(ps, records, upper):
                g = eigensystem(p).gaps[:, None]
                mine = (gaps == g).all(axis=0)
                if lt.t_disorder is None:
                    assert u == 0.0 and not mine.any(), p
                    continue
                assert lt.t_disorder <= u, p
                order = np.argsort(ts[mine], kind="stable")
                t, neg = ts[mine][order], margin[mine][order] < 0.0
                i = np.round(t / u * 4096)
                assert np.array_equal(t, u * (i / 4096)) and np.all(np.diff(i) > 0), p  # each sample once
                assert i[0] == 0 and i[-1] == 4096, p
                top = i[neg].max() if neg.any() else -1
                cert = (b_gaps == g).all(axis=0) & (b_val > _NEAR_ZERO)
                # the certified pieces are disjoint; k = -1 (none starts at or below) reads -inf
                lo, hi = np.sort(b_lo[cert]), np.append(np.sort(b_hi[cert]), -np.inf)
                inside = t[1:] <= hi[np.searchsorted(lo, t[:-1], side="right") - 1]
                assert np.all((i[1:] <= top) | (np.diff(i) == 1) | inside), p
                if lt.t_entropic is None:
                    assert top == -1, p
                else:
                    above = u * ((top + 1) / 4096)
                    assert top + 1 in i and u * (top / 4096) <= lt.t_entropic <= above, p
                    tops += 1
            assert tops
            if budget is not None:
                assert ts.size + b_val.size <= budget, (ts.size, b_val.size)


class TestSignChangeCertificate:
    """The exact and disorder rows are bracketed from the zeros of their
    exponential sums, isolated by Laguerre's rule of signs and Rolle steps
    (module docstring): the bound holds on every full grid, narrow lobes are
    found, and entropic detection implies disorder detection pointwise, so
    the entropic row need not be examined above the disorder row's top."""

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
        for p in _reference_cases(rng):
            eig = eigensystem(p)
            changes = self.grid_sign_changes(_margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, _ref_grid(p)))[:3]
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
            eig = eigensystem(p)
            changes = self.grid_sign_changes(_margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, _ref_grid(p)))[:3]
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
        eig = eigensystem(p)
        table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)
        assert np.all(table[2, table[3] < 0.0] < 0.0), (p, ts[(table[3] < 0.0) & (table[2] >= 0.0)])

    def test_pinned_cases_keep_their_second_interval(self):
        # m03 has bound 2 in both; the loose bound's record is the grid scan's,
        # and CASE3's second interval is found up to the last ulp of b where
        # it exists, however narrow it gets
        for p in (canonicalize(*self.LOOSE_BOUND), CASE3(self.LOBE_OPEN * (1.0 - 1e-6))):
            assert self.certificate(p)[1] == 2, p
        p = canonicalize(*self.LOOSE_BOUND)
        assert_within(limit_temperatures(p), reference_limit_temperatures(p), 2 * REF_REL_TOL)
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
        # put into the kernel, and into the bound, inside CASE3(0.2)'s
        # disorder-only range (0.378, 0.718); the entropic row has no sign
        # change bound of its own, and the scan finds the interval because
        # it drops no piece up to the disorder row's top edge that its bound
        # does not prove positive
        kernel, bound = limits._margin_columns, limits._entropic_margin_bound

        def with_lobe(gaps, vm_ratio, b_ratio, ts):
            table = kernel(gaps, vm_ratio, b_ratio, ts)
            table[3, (0.6 < ts) & (ts < 0.61)] = -1.0
            return table

        def bound_with_lobe(gaps, b_ratio, t_lo, t_hi):
            out = bound(gaps, b_ratio, t_lo, t_hi)
            out[(t_lo < 0.61) & (0.6 < t_hi)] = -1.0
            return out

        monkeypatch.setattr(limits, "_margin_columns", with_lobe)
        monkeypatch.setattr(limits, "_entropic_columns", lambda *args: with_lobe(*args)[3])
        monkeypatch.setattr(limits, "_entropic_margin_bound", bound_with_lobe)
        lt = limit_temperatures(CASE3(0.2))
        assert lt.t_entropic == pytest.approx(0.61, rel=1e-9) and lt.t_disorder == pytest.approx(0.718, rel=1e-3)

    def test_entropic_sign_changes_below_the_top_detection_are_not_needed(self, monkeypatch):
        # a positive blip in the entropic row below CASE3(0.2)'s top entropic
        # edge (0.378), where the row detects: the entropic pass on [0, 0.718]
        # finds a negative sample at 0.359 in its first round and drops every
        # piece below it, so it never evaluates the blip, and the record is
        # the same
        p = CASE3(0.2)
        want = limit_temperatures(p)
        eig = eigensystem(p)
        assert np.all(_margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.linspace(0.1, 0.11, 50))[3] < 0.0)
        kernel, entropic, blip, in_entropic_pass = limits._margin_columns, limits._entropic_brackets, [], []

        def with_blip(gaps, vm_ratio, b_ratio, ts):
            table = kernel(gaps, vm_ratio, b_ratio, ts)
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
        monkeypatch.setattr(limits, "_entropic_columns", lambda *args: with_blip(*args)[3])
        monkeypatch.setattr(limits, "_entropic_brackets", flagged)
        assert limit_temperatures(p) == want
        assert blip and np.concatenate(blip).size == 0  # the entropic pass ran, and never inside the blip

    def test_exact_and_disorder_limits_ignore_the_grid(self, rng, monkeypatch):
        # the exact and disorder rows take no grid: the entropic pass's floor
        # changes no bit of their limits
        ps = [random_canonical_params(rng) for _ in range(400)]
        while len(ps) < 500:  # and fields just above the level crossing
            vp = rng.uniform(0.5, 2.0)
            vm = rng.uniform(0.0, 0.9) * vp
            bc = b_crossing(canonicalize(vp + vm, vp - vm, 0.2 * vp, 0.0))
            ps.append(canonicalize(vp + vm, vp - vm, 0.2 * vp, bc * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0))))
        key = lambda lt: (lt.t_exact, lt.t_disorder, lt.intervals, lt.reentry)
        want = [key(lt) for lt in _limit_records(ps)]
        for rounds in (1, 2, 3):
            monkeypatch.setattr(limits, "_ROUNDS", rounds)
            assert [key(lt) for lt in _limit_records(ps)] == want, rounds


class TestSharedScanBoundaries:
    """Models share the scan's kernel calls, but one model's last sample
    and the next one's T = 0 sample are no bracket: a model separable at
    its t_cut followed by one entangled at T = 0, or by one separable at
    every T, gives each model its own record. Nor does a record depend on
    which models share its scan: a sweep split into scans of `per_scan`
    models, one split falling inside the list, gives the same records, and
    the same limit table bit for bit, NaN included."""

    @pytest.mark.parametrize("per_scan", [1 << 15, 64])
    def test_models_in_one_scan(self, per_scan):
        ps = 3 * ([CASE3(b) for b in np.linspace(0.0, 2.0, 21)] + [XX(0.0), canonicalize(1.0, 0.4, 0.4, 0.0)])
        got = [lt for i in range(0, len(ps), per_scan) for lt in _limit_records(ps[i : i + per_scan])]
        assert got == [limit_temperatures(p) for p in ps]
        split = np.vstack([limits._limit_table(ps[i : i + per_scan])[0] for i in range(0, len(ps), per_scan)])
        assert split.tobytes() == limits._limit_table(ps)[0].tobytes()
        # each entangled at T = 0 after one separable at its t_cut, and the last one never entangled
        assert [lt.intervals[0][0] if lt.intervals else None for lt in got] == 3 * ([0.0] * 22 + [None])


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


def _disorder_root(p, lo, hi, digits=60):
    """The sign change of p's disorder margin in [lo, hi] at `digits` digits
    (mpmath, from the same float couplings): the Gibbs weights of the four
    levels, the worst level's margin, and bisection far below an ulp."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        vx, vy, vz, b = (mpmath.mpf(x) for x in (p.vx, p.vy, p.vz, p.b))
        vp, vm = (vx + vy) / 2, (vx - vy) / 2
        delta = mpmath.sqrt(vm * vm + b * b)
        energies = [vz / 2 + vp, -vz / 2 + delta, -vz / 2 - delta, vz / 2 - vp]

        def negative(t):
            w = [mpmath.exp(-(e - min(energies)) / t) for e in energies]
            q = [x / mpmath.fsum(w) for x in w]
            return min((1 + abs(b / delta * (q[1] - q[2]))) / 2 - x for x in q) < 0

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        below = negative(lo)
        assert negative(hi) != below
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if negative(mid) == below else (lo, mid)
        return hi


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
        kernel = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([t]))[row, 0]
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


def _ref_violation_intervals(f_arr, ts, rel):
    """The intervals where f_arr is negative, which end below the top of
    the grid: no margin is negative past t_cut (limits module docstring)."""
    values = f_arr(ts)
    neg = values < 0.0
    if values[0] == 0.0:  # a margin exactly 0 at T = 0 takes the next sample's sign
        neg[0] = neg[1]
    assert not neg[-1], "a margin is negative at the top of the reference grid"
    if not neg.any():
        return []

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
    return intervals


def _ref_grid(p, grid_n=REF_GRID):
    """The whole grid up to REF_RANGE energy scales, with a window of grid_n
    samples up to 3 t_r merged in where the two-level gap temperature t_r
    exists and level 3 lies below levels 0 and 1, so both lobes around the
    separable gap are sampled even where they are much narrower than the
    grid step."""
    eig = eigensystem(p)
    t_end = REF_RANGE * (p.energy_scale or 1.0)
    ts = np.linspace(0.0, t_end, grid_n + 1)
    t_r = reentry_two_level(p)
    if t_r is not None and eig.energies[3] < min(eig.energies[:2]):
        ts = np.unique(np.concatenate([ts, np.linspace(t_r / grid_n, min(3.0 * t_r, t_end), grid_n)]))
    return ts[ts <= t_end]


def reference_limit_temperatures(p, rel_tol=REF_REL_TOL, grid_n=REF_GRID):
    # the whole grid up to REF_RANGE energy scales: the scan's claim that no
    # margin changes sign past t_cut is checked, not assumed
    eig = eigensystem(p)
    ts = _ref_grid(p, grid_n)

    def scan(f_arr):
        return _ref_violation_intervals(lambda t: f_arr(eig, t), ts, rel_tol)

    m12, m03 = (scan(lambda e, t: _ref_exact(e, t)[k]) for k in (0, 1))
    raw = sorted(m12 + m03)
    ints = []
    for lo, hi in raw:
        if ints and lo < ints[-1][1]:
            if ints[-1][1] - lo > 1e-6 * max(lo, ints[-1][1]):
                ints[-1] = (ints[-1][0], max(hi, ints[-1][1]))
                continue
            lo = ints[-1][1]
        ints.append((lo, max(lo, hi)))
    t_disorder = scan(_ref_disorder)
    t_entropic = scan(_ref_entropic)
    reentry = None
    if len(ints) >= 2:
        reentry = ReentryWindow(lower=ints[0][1], upper=ints[1][0], two_level=reentry_two_level(p))
    return LimitTemperatures(
        t_exact=ints[-1][1] if ints else 0.0,
        t_disorder=t_disorder[-1][1] if t_disorder else None,
        t_entropic=t_entropic[-1][1] if t_entropic else None,
        intervals=tuple(ints),
        reentry=reentry,
    )


def _reference_cases(rng):
    """About 200 models over the awkward corners."""
    cases = []
    for _ in range(80):  # generic, vz != 0
        vp, vm, b = log_uniform(rng, 1e-2, 1e1, size=3)
        vz = log_uniform(rng, 1e-2, 1e1) * rng.choice([-1.0, 1.0])
        cases.append(canonicalize(vp + vm, vp - vm, vz, b))
    while len(cases) < 130:  # just above the level-crossing field
        vp = rng.uniform(0.5, 2.0)
        vm = rng.uniform(0.0, 0.9) * vp
        vz = rng.uniform(-0.5, 0.3) * vp
        bc = b_crossing(canonicalize(vp + vm, vp - vm, vz, 0.0))
        if bc > 0.0:
            b = bc * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
            cases.append(canonicalize(vp + vm, vp - vm, vz, b))
    for _ in range(20):  # Delta = 0
        vp = log_uniform(rng, 1e-1, 1e1)
        vz = rng.uniform(-1.0, 1.0) * vp
        cases.append(canonicalize(vp, vp, vz, 0.0))
    for _ in range(20):  # v_minus = 0, vz above v_plus: never entangled
        vp = rng.uniform(0.1, 1.0)
        vz = vp + rng.uniform(0.1, 2.0)
        cases.append(canonicalize(vp, vp, vz, rng.uniform(0.0, 2.0)))
    # two sets of unit couplings, each followed by one unused draw that keeps
    # the models of the draws after it
    for _ in range(30):
        vp, vm, b = rng.uniform(0.1, 2.0, size=3)
        vz = rng.uniform(-0.5, 0.5)
        cases.append(canonicalize(vp + vm, vp - vm, vz, b))
        rng.uniform(0.05, 3.0)
    for _ in range(12):
        vp, vm, b = rng.uniform(0.1, 2.0, size=3)
        cases.append(canonicalize(vp + vm, vp - vm, rng.uniform(-0.5, 0.5), b))
        rng.uniform(5.0, 100.0)
    return cases


def assert_within(got, want, rel):
    """The records have the same structure and their temperatures agree within rel."""
    assert (len(got.intervals), got.reentry is None) == (len(want.intervals), want.reentry is None)
    pairs = [(got.t_exact, want.t_exact), (got.t_disorder, want.t_disorder), (got.t_entropic, want.t_entropic)]
    pairs += list(zip(np.ravel(got.intervals), np.ravel(want.intervals)))
    if got.reentry is not None:
        pairs += [(got.reentry.lower, want.reentry.lower), (got.reentry.upper, want.reentry.upper)]
        assert got.reentry.two_level == want.reentry.two_level
    for a, b in pairs:
        assert (a is None) == (b is None) and (a is None or abs(a - b) <= rel * b), (got, want)


class TestSingleScanMatchesReference:
    #: the reference cases whose kernel margin flips sign more than once
    #: near a limit, so bisections from different brackets stop on different
    #: flips, a few ulps apart (CHANGES.md, FOUND: `limits._margin_columns`
    #: flips the sign of a margin): the disorder margin reads +, +, -, -, -, +
    #: on the six floats from T = 0.864397809566739 up, and the entropic one
    #: -, 0, -, + on the four from T = 0.2891632110214554 up
    FLIPPING = {
        canonicalize(3.8376180877178805, -0.08983962495432518, -0.48062809776662885, 0.7076993154781767): "t_disorder",
        canonicalize(2.1837209737254906, 0.07843027846510986, -0.15716358736878533, 1.4049380943975776): "t_entropic",
    }
    #: the reference case whose disorder margin, in exact arithmetic on the
    #: float weights, reads +, -, + on the three floats from
    #: T = 0.44044294969266495 up: the grid scan bisects to the first flip,
    #: the kernel to the second, the first float above the 60-digit root
    #: 0.4404429496926650222386 (_disorder_root)
    ROOTED = canonicalize(0.6286207588799866, 0.03991396520433005, 0.32721672731254486, 0.04461197346557345)

    def test_bit_identical_to_per_criterion_scans(self, rng):
        # both sides refine to adjacent floats, so the brackets the zeros of
        # the sums give end where the grid scans' do, on the same sign flip
        # of the kernel's margin
        cases = _reference_cases(rng)
        assert len(cases) >= 200
        never = reentry = flipping = rooted = 0
        for p in cases:
            got = limit_temperatures(p)
            want = reference_limit_temperatures(p, rel_tol=1e-300)
            key = self.FLIPPING.get(p)
            if key is not None:
                flipping += 1
                edge = getattr(got, key)
                assert got == dataclasses.replace(want, **{key: edge}), p
                assert abs(edge - getattr(want, key)) <= 5 * math.ulp(edge), (got, want)
            elif p == self.ROOTED:
                rooted += 1
                assert got == dataclasses.replace(want, t_disorder=0.44044294969266506), (got, want)
                root = _disorder_root(p, 0.4404, 0.4405)
                assert math.nextafter(got.t_disorder, 0.0) < root < got.t_disorder, (got, root)
            else:
                assert got == want, p
            never += not got.intervals
            reentry += got.reentry is not None
        assert never and reentry and flipping == 2 and rooted == 1

    def test_scalar_checks_match_table(self, rng):
        # the scalar checks run the table's formulas on the same weights
        # and amplitudes, so they agree bit for bit
        for p in _reference_cases(rng)[::5]:
            eig = eigensystem(p)
            ts = np.concatenate([[0.0], log_uniform(rng, 1e-2, 1e1, size=8) * p.energy_scale, [0.0]])
            table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)
            for k, t in enumerate(ts):
                m = thermal_mixture(p, float(t))
                assert exact_margins(m) == tuple(table[:2, k]), (p, t)
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
            batch = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)
            for k in range(3, 5000, 125):
                alone = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts[k : k + 1])[:, 0]
                assert np.array_equal(alone, batch[:, k]), (p, ts[k])
                window = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts[k - 3 : k + 4])
                assert np.array_equal(window[:, 3], alone), (p, ts[k])
                m = thermal_mixture(p, float(ts[k]))
                assert disorder_check(m).margin == batch[2, k], (p, ts[k])
                assert entropic_check(m).margin == batch[3, k], (p, ts[k])

    def test_bound_columns_do_not_depend_on_the_batch(self, rng):
        # the entropic pass bounds all its pieces of a round in one call:
        # each piece, of its own model, has the same bound alone, from T = 0
        # and from the coldest pieces, whose sums factor out their top term
        models = [random_canonical_params(rng) for _ in range(40)]
        models.append(canonicalize(1.0, 0.8775691036854282, 0.8775691036854182, 0.0))  # levels 1e-14 apart
        eigs = [eigensystem(p) for p in models]
        k = rng.integers(len(models), size=3000)
        scale = np.array([p.energy_scale or 1.0 for p in models])[k]
        t_lo = np.where(rng.random(k.size) < 0.1, 0.0, log_uniform(rng, 1e-4, 3.0, size=k.size) * scale)
        t_hi = t_lo + log_uniform(rng, 1e-6, 1.0, size=k.size) * scale
        gaps = np.stack([e.gaps for e in eigs], axis=1)[:, k]
        b_r = np.array([e.b_ratio for e in eigs])[k]
        batch = limits._entropic_margin_bound(gaps, b_r, t_lo, t_hi)
        for j in range(k.size):
            alone = limits._entropic_margin_bound(gaps[:, j : j + 1], b_r[j : j + 1], t_lo[j : j + 1], t_hi[j : j + 1])
            assert np.array_equal(alone, batch[j : j + 1]), (models[k[j]], t_lo[j], t_hi[j])

    def test_margins_near_zero_match_exact_arithmetic(self):
        # margins near 0 away from any sign change: a degenerate separable
        # ground pair (b/Delta from 2.6e-12 to 2.6e-4), b >> v_minus below the
        # disorder limit, and the sweep model degenerate/7 at T = 3.29e-5,
        # whose disorder margin 1.2086039069735e-13 lies just above 1e-13
        # (the short form gave 1.20903287382e-13).
        # The disorder row, one formula, keeps full relative accuracy at every
        # magnitude; the entropic row does within 1e-13 of 0, where it takes
        # its cancellation-free form
        ts = np.geomspace(1e-3, 1.5e-2, 7)
        cases = [(canonicalize(0.890625, 0.125, 0.125, b), ts) for b in np.geomspace(1e-12, 1e-4, 5)]
        cases.append((canonicalize(1.00000001, 0.99999999, 0.3, 1.0), np.geomspace(2e-3, 6e-3, 7)))
        degenerate = canonicalize(0.0006177692816612866, 0.0006177692816612866, 0.0015520326408281888, 0.0)
        cases.append((degenerate, np.array([3.29454980751e-05])))
        checked = tiny = 0
        for p, ts in cases:
            eig = eigensystem(p)
            table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)
            for k, t in enumerate(ts):
                want = _exact_disorder(eig, float(t))
                assert abs(table[2, k] - want) <= 1e-12 * abs(want), (p, t, table[2, k], want)
                tiny += 0.0 < abs(want) < 1e-13
                want = _exact_entropic(eig, float(t))
                if 0.0 < abs(want) < 1e-13:
                    assert abs(table[3, k] - want) <= 1e-12 * abs(want), (p, t, table[3, k], want)
                    checked += 1
        assert checked + tiny >= 30

    def test_entropic_columns_are_the_kernels_row(self, rng):
        # the entropic pass's entry computes the kernel's row 3 alone, bit
        # for bit, on a shuffled batch of the oracle's families and the
        # tiny-coupling models at T = 0, at random temperatures and at their
        # entropic limits, where the row takes its cancellation-free form;
        # and on one model's scalar ratios
        ps = limit_families(rng, 100) + TINY
        gaps, vm_ratio, b_ratio, _ = _eigen_columns(ps)
        scale = np.array([p.energy_scale or 1.0 for p in ps])
        at_limit = [lt.t_entropic or 0.0 for lt in _limit_records(ps)]
        ts = np.concatenate([np.zeros(len(ps)), log_uniform(rng, 1e-3, 3.0, size=len(ps)) * scale, at_limit])
        order = rng.permutation(ts.size)
        model, ts = np.tile(np.arange(len(ps)), 3)[order], ts[order]
        columns = gaps[:, model], vm_ratio[model], b_ratio[model], ts
        row = limits._entropic_columns(*columns)
        assert row.tobytes() == _margin_columns(*columns)[3].tobytes()
        assert np.count_nonzero((row != 0.0) & (np.abs(row) < _NEAR_ZERO)) > 100
        eig = eigensystem(CASE3(0.2))
        one = eig.gaps, eig.vm_ratio, eig.b_ratio, np.linspace(0.0, 1.0, 101)
        assert limits._entropic_columns(*one).tobytes() == _margin_columns(*one)[3].tobytes()

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
            alone = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([t]))
            assert np.array_equal(table[:, k], alone[:, 0]), (models[k], t)


class TestBatchedScan:
    def test_groups_match_one_model_scans(self, rng):
        # every reference case in one scan: each record equals the model's
        # own limit_temperatures field for field, bit for bit
        ps = _reference_cases(rng)
        got = _limit_records(ps)
        assert len(got) == len(ps) >= 200
        never = reentry = degenerate = 0
        for p, lt in zip(ps, got):
            assert lt == limit_temperatures(p), p
            never += not lt.intervals
            reentry += lt.reentry is not None
            degenerate += eigensystem(p).degenerate
        assert never and reentry and degenerate


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

            table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, cold)
            assert np.array_equal(table, np.repeat(table[:, :1], cold.size, axis=1)), model
            m = thermal_mixture(p, 0.0)
            scalar = (*exact_margins(m), disorder_check(m).margin, entropic_check(m).margin)
            assert np.abs(np.array(scalar) - table[:, 0]).max() <= 16 * eps, model

    def test_exact_margins_at_zero_temperature_are_exact(self):
        # the (|Phi_1>, |Phi_2>) = (|++>, |-->) ground pair is separable
        # with m03 = 1 exactly; amplitudes sqrt(1/2) would round it up
        eig = eigensystem(canonicalize(0.0, 0.0, 1.0, 0.0))
        table = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([0.0]))
        assert table[1, 0] == 1.0


@pytest.mark.filterwarnings("error")
def test_entropic_bound_sums_stay_finite(capsys):
    # levels 1e-14 apart: on the pieces nearest T = 0 the bound's sums of
    # exp((g_j - g_i)/T) hold terms far above 1e308, yet no sum overflows
    # ("overflow encountered in reduce"), the bound stays below the margin
    # of either kernel form (without its rounding allowance it exceeded the
    # cancellation-free form by 1 ulp at 3 of these 183 samples) and the
    # limits print their 12-digit values
    model = (1.0, 0.8775691036854282, 0.8775691036854182, 0.0)
    assert main(["limits", *(f"--{k}={x!r}" for k, x in zip(("vx", "vy", "vz", "b"), model))]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1] == (
        "1,0.877569103685,0.877569103685,0,0.00456038509123,0.00456037863577,0.00212467880832,0.5,0.5,,,"
    )
    eig = eigensystem(canonicalize(*model))
    edges = np.concatenate([[0.0], np.geomspace(1e-19, 0.01, 61)])
    gaps = np.repeat(eig.gaps[:, None], edges.size - 1, axis=1)
    bound = limits._entropic_margin_bound(gaps, np.full(edges.size - 1, eig.b_ratio), edges[:-1], edges[1:])
    ts = edges[:-1] + np.outer([0.0, 0.5, 1.0], np.diff(edges))
    margin = _margin_columns(eig.gaps[:, None], eig.vm_ratio, eig.b_ratio, ts.ravel())[3].reshape(ts.shape)
    assert np.isfinite(bound).all() and np.all(bound <= margin), (bound, margin)
    near = _entropic_near_zero(_gibbs(eig.gaps, ts)[0], eig.b_ratio, eig.vm_ratio)
    assert np.all(bound <= near), (bound, near)


def _within_ulps(got, want, ulps):
    return got is not None and abs(got - want) <= ulps * math.ulp(want)


#: (t_exact = t_disorder, t_entropic) of canonicalize(1, 0, vz, 0) at 120
#: digits (mpmath, from the same float couplings): the Gibbs weights of the
#: four levels, the margins min(m12, m03), disorder and entropic, and
#: bisection of each margin's highest sign change in T
NEAR_DEGENERATE_LIMITS = {
    1e-14: (0.033848421052979071485, 0.016017013789583165827),
    1e-15: (0.031472968925920087702, 0.01493259259749036784),
}
#: a model with vz = vy - 1e-6, whose record puts t_disorder above t_exact,
#: and its (t_exact = t_disorder, t_entropic), found as above at 120 digits
INVERTED_MODEL = (1.0, -0.3114499021099907, -0.31145090210999066, 0.0)
INVERTED_LIMITS = (0.062364150103685420853, 0.027445716788790532459)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="levels vz apart: the 16-ulp gap rule zeroes the gap at vz = 1e-15, and the margin rows "
    "subtract rounded weights of levels far closer than T",
)
@pytest.mark.parametrize("vz", list(NEAR_DEGENERATE_LIMITS))
def test_near_degenerate_limits_match_the_120_digit_reference(vz):
    t_exact, t_entropic = NEAR_DEGENERATE_LIMITS[vz]
    lt = limit_temperatures(canonicalize(1.0, 0.0, vz, 0.0))
    got = (lt.t_exact, lt.t_disorder, lt.t_entropic)
    assert all(_within_ulps(t, ref, 4) for t, ref in zip(got, (t_exact, t_exact, t_entropic))), got


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the margin rows subtract rounded weights of the two ground levels, 1e-6 apart, at T near 0.06: "
    "t_exact lands 3.7e-14 below the root and t_disorder 1.2e-14 above it",
)
def test_near_degenerate_hierarchy_holds_at_the_120_digit_reference():
    t_exact, t_entropic = INVERTED_LIMITS
    lt = limit_temperatures(canonicalize(*INVERTED_MODEL))
    got = (lt.t_exact, lt.t_disorder, lt.t_entropic)
    assert lt.t_entropic <= lt.t_disorder <= lt.t_exact, got
    assert all(_within_ulps(t, ref, 4) for t, ref in zip(got, (t_exact, t_exact, t_entropic))), got


#: ground levels closer than T at their limits, with (t_exact, t_disorder =
#: t_entropic) at 120 digits, found as above on a 400-point log-T grid from
#: 1e-10 (1e-14 for the second) to t_cut, each top sign change bisected 130
#: times: a field of 1e-7 on the XX model, whose ground levels lie 1e-14
#: apart, a ground pair 1.3e-18 apart, which the 16-ulp gap rule sets to 0,
#: and a field of 0.032 on the XX model, whose ground levels lie 1.03e-3
#: apart (its disorder and entropic roots agree to 27 digits)
@pytest.mark.parametrize(
    "model, t_exact, t_disorder",
    [
        pytest.param(
            (1.0, 0.0, 0.0, 1e-7),
            0.03377109692266215989323,
            4.999999500000033107077e-8,
            id="small_field",
            marks=pytest.mark.xfail(
                strict=True,
                raises=RuntimeError,
                reason="the ground levels lie 1e-14 apart at T near 5e-8, and the margin rows subtract rounded "
                "weights, so the disorder edge lands 2.1e-9 below the root and the entropic one 8.7e-10 above "
                "it: 1.1e-9 above the disorder edge, past the scan's 16-eps allowance",
            ),
        ),
        pytest.param(
            (0.890625, 0.125, 0.125, 1e-9),
            0.020500202423017202003,
            4.9999999934693880722e-10,
            id="snapped_pair",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="the float couplings put the ground pair 1.3e-18 apart, and the 16-ulp gap rule sets "
                "that gap to 0: the record is (0.0, None, None, ())",
            ),
        ),
        pytest.param(
            (1.0, 0.0, 0.0, 0.03218597478145452),
            0.1628858878315010751521,
            0.01558646582585158789373,
            id="mid_field",
            marks=pytest.mark.xfail(
                strict=True,
                raises=RuntimeError,
                reason="the ground levels lie 1.03e-3 apart at T near 0.0156, and the margin rows subtract rounded "
                "weights, so the disorder edge lands 14 ulps below the root and the entropic one 18 ulps above "
                "it: 3.6e-15 above the disorder edge, past the scan's 16-eps allowance",
            ),
        ),
    ],
)
def test_close_ground_pair_limits_match_the_120_digit_reference(model, t_exact, t_disorder):
    lt = limit_temperatures(canonicalize(*model))
    got = (lt.t_exact, lt.t_disorder, lt.t_entropic)
    assert all(_within_ulps(t, ref, 4) for t, ref in zip(got, (t_exact, t_disorder, t_disorder))), got
    assert lt.t_entropic <= lt.t_disorder <= lt.t_exact, got


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the entropic row's signs near its root are rounding noise of the Gibbs weights, so the edge "
    "refined to adjacent floats lands where the refinement's path takes it, 1,072 ulps above the root",
)
def test_entropic_edge_matches_the_120_digit_root():
    # the reference is the margin's sign change at 120 digits, found as above
    p = canonicalize(1.3313780006137097, 1.3088296774101076, 59.84523011102626, 0.8583650681338771)
    t_entropic = limit_temperatures(p).t_entropic
    assert _within_ulps(t_entropic, 3.929863288258562086308, 8), t_entropic
