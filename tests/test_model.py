import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xyzent.cli import main
from xyzent.errors import NonFiniteInput, OutOfRange
from xyzent.linalg import _amplitudes, b_crossing, eigenvectors, hamiltonian_matrix
from xyzent.limits import limit_temperatures
from xyzent.meanfield import critical_temperature
from xyzent.model import MAX_ENERGY_SCALE, MIN_ENERGY_SCALE, XYZParams, _eigen_columns, canonicalize, eigensystem

from conftest import random_canonical_params

finite = st.floats(-50, 50, allow_nan=False)


class TestCanonicalize:
    def test_sign_map(self):
        p = canonicalize(1.0, -1.0, 0.0, -2.0)
        assert p.v_plus == 0.0
        assert p.v_minus == 1.0
        assert p.b == 2.0
        assert "b" in p.flips

    def test_already_canonical(self):
        p = canonicalize(1.0, 0.3, 0.1, 0.5)
        assert (p.vx, p.vy, p.vz, p.b) == (1.0, 0.3, 0.1, 0.5)
        assert p.flips == ()
        assert p.v_plus == 0.65
        assert abs(p.v_minus - 0.35) < 1e-15

    def test_swapped_couplings(self):
        p = canonicalize(0.3, 1.0, 0.0, 0.0)
        assert abs(p.v_minus - 0.35) < 1e-15
        assert "v_minus" in p.flips

    def test_vz_untouched(self):
        assert canonicalize(0.0, 0.0, -0.7, 0.0).vz == -0.7

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            canonicalize(np.nan, 0, 0, 0)
        with pytest.raises(NonFiniteInput):
            canonicalize(0, 0, 0, np.inf)

    def test_params_built_without_canonicalize_are_checked(self):
        # outside the sign sector the limit scan reported t_exact = 0 beside
        # t_entropic = 0.305 (the canonical form has t_exact = 0.715); below
        # the energy-scale bound the numeric T_c overflowed with a RuntimeWarning
        with pytest.raises(OutOfRange, match="must be >= 0"):
            limit_temperatures(XYZParams(vx=-1.0, vy=0.3, vz=0.0, b=-0.5))
        assert limit_temperatures(canonicalize(-1.0, 0.3, 0.0, -0.5)).t_exact == pytest.approx(0.715, abs=1e-3)
        with pytest.raises(OutOfRange, match="below the bound"):
            critical_temperature(XYZParams(vx=1e-310, vy=3e-311, vz=0.0, b=0.0))
        for vals in ((1.0, 2.0, 0.0, 0.0), (0.0, 0.0, 0.0, -1.0), (-1.0, -1.0, 0.0, 0.0)):
            with pytest.raises(OutOfRange, match="must be >= 0"):
                XYZParams(*vals)
        with pytest.raises(NonFiniteInput):
            XYZParams(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(OutOfRange, match="exceeds the bound"):
            XYZParams(2.0 * MAX_ENERGY_SCALE, 0.0, 0.0, 0.0)

    def test_raw_couplings_beyond_the_bound_are_reported_as_given(self):
        # their half-sums overflow, so the flipped couplings would be infinite
        for vals in ((-1e308, 1e308, 0.0, 0.0), (-1e308, -1e308, 0.0, -1.0)):
            with pytest.raises(OutOfRange, match=r"energy scale 1e\+308 exceeds"):
                canonicalize(*vals)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False), finite, finite)
    @settings(max_examples=300, deadline=None)
    def test_canonical_sector_has_non_negative_v_max(self, vx, vy, vz, b):
        # v_plus, v_minus >= 0 put vx = v_plus + v_minus >= |vy|, so every model
        # that builds has v_max = vx >= 0 (meanfield takes a minimum's
        # transverse part along x)
        for build in (XYZParams, canonicalize):
            try:
                p = build(vx, vy, vz, b)
            except (NonFiniteInput, OutOfRange):
                continue
            assert p.v_max >= 0.0, p

    def test_derived_fields(self):
        p = canonicalize(1.7, 0.3, 0.0, 0.9)
        assert p.v_max == 1.7
        assert p.b_critical == 1.7
        assert abs(p.chi - 0.9 / 1.7) < 1e-15
        assert abs(b_crossing(p) - math.sqrt(1.0 - 0.49)) < 1e-15

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_b_crossing_is_finite_up_to_the_energy_bound(self, kind):
        # the plain squares overflow here: OverflowError with Python floats, a warning (an error here) with numpy's
        p = canonicalize(*map(kind, (1e300, 0.5e300, 0.0, 1e300)))
        assert b_crossing(p) == pytest.approx(math.sqrt(0.5) * 1e300, rel=1e-15)
        top = MAX_ENERGY_SCALE
        for vals, want in [
            ((top, 0.5 * top, 0.0, top), math.sqrt(0.5) * top),
            ((top, top, -top, 0.0), 2.0 * top),
            ((top, -top, top, top), 0.0),
        ]:
            assert b_crossing(canonicalize(*map(kind, vals))) == pytest.approx(want, rel=1e-15), vals
        # a power-of-2 scale moves the result by the same exponent (dyadic couplings, so exact squares)
        for vx, vy, vz in [(1.0, 0.5, 0.0), (1.25, 0.25, -0.75), (2.5, 1.5, 0.125)]:
            unit = b_crossing(canonicalize(vx, vy, vz, 0.0))
            for k in (500, 600, 1016):
                big = b_crossing(canonicalize(*(kind(math.ldexp(v, k)) for v in (vx, vy, vz)), 0.0))
                assert big == math.ldexp(unit, k), (vx, vy, vz, k)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_b_crossing_keeps_the_bits_of_the_plain_formula(self, rng, kind):
        # ** 2 is libm's pow, whose rounding a power-of-2 scale can change: scaled
        # at every size, about 1 of these models in 2,000 would get other bits
        def plain(p):
            return math.sqrt(max(0.0, (p.v_plus - p.vz) ** 2 - p.v_minus**2))

        for couplings in rng.uniform(-2.0, 2.0, size=(20000, 4)).tolist():
            p = canonicalize(*map(kind, couplings))
            assert b_crossing(p) == plain(p), p


class TestEigensystem:
    def test_xx_case_separable_pair(self):
        # v_plus = 1, v_minus = 0, vz = 0, b = 0.5
        eig = eigensystem(canonicalize(1.0, 1.0, 0.0, 0.5))
        assert_allclose(eig.energies, [1.0, 0.5, -0.5, -1.0])
        assert eig.delta == 0.5
        u_plus, u_minus = _amplitudes(eig)
        assert abs(u_plus - math.sqrt(2)) < 1e-15
        assert u_minus == 0.0
        assert_allclose(eigenvectors(eig)[1], [1, 0, 0, 0], atol=1e-15)  # |Phi_1> = |++>
        assert_allclose(eigenvectors(eig)[2], [0, 0, 0, 1], atol=1e-15)

    def test_zero_field_bell_basis(self):
        eig = eigensystem(canonicalize(0.8, 0.2, 0.1, 0.0))
        u_plus, u_minus = _amplitudes(eig)
        assert u_plus == u_minus == 1.0
        s = 1 / math.sqrt(2)
        assert_allclose(eigenvectors(eig)[1], [s, 0, 0, -s])
        assert_allclose(eigenvectors(eig)[2], [s, 0, 0, s])

    def test_case3_ground_state(self):
        eig = eigensystem(canonicalize(1.7, 0.3, 0.0, 0.9))
        assert abs(eig.delta - 1.14018) < 1e-5
        assert abs(eig.energies[2] + 1.14018) < 1e-5
        assert np.flatnonzero(eig.energies == eig.energies.min()).tolist() == [2]  # unique ground

    def test_pair_concurrence_is_ratio(self, rng):
        # C of a real pure state (a, 0, 0, d) is 2|ad|
        for _ in range(20):
            p = random_canonical_params(rng)
            eig = eigensystem(p)
            for j in (1, 2):
                a, _, _, d = eigenvectors(eig)[j]
                assert abs(2 * abs(a * d) - eig.vm_ratio) < 1e-12

    def test_amplitude_normalization(self, rng):
        for _ in range(20):
            u_plus, u_minus = _amplitudes(eigensystem(random_canonical_params(rng)))
            assert abs(u_plus**2 + u_minus**2 - 2.0) < 1e-12

    def test_orthonormal_vectors(self, rng):
        for _ in range(20):
            v = eigenvectors(eigensystem(random_canonical_params(rng)))
            assert_allclose(v @ v.T, np.eye(4), atol=1e-12)

    def test_level_gaps_to_full_relative_accuracy(self, rng):
        # near the level crossing E_3 - E_2 lies far below the rounding of the
        # energies; every gap matches 50-digit ones from the same float
        # couplings, at every scale, and exact degeneracies are exactly 0
        mpmath = pytest.importorskip("mpmath")
        models = [random_canonical_params(rng) for _ in range(60)]
        while len(models) < 180:
            vp = rng.uniform(0.5, 2.0)
            vm = rng.uniform(0.0, 0.9) * vp
            vz = rng.uniform(-0.5, 0.3) * vp
            bc = b_crossing(canonicalize(vp + vm, vp - vm, vz, 0.0))
            if bc > 0.0:
                models.append(canonicalize(vp + vm, vp - vm, vz, bc * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0))))
        worst = 0.0
        for lam in (1e-300, 1.0, 2.0**1000):
            for q in models:
                p = canonicalize(lam * q.vx, lam * q.vy, lam * q.vz, lam * q.b)
                with mpmath.workdps(50):
                    vx, vy, vz, b = (mpmath.mpf(float(x)) for x in (p.vx, p.vy, p.vz, p.b))
                    delta = mpmath.sqrt((vx - vy) ** 2 / 4 + b * b)
                    e = [vz / 2 + (vx + vy) / 2, delta - vz / 2, -delta - vz / 2, vz / 2 - (vx + vy) / 2]
                    want = np.array([float(x - min(e)) for x in e])
                got = eigensystem(p).gaps
                assert np.all(np.abs(got - want) <= 1e-15 * want), (p, got, want)
                worst = max(worst, float((np.abs(got - want) / np.where(want > 0, want, 1.0)).max()))
        assert worst > 0.0
        assert eigensystem(canonicalize(1.0, 0.4, 0.4, 0.0)).gaps.tolist() == [1.4, 0.6, 0.0, 0.0]  # vy = vz, b = 0

    def test_degenerate_convention(self):
        eig = eigensystem(canonicalize(0.5, 0.5, 0.2, 0.0))  # v_minus = b = 0
        assert eig.degenerate
        assert eig.vm_ratio == eig.b_ratio == 0.0
        assert_allclose(eigenvectors(eig)[1], [1, 0, 0, 0])
        assert_allclose(eigenvectors(eig)[2], [0, 0, 0, 1])


class TestHamiltonianMatrix:
    def test_zeeman_only(self):
        h = hamiltonian_matrix(canonicalize(0, 0, 0, 1.0))
        assert_allclose(h, np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_isotropic(self):
        h = hamiltonian_matrix(canonicalize(0.6, 0.6, 0.6, 0.0))
        w = np.sort(np.linalg.eigvalsh(h))
        assert_allclose(w, [-0.3, -0.3, -0.3, 0.9], atol=1e-14)

    def test_case3_spectrum_matches(self):
        p = canonicalize(1.7, 0.3, 0.0, 0.9)
        w = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(p)))
        assert_allclose(w, np.sort(eigensystem(p).energies), atol=1e-10)

    def test_eigen_equation(self, rng):
        for _ in range(30):
            p = random_canonical_params(rng)
            h = hamiltonian_matrix(p)
            eig = eigensystem(p)
            scale = max(1.0, np.abs(eig.energies).max())
            for e, v in zip(eig.energies, eigenvectors(eig)):
                assert np.abs(h @ v - e * v).max() < 1e-10 * scale

    @given(finite, finite, finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_spectrum_sign_invariance(self, vx, vy, vz, b):
        if 0.0 < max(abs(vx), abs(vy), abs(vz), abs(b)) < MIN_ENERGY_SCALE:
            with pytest.raises(OutOfRange):  # a nonzero scale below the bound is rejected
                canonicalize(vx, vy, vz, b)
            return
        p = canonicalize(vx, vy, vz, b)
        # the raw Hamiltonian from the couplings as given: hamiltonian_matrix takes canonical ones
        vp, vm = 0.5 * (vx + vy), 0.5 * (vx - vy)
        raw = [[b - 0.5 * vz, 0, 0, -vm], [0, 0.5 * vz, -vp, 0], [0, -vp, 0.5 * vz, 0], [-vm, 0, 0, -b - 0.5 * vz]]
        w_raw = np.sort(np.linalg.eigvalsh(np.array(raw, dtype=float)))
        w_canon = np.sort(eigensystem(p).energies)
        scale = max(1.0, np.abs(w_raw).max())
        assert np.abs(w_raw - w_canon).max() < 1e-10 * scale

    def test_gap_dominates_components(self, rng):
        for _ in range(30):
            p = random_canonical_params(rng)
            d = eigensystem(p).delta
            assert d >= p.v_minus - 1e-15
            assert d >= p.b - 1e-15


class TestEigenColumns:
    """model._eigen_columns is one array pass over many models, which the
    limit scan and the CLI's tables read; eigensystem is its one-column view."""

    @staticmethod
    def models(rng):
        """Seeded models at every scale, and those of them within 1e-12 of
        the level crossing."""
        ps, near = [], []
        for lam in 10.0 ** np.arange(-300.0, 301.0, 50.0):
            for _ in range(10):
                q = random_canonical_params(rng)
                ps.append(canonicalize(lam * q.vx, lam * q.vy, lam * q.vz, lam * q.b))
            for side in (-1.0, 1.0):  # within 1e-12 of the level crossing, vz < v_plus
                bc = 0.0
                while bc == 0.0:
                    vp, vz = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.3)
                    vm = rng.uniform(0.0, 0.9) * vp
                    bc = b_crossing(canonicalize(vp + vm, vp - vm, vz * vp, 0.0))
                b = bc * (1.0 + side * 10.0 ** rng.uniform(-16.0, -12.0))
                near.append(canonicalize(lam * (vp + vm), lam * (vp - vm), lam * vz * vp, lam * b))
        top = MAX_ENERGY_SCALE
        return ps + near + [
            canonicalize(0.0, 0.0, 0.0, 0.0),
            canonicalize(0.5, 0.5, 0.2, 0.0),  # Delta = 0
            canonicalize(1.0, 0.4, 0.4, 0.0),  # E_2 = E_3
            canonicalize(top, -top, top, top),
            canonicalize(top, top, -top, 0.3 * top),
        ], near

    def test_columns_are_the_one_model_views_in_any_batch(self, rng):
        ps, near = self.models(rng)
        assert any(eigensystem(p).delta == 0.0 for p in ps) and all(p.vz < p.v_plus and p.b > 0.0 for p in near)
        for batch in (ps, ps[::-1], [ps[k] for k in rng.permutation(len(ps))]):
            gaps, vm_ratio, b_ratio, delta = _eigen_columns(batch)
            assert gaps.shape == (4, len(batch))
            for k, p in enumerate(batch):
                e = eigensystem(p)
                assert gaps[:, k].tobytes() == e.gaps.tobytes(), p
                got = np.array([vm_ratio[k], b_ratio[k], delta[k]])
                assert got.tobytes() == np.array([e.vm_ratio, e.b_ratio, e.delta]).tobytes(), p
                assert delta[k] == math.hypot(p.v_minus, p.b), p

    def test_closed_form_critical_temperature(self):
        below_one = canonicalize(1.0, 0.0, 0.0, math.nextafter(1.0, 0.0))
        assert 1.0 - below_one.chi < 1e-15
        for p in (
            canonicalize(1.0, 0.0, 0.0, 0.0),  # chi = 0: v_max / 2
            canonicalize(1.0, 0.4, 0.1, 0.5),
            below_one,
            canonicalize(1.0, 0.0, 0.0, 1.0),  # chi = 1
            canonicalize(1.0, 0.0, 2.0, 0.0),  # v_max < vz
            canonicalize(0.0, 0.0, 0.0, 0.0),  # v_max = 0
        ):
            assert p.t_critical == critical_temperature(p), p
        assert canonicalize(1.0, 0.0, 0.0, 0.0).t_critical == 0.5
        assert 0.0 < below_one.t_critical < 0.1


class TestCriticalTemperatureCertificate:
    def test_t_critical_keeps_its_digits_where_v_max_chi_is_subnormal(self):
        # v_max chi = 3.3e-323 used to keep one significant digit: T_c came out 13% high
        p = canonicalize(2.0**-1018, 0.0, -0.7 * 2.0**-1018, 3 * 2.0**-1074)
        assert p.v_max * p.chi < 2.0**-1022
        assert abs(p.t_critical / (0.5 * p.v_max) - 1.0) < 1e-15
        assert p.t_critical_is_onset

    def test_t_critical_keeps_the_bits_of_the_plain_formula(self, rng):
        for _ in range(200):
            p = random_canonical_params(rng)
            if p.t_critical is not None:
                assert p.t_critical == p.v_max * p.chi / (2.0 * math.atanh(p.chi)), p

    def test_certified_without_a_transverse_solution_or_with_vz_non_negative(self):
        for p in (
            canonicalize(1.0, 0.0, 0.0, 1.5),  # chi > 1
            canonicalize(0.0, 0.0, -1.0, 0.2),  # v_max = 0
            canonicalize(1.0, 0.4, 0.9, 0.05),  # vz >= 0, T_c < vz/2
            canonicalize(1.0, 0.0, 0.0, math.nextafter(1.0, 0.0)),  # chi = 1 - eps
        ):
            assert p.t_critical_is_onset, p

    @staticmethod
    def _edge_models():
        """The four floats b around the field where t_critical crosses
        -vz/2 = 0.25, and a seeded family with T_c within 1e-16 to 1e-6 of
        -vz/2 on either side, each placed by iterating vz = -2 T_c (1 + d)."""
        lo, hi = 0.0, 1.5
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if canonicalize(1.0, 0.0, -0.5, mid).t_critical > 0.25 else (lo, mid)
        models = [canonicalize(1.0, 0.0, -0.5, b) for b in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, 2.0))]
        rng = np.random.default_rng(33)
        while len(models) < 44:
            vx, vy, b = rng.uniform(-3.0, 3.0, size=3).tolist()
            d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -6.0))
            vz = -1.0
            for _ in range(60):
                t_c = canonicalize(vx, vy, vz, b).t_critical
                if t_c is None:
                    break
                vz = -2.0 * t_c * (1.0 + d)
            else:
                models.append(canonicalize(vx, vy, vz, b))
        return models

    def test_onset_rule_is_the_enumeration_at_the_edge(self, monkeypatch, capsys):
        # limits prints the same t_critical_numeric bits whether the rule
        # spares it the mean field or the enumeration runs: the rule is the
        # float test solve_mf makes at T = t_critical, so it needs no margin
        models = self._edge_models()
        rule = [p.t_critical_is_onset for p in models]
        assert rule[:4] == [True, True, False, False] and 10 < sum(rule) < len(rule) - 10

        def printed():
            out = []
            for p in models:
                assert main(["limits", *(f"--{k}={getattr(p, k)!r}" for k in ("vx", "vy", "vz", "b")), "--format=json"]) == 0
                out.append(json.loads(capsys.readouterr().out)["t_critical_numeric"])
            return out

        ruled = printed()
        monkeypatch.setattr(XYZParams, "t_critical_is_onset", property(lambda self: self.t_critical is None))
        enumerated = [critical_temperature(p) for p in models]
        assert ruled == printed() == enumerated
        for p, holds, t_c in zip(models, rule, ruled):
            assert not holds or t_c == p.t_critical, p