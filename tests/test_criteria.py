import numpy as np
from numpy.testing import assert_allclose

from xyzent import linalg
from xyzent.criteria import _entropic_margin_bound, disorder_check, entropic_check, exact_check, margin_table
from xyzent.entanglement import _LN2, _binary_entropy_bits, _xlogx, separability_exact
from xyzent.linalg import disorder_margins_spin_form, majorization_margins, realize_matrix, spin_averages
from xyzent.model import canonicalize, eigensystem
from xyzent.states import mixture, thermal_mixture, thermal_probabilities

from conftest import log_uniform, random_canonical_params, random_mixture

CASE2 = canonicalize(1.0, -1.0, 0.0, 0.0)
BELL_DIAG = canonicalize(0.8, -0.2, 0.1, 0.0)


class TestDisorderCheck:
    def test_bell_diagonal_exceeds_half(self):
        rep = disorder_check(mixture(BELL_DIAG, [0.6, 0.1, 0.1, 0.2]))
        assert rep.detected
        assert abs(rep.margin + 0.1) < 1e-14

    def test_fully_mixed(self):
        rep = disorder_check(mixture(CASE2, [0.25] * 4))
        assert not rep.detected
        assert_allclose(rep.detail, (0.25,) * 4)

    def test_thermal_case2(self):
        rep = disorder_check(thermal_mixture(CASE2, 1.0))
        assert rep.detected
        assert abs(rep.margin + 0.03445) < 1e-4

    def test_detection_needs_dominant_weight(self, rng):
        for _ in range(300):
            m = random_mixture(rng)
            if disorder_check(m).detected:
                assert m.probs.max() > 0.5

    def test_matches_reduction_eigenvalue_comparison(self, rng):
        # the p_j bound is exactly max eigenvalue of rho vs of rho_A
        for _ in range(50):
            m = random_mixture(rng)
            rho = realize_matrix(m)
            lam_rho = linalg.hermitian_eigenvalues(rho)[0]
            lam_red = linalg.hermitian_eigenvalues(linalg.partial_trace(rho, "A"))[0]
            rep = disorder_check(m)
            assert abs(rep.margin - (lam_red - lam_rho)) < 1e-10

    def test_full_majorization_reduces_to_largest_eigenvalue(self, rng):
        for _ in range(50):
            m = random_mixture(rng)
            rho = realize_matrix(m)
            margins = majorization_margins(
                linalg.hermitian_eigenvalues(rho),
                linalg.hermitian_eigenvalues(linalg.partial_trace(rho, "A")),
            )
            rep = disorder_check(m)
            assert (margins.min() < -1e-12) == rep.detected or abs(margins.min()) < 1e-12
            assert abs(margins[0] - rep.margin) < 1e-10


class TestDisorderSpinForm:
    def test_fully_mixed(self):
        m12, m03 = disorder_margins_spin_form(spin_averages(mixture(CASE2, [0.25] * 4)))
        assert m12 > 0 and m03 > 0

    def test_singlet(self):
        _, m03 = disorder_margins_spin_form(spin_averages(mixture(CASE2, [1, 0, 0, 0])))
        assert abs(m03 + 1.0) < 1e-15

    def test_zero_field_margins_are_doubled(self):
        # at b = 0 each spin-form margin is exactly twice the tightest
        # eigenvalue-form margin of its level pair
        m = thermal_mixture(CASE2, 1.0)
        rep = disorder_check(m)
        m12, m03 = disorder_margins_spin_form(spin_averages(m))
        assert abs(m12 - 2 * min(rep.detail[1], rep.detail[2])) < 1e-10
        assert abs(m03 - 2 * min(rep.detail[0], rep.detail[3])) < 1e-10

    def test_verdict_equivalence_per_branch(self, rng):
        bound_key = lambda rep, js: min(rep.detail[j] for j in js)
        for _ in range(300):
            m = random_mixture(rng)
            rep = disorder_check(m)
            m12, m03 = disorder_margins_spin_form(spin_averages(m))
            assert (m12 < 0) == (bound_key(rep, (1, 2)) < 0)
            assert (m03 < 0) == (bound_key(rep, (0, 3)) < 0)


class TestEntropicCheck:
    def test_pure_entangled(self):
        rep = entropic_check(mixture(CASE2, [1, 0, 0, 0]))
        assert rep.detected
        assert abs(rep.margin + 1.0) < 1e-14

    def test_fully_mixed(self):
        rep = entropic_check(mixture(CASE2, [0.25] * 4))
        assert not rep.detected
        assert abs(rep.margin - 1.0) < 1e-14

    def test_thermal_weaker_than_exact(self):
        # entangled state the entropic criterion misses
        m = thermal_mixture(CASE2, 1.0)
        rep = entropic_check(m)
        assert not rep.detected
        assert abs(rep.margin - 0.68) < 1e-2
        assert separability_exact(m).entangled

    def test_matches_matrix_entropies(self, rng):
        for _ in range(30):
            m = random_mixture(rng)
            rho = realize_matrix(m)
            s_rho = linalg.entropy_base2(linalg.hermitian_eigenvalues(rho))
            s_red = linalg.entropy_base2(
                linalg.hermitian_eigenvalues(linalg.partial_trace(rho, "A"))
            )
            assert abs(entropic_check(m).margin - (s_rho - s_red)) < 1e-9

    def test_product_diagonal_mixtures_are_not_detected(self):
        # vx = vy = 0: every thermal state is separable, and where p0 = p3
        # underflow to 0 it is p1|++> + p2|-->, whose margin is exactly 0;
        # subtracting the two entropies whole can leave -1 ulp there
        temps = np.linspace(2e-4, 2e-3, 40)
        for b in np.linspace(1e-4, 1e-3, 40):
            m12, m03, _, ent = margin_table(eigensystem(canonicalize(0.0, 0.0, 1.0, b)), temps)
            assert np.all((ent >= 0.0) | (np.minimum(m12, m03) < 0.0)), b

    def test_half_half_pair_keeps_its_small_margin(self):
        # p = (0, 0, 1/2, 1/2): S(rho) = 1 bit and the reduction is (1 +- u)/2
        # with u = |b/Delta|/2, so the margin is 1 - h((1 + u)/2) =
        # sum_n u^2n / (2n (2n - 1) ln 2) > 0; subtracting the two entropies
        # near 1 bit rounded it to -8e-17 for every u below about 1e-8.
        # Below 1e-13 bits the margin is exact to 1e-12; above, the short
        # form's rounding (under 2e-15 bits) applies
        for b in np.geomspace(1e-30, 1e-2, 57):
            m = mixture(canonicalize(0.890625, 0.125, 0.125, b), [0.0, 0.0, 0.5, 0.5])
            u = abs(m.eigen.b_ratio) / 2.0
            want = sum(u ** (2 * n) / (2 * n * (2 * n - 1)) for n in (1, 2, 3)) / _LN2
            tol = 1e-12 * want if want < 1e-13 else 2e-15
            rep = entropic_check(m)
            assert not rep.detected and abs(rep.margin - want) <= tol, (b, rep.margin, want)

    def test_agrees_with_whole_entropy_difference(self, rng):
        for _ in range(2000):
            p = random_canonical_params(rng)
            eig = eigensystem(p)
            temps = log_uniform(rng, 1e-2, 1e1, size=20) * p.energy_scale
            w = thermal_probabilities(eig, temps)
            q = 0.5 * (1.0 + np.abs(eig.b_ratio * (w[1] - w[2])))
            whole = -_xlogx(w).sum(axis=0) / _LN2 - _binary_entropy_bits(q)
            assert np.abs(margin_table(eig, temps)[3] - whole).max() <= 1e-14, p

    def test_reductions_identical(self, rng):
        for _ in range(20):
            rho = realize_matrix(random_mixture(rng))
            assert_allclose(
                linalg.partial_trace(rho, "A"), linalg.partial_trace(rho, "B"), atol=1e-14
            )


class TestEntropicMarginBound:
    """criteria._entropic_margin_bound, which the limit scan drops pieces
    of temperature by, lies below the entropic margin on its piece."""

    @staticmethod
    def bound(eig, t_lo, t_hi):
        return _entropic_margin_bound(eig.gaps[:, None], np.array([eig.b_ratio]), np.array([t_lo]), np.array([t_hi]))[0]

    def test_bound_lies_below_the_margin_on_its_piece(self, rng):
        models = [random_canonical_params(rng) for _ in range(150)]
        models += [canonicalize(*m) for m in ((1.0, 1.0, 1.0, 0.0), (1.0, 0.4, 0.4, 0.0), (0.0, 0.0, 0.0, 0.0))]
        models += [canonicalize(1.7, 0.3, 0.0, b) for b in (0.2, 0.71, 0.9, 1.5)]
        tight = 0
        for k, p in enumerate(models):
            eig, s = eigensystem(p), p.energy_scale or 1.0
            t_lo = 0.0 if k % 3 == 0 else float(log_uniform(rng, 1e-3, 3.0)) * s
            t_hi = t_lo + float(log_uniform(rng, 1e-6, 1.0)) * s
            margin = margin_table(eig, np.linspace(t_lo, t_hi, 257))[3]
            bound = self.bound(eig, t_lo, t_hi)
            assert bound <= margin.min() + 1e-15, (p, t_lo, t_hi, bound, margin.min())
            tight += t_lo > 0.0 and bound > 0.9 * margin.min() > 0.0
        assert tight  # narrow pieces where the margin is positive are proved so

    def test_bound_on_a_point_is_the_margin(self, rng):
        # a piece of width 0 pins every weight, so the bound is the margin
        # with q_1 taken at its own value, up to rounding
        for _ in range(50):
            p = random_canonical_params(rng)
            eig = eigensystem(p)
            t = float(log_uniform(rng, 1e-2, 3.0)) * p.energy_scale
            assert abs(self.bound(eig, t, t) - margin_table(eig, np.array([t]))[3, 0]) < 1e-12, (p, t)


class TestHierarchy:
    def test_no_false_positives(self, rng):
        guard = 1e-12
        for _ in range(500):
            m = random_mixture(rng)
            exact = exact_check(m)
            dis = disorder_check(m)
            ent = entropic_check(m)
            if ent.margin < -guard:
                assert dis.margin < guard
            if dis.margin < -guard:
                assert exact.margin < guard

    def test_exact_at_zero_field(self, rng):
        guard = 1e-12
        for _ in range(300):
            m = random_mixture(rng, BELL_DIAG)
            dis = disorder_check(m).margin
            exact = exact_check(m).margin
            if abs(dis) > guard or abs(exact) > guard:
                assert (dis < 0) == (exact < 0)
