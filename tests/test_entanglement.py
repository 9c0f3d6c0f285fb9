import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xyzent import linalg
from xyzent.entanglement import entanglement_of_formation, pt_spectrum, separability_exact
from xyzent.errors import DegenerateBasis, NonPhysicalState, OutOfRange
from xyzent.linalg import concurrence_general, r_spectrum, realize_matrix, spin_averages, total_spin_margins
from xyzent.model import canonicalize
from xyzent.states import mixture, thermal_mixture

from conftest import random_canonical_params, random_mixture, random_simplex

CASE2 = canonicalize(1.0, -1.0, 0.0, 0.0)
BELL_DIAG = canonicalize(0.8, -0.2, 0.1, 0.0)  # b = 0, v_minus = 0.5


class TestSeparabilityExact:
    def test_fully_mixed(self):
        rep = separability_exact(mixture(CASE2, [0.25] * 4))
        assert not rep.entangled
        assert rep.margin_12 > 0 and rep.margin_03 > 0
        assert rep.concurrence == 0.0
        assert rep.violated is None

    def test_bell_diagonal_rule(self):
        # at b = 0 the conditions reduce to p_j <= 1/2; p_0 = 0.6 breaks
        rep = separability_exact(mixture(BELL_DIAG, [0.6, 0.1, 0.1, 0.2]))
        assert rep.violated == "03"
        assert abs(rep.margin_03 + 0.2) < 1e-14
        assert abs(rep.concurrence - 0.2) < 1e-14

    def test_thermal_case2(self):
        m = thermal_mixture(CASE2, 1.0)
        rep = separability_exact(m)
        assert rep.entangled and rep.violated == "12"
        assert abs(rep.concurrence - 0.0689) < 2e-4
        assert abs(rep.concurrence - concurrence_general(realize_matrix(m))) < 1e-9

    def test_margin_tie_is_separable(self):
        # margin exactly 0 in floating point (p_0 = 1/2 at zero field)
        rep = separability_exact(mixture(BELL_DIAG, [0.5, 0.25, 0.25, 0.0]))
        assert rep.margin_03 == 0.0
        assert not rep.entangled
        assert rep.concurrence == 0.0

    def test_two_level_boundary_margin_vanishes(self):
        p = canonicalize(1.7, 0.3, 0.0, 0.9)
        vm_r = 0.7 / np.hypot(0.7, 0.9)
        p_c = 1.0 / (1.0 + vm_r)
        rep = separability_exact(mixture(p, [0.0, 0.0, p_c, 1.0 - p_c]))
        assert abs(min(rep.margin_12, rep.margin_03)) < 1e-15

    def test_at_most_one_margin_negative(self, rng):
        for _ in range(300):
            rep = separability_exact(random_mixture(rng))
            assert not (rep.margin_12 < 0 and rep.margin_03 < 0)

    def test_degenerate_basis_raises(self):
        # the mixture itself rejects unequal weights on a degenerate pair,
        # so no verdict can be formed from them
        p = canonicalize(0.5, 0.5, 0.0, 0.0)
        with pytest.raises(DegenerateBasis):
            separability_exact(mixture(p, [0.2, 0.5, 0.1, 0.2]))


class TestRSpectrum:
    def test_singlet(self):
        r = r_spectrum(mixture(CASE2, [1, 0, 0, 0]))
        assert_allclose(r.values, [1, 0, 0, 0], atol=1e-15)
        assert abs(2 * r.values.max() - r.trace_r - 1.0) < 1e-15

    def test_fully_mixed(self):
        r = r_spectrum(mixture(CASE2, [0.25] * 4))
        assert_allclose(r.values, [0.25] * 4, atol=1e-15)

    def test_thermal_equals_weights_at_zero_field(self):
        m = thermal_mixture(CASE2, 1.0)
        r = r_spectrum(m)
        assert_allclose(np.sort(r.values), np.sort(m.probs), atol=1e-12)
        c = max(2 * r.values.max() - r.trace_r, 0.0)
        assert abs(c - (2 * 0.53445 - 1)) < 1e-4

    def test_concurrence_identity(self, rng):
        for _ in range(300):
            m = random_mixture(rng)
            r = r_spectrum(m)
            c = max(2 * r.values.max() - r.trace_r, 0.0)
            assert abs(c - separability_exact(m).concurrence) < 1e-12

    def test_pair_sum_invariant(self, rng):
        for _ in range(50):
            m = random_mixture(rng)
            r = r_spectrum(m)
            p = m.probs
            expected = np.sqrt((p[1] + p[2]) ** 2 - (m.eigen.b_ratio * (p[2] - p[1])) ** 2)
            assert abs(r.lambda_1 + r.lambda_2 - expected) < 1e-14
            assert r.lambda_0 == p[0] and r.lambda_3 == p[3]
            assert r.values.min() > -1e-15


class TestPTSpectrum:
    def test_separable_is_ppt(self):
        q = pt_spectrum(mixture(CASE2, [0.25] * 4))
        assert q.minimum >= 0.0

    def test_thermal_minimum(self):
        m = thermal_mixture(CASE2, 1.0)
        q = pt_spectrum(m)
        assert abs(q.minimum - (-0.03445)) < 1e-4
        assert abs(-2 * q.minimum - separability_exact(m).concurrence) < 1e-12

    def test_bell_diagonal_example(self):
        q = pt_spectrum(mixture(BELL_DIAG, [0.6, 0.1, 0.1, 0.2]))
        assert abs(q.q_3 + 0.1) < 1e-14
        assert abs(-2 * q.minimum - 0.2) < 1e-14

    def test_matches_numeric_eigenvalues(self, rng):
        for _ in range(100):
            m = random_mixture(rng)
            numeric = linalg.hermitian_eigenvalues(
                linalg.partial_transpose(realize_matrix(m))
            )
            assert_allclose(np.sort(pt_spectrum(m).values)[::-1], numeric, atol=1e-10)
            assert abs(pt_spectrum(m).values.sum() - 1.0) < 1e-12

    def test_negativity_iff_entangled(self, rng):
        for _ in range(200):
            m = random_mixture(rng)
            q = pt_spectrum(m)
            rep = separability_exact(m)
            assert rep.entangled == (q.minimum < 0.0)
            assert (q.values < 0.0).sum() <= 1

    def test_neg_q_gives_concurrence_only_on_pair_12(self, rng):
        # C = -2 q_min whenever inequality 12 breaks; on the 03 branch
        # only for b = 0 or p_1 = p_2
        found_gap = False
        for _ in range(500):
            m = random_mixture(rng)
            rep = separability_exact(m)
            if not rep.entangled:
                continue
            qmin = pt_spectrum(m).minimum
            if rep.violated == "12":
                assert abs(-2 * qmin - rep.concurrence) < 1e-12
            elif abs(m.probs[1] - m.probs[2]) > 1e-6 and m.params.b > 1e-6:
                found_gap = found_gap or abs(-2 * qmin - rep.concurrence) > 1e-9
        assert found_gap  # the inequality is genuinely strict off the special lines

    def test_neg_q_on_03_branch_at_zero_field(self, rng):
        for _ in range(100):
            m = random_mixture(rng, BELL_DIAG)
            rep = separability_exact(m)
            if rep.entangled and rep.violated == "03":
                assert abs(-2 * pt_spectrum(m).minimum - rep.concurrence) < 1e-12


class TestConcurrenceGeneral:
    def test_pure_product(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        assert concurrence_general(rho) == 0.0

    def test_singlet(self):
        assert abs(concurrence_general(realize_matrix(mixture(CASE2, [1, 0, 0, 0]))) - 1.0) < 1e-12

    def test_thermal_matches_closed_form(self):
        m = thermal_mixture(CASE2, 1.0)
        assert abs(concurrence_general(realize_matrix(m)) - separability_exact(m).concurrence) < 1e-9

    def test_rejects_non_physical(self):
        with pytest.raises(NonPhysicalState):
            concurrence_general(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_random_pure_state_matches_reduction_entropy(self, rng):
        # EoF of a pure state is the entropy of either reduction
        for _ in range(30):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            c = concurrence_general(rho)
            s = linalg.entropy_base2(
                linalg.hermitian_eigenvalues(linalg.partial_trace(rho, "A"))
            )
            assert abs(entanglement_of_formation(c) - s) < 1e-9


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert entanglement_of_formation(0.0) == 0.0
        assert entanglement_of_formation(1.0) == 1.0
        assert math.copysign(1.0, entanglement_of_formation(0.0)) == 1.0  # prints "0", not "-0"

    def test_half(self):
        assert abs(entanglement_of_formation(0.5) - 0.35458) < 1e-4

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            entanglement_of_formation(1.5)
        with pytest.raises(OutOfRange):
            entanglement_of_formation(-0.2)
        with pytest.raises(OutOfRange, match="1.5"):
            entanglement_of_formation(np.array([0.2, 1.5, -0.2]))

    def test_matches_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for c in np.concatenate([np.logspace(-12, 0, 241), 1.0 - np.logspace(-16, -1, 31)]):
                q = (1 - mpmath.sqrt(1 - mpmath.mpf(float(c)) ** 2)) / 2
                ref = -(q * mpmath.log(q) + (1 - q) * mpmath.log1p(-q)) / mpmath.log(2)
                got = entanglement_of_formation(float(c))
                assert isinstance(got, float)
                assert abs(got - ref) <= 1e-13 * ref, c
            cs = np.concatenate([np.logspace(-12, 0, 241), [0.0]])
            assert list(entanglement_of_formation(cs)) == [entanglement_of_formation(float(c)) for c in cs]

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, c1, c2):
        lo, hi = sorted([c1, c2])
        assert entanglement_of_formation(lo) <= entanglement_of_formation(hi) + 1e-15


class TestTotalSpinMargins:
    def test_fully_mixed(self):
        margins = total_spin_margins(spin_averages(mixture(CASE2, [0.25] * 4)))
        assert_allclose(margins, (0.5, 0.5), atol=1e-15)

    def test_singlet(self):
        m12, m03 = total_spin_margins(spin_averages(mixture(CASE2, [1, 0, 0, 0])))
        assert abs(m03 + 1.0) < 1e-15

    def test_thermal(self):
        a = spin_averages(thermal_mixture(CASE2, 1.0))
        m12, _ = total_spin_margins(a)
        assert abs(m12 + 0.0689) < 2e-4

    def test_equivalent_to_probability_form(self, rng):
        for _ in range(200):
            m = random_mixture(rng)
            rep = separability_exact(m)
            m12, m03 = total_spin_margins(spin_averages(m))
            assert abs(m12 - rep.margin_12) < 1e-10
            assert abs(m03 - rep.margin_03) < 1e-10


class TestOracleEquivalence:
    def test_sufficient_mixedness(self, rng):
        # |p_j - 1/4| <= 1/(4 sqrt(2)) for all j guarantees separability
        bound = 1.0 / (4.0 * np.sqrt(2.0))
        count = 0
        while count < 200:
            p = random_simplex(rng)
            if np.abs(p - 0.25).max() > bound:
                continue
            count += 1
            rep = separability_exact(mixture(random_canonical_params(rng), p))
            assert not rep.entangled

    def test_closed_form_vs_wootters(self, rng):
        for _ in range(300):
            m = random_mixture(rng)
            c_closed = separability_exact(m).concurrence
            c_oracle = concurrence_general(realize_matrix(m))
            assert abs(c_closed - c_oracle) < 1e-9
