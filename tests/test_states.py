import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from xyzent.errors import DegenerateBasis, InvalidMixture, InvalidTemperature
from xyzent.linalg import hamiltonian_matrix, realize_matrix, spin_averages
from xyzent.model import canonicalize, eigensystem
from xyzent.states import mixture, thermal_mixture, thermal_probabilities

from conftest import random_canonical_params, random_mixture

CASE2 = canonicalize(1.0, -1.0, 0.0, 0.0)  # v_minus = 1, energies (0, 1, -1, 0)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class TestThermalMixture:
    def test_infinite_temperature(self):
        m = thermal_mixture(CASE2, 1e12)
        assert_allclose(m.probs, [0.25] * 4, atol=1e-10)

    def test_gibbs_weights(self):
        m = thermal_mixture(CASE2, 1.0)
        assert_allclose(m.probs, [0.19661, 0.07233, 0.53445, 0.19661], atol=1e-4)

    def test_zero_temperature_unique_ground(self):
        m = thermal_mixture(CASE2, 0.0)
        assert_allclose(m.probs, [0, 0, 1, 0])

    def test_zero_temperature_degenerate_ground(self):
        # b = 0, vx = 1, vy = vz = 0.4: levels 2 and 3 tie at -0.5
        p = canonicalize(1.0, 0.4, 0.4, 0.0)
        m = thermal_mixture(p, 0.0)
        assert_allclose(m.probs, [0, 0, 0.5, 0.5])

    def test_very_low_temperature_matches_projection(self):
        lim = thermal_mixture(CASE2, 0.0).probs
        cold = thermal_mixture(CASE2, 1e-4).probs
        assert_allclose(cold, lim, atol=1e-12)

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidTemperature):
            thermal_mixture(CASE2, -1.0)
        with pytest.raises(InvalidTemperature):
            thermal_mixture(CASE2, np.nan)
        # an array names its first bad temperature, not the whole array
        with pytest.raises(InvalidTemperature, match=r"got -2\.0$"):
            thermal_probabilities(eigensystem(CASE2), np.r_[np.linspace(0.0, 1.0, 999), -2.0, -3.0])

    def test_negative_zero_temperature_is_zero(self):
        # -0.0 >= 0 holds, and g/(-0.0) = -inf made every weight NaN
        eig = eigensystem(CASE2)
        assert thermal_probabilities(eig, [-0.0]).tolist() == thermal_probabilities(eig, [0.0]).tolist()
        assert thermal_mixture(CASE2, -0.0).probs.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_weights_invariant_under_sign_flips(self):
        # thermal_mixture after canonicalize is well defined: any sign
        # choice for (b, v_plus, v_minus) gives the same level weights
        ref = thermal_mixture(canonicalize(1.7, 0.3, 0.2, 0.9), 0.4).probs
        for vx, vy, b in [(-1.7, -0.3, 0.9), (0.3, 1.7, 0.9), (1.7, 0.3, -0.9)]:
            probs = thermal_mixture(canonicalize(vx, vy, 0.2, b), 0.4).probs
            assert_allclose(probs, ref, atol=1e-14)

    def test_probabilities_vectorized(self):
        eig = eigensystem(CASE2)
        ts = np.array([0.0, 0.5, 1.0, 1e12])
        p = thermal_probabilities(eig, ts)
        assert p.shape == (4, 4)
        assert_allclose(p.sum(axis=0), 1.0, atol=1e-14)
        assert_allclose(p[:, 2], thermal_mixture(CASE2, 1.0).probs)


class TestMixtureValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidMixture):
            mixture(CASE2, [0.5, 0.5, 0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(InvalidMixture):
            mixture(CASE2, [1.2, -0.2, 0, 0])

    @pytest.mark.parametrize("probs", [[np.nan] * 4, [np.nan, 1.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])
    def test_rejects_non_finite(self, probs):
        # NaN fails every comparison, so the checks are written to fail on it
        with pytest.raises(InvalidMixture):
            mixture(canonicalize(1.0, 0.3, 0.0, 0.5), probs)

    @pytest.mark.parametrize("probs", [[0.25] * 3, [0.2] * 5, [[0.25] * 4], 1.0, []])
    def test_rejects_wrong_shape(self, probs):
        with pytest.raises(InvalidMixture, match="expected 4 weights"):
            mixture(CASE2, probs)

    def test_degenerate_basis_needs_equal_pair(self):
        p = canonicalize(0.5, 0.5, 0.0, 0.0)  # Delta = 0
        with pytest.raises(DegenerateBasis):
            mixture(p, [0.2, 0.5, 0.1, 0.2])
        mixture(p, [0.2, 0.3, 0.3, 0.2])  # equal weights are fine


class TestSpinAverages:
    def test_fully_mixed(self):
        a = spin_averages(mixture(CASE2, [0.25] * 4))
        assert a.sz == a.sxsx == a.sysy == a.szsz == 0.0
        assert a.sx2 == a.sy2 == a.sz2 == 0.5

    def test_singlet(self):
        a = spin_averages(mixture(CASE2, [1, 0, 0, 0]))
        assert a.sz == 0.0
        assert_allclose([a.sxsx, a.sysy, a.szsz], [-0.25] * 3)

    def test_thermal_case2(self):
        a = spin_averages(thermal_mixture(CASE2, 1.0))
        assert a.sz == 0.0  # b = 0
        assert abs(a.szsz - 0.05339) < 1e-4

    def test_total_spin_identity(self, rng):
        for _ in range(20):
            a = spin_averages(random_mixture(rng))
            assert abs(a.sx2 - (2 * a.sxsx + 0.5)) < 1e-15
            assert abs(a.sz2 - (2 * a.szsz + 0.5)) < 1e-15
            assert abs(a.sz) <= 2.0
            for corr in (a.sxsx, a.sysy, a.szsz):
                assert abs(corr) <= 0.25 + 1e-15

    def test_matches_trace_computation(self, rng):
        for _ in range(20):
            m = random_mixture(rng)
            a = spin_averages(m)
            rho = realize_matrix(m)
            sz_op = np.diag([1.0, 0, 0, -1.0])
            assert abs(np.trace(rho @ sz_op).real - a.sz) < 1e-10
            for axis, value in (("x", a.sxsx), ("y", a.sysy), ("z", a.szsz)):
                op = np.kron(_PAULI[axis], _PAULI[axis]) / 4.0
                assert abs(np.trace(rho @ op).real - value) < 1e-10


class TestRealizeMatrix:
    def test_fully_mixed(self):
        assert_allclose(realize_matrix(mixture(CASE2, [0.25] * 4)), np.eye(4) / 4, atol=1e-15)

    def test_singlet_block(self):
        rho = realize_matrix(mixture(CASE2, [1, 0, 0, 0]))
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
        assert_allclose(rho, expected, atol=1e-15)

    def test_thermal_spectrum(self):
        m = thermal_mixture(CASE2, 1.0)
        w = np.sort(np.linalg.eigvalsh(realize_matrix(m)))[::-1]
        assert_allclose(w, np.sort(m.probs)[::-1], atol=1e-12)

    def test_density_invariants(self, rng):
        for _ in range(50):
            rho = realize_matrix(random_mixture(rng))
            assert np.abs(rho - rho.T).max() == 0.0  # real symmetric
            assert abs(rho.trace() - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_phase_flip_symmetry(self, rng):
        # U = -exp(i pi S_z) = diag(-1, 1, 1, -1) commutes with the state
        u = np.diag([-1.0, 1.0, 1.0, -1.0])
        for _ in range(20):
            rho = realize_matrix(random_mixture(rng))
            assert (u @ rho @ u == rho).all()

    def test_permutation_symmetry(self, rng):
        swap = np.eye(4)[[0, 2, 1, 3]]
        rho = realize_matrix(random_mixture(rng))
        assert_allclose(swap @ rho @ swap, rho, atol=1e-15)

    def test_thermal_matches_matrix_exponential(self, rng):
        # independent route: expm(-H/T) normalized
        for _ in range(10):
            p = random_canonical_params(rng)
            t = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0)))) * p.energy_scale
            ref = expm(-hamiltonian_matrix(p) / t)
            ref /= ref.trace()
            assert_allclose(realize_matrix(thermal_mixture(p, t)), ref, atol=1e-12)

    def test_construction_routes_agree(self, rng):
        # realize_matrix raises internally if the spectral and operator
        # forms drift apart beyond 1e-12; exercise 10^4 random mixtures
        from xyzent.states import mixture

        from conftest import random_canonical_params, random_simplex

        for _ in range(10):
            params = random_canonical_params(rng)
            for p in random_simplex(rng, size=1000):
                realize_matrix(mixture(params, p))
