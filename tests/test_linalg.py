import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xyzent import linalg
from xyzent.errors import InvalidTemperature
from xyzent.linalg import InvalidSpectrum, NonHermitianInput, NonPhysicalState, realize_matrix, spin_averages
from xyzent.model import canonicalize
from xyzent.states import thermal_mixture

from conftest import log_uniform, random_canonical_params, random_mixture

SINGLET = np.zeros((4, 4))
SINGLET[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]


def thermal_case2(temperature=1.0):
    # v_minus = 1, v_plus = vz = 0, b = 0: energies (0, 1, -1, 0)
    return thermal_mixture(canonicalize(1.0, -1.0, 0.0, 0.0), temperature)


class TestHermitianEigenvalues:
    def test_fully_mixed(self):
        assert_allclose(linalg.hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)

    def test_pure_projector(self):
        assert_allclose(linalg.hermitian_eigenvalues(np.diag([1.0, 0, 0, 0])), [1, 0, 0, 0])

    def test_thermal_gibbs_weights(self):
        # frozen from the scalar Gibbs computation with E = (0, 1, -1, 0), T=1
        rho = realize_matrix(thermal_case2())
        assert_allclose(
            linalg.hermitian_eigenvalues(rho),
            [0.53445, 0.19661, 0.19661, 0.07233],
            atol=1e-4,
        )

    def test_two_by_two(self):
        assert_allclose(linalg.hermitian_eigenvalues(np.diag([0.75, 0.25])), [0.75, 0.25])

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(NonHermitianInput):
            linalg.hermitian_eigenvalues(m)

    def test_sum_matches_trace(self, rng):
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            w = linalg.hermitian_eigenvalues(h)
            assert w[0] >= w[-1]
            assert abs(w.sum() - h.trace().real) < 1e-10


class TestPartialTrace:
    def test_product_state(self):
        rho = np.diag([1.0, 0, 0, 0])  # |++><++|
        assert_allclose(linalg.partial_trace(rho, "A"), np.diag([1.0, 0.0]))
        assert_allclose(linalg.partial_trace(rho, "B"), np.diag([1.0, 0.0]))

    def test_fully_mixed(self):
        assert_allclose(linalg.partial_trace(np.eye(4) / 4, "A"), np.eye(2) / 2)

    def test_product_factor_recovered(self, rng):
        a = rng.dirichlet([1, 1])
        rho_a = np.diag(a)
        rho_b = np.array([[0.7, 0.1], [0.1, 0.3]])
        rho = np.kron(rho_a, rho_b)
        assert_allclose(linalg.partial_trace(rho, "A"), rho_a, atol=1e-15)
        assert_allclose(linalg.partial_trace(rho, "B"), rho_b, atol=1e-15)

    def test_mixture_reduction_is_field_polarized(self, rng):
        # reductions of the symmetric mixtures: diag((1 +- <S_z>)/2)
        for _ in range(20):
            m = random_mixture(rng)
            sz = spin_averages(m).sz
            expected = np.diag([0.5 * (1 + sz), 0.5 * (1 - sz)])
            for keep in "AB":
                assert_allclose(
                    linalg.partial_trace(realize_matrix(m), keep), expected, atol=1e-10
                )


class TestPartialTranspose:
    def test_involution_exact(self, rng):
        m = random_mixture(rng)
        rho = realize_matrix(m)
        for sub in "AB":
            twice = linalg.partial_transpose(linalg.partial_transpose(rho, sub), sub)
            assert (twice == rho).all()

    def test_product_state_stays_psd(self):
        rho = np.kron(np.diag([0.6, 0.4]), np.array([[0.5, 0.2], [0.2, 0.5]]))
        w = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho))
        assert w.min() >= -1e-14

    def test_singlet_minimum(self):
        w = linalg.hermitian_eigenvalues(linalg.partial_transpose(SINGLET))
        assert abs(w.min() + 0.5) < 1e-14

    def test_thermal_minimum(self):
        rho = realize_matrix(thermal_case2())
        w = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho))
        assert abs(w.min() - (-0.03445)) < 1e-4

    def test_trace_preserved(self, rng):
        rho = realize_matrix(random_mixture(rng))
        pt = linalg.partial_transpose(rho)
        assert abs(linalg.hermitian_eigenvalues(pt).sum() - 1.0) < 1e-10


class TestSpinFlip:
    def test_fully_mixed_invariant(self):
        assert_allclose(linalg.spin_flip(np.eye(4) / 4), np.eye(4) / 4)

    def test_full_flip(self):
        up = np.diag([1.0, 0, 0, 0])
        down = np.diag([0, 0, 0, 1.0])
        assert_allclose(linalg.spin_flip(up), down)

    def test_singlet_invariant(self):
        assert_allclose(linalg.spin_flip(SINGLET), SINGLET, atol=1e-15)

    def test_involution_and_physicality(self, rng):
        for _ in range(20):
            rho = realize_matrix(random_mixture(rng))
            flipped = linalg.spin_flip(rho)
            assert_allclose(linalg.spin_flip(flipped), rho, atol=1e-15)
            linalg.validate_density(flipped)  # PSD, unit trace preserved


class TestEntropy:
    def test_pure(self):
        assert linalg.entropy_base2([1.0, 0, 0, 0]) == 0.0

    def test_fully_mixed(self):
        assert abs(linalg.entropy_base2([0.25] * 4) - 2.0) < 1e-14

    def test_thermal(self):
        assert abs(linalg.entropy_base2(sorted(thermal_case2().probs)) - 1.6799) < 1e-3

    def test_clips_dust(self):
        assert linalg.entropy_base2([1.0 + 5e-11, -5e-11, 0, 0]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidSpectrum):
            linalg.entropy_base2([1.1, -0.1, 0, 0])

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidSpectrum):
            linalg.entropy_base2([0.5, 0.4, 0, 0])

    def test_reduction_entropy_at_most_one_bit(self, rng):
        for _ in range(20):
            rho = realize_matrix(random_mixture(rng))
            w = linalg.hermitian_eigenvalues(linalg.partial_trace(rho, "A"))
            assert linalg.entropy_base2(w) <= 1.0 + 1e-12


class TestValidateDensity:
    def test_rejects_non_psd(self):
        with pytest.raises(NonPhysicalState):
            linalg.validate_density(np.diag([1.5, -0.5, 0, 0]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NonPhysicalState):
            linalg.validate_density(np.eye(4))


class TestExactFreeEnergy:
    def test_matches_the_dense_route(self, rng):
        # -T ln Tr exp(-H/T) from the eigenvalues of the dense Hamiltonian,
        # shifted by their least so that no exponent overflows
        for _ in range(200):
            q = random_canonical_params(rng)
            lam = log_uniform(rng, 1e-3, 1e3) / q.energy_scale
            p = canonicalize(lam * q.vx, lam * q.vy, lam * q.vz, lam * q.b)
            t = float(log_uniform(rng, 1e-2, 1e2)) * p.energy_scale
            w = np.linalg.eigvalsh(linalg.hamiltonian_matrix(p))
            dense = w.min() - t * math.log(np.exp(-(w - w.min()) / t).sum())
            tol = 64 * np.finfo(float).eps * (p.energy_scale + t)
            assert abs(linalg.exact_free_energy(p, t) - dense) <= tol, (p, t)

    def test_rejects_non_positive_temperature(self):
        for t in (0.0, -0.0, -1.0):
            with pytest.raises(InvalidTemperature):
                linalg.exact_free_energy(canonicalize(1.0, 0.3, 0.2, 0.5), t)
