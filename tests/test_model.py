import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xyzent.errors import NonFiniteInput
from xyzent.linalg import _amplitudes, eigenvectors, hamiltonian_matrix
from xyzent.model import XYZParams, canonicalize, eigensystem

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

    def test_derived_fields(self):
        p = canonicalize(1.7, 0.3, 0.0, 0.9)
        assert p.v_max == 1.7
        assert p.v_min == 0.3
        assert p.b_critical == 1.7
        assert abs(p.chi - 0.9 / 1.7) < 1e-15
        assert abs(p.b_crossing - math.sqrt(1.0 - 0.49)) < 1e-15


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
        raw = XYZParams(vx=vx, vy=vy, vz=vz, b=b)
        p = canonicalize(vx, vy, vz, b)
        w_raw = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(raw)))
        w_canon = np.sort(eigensystem(p).energies)
        scale = max(1.0, np.abs(w_raw).max())
        assert np.abs(w_raw - w_canon).max() < 1e-10 * scale

    def test_gap_dominates_components(self, rng):
        for _ in range(30):
            p = random_canonical_params(rng)
            d = eigensystem(p).delta
            assert d >= p.v_minus - 1e-15
            assert d >= p.b - 1e-15
