"""Small fixed-size complex linear algebra for two-qubit states.

Everything operates on plain numpy arrays in the standard product basis,
ordered |++>, |+->, |-+>, |-->.  This module is the substrate for the
general (matrix-level) verification path; the closed forms elsewhere in
the package never depend on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpectrum, NonHermitianInput, NonPhysicalState

HERMITICITY_TOL = 1e-8
PSD_TOL = 1e-10

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# (sigma_y (x) sigma_y), used by the spin flip
_YY = np.kron(SIGMA_Y, SIGMA_Y).real  # antidiag(-1, 1, 1, -1), purely real


def _as_square(m, dims=(2, 4)):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in dims:
        raise ValueError(f"expected a square matrix of size {dims}, got shape {a.shape}")
    return a


def check_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising NonHermitianInput if
    ``|m - m^dagger|`` exceeds ``tol`` anywhere."""
    a = _as_square(m)
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise NonHermitianInput(f"Hermiticity violated by {dev:.3e} (tol {tol:.0e})")
    return a


def validate_density(m, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD up to tolerance.

    Returns the validated array.  Raises NonHermitianInput or
    NonPhysicalState.
    """
    a = check_hermitian(m)
    tr = a.trace().real
    if abs(tr - 1.0) > 1e-10:
        raise NonPhysicalState(f"trace is {tr!r}, expected 1")
    w = np.linalg.eigvalsh(a)
    if w.min() < -psd_tol:
        raise NonPhysicalState(f"negative eigenvalue {w.min():.3e}")
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending.

    The eigenvalues sum to trace(m) to within 1e-10.
    """
    a = check_hermitian(m)
    return np.linalg.eigvalsh(a)[::-1].copy()


def partial_trace(rho, keep: str = "A") -> np.ndarray:
    """Trace out one qubit of a two-qubit density matrix.

    ``keep='A'`` returns the first qubit's 2x2 state, ``keep='B'`` the
    second's.  For a product state the corresponding factor is recovered
    exactly.
    """
    a = _as_square(rho, dims=(4,)).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ibjb->ij", a)
    if keep == "B":
        return np.einsum("aiaj->ij", a)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, subsystem: str = "B") -> np.ndarray:
    """Transpose one qubit of a two-qubit matrix.  Involutive; preserves
    Hermiticity and trace."""
    a = _as_square(rho, dims=(4,)).reshape(2, 2, 2, 2)
    if subsystem == "B":
        return a.transpose(0, 3, 2, 1).reshape(4, 4)
    if subsystem == "A":
        return a.transpose(2, 1, 0, 3).reshape(4, 4)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped state (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)."""
    a = _as_square(rho, dims=(4,))
    return _YY @ a.conj() @ _YY


def entropy_base2(spectrum) -> float:
    """Shannon entropy -sum(p log2 p) in bits of a probability spectrum.

    Negative dust above -1e-10 is clipped to zero; anything more negative,
    or a total weight off 1 by more than 1e-6, raises InvalidSpectrum.
    """
    p = np.asarray(spectrum, dtype=float)
    if p.min() < -PSD_TOL:
        raise InvalidSpectrum(f"negative weight {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-6:
        raise InvalidSpectrum(f"weights sum to {p.sum()!r}, expected 1")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0.0]
    s = float(-(nz * np.log2(nz)).sum())
    return min(max(s, 0.0), math.log2(p.size))
