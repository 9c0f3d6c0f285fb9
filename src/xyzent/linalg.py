"""Independent oracles: second routes to the numbers the runtime computes.

Matrix-level routes (explicit 4x4 Hamiltonians and density matrices,
partial traces and transposes, the spin-flipped Wootters concurrence),
alternative closed forms (the R spectrum, the spin-form and hyperbolic
margins), and reference closed forms that no command prints (the limit
temperatures of the special coupling cases, the two-level mixture
thresholds, the level-crossing field), for tests and benchmark checks
only.  No runtime module imports this one, so none of it runs on the hot
path; each docstring names the runtime number its function checks.
Matrices are numpy arrays in the standard basis |++>, |+->, |-+>, |-->.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, InvalidSpectrum, InvalidTemperature, NonHermitianInput, NonPhysicalState
from .model import EigenSystem, XYZParams, eigensystem
from .states import BellMixture

HERMITICITY_TOL = 1e-8
PSD_TOL = 1e-10

# two-qubit operators in the standard basis, all real
_SZ = np.diag([1.0, 0.0, 0.0, -1.0])
_XX = np.fliplr(np.eye(4))
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y, used by the spin flip
_ZZ = np.diag([1.0, -1.0, -1.0, 1.0])


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

    The eigenvalues sum to trace(m) to within 1e-10.  Checks mixture
    weights, energies and, with the maps below, the criteria and PT spectra.
    """
    a = check_hermitian(m)
    return np.linalg.eigvalsh(a)[::-1].copy()


def partial_trace(rho, keep: str = "A") -> np.ndarray:
    """Trace out one qubit of a two-qubit density matrix.

    ``keep='A'`` returns the first qubit's 2x2 state, ``keep='B'`` the
    second's.  For a product state the corresponding factor is recovered
    exactly.  Checks the reductions behind criteria.disorder_check and
    criteria.entropic_check.
    """
    a = _as_square(rho, dims=(4,)).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ibjb->ij", a)
    if keep == "B":
        return np.einsum("aiaj->ij", a)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, subsystem: str = "B") -> np.ndarray:
    """Transpose one qubit of a two-qubit matrix.  Involutive; preserves
    Hermiticity and trace.  Checks entanglement.pt_spectrum."""
    a = _as_square(rho, dims=(4,)).reshape(2, 2, 2, 2)
    if subsystem == "B":
        return a.transpose(0, 3, 2, 1).reshape(4, 4)
    if subsystem == "A":
        return a.transpose(2, 1, 0, 3).reshape(4, 4)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped state (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y),
    the input of concurrence_general."""
    a = _as_square(rho, dims=(4,))
    return _YY @ a.conj() @ _YY


def entropy_base2(spectrum) -> float:
    """Shannon entropy -sum(p log2 p) in bits of a probability spectrum.

    Negative dust above -1e-10 is clipped to zero; anything more negative,
    or a total weight off 1 by more than 1e-6, raises InvalidSpectrum.
    Checks the entropies behind criteria.entropic_check.
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


def hamiltonian_matrix(p: XYZParams) -> np.ndarray:
    """The Hamiltonian as a real symmetric 4x4 matrix in the standard basis.
    Checks the closed-form energies of model.eigensystem.
    """
    vp, vm, vz, b = p.v_plus, p.v_minus, p.vz, p.b
    return np.array(
        [
            [b - 0.5 * vz, 0.0, 0.0, -vm],
            [0.0, 0.5 * vz, -vp, 0.0],
            [0.0, -vp, 0.5 * vz, 0.0],
            [-vm, 0.0, 0.0, -b - 0.5 * vz],
        ]
    )


def _amplitudes(eig: EigenSystem) -> tuple[float, float]:
    """(u_plus, u_minus) = sqrt(1 +- b/Delta), and (sqrt(2), 0) at Delta = 0."""
    if eig.degenerate:
        # the b -> 0+ limit at v_minus = 0: |Phi_1> = |++>, |Phi_2> = |-->
        return math.sqrt(2.0), 0.0
    return math.sqrt(1.0 + eig.b_ratio), math.sqrt(max(0.0, 1.0 - eig.b_ratio))


def eigenvectors(eig: EigenSystem) -> np.ndarray:
    """The eigenstates of the EigenSystem docstring as a (4, 4) array, row
    j = |Phi_j> in the standard basis.  Checks eig.energies against
    hamiltonian_matrix, and backs realize_matrix."""
    u_plus, u_minus = _amplitudes(eig)
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [0.0, s, -s, 0.0],
            [u_plus * s, 0.0, 0.0, -u_minus * s],
            [u_minus * s, 0.0, 0.0, u_plus * s],
            [0.0, s, s, 0.0],
        ]
    )


@dataclass(frozen=True)
class SpinAverages:
    """Total and pair spin expectations of a BellMixture.

    sz is <S_z>; sxsx, sysy, szsz are the pair correlators <s_i^A s_i^B>;
    sx2, sy2, sz2 are <S_i^2> = 2 <s_i^A s_i^B> + 1/2.
    """

    sz: float
    sxsx: float
    sysy: float
    szsz: float
    sx2: float
    sy2: float
    sz2: float


def spin_averages(m: BellMixture) -> SpinAverages:
    """Spin expectations in closed form.

    <S_z>        = (b/Delta) (p_1 - p_2)
    <s_z s_z>    = (p_1 + p_2 - 1/2) / 2
    <s_x s_x>    = [p_3 - p_0 + (v_minus/Delta)(p_2 - p_1)] / 4
    <s_y s_y>    = [p_3 - p_0 - (v_minus/Delta)(p_2 - p_1)] / 4

    Checks the <S_z> of the criteria via realize_matrix.
    """
    p0, p1, p2, p3 = m.probs
    eig = m.eigen
    sz = eig.b_ratio * (p1 - p2)
    szsz = 0.5 * (p1 + p2 - 0.5)
    sxsx = 0.25 * (p3 - p0 + eig.vm_ratio * (p2 - p1))
    sysy = 0.25 * (p3 - p0 - eig.vm_ratio * (p2 - p1))
    return SpinAverages(
        sz=sz,
        sxsx=sxsx,
        sysy=sysy,
        szsz=szsz,
        sx2=2.0 * sxsx + 0.5,
        sy2=2.0 * sysy + 0.5,
        sz2=2.0 * szsz + 0.5,
    )


def realize_matrix(m: BellMixture) -> np.ndarray:
    """The mixture as an explicit 4x4 density matrix (real, standard basis).

    Built two ways and cross-checked entry-wise to 1e-12: the spectral
    sum over projectors onto the eigenvectors, and the operator form
    1/4 + <S_z> S_z / 2 + sum_i <s_i s_i> sigma_i (x) sigma_i.  The input
    of every matrix-level check of a BellMixture.
    """
    vectors = eigenvectors(m.eigen)
    spectral = np.einsum("j,ja,jb->ab", m.probs, vectors, vectors)
    spectral = 0.5 * (spectral + spectral.T)  # exact symmetry
    a = spin_averages(m)
    operator = 0.25 * np.eye(4) + 0.5 * a.sz * _SZ + a.sxsx * _XX + a.sysy * _YY + a.szsz * _ZZ
    dev = np.abs(spectral - operator).max()
    if dev > 1e-12:
        raise AssertionError(f"spectral and operator constructions disagree by {dev:.3e}")
    return spectral


@dataclass(frozen=True)
class RSpectrum:
    """Eigenvalues of the concurrence matrix R, labelled like the levels:
    lambda_0 = p_0, lambda_3 = p_3, and the 1/2 pair carrying the field
    dependence."""

    lambda_0: float
    lambda_1: float
    lambda_2: float
    lambda_3: float

    @property
    def trace_r(self) -> float:
        return self.lambda_0 + self.lambda_1 + self.lambda_2 + self.lambda_3

    @property
    def values(self) -> np.ndarray:
        return np.array([self.lambda_0, self.lambda_1, self.lambda_2, self.lambda_3])


def r_spectrum(m: BellMixture) -> RSpectrum:
    """Closed-form spectrum of R; max(2*lambda_max - trace R, 0) is the
    concurrence.  Checks entanglement.separability_exact's concurrence."""
    vm_r = m.eigen.vm_ratio
    p0, p1, p2, p3 = m.probs
    root = math.hypot(vm_r * (p2 - p1), 2.0 * math.sqrt(p1) * math.sqrt(p2))
    half_split = 0.5 * vm_r * (p1 - p2)
    return RSpectrum(
        lambda_0=p0,
        lambda_1=0.5 * root + half_split,
        lambda_2=0.5 * root - half_split,
        lambda_3=p3,
    )


def concurrence_general(rho) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    Computed from the eigenvalues of rho @ spin_flip(rho): their square
    roots are the R eigenvalues, and C = max(0, 2*max - sum).  Eigenvalue
    dust of the product (negative, or positive below the eigensolver's
    resolution) is clipped before the square root; without the clip the
    square root amplifies O(eps)-sized dust of rank-deficient products
    (pure states) to O(sqrt(eps)) errors.  Checks
    entanglement.separability_exact's concurrence on realize_matrix.
    """
    a = validate_density(rho)
    m = a @ spin_flip(a)
    ev = np.linalg.eigvals(m).real
    dust = 64.0 * np.finfo(float).eps * max(np.abs(ev).max(), np.abs(m).max())
    lam = np.sqrt(np.where(ev > dust, ev, 0.0))
    lam.sort()
    return float(max(0.0, 2.0 * lam[-1] - lam.sum()))


def total_spin_margins(a: SpinAverages) -> tuple[float, float]:
    """The separability margins written in total-spin averages.

    |<S_x^2 - S_y^2>| <= <1 - S_z^2>         (pair 12)
    |<S_x^2 + S_y^2 - 1>| <= sqrt(<S_z^2>^2 - <S_z>^2)   (pair 03)

    Algebraically identical to entanglement.exact_margins on the
    generating mixture.
    """
    margin_12 = (1.0 - a.sz2) - abs(a.sx2 - a.sy2)
    rad = max(0.0, a.sz2 - a.sz) * max(0.0, a.sz2 + a.sz)  # factored difference of squares
    margin_03 = math.sqrt(rad) - abs(a.sx2 + a.sy2 - 1.0)
    return margin_12, margin_03


def disorder_margins_spin_form(a: SpinAverages) -> tuple[float, float]:
    """Disorder margins recast in total-spin averages.

    |<S_x^2 - S_y^2>| <= sqrt(<1-S_z^2>^2 + 2 |<S_z>| <1-S_z^2>)
    |<S_x^2 + S_y^2 - 1>| <= <S_z^2> + |<S_z>|

    Each line is sign-equivalent to criteria.disorder_check's eigenvalue
    form restricted to levels 1,2 and 0,3 respectively (margins differ in
    magnitude).
    """
    w = 1.0 - a.sz2  # = p_0 + p_3, never negative
    margin_12 = math.sqrt(max(0.0, w * w + 2.0 * abs(a.sz) * w)) - abs(a.sx2 - a.sy2)
    margin_03 = (a.sz2 + abs(a.sz)) - abs(a.sx2 + a.sy2 - 1.0)
    return margin_12, margin_03


def majorization_margins(spectrum4, spectrum2) -> np.ndarray:
    """Partial-sum margins of 'spectrum4 majorized by spectrum2'.

    Both spectra are sorted descending and the short one zero-padded;
    entry k is sum(top k of spectrum2) - sum(top k of spectrum4).  All
    entries >= 0 means majorized.  For a two-entry right-hand side only
    the first partial sum can bind, which is why criteria.disorder_check
    needs just the largest-eigenvalue comparison; this general form backs
    that reduction in tests.
    """
    a = np.sort(np.asarray(spectrum4, dtype=float))[::-1]
    r = np.zeros_like(a)
    b = np.sort(np.asarray(spectrum2, dtype=float))[::-1]
    r[: b.size] = b
    return np.cumsum(r) - np.cumsum(a)


def thermal_margin_exact(p: XYZParams, temperature: float) -> tuple[float, float]:
    """The exact separability margins in their thermal (hyperbolic) form.

    margin 1:  cosh(b_+ ) - (v_-/Delta) e^{b_z} sinh(b_D)
    margin 2:  sqrt(1 + (v_-/Delta)^2 sinh^2(b_D)) - e^{-b_z} sinh(b_+)

    with b_+ = v_plus/T, b_z = vz/T, b_D = Delta/T.  Same signs as the
    probability-form margins (they differ by the positive factor
    Z e^{+-b_z/2} / 2), so min < 0 iff the thermal state is entangled.
    Evaluated with a factored-out exponential so extreme beta yields
    +-inf rather than NaN.  Checks the m12 and m03 rows of
    criteria.margin_table and the limit temperatures scanned from them.
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise InvalidTemperature(f"temperature must be positive, got {temperature!r}")
    eig = eigensystem(p)
    beta = 1.0 / temperature
    a = beta * p.v_plus
    d = beta * eig.delta
    z = beta * p.vz
    vm_r = eig.vm_ratio

    m = max(a, z + d, z - d, 0.0)
    bracket = (
        0.5 * (math.exp(a - m) + math.exp(-a - m))
        - 0.5 * vm_r * (math.exp(z + d - m) - math.exp(z - d - m))
    )
    margin_1 = _scaled(bracket, m)

    m = max(d, a - z, -a - z, 0.0)
    sinh_d = 0.5 * (math.exp(d - m) - math.exp(-d - m))
    lhs = math.hypot(math.exp(-m), vm_r * sinh_d)
    rhs = 0.5 * (math.exp(a - z - m) - math.exp(-a - z - m))
    margin_2 = _scaled(lhs - rhs, m)
    return margin_1, margin_2


def _scaled(bracket: float, log_factor: float) -> float:
    if bracket == 0.0:
        return 0.0
    if log_factor > 700.0:  # exp would overflow; sign is already decided
        return math.copysign(math.inf, bracket)
    return bracket * math.exp(log_factor)


@dataclass(frozen=True)
class ClosedFormLimits:
    """Reference closed forms, when the parameter case admits one.

    case "xx" (v_minus = vz = 0):  t_exact = v_plus / ln(1 + sqrt(2)),
    independent of the field.  case "max_anisotropy" (v_plus = vz = 0):
    t_exact = Delta/arcsinh(Delta/v_minus) and t_disorder =
    Delta/arcsinh(Delta/(Delta - b)).  Otherwise empty.
    """

    case: str | None
    t_exact: float | None = None
    t_disorder: float | None = None


def closed_form_limits(p: XYZParams) -> ClosedFormLimits:
    """Reference closed forms for the two special coupling cases.  Checks
    limits.limit_temperatures there."""
    tol = 1e-12 * p.energy_scale
    vp, vm, vz = p.v_plus, p.v_minus, p.vz
    if abs(vm) <= tol and abs(vz) <= tol and vp > tol:
        return ClosedFormLimits(case="xx", t_exact=vp / math.log(1.0 + math.sqrt(2.0)))
    if abs(vp) <= tol and abs(vz) <= tol and vm > tol:
        delta = math.hypot(vm, p.b)
        return ClosedFormLimits(
            case="max_anisotropy",
            t_exact=delta / math.asinh(delta / vm),
            t_disorder=delta / math.asinh(delta / (delta - p.b)),
        )
    return ClosedFormLimits(case=None)


@dataclass(frozen=True)
class MixtureThresholds:
    """Critical weights of the two-level mixture over levels 2 and 3.

    p_c = 1/(1 + v_minus/Delta): the single weight at which the mixture
    is separable; its concurrence is |p_2/p_c - 1|.  p_d and p_d_prime
    bound the window the disorder criterion cannot see into:
    p_d = 1/(2 - |b/Delta|) >= 1/2 >= p_d_prime = 1/(2 + |b/Delta|).
    """

    p_c: float
    p_d: float
    p_d_prime: float


def mixture_thresholds(p: XYZParams) -> MixtureThresholds:
    """Critical weights of the (levels 2, 3) two-level mixture.  Checks
    entanglement.separability_exact's concurrence on that mixture."""
    eig = eigensystem(p)
    if eig.degenerate:
        raise DegenerateBasis("thresholds need Delta > 0")
    return MixtureThresholds(
        p_c=1.0 / (1.0 + eig.vm_ratio),
        p_d=1.0 / (2.0 - eig.b_ratio),
        p_d_prime=1.0 / (2.0 + eig.b_ratio),
    )


def b_crossing(p: XYZParams) -> float:
    """Field at which the two lowest levels cross:
    sqrt(max(0, (v_plus - vz)^2 - v_minus^2)).  From 2**512 up, where the
    squares would overflow, the two terms are scaled by a power of 2 (as in
    model._crossing_gap); below it the scale is 1, so the bits are those of
    the plain formula (** 2 is libm's pow, whose rounding a power-of-2 scale
    can change).  Places the reentry models of the tests and the benchmark
    workloads."""
    d, m = p.v_plus - p.vz, p.v_minus
    k = max(0, math.frexp(max(abs(d), abs(m)))[1] - 512)
    s = 2.0**-k
    return math.sqrt(max(0.0, (d * s) ** 2 - (m * s) ** 2)) * 2.0**k
