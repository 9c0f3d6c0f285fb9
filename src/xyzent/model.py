"""Two-qubit Heisenberg XYZ Hamiltonian in a z-axis magnetic field.

The Hamiltonian is

    H = b*S_z - 2*(v_x s_x^A s_x^B + v_y s_y^A s_y^B + v_z s_z^A s_z^B),

with S = s^A + s^B the total spin, spin-1/2 operators s_i = sigma_i / 2,
k_B = 1, and all couplings in one common energy unit.  Its spectrum and
all quantities derived from it are invariant under sign flips of b,
v_plus = (v_x+v_y)/2 and v_minus = (v_x-v_y)/2 (not of v_z), so inputs
are canonicalized to b >= 0, v_plus >= 0, v_minus >= 0 at the library
boundary and internal code assumes that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput


@dataclass(frozen=True)
class XYZParams:
    """Couplings (vx, vy, vz), field b, plus the derived combinations."""

    vx: float
    vy: float
    vz: float
    b: float
    #: names among {"b", "v_plus", "v_minus"} whose sign was flipped
    #: by canonicalize(); empty for already-canonical input.
    flips: tuple[str, ...] = ()

    @property
    def v_plus(self) -> float:
        return 0.5 * (self.vx + self.vy)

    @property
    def v_minus(self) -> float:
        return 0.5 * (self.vx - self.vy)

    @property
    def v_max(self) -> float:
        """Larger of the two transverse couplings, max(vx, vy)."""
        return max(self.vx, self.vy)

    @property
    def v_min(self) -> float:
        return min(self.vx, self.vy)

    @property
    def b_critical(self) -> float:
        """Field above which no transverse mean field survives: v_max - vz."""
        return self.v_max - self.vz

    @property
    def chi(self) -> float:
        """|b| / b_critical, defined for b_critical > 0."""
        bc = self.b_critical
        return abs(self.b) / bc if bc > 0.0 else math.inf

    @property
    def b_crossing(self) -> float:
        """Field at which the two lowest levels cross:
        sqrt(max(0, (v_plus - vz)^2 - v_minus^2))."""
        return math.sqrt(max(0.0, (self.v_plus - self.vz) ** 2 - self.v_minus**2))

    @property
    def delta(self) -> float:
        """Gap parameter sqrt(v_minus^2 + b^2) of the aligned sector."""
        return math.hypot(self.v_minus, self.b)

    @property
    def energy_scale(self) -> float:
        return max(abs(self.vx), abs(self.vy), abs(self.vz), abs(self.b))

    def is_canonical(self, tol: float = 0.0) -> bool:
        return self.b >= -tol and self.v_plus >= -tol and self.v_minus >= -tol


def canonicalize(vx: float, vy: float, vz: float, b: float) -> XYZParams:
    """Map raw couplings to the canonical sign sector.

    b, v_plus and v_minus are replaced by their absolute values (vz is
    kept as given); the applied flips are recorded on the result.  The
    spectrum, concurrence and every limit temperature are unchanged.
    """
    vals = (vx, vy, vz, b)
    if not all(math.isfinite(v) for v in vals):
        raise NonFiniteInput(f"non-finite parameter in {vals!r}")
    flips = []
    if b < 0.0:
        b = -b
        flips.append("b")
    vp = 0.5 * (vx + vy)
    vm = 0.5 * (vx - vy)
    if vp < 0.0:
        vp = -vp
        flips.append("v_plus")
    if vm < 0.0:
        vm = -vm
        flips.append("v_minus")
    if flips and flips != ["b"]:
        # reconstruct couplings only when a combination was flipped, so
        # already-canonical input passes through bit-exactly
        vx, vy = vp + vm, vp - vm
    return XYZParams(vx=vx, vy=vy, vz=vz, b=b, flips=tuple(flips))


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form eigensystem of the canonical Hamiltonian.

    Levels are labelled 0..3 with

        E_0 = vz/2 + v_plus     |Phi_0> = (|+-> - |-+>)/sqrt(2)
        E_3 = vz/2 - v_plus     |Phi_3> = (|+-> + |-+>)/sqrt(2)
        E_1 = -vz/2 + Delta     |Phi_1> = (u_plus|++> - u_minus|-->)/sqrt(2)
        E_2 = -vz/2 - Delta     |Phi_2> = (u_minus|++> + u_plus|-->)/sqrt(2)

    with Delta = sqrt(v_minus^2 + b^2) and u_pm = sqrt(1 +- b/Delta).
    In the degenerate case Delta = 0 (v_minus = b = 0) the convention is
    u_plus = sqrt(2), u_minus = 0, i.e. |Phi_1> = |++>, |Phi_2> = |-->,
    and the ratios v_minus/Delta and b/Delta are both taken as 0.
    """

    energies: np.ndarray  # shape (4,), indexed by level label
    delta: float
    u_plus: float
    u_minus: float
    vectors: np.ndarray  # shape (4, 4), row j = |Phi_j> in the standard basis
    ground_indices: tuple[int, ...]
    degenerate: bool
    #: v_minus/Delta and b/Delta under the degenerate convention
    vm_ratio: float = 0.0
    b_ratio: float = 0.0


def _snap_degeneracies(energies: np.ndarray) -> np.ndarray:
    """Collapse level splittings below closed-form rounding error.

    Physically degenerate levels (e.g. the ground doublet at vy = vz,
    b = 0) can come out a few ulps apart because the closed forms round
    differently; at low temperature the Gibbs weights amplify that fake
    splitting into wrong separability verdicts.  Levels closer together
    than 16 ulps of the largest |E_j| are set to their common mean, so the
    rule is the same in every energy unit.
    """
    tol = 16.0 * np.finfo(float).eps * float(np.abs(energies).max())
    order = np.argsort(energies)
    out = energies.copy()
    start = 0
    for k in range(1, 5):
        if k == 4 or energies[order[k]] - energies[order[k - 1]] > tol:
            group = order[start:k]
            if group.size > 1:
                out[group] = energies[group].mean()
            start = k
    return out


def eigensystem(p: XYZParams) -> EigenSystem:
    """Eigen-energies and eigenvectors for canonical parameters."""
    vp, vm, vz, b = p.v_plus, p.v_minus, p.vz, p.b
    delta = math.hypot(vm, b)
    # the closed forms are exact for every Delta > 0; at Delta == 0 the
    # levels E_1 and E_2 are the same float, so their Gibbs weights are equal
    degenerate = delta == 0.0
    if degenerate:
        # the b -> 0+ limit at v_minus = 0: |Phi_1> = |++>, |Phi_2> = |-->
        vm_ratio, b_ratio = 0.0, 0.0
        u_plus, u_minus = math.sqrt(2.0), 0.0
    else:
        vm_ratio = vm / delta
        b_ratio = b / delta
        u_plus = math.sqrt(1.0 + b_ratio)
        u_minus = math.sqrt(max(0.0, 1.0 - b_ratio))

    energies = np.array([0.5 * vz + vp, -0.5 * vz + delta, -0.5 * vz - delta, 0.5 * vz - vp])
    energies = _snap_degeneracies(energies)

    s = 1.0 / math.sqrt(2.0)
    vectors = np.array(
        [
            [0.0, s, -s, 0.0],
            [u_plus * s, 0.0, 0.0, -u_minus * s],
            [u_minus * s, 0.0, 0.0, u_plus * s],
            [0.0, s, s, 0.0],
        ]
    )

    ground = tuple(int(j) for j in np.flatnonzero(energies == energies.min()))
    return EigenSystem(
        energies=energies,
        delta=delta,
        u_plus=u_plus,
        u_minus=u_minus,
        vectors=vectors,
        ground_indices=ground,
        degenerate=degenerate,
        vm_ratio=vm_ratio,
        b_ratio=b_ratio,
    )


def hamiltonian_matrix(p: XYZParams) -> np.ndarray:
    """The Hamiltonian as a real symmetric 4x4 matrix in the standard basis.

    Accepts raw (pre-canonicalization) parameters as well; the matrix
    itself is sign-dependent but its spectrum is not.
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
