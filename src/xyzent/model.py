"""Two-qubit Heisenberg XYZ Hamiltonian in a z-axis magnetic field.

The Hamiltonian is

    H = b*S_z - 2*(v_x s_x^A s_x^B + v_y s_y^A s_y^B + v_z s_z^A s_z^B),

with S = s^A + s^B the total spin, spin-1/2 operators s_i = sigma_i / 2,
k_B = 1, and all couplings in one common energy unit.  Its spectrum and
all quantities derived from it are invariant under sign flips of b,
v_plus = (v_x+v_y)/2 and v_minus = (v_x-v_y)/2 (not of v_z), so inputs
are canonicalized to b >= 0, v_plus >= 0, v_minus >= 0 at the library
boundary and internal code assumes that form.

The level gaps and mixing ratios of any number of models come from one
array pass, _eigen_columns, which the limit scan and the CLI's state
columns each call once per batch; eigensystem is its one-model view,
with the same bits in every column whatever the batch.  The closed-form
mean-field T_c (XYZParams.t_critical) lives here too, with the rule
that says where it is the onset of the mean field's broken global
minimum (XYZParams.t_critical_is_onset), so the commands that print only
it, and `limits` where the rule holds, never run the mean-field module.
Quantities that no command prints, such as the level-crossing field, are
oracles in linalg.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, OutOfRange

#: Largest accepted energy scale max(|vx|, |vy|, |vz|, |b|), about 2.8e306:
#: v_plus, v_minus, every level gap and the sum of two neighbouring zeros
#: below t_cut, which limits._root_brackets halves, <= 2 t_cut (at most about
#: 8.7 energy_scale) stay finite.  The two-level gap
#: temperature (E_3 - E_2)/ln(Delta/v_minus) may not; limits._two_level drops it.
MAX_ENERGY_SCALE = 2.0**1018
#: Smallest accepted nonzero energy scale, about 3.6e-307, the mirror of
#: MAX_ENERGY_SCALE: below it couplings near the subnormal range lose digits,
#: and the mean field's tanh(|lambda|/2T)/|lambda| overflows.  The all-zero
#: model is valid.
MIN_ENERGY_SCALE = 2.0**-1018


@dataclass(frozen=True)
class XYZParams:
    """Canonical couplings (vx, vy, vz), field b, plus the derived
    combinations.  Building one raises NonFiniteInput (a NaN or infinite
    parameter) or OutOfRange (an energy scale outside the bounds, or b,
    v_plus or v_minus < 0; canonicalize maps raw couplings into range)."""

    vx: float
    vy: float
    vz: float
    b: float
    #: names among {"b", "v_plus", "v_minus"} whose sign was flipped
    #: by canonicalize(); empty for already-canonical input.
    flips: tuple[str, ...] = ()

    def __post_init__(self):
        vals = (self.vx, self.vy, self.vz, self.b)
        if not all(math.isfinite(v) for v in vals):
            raise NonFiniteInput(f"non-finite parameter in {vals!r}")
        scale = self.energy_scale
        if scale > MAX_ENERGY_SCALE:
            raise OutOfRange(f"energy scale {scale!r} exceeds the bound 2**1018 (about 2.8e306)")
        if 0.0 < scale < MIN_ENERGY_SCALE:
            raise OutOfRange(f"energy scale {scale!r} is below the bound 2**-1018 (about 3.6e-307)")
        if not (self.b >= 0.0 and self.v_plus >= 0.0 and self.v_minus >= 0.0):
            raise OutOfRange(f"b, v_plus and v_minus must be >= 0 (see canonicalize), got couplings {vals!r}")

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
    def b_critical(self) -> float:
        """Field above which no transverse mean field survives: v_max - vz."""
        return self.v_max - self.vz

    @property
    def chi(self) -> float:
        """|b| / b_critical, defined for b_critical > 0."""
        bc = self.b_critical
        return abs(self.b) / bc if bc > 0.0 else math.inf

    @property
    def t_critical(self) -> float | None:
        """Closed-form mean-field critical temperature
        v_max chi / (2 atanh chi), v_max/2 at chi = 0; None where the
        transverse solution is infeasible: chi >= 1 (which covers
        v_max <= vz), or v_max <= 0, without transverse coupling to break,
        or where T_c rounds to 0, as no temperature lies below it.  Where
        the product v_max chi is subnormal it is taken as
        v_max (chi / atanh chi) / 2, which loses no digits there."""
        v_max, chi = self.v_max, self.chi
        if not (v_max > 0.0 and chi < 1.0):
            return None
        if chi == 0.0:
            return 0.5 * v_max or None
        product = v_max * chi
        if product < sys.float_info.min:  # subnormal: the ratio keeps every digit
            return 0.5 * v_max * (chi / math.atanh(chi)) or None
        return product / (2.0 * math.atanh(chi))

    @property
    def t_critical_is_onset(self) -> bool:
        """Whether t_critical is the onset of the mean field's broken
        global minimum: t_critical is None, or T_c >= -vz/2.  Where it
        holds, meanfield.critical_temperature returns t_critical bit for
        bit, None included; elsewhere that onset also weighs the staggered
        z pair (meanfield module docstring).

        Proof.  The product-state free energy is

            F(s_A, s_B) = b (s_A^z + s_B^z) - 2 sum_i v_i s_A^i s_B^i - T [S(s_A) + S(s_B)].

        The Hessian of -S is at least 4 I: 1/(1/4 - m^2) radially and
        2 atanh(2m)/m tangentially, at |s| = m.  Flipping s_B^y changes
        only vy -> |vy|, so take vy >= 0; then every v_i but vz is >= 0
        (vx >= |vy| in the canonical sector).  Along any line
        (sigma + d, sigma - d), F has curvature at least
        8T|d|^2 + 4 sum_i v_i d_i^2, so for T >= max(-vz/2, 0) it is convex
        there; F is symmetric under A <-> B, so
        F(sigma + d, sigma - d) >= F(sigma, sigma), and every global
        minimum is uniform.  Among uniform states the transverse branch has
        lambda_z = b v_max/(v_max - vz) and tanh(n/2T) = n/v_max, and
        exists iff T < T_c; the z-only root lambda_0(T) is monotone in T
        and transversally unstable iff T < T_c; a stationary point
        anti-aligned with b is never the global minimum.  Hence, when
        T_c > -vz/2, the global minimum is broken on (max(-vz/2, 0), T_c)
        and unbroken on [T_c, inf), so the onset is exactly T_c.

        The rounding of t_critical cannot change a printed value: this is
        the float test meanfield.solve_mf makes at T = t_critical before it
        weighs the staggered pair, so where it holds the minimum there is
        uniform z, and the enumeration would return t_critical's own bits
        as well.
        """
        t = self.t_critical
        return t is None or not t < -0.5 * self.vz

    @property
    def energy_scale(self) -> float:
        return max(abs(self.vx), abs(self.vy), abs(self.vz), abs(self.b))


def canonicalize(vx: float, vy: float, vz: float, b: float) -> XYZParams:
    """Map raw couplings to the canonical sign sector.

    b, v_plus and v_minus are replaced by their absolute values (vz is
    kept as given); the applied flips are recorded on the result.  The
    spectrum, concurrence and every limit temperature are unchanged.
    The result is checked as every XYZParams is (NonFiniteInput,
    OutOfRange).
    """
    vp, vm = 0.5 * (vx + vy), 0.5 * (vx - vy)
    flips = tuple(name for name, v in (("b", b), ("v_plus", vp), ("v_minus", vm)) if v < 0.0)
    # couplings are rebuilt only where a combination was flipped, so canonical
    # input passes through bit-exactly; where the half-sums overflow, the raw
    # couplings are out of range and are reported as given
    if flips not in ((), ("b",)) and math.isfinite(abs(vp) + abs(vm)):
        vx, vy = abs(vp) + abs(vm), abs(vp) - abs(vm)
    return XYZParams(vx=vx, vy=vy, vz=vz, b=-b if b < 0.0 else b, flips=flips)


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
    and the ratios v_minus/Delta and b/Delta are both taken as 0.  The
    runtime needs only the level gaps and the two ratios; the vectors are
    built by the oracle linalg.eigenvectors.
    """

    energies: np.ndarray  # shape (4,), by level label; those of gap 0 set to the lowest
    #: E_j - E_min, each to full relative accuracy (_eigen_columns), 0 on the
    #: ground levels; every Gibbs quantity is taken from these
    gaps: np.ndarray
    delta: float
    degenerate: bool
    #: v_minus/Delta and b/Delta under the degenerate convention
    vm_ratio: float = 0.0
    b_ratio: float = 0.0


def _eigen_columns(ps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The level gaps (4, K), v_minus/Delta, b/Delta and Delta (K,) of the
    canonical models ps, one column each; eigensystem is the one-column
    view, and each column is the same whatever batch it sits in.

    Each gap E_j - E_min has full relative accuracy.  Only
    u = E_3 - E_2 = vz - v_plus + Delta can cancel, near the level-crossing
    field; where vz < v_plus it is taken as
    [(vx - vz)(vy - vz) - b^2] / (vz - v_plus - Delta), since
    (vz - v_plus)^2 - v_minus^2 = (vz - vx)(vz - vy), with the numerator
    formed without rounding error to first order (Dekker's two-sum and
    two-product, on the couplings scaled by a power of 2).  Every other gap
    is a sum of terms of one sign: (u + 2 v_plus, 2 Delta, 0, u) when the
    ground level is E_2, (2 v_plus, 2 Delta - u, -u, 0) when it is E_3.
    Gaps below 16 ulps of the largest |E_j|, the closed forms' rounding
    error, are 0: this is the one rule that decides which levels are
    degenerate, so the same in every energy unit.  Delta is math.hypot of
    each column, as np.hypot rounds some of them differently.
    """
    vx, vy, vz, b = np.array([(p.vx, p.vy, p.vz, p.b) for p in ps], dtype=float).reshape(-1, 4).T
    vp, vm = 0.5 * (vx + vy), 0.5 * (vx - vy)
    delta = np.array(list(map(math.hypot, vm.tolist(), b.tolist())), dtype=float)
    # the closed forms are exact for every Delta > 0; at Delta == 0 the levels
    # E_1 and E_2 are the same float, and both ratios are taken as 0
    vm_ratio, b_ratio = np.divide([vm, b], delta, out=np.zeros((2, delta.size)), where=delta > 0.0)
    tol = 16.0 * np.finfo(float).eps * np.abs(_energies(vz, vp, delta)).max(axis=0)
    u = (vz - vp) + delta
    near = np.flatnonzero(vz < vp)
    u[near] = _crossing_gap(*(x[near] for x in (vx, vy, vz, b, vp, delta)))
    zero = np.zeros_like(u)
    gaps = np.where(u >= 0.0, [u + 2.0 * vp, 2.0 * delta, zero, u], [2.0 * vp, 2.0 * delta - u, -u, zero])
    return np.where(gaps < tol, 0.0, gaps), vm_ratio, b_ratio, delta


def _energies(vz, vp, delta) -> np.ndarray:
    """E_0..E_3 (EigenSystem), of one model or of columns of models."""
    return np.array([0.5 * vz + vp, -0.5 * vz + delta, -0.5 * vz - delta, 0.5 * vz - vp])


def _crossing_gap(vx, vy, vz, b, vp, delta) -> np.ndarray:
    """E_3 - E_2 = [(vx - vz)(vy - vz) - b^2] / (vz - v_plus - Delta) of
    columns with vz < v_plus (_eigen_columns)."""
    k = np.frexp(np.abs([vx, vy, vz, b]).max(axis=0))[1]
    (d1, d2), (e1, e2) = _two_sum(np.ldexp([vx, vy], -k), np.ldexp(-vz, -k))
    b = np.ldexp(b, -k)
    (q, bb), (eq, eb) = _two_prod(np.array([d1, b]), np.array([d2, b]))
    num = (q - bb) + (((eq - eb) + d1 * e2 + d2 * e1) + e1 * e2)
    return np.ldexp(num / (np.ldexp(vz - vp, -k) - np.ldexp(delta, -k)), k)


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    (ah, al), (bh, bl) = _split(a), _split(b)
    q = a * b
    return q, ((ah * bh - q) + ah * bl + al * bh) + al * bl


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def eigensystem(p: XYZParams) -> EigenSystem:
    """Eigen-energies and mixing ratios for canonical parameters: the
    one-column view of _eigen_columns, plus the energies, each level whose
    gap is 0 set to the lowest."""
    gaps, vm_ratio, b_ratio, delta = _eigen_columns([p])
    gaps, delta = gaps[:, 0], float(delta[0])
    energies = _energies(p.vz, p.v_plus, delta) + 0.0  # + 0.0: no -0
    energies[gaps == 0.0] = energies.min()
    return EigenSystem(
        energies=energies,
        gaps=gaps,
        delta=delta,
        degenerate=delta == 0.0,
        vm_ratio=float(vm_ratio[0]),
        b_ratio=float(b_ratio[0]),
    )
