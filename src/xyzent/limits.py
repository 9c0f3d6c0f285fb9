"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals, the
vanishing-plus-reentry window, reference closed forms, and the two-level
mixture thresholds.

limit_temperatures is the only scan; limit_temperature,
entangled_intervals and reentry_window are views of its record.  It
resolves the temperature grid once and evaluates one (4, N) table of
signed margins on it (margin_table): the two exact margins m12 and m03,
the disorder margin and the entropic margin.  Every grid sign change of
every row is then refined in a single vectorised bisection.  The margin
formulas are the ones behind the scalar checks
(entanglement.exact_margins, criteria.disorder_check,
criteria.entropic_check), broadcast over the grid.  There is one
margin_table: the grid scan, the t_max doubling, the bisection and the
CLI's thermal-state columns (sweep and figure) all call it.

The two exact margins are refined separately and their violation sets
merged.  Each margin crosses zero transversally, so both reentry
endpoints are resolved to machine precision even though the separable
gap between them shrinks exponentially as the field approaches the
level-crossing value (far below what any min-margin scan could see).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import _disorder_margin_rows, _entropic_margin_row
from .entanglement import _exact_margin_rows
from .errors import DegenerateBasis, OutOfRange
from .model import EigenSystem, XYZParams, eigensystem
from .states import thermal_probabilities

__all__ = [
    "LimitTemperatures",
    "MixtureThresholds",
    "ReentryWindow",
    "ClosedFormLimits",
    "margin_table",
    "thermal_margin_exact",
    "entangled_intervals",
    "limit_temperature",
    "limit_temperatures",
    "reentry_window",
    "reentry_two_level",
    "mixture_thresholds",
    "closed_form_limits",
]

DEFAULT_GRID = 4096
DEFAULT_REL_TOL = 1e-10
_CRITERIA = ("exact", "disorder", "entropic")


@dataclass(frozen=True)
class LimitTemperatures:
    """Summary of all detection limits for one parameter set.

    t_exact is 0.0 when the thermal state is separable at every
    temperature; t_disorder / t_entropic are None when the criterion
    never fires.  censored names the criteria ("exact", "disorder",
    "entropic") still detecting at the top of the scan, whose limit is
    then only a lower bound.
    """

    t_exact: float
    t_disorder: float | None
    t_entropic: float | None
    intervals: tuple[tuple[float, float], ...]
    reentry: "ReentryWindow | None"
    censored: tuple[str, ...] = ()


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


@dataclass(frozen=True)
class ReentryWindow:
    """Separable gap inside the entangled temperature range.

    lower/upper are the scanned endpoints; two_level is the closed-form
    gap location (E_3 - E_2) / ln(Delta / v_minus) of the truncated
    two-level mixture, or None where that expression is undefined.
    """

    lower: float
    upper: float
    two_level: float | None


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


# ---------------------------------------------------------------------------
# margins as functions of temperature (vectorized over a T grid)
# ---------------------------------------------------------------------------


def margin_table(eig: EigenSystem, ts: np.ndarray) -> np.ndarray:
    """The (4, len(ts)) table of signed margins of the thermal states at
    the temperatures ts >= 0 (1-D); rows m12, m03, disorder, entropic.

    The exact rows use the half-exponent Gibbs amplitudes
    a_j = exp(-(E_j-E_min)/2T), so that a genuinely separable model never
    scans as entangled at any temperature (see _exact_margin_rows); the
    last two the Gibbs weights.  At T = 0 both use the ground-level spread
    of thermal_probabilities.
    """
    p = thermal_probabilities(eig, ts)
    e = eig.energies
    zero = ts == 0.0
    a = np.exp(-0.5 * (e[:, None] - e.min()) / np.where(zero, 1.0, ts))
    a[:, zero] = np.sqrt(p[:, zero])
    w = np.where(zero, p, a * a)
    z = w.sum(axis=0)
    m12, m03 = _exact_margin_rows(w, a[1], a[2], eig.vm_ratio)
    dis = _disorder_margin_rows(p, eig.b_ratio).min(axis=0)
    return np.stack([m12 / z, m03 / z, dis, _entropic_margin_row(p, eig.b_ratio)])


def thermal_margin_exact(p: XYZParams, temperature: float) -> tuple[float, float]:
    """The exact separability margins in their thermal (hyperbolic) form.

    margin 1:  cosh(b_+ ) - (v_-/Delta) e^{b_z} sinh(b_D)
    margin 2:  sqrt(1 + (v_-/Delta)^2 sinh^2(b_D)) - e^{-b_z} sinh(b_+)

    with b_+ = v_plus/T, b_z = vz/T, b_D = Delta/T.  Same signs as the
    probability-form margins (they differ by the positive factor
    Z e^{+-b_z/2} / 2), so min < 0 iff the thermal state is entangled.
    Evaluated with a factored-out exponential so extreme beta yields
    +-inf rather than NaN.
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise ValueError(f"temperature must be positive, got {temperature!r}")
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


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------


def _default_t_max(p: XYZParams) -> float:
    # the all-zero model is separable at every T, so any positive t_max will do
    return 20.0 * (p.energy_scale or 1.0)


def _scan_grid(p: XYZParams, eig: EigenSystem, t_r: float | None, t_max: float | None, grid_n: int):
    """Resolve the scan range (adaptive doubling while still entangled at
    the top) and assemble the grid, densified around the two-level gap
    temperature t_r."""
    if grid_n < 64:
        raise OutOfRange(f"grid_n must be >= 64, got {grid_n}")
    if t_max is None:
        t_max = _default_t_max(p)
        for _ in range(8):
            if margin_table(eig, np.array([t_max]))[:2, 0].min() >= 0.0:
                break
            t_max *= 2.0
    elif not (math.isfinite(t_max) and t_max > 0.0):
        raise OutOfRange(f"t_max must be finite and positive, got {t_max!r}")

    ts = np.linspace(0.0, t_max, grid_n + 1)[1:]
    e = eig.energies
    if t_r is not None and e[3] < min(e[0], e[1]):
        # the separable gap sits near t_r; make sure both lobes around it
        # are sampled even when they are much narrower than the base grid
        window = np.linspace(t_r / grid_n, min(3.0 * t_r, t_max), grid_n)
        ts = np.unique(np.concatenate([ts, window]))
        ts = ts[(ts > 0.0) & (ts <= t_max)]
    return ts, float(t_max)


def _negative_intervals(eig: EigenSystem, table: np.ndarray, ts: np.ndarray, t_end: float, rel: float):
    """Per table row, the maximal intervals where its margin is negative,
    and the rows still negative at t_end.

    Every grid sign change of every row is refined in one vectorised
    bisection; each bracket stops on its own once hi - lo <= rel * hi
    (checked before each step) or after 200 steps.  A negative first
    sample extends an interval down to 0 (intervals are open there), a
    negative last sample up to t_end.
    """
    neg = table < 0.0
    rows, idx = np.nonzero(neg[:, 1:] != neg[:, :-1])
    leaving = neg[rows, idx]  # negative below the crossing
    lo, hi = ts[idx], ts[idx + 1]
    for _ in range(200):
        live = np.flatnonzero(~(hi - lo <= rel * hi))
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        to_lo = (margin_table(eig, mid)[rows[live], np.arange(live.size)] < 0.0) == leaving[live]
        lo[live[to_lo]] = mid[to_lo]
        hi[live[~to_lo]] = mid[~to_lo]
    t_cross = 0.5 * (lo + hi)

    out = []
    for r in range(table.shape[0]):
        intervals, starts = [], [0.0] if neg[r, 0] else []
        for left, t in zip(leaving[rows == r], t_cross[rows == r]):
            if left:
                intervals.append((starts.pop(), float(t)))
            else:
                starts.append(float(t))
        if neg[r, -1]:
            intervals.append((starts.pop(), t_end))
        out.append(intervals)
    return out, neg[:, -1]


def limit_temperatures(
    p: XYZParams,
    t_max: float | None = None,
    grid_n: int = DEFAULT_GRID,
    rel_tol: float = DEFAULT_REL_TOL,
) -> LimitTemperatures:
    """All detection limits in one record (see LimitTemperatures).

    Raises OutOfRange for grid_n < 64, a t_max that is not finite and
    positive, or a rel_tol outside (0, 1).  The two exact margins'
    violation sets are merged; they are disjoint (at most one margin is
    negative at a time), so any overlap beyond refinement noise would be
    a bug and is folded together defensively.
    """
    if not 0.0 < rel_tol < 1.0:
        raise OutOfRange(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    eig = eigensystem(p)
    t_r = _two_level(p, eig)
    ts, t_end = _scan_grid(p, eig, t_r, t_max, grid_n)
    (m12, m03, dis, ent), at_end = _negative_intervals(eig, margin_table(eig, ts), ts, t_end, rel_tol)
    ints: list[tuple[float, float]] = []
    for lo, hi in sorted(m12 + m03):
        if ints and lo < ints[-1][1]:
            if ints[-1][1] - lo > 1e-6 * max(lo, ints[-1][1]):
                ints[-1] = (ints[-1][0], max(hi, ints[-1][1]))  # genuine overlap
                continue
            lo = ints[-1][1]  # refinement noise; keep the gap structure
        ints.append((lo, max(lo, hi)))
    reentry = None
    if len(ints) >= 2:
        reentry = ReentryWindow(lower=ints[0][1], upper=ints[1][0], two_level=t_r)
    return LimitTemperatures(
        t_exact=ints[-1][1] if ints else 0.0,
        t_disorder=dis[-1][1] if dis else None,
        t_entropic=ent[-1][1] if ent else None,
        intervals=tuple(ints),
        reentry=reentry,
        censored=tuple(c for c, hit in zip(_CRITERIA, (at_end[0] or at_end[1], *at_end[2:])) if hit),
    )


def entangled_intervals(
    p: XYZParams,
    t_max: float | None = None,
    grid_n: int = DEFAULT_GRID,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[tuple[float, float]]:
    """Maximal temperature intervals on which the thermal state is
    entangled; empty means separable at every sampled temperature."""
    return list(limit_temperatures(p, t_max=t_max, grid_n=grid_n, rel_tol=rel_tol).intervals)


def limit_temperature(
    p: XYZParams,
    criterion: str = "exact",
    t_max: float | None = None,
    grid_n: int = DEFAULT_GRID,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float | None:
    """Largest temperature at which the criterion ("exact", "disorder" or
    "entropic") detects entanglement of the thermal state, or None if it
    never fires."""
    if criterion not in _CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    lt = limit_temperatures(p, t_max=t_max, grid_n=grid_n, rel_tol=rel_tol)
    return (lt.t_exact or None) if criterion == "exact" else getattr(lt, f"t_{criterion}")


def reentry_two_level(p: XYZParams) -> float | None:
    """Closed-form gap temperature (E_3 - E_2) / ln(Delta / v_minus).

    Defined only when level 2 lies below level 3 and the logarithm is
    positive (v_minus > 0 and b > 0); None otherwise.
    """
    return _two_level(p, eigensystem(p))


def _two_level(p: XYZParams, eig: EigenSystem) -> float | None:
    vm = p.v_minus
    if vm <= 0.0 or eig.delta <= vm * (1.0 + 1e-15):
        return None
    if eig.energies[2] >= eig.energies[3]:
        return None
    return float((eig.energies[3] - eig.energies[2]) / math.log(eig.delta / vm))


def reentry_window(
    p: XYZParams,
    t_max: float | None = None,
    grid_n: int = DEFAULT_GRID,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ReentryWindow | None:
    """The separable gap between the two entangled lobes, if present."""
    return limit_temperatures(p, t_max=t_max, grid_n=grid_n, rel_tol=rel_tol).reentry


def mixture_thresholds(p: XYZParams) -> MixtureThresholds:
    """Critical weights of the (levels 2, 3) two-level mixture."""
    eig = eigensystem(p)
    if eig.degenerate:
        raise DegenerateBasis("thresholds need Delta > 0")
    return MixtureThresholds(
        p_c=1.0 / (1.0 + eig.vm_ratio),
        p_d=1.0 / (2.0 - eig.b_ratio),
        p_d_prime=1.0 / (2.0 + eig.b_ratio),
    )


def closed_form_limits(p: XYZParams) -> ClosedFormLimits:
    """Reference closed forms for the two special coupling cases."""
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
