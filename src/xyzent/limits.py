"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals, the
vanishing-plus-reentry window, reference closed forms, and the two-level
mixture thresholds.

One scan (_limit_records) computes the limits of any number of models,
and each model's record holds every limit; limit_temperatures is its
one-model view.  It resolves each model's grid once, with T = 0 as its
first sample, evaluates one (4, N) table of signed margins on it (the
two exact margins m12 and m03, the disorder margin and the entropic
margin) and keeps its sign changes; one vectorised bisection then
refines every sign change of every model.  All margins come from one
kernel, _margin_columns, which takes a model per column and whose
one-model view is margin_table.  Its formulas are the ones behind the
scalar checks (entanglement.exact_margins, criteria.disorder_check,
criteria.entropic_check), broadcast over the columns; the grid tables,
the bisection and the CLI's thermal-state columns all call it.

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
from .errors import DegenerateBasis, InvalidTemperature, OutOfRange
from .model import EigenSystem, XYZParams, eigensystem
from .states import _gibbs_exponents, thermal_probabilities  # noqa: F401  (kept bound for tracing)

__all__ = [
    "LimitTemperatures",
    "MixtureThresholds",
    "ReentryWindow",
    "ClosedFormLimits",
    "margin_table",
    "thermal_margin_exact",
    "limit_temperatures",
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
    The one-model view of the margin kernel, _margin_columns."""
    return _margin_columns(eig.energies, eig.vm_ratio, eig.b_ratio, ts)


def _margin_columns(energies, vm_ratio, b_ratio, ts) -> np.ndarray:
    """The margin kernel: column k of the (4, K) table holds the margins
    of a model's thermal state at ts[k] >= 0, the model given by column k
    of energies (4, K) and of vm_ratio, b_ratio (K,), or by energies (4,)
    and scalar ratios in every column.  Each step is elementwise, so a
    column's bits do not depend on which columns share the call.

    The exact rows use the half-exponent Gibbs amplitudes
    a_j = exp(-(E_j-E_min)/2T), so that a genuinely separable model never
    scans as entangled at any temperature (see _exact_margin_rows); the
    last two the Gibbs weights exp(-r)/sum(exp(-r)).  Both come from one
    call to states._gibbs_exponents, so T = 0 is their T -> 0+ limit
    (a_j = 1 on each ground level, 0 above) and no T warns.
    """
    r = _gibbs_exponents(energies, ts)
    w = np.exp(-r)
    p = w / w.sum(axis=0)
    a = np.exp(-0.5 * r)
    w = a * a
    z = w.sum(axis=0)
    m12, m03 = _exact_margin_rows(w, a[1], a[2], vm_ratio)
    dis = _disorder_margin_rows(p, b_ratio).min(axis=0)
    return np.stack([m12 / z, m03 / z, dis, _entropic_margin_row(p, b_ratio)])


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


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------


def _default_t_max(p: XYZParams) -> float:
    # the all-zero model is separable at every T, so any positive t_max will do
    return 20.0 * (p.energy_scale or 1.0)


def _scan_grid(p: XYZParams, eig: EigenSystem, t_r: float | None, t_max: float | None, grid_n: int):
    """Resolve the scan range and assemble the grid from T = 0 up,
    densified around the two-level gap temperature t_r.

    The default range needs no check that the state is separable at its
    top.  Every level gap is at most 3 energy_scale (2 v_plus, 2 Delta,
    or |vz| + v_plus + Delta, with v_plus + v_minus, b and |vz| each
    <= energy_scale), so at T >= 3 energy_scale all Gibbs weights lie
    within a factor e < 3 of each other, and both exact margins are
    >= 3 w_min - w_max > 0.
    """
    if grid_n < 64:
        raise OutOfRange(f"grid_n must be >= 64, got {grid_n}")
    if t_max is None:
        t_max = _default_t_max(p)
    elif not (math.isfinite(t_max) and t_max > 0.0):
        raise OutOfRange(f"t_max must be finite and positive, got {t_max!r}")

    ts = np.linspace(0.0, t_max, grid_n + 1)
    e = eig.energies
    if t_r is not None and e[3] < min(e[0], e[1]):
        # the separable gap sits near t_r; make sure both lobes around it
        # are sampled even when they are much narrower than the base grid
        window = np.linspace(t_r / grid_n, min(3.0 * t_r, t_max), grid_n)
        ts = np.unique(np.concatenate([ts, window]))
        ts = ts[ts <= t_max]
    return ts, float(t_max)


def _limit_records(ps, t_max=None, grid_n=DEFAULT_GRID, rel_tol=DEFAULT_REL_TOL) -> list[LimitTemperatures]:
    """The LimitTemperatures of every model in ps (see limit_temperatures).

    Each grid table is reduced to its sign-change brackets and first and
    last signs; a margin exactly 0 at T = 0 takes the sign of the next
    sample, so a boundary ground state does not start its interval where
    exp stops underflowing.  One bisection refines every bracket in its
    own model's column; each stops once hi - lo <= rel_tol * hi (checked
    before each step) or after 200 steps, as it would alone.
    """
    if not 0.0 < rel_tol < 1.0:
        raise OutOfRange(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    eigs, scans, brackets = [], [], []
    for k, p in enumerate(ps):
        eig = eigensystem(p)
        t_r = _two_level(p, eig)
        ts, t_end = _scan_grid(p, eig, t_r, t_max, grid_n)
        table = margin_table(eig, ts)
        neg = table < 0.0
        neg[:, 0] = np.where(table[:, 0] == 0.0, neg[:, 1], neg[:, 0])
        rows, idx = np.nonzero(neg[:, 1:] != neg[:, :-1])
        eigs.append(eig)
        scans.append((neg[:, 0].tolist(), neg[:, -1].tolist(), t_end, t_r))
        brackets.append((rows, neg[rows, idx], ts[idx], ts[idx + 1], np.full(rows.size, k)))
    # row, negative below the crossing, bracket, and model of every bracket
    rows, leaving, lo, hi, model = map(np.concatenate, zip(*brackets))
    energies = np.stack([e.energies for e in eigs], axis=1)[:, model]
    vm_ratio = np.array([e.vm_ratio for e in eigs])[model]
    b_ratio = np.array([e.b_ratio for e in eigs])[model]
    for _ in range(200):
        live = np.flatnonzero(~(hi - lo <= rel_tol * hi))
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        table = _margin_columns(energies[:, live], vm_ratio[live], b_ratio[live], mid)
        to_lo = (table[rows[live], np.arange(live.size)] < 0.0) == leaving[live]
        lo[live[to_lo]] = mid[to_lo]
        hi[live[~to_lo]] = mid[~to_lo]
    t_cross = 0.5 * (lo + hi)
    return [_record(rows[model == k], t_cross[model == k], *scan) for k, scan in enumerate(scans)]


def _record(rows, t_cross, first, last, t_end: float, t_r: float | None) -> LimitTemperatures:
    """One model's record from its refined sign changes.

    A row's sign changes alternate, so with 0 in front of a negative
    first sample and t_end (censored) behind a negative last one they
    pair up into the maximal intervals where the margin is negative.
    The two exact margins' violation sets are merged; they are disjoint,
    so only the bisection's noise can make them overlap.  With
    hi, lo = max, min(w1, w2) and big = max(w0, w3), m12 < 0 needs
    vm (hi - lo) > big, while m03 < 0 needs |w3 - w0| > vm (hi - lo);
    since |w3 - w0| <= big, at most one margin is negative at any T.
    """
    edges = ([0.0] * first[r] + t_cross[rows == r].tolist() + [t_end] * last[r] for r in range(4))
    m12, m03, dis, ent = (list(zip(e[::2], e[1::2])) for e in edges)
    ints: list[tuple[float, float]] = []
    for lo, hi in sorted(m12 + m03):
        if ints and lo < ints[-1][1]:
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
        censored=tuple(c for c, hit in zip(_CRITERIA, (last[0] or last[1], *last[2:])) if hit),
    )


def limit_temperatures(
    p: XYZParams,
    t_max: float | None = None,
    grid_n: int = DEFAULT_GRID,
    rel_tol: float = DEFAULT_REL_TOL,
) -> LimitTemperatures:
    """All detection limits in one record (see LimitTemperatures).

    Raises OutOfRange for grid_n < 64, a t_max that is not finite and
    positive, or a rel_tol outside (0, 1).
    """
    return _limit_records([p], t_max, grid_n, rel_tol)[0]


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
