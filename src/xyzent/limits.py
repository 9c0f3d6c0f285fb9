"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals, the
vanishing-plus-reentry window, reference closed forms, and the two-level
mixture thresholds.

One scan (_limit_records) computes every limit of any number of models;
limit_temperatures is its one-model view.  All margins come from the
kernel criteria._margin_columns (one model per column), whose formulas
are those of the scalar checks (entanglement.exact_margins,
criteria.disorder_check, criteria.entropic_check) broadcast over the
columns.

No margin is negative past t_cut = (E_max - E_min)/ln 2.  There the
Gibbs weights (sum Z) obey w_max <= 2 w_min, so w_min/Z >= 1/7 and every
margin is >= 0.1:
  Z m12 = (big - vm hi) + small + vm lo >= 3 w_min - w_max >= w_min;
  Z m03 >= 2 a1 a2 - |w3 - w0| >= 2 w_min - (w_max - w_min) >= w_min;
  disorder >= 1/2 - p_max >= 1/2 - 2/5 = 0.1;
  entropic >= -log2 p_max - 1 >= log2(5/2) - 1 > 0.32 bits.
So a model's scan ends at t_end = min(t_max, t_cut).

The exact and disorder rows need no grid.  In beta = 1/T, with
w_j = exp(-beta (E_j - E_min)), three margins have the signs of sums of
at most six exponentials:
  Z m12 = w0 + w3 + vm (w1 - w2);
  m03 discriminant = vm^2 (w2 - w1)^2 + 4 w1 w2 - (w3 - w0)^2;
  2 Z disorder = Z + b (w2 - w1) - 2 w_ground,
with vm, b = v_minus/Delta, b/Delta, whose zeros expsums.sum_zeros
isolates (Laguerre's rule of signs and Rolle steps, bounded by
_sign_change_bounds).  The zeros only place the kernel's samples: it runs
at T = 0, around each zero and at t_end, and each sign change between
neighbouring samples is a bracket.  A margin exactly 0 at T = 0 takes
the sign of its sum's leading coefficient, its sign just above T = 0.

The entropic margin has no such bound, but entropic detection implies
disorder detection (the spectrum of rho is majorized by that of rho_A
wherever the disorder margin is >= 0, and entropy is Schur-concave).  So
it is sampled at T = i t_max/grid_n from T = 0 up to the first sample
above the disorder row's top bracket, past which it is >= 0; grid_n sets
this sampling and nothing else.  The record keeps only the top edges of
the disorder and entropic rows, so of those rows only the top bracket is
refined, and of the exact rows every bracket, all in one vectorised
bisection that reports each edge at the end of its final bracket where
its margin is >= 0.

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

from . import expsums
from .criteria import _margin_columns
from .errors import DegenerateBasis, OutOfRange
from .model import EigenSystem, XYZParams, eigensystem
from .states import thermal_probabilities  # noqa: F401  (kept bound for tracing)

__all__ = [
    "LimitTemperatures",
    "MixtureThresholds",
    "ReentryWindow",
    "ClosedFormLimits",
    "limit_temperatures",
    "reentry_two_level",
    "mixture_thresholds",
    "closed_form_limits",
]

DEFAULT_GRID = 4096
DEFAULT_REL_TOL = 1e-10
_CRITERIA = ("exact", "disorder", "entropic")
_EPS = float(np.finfo(float).eps)


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
# scanning machinery
# ---------------------------------------------------------------------------


def _default_t_max(p: XYZParams) -> float:
    # the all-zero model is separable at every T, so any positive t_max will do
    return 20.0 * (p.energy_scale or 1.0)


def _scan_range(p: XYZParams, t_max: float | None, grid_n: int) -> float:
    """The checked top t_max of a model's scan.  No check that the state is
    separable there is needed: every margin is >= 0.1 past t_cut (module
    docstring), and t_cut < 4.33 energy_scale, as every level gap is at
    most 3 energy_scale (2 v_plus, 2 Delta, or |vz| + v_plus + Delta)."""
    if grid_n < 64:
        raise OutOfRange(f"grid_n must be >= 64, got {grid_n}")
    if t_max is None:
        return _default_t_max(p)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise OutOfRange(f"t_max must be finite and positive, got {t_max!r}")
    return float(t_max)


#: The kernel brackets each zero z of a sum by the points t_cut r^-k of a
#: geometric grid, r = 1 + _STRADDLE, one step clear of z on each side (or
#: by the midpoint to a neighbouring zero closer than that): so a bracket
#: does not hang on the last bits of z, and scales with the model.
_STRADDLE = 2.0**-20
#: Entropic samples one batch takes, and the most columns one kernel call
#: evaluates; together they bound the scan's memory.
_BATCH = 1 << 15
_CHUNK = 1 << 11

# Row r of _sign_change_bounds is the sum over j of (N + M rho) w_I w_J, with
# w_4 = 1 and the Gibbs weights w_i = exp(-beta g_i), g_i = E_i - E_min:
#   Z m12 = w0 + vm w1 - vm w2 + w3                       (rho = vm)
#   m03 discriminant = vm^2 w2^2 + (4 - 2 vm^2) w1 w2 + vm^2 w1^2
#                      - w3^2 + 2 w0 w3 - w0^2           (rho = vm^2)
#   2 Z disorder = w0 + (1 - b) w1 + (1 + b) w2 + w3 - 2 w_ground  (rho = b)
# with vm, b = v_minus/Delta, b/Delta.  Terms 5-6 of m12 and disorder are 0.
_I = np.array([[0, 1, 2, 3, 0, 0], [2, 1, 1, 3, 0, 0], [0, 1, 2, 3, 0, 0]])
_J = np.array([[4, 4, 4, 4, 4, 4], [2, 2, 1, 3, 3, 0], [4, 4, 4, 4, 4, 4]])
_N = np.array([[1, 0, 0, 1, 0, 0], [0, 4, 0, -1, 2, -1], [1, 1, 1, 1, 0, 0]])
_M = np.array([[0, 1, -1, 0, 0, 0], [1, -2, 1, 0, 0, 0], [0, -1, 1, 0, 0, 0]])


def _sign_change_bounds(gaps, vm_ratio, b_ratio):
    """Laguerre's bound (3, K) on the sign changes in T > 0 of the rows m12,
    m03 and disorder of each model, a column of level gaps, with each row's
    exponents lam (3, K, 6), increasing, and coefficients (3, K, 6), those
    of equal exponents summed into the last of them and the others 0.  Each
    of these and each partial sum is N + M rho with integers N, M, one
    rounding, so the bound counts exact signs; a disorder sum
    N (1 - |b|) (N = -M sign b) is formed as N c, c = vm^2/(1 + |b|), as
    1 - |b| rounds to 0 or to a multiple of 2^-53 where b/Delta is near 1.
    """
    k = gaps.shape[1]
    g = np.concatenate([gaps, np.zeros((1, k))])
    n = np.repeat(_N[:, :, None], k, axis=2)
    n[2, np.argmin(gaps, axis=0), np.arange(k)] -= 2
    m = np.broadcast_to(_M[:, :, None], n.shape)
    # vm^2 stands beside a nonzero integer in every partial sum but the
    # first, where a floor keeps the sign of a square that underflows
    vm2 = np.where(vm_ratio > 0.0, np.maximum(vm_ratio**2, np.finfo(float).tiny), 0.0)
    rho = np.stack([vm_ratio, vm2, b_ratio])[:, :, None]
    c = (vm2 / (1.0 + np.abs(b_ratio)))[:, None]
    lam = g[_I] + g[_J]
    order = np.argsort(lam, axis=1, kind="stable")
    lam, n, m = (np.take_along_axis(x, order, axis=1).transpose(0, 2, 1) for x in (lam, n, m))

    def sums(n, m):
        s = n + m * rho
        s[2] = np.where((n[2] != 0) & (n[2] == -m[2] * np.sign(b_ratio)[:, None]), n[2] * c, s[2])
        return s

    n, m = np.cumsum(n, axis=-1), np.cumsum(m, axis=-1)
    ends = np.append(lam[..., :-1] != lam[..., 1:], np.ones(lam.shape[:-1] + (1,), bool), axis=-1)
    # the partial sums up to the end of the previous run of equal exponents
    before = np.maximum.accumulate(np.where(ends, np.arange(6), -1), axis=-1)[..., :-1] + 1
    n0, m0 = (np.take_along_axis(np.append(np.zeros_like(x[..., :1]), x, axis=-1), before, axis=-1) for x in (n, m))
    runs = np.append(sums(n[..., :1], m[..., :1]), sums(n[..., 1:] - n0, m[..., 1:] - m0), axis=-1)
    return expsums.sign_changes(np.where(ends, sums(n, m), 0.0)), lam, np.where(ends, runs, 0.0)


def _signs(gaps, vm_ratio, b_ratio, model, ts) -> np.ndarray:
    """The signs (4, N) of the kernel's margins of model[k] at ts[k], as
    int8, from at most _CHUNK columns per kernel call."""
    out = np.empty((4, ts.size), np.int8)
    for lo in range(0, ts.size, _CHUNK):
        m = model[lo : lo + _CHUNK]
        table = _margin_columns(gaps[:, m], vm_ratio[m], b_ratio[m], ts[lo : lo + _CHUNK])
        out[:, lo : lo + _CHUNK] = (table > 0.0).view(np.int8) - (table < 0.0).view(np.int8)
    return out


def _root_brackets(gaps, vm_ratio, b_ratio, t_max):
    """The kernel's signs of the rows m12, m03 and disorder of each model,
    a column of level gaps, up to t_end = min(t_max, t_cut) (K,): the
    negative flags (3, K) at T = 0 and at t_end, and the row, sign below,
    bracket and model of every sign change, model by model and in T order
    (module docstring)."""
    k, t_cut = t_max.size, gaps.max(axis=0) / math.log(2.0)
    t_end = np.minimum(t_max, t_cut)
    bound, lam, coef = _sign_change_bounds(gaps, vm_ratio, b_ratio)
    zeros = expsums.sum_zeros(lam.reshape(-1, 6), coef.reshape(-1, 6), bound.ravel(), np.tile(t_end, 3))
    step, t_cut = math.log1p(_STRADDLE), np.tile(t_cut, 3)[:, None]
    i = np.floor(np.log(t_cut / zeros) / step)
    lower, upper = t_cut * np.exp(-(i + 2.0) * step), t_cut * np.exp(-(i - 1.0) * step)
    mid = 0.5 * (zeros[:, 1:] + zeros[:, :-1])  # for zeros closer than three grid steps
    upper[:, :-1], lower[:, 1:] = np.fmin(upper[:, :-1], mid), np.fmax(lower[:, 1:], mid)
    pts = np.concatenate([lower, upper]).reshape(6, k, 6).transpose(1, 0, 2).reshape(k, 36)
    pts = np.where(pts < t_end[:, None], pts, np.nan)
    pts = np.sort(np.concatenate([np.zeros((k, 1)), pts, t_end[:, None]], axis=1), axis=1, kind="stable")
    count = (~np.isnan(pts)).sum(axis=1)
    ts, model = pts[~np.isnan(pts)], np.repeat(np.arange(k), count)
    first, last = np.cumsum(count) - count, np.cumsum(count) - 1
    sign = _signs(gaps, vm_ratio, b_ratio, model, ts)[:3]
    neg = sign < 0.0
    # a margin exactly 0 at T = 0 takes the sign of its sum's leading coefficient
    lead = np.take_along_axis(coef, np.argmax(coef != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    neg[:, first] = np.where(sign[:, first] == 0.0, lead < 0.0, neg[:, first])
    idx, rows = np.nonzero(((neg[:, 1:] != neg[:, :-1]) & (model[1:] == model[:-1])).T)
    return neg[:, first], neg[:, last], rows, neg[rows, idx], ts[idx], ts[idx + 1], model[idx]


def _entropic_brackets(gaps, vm_ratio, b_ratio, t_max, grid_n, upper):
    """The kernel's signs of the entropic row of each model at T = i step,
    step = t_max/grid_n, from T = 0 up to the first sample above upper (K,)
    (none where upper is 0): the negative flags (K,) of the first and last
    sample, and the sign below, bracket and model of each model's top sign
    change, its top end cut to upper, where the disorder margin and so the
    entropic one are >= 0.  A margin exactly 0 at T = 0 takes the sign of
    the next sample."""
    step = t_max / grid_n
    i = np.floor(upper / step) - 1.0
    for _ in range(3):  # to the first sample above upper; the quotient may round either way
        i += i * step <= upper
    n = np.where(upper > 0.0, np.minimum(i, grid_n) + 1, 0).astype(int)
    first, last = np.zeros(n.size, bool), np.zeros(n.size, bool)
    tops, ends, a = [], np.cumsum(n), 0
    while a < n.size:  # models in batches of at most _BATCH samples, or one
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - n[a] + _BATCH, side="right")))
        model = np.repeat(np.arange(a, b), n[a:b])
        start = np.cumsum(n[a:b]) - n[a:b]
        i = np.arange(model.size) - np.repeat(start, n[a:b])
        ts = np.where(i == grid_n, t_max[model], i * step[model])
        sign = _signs(gaps, vm_ratio, b_ratio, model, ts)[3]
        neg = sign < 0.0
        start, stop = start[n[a:b] > 0], (start + n[a:b] - 1)[n[a:b] > 0]
        neg[start] = np.where(sign[start] == 0.0, neg[start + 1], neg[start])
        first[model[start]], last[model[stop]] = neg[start], neg[stop]
        idx = np.flatnonzero((neg[1:] != neg[:-1]) & (model[1:] == model[:-1]))
        idx = idx[model[idx] != np.append(model[idx][1:], -1)]  # each model's top one
        tops.append((neg[idx], ts[idx], np.minimum(ts[idx + 1], upper[model[idx]]), model[idx]))
        a = b
    return first, last, *(np.concatenate(x) for x in zip(*tops))


def _limit_records(ps, t_max=None, grid_n=DEFAULT_GRID, rel_tol=DEFAULT_REL_TOL) -> list[LimitTemperatures]:
    """The LimitTemperatures of every model in ps (see limit_temperatures).

    _root_brackets brackets every sign change of the exact and disorder
    rows below t_end = min(t_max, t_cut), of which the disorder row keeps
    its top one; _entropic_brackets brackets the entropic row's top one
    below the disorder row's top bracket, or below t_max where the disorder
    row detects there (module docstring).  One bisection refines every
    bracket in its own model's column; each stops once hi - lo <= rel_tol
    * hi (checked before each step), as it would alone, or once lo, hi are
    adjacent floats, within 2,098 halvings of any bracket, and reports the
    end where its margin is >= 0.
    """
    if not 0.0 < rel_tol < 1.0:
        raise OutOfRange(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    t_max = np.array([_scan_range(p, t_max, grid_n) for p in ps])
    eigs = [eigensystem(p) for p in ps]
    gaps = np.stack([e.gaps for e in eigs], axis=1)
    vm_ratio = np.array([e.vm_ratio for e in eigs])
    b_ratio = np.array([e.b_ratio for e in eigs])
    first, last, rows, leaving, lo, hi, model = _root_brackets(gaps, vm_ratio, b_ratio, t_max)
    dis = np.flatnonzero(rows == 2)
    top = dis[model[dis] != np.append(model[dis][1:], -1)]
    keep = rows < 2
    keep[top] = True
    upper = np.zeros(len(ps))
    upper[model[top]] = hi[top]
    upper[last[2]] = t_max[last[2]]
    ent_first, ent_last, *ent = _entropic_brackets(gaps, vm_ratio, b_ratio, t_max, grid_n, upper)
    order = np.argsort(np.append(model[keep], ent[-1]), kind="stable")
    rows = np.append(rows[keep], np.full(ent[-1].size, 3))[order]
    leaving, lo, hi, model = (np.append(x[keep], y)[order] for x, y in zip((leaving, lo, hi, model), ent))
    for _ in range(2200):
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero(~(hi - lo <= rel_tol * hi) & (lo < mid) & (mid < hi))
        if live.size == 0:
            break
        mid = mid[live]
        sign = _signs(gaps, vm_ratio, b_ratio, model[live], mid)
        to_lo = (sign[rows[live], np.arange(live.size)] < 0.0) == leaving[live]
        lo[live[to_lo]] = mid[to_lo]
        hi[live[~to_lo]] = mid[~to_lo]
    ends = np.searchsorted(model, np.arange(len(ps) + 1)).tolist()
    rows, t_cross, leaving = rows.tolist(), np.where(leaving, hi, lo).tolist(), leaving.tolist()
    first, last = np.vstack([first, ent_first]).T.tolist(), np.vstack([last, ent_last]).T.tolist()
    return [
        _record(rows[a:b], t_cross[a:b], leaving[a:b], f, l, t, _two_level(p, eig), rel_tol)
        for a, b, f, l, t, p, eig in zip(ends[:-1], ends[1:], first, last, t_max.tolist(), ps, eigs)
    ]


def _record(rows, t_cross, leaving, first, last, t_max, t_r, rel_tol) -> LimitTemperatures:
    """One model's record from its refined sign changes (lists, in T order).

    An exact row's sign changes alternate, so with 0 in front of a negative
    first sample and t_max (censored) behind a negative last one they pair
    up into the maximal intervals where the margin is negative.  The
    disorder and entropic rows bring only their top sign change, and their
    limit is its edge, t_max when the last sample is negative, or None when
    the row never detects; the row's sign above that edge (its first sign,
    without one) must be its sign at the last sample.  Entropic detection
    implies disorder detection, so an entropic limit above the disorder one
    is refinement noise of coinciding limits, and is moved onto it, if it
    lies within 2 max(rel_tol, 8 eps) of it.  A row that breaks any of these
    rules is a fault of the scan, and raises RuntimeError rather than
    report a wrong limit.  The exact margins' violation sets are merged;
    they are disjoint (m12 < 0 needs vm (hi - lo) > big, m03 < 0 needs
    |w3 - w0| > vm (hi - lo), with hi, lo = max, min(w1, w2) and
    big = max(w0, w3) >= |w3 - w0|), so only refinement noise overlaps them.
    """
    edges = [[0.0] * first[r] + [t for t, q in zip(t_cross, rows) if q == r] + [t_max] * last[r] for r in range(2)]
    if any(len(e) % 2 for e in edges):
        raise RuntimeError(f"limit scan: unpaired sign changes, {[len(e) for e in edges]} edges per exact margin")
    tops = []
    for r in (2, 3):
        top = next((k for k, q in enumerate(rows) if q == r), None)
        if (first[r] if top is None else not leaving[top]) != last[r]:
            raise RuntimeError(f"limit scan: the top edge of margin {r} disagrees with its sign at the top")
        tops.append(t_max if last[r] else None if top is None else t_cross[top])
    if (tops[0] is None and tops[1] is not None) or (last[3] and not last[2]):
        raise RuntimeError("limit scan: the entropic margin detects where the disorder margin does not")
    if tops[1] is not None and tops[1] > tops[0]:
        if tops[1] - tops[0] > 2.0 * max(rel_tol, 8.0 * _EPS) * tops[0]:
            raise RuntimeError(f"limit scan: the entropic limit {tops[1]!r} lies above the disorder limit {tops[0]!r}")
        tops[1] = tops[0]
    m12, m03 = (list(zip(e[::2], e[1::2])) for e in edges)
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
        t_disorder=tops[0],
        t_entropic=tops[1],
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
    positive (v_minus > 0 and b > 0) and the quotient finite; else None.
    """
    return _two_level(p, eigensystem(p))


def _two_level(p: XYZParams, eig: EigenSystem) -> float | None:
    vm = p.v_minus
    if vm <= 0.0 or eig.delta <= vm * (1.0 + 1e-15):
        return None
    if eig.gaps[3] <= 0.0:
        return None
    ratio = eig.delta / vm
    # a tiny v_minus beside b overflows the ratio, not its logarithm
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(eig.delta) - math.log(vm)
    # near MAX_ENERGY_SCALE with Delta close to v_minus the quotient overflows (to inf, silently in floats)
    t_r = float(eig.gaps[3]) / log_ratio
    return t_r if math.isfinite(t_r) else None


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
