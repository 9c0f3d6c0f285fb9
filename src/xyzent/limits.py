"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals and the
vanishing-plus-reentry window.  The reference closed forms of the special
coupling cases and the two-level mixture thresholds, which no command
prints, are oracles in linalg.

One scan (_limit_records) computes every limit of any number of models,
from one model._eigen_columns pass over their couplings;
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
it is sampled at T = i t_max/grid_n from the first sample above the
disorder row's top bracket, past which it is >= 0, downward, and only
until its first sign change seen from the top (in chunks per model; down
to T = 0 where there is none); grid_n sets this sampling and nothing
else.  The record keeps only the top edges of the disorder and entropic
rows, so of those rows only the top bracket is refined, and of the exact
rows every bracket, all in one vectorised bisection that reports each
edge at the end of its final bracket where its margin is >= 0.

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
from .errors import OutOfRange
from .model import XYZParams, _eigen_columns, eigensystem
from .states import thermal_probabilities  # noqa: F401  (kept bound for tracing)

__all__ = ["LimitTemperatures", "ReentryWindow", "limit_temperatures", "reentry_two_level"]

DEFAULT_GRID = 4096
#: The largest grid_n: the entropic sampling is linear in it.
MAX_GRID = 256 * DEFAULT_GRID
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
class ReentryWindow:
    """Separable gap inside the entangled temperature range.

    lower/upper are the scanned endpoints; two_level is the closed-form
    gap location (E_3 - E_2) / ln(Delta / v_minus) of the truncated
    two-level mixture, or None where that expression is undefined.
    """

    lower: float
    upper: float
    two_level: float | None


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------


def _default_t_max(p: XYZParams) -> float:
    # the all-zero model is separable at every T, so any positive t_max will do
    return 20.0 * (p.energy_scale or 1.0)


def _scan_ranges(ps, t_max: float | None, grid_n: int) -> np.ndarray:
    """The top t_max of each model's scan, with the settings checked once.
    No check that the state is separable there is needed: every margin is
    >= 0.1 past t_cut (module docstring), and t_cut < 4.33 energy_scale, as
    every level gap is at most 3 energy_scale (2 v_plus, 2 Delta, or
    |vz| + v_plus + Delta)."""
    if grid_n < 64:
        raise OutOfRange(f"grid_n must be >= 64, got {grid_n}")
    if grid_n > MAX_GRID:
        raise OutOfRange(f"grid_n must be <= {MAX_GRID} (2**20), got {grid_n}")
    if t_max is None:
        return np.array([_default_t_max(p) for p in ps], dtype=float)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise OutOfRange(f"t_max must be finite and positive, got {t_max!r}")
    return np.full(len(ps), float(t_max))


#: The kernel brackets each zero z of a sum by the points t_cut r^-k of a
#: geometric grid, r = 1 + _STRADDLE, one step clear of z on each side (or
#: by the midpoint to a neighbouring zero closer than that): so a bracket
#: does not hang on the last bits of z, and scales with the model.
_STRADDLE = 2.0**-20
#: The entropic pass samples each model from the top down in chunks, the
#: first _FIRST_CHUNK samples and each next _GROWTH times more.
_FIRST_CHUNK, _GROWTH = 64, 4
#: The most entropic samples one pass of the kernel takes (and the largest
#: chunk), and the most columns one kernel call evaluates; together they
#: bound the scan's memory.
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
    step = t_max/grid_n, from the first sample above upper (K,) downward
    (none where upper is 0), each model until its first sign change seen
    from the top: the negative flags (K,) of the bottom and the top sample,
    and the sign below, bracket and model of each model's top sign change,
    its top end cut to upper, where the disorder margin and so the entropic
    one are >= 0.  Each model is sampled in chunks, the first _FIRST_CHUNK
    samples and each next _GROWTH times more (at most _BATCH), so it stops
    at most one chunk below its top sign change; its bottom flag is then
    the sign below that change.  A model without one is sampled down to
    T = 0, where a margin exactly 0 takes the sign of the next sample."""
    step = t_max / grid_n
    i = np.floor(upper / step) - 1.0
    for _ in range(3):  # to the first sample above upper; the quotient may round either way
        i += i * step <= upper
    top = np.where(upper > 0.0, np.minimum(i, grid_n), -1.0).astype(int)  # each model's next sample down
    first, last, above = np.zeros(top.size, bool), np.zeros(top.size, bool), None
    tops = [(np.zeros(0, bool), np.zeros(0), np.zeros(0), np.zeros(0, int))]
    live, size = np.flatnonzero(top >= 0), min(_FIRST_CHUNK, _BATCH)
    while live.size:
        for ks in np.split(live, range(_BATCH // size, live.size, _BATCH // size)):  # at most _BATCH samples
            n = np.minimum(size, top[ks] + 1)
            model, start = np.repeat(ks, n), np.cumsum(n) - n
            i = np.repeat(top[ks], n) - (np.arange(model.size) - np.repeat(start, n))
            ts = np.where(i == grid_n, t_max[model], i * step[model])
            sign = _signs(gaps, vm_ratio, b_ratio, model, ts)[3]
            neg = sign < 0.0
            # the sign of the sample above each one; a model's top sample has none
            up = np.append(False, neg[:-1])
            up[start] = neg[start] if above is None else above[ks]
            zero = (i == 0) & (sign == 0)
            neg[zero] = up[zero]
            if above is None:
                last[ks] = neg[start]
            idx = np.flatnonzero(neg != up)
            idx = idx[model[idx] != np.append(-1, model[idx][:-1])]  # each model's top one
            m = model[idx]
            hi = np.where(i[idx] + 1 == grid_n, t_max[m], (i[idx] + 1) * step[m])
            tops.append((neg[idx], ts[idx], np.minimum(hi, upper[m]), m))
            bottom = start + n - 1
            # first holds each model's bottom sign so far
            first[ks], top[ks] = neg[bottom], top[ks] - n
            first[m], top[m] = neg[idx], -1
        above = first.copy()
        live, size = live[top[live] >= 0], min(size * _GROWTH, _BATCH)
    leaving, lo, hi, model = (np.concatenate(x) for x in zip(*tops))
    order = np.argsort(model, kind="stable")
    return first, last, leaving[order], lo[order], hi[order], model[order]


def _limit_records(
    ps, t_max=None, grid_n=DEFAULT_GRID, rel_tol=DEFAULT_REL_TOL, columns=None
) -> list[LimitTemperatures]:
    """The LimitTemperatures of every model in ps (see limit_temperatures).

    The models' level gaps and ratios come from one model._eigen_columns
    pass, or are its result for ps, given as columns.  _root_brackets
    brackets every sign change of the exact and disorder rows below
    t_end = min(t_max, t_cut), of which the disorder row keeps its top one;
    _entropic_brackets brackets the entropic row's top one, scanned down
    from the disorder row's top bracket, or from t_max where the disorder
    row detects there (module docstring).  One bisection refines every
    bracket in its own model's column; each stops once hi - lo <= rel_tol
    * hi (checked before each step), as it would alone, or once lo, hi are
    adjacent floats, within 2,098 halvings of any bracket, and reports the
    end where its margin is >= 0.
    """
    if not 0.0 < rel_tol < 1.0:
        raise OutOfRange(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    t_max = _scan_ranges(ps, t_max, grid_n)
    gaps, vm_ratio, b_ratio, delta = _eigen_columns(ps) if columns is None else columns
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
    t_r = [_two_level(p, d, u) for p, d, u in zip(ps, delta.tolist(), gaps[3].tolist())]
    return [
        _record(rows[a:b], t_cross[a:b], leaving[a:b], f, l, t, r, rel_tol)
        for a, b, f, l, t, r in zip(ends[:-1], ends[1:], first, last, t_max.tolist(), t_r)
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

    Raises OutOfRange for a grid_n outside [64, MAX_GRID], a t_max that is
    not finite and positive, or a rel_tol outside (0, 1).
    """
    return _limit_records([p], t_max, grid_n, rel_tol)[0]


def reentry_two_level(p: XYZParams) -> float | None:
    """Closed-form gap temperature (E_3 - E_2) / ln(Delta / v_minus).

    Defined only when level 2 lies below level 3 and the logarithm is
    positive (v_minus > 0 and b > 0) and the quotient finite; else None.
    """
    eig = eigensystem(p)
    return _two_level(p, eig.delta, float(eig.gaps[3]))


def _two_level(p: XYZParams, delta: float, gap: float) -> float | None:
    """reentry_two_level from Delta and the gap E_3 - E_min (floats)."""
    vm = p.v_minus
    if vm <= 0.0 or delta <= vm * (1.0 + 1e-15):
        return None
    if gap <= 0.0:
        return None
    ratio = delta / vm
    # a tiny v_minus beside b overflows the ratio, not its logarithm
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(delta) - math.log(vm)
    # near MAX_ENERGY_SCALE with Delta close to v_minus the quotient overflows (to inf, silently in floats)
    t_r = gap / log_ratio
    return t_r if math.isfinite(t_r) else None
