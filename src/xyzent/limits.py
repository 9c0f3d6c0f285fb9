"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals and the
vanishing-plus-reentry window.  The reference closed forms of the special
coupling cases and the two-level mixture thresholds, which no command
prints, are oracles in linalg.

One scan (_limit_records) computes every limit of any number of models,
from one model._eigen_columns pass over their couplings;
limit_temperatures is its one-model view.  All margins come from the
kernel states._margin_columns (one model per column), whose row
functions the scalar checks (entanglement.exact_margins,
criteria.disorder_check, criteria.entropic_check) call on one mixture.

No margin is negative past t_cut = (E_max - E_min)/ln 2.  There the
Gibbs weights (sum Z) obey w_max <= 2 w_min, so w_min/Z >= 1/7 and every
margin is >= 0.1:
  Z m12 = (big - vm hi) + small + vm lo >= 3 w_min - w_max >= w_min;
  Z m03 >= 2 a1 a2 - |w3 - w0| >= 2 w_min - (w_max - w_min) >= w_min;
  disorder >= 1/2 - p_max >= 1/2 - 2/5 = 0.1;
  entropic >= -log2 p_max - 1 >= log2(5/2) - 1 > 0.32 bits.
So each model's scan ends at its own t_cut, below 4.33 energy_scale as
every level gap is at most 3 energy_scale (2 v_plus, 2 Delta, or
|vz| + v_plus + Delta), and a margin negative there is a fault of the
scan, which raises RuntimeError.

The exact and disorder rows need no grid.  In beta = 1/T, with
w_j = exp(-beta (E_j - E_min)), three margins have the signs of sums of
at most six exponentials:
  Z m12 = w0 + w3 + vm (w1 - w2);
  m03 discriminant = vm^2 (w2 - w1)^2 + 4 w1 w2 - (w3 - w0)^2;
  2 Z disorder = Z + b (w2 - w1) - 2 w_ground,
with vm, b = v_minus/Delta, b/Delta, whose zeros expsums.sum_zeros
isolates (Laguerre's rule of signs and Rolle steps, bounded by
_sign_change_bounds).  The zeros only place the kernel's samples: it runs
at T = 0, around each zero and at t_cut, and each sign change between
neighbouring samples is a bracket.  A margin exactly 0 at T = 0 takes
the sign of its sum's leading coefficient, its sign just above T = 0.

The entropic margin has no such bound, but entropic detection implies
disorder detection (the spectrum of rho is majorized by that of rho_A
wherever the disorder margin is >= 0, and entropy is Schur-concave).  So
it is >= 0 above U, the end of the disorder row's top bracket, and on
[0, U] interval branch and bound certifies it (_entropic_brackets): a
piece is dropped where it lies below the highest negative sample or
states._entropic_margin_bound proves it positive, and split and
sampled otherwise, down to pieces of the floor U/4096.  The record
keeps only the top edges of the disorder and entropic rows, so of those
rows only the top bracket is refined, and of the exact rows every
bracket, all in one vectorised Illinois iteration down to adjacent
floats that reports each edge at the end of its final bracket where its
margin is >= 0.

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
from .model import XYZParams, _eigen_columns, eigensystem
from .states import _NEAR_ZERO, _entropic_margin_bound, _margin_columns
from .states import thermal_probabilities  # noqa: F401  (kept bound for tracing)

__all__ = ["LimitTemperatures", "ReentryWindow", "limit_temperatures", "reentry_two_level"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LimitTemperatures:
    """Summary of all detection limits for one parameter set.

    t_exact is 0.0 when the thermal state is separable at every
    temperature; t_disorder / t_entropic are None when the criterion
    never fires.
    """

    t_exact: float
    t_disorder: float | None
    t_entropic: float | None
    intervals: tuple[tuple[float, float], ...]
    reentry: "ReentryWindow | None"


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


#: The kernel brackets each zero z of a sum by the points t_cut r^-k of a
#: geometric grid, r = 1 + _STRADDLE, one step clear of z on each side (or
#: by the midpoint to a neighbouring zero closer than that): so a bracket
#: does not hang on the last bits of z, and scales with the model.
_STRADDLE = 2.0**-20
#: The entropic pass splits each live piece into _SPLIT in each of _ROUNDS
#: rounds, down to the floor U/4096 (U the top of its range).
_SPLIT, _ROUNDS = 8, 4
#: The most columns one call of the kernel or the bound evaluates.
_CHUNK = 1 << 11
#: The refinement's steps at most: its midpoint rule halves each bracket's
#: width in floats (below 2^63, as T >= +0.0) at least every third step, and
#: 63 halvings reach adjacent floats: 3 * 63.
_MAX_STEPS = 189

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


def _chunked(f, columns, model, *ts):
    """f of the columns (indexed on their last axis) of model[k] and of
    ts[.][k], at most _CHUNK columns per call: yields each call's result."""
    for lo in range(0, model.size, _CHUNK):
        m = model[lo : lo + _CHUNK]
        yield f(*(c[..., m] for c in columns), *(t[lo : lo + _CHUNK] for t in ts))


def _values(gaps, vm_ratio, b_ratio, model, ts) -> np.ndarray:
    """The kernel's margins (4, N) of model[k] at ts[k], from at most
    _CHUNK columns per kernel call."""
    return np.hstack([np.empty((4, 0)), *_chunked(_margin_columns, (gaps, vm_ratio, b_ratio), model, ts)])


def _root_brackets(gaps, vm_ratio, b_ratio):
    """The kernel's signs of the rows m12, m03 and disorder of each model,
    a column of level gaps, up to t_end = t_cut (K,): the negative flags
    (3, K) at T = 0 and at t_end, and the row, sign below, bracket and
    model of every sign change, model by model and in T order (module
    docstring)."""
    k, t_end = gaps.shape[1], gaps.max(axis=0) / math.log(2.0)
    bound, lam, coef = _sign_change_bounds(gaps, vm_ratio, b_ratio)
    zeros = expsums.sum_zeros(lam.reshape(-1, 6), coef.reshape(-1, 6), bound.ravel(), np.tile(t_end, 3))
    step, t_cut = math.log1p(_STRADDLE), np.tile(t_end, 3)[:, None]
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
    value = _values(gaps, vm_ratio, b_ratio, model, ts)[:3]
    neg = value < 0.0
    # a margin exactly 0 at T = 0 takes the sign of its sum's leading coefficient
    lead = np.take_along_axis(coef, np.argmax(coef != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    neg[:, first] = np.where(value[:, first] == 0.0, lead < 0.0, neg[:, first])
    idx, rows = np.nonzero(((neg[:, 1:] != neg[:, :-1]) & (model[1:] == model[:-1])).T)
    return neg[:, first], neg[:, last], rows, neg[rows, idx], ts[idx], ts[idx + 1], model[idx]


def _entropic_brackets(gaps, vm_ratio, b_ratio, upper):
    """The entropic row of each model, certified on [0, U], U = upper (K,)
    (none where upper is 0; module docstring), sampled at U i/N,
    N = _SPLIT**_ROUNDS: the negative flags (K,) below the top sign change
    (of every sample, without one) and at U, and the sign below, bracket
    and model of each top sign change, the floor piece from the highest
    negative sample (never bounded, as it is negative at its start).  A
    margin exactly 0 at T = 0 counts as >= 0, as the sign of the next
    sample up would be wherever it matters."""
    n, top = _SPLIT**_ROUNDS, np.full(upper.size, -1)  # each model's highest negative sample, as i

    def at(m, i):
        return upper[m] * (i / n)

    def sample(m, i):
        neg = _values(gaps, vm_ratio, b_ratio, m, at(m, i))[3] < 0.0
        np.maximum.at(top, m[neg], i[neg])

    live = np.flatnonzero(upper > 0.0)
    sample(np.repeat(live, 2), np.tile([0, n], live.size))
    model = live[top[live] < n]  # the live pieces, model by model and in T order
    start = np.zeros(model.size, int)
    for width in _SPLIT ** np.arange(_ROUNDS - 1, -1, -1):
        model, start = np.repeat(model, _SPLIT), (start[:, None] + width * np.arange(_SPLIT)).ravel()
        new = start % (width * _SPLIT) > 0  # the new samples, at the pieces' starts
        sample(model[new], start[new])
        keep = start >= top[model]
        if width > 1:
            b = np.flatnonzero(start > top[model])
            lo, hi = at(model[b], start[b]), at(model[b], start[b] + width)
            bound = np.concatenate([np.zeros(0), *_chunked(_entropic_margin_bound, (gaps, b_ratio), model[b], lo, hi)])
            keep[b[bound > _NEAR_ZERO]] = False
        model, start = model[keep], start[keep]
    k = np.flatnonzero((top >= 0) & (top < n))
    return top >= 0, top == n, np.ones(k.size, bool), at(k, top[k]), at(k, top[k] + 1), k


def _limit_records(ps, columns=None) -> list[LimitTemperatures]:
    """The LimitTemperatures of every model in ps (see limit_temperatures).

    The models' level gaps and ratios come from one model._eigen_columns
    pass, or are its result for ps, given as columns.  _root_brackets
    brackets every sign change of the exact and disorder rows below
    t_cut, of which the disorder row keeps its top one; _entropic_brackets
    brackets the entropic row's top one up to the end of the disorder
    row's top bracket (module docstring); a margin negative at the top of
    its range, which the module docstring rules out, raises RuntimeError.
    From the margins at their ends, one Illinois iteration refines every
    bracket in its own model's column (an end's margin halved when it is
    kept twice, Dowell and Jarratt 1971; the midpoint where the bracket did
    not halve over two steps, Brent 1973) until lo, hi are adjacent floats,
    in _MAX_STEPS steps (else RuntimeError), and reports the end where its
    margin is >= 0.  Widths and midpoints are in the floats' order: the bits
    of a float T >= +0.0, read as an integer, count the floats below it, so
    any bracket, one from 0 to 1e300 included, reaches adjacent floats in
    at most 63 halvings.
    """
    gaps, vm_ratio, b_ratio, delta = _eigen_columns(ps) if columns is None else columns
    first, last, rows, leaving, lo, hi, model = _root_brackets(gaps, vm_ratio, b_ratio)
    dis = np.flatnonzero(rows == 2)
    top = dis[model[dis] != np.append(model[dis][1:], -1)]
    keep = rows < 2
    keep[top] = True
    upper = np.zeros(len(ps))
    upper[model[top]] = hi[top]
    ent_first, ent_last, *ent = _entropic_brackets(gaps, vm_ratio, b_ratio, upper)
    if last.any() or ent_last.any():
        raise RuntimeError("limit scan: a margin is negative at the top of its range")
    order = np.argsort(np.append(model[keep], ent[-1]), kind="stable")
    rows = np.append(rows[keep], np.full(ent[-1].size, 3))[order]
    leaving, lo, hi, model = (np.append(x[keep], y)[order] for x, y in zip((leaving, lo, hi, model), ent))
    ends = _values(gaps, vm_ratio, b_ratio, np.tile(model, 2), np.append(lo, hi))
    f_lo, f_hi = ends[np.tile(rows, 2), np.arange(2 * lo.size)].reshape(2, -1)
    # the width in floats one and two steps back, and whether the last step moved lo (-1 before any)
    widest = np.iinfo(np.int64).max
    w1, w2, moved_lo = np.full(lo.size, widest), np.full(lo.size, widest), np.full(lo.size, -1)
    for step in range(_MAX_STEPS + 1):
        width = hi.view(np.int64) - lo.view(np.int64)
        live = np.flatnonzero(width > 1)
        if live.size == 0:
            break
        if step == _MAX_STEPS:
            raise RuntimeError(f"limit scan: {live.size} brackets are not adjacent floats after {_MAX_STEPS} steps")
        a, b, fa, fb, width = lo[live], hi[live], f_lo[live], f_hi[live], width[live]
        mid = (a.view(np.int64) + width // 2).view(float)
        s = 4.0 * np.spacing(b)
        x = np.clip(b - np.divide(fb, fb - fa, out=np.full(b.size, 0.5), where=fb != fa) * (b - a), a + s, b - s)
        x = np.where((a < x) & (x < b) & (width <= w2[live] // 2), x, mid)
        w2[live], w1[live] = w1[live], width
        value = _values(gaps, vm_ratio, b_ratio, model[live], x)[rows[live], np.arange(live.size)]
        to_lo = (value < 0.0) == leaving[live]
        stale = moved_lo[live] == to_lo  # the end kept now was kept the step before
        moved_lo[live] = to_lo
        lo[live[to_lo]], f_lo[live[to_lo]] = x[to_lo], value[to_lo]
        hi[live[~to_lo]], f_hi[live[~to_lo]] = x[~to_lo], value[~to_lo]
        f_lo[live[stale & ~to_lo]] *= 0.5
        f_hi[live[stale & to_lo]] *= 0.5
    ends = np.searchsorted(model, np.arange(len(ps) + 1)).tolist()
    rows, t_cross, leaving = rows.tolist(), np.where(leaving, hi, lo).tolist(), leaving.tolist()
    first = np.vstack([first, ent_first]).T.tolist()
    t_r = [_two_level(p, d, u) for p, d, u in zip(ps, delta.tolist(), gaps[3].tolist())]
    return [_record(rows[a:b], t_cross[a:b], leaving[a:b], f, r) for a, b, f, r in zip(ends[:-1], ends[1:], first, t_r)]


def _record(rows, t_cross, leaving, first, t_r) -> LimitTemperatures:
    """One model's record from its refined sign changes (lists, in T order).

    An exact row's sign changes alternate, so with 0 in front of a negative
    first sample they pair up into the maximal intervals where the margin
    is negative, as its last sample is not.  The disorder and entropic rows
    bring only their top sign change, and their limit is its edge, or None
    when the row never detects; the row's sign above that edge (its first
    sign, without one) must be that of its last sample, >= 0.  Entropic
    detection implies disorder detection, so an entropic limit above the
    disorder one is refinement noise of coinciding limits, and is moved onto
    it, if it lies within 16 eps of it.  A row that breaks any of these
    rules is a fault of the scan, and raises RuntimeError rather than report
    a wrong limit.  The exact margins' violation sets are merged; they are
    disjoint (m12 < 0 needs vm (hi - lo) > big, m03 < 0 needs
    |w3 - w0| > vm (hi - lo), with hi, lo = max, min(w1, w2) and
    big = max(w0, w3) >= |w3 - w0|), so only refinement noise overlaps them.
    """
    edges = [[0.0] * first[r] + [t for t, q in zip(t_cross, rows) if q == r] for r in range(2)]
    if any(len(e) % 2 for e in edges):
        raise RuntimeError(f"limit scan: unpaired sign changes, {[len(e) for e in edges]} edges per exact margin")
    tops = []
    for r in (2, 3):
        top = next((k for k, q in enumerate(rows) if q == r), None)
        if first[r] if top is None else not leaving[top]:
            raise RuntimeError(f"limit scan: the top edge of margin {r} disagrees with its sign at the top")
        tops.append(None if top is None else t_cross[top])
    if tops[0] is None and tops[1] is not None:
        raise RuntimeError("limit scan: the entropic margin detects where the disorder margin does not")
    if tops[1] is not None and tops[1] > tops[0]:
        if tops[1] - tops[0] > 16.0 * _EPS * tops[0]:
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
    )


def limit_temperatures(p: XYZParams) -> LimitTemperatures:
    """All detection limits in one record (see LimitTemperatures)."""
    return _limit_records([p])[0]


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
