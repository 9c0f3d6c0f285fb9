"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals and the
vanishing-plus-reentry window.  The reference closed forms of the special
coupling cases and the two-level mixture thresholds, which no command
prints, are oracles in linalg.

One scan (_limit_table) computes every limit of any number of models
as a float table, from one model._eigen_columns pass and array rules
over their refined edges; _limit_records and limit_temperatures build
records from its rows.  It raises RuntimeError on a fault: an entropic
margin negative at the top of its range, a bracket not at adjacent
floats after _MAX_STEPS steps, or an entropic limit over 16 eps above
the disorder one.  All margins come from the kernel states._margin_columns
(one model per column), whose row functions the scalar checks
(entanglement.exact_margins, criteria.disorder_check,
criteria.entropic_check) call on one mixture.

No margin is negative past t_cut = (E_max - E_min)/ln 2.  There the
Gibbs weights (sum Z) obey w_max <= 2 w_min, so w_min/Z >= 1/7 and every
margin is >= 0.1:
  Z m12 = (big - vm hi) + small + vm lo >= 3 w_min - w_max >= w_min;
  Z m03 >= 2 a1 a2 - |w3 - w0| >= 2 w_min - (w_max - w_min) >= w_min;
  disorder >= 1/2 - p_max >= 1/2 - 2/5 = 0.1;
  entropic >= -log2 p_max - 1 >= log2(5/2) - 1 > 0.32 bits.
So each model's scan ends at its own t_cut, below 4.33 energy_scale as
every level gap is at most 3 energy_scale (2 v_plus, 2 Delta, or
|vz| + v_plus + Delta), and no margin of its scan is negative there.

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
sampled otherwise, down to pieces of the floor U/4096.  The table keeps
only the top edges of the disorder and entropic rows, so of those only
the top bracket is refined, and of the exact rows every bracket, all in
one vectorised Illinois iteration from the samples at their ends (one
more kernel call at the entropic ones) down to adjacent floats that
reports each edge at its final bracket's end where its margin is >= 0.

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
        s[2] = np.where(n[2] == -m[2] * np.sign(b_ratio)[:, None], n[2] * c, s[2])
        return s

    n, m = np.cumsum(n, axis=-1), np.cumsum(m, axis=-1)
    ends = np.append(lam[..., :-1] != lam[..., 1:], np.ones(lam.shape[:-1] + (1,), bool), axis=-1)
    # the partial sums up to the end of the previous run of equal exponents
    before = np.maximum.accumulate(np.where(ends, np.arange(6), -1), axis=-1)[..., :-1] + 1
    n0, m0 = (np.take_along_axis(np.append(np.zeros_like(x[..., :1]), x, axis=-1), before, axis=-1) for x in (n, m))
    runs = np.append(sums(n[..., :1], m[..., :1]), sums(n[..., 1:] - n0, m[..., 1:] - m0), axis=-1)
    return expsums.sign_changes(np.where(ends, sums(n, m), 0.0)), lam, np.where(ends, runs, 0.0)


def _values(gaps, vm_ratio, b_ratio, model, ts) -> np.ndarray:
    """The kernel's margins (4, N) of model[k] at ts[k], from one kernel call."""
    return _margin_columns(gaps[:, model], vm_ratio[model], b_ratio[model], ts)


def _root_brackets(gaps, vm_ratio, b_ratio):
    """The kernel's signs of the rows m12, m03 and disorder of each model,
    a column of level gaps, up to t_end = t_cut (K,): the negative flags
    (3, K) at T = 0, and the row, sign below, bracket, margins at the
    bracket's ends and model of every sign change, model by model and in
    T order (module docstring)."""
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
    first = np.cumsum(count) - count
    value = _values(gaps, vm_ratio, b_ratio, model, ts)[:3]
    neg = value < 0.0
    # a margin exactly 0 at T = 0 takes the sign of its sum's leading coefficient (its value stays 0.0)
    lead = np.take_along_axis(coef, np.argmax(coef != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    neg[:, first] = np.where(value[:, first] == 0.0, lead < 0.0, neg[:, first])
    idx, rows = np.nonzero(((neg[:, 1:] != neg[:, :-1]) & (model[1:] == model[:-1])).T)
    return neg[:, first], rows, neg[rows, idx], ts[idx], ts[idx + 1], value[rows, idx], value[rows, idx + 1], model[idx]


def _entropic_brackets(gaps, vm_ratio, b_ratio, upper):
    """The entropic row of each model, certified on [0, U], U = upper (K,)
    (none where upper is 0; module docstring), sampled at U i/N,
    N = _SPLIT**_ROUNDS: the negative flags (K,) at U, and the bracket and
    model of each top sign change, the floor piece from the highest
    negative sample (never bounded, as it is negative at its start), which
    leaves the negative set.  A margin exactly 0 at T = 0 counts as >= 0,
    as the sign of the next sample up would be wherever it matters."""
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
            bound = _entropic_margin_bound(gaps[:, model[b]], b_ratio[model[b]], lo, hi)
            keep[b[bound > _NEAR_ZERO]] = False
        model, start = model[keep], start[keep]
    k = np.flatnonzero((top >= 0) & (top < n))
    return top == n, at(k, top[k]), at(k, top[k] + 1), k


def _limit_table(ps):
    """The limits of every model in ps from one scan: a table (K, 6) of
    t_exact, t_disorder, t_entropic and the reentry window's lower, upper
    and two_level (see LimitTemperatures), NaN where absent, and the merged
    exact intervals (n, 2) with the model (n,) owning each, in model order.

    _root_brackets brackets every sign change of the exact and disorder
    rows below t_cut, and _entropic_brackets the entropic row's top one
    below the disorder row's top bracket (module docstring).  From the
    margins at their ends (_root_brackets' samples, and one kernel call
    at the entropic ends), one Illinois iteration refines every exact
    bracket and each top one in its own model's column (an end's margin
    halved when it is kept twice, Dowell and Jarratt 1971; the midpoint
    where the bracket did not halve over two steps, Brent 1973) until
    lo, hi are adjacent floats, and reports the end where its margin is
    >= 0.  Widths and midpoints are in the floats' order (expsums._mid),
    so any bracket, one from 0 to 1e300 included, reaches adjacent
    floats in at most 63 halvings.

    RuntimeError is raised where the entropic margin is negative at the
    top of its range, a bracket is not at adjacent floats after _MAX_STEPS
    steps, or an entropic limit lies over 16 eps above the disorder one
    (entropic detection implies disorder detection, so a smaller excess is
    refinement noise, and the entropic limit is moved onto the disorder
    one).  Nothing else needs a check, as each sign change lies between
    neighbouring samples of one model in T order, and none at t_cut is
    negative.  So a row's sign changes number (first sample negative) mod
    2, and with 0.0 in front there an exact row's edges pair up into the
    maximal intervals where its margin is negative; the sign above a
    row's top sign change is its last sample's, so its top edge leaves
    the negative set; and _entropic_brackets samples only models with a
    disorder limit.  The exact margins' violation sets are disjoint
    (m12 < 0 needs vm (hi - lo) > big, m03 < 0 needs |w3 - w0| >
    vm (hi - lo), with hi, lo = max, min(w1, w2), big = max(w0, w3)), so
    in (model, lo, hi) order only refinement noise overlaps them: each
    but the first of its model (whose lo <= hi, its edges in T order)
    becomes lo' = max(lo, hi' before it), hi' = max(lo', hi).
    """
    gaps, vm_ratio, b_ratio, delta = _eigen_columns(ps)
    first, rows, leaving, lo, hi, f_lo, f_hi, model = _root_brackets(gaps, vm_ratio, b_ratio)
    dis = np.flatnonzero(rows == 2)
    top = dis[model[dis] != np.append(model[dis][1:], -1)]
    keep = rows < 2
    keep[top] = True
    upper = np.zeros(len(ps))
    upper[model[top]] = hi[top]
    ent_last, ent_lo, ent_hi, ent_model = _entropic_brackets(gaps, vm_ratio, b_ratio, upper)
    if ent_last.any():
        raise RuntimeError("limit scan: an entropic margin is negative at the top of its range")
    f_ent = _values(gaps, vm_ratio, b_ratio, np.tile(ent_model, 2), np.append(ent_lo, ent_hi))[3].reshape(2, -1)
    roots = rows, leaving, lo, hi, f_lo, f_hi, model
    ent = np.full(ent_model.size, 3), np.ones(ent_model.size, bool), ent_lo, ent_hi, *f_ent, ent_model
    rows, leaving, lo, hi, f_lo, f_hi, model = (np.append(x[keep], y) for x, y in zip(roots, ent))
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
        mid = expsums._mid(a, b)
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
    t_cross = np.where(leaving, hi, lo)
    table = np.full((len(ps), 6), [0.0] + 5 * [np.nan])  # t_exact is 0 without an interval
    table[model[rows >= 2], rows[rows >= 2] - 1] = t_cross[rows >= 2]  # the disorder and entropic limits
    far = np.flatnonzero(table[:, 2] - table[:, 1] > 16.0 * _EPS * table[:, 1])
    if far.size:
        t_dis, t_ent = table[far[0], 1:3].tolist()
        raise RuntimeError(f"limit scan: the entropic limit {t_ent!r} lies above the disorder limit {t_dis!r}")
    table[:, 2] = np.minimum(table[:, 2], table[:, 1])
    # each exact row's edges, model by model, after 0.0 where its first sample is negative
    r, z = np.nonzero(first[:2])
    key = np.append(2 * z + r, (2 * model + rows)[rows < 2])
    order = np.argsort(key, kind="stable")
    ints, owner = np.append(np.zeros(z.size), t_cross[rows < 2])[order].reshape(-1, 2), key[order][::2] // 2
    order = np.lexsort((ints[:, 1], ints[:, 0], owner))
    ints, owner = ints[order], owner[order]
    pos = np.arange(owner.size) - np.searchsorted(owner, owner)  # each interval's place in its model
    for j in range(1, pos.max(initial=0) + 1):  # refinement noise; keep the gap structure
        at = np.flatnonzero(pos == j)
        ints[at, 0] = np.maximum(ints[at, 0], ints[at - 1, 1])
        ints[at, 1] = np.maximum(ints[at, 0], ints[at, 1])
    np.maximum.at(table[:, 0], owner, ints[:, 1])  # the end of each model's last interval, its highest
    at = np.flatnonzero(pos == 1)
    m = owner[at]  # the models with a reentry window
    table[m, 3:5] = np.column_stack([ints[at - 1, 1], ints[at, 0]])
    table[m, 5] = [_two_level(ps[k], d, g) for k, d, g in zip(m.tolist(), delta[m].tolist(), gaps[3, m].tolist())]
    return table, ints, owner


def _limit_records(ps) -> list[LimitTemperatures]:
    """The LimitTemperatures of every model in ps (see limit_temperatures),
    the rows of _limit_table."""
    table, ints, owner = _limit_table(ps)
    ints, ends = list(map(tuple, ints.tolist())), np.searchsorted(owner, np.arange(len(ps) + 1)).tolist()
    rows = ([None if math.isnan(x) else x for x in row] for row in table.tolist())
    return [
        LimitTemperatures(t_e, t_d, t_s, tuple(ints[a:b]), ReentryWindow(lower, upper, t_r) if b - a >= 2 else None)
        for (t_e, t_d, t_s, lower, upper, t_r), a, b in zip(rows, ends[:-1], ends[1:])
    ]


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
