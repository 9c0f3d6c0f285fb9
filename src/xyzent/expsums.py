"""Real zeros of exponential sums f(T) = sum_j c_j exp(-lam_j/T), lam_j >= 0.

In beta = 1/T such a sum has no more positive zeros than the partial sums
of its coefficients, taken in increasing exponent, have sign changes
(Laguerre's rule of signs; Polya and Szego, Problems and Theorems in
Analysis II, Part V, 77; G. J. O. Jameson, Math. Gazette 90, 2006).  Where
that bound exceeds 1, Rolle steps isolate the zeros: e^{beta e_top} times
the sum, e_top its largest exponent, has the same zeros, its
beta-derivative is again such a sum, one term shorter, and one of its zeros
lies between any two of the sum's, so the derivative's zeros cut the range
into pieces with one zero at most.  The steps stop at two terms, as such a
sum has one zero at most.  limits brackets the margins m12, m03 and
disorder from these zeros.
"""

from __future__ import annotations

import numpy as np


def sign_changes(a: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis of a, zeros skipped."""
    s = np.sign(a)
    last = np.maximum.accumulate(np.where(s != 0.0, np.arange(s.shape[-1]), 0), axis=-1)
    s = np.take_along_axis(s, last, axis=-1)  # the sign of the last nonzero entry so far
    return (s[..., 1:] * s[..., :-1] < 0.0).sum(axis=-1)


def sum_zeros(lam, coef, bound, t_end):
    """The zeros below t_end of the sums f(T) = sum_j coef_j
    exp(-lam_j/T), one per row of lam (increasing) and coef (summed over
    equal exponents), whose Laguerre bound is bound: (R, 6), increasing,
    NaN-padded.  lam_max/t_end must be finite; it is at most 2 ln 2 at
    limits' t_end, t_cut.

    In x = lam_max/T (beta scaled, so nothing overflows) level k + 1 is the
    derivative of e^{x e_top} times level k, for e_top the largest exponent
    left in level k, so each level drops that term; a row descends until
    two terms are left, as such a sum has one zero at most.  The zeros of
    level k + 1 cut level k into pieces with one zero at most.
    """
    zeros = np.full((lam.shape[0], 6), np.nan)
    at = np.flatnonzero(bound > 0)
    scale = lam[at, -1]
    mu = lam[at] / scale[:, None]
    x_end = scale / t_end[at]
    levels, depth, cut = [coef[at]], np.zeros(at.size, int), bound[at] >= 2
    while cut.any():
        c, m = levels[-1][cut], mu[cut]
        top = np.max(m, axis=1, initial=0.0, where=c != 0.0)
        d = c * (top[:, None] - m)
        levels.append(np.zeros_like(mu))
        levels[-1][cut] = d / np.abs(d).max(axis=1, keepdims=True)
        depth[cut] = len(levels) - 1  # the level a row solves without cuts
        cut[cut] = (d != 0.0).sum(axis=1) > 2
    x = np.full((at.size, 7), np.nan)
    for k in range(len(levels) - 1, -1, -1):
        on = np.flatnonzero(depth >= k)
        c, lead = levels[k][on], np.argmax(levels[k][on] != 0.0, axis=1)
        e = np.where(c != 0.0, mu[on] - mu[on, lead][:, None], 0.0)  # F = e^{x mu_lead} f: nothing overflows
        # past far/2 the other terms sum to less than |c_lead|, so every zero lies below it, and at far
        # to |c_lead|/4 at most, so its sign is the lead's; a difference of logs, as the ratio
        # overflows beside a floored vm^2 lead.  gap: the least positive exponent (all are <= 1)
        gap = np.min(e, axis=1, initial=1.0, where=e > 0.0)
        far = 2.0 * (np.log(np.abs(c).sum(axis=1)) - np.log(np.abs(c[np.arange(on.size), lead]))) / gap
        cuts = np.where((depth[on] > k)[:, None] & (x[on, :6] > x_end[on, None]), x[on, :6], np.nan)
        # stable sorts (here and in limits) reuse the code the stable argsorts
        # already page in; a quicksort's would add ~130 KB to every process
        edges = np.concatenate([x_end[on, None], cuts, np.maximum(far, x_end[on])[:, None]], axis=1)
        edges.sort(axis=1, kind="stable")  # the NaN cuts go last, and their signs compare false
        sign = np.sign((c[:, None, :] * np.exp(-edges[..., None] * e[:, None, :])).sum(axis=-1))
        r, j = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
        x = np.full((at.size, 7), np.nan)
        x[on[r], j] = _newton(c[r], e[r], edges[r, j], edges[r, j + 1], sign[r, j] < 0.0)
        x.sort(axis=1, kind="stable")  # at most 5 zeros: the last column stays NaN
    zeros[at] = np.sort(scale[:, None] / x[:, :6], axis=1, kind="stable")
    return zeros


def _newton(c, e, lo, hi, neg_lo):
    """The zero in (lo, hi) (finite, lo >= 0) of each F(x) = sum_j c_j
    exp(-x e_j) (rows, e >= 0, so nothing overflows), negative at lo where
    neg_lo and not at hi.  A Newton step on F is kept where it stays in the
    bracket and moves x at most half as far as the move before it (rtsafe,
    Press et al., Numerical Recipes, 9.4), so it cannot crawl; else x is the
    bracket's midpoint in the floats' order (_mid).  A row stops on a Newton
    step of at most 1e-12 x, which it takes, or on adjacent floats."""
    done, x = np.zeros(lo.size, bool), _mid(lo, hi)
    move = hi - lo  # taken as the move before the first step, as in rtsafe
    for _ in range(200):
        t = c * np.exp(-x[:, None] * e)
        f, df = t.sum(axis=1), -(t * e).sum(axis=1)
        lo, hi = np.where((f < 0.0) == neg_lo, x, lo), np.where((f < 0.0) == neg_lo, hi, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = x - f / df
        close = ~done & (np.abs(step - x) <= 1e-12 * x)
        x = np.where(close, step, x)  # a row once done keeps its x
        done |= close | (hi.view(np.int64) - lo.view(np.int64) <= 1)
        if done.all():
            return x
        keep = (lo < step) & (step < hi) & (np.abs(step - x) <= 0.5 * move)
        step = np.where(keep, step, _mid(lo, hi))
        move, x = np.abs(step - x), np.where(done, x, step)
    return x


def _mid(lo, hi):
    """The midpoint of each bracket 0 <= lo <= hi in the floats' order, whose
    bits count the floats below them: a + (b - a) // 2, as a + b overflows."""
    a = lo.view(np.int64)
    return (a + (hi.view(np.int64) - a) // 2).view(float)
