"""Mixtures of the XYZ eigenstates, their Gibbs weights, and the margin
kernel of thermal states.

A BellMixture is the most general two-qubit state that is permutation
and phase-flip symmetric and real in the standard basis: a probability
vector (p_0..p_3) over the four eigenstates |Phi_j> of the model.  Gibbs
thermal states are the special case p_j ~ exp(-E_j / T), and carry the
kernel's amplitudes exp(-g_j/2T) of the level gaps g_j (_gibbs).

Every margin formula lives here too, each batched over columns: the
exact (12)/(03) rows (_exact_margin_rows), the disorder rows in one
cancellation-free form (_disorder_margin_rows), the entropic row with its
cancellation-free form within _NEAR_ZERO of 0 (_entropic_margin_row,
_entropic_near_zero), the entropic row's lower bound on pieces of
temperature (_entropic_margin_bound), and the entanglement of formation
(_eof).  The margin kernel, _margin_columns (one model per column),
evaluates them on thermal states, and _entropic_columns its entropic row
alone.  The CLI's state columns and the limit scan (limits) read their
margins from these, and the scalar checks (entanglement.exact_margins,
entanglement.entanglement_of_formation, criteria.disorder_check,
criteria.entropic_check) call the same rows on one mixture: the kernel's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, InvalidMixture, InvalidTemperature
from .model import EigenSystem, XYZParams, eigensystem

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class BellMixture:
    """Probability 4-vector over the model eigenstates, with its context."""

    probs: np.ndarray  # shape (4,)
    params: XYZParams
    eigen: EigenSystem
    amplitudes: np.ndarray | None = None  # of a Gibbs state, exp(-g_j/2T) (_gibbs)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (4,):
            raise InvalidMixture(f"expected 4 weights, got shape {p.shape}")
        if not ((p >= -_PROB_TOL).all() and abs(p.sum() - 1.0) <= _PROB_TOL):  # NaN fails both
            raise InvalidMixture(f"not a probability vector: {p!r}")
        if self.eigen.degenerate and abs(p[1] - p[2]) > _PROB_TOL:
            # With Delta = 0 the |Phi_1>, |Phi_2> basis choice is a pure
            # convention; closed forms are exact only for equal weights.
            raise DegenerateBasis(f"degenerate aligned sector requires p_1 == p_2, got {p[1]!r} and {p[2]!r}")
        object.__setattr__(self, "probs", p)


def mixture(params: XYZParams, probs) -> BellMixture:
    """Build a BellMixture from canonical parameters and weights."""
    return BellMixture(probs=np.asarray(probs, dtype=float), params=params, eigen=eigensystem(params))


def _gibbs(gaps, temperature):
    """The Gibbs weights exp(-g_j/T)/Z and amplitudes exp(-g_j/2T) of the
    level gaps g_j = E_j - E_min (EigenSystem.gaps) at T.

    gaps has shape (4,), one model broadcast over any shape of T, or
    (4, K), one model per column at the temperatures T of shape (K,).
    The exponent g_j/T is exactly 0 on the ground levels and +inf above
    them wherever the ratio overflows, T = 0 included, so both are the
    T -> 0+ limit of the Gibbs state at every temperature (at T = 0 the
    weight is spread uniformly over the ground levels) and nothing warns.
    """
    t = np.asarray(temperature, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0.0))
    if bad.any():
        raise InvalidTemperature(f"temperature must be finite and >= 0, got {float(t[bad][0])!r}")
    t = np.where(t == 0.0, 0.0, t)  # T = -0.0 is T = 0: g/(-0.0) would be -inf
    gap = gaps.reshape(gaps.shape + (1,) * (t.ndim + 1 - gaps.ndim))
    with np.errstate(divide="ignore", over="ignore"):
        r = np.divide(gap, t, out=np.zeros(np.broadcast_shapes(gap.shape, t.shape)), where=gap > 0.0)
    w = np.exp(-r)
    return w / w.sum(axis=0), np.exp(-0.5 * r)


def thermal_probabilities(eigen: EigenSystem, temperature) -> np.ndarray:
    """Gibbs weights exp(-E_j/T)/Z, broadcast over an array of temperatures (_gibbs)."""
    return _gibbs(eigen.gaps, temperature)[0]


def thermal_mixture(params: XYZParams, temperature: float) -> BellMixture:
    """The Gibbs state of the canonical Hamiltonian at temperature T >= 0, with its amplitudes."""
    eig = eigensystem(params)
    p, a = _gibbs(eig.gaps, float(temperature))
    return BellMixture(probs=p, params=params, eigen=eig, amplitudes=a)


# ---------------------------------------------------------------------------
# the margin formulas, and the margin kernel of thermal states
# ---------------------------------------------------------------------------


_LN2 = math.log(2.0)


def _xlogx(q):
    """q ln q, with 0 ln 0 = 0; broadcasts."""
    q = np.asarray(q, dtype=float)
    return q * np.log(np.where(q > 0.0, q, 1.0))


def _binary_entropy_bits(q):
    """Binary entropy h(q) in bits, with 0 log 0 = 0; broadcasts.

    The complement term is (1 - q) log1p(-q), so h keeps full relative
    accuracy for q far below machine epsilon.  Subtracting from 0.0
    (rather than negating) makes h(0) = h(1) = +0.0, so a separable
    state's entanglement of formation prints as 0, not -0.
    """
    q = np.asarray(q, dtype=float)
    return (0.0 - (_xlogx(q) + (1.0 - q) * np.log1p(-np.where(q < 1.0, q, 0.0)))) / _LN2


def _eof(c):
    """Entanglement of formation in bits of concurrences c, clipped to
    [0, 1] (the formula of entanglement.entanglement_of_formation, which
    checks the range first); broadcasts."""
    c = np.clip(c, 0.0, 1.0)
    return _binary_entropy_bits(c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c))))


def _exact_margin_rows(w, a1, a2, vm_r):
    """(margin_12, margin_03) of the mixture w / sum(w), times sum(w).

    w has shape (4, ...) and may be unnormalised; everything broadcasts
    over the trailing axes, vm_r included.

    a1, a2 are the amplitudes sqrt(w_1), sqrt(w_2).  The cross term is
    their product, never sqrt(w_1 w_2), so it survives where w_1 alone
    underflows.  Both margins are in cancellation-free form: the 03
    radicand (w1+w2)^2 - (b/Delta)^2 (w2-w1)^2 equals
    (v_minus/Delta)^2 (w2-w1)^2 + 4 w1 w2 identically, and the 12 margin
    groups the two dominant weights first so near-degenerate ground pairs
    cancel exactly instead of leaving O(eps) verdict noise.
    """
    hi = np.maximum(w[1], w[2])
    lo = np.minimum(w[1], w[2])
    big = np.maximum(w[0], w[3])
    small = np.minimum(w[0], w[3])
    margin_12 = (big - vm_r * hi) + small + vm_r * lo
    margin_03 = np.hypot(vm_r * (w[2] - w[1]), 2.0 * a1 * a2) - np.abs(w[3] - w[0])
    return margin_12, margin_03


def _gibbs_exact_margins(a, vm_r):
    """(margin_12, margin_03) of the Gibbs state of amplitudes a (4, ...) (_gibbs)."""
    w = a * a
    m12, m03 = _exact_margin_rows(w, a[1], a[2], vm_r)
    z = w.sum(axis=0)
    return m12 / z, m03 / z


def _disorder_margin_rows(p, b_r, vm_r):
    """Per-level disorder margins [1 + |(b/Delta)(p_2 - p_1)|]/2 - p_j of
    probabilities p (4, N); b_r and vm_r (v_minus/Delta) broadcast with
    p[0], in one form without cancellation.  Twice the margin of p_j is
    |b/Delta| |p_2 - p_1| - e_j, with e_j = 2 p_j - sum p correct to its
    own rounding (_deviations).  For the larger of p_1, p_2 these two terms
    nearly cancel where |b/Delta| is near 1, so for |b/Delta| >= 1/2 that
    row is (p_0 + p_3) - c |p_2 - p_1|, with c = 1 - |b/Delta| taken as
    (v_minus/Delta)^2 / (1 + |b/Delta|) (Delta^2 = v_minus^2 + b^2): it
    keeps its relative accuracy where 1 - |b/Delta| is rounding (c near or
    below 2^-53)."""
    b = np.abs(b_r)
    d = np.abs(p[2] - p[1])
    c = vm_r * vm_r / (1.0 + b)
    k = np.arange(4)[:, None]
    larger = (k == np.where(p[1] >= p[2], 1, 2)) & (b >= 0.5)
    return 0.5 * np.where(larger, (p[0] + p[3]) - c * d, b * d - _deviations(p)[0])


def _entropic_margin_row(p, b_r, vm_r):
    """Entropic margin S(rho) - S(rho_A) in bits of probabilities p
    (4, N); b_r and vm_r (v_minus/Delta) broadcast with p[0].  The two
    reductions are identical by permutation symmetry, with spectrum
    (1 +- <S_z>)/2 and <S_z> = (b/Delta)(p_1 - p_2).

    The spectrum is built from the weights as q_1 = s + a p_1 + (1-a) p_2
    and q_2 = s + (1-a) p_1 + a p_2, with s = (p_0 + p_3)/2 and
    a = (1 + |b/Delta|)/2, and each q_k ln q_k is paired with the
    p_k ln p_k it cancels against, so the separable product-diagonal
    mixture (p_0 = p_3 = 0, |b/Delta| = 1, hence q_k = p_k) gives exactly
    0; subtracting the two entropies whole can leave -1 ulp there.  The
    sums are elementwise, as a matrix product rounds by batch size.  A
    margin within _NEAR_ZERO of 0 is replaced by that of
    _entropic_near_zero, which runs on the whole array wherever any entry
    lies that near; each step is elementwise, so a column's bits do not
    depend on its batch.
    """
    a = 0.5 * (1.0 + np.abs(b_r))
    q1 = 0.5 * p[0] + a * p[1] + (1.0 - a) * p[2] + 0.5 * p[3]
    q2 = 0.5 * p[0] + (1.0 - a) * p[1] + a * p[2] + 0.5 * p[3]
    xp = _xlogx(p)
    margin = ((_xlogx(q1) - xp[1]) + (_xlogx(q2) - xp[2]) - xp[0] - xp[3]) / _LN2
    near = np.abs(margin) < _NEAR_ZERO
    return np.where(near, _entropic_near_zero(p, b_r, vm_r), margin) if near.any() else margin


#: _entropic_margin_bound's rounding allowances (its docstring): 16u on
#: the ends of q_1 and 256u on the bound, u = eps/2
_Q_ROUNDING, _BOUND_ROUNDING = 2.0**-49, 2.0**-45


def _entropic_margin_bound(gaps, b_r, t_lo, t_hi):
    """A lower bound (N,) of the entropic margin on each piece [t_lo, t_hi]
    (N,) of temperature, of the model in the same column of gaps (4, N)
    and b_r (N,) (as in _margin_columns).  Each term of
    p_j = 1 / sum_i exp(-(g_i - g_j)/T) is monotone in T (at T = 0 its
    T -> 0+ limit), so p_j lies between the sum's reciprocals with every
    term at its largest and at its smallest end.  -x log2 x is concave, so
    S(rho) is at least the sum of its smaller values at the ends of each
    p_j's interval, and S(rho_A) = h(q_1), q_1 = 1/2 + |b/Delta| (p_1 - p_2)/2,
    is at most h at the point of q_1's interval nearest 1/2.  Every sum has
    its largest term factored out, so it lies in [1, 4] and no sum leaves
    the float range.

    Rounding (first order in u = eps/2, N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3; exp and
    log within 1 ulp).  Each exponent a = -(g_i - g_j)/T is within 2u|a|,
    so each term exp(a - top) of a sum is within (2 + 3|a - top| + 4 top)u,
    relatively; as the sum holds 1 and three terms t with t |ln t| <= 1/e,
    it is within (9 + 4 top)u, and each end P = e^-top/sum of a weight
    within (12 + 6 top)u.  With P <= e^-top, P |1 + ln P| <= 1 and
    |P ln P| <= 1/e, each -P ln P is within 14u, so S is within 92u in
    bits.  q_1's ends are within 14u: widened by 16u (_Q_ROUNDING), the
    interval holds the exact one, and h at a float is within 6u.  So the
    bound is within 100u of its exact value.  The kernel forms read
    weights within (10 + g_j/T)u of the exact Gibbs ones; by the same
    count, and as rounding |b/Delta| by u moves h(q_1) by at most
    u log2(1/u) < 54u, either lies within 150u of the exact margin.  So
    the bound subtracts 256u (_BOUND_ROUNDING, 2.8e-14) and stays below
    either form's margin; the pass drops a piece only where it exceeds
    _NEAR_ZERO (1e-13)."""
    d = gaps[:, None] - gaps[None]  # d[i, j] = g_i - g_j
    with np.errstate(divide="ignore"):  # -d/0 is -+inf at T = 0, clipped to 2^14
        a_lo, a_hi = (np.minimum(-np.divide(d, t, out=np.zeros(d.shape), where=d != 0.0), 16384.0) for t in (t_lo, t_hi))
    rising = d > 0.0
    a = np.stack([np.where(rising, a_hi, a_lo), np.where(rising, a_lo, a_hi)])  # lo's exponents, then hi's
    top = a.max(axis=1)
    lo, hi = np.exp(-top) / np.exp(a - top[:, None]).sum(axis=1)
    s = -np.maximum(_xlogx(lo), _xlogx(hi)).sum(axis=0) / _LN2
    half = 0.5 * np.abs(b_r)
    q_lo, q_hi = 0.5 + half * (lo[1] - hi[2]) - _Q_ROUNDING, 0.5 + half * (hi[1] - lo[2]) + _Q_ROUNDING
    return s - _binary_entropy_bits(np.clip(0.5, q_lo, q_hi)) - _BOUND_ROUNDING


def _entropic_near_zero(p, b_r, vm_r):
    """The entropic margin without cancellation.

    With sigma = sum p = sum q, sigma times the margin is
    sum_k q_k ln(2 q_k/sigma) - sum_j p_j ln(2 p_j/sigma) in nats.  Each log
    is of a ratio near 1 where its weight is large: for x >= 1/4 it is
    log1p of the deviation 2x - sigma, which is e_j for p_j (_deviations)
    and +-t, t = |b/Delta| (p_1 - p_2), for q_1 and q_2; below 1/4 it is
    log(2x/sigma).

    The terms are paired as in the short form, each pair taken as
    (q - p) ln(2q/sigma) + p ln(q/p) (_pair_gain), with q_k - p_k formed
    without cancellation: (p_0 + p_3 -+ c (p_1 - p_2))/2 for |b/Delta| >= 1/2,
    with c = 1 - |b/Delta| as in _disorder_margin_rows, and (+-t - e_k)/2
    below.  q_k itself is p_k plus that difference, which is at least
    -p_k/2, so q_k is accurate too.  Where q_1 and q_2, or p_1 and p_2, are
    both >= 1/4, the two terms of each pair are summed jointly instead
    (_pair_xlog2x), so a reduction near fully mixed gives its t^2/2 to
    full relative accuracy.  On the product-diagonal mixture (c = 0, so
    q_k = p_k, and e_1 = t = -e_2) either way gives exactly 0.
    """
    e, sigma = _deviations(p)
    b = np.abs(b_r)
    t = b * (p[1] - p[2])
    c = vm_r * vm_r / (1.0 + b)
    rest, split = p[0] + p[3], c * (p[1] - p[2])
    d1 = np.where(b >= 0.5, 0.5 * (rest - split), 0.5 * (t - e[1]))
    d2 = np.where(b >= 0.5, 0.5 * (rest + split), 0.5 * (-t - e[2]))
    q1, q2 = p[1] + d1, p[2] + d2
    lq1, lq2, lp = _log_twice(q1, t, sigma), _log_twice(q2, -t, sigma), _log_twice(p, e, sigma)
    pairs = _pair_gain(d1, p[1], lq1, lp[1]) + _pair_gain(d2, p[2], lq2, lp[2])
    q_joint, q_sum = _pair_xlog2x(q1, q2, t, t, -t, lq1, lq2)
    p_joint, p_sum = _pair_xlog2x(p[1], p[2], p[1] - p[2], e[1], e[2], lp[1], lp[2])
    pairs = np.where(q_joint | p_joint, q_sum - p_sum, pairs)
    return (pairs - p[0] * lp[0] - p[3] * lp[3]) / (sigma * _LN2)


def _pair_gain(d, w, lq, lw):
    """q ln(2q/sigma) - w ln(2w/sigma) of weights q = w + d, from d and the
    logs lq, lw: d lq + w ln(q/w), the last log a log1p(d/w) where |d| <= w."""
    close = np.abs(d) <= w
    ratio = np.log1p(np.where(close, d, 0.0) / np.where(close & (w > 0.0), w, 1.0))
    return d * lq + w * np.where(close, ratio, lq - lw)


def _pair_xlog2x(w1, w2, diff, e1, e2, l1, l2):
    """w1 l1 + w2 l2 of two weights with difference diff = w1 - w2,
    deviations e_k = 2 w_k - sigma and logs l_k = ln(2 w_k/sigma); and
    where it is summed jointly, the first result.  That is where both
    weights are >= 1/4: there the sum is
    (w1 + w2)/2 log1p(e1 + e2 + e1 e2) + diff/2 (l1 - l2), so opposite
    deviations cancel inside the one log1p rather than between two terms."""
    joint = (w1 >= 0.25) & (w2 >= 0.25)
    both = np.log1p(np.where(joint, (e1 + e2) + e1 * e2, 0.0))
    return joint, np.where(joint, 0.5 * (w1 + w2) * both + 0.5 * diff * (l1 - l2), w1 * l1 + w2 * l2)


def _log_twice(x, e, sigma):
    """ln(2x/sigma) of weights x >= 0 with deviations e = 2x - sigma: log1p(e)
    where x >= 1/4, log(2x/sigma) below, and 0 where x = 0."""
    big = x >= 0.25
    return np.where(big, np.log1p(np.where(big, e, 0.0)), np.log(np.where(x > 0.0, (x + x) / sigma, 1.0)))


def _deviations(p):
    """e_j = 2 p_j - sum p of weights p (4, ...), and sum p.  The sum is
    carried as s + err (Neumaier), so e_j = (2 p_j - s) - err, whose first
    difference is exact wherever e_j is small, is correct to its own
    rounding: two equal weights near 1/2 give e exactly, and weights far
    below the spacing of 1 still count."""
    s, err = p[0], 0.0
    for x in p[1:]:
        t = s + x
        err = err + np.where(s >= x, (s - t) + x, (x - t) + s)
        s = t
    return (p + p - s) - err, s + err


#: an entropic margin closer to 0 than this may owe its sign to the rounding of
#: the short form (a few ulps of terms up to 1; under 2e-15 measured), so it is
#: evaluated again by _entropic_near_zero; and the entropic pass
#: (limits._entropic_brackets) drops only pieces whose bound exceeds it
_NEAR_ZERO = 1e-13


def _margin_columns(gaps, vm_ratio, b_ratio, ts) -> np.ndarray:
    """The margin kernel: column k of the (4, K) table holds the margins
    of a model's thermal state at ts[k] >= 0, the model given by column k
    of its level gaps (4, K) (EigenSystem.gaps) and of vm_ratio, b_ratio
    (K,), or by gaps (4,) and scalar ratios in every column.  Each step is
    elementwise, so a column's bits do not depend on its neighbours.

    The exact rows use the half-exponent Gibbs amplitudes
    a_j = exp(-g_j/2T), so that a genuinely separable model never scans
    as entangled at any temperature (see _exact_margin_rows); the last two
    the Gibbs weights.  Both come from _gibbs, so T = 0 is their T -> 0+
    limit (a_j = 1 on each ground level, 0 above).
    """
    p, a = _gibbs(gaps, ts)
    m12, m03 = _gibbs_exact_margins(a, vm_ratio)
    dis = _disorder_margin_rows(p, b_ratio, vm_ratio).min(axis=0)
    return np.stack([m12, m03, dis, _entropic_margin_row(p, b_ratio, vm_ratio)])


def _entropic_columns(gaps, vm_ratio, b_ratio, ts) -> np.ndarray:
    """Row 3 of the margin kernel _margin_columns (same arguments), the
    entropic margins (K,), bit for bit, without the other rows."""
    return _entropic_margin_row(_gibbs(gaps, ts)[0], b_ratio, vm_ratio)
