"""Temperature-domain analysis of thermal states.

Limit temperatures, entangled temperature intervals, the
vanishing-plus-reentry window, reference closed forms, and the two-level
mixture thresholds.

One scan (_limit_records) computes the limits of any number of models,
and each model's record holds every limit; limit_temperatures is its
one-model view.  It resolves each model's grid once, with T = 0 as its
first sample, finds the sign changes between neighbouring samples of
the four signed margins (the two exact margins m12 and m03, the
disorder margin and the entropic margin) that its record needs, and one
vectorised bisection then refines each exact sign change and the top
one of the disorder and entropic rows of every model.  All margins come
from one kernel, _margin_columns, which takes a model per column and whose
one-model view is margin_table.  Its formulas are the ones behind the
scalar checks (entanglement.exact_margins, criteria.disorder_check,
criteria.entropic_check), broadcast over the columns; the grid pass,
the bisection and the CLI's thermal-state columns all call it.

Each grid ends at the first sample past t_cut = (E_max - E_min)/ln 2.
Past t_cut the Gibbs weights (sum Z) obey w_max <= 2 w_min, so w_min/Z >= 1/7
and every margin is >= 0.1; no later sample can hold a sign change:
  Z m12 = (big - vm hi) + small + vm lo >= 3 w_min - w_max >= w_min;
  Z m03 >= 2 a1 a2 - |w3 - w0| >= 2 w_min - (w_max - w_min) >= w_min;
  disorder >= 1/2 - p_max >= 1/2 - 2/5 = 0.1;
  entropic >= -log2 p_max - 1 >= log2(5/2) - 1 > 0.32 bits.

Within that range the grid pass evaluates a coarse subset of the grid
first, then every sample of each coarse cell that can hold a sign change
the record needs, so it finds those of the whole grid.  In beta = 1/T, with
w_j = exp(-beta (E_j - E_min)), three margins have the signs of sums of
at most six exponentials:
  Z m12 = w0 + w3 + vm (w1 - w2);
  m03 discriminant = vm^2 (w2 - w1)^2 + 4 w1 w2 - (w3 - w0)^2;
  2 Z disorder = Z + b (w2 - w1) - 2 w_ground,
with vm, b = v_minus/Delta, b/Delta.  Such a sum has no more zeros in
beta > 0 than the partial sums of its coefficients, taken in increasing
exponent, have sign changes (Laguerre's rule of signs; Polya and Szego,
Problems and Theorems in Analysis II, Part V, 77; G. J. O. Jameson,
Math. Gazette 90, 2006).  Zeros the coarse samples do not see come in
pairs inside one cell, so a row whose coarse sign changes fall short of
its bound by less than 2 has none.  Otherwise one Rolle step: e^{beta e_m}
times the sum has the same zeros, and for an e_m where its derivative's
bound is 1, a hidden pair encloses the derivative's only zero, whose
cell (and one on each side) is evaluated.  A row with more coarse sign
changes than its bound (rounding), or with no such e_m, has all its
cells evaluated.  The entropic margin has no such bound, but entropic
detection implies disorder detection (the spectrum of rho is majorized
by that of rho_A wherever the disorder margin is >= 0, and entropy is
Schur-concave), and the record keeps only its limit, the top edge of
its highest interval.  That edge lies above the model's highest coarse
sample where the entropic margin is negative, so every cell from that
sample up (every cell, where there is none) in which the disorder margin
is negative at an end is evaluated, as is every cell where any row
changes sign.  Cells below it may hide entropic sign changes, so of the
disorder and entropic rows only the top sign change is refined; the
sign changes of the exact and disorder rows are all found.

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
from .states import _gibbs_exponents, thermal_probabilities  # noqa: F401  (kept bound for tracing)

__all__ = [
    "LimitTemperatures",
    "MixtureThresholds",
    "ReentryWindow",
    "ClosedFormLimits",
    "margin_table",
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
    dis = _disorder_margin_rows(p, b_ratio, vm_ratio).min(axis=0)
    return np.stack([m12 / z, m03 / z, dis, _entropic_margin_row(p, b_ratio, vm_ratio)])


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------


def _default_t_max(p: XYZParams) -> float:
    # the all-zero model is separable at every T, so any positive t_max will do
    return 20.0 * (p.energy_scale or 1.0)


def _scan_grid(p: XYZParams, eig: EigenSystem, t_r: float | None, t_max: float | None, grid_n: int):
    """Resolve the scan range and assemble the grid from T = 0 up,
    densified around the two-level gap temperature t_r.

    The range needs no check that the state is separable at its top:
    every margin is >= 0.1 past t_cut = (E_max - E_min)/ln 2 (module
    docstring), and t_cut < 4.33 energy_scale, since every level gap is
    at most 3 energy_scale (2 v_plus, 2 Delta, or |vz| + v_plus + Delta,
    with v_plus + v_minus, b and |vz| each <= energy_scale).  So the grid
    ends at its first sample past t_cut, and the base grid and the window
    are cut there before they are merged.
    """
    if grid_n < 64:
        raise OutOfRange(f"grid_n must be >= 64, got {grid_n}")
    if t_max is None:
        t_max = _default_t_max(p)
    elif not (math.isfinite(t_max) and t_max > 0.0):
        raise OutOfRange(f"t_max must be finite and positive, got {t_max!r}")

    e = eig.energies
    t_cut = (e.max() - e.min()) / math.log(2.0)
    ts = _cut(np.linspace(0.0, t_max, grid_n + 1), t_cut)
    if t_r is None or e[3] >= min(e[0], e[1]):
        return ts.copy(), float(t_max)  # not a view of the whole base grid
    # the separable gap sits near t_r; make sure both lobes around it are
    # sampled even when they are much narrower than the base grid.  The two
    # sorted runs merge in one pass of a stable sort; equal samples are kept
    # once, and none past t_max (the window runs down to t_max from a start
    # above it where t_max < t_r / grid_n)
    ts = np.concatenate([ts, _cut(np.linspace(t_r / grid_n, min(3.0 * t_r, t_max), grid_n), t_cut)])
    ts.sort(kind="stable")
    keep = ts <= t_max
    keep[1:] &= ts[1:] != ts[:-1]
    return _cut(ts[keep], t_cut), float(t_max)


def _cut(ts: np.ndarray, t_cut) -> np.ndarray:
    """The increasing samples ts up to their first one past t_cut."""
    return ts[: np.searchsorted(ts, t_cut, side="right") + 1]


#: The grid pass evaluates the samples 0, 1, 1 + _COARSE, 1 + 2 _COARSE,
#: ... and the last of a grid first, then the cells between them that can
#: hold a sign change (_grid_brackets).
_COARSE = 32
#: Grid samples one _grid_brackets call takes, and the most columns one of
#: its kernel calls evaluates; together they bound the scan's memory.
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


def _sign_changes(a: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis of a, zeros skipped."""
    last = np.zeros(a.shape[:-1])
    count = np.zeros(a.shape[:-1], dtype=int)
    for x in np.moveaxis(np.sign(a), -1, 0):
        count += x * last < 0.0
        last = np.where(x != 0.0, x, last)
    return count


def _run_ends(lam: np.ndarray) -> np.ndarray:
    """Where an exponent, sorted along the last axis, ends its run of equal
    ones: a partial sum counts in Laguerre's rule only there."""
    return np.append(lam[..., :-1] != lam[..., 1:], np.ones(lam.shape[:-1] + (1,), bool), axis=-1)


def _sign_change_bounds(energies, vm_ratio, b_ratio):
    """Laguerre's bound on the sign changes in T > 0 of the rows m12, m03
    and disorder of each model, a column of energies (module docstring).

    Returns the bound (3, K), and the exponents lam (3, K, 6) of each row's
    exponential sum in increasing order with their coefficients (3, K, 6).
    Each partial sum is formed as N + M rho with integers N, M, one
    rounding, so the bound counts its exact signs; a disorder sum
    N + M b = N (1 - |b|) (N = -M sign b) is formed as N c, with
    c = vm^2/(1 + |b|) as in criteria._disorder_near_zero, since 1 - |b|
    rounds to 0 or to a multiple of 2^-53 where b/Delta is near 1.
    """
    k = energies.shape[1]
    g = np.concatenate([energies - energies.min(axis=0), np.zeros((1, k))])
    n = np.repeat(_N[:, :, None], k, axis=2)
    n[2, np.argmin(energies, axis=0), np.arange(k)] -= 2
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

    partial = sums(np.cumsum(n, axis=-1), np.cumsum(m, axis=-1))
    return _sign_changes(np.where(_run_ends(lam), partial, 0.0)), lam, sums(n, m)


def _rolle_derivative(lam, coef):
    """One Rolle step for exponential sums f (rows of lam, coef): e^{beta e_m} f
    has the zeros of f, and its beta-derivative the coefficients
    coef (e_m - lam) on the same exponents.  Returns these, for the first
    e_m among the exponents and their midpoints whose partial sums change
    sign at most once and are clear of rounding, and whether one exists.
    """
    x = lam / np.maximum(lam[:, -1:], np.finfo(float).tiny)  # beta scaled: nothing overflows
    e_m = np.concatenate([x, 0.5 * (x[:, 1:] + x[:, :-1])], axis=1)
    d = coef[:, None, :] * (e_m[:, :, None] - x[:, None, :])
    ends = _run_ends(lam)[:, None, :]
    partial = np.where(ends, np.cumsum(d, axis=-1), 0.0)
    unclear = ends & (np.cumsum(d != 0.0, axis=-1) > 0)
    unclear &= np.abs(partial) <= 1e-9 * np.abs(d).sum(axis=-1, keepdims=True)
    ok = (_sign_changes(partial) <= 1) & ~unclear.any(axis=-1)
    return d[np.arange(d.shape[0]), np.argmax(ok, axis=1)], ok.any(axis=1)


def _columns(energies, vm_ratio, b_ratio, model, ts, negative=False) -> np.ndarray:
    """The kernel on model[k] at ts[k], _CHUNK columns per call, or with
    negative only where each margin is negative."""
    out = np.empty((4, ts.size), bool if negative else float)
    for lo in range(0, ts.size, _CHUNK):
        m = model[lo : lo + _CHUNK]
        table = _margin_columns(energies[:, m], vm_ratio[m], b_ratio[m], ts[lo : lo + _CHUNK])
        out[:, lo : lo + _CHUNK] = table < 0.0 if negative else table
    return out


def _grid_brackets(ts, sizes, energies, vm_ratio, b_ratio):
    """The grid signs of the models whose grids, of sizes, are concatenated
    in ts: the negative flags (4, K) of each one's first and last samples,
    and the row, sign below, bracket and model of every sign change between
    neighbouring samples of a grid, model by model and in T order.  These
    are all the sign changes of the exact and disorder rows, and of the
    entropic row those above its highest coarse detection.

    The kernel runs first on the coarse samples 0, 1, 1 + _COARSE, ... and
    the last of each grid, then on every sample inside a coarse cell where
    some row may change sign (module docstring): where a row changes sign
    over the cell, where the disorder or entropic margin is negative at an
    end of a cell at or above the model's highest coarse sample with the
    entropic margin negative (any cell, where there is none), in the cell
    holding the root of a row's Rolle derivative (and one on each side,
    for rounding) when the row's bound exceeds its coarse sign changes by
    2 or more, and in every cell of a model with a row unproven.
    """
    bound, lam, coef = _sign_change_bounds(energies, vm_ratio, b_ratio)
    counts = 2 + (sizes - 2 + _COARSE - 1) // _COARSE
    model = np.repeat(np.arange(sizes.size), counts)
    first = np.cumsum(counts) - counts
    rank = np.arange(model.size) - first[model]
    pos = (np.cumsum(sizes) - sizes)[model] + np.clip(1 + (rank - 1) * _COARSE, 0, sizes[model] - 1)
    neg = _grid_signs(_columns(energies, vm_ratio, b_ratio, model, ts[pos]), first)
    same = model[1:] == model[:-1]
    flips = (neg[:, 1:] != neg[:, :-1]) & same
    seen = np.stack([np.bincount(model[:-1][f], minlength=sizes.size) for f in flips[:3]])
    rows, ms = np.nonzero(bound - seen >= 2)
    deriv, has_deriv = _rolle_derivative(lam[rows, ms], coef[rows, ms])
    whole = np.zeros(sizes.size, bool)
    whole[np.nonzero(seen > bound)[1]] = True
    whole[ms[~has_deriv]] = True
    top = first.copy()  # each model's highest coarse sample with the entropic margin negative
    np.maximum.at(top, model[neg[3]], np.flatnonzero(neg[3]))
    upper = np.arange(same.size) >= top[model[:-1]]
    detects = upper & (neg[2:, 1:].any(axis=0) | neg[2:, :-1].any(axis=0))
    cells = same & (flips.any(axis=0) | detects | whole[model[:-1]])

    rows, ms, deriv = rows[has_deriv], ms[has_deriv], deriv[has_deriv]
    if rows.size:
        # the derivative's signs at the coarse samples of each such row
        q = np.repeat(np.arange(rows.size), counts[ms])
        at = np.arange(q.size) + np.repeat(first[ms] - (np.cumsum(counts[ms]) - counts[ms]), counts[ms])
        r = _gibbs_exponents(lam[rows, ms][q].T, ts[pos[at]])
        sign = np.sign((deriv[q].T * np.exp(-r)).sum(axis=0))
        root = at[:-1][(sign[1:] != sign[:-1]) & (q[1:] == q[:-1])]
        near = np.clip(np.concatenate([root - 1, root, root + 1]), 0, cells.size - 1)
        cells[near] |= same[near]

    # the coarse columns, each followed by the samples inside its cell if flagged
    gaps = np.where(cells, np.diff(pos) - 1, 0)
    before = np.append(0, np.cumsum(gaps))
    out = np.arange(pos.size) + before
    inside = np.ones(out[-1] + 1, bool)
    inside[out] = False
    at = np.empty(inside.size, int)
    at[out] = pos
    at[inside] = np.arange(before[-1]) + np.repeat(pos[:-1] + 1 - before[:-1], gaps)
    signs = np.empty((4, inside.size), bool)
    signs[:, out] = neg
    signs[:, inside] = _columns(energies, vm_ratio, b_ratio, np.repeat(model[:-1], gaps), ts[at[inside]], negative=True)
    flips = signs[:, 1:] != signs[:, :-1]
    flips[:, out[first[1:]] - 1] = False  # between two models' grids
    idx, rows = np.nonzero(flips.T)
    owner = np.searchsorted(out[first], idx, side="right") - 1
    brackets = rows, signs[rows, idx], ts[at[idx]], ts[at[idx + 1]], owner
    return (signs[:, out[first]], signs[:, out[first + counts - 1]], *brackets)


def _grid_signs(table: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The negative flags of table, whose columns zero hold T = 0 samples:
    a margin exactly 0 there takes the sign of the next column."""
    neg = table < 0.0
    neg[:, zero] = np.where(table[:, zero] == 0.0, neg[:, zero + 1], neg[:, zero])
    return neg


def _limit_records(ps, t_max=None, grid_n=DEFAULT_GRID, rel_tol=DEFAULT_REL_TOL) -> list[LimitTemperatures]:
    """The LimitTemperatures of every model in ps (see limit_temperatures).

    Each grid is reduced to its sign-change brackets and first and last
    signs; a margin exactly 0 at T = 0 takes the sign of the next sample,
    so a boundary ground state does not start its interval where exp stops
    underflowing.  A grid ends at the first sample past t_cut, as no
    margin is negative later, and _grid_brackets evaluates only the cells
    of it that can hold a sign change (module docstring).  Of the disorder
    and entropic rows only the top bracket is kept, as the record reports
    only their top edges.  One bisection refines every kept bracket in its
    own model's column; each stops once hi - lo <= rel_tol * hi (checked
    before each step), as it would alone, or once lo, hi are adjacent
    floats, within 2,098 halvings of any bracket.
    """
    if not 0.0 < rel_tol < 1.0:
        raise OutOfRange(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    eigs = [eigensystem(p) for p in ps]
    energies = np.stack([e.energies for e in eigs], axis=1)
    vm_ratio = np.array([e.vm_ratio for e in eigs])
    b_ratio = np.array([e.b_ratio for e in eigs])
    scans, grids, found, size = [], [], [], 0
    for k, (p, eig) in enumerate(zip(ps, eigs)):
        t_r = _two_level(p, eig)
        ts, t_end = _scan_grid(p, eig, t_r, t_max, grid_n)
        grids.append(ts)
        scans.append((t_end, t_r))
        size += grids[-1].size
        if size >= _BATCH or k == len(ps) - 1:
            batch = slice(k + 1 - len(grids), k + 1)
            ts, sizes, grids, size = np.concatenate(grids), np.array([g.size for g in grids]), [], 0
            *signs, model = _grid_brackets(ts, sizes, energies[:, batch], vm_ratio[batch], b_ratio[batch])
            found.append((*signs, model + batch.start))
    # first and last signs, and the row, sign below, bracket and model of every bracket
    first, last, rows, leaving, lo, hi, model = (np.concatenate(x, axis=-1) for x in zip(*found))
    # of the disorder and entropic rows, only each model's last (top) bracket
    upper = np.flatnonzero(rows >= 2)[::-1]
    keep = rows < 2
    keep[upper[np.unique(4 * model[upper] + rows[upper], return_index=True)[1]]] = True
    rows, leaving, lo, hi, model = rows[keep], leaving[keep], lo[keep], hi[keep], model[keep]
    energies = energies[:, model]
    vm_ratio = vm_ratio[model]
    b_ratio = b_ratio[model]
    for _ in range(2200):
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero(~(hi - lo <= rel_tol * hi) & (lo < mid) & (mid < hi))
        if live.size == 0:
            break
        mid = mid[live]
        table = _margin_columns(energies[:, live], vm_ratio[live], b_ratio[live], mid)
        to_lo = (table[rows[live], np.arange(live.size)] < 0.0) == leaving[live]
        lo[live[to_lo]] = mid[to_lo]
        hi[live[~to_lo]] = mid[~to_lo]
    ends = np.searchsorted(model, np.arange(len(ps) + 1)).tolist()
    rows, t_cross, leaving = rows.tolist(), (0.5 * (lo + hi)).tolist(), leaving.tolist()
    return [
        _record(rows[a:b], t_cross[a:b], leaving[a:b], *ends_neg, *scan)
        for a, b, ends_neg, scan in zip(ends[:-1], ends[1:], zip(first.T.tolist(), last.T.tolist()), scans)
    ]


def _record(rows, t_cross, leaving, first, last, t_end: float, t_r: float | None) -> LimitTemperatures:
    """One model's record from its refined sign changes (lists, in T order).

    An exact row's sign changes alternate, so with 0 in front of a negative
    first sample and t_end (censored) behind a negative last one they
    pair up into the maximal intervals where the margin is negative; a
    row whose edges do not pair up is a fault of the scan, and raises
    RuntimeError rather than lose a limit.
    The disorder and entropic rows bring only their top sign change, and
    their limit is its edge, t_end when the last sample is negative, or
    None when the row never detects.  The row's sign above that edge (its
    first sign, without one) must be its sign at the last sample; a row
    where it is not is a fault of the scan, and raises RuntimeError.
    The two exact margins' violation sets are merged; they are disjoint,
    so only the bisection's noise can make them overlap.  With
    hi, lo = max, min(w1, w2) and big = max(w0, w3), m12 < 0 needs
    vm (hi - lo) > big, while m03 < 0 needs |w3 - w0| > vm (hi - lo);
    since |w3 - w0| <= big, at most one margin is negative at any T.
    """
    edges = [[0.0] * first[r] + [t for t, q in zip(t_cross, rows) if q == r] + [t_end] * last[r] for r in range(2)]
    if any(len(e) % 2 for e in edges):
        raise RuntimeError(f"limit scan: unpaired sign changes, {[len(e) for e in edges]} edges per exact margin")
    tops = []
    for r in (2, 3):
        top = next((k for k, q in enumerate(rows) if q == r), None)
        if (first[r] if top is None else not leaving[top]) != last[r]:
            raise RuntimeError(f"limit scan: the top edge of margin {r} disagrees with its sign at the top")
        tops.append(t_end if last[r] else None if top is None else t_cross[top])
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
    if eig.energies[2] >= eig.energies[3]:
        return None
    ratio = eig.delta / vm
    # a tiny v_minus beside b overflows the ratio, not its logarithm
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(eig.delta) - math.log(vm)
    # near MAX_ENERGY_SCALE with Delta close to v_minus the quotient overflows (to inf, silently in floats)
    t_r = (float(eig.energies[3]) - float(eig.energies[2])) / log_ratio
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
