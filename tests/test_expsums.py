"""expsums.sum_zeros against sums whose zeros are known.

A polynomial P(y) = prod_k (y - y_k) in y = exp(-1/T) is the exponential
sum sum_j c_j exp(-j/T), and its zeros are T_k = -1/ln y_k.
"""

import math

import numpy as np

from xyzent import expsums, limits
from xyzent.expsums import sign_changes, sum_zeros
from xyzent.linalg import b_crossing
from xyzent.model import MAX_ENERGY_SCALE, MIN_ENERGY_SCALE, _eigen_columns, canonicalize


def zeros_of(coef, t_end=1e9):
    lam = np.arange(6.0)[None, :]
    bound = sign_changes(np.cumsum(coef))
    return sum_zeros(lam, coef[None, :], np.array([bound]), np.array([t_end]))[0]


def test_sign_changes_skip_zeros():
    assert sign_changes(np.array([[1.0, 0.0, -2.0, 0.0, -1.0, 3.0], [0.0, 0.0, 1.0, 1.0, 0.0, 2.0]])).tolist() == [2, 0]


def test_every_zero_of_a_polynomial_in_exp():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 6)
        y = np.sort(rng.uniform(0.02, 0.98, size=n))
        if n > 1 and np.diff(y).min() < 0.02:
            continue
        coef = np.zeros(6)
        coef[: n + 1] = np.poly(y)[::-1] * rng.choice([-1.0, 1.0])
        got, want = zeros_of(coef), np.sort(-1.0 / np.log(y))
        assert np.allclose(got[:n], want, rtol=1e-9, atol=0.0) and np.isnan(got[n:]).all(), (y, got)


def test_zeros_above_t_end_are_left_out():
    y = np.array([0.1, 0.5, 0.9])  # T = 0.434, 1.443, 9.491
    coef = np.zeros(6)
    coef[:4] = np.poly(y)[::-1]
    got = zeros_of(coef, t_end=2.0)
    assert np.allclose(got[:2], -1.0 / np.log(y[:2]), rtol=1e-9) and np.isnan(got[2:]).all()


def _margin_models(rng, n=400):
    """Models at both energy-scale bounds and at unit scale, each drawn at
    random and with b within 1e-12 of the level-crossing field."""
    unit = []
    for _ in range(n):
        vx, vy, vz, b = rng.uniform(-1.0, 1.0, size=4)
        unit.append(canonicalize(vx, vy, vz, b))
        crossing = b_crossing(canonicalize(vx, vy, vz, 0.0))
        if crossing > 0.0:
            unit.append(canonicalize(vx, vy, vz, crossing * (1.0 + rng.uniform(-1e-12, 1e-12))))
    models = []
    for scale in (MAX_ENERGY_SCALE, 1.0, 2.0 * MIN_ENERGY_SCALE):
        for p in unit:
            # a power of 2 puts the energy scale in [scale/2, scale), exactly
            s = scale * 2.0 ** -math.frexp(p.energy_scale)[1]
            models.append(canonicalize(s * p.vx, s * p.vy, s * p.vz, s * p.b))
    return models


def test_margin_exponent_gaps_stay_far_from_underflow(monkeypatch):
    # sum_zeros bounds the last zero of a sum by far = ln(sum|c|/|c_lead|)/gap,
    # gap the scaled exponent of the first term after the leading one.
    # _eigen_columns sets every level gap below 16 ulps of max|E_j| to 0, so
    # gap is a few ulps of 1 at least, at either energy-scale bound and a
    # hair from the level crossing: far needs no floor against 0 or 1e-300
    seen, newton = [], expsums._newton

    def spy(c, e, *args):
        lead = np.argmax(c != 0.0, axis=1)
        after = (c != 0.0) & (np.arange(c.shape[1]) > lead[:, None])
        seen.append(e[np.arange(len(c)), np.argmax(after, axis=1)][after.any(axis=1)])
        return newton(c, e, *args)

    monkeypatch.setattr(expsums, "_newton", spy)
    gaps, vm_ratio, b_ratio, _ = _eigen_columns(_margin_models(np.random.default_rng(33)))
    bound, lam, coef = limits._sign_change_bounds(gaps, vm_ratio, b_ratio)
    t_end = np.tile(gaps.max(axis=0) / math.log(2.0), 3)
    sum_zeros(lam.reshape(-1, 6), coef.reshape(-1, 6), bound.ravel(), t_end)
    seen = np.concatenate(seen)
    assert seen.size > 1000 and seen.min() > 4.0 * np.finfo(float).eps, seen.min()
