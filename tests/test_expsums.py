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

from conftest import tiny_coupling_family


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
    # sum_zeros ends the last piece of a sum at far = 2 ln(sum|c|/|c_lead|)/gap,
    # gap the scaled exponent of the first term after the leading one, and
    # evaluates its sign there.  _eigen_columns sets every level gap below 16
    # ulps of max|E_j| to 0, so gap is a few ulps of 1 at least, at either
    # energy-scale bound and a hair from the level crossing: far stays below
    # about 1.7e18 (ln |c_lead| >= -745), so the edge and the exponents
    # -far e_j at it are finite and form no inf * 0
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


def test_a_tiny_lead_does_not_make_newton_crawl():
    # F(x) = 1e-305 - exp(-x/5), x = 5/T: from below its zero each Newton step
    # moves x by about 5, and kept whenever it stayed in the bracket, 200 steps
    # stopped at T = 0.0049999790
    got = zeros_of(np.array([1e-305, -1.0, 0.0, 0.0, 0.0, 0.0]))
    want = 1.0 / math.log(1e305)
    assert abs(got[0] - want) <= 1e-12 * want and np.isnan(got[1:]).all(), got


def test_newton_rows_end_converged(monkeypatch):
    # every x _newton returns in the scans of the tiny-coupling family is a
    # Newton step of at most 1e-9 x from the zero, or the sum changes sign
    # between the floats next to it (446 of 692 rows did neither where steps
    # could crawl), and every call ends within half its cap of 200 rounds
    # (59 at most here), counted by a module-global range that shadows the
    # builtin in expsums
    rows, failed, newton, rounds = [0], [], expsums._newton, []

    def counting_range(*args):
        if args != (200,):
            return range(*args)
        rounds.append(0)

        def count():
            for k in range(200):
                rounds[-1] = k + 1
                yield k

        return count()

    def spy(c, e, *args):
        x = newton(c, e, *args)

        def F(y, w=1.0):  # w = -e: F'
            return (c * w * np.exp(-y[:, None] * e)).sum(axis=1)

        f, df, below, above = F(x), F(x, -e), F(np.nextafter(x, 0.0)), F(np.nextafter(x, np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (np.abs(f / df) <= 1e-9 * x) | (np.sign(below) * np.sign(above) <= 0.0)
        rows[0] += x.size
        failed.extend(x[~ok])
        return x

    monkeypatch.setattr(expsums, "_newton", spy)
    monkeypatch.setattr(expsums, "range", counting_range, raising=False)
    limits._limit_records([canonicalize(*m) for m in tiny_coupling_family(600) if max(map(abs, m)) >= MIN_ENERGY_SCALE])
    assert rows[0] > 500 and not failed, (rows[0], len(failed), failed[:5])
    assert rounds and max(rounds) <= 100, (len(rounds), max(rounds, default=None))
