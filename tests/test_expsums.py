"""expsums.sum_zeros against sums whose zeros are known.

A polynomial P(y) = prod_k (y - y_k) in y = exp(-1/T) is the exponential
sum sum_j c_j exp(-j/T), and its zeros are T_k = -1/ln y_k.
"""

import numpy as np

from xyzent.expsums import sign_changes, sum_zeros


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
