"""Limit temperatures against a 50-digit reference.

The reference builds the four margins in mpmath from the canonical float
couplings exactly as given (energies, ratios and Gibbs weights at 50
digits) and looks at one margin at a time; it never uses min(m12, m03),
which at a reentry gap narrower than an ulp never changes sign.  Two
checks per model:

- every edge a record reports (interval ends other than 0 and a censored
  top, t_disorder, t_entropic) has a sign change of its own margin within
  EDGE_REL of it;
- a sampling of the margins on a log-T grid up to t_cut finds no sign
  change the record lacks: each one of m12 or m03 holds an interval edge,
  and the disorder and entropic limits lie at or above every sample where
  their margin is negative.

The families are seeded: log-uniform couplings, b far above and far below
v_minus, fields just above the level crossing, and the fig2-4 field
sweeps.  A few hundred models run in tier-1; the marker `oracle` selects
a larger set (`pytest -m oracle`).
"""

import math

import numpy as np
import pytest

from xyzent.limits import _limit_records
from xyzent.linalg import b_crossing
from xyzent.model import canonicalize

from conftest import log_uniform

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

#: an edge is confirmed when its margin changes sign between edge (1 -+ EDGE_REL)
EDGE_REL = 1e-9
#: log-T samples per model, from T_FLOOR * t_cut to t_cut
SAMPLES = 48
T_FLOOR = 1e-4


class Model:
    """The margins of one canonical model at 50 digits."""

    def __init__(self, p):
        with mp.workdps(50):
            vx, vy, vz, b = (mpmath.mpf(float(x)) for x in (p.vx, p.vy, p.vz, p.b))
            vp, vm = (vx + vy) / 2, (vx - vy) / 2
            delta = mpmath.sqrt(vm * vm + b * b)
            self.energies = [vz / 2 + vp, -vz / 2 + delta, -vz / 2 - delta, vz / 2 - vp]
            self.vm_r, self.b_r = (vm / delta, b / delta) if delta else (mpmath.mpf(0), mpmath.mpf(0))
        floats = [float(e) for e in self.energies]
        self.t_cut = (max(floats) - min(floats)) / math.log(2.0)

    def margins(self, t):
        """m12, m03, disorder and entropic margins of the Gibbs state at t > 0."""
        with mp.workdps(50):
            t = mpmath.mpf(float(t))
            low = min(self.energies)
            w = [mpmath.exp(-(e - low) / t) for e in self.energies]
            z = mpmath.fsum(w)
            p0, p1, p2, p3 = (x / z for x in w)
            m12 = p0 + p3 - self.vm_r * abs(p2 - p1)
            m03 = mpmath.sqrt((self.vm_r * (p2 - p1)) ** 2 + 4 * p1 * p2) - abs(p3 - p0)
            split = self.b_r * (p1 - p2)
            disorder = min((1 + abs(split)) / 2 - x for x in (p0, p1, p2, p3))
            xlog = lambda x: x * mpmath.log(x) if x > 0 else mpmath.mpf(0)
            q = ((1 + split) / 2, (1 - split) / 2)
            entropic = (mpmath.fsum(map(xlog, q)) - mpmath.fsum(map(xlog, (p0, p1, p2, p3)))) / mpmath.log(2)
            return [m12, m03, disorder, entropic]

    def changes_sign(self, row, t):
        lo, hi = (self.margins(t * (1.0 + s * EDGE_REL))[row] for s in (-1.0, 1.0))
        return (lo < 0) != (hi < 0)


def check(p, lt):
    """Both checks of the module docstring on one model's record."""
    model = Model(p)
    t_end = model.t_cut  # the default scan range reaches past t_cut, so nothing is censored
    assert lt.censored == (), (p, lt)
    edges = [t for interval in lt.intervals for t in interval if t > 0.0]
    for t in edges:
        assert model.changes_sign(0, t) or model.changes_sign(1, t), (p, lt, t)
    for row, t in ((2, lt.t_disorder), (3, lt.t_entropic)):
        if t is not None:
            assert model.changes_sign(row, t), (p, lt, row, t)
    ts = np.geomspace(T_FLOOR * t_end, t_end, SAMPLES)
    neg = np.array([[m < 0 for m in model.margins(t)] for t in ts])
    for row in (0, 1):
        for k in np.flatnonzero(neg[1:, row] != neg[:-1, row]):
            lo, hi = ts[k] * (1.0 - EDGE_REL), ts[k + 1] * (1.0 + EDGE_REL)
            assert any(lo <= t <= hi for t in edges), (p, lt, row, ts[k], ts[k + 1])
    for row, t in ((2, lt.t_disorder), (3, lt.t_entropic)):
        if neg[:, row].any():
            top = ts[np.flatnonzero(neg[:, row])[-1]]
            assert t is not None and t >= top * (1.0 - EDGE_REL), (p, lt, row, top)


def families(rng, n):
    """n seeded models of each family."""
    out = []
    for _ in range(n):  # log-uniform couplings
        vp, vm, b = log_uniform(rng, 1e-2, 1e2, size=3)
        vz = log_uniform(rng, 1e-2, 1e2) * rng.choice([-1.0, 1.0])
        out.append(canonicalize(vp + vm, vp - vm, vz, b))
    for k in range(n):  # b far above v_minus, and far below
        vp, b = log_uniform(rng, 0.1, 10.0, size=2)
        vz = rng.uniform(-1.0, 1.0) * vp
        ratio = log_uniform(rng, 1e-12, 0.1) if k % 2 else log_uniform(rng, 1e-9, 0.1)
        vm = b * ratio if k % 2 else b / ratio
        out.append(canonicalize(vp + vm, vp - vm, vz, b))
    while len(out) < 3 * n:  # fields just above the level crossing
        vp = rng.uniform(0.5, 2.0)
        vm = rng.uniform(0.0, 0.9) * vp
        vz = rng.uniform(-0.5, 0.3) * vp
        bc = b_crossing(canonicalize(vp + vm, vp - vm, vz, 0.0))
        if bc > 0.0:
            out.append(canonicalize(vp + vm, vp - vm, vz, bc * (1.0 + log_uniform(rng, 1e-12, 1.0))))
    for v_plus, v_minus in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.7)):  # fig2, fig3, fig4
        for b in rng.uniform(0.0, 2.0, size=n // 3 + 1):
            out.append(canonicalize(v_plus + v_minus, v_plus - v_minus, 0.0, b))
    return out


def run(rng, n):
    ps = families(rng, n)
    for p, lt in zip(ps, _limit_records(ps)):
        check(p, lt)
    return len(ps)


def test_limits_match_the_50_digit_margins(rng):
    assert run(rng, 60) >= 240


@pytest.mark.oracle
def test_limits_match_the_50_digit_margins_at_scale():
    assert run(np.random.default_rng(20261018), 600) >= 2400
