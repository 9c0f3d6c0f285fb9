"""Limit temperatures against a 50-digit reference.

The reference builds the four margins in mpmath from the canonical float
couplings exactly as given (energies, ratios and Gibbs weights at 50
digits) and looks at one margin at a time; it never uses min(m12, m03),
which at a reentry gap narrower than an ulp never changes sign.  Three
checks per model:

- every edge a record reports (interval ends other than 0, t_disorder,
  t_entropic) has a sign change of its own margin within
  EDGE_REL = 1e-13 of it: the scan refines each edge to adjacent floats
  of the kernel's margin, whose rounding leaves it within 7.2e-15 of the
  50-digit root on the tier-1 families (median 1.1e-16);
- a sampling of the margins on a log-T grid up to t_cut finds no sign
  change the record lacks: each one of m12 or m03 holds an interval edge,
  and the disorder and entropic limits lie at or above every sample where
  their margin is negative;
- a sampling of the entropic margin alone on a log-T grid up to
  t_disorder, where the entropic row is examined, finds no negative sample
  above t_entropic.

The families are seeded (conftest.limit_families): log-uniform
couplings, b far above and far below v_minus, fields just above the level
crossing, and the fig2-4 field sweeps.  A few hundred models run in tier-1; the marker `oracle` selects
a larger set (`pytest -m oracle`).
"""

import math

import numpy as np
import pytest

from xyzent.limits import _limit_records

from conftest import limit_families

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

#: an edge is confirmed when its margin changes sign between edge (1 -+ EDGE_REL)
EDGE_REL = 1e-13
#: log-T samples per model, from T_FLOOR * t_cut to t_cut, and of the
#: entropic margin from T_FLOOR * t_disorder to t_disorder
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

    def weights(self, t):
        """The Gibbs weights at t > 0 (at 50 digits, inside mp.workdps(50))."""
        t = mpmath.mpf(float(t))
        low = min(self.energies)
        w = [mpmath.exp(-(e - low) / t) for e in self.energies]
        z = mpmath.fsum(w)
        return [x / z for x in w]

    def entropic(self, p):
        """The entropic margin of the weights p."""
        split = self.b_r * (p[1] - p[2])
        xlog = lambda x: x * mpmath.log(x) if x > 0 else mpmath.mpf(0)
        q = ((1 + split) / 2, (1 - split) / 2)
        return (mpmath.fsum(map(xlog, q)) - mpmath.fsum(map(xlog, p))) / mpmath.log(2)

    def margins(self, t):
        """m12, m03, disorder and entropic margins of the Gibbs state at t > 0."""
        with mp.workdps(50):
            p0, p1, p2, p3 = p = self.weights(t)
            m12 = p0 + p3 - self.vm_r * abs(p2 - p1)
            m03 = mpmath.sqrt((self.vm_r * (p2 - p1)) ** 2 + 4 * p1 * p2) - abs(p3 - p0)
            disorder = min((1 + abs(self.b_r * (p1 - p2))) / 2 - x for x in p)
            return [m12, m03, disorder, self.entropic(p)]

    def entropic_margin(self, t):
        """The entropic margin alone at t > 0."""
        with mp.workdps(50):
            return self.entropic(self.weights(t))

    def changes_sign(self, row, t):
        lo, hi = (self.margins(t * (1.0 + s * EDGE_REL))[row] for s in (-1.0, 1.0))
        return (lo < 0) != (hi < 0)


def check(p, lt):
    """The checks of the module docstring on one model's record."""
    model = Model(p)
    t_end = model.t_cut  # the top of the scan
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
    if lt.t_disorder is not None:
        ts = np.geomspace(T_FLOOR * lt.t_disorder, lt.t_disorder, SAMPLES)
        neg = [t for t in ts if model.entropic_margin(t) < 0]
        if neg:
            assert lt.t_entropic is not None and lt.t_entropic >= neg[-1] * (1.0 - EDGE_REL), (p, lt, neg[-1])


def run(rng, n):
    ps = limit_families(rng, n)
    for p, lt in zip(ps, _limit_records(ps)):
        check(p, lt)
    return len(ps)


def test_limits_match_the_50_digit_margins(rng):
    assert run(rng, 60) >= 240


@pytest.mark.oracle
def test_limits_match_the_50_digit_margins_at_scale():
    assert run(np.random.default_rng(20261018), 600) >= 2400
