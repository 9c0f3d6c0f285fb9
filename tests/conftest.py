"""Shared generators for randomized tests.

Random mixtures use sorted-uniform-gap simplex sampling; random couplings
are log-uniform over [1e-2, 1e2] so extreme anisotropy is exercised
while the aligned-sector gap stays well away from degeneracy.
"""

import numpy as np
import pytest

from xyzent.linalg import b_crossing
from xyzent.model import XYZParams, canonicalize
from xyzent.states import BellMixture, mixture


def random_simplex(rng, n=4, size=None):
    """Uniform sample(s) from the probability simplex via sorted gaps."""
    shape = (n - 1,) if size is None else (size, n - 1)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=shape), axis=-1)
    full = np.concatenate(
        [
            np.zeros(cuts.shape[:-1] + (1,)),
            cuts,
            np.ones(cuts.shape[:-1] + (1,)),
        ],
        axis=-1,
    )
    return np.diff(full, axis=-1)


def log_uniform(rng, lo=1e-2, hi=1e2, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def random_canonical_params(rng) -> XYZParams:
    """Canonical parameters with log-uniform magnitudes; Delta >= 1e-2."""
    v_plus, v_minus, b = log_uniform(rng, size=3)
    vz = log_uniform(rng) * rng.choice([-1.0, 1.0])
    return canonicalize(v_plus + v_minus, v_plus - v_minus, vz, b)


def random_mixture(rng, params: XYZParams | None = None) -> BellMixture:
    if params is None:
        params = random_canonical_params(rng)
    return mixture(params, random_simplex(rng))


def limit_families(rng, n):
    """n seeded models of each family the limit oracle checks
    (tests/test_oracle.py): log-uniform couplings, b far above and far below
    v_minus, fields just above the level crossing, and the fig2-4 field
    sweeps."""
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


#: Neel-z models (vz < -2 T_c, not certified by XYZParams.t_critical_is_onset):
#: three without a numeric onset, and one whose onset is a first-order
#: crossing below the closed-form T_c
NEEL_Z_MODELS = [
    canonicalize(0.865, 0.192, -2.775, 0.877),
    canonicalize(1.0, 0.3, -1.2, 0.4),
    canonicalize(0.4276, 0.2210, -3.0231, 0.1091),
    canonicalize(2.601, -2.094, -2.969, 1.518),
]


def neel_z_family():
    """60 uncertified models with a closed-form T_c, couplings uniform in
    (-3, 3) (numpy seed 7)."""
    rng = np.random.default_rng(7)
    models = []
    while len(models) < 60:
        p = canonicalize(*rng.uniform(-3.0, 3.0, size=4))
        if p.t_critical is not None and not p.t_critical_is_onset:
            models.append(p)
    return models


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
