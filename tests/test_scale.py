"""Outputs are homogeneous in the energy unit.

Multiplying every coupling, the field and the temperature by lam leaves
concurrences and margins unchanged and scales every temperature by lam,
for lam from 1e-300 to 1e300 (pytest turns every warning into an error).
"""

import numpy as np

from xyzent.cli import main
from xyzent.limits import limit_temperatures, margin_table
from xyzent.meanfield import critical_temperature, solve_mf
from xyzent.model import canonicalize, eigensystem
from xyzent.states import thermal_mixture

from conftest import log_uniform, random_canonical_params

#: (vx, vy, vz, b) whose small-scale copies once came out degenerate
MODEL = (1.3, -0.4, 0.2, 0.7)


def scaled(p, lam):
    return canonicalize(lam * p.vx, lam * p.vy, lam * p.vz, lam * p.b)


def limits_over(lt, lam):
    """Every temperature of a LimitTemperatures record divided by lam."""
    reentry = lt.reentry
    return {
        "t_exact": lt.t_exact / lam,
        "t_disorder": None if lt.t_disorder is None else lt.t_disorder / lam,
        "t_entropic": None if lt.t_entropic is None else lt.t_entropic / lam,
        "intervals": [(lo / lam, hi / lam) for lo, hi in lt.intervals],
        "reentry": None if reentry is None else (reentry.lower / lam, reentry.upper / lam),
        "two_level": None if reentry is None or reentry.two_level is None else reentry.two_level / lam,
    }


def assert_same_limits(got, want, rel):
    assert got.keys() == want.keys()
    for key in want:
        assert (got[key] is None) == (want[key] is None), key
        g, w = np.array(got[key] or [], dtype=float), np.array(want[key] or [], dtype=float)
        assert g.shape == w.shape and np.all(np.abs(g - w) <= rel * np.abs(w)), (key, got[key], want[key])


def test_small_scale_model_is_not_degenerate(capsys):
    p = canonicalize(*(1e-14 * x for x in MODEL))
    m = thermal_mixture(p, 0.3e-14)
    assert not m.eigen.degenerate and m.probs[1] != m.probs[2]
    argv = [f"--{k}={1e-14 * x!r}" for k, x in zip(("vx", "vy", "vz", "b"), MODEL)]
    assert main(["point", *argv, "--temp=3e-15"]) == 0
    assert "concurrence: 0.668372252213\n" in capsys.readouterr().out

    lt = limit_temperatures(p)
    assert abs(lt.t_exact / 1e-14 - 1.10355) < 1e-5
    assert abs(lt.t_disorder / 1e-14 - 0.66625) < 1e-5
    tiny = limit_temperatures(canonicalize(*(1e-200 * x for x in MODEL)))
    assert min(tiny.t_exact, tiny.t_disorder, tiny.t_entropic) > 0.0


def test_homogeneous_from_1e_minus_300_to_1e300(rng):
    for k in [-300, 300, *rng.integers(-300, 301, size=30)]:
        lam = 10.0 ** int(k)
        p = random_canonical_params(rng)
        q = scaled(p, lam)
        ts = np.concatenate([[0.0], log_uniform(rng, 1e-2, 1e1, size=8)]) * p.energy_scale
        table = margin_table(eigensystem(q), ts * lam)
        assert np.abs(table - margin_table(eigensystem(p), ts)).max() <= 1e-13, (p, k)

        lt, lt_q = limit_temperatures(p), limit_temperatures(q)
        assert lt_q.censored == lt.censored
        assert_same_limits(limits_over(lt_q, lam), limits_over(lt, 1.0), 1e-12)

        t = float(log_uniform(rng, 5e-2, 1e1)) * p.energy_scale
        assert solve_mf(q, t * lam).iterations == solve_mf(p, t).iterations, (p, k)


def test_numeric_critical_temperature_at_three_scales():
    p = canonicalize(1.0, 0.3, 0.1, 0.4)
    unit = critical_temperature(p, "numeric").t_c
    for lam in (1e-300, 1e-14, 1e300):
        t_c = critical_temperature(scaled(p, lam), "numeric").t_c
        assert t_c is not None and abs(t_c / lam - unit) <= 1e-9 * unit, lam
