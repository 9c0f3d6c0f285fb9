"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Tolerances are fixed here, not tuned: they are part of the contract.
"""

import math

import numpy as np

from xyzent.entanglement import separability_exact
from xyzent.limits import limit_temperatures, reentry_two_level
from xyzent.linalg import thermal_margin_exact
from xyzent.meanfield import critical_temperature, exact_free_energy, solve_mf
from xyzent.model import canonicalize
from xyzent.states import thermal_mixture

SEED = 218

ALPHA = 1.0 / math.log(1.0 + math.sqrt(2.0))  # 1.134593

XX = lambda b: canonicalize(1.0, 1.0, 0.0, b)
MAX_ANISO = lambda b: canonicalize(1.0, -1.0, 0.0, b)
CASE3 = lambda b: canonicalize(1.7, 0.3, 0.0, b)


def concurrence_at(params, temperature):
    return separability_exact(thermal_mixture(params, temperature)).concurrence


def test_ac1_xx_limit_temperature():
    values = [limit_temperatures(XX(b)).t_exact for b in (0.0, 0.3, 0.6, 0.9)]
    for v in values:
        assert abs(v - 1.134593) < 1e-5
    assert max(values) - min(values) < 1e-6
    print("\nACCEPTANCE 1 PASS: XX limit temperature 1.134593, field-independent")


def test_ac2_max_anisotropy_closed_forms():
    fields = (0.0, 0.5, 1.0, 2.0, 5.0)
    for b in fields:
        delta = math.hypot(1.0, b)
        lt = limit_temperatures(MAX_ANISO(b))
        t_e, t_d = lt.t_exact, lt.t_disorder
        assert abs(t_e - delta / math.asinh(delta)) < 1e-5
        assert abs(t_d - delta / math.asinh(delta / (delta - b))) < 1e-5
        assert t_d / t_e >= 0.5 - 1e-9

    scan = np.arange(1.0, 1.51, 0.01)
    records = [limit_temperatures(MAX_ANISO(float(b))) for b in scan]
    t_d = np.array([lt.t_disorder for lt in records])
    b_min = float(scan[np.argmin(t_d)])
    assert abs(b_min - 1.25) < 0.05
    assert all(lt.t_disorder / lt.t_exact >= 0.5 - 1e-9 for lt in records[::10])
    print(f"ACCEPTANCE 2 PASS: closed forms match; disorder minimum at b = {b_min:.3f}")


def test_ac3_entropic_limits():
    t_s, t_s_aniso = (limit_temperatures(params).t_entropic for params in (XX(0.01), MAX_ANISO(0.01)))
    assert abs(t_s - 0.478) < 0.003
    assert abs(t_s_aniso - 0.478) < 0.003
    c = concurrence_at(XX(0.01), t_s)
    assert abs(c - 0.584) < 0.003
    print(f"ACCEPTANCE 3 PASS: entropic limit 0.478, concurrence there {c:.4f}")


def test_ac4_mean_field_critical_temperature():
    for chi in np.linspace(0.05, 0.94, 10):
        p = canonicalize(1.0, 0.0, 0.0, float(chi))  # v_max = b_c = 1
        closed = critical_temperature(p, "closed").t_c
        numeric = critical_temperature(p, "numeric").t_c
        assert abs(closed - numeric) / closed < 1e-4

    small = canonicalize(1.0, 0.0, 0.0, 1e-6)
    assert abs(critical_temperature(small, "closed").t_c - 0.5) < 1e-4
    assert abs(critical_temperature(small, "numeric").t_c - 0.5) < 1e-4
    for b in (1.0, 1.5):
        assert critical_temperature(canonicalize(1.0, 0.0, 0.0, b)).t_c is None

    # thermal-state concurrence at T_c: case 1 near zero field
    t_c = critical_temperature(XX(0.01), "closed").t_c
    c1 = concurrence_at(XX(0.01), t_c)
    assert abs(c1 - 0.55) < 0.01
    # case 2 at the edge of mean-field feasibility
    p = MAX_ANISO(0.999)
    t_c = critical_temperature(p, "closed").t_c
    c2 = concurrence_at(p, t_c)
    assert abs(c2 - 1.0 / math.sqrt(2.0)) < 0.01
    print(f"ACCEPTANCE 4 PASS: T_c closed = numeric; C(T_c) = {c1:.3f} and {c2:.3f}")


def test_ac5_case3_phase_structure():
    b0 = CASE3(0.0).b_crossing
    assert abs(b0 - math.sqrt(0.51)) < 1e-15

    for b in (b0 + 0.011, 0.8, 0.9, 1.0, 1.049):
        assert limit_temperatures(CASE3(float(b))).reentry is not None
    for b in (1.2, 1.3):
        assert limit_temperatures(CASE3(b)).reentry is None

    lt = limit_temperatures(CASE3(0.01))
    assert abs(lt.t_exact - 0.93) < 0.01
    assert abs(lt.t_entropic - 0.39) < 0.01
    assert abs(critical_temperature(CASE3(0.01)).t_c - 0.85) < 0.01
    for b in (1.15, 1.25, 1.3):
        assert critical_temperature(CASE3(b)).t_c > limit_temperatures(CASE3(b)).t_exact
    print(f"ACCEPTANCE 5 PASS: b0 = {b0:.5f}; reentry band and T_c > T_e region verified")


def test_ac6_reentry_gap():
    p = CASE3(0.9)
    t_r = reentry_two_level(p)
    assert abs(t_r - 0.2873) < 1e-3
    w = limit_temperatures(p).reentry
    assert w is not None
    for endpoint in (w.lower, w.upper):
        assert abs(endpoint - t_r) < 0.1 * t_r
    eps = 1e-4 * t_r
    m1_lo, _ = thermal_margin_exact(p, w.lower - eps)
    m1_hi, _ = thermal_margin_exact(p, w.lower + eps)
    assert m1_lo < 0 < m1_hi  # first inequality flips at the lower endpoint
    _, m2_lo = thermal_margin_exact(p, w.upper - eps)
    _, m2_hi = thermal_margin_exact(p, w.upper + eps)
    assert m2_lo > 0 > m2_hi  # second inequality flips at the upper endpoint
    print(f"ACCEPTANCE 6 PASS: gap ({w.lower:.5f}, {w.upper:.5f}) around T_r = {t_r:.5f}")


def _random_batch(rng, n, zero_field=False):
    """Canonical parameter arrays + simplex weights, vectorized."""
    v_plus, v_minus = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(2, n)))
    b = np.zeros(n) if zero_field else np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
    cuts = np.sort(rng.uniform(0.0, 1.0, size=(n, 3)), axis=1)
    p = np.diff(np.concatenate([np.zeros((n, 1)), cuts, np.ones((n, 1))], axis=1), axis=1).T
    delta = np.hypot(v_minus, b)
    return p, v_minus / delta, b / delta


def _closed_margins(p, vm_r, b_r):
    hi, lo = np.maximum(p[1], p[2]), np.minimum(p[1], p[2])
    big, small = np.maximum(p[0], p[3]), np.minimum(p[0], p[3])
    m12 = (big - vm_r * hi) + small + vm_r * lo
    m03 = np.hypot(vm_r * (p[2] - p[1]), 2.0 * np.sqrt(p[1] * p[2])) - np.abs(p[3] - p[0])
    return m12, m03


def test_ac7_oracle_equivalence_property_suite():
    n = 10_000
    rng = np.random.default_rng(SEED)
    p, vm_r, b_r = _random_batch(rng, n)

    m12, m03 = _closed_margins(p, vm_r, b_r)
    c_closed = np.maximum(0.0, -np.minimum(m12, m03))

    # Wootters concurrence on the realized matrices, batched
    s = 1.0 / math.sqrt(2.0)
    u_p, u_m = np.sqrt(1.0 + b_r), np.sqrt(1.0 - b_r)
    vecs = np.zeros((n, 4, 4))
    vecs[:, 0, 1], vecs[:, 0, 2] = s, -s
    vecs[:, 1, 0], vecs[:, 1, 3] = u_p * s, -u_m * s
    vecs[:, 2, 0], vecs[:, 2, 3] = u_m * s, u_p * s
    vecs[:, 3, 1], vecs[:, 3, 2] = s, s
    rho = np.einsum("jn,nja,njb->nab", p, vecs, vecs)
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    ev = np.linalg.eigvals(rho @ (yy @ rho @ yy)).real
    dust = 64 * np.finfo(float).eps * np.abs(ev).max(axis=1, keepdims=True)
    lam = np.sort(np.sqrt(np.where(ev > dust, ev, 0.0)), axis=1)
    c_wootters = np.maximum(0.0, 2.0 * lam[:, -1] - lam.sum(axis=1))
    worst = np.abs(c_closed - c_wootters).max()
    assert worst < 1e-9

    # PPT negativity agrees with the verdict in every case
    split = vm_r * (p[2] - p[1])
    q_min = np.minimum(
        0.5 * (p[0] + p[3] - np.abs(split)),
        0.5 * (p[1] + p[2] - np.hypot(p[3] - p[0], b_r * (p[2] - p[1]))),
    )
    entangled = np.minimum(m12, m03) < 0.0
    assert ((q_min < 0.0) == entangled).all()

    # criterion hierarchy with zero violations
    bound = 0.5 * (1.0 + np.abs(b_r * (p[2] - p[1])))
    disorder = bound - p.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_global = -np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0).sum(axis=0)
    q = 0.5 * (1.0 + np.abs(b_r * (p[1] - p[2])))
    qc = 1.0 - q
    s_red = -(q * np.log2(q) + np.where(qc > 0, qc * np.log2(np.where(qc > 0, qc, 1.0)), 0.0))
    entropic = s_global - s_red
    assert (~((entropic < 0) & ~(disorder < 0))).all()
    assert (~((disorder < 0) & ~entangled)).all()

    # at zero field the disorder verdict is exact
    p0, vm_r0, b_r0 = _random_batch(np.random.default_rng(SEED + 1), n, zero_field=True)
    m12_0, m03_0 = _closed_margins(p0, vm_r0, b_r0)
    exact0 = np.minimum(m12_0, m03_0) < 0.0
    disorder0 = (0.5 - p0.max(axis=0)) < 0.0
    assert (exact0 == disorder0).all()
    print(f"ACCEPTANCE 7 PASS: 10^4 mixtures, |closed - Wootters| <= {worst:.2e}")


def test_ac8_degenerate_ground_state_separability():
    p = canonicalize(1.0, 0.4, 0.4, 0.0)
    for t in (0.01, 0.1, 0.5, 1.0):
        assert concurrence_at(p, t) == 0.0
    lt = limit_temperatures(p)
    assert lt.t_exact == 0.0 and lt.intervals == ()
    t_c = critical_temperature(p).t_c
    assert t_c == 0.5
    assert t_c > lt.t_exact
    print("ACCEPTANCE 8 PASS: degenerate ground state, T_c = 0.5 > T_e = 0")


def test_ac9_variational_bound():
    rng = np.random.default_rng(SEED + 2)
    violations = 0
    for _ in range(1000):
        v_plus, v_minus, b, vz = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 4))
        p = canonicalize(v_plus + v_minus, v_plus - v_minus, vz * rng.choice([-1.0, 1.0]), b)
        t = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        if solve_mf(p, t).free_energy < exact_free_energy(p, t) - 1e-9:
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 9 PASS: variational bound holds on 10^3 random draws")
