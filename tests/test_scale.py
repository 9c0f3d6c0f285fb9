"""Outputs are homogeneous in the energy unit.

Multiplying every coupling, the field and the temperature by lam leaves
concurrences and margins unchanged and scales every temperature by lam,
for lam from 1e-300 to 1e300 (pytest turns every warning into an error).
Energy scales above model.MAX_ENERGY_SCALE, or nonzero and below
model.MIN_ENERGY_SCALE, are rejected as input errors.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xyzent import limits
from xyzent.cli import main
from xyzent.errors import OutOfRange
from xyzent.limits import _limit_records, limit_temperatures, reentry_two_level
from xyzent.linalg import exact_free_energy
from xyzent.meanfield import critical_temperature, solve_mf
from xyzent.model import MAX_ENERGY_SCALE, MIN_ENERGY_SCALE, canonicalize, eigensystem
from xyzent.states import _margin_columns, thermal_mixture

from conftest import NEEL_Z_MODELS, log_uniform, neel_z_family, random_canonical_params, tiny_coupling_family

#: (vx, vy, vz, b) whose small-scale copies once came out degenerate
MODEL = (1.3, -0.4, 0.2, 0.7)
#: a model near the top of the float range, whose level gaps over T = 1e-10
#: overflow: its ground state |Phi_3> is a Bell state
HUGE = (1e300, 3e299, 0.0, 1e299)
#: runs near the energy-scale bound with Delta close to v_minus, where the
#: two-level gap temperature (E_3 - E_2)/ln(Delta/v_minus) overflows
NEAR_CROSSING_AT_THE_BOUND = [
    ["limits", "--vx=2.8e306", "--vy=-1.2e306", "--vz=2.8e306", "--b=2e305", "--format=csv"],
    ["sweep", "--axis=b", "--from=0", "--to=2.8e306", "--steps=5", "--vx=2.8e306", "--vy=-2.8e306",
     "--vz=2.8e306", "--outputs=limits"],
]


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
        eq, ep = eigensystem(q), eigensystem(p)
        table = _margin_columns(eq.gaps, eq.vm_ratio, eq.b_ratio, ts * lam)
        assert np.abs(table - _margin_columns(ep.gaps, ep.vm_ratio, ep.b_ratio, ts)).max() <= 1e-13, (p, k)

        lt, lt_q = limit_temperatures(p), limit_temperatures(q)
        assert_same_limits(limits_over(lt_q, lam), limits_over(lt, 1.0), 1e-12)

        t = float(log_uniform(rng, 5e-2, 1e1)) * p.energy_scale
        got, want = solve_mf(q, t * lam), solve_mf(p, t)
        assert (got.broken_phase_flip, got.broken_permutation) == (want.broken_phase_flip, want.broken_permutation)
        for name in ("lambda_a", "lambda_b"):
            assert_allclose(getattr(got, name) / lam, getattr(want, name), rtol=1e-12, atol=1e-12 * p.energy_scale)
        assert_allclose([got.s_a, got.s_b], [want.s_a, want.s_b], rtol=0.0, atol=1e-12)
        assert abs(got.free_energy / lam - want.free_energy) <= 1e-12 * p.energy_scale, (p, k)


@pytest.mark.parametrize("k", [-1000, -40, 40, 1000])
def test_mean_field_is_exact_at_powers_of_two(k):
    # every mean-field formula is a ratio of couplings, fields and T, so at
    # the energy unit 2^k the onset, fields and free energy are 2^k times
    # those at unit scale and the spins the same, bit for bit
    lam = 2.0**k
    for p in [*NEEL_Z_MODELS, *neel_z_family()]:
        q = scaled(p, lam)
        unit = critical_temperature(p)
        onset = critical_temperature(q)
        assert (onset is None and unit is None) or onset == lam * unit, (p, k)
        for t in (0.5 * p.t_critical, 0.99 * (unit or p.t_critical), 1.01 * (unit or p.t_critical)):
            got, want = solve_mf(q, lam * t), solve_mf(p, t)
            assert got.free_energy == lam * want.free_energy, (p, k, t)
            for name in ("lambda_a", "lambda_b"):
                assert np.array_equal(getattr(got, name), lam * getattr(want, name)), (p, k, t, name)
            assert np.array_equal([got.s_a, got.s_b], [want.s_a, want.s_b]), (p, k, t)


def test_numeric_critical_temperature_at_three_scales():
    p = canonicalize(1.0, 0.3, 0.1, 0.4)
    unit = critical_temperature(p)
    for lam in (1e-300, 1e-14, 1e300):
        t_c = critical_temperature(scaled(p, lam))
        assert t_c is not None and abs(t_c / lam - unit) <= 1e-9 * unit, lam


def test_no_overflow_far_below_the_level_gaps(capsys):
    argv = [f"--{k}={x!r}" for k, x in zip(("vx", "vy", "vz", "b"), HUGE)]
    assert main(["point", *argv, "--temp=1e-10"]) == 0
    out, err = capsys.readouterr()
    assert "weights: p0=0 p1=0 p2=0 p3=1\n" in out and "concurrence: 1\n" in out and err == ""
    assert main(["sweep", "--axis=temp", "--from=1e-10", "--to=2e-10", "--steps=2", *argv]) == 0
    out, err = capsys.readouterr()
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["1", "1"] and err == ""

    p = canonicalize(*HUGE)
    eig = eigensystem(p)
    cold = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([0.0, 1e-10]))
    assert np.array_equal(cold[:, 1], cold[:, 0])
    assert exact_free_energy(p, 1e-10) == eig.energies.min()


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--vx=1e308", "--vy=1e308", "--temp=1"],
        ["sweep", "--axis=b", "--from=0", "--to=1", "--steps=3", "--vx=1e308", "--vy=-1e308",
         "--outputs=state", "--temp=1"],
        ["limits", "--vx=1", "--b=1e308"],
    ],
)
def test_energy_scale_above_the_bound_is_input_error(capsys, argv):
    # v_plus, v_minus and the level gaps would overflow here
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: energy scale") and err.count("\n") == 1, err


def test_energy_scale_bound_is_inclusive(capsys):
    top = MAX_ENERGY_SCALE
    assert canonicalize(top, -top, top, top).vz == top
    with pytest.raises(OutOfRange):
        canonicalize(0.0, 0.0, 0.0, -math.nextafter(MAX_ENERGY_SCALE, math.inf))
    # just below the bound the Bell ground state is still found, warning-free
    assert main(["point", "--vx=2.8e306", "--vy=2.8e306", "--temp=1"]) == 0
    out, err = capsys.readouterr()
    assert "concurrence: 1\n" in out and err == ""


def _scaled_flag(arg, lam):
    key, _, value = arg.partition("=")
    return f"{key}={lam * float(value)!r}" if key in ("--vx", "--vy", "--vz", "--b", "--from", "--to") else arg


@pytest.mark.parametrize("argv", NEAR_CROSSING_AT_THE_BOUND)
def test_overflowing_gap_temperature_is_undefined(capsys, argv):
    # warning-free, and every printed temperature (and field) is the
    # 1e-10-scaled run's times 1e10
    def run(argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        head, *rows = out.splitlines()
        return head, [[float(x) if x else None for x in row.split(",")] for row in rows]

    small = [_scaled_flag(a, 1e-10) for a in argv]
    assert small != argv
    (head, got), (head_small, want) = run(argv), run(small)
    assert head == head_small and len(got) == len(want) >= 1
    for row, row_small in zip(got, want):
        assert [x is None for x in row] == [x is None for x in row_small], (row, row_small)
        for x, y in zip(row, row_small):
            assert x is None or abs(x - 1e10 * y) <= 1e-9 * abs(1e10 * y), (head, row, row_small)


def test_gap_temperature_when_delta_over_v_minus_overflows():
    # Delta / v_minus = 2e600 overflows, but ln Delta - ln v_minus does not:
    # t_r = (E_3 - E_2) / (ln 1e300 - ln 5e-301), not gap / inf = 0
    p = canonicalize(1e-300, 0.0, 0.0, 1e300)
    t_r = reentry_two_level(p)
    assert t_r == pytest.approx(7.2346116398699e296, rel=1e-12)
    e = eigensystem(p).energies
    assert t_r == pytest.approx((e[3] - e[2]) / (math.log(1e300) - math.log(5e-301)), rel=1e-15)
    assert limit_temperatures(p).t_exact == 0.0
    # where the ratio is finite the logarithm of the quotient stays, bit for bit;
    # the gap E_3 - E_2 is the level gap of EigenSystem.gaps
    for model in ((1.7, 0.3, 0.0, 0.9), (1e-150, 0.0, 0.0, 1e150), (1.0, 0.5, 0.2, 0.8)):
        q = canonicalize(*model)
        eig = eigensystem(q)
        assert reentry_two_level(q) == float(eig.gaps[3]) / math.log(eig.delta / q.v_minus), model


def _commands_at(scale):
    """A run of every command that takes couplings, on a model whose energy
    scale is scale (figure takes none)."""
    vx, vy, b, t = (repr(f * scale) for f in (1.0, 0.3, 0.2, 0.5))
    return [
        ["point", f"--vx={vx}", f"--vy={vy}", f"--b={b}", f"--temp={t}"],
        ["limits", f"--vx={vx}", f"--vy={vy}", f"--b={b}", "--format=json"],
        ["sweep", "--axis=b", "--from=0", f"--to={b}", "--steps=3", f"--vx={vx}", f"--vy={vy}"],
        ["sweep", "--axis=temp", "--from=0", f"--to={t}", "--steps=3", f"--vx={vx}", f"--vy={vy}", f"--b={b}"],
    ]


def test_energy_scale_below_the_bound_is_input_error(capsys):
    below = math.nextafter(MIN_ENERGY_SCALE, 0.0)
    # at the bound every command runs warning-free, and limit temperatures stay homogeneous
    for argv in _commands_at(MIN_ENERGY_SCALE):
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out and err == "", (argv, err)
        if argv[0] == "limits":
            row = json.loads(out)
            assert row["t_critical_numeric"] > 0.0 and row["t_critical_closed"] > 0.0, row
    lt, unit = (limit_temperatures(canonicalize(*(lam * x for x in MODEL))) for lam in (MIN_ENERGY_SCALE, 1.0))
    assert_same_limits(limits_over(lt, MIN_ENERGY_SCALE), limits_over(unit, 1.0), 1e-15)
    # below it (subnormal couplings included) each exits 2 with one line
    for argv in _commands_at(below) + [["limits", "--vx=5e-324"], ["limits", "--vx=1e-310", "--vy=3e-311"]]:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: energy scale") and err.count("\n") == 1, (argv, err)
    for vals in [(below, 0.0, 0.0, 0.0), (0.0, 0.0, -below, 0.0), (5e-324, 0.0, 0.0, 0.0)]:
        with pytest.raises(OutOfRange):
            canonicalize(*vals)
    # the all-zero model stays valid
    assert canonicalize(0.0, -0.0, 0.0, 0.0).energy_scale == 0.0
    assert main(["limits", "--vx=0"]) == 0 and capsys.readouterr().err == ""


#: models whose v_minus/Delta is far below 1e-154: the floored vm^2 leads the
#: disorder sum beside terms of order 1
TINY_V_MINUS = [(5.827409141637327e-243, 0.0, -0.1857535470761426, 0.6916237397697178)] + [
    (1e-200, 0.0, 0.3, b) for b in (0.25, 0.5, 0.75, 1.0)
]


def test_limit_scan_at_tiny_v_minus_over_delta(capsys):
    # the bracket end past the lead of the disorder sum, log1p(others/lead),
    # overflowed, and the NaN gave a t_disorder of 0 with five warnings.  The
    # values are what the kernel's signs give, and the 600-digit reference
    # of the next test shows the disorder ones wrong: the exact edge is
    # certified on its two floats, and the disorder row reads 0.0 at T = 0
    # and above (its ground margin, about -(v_minus/Delta)^2/4 there,
    # underflows) and detects only at T = 0, by the sign of its sum's leading
    # coefficient, so t_disorder is the least float, not the margin's zero
    ps = [canonicalize(*m) for m in TINY_V_MINUS]
    for m, p, lt in zip(TINY_V_MINUS, ps, _limit_records(ps)):
        eig = eigensystem(p)
        assert lt.intervals == ((0.0, lt.t_exact),) and lt.t_exact > 0.0, (m, lt)
        ts = np.array([lt.t_exact, math.nextafter(lt.t_exact, 0.0)])
        near = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, ts)
        assert near[:2, 0].min() >= 0.0 > near[:2, 1].min(), (m, near)
        cold = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([0.0, 5e-324]))
        assert lt.t_disorder == 5e-324 and not cold[2].any(), (m, lt)
        assert lt.t_entropic is None and lt.reentry is None, (m, lt)
    argv = ["sweep", "--axis=b", "--from=0", "--to=1", "--steps=5", "--vx=1e-200", "--vz=0.3", "--outputs=limits"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and [row.split(",")[2] for row in out.splitlines()[1:]] == ["", *["4.94065645841e-324"] * 4]


#: the disorder limits of TINY_V_MINUS at 600 digits (mpmath, from the same
#: float couplings): the Gibbs state of the dense Hamiltonian, its
#: majorization margin lambda_max(rho_A) - lambda_max(rho), and bisection of
#: its one sign change in T on [1e-8, 1]
TINY_V_MINUS_T_DISORDER = [
    4.52653377136289e-4, 5.97154912616971e-4, 8.67283571956975e-4, 1.13730984150312e-3, 1.40722090914379e-3
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the ground disorder margin, about -(v_minus/Delta)^2/4, underflows to 0.0, so t_disorder is the least float",
)
def test_tiny_v_minus_disorder_limits_match_the_600_digit_reference():
    ps = [canonicalize(*m) for m in TINY_V_MINUS]
    for m, lt, ref in zip(TINY_V_MINUS, _limit_records(ps), TINY_V_MINUS_T_DISORDER):
        assert lt.t_disorder is not None and abs(lt.t_disorder - ref) <= 1e-9 * ref, (m, lt.t_disorder, ref)


def test_refinement_halves_brackets_in_floats(capsys, monkeypatch):
    # the TINY_V_MINUS disorder edges lie on the least float, 5e-324, refined from
    # brackets [0, ~1e-3]: halved as numbers, they took about a thousand
    # kernel calls to reach adjacent floats; halved in the floats' order,
    # under a hundred
    calls, kernel = [], limits._margin_columns
    monkeypatch.setattr(limits, "_margin_columns", lambda *args: calls.append(1) or kernel(*args))
    argv = ["sweep", "--axis=b", "--from=0", "--to=1", "--steps=5", "--vx=1e-200", "--vz=0.3", "--outputs=limits"]
    assert main(argv) == 0
    assert capsys.readouterr().err == "" and len(calls) < 200, len(calls)


def test_staggered_pair_far_below_the_couplings():
    # the uniform z root, about 2T atanh(b/|vz|), was bisected in units of
    # b + |vz|, below whose least multiple it lay: it read 1.04e-23 at every
    # T <= 1e-200, the staggered pair's existence test failed, and the
    # uniform x branch (F = -5.02e299) was returned
    p = canonicalize(1e300, 3e299, -2e300, 1e299)
    for t in (1e-10, 1e-300, 5e-324):
        sol = solve_mf(p, t)
        assert sol.broken_permutation and not sol.broken_phase_flip and sol.free_energy == -1e300, (t, sol)


def test_mean_field_at_tiny_v_max():
    # (b/vx)^2 overflowed in the canted pair (OverflowError); the onset
    # bisection's lower end t_c eps underflowed to T = 0 (exit 2); and
    # T_c = 0.5 * 5e-324 rounded to 0.0, below which no temperature lies
    p = canonicalize(1e-300, 0.0, -1.0, 0.5)
    assert p.t_critical == 4.551196133134188e-301 and critical_temperature(p) is None
    p = canonicalize(1e-310, 0.0, -1.0, 0.0)
    assert p.t_critical == 5e-311 and critical_temperature(p) is None
    assert canonicalize(5e-324, 0.0, -1.0, 0.0).t_critical is None


def test_tiny_transverse_couplings_exit_cleanly(capsys):
    # each model (three of them Neel-z, whose onset the mean field places)
    # prints its limits without a warning, a NaN or a T_c of 0
    for m in tiny_coupling_family(24):
        code = main(["limits", *(f"--{k}={x!r}" for k, x in zip(("vx", "vy", "vz", "b"), m)), "--format=json"])
        out, err = capsys.readouterr()
        row = json.loads(out)
        assert code == 0 and err == "" and "NaN" not in out, (m, err, out)
        for t_c in (row["t_critical_closed"], row["t_critical_numeric"]):
            assert t_c is None or t_c > 0.0, (m, row)
