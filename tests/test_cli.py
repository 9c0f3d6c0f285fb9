import argparse
import ast
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import xyzent
from xyzent.cli import (
    _BLOCK,
    _FIGURES,
    LIMIT_COLUMNS,
    PARAM_KEYS,
    STATE_COLUMNS,
    _csv_blocks,
    _limit_table,
    _state_values,
    _sweep_model,
    build_parser,
    fmt,
    main,
    point_report,
)
from xyzent.entanglement import entanglement_of_formation, separability_exact
from xyzent.limits import limit_temperatures
from xyzent.meanfield import critical_temperature
from xyzent.model import _eigen_columns, canonicalize, eigensystem
from xyzent.states import _margin_columns, thermal_mixture

from conftest import log_uniform, random_canonical_params

ALPHA = 1.0 / math.log(1.0 + math.sqrt(2.0))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def limits_alone(p):
    """The limit values of one model, from its own limit_temperatures."""
    lt = limit_temperatures(p)
    window = lt.reentry
    return {
        "t_exact": lt.t_exact,
        "t_disorder": lt.t_disorder,
        "t_entropic": lt.t_entropic,
        "t_critical": p.t_critical,
        "reentry_lower": window.lower if window else None,
        "reentry_upper": window.upper if window else None,
        "reentry_two_level": window.two_level if window else None,
    }


def state_alone(p, temp):
    """The state values of one model at one temperature, from its own kernel column."""
    eig = eigensystem(p)
    m12, m03, dis, ent = _margin_columns(eig.gaps, eig.vm_ratio, eig.b_ratio, np.array([temp]))[:, 0]
    c = -min(m12, m03) if min(m12, m03) < 0.0 else 0.0
    return {
        "concurrence": c,
        "eof": entanglement_of_formation(c),
        "margin_12": m12,
        "margin_03": m03,
        "disorder_margin": dis,
        "entropic_margin": ent,
    }


def stacked(eigs):
    """The level gaps and ratios of EigenSystems, one column each, as
    model._eigen_columns lays them out: the tests build every
    model's eigensystem on its own, not in one batch."""
    gaps = np.stack([e.gaps for e in eigs], axis=1)
    return gaps, np.array([e.vm_ratio for e in eigs]), np.array([e.b_ratio for e in eigs])


#: a reentry window of nonzero width, an infeasible closed-form T_c (vz
#: above v_max) and a model separable at every temperature (Ising zz in a field)
REENTRY = canonicalize(1.0, 0.3, 0.0, 0.9)
INFEASIBLE_TC = canonicalize(0.3, 0.1, 1.0, 0.5)
SEPARABLE = canonicalize(0.0, 0.0, 1.0, 0.5)


class TestLimitTable:
    @pytest.mark.parametrize("seed", [381, 382, 383])
    def test_rows_are_the_one_model_records(self, seed):
        # each row holds the model's own limit_temperatures fields and
        # t_critical, NaN exactly where the record holds None
        rng = np.random.default_rng(seed)
        models = [random_canonical_params(rng) for _ in range(12)] + [REENTRY, INFEASIBLE_TC, SEPARABLE]
        models = [models[k] for k in rng.permutation(len(models))]
        table = _limit_table(models)
        assert table.shape == (len(models), len(LIMIT_COLUMNS) + 1)
        # the scan of given _eigen_columns is the same scan
        assert np.array_equal(_limit_table(models, _eigen_columns(models)), table, equal_nan=True)
        want = [limits_alone(p) for p in models]
        got = [[None if math.isnan(x) else x for x in row] for row in table.tolist()]
        assert got == [list(w.values()) for w in want]
        # the batch holds each kind of row
        assert any(w["reentry_lower"] is not None and w["reentry_lower"] < w["reentry_upper"] for w in want)
        assert any(w["t_critical"] is None and w["t_exact"] > 0.0 for w in want)
        assert any(w["t_exact"] == 0.0 and w["t_disorder"] is None for w in want)


class TestPoint:
    def test_case2_concurrence(self, capsys):
        code, out, _ = run(
            capsys, "point", "--vx", "1", "--vy", "-1", "--vz", "0", "--b", "0", "--temp", "1"
        )
        assert code == 0
        assert "concurrence: 0.068893290777" in out
        assert "violated=12" in out

    def test_free_spins_separable(self, capsys):
        code, out, _ = run(
            capsys, "point", "--vx", "0", "--vy", "0", "--vz", "0", "--b", "1", "--temp", "1"
        )
        assert code == 0
        assert "concurrence: 0\n" in out
        assert "separable" in out

    def test_zero_temperature_maximally_entangled_ground(self, capsys):
        # unique ground state in the antiparallel sector is a Bell state
        code, out, _ = run(
            capsys, "point", "--vx", "1.3", "--vy", "0.7", "--vz", "0", "--b", "0.1",
            "--temp", "0",
        )
        assert code == 0
        assert "concurrence: 1\n" in out

    def test_underflowed_weight_keeps_separable_verdict(self, capsys):
        # p1 = exp(-2/T)/Z underflows to 0, which drops the weights' cross
        # term sqrt(p1) sqrt(p2); the Gibbs state's amplitudes keep it
        # (m03 > 0), in the library as in `point`
        code, out, _ = run(
            capsys, "point", "--vx", "1", "--vy", "1", "--vz", "1.5", "--b", "1", "--temp", "0.0023"
        )
        assert code == 0
        assert "concurrence: 0\n" in out
        assert "exact: separable" in out and "violated" not in out
        rep = separability_exact(thermal_mixture(canonicalize(1.0, 1.0, 1.5, 1.0), 0.0023))
        assert not rep.entangled and rep.concurrence == 0.0 and rep.margin_03 == 3.001526704682303e-189, rep

    def test_json_roundtrip(self, capsys):
        args = ["point", "--vx", "1", "--vy", "-1", "--vz", "0.2", "--b", "0.4",
                "--temp", "0.8", "--format", "json"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        rep = json.loads(out)
        again = point_report(**rep["input"])
        assert json.dumps(rep) == json.dumps(again)

    def test_missing_temp_is_input_error(self, capsys):
        code, _, err = run(capsys, "point", "--vx", "1")
        assert code == 2
        assert "error:" in err

    def test_negative_temp_is_input_error(self, capsys):
        for temp in ("-1", "nan"):
            code, out, err = run(capsys, "point", "--temp", temp)
            assert code == 2 and out == "" and "temperature must be finite and >= 0" in err, temp

    def test_non_finite_is_input_error(self, capsys):
        code, _, _ = run(capsys, "point", "--vx", "nan", "--temp", "1")
        assert code == 2

    def test_product_diagonal_mixture_not_entropic_detected(self, capsys):
        # p1|++> + p2|--> is separable; its entropic margin is exactly 0
        code, out, _ = run(capsys, "point", "--vz", "1", "--b=1e-13", "--temp", "2.5e-13")
        assert code == 0
        assert "concurrence: 0\n" in out and "entropic: not detected margin=0\n" in out


class TestLimits:
    def test_xx_case(self, capsys):
        code, out, _ = run(capsys, "limits", "--vx", "1", "--vy", "1", "--b", "0.5")
        assert code == 0
        header, row = out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert abs(float(values["t_exact"]) - ALPHA) < 1e-5
        assert values["reentry_lower"] == ""
        # the certified closed form is the numeric T_c
        assert values["t_critical_numeric"] == values["t_critical_closed"] != ""

    @pytest.mark.parametrize(
        "model",
        [
            (1.0, 1.0, 0.0, 0.5),  # xx
            (1.0, 0.4, 0.1, 0.5),
            (1.0, -1.0, 0.0, 0.3),  # maximal anisotropy
            (1.7, 0.3, -0.2, 0.9),
            (1.0, 0.3, -0.9, 0.05),  # vz < 0, T_c > -vz/2
            (1e-300, 0.4e-300, 0.1e-300, 0.5e-300),
            (1e300, 0.4e300, -0.3e300, 0.5e300),
        ],
    )
    def test_certified_numeric_tc_is_the_closed_form(self, capsys, model):
        p = canonicalize(*model)
        assert p.t_critical_is_onset and p.t_critical is not None
        args = [f"--{k}={x!r}" for k, x in zip(PARAM_KEYS, model)]
        code, out, _ = run(capsys, "limits", *args, "--format=json")
        got = json.loads(out)
        assert code == 0 and got["t_critical_numeric"] == got["t_critical_closed"] == p.t_critical

    @pytest.mark.parametrize(
        "model, onset",
        [
            # Neel-z: the staggered z pair wins at every T < T_c
            pytest.param((0.865, 0.192, -2.775, 0.877), None, id="model0"),
            pytest.param((0.4276, 0.2210, -3.0231, 0.1091), None, id="model1"),
            pytest.param((1.0, 0.3, -1.2, 0.4), None, id="model2"),
            # the uniform x branch wins below a first-order crossing below T_c
            pytest.param((2.601, -2.094, -2.969, 1.518), 0.5121224172882678, id="crossing"),
        ],
    )
    def test_uncertified_numeric_tc_is_the_enumerated_onset(self, capsys, model, onset):
        p = canonicalize(*model)
        assert not p.t_critical_is_onset
        args = [f"--{k}={x!r}" for k, x in zip(PARAM_KEYS, model)]
        code, out, _ = run(capsys, "limits", *args, "--format=json")
        got = json.loads(out)
        assert code == 0 and got["t_critical_closed"] == p.t_critical
        assert got["t_critical_numeric"] == critical_temperature(p) == onset

    def test_reentry_columns(self, capsys):
        code, out, _ = run(capsys, "limits", "--vx", "1.7", "--vy", "0.3", "--b", "0.9")
        assert code == 0
        header, row = out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert abs(float(values["reentry_two_level"]) - 0.28733) < 1e-4
        assert float(values["reentry_lower"]) < float(values["reentry_upper"])

    def test_infeasible_mean_field_empty(self, capsys):
        # a field above the critical one; no transverse coupling at all
        for model, entangled in (
            (("--vx", "1", "--vy", "-1", "--b", "2"), True),
            (("--vz=-1",), False),
        ):
            code, out, _ = run(capsys, "limits", *model)
            assert code == 0, model
            header, row = out.strip().split("\n")
            values = dict(zip(header.split(","), row.split(",")))
            assert values["t_critical_closed"] == ""
            assert values["t_critical_numeric"] == ""
            assert (float(values["t_exact"]) > 0) == entangled, model

    def test_negative_scientific_notation_is_a_value(self, capsys):
        spaced = run(capsys, "limits", "--vx", "1", "--vy", "-4e-15")
        joined = run(capsys, "limits", "--vx", "1", "--vy=-4e-15")
        assert spaced[0] == 0 and spaced == joined

    def test_invalid_scan_settings_are_input_errors(self, capsys):
        # each model is scanned up to its own t_cut, so no flag sets a scan
        # range: --tmax, of any value, is an unknown flag, exit 2 with
        # nothing printed but argparse's usage and error
        for flag in ("--tmax=-1", "--tmax=30"):
            with pytest.raises(SystemExit) as exc:
                main(["limits", "--vx", "1", "--vy", "1", flag])
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "", flag
            assert out.err.endswith(f"error: unrecognized arguments: {flag}\n"), out.err


class TestSweep:
    def test_temperature_sweep_monotone(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "temp", "--from", "0.05", "--to", "2.0",
            "--steps", "40", "--vx", "1", "--vy", "-1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("temp,concurrence")
        c = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(c, c[1:]))

    def test_field_sweep_constant_limit(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "b", "--from", "0.0", "--to", "0.9",
            "--steps", "4", "--vx", "1", "--vy", "1", "--outputs", "limits",
        )
        assert code == 0
        lines = out.strip().split("\n")
        idx = lines[0].split(",").index("t_exact")
        te = [float(r.split(",")[idx]) for r in lines[1:]]
        assert max(te) - min(te) < 1e-5
        assert abs(te[0] - ALPHA) < 1e-5

    def test_sweep_matches_point(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "temp", "--from", "0.5", "--to", "1.5",
            "--steps", "3", "--vx", "1", "--vy", "-1",
        )
        rows = {r.split(",")[0]: r.split(",")[1] for r in out.strip().split("\n")[1:]}
        rep = point_report(1.0, -1.0, 0.0, 0.0, 1.0)
        assert rows["1"] == fmt(rep["concurrence"])

    def test_concurrence_and_eof_match_point_reports(self, rng):
        # point reads its exact fields off the same margin table, so the two
        # columns derived from them agree bit for bit, T = 0 and ground ties included
        ties = [canonicalize(1.0, 0.4, 0.4, 0.0), canonicalize(0.7, 0.7, -0.3, 0.0)]
        for p in ties + [random_canonical_params(rng) for _ in range(20)]:
            temps = np.concatenate([[0.0], log_uniform(rng, 1e-2, 1e1, size=6) * p.energy_scale])
            c, eof = _state_values(stacked([eigensystem(p)]), temps)[:, :2].T
            assert not np.signbit(c).any()  # never prints "-0"
            for k, t in enumerate(temps):
                rep = point_report(p.vx, p.vy, p.vz, p.b, float(t))
                assert c[k] == rep["concurrence"], (p, t)
                assert eof[k] == rep["eof"], (p, t)

    def test_parameter_axis_with_temp_defaults_to_state_and_limits(self, capsys):
        # with --temp and no --outputs a parameter-axis sweep prints both groups
        argv = ["sweep", "--axis=b", "--from=0", "--to=2", "--steps=5", "--vx=1.7", "--vy=0.3", "--temp=0.3"]
        code, default, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert run(capsys, *argv, "--outputs=state,limits") == (0, default, "")
        assert default.startswith("b,concurrence,") and "t_exact" in default.splitlines()[0]

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep", "--axis", "b", "--from", "0", "--to", "2", "--steps", "5",
                "--vx", "1.7", "--vy", "0.3", "--outputs", "limits"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("axis", ["b", "temp"])
    def test_axis_cannot_be_fixed(self, capsys, axis):
        fixed = {"b": "1", "temp": "0.3"}[axis]
        code, out, err = run(
            capsys, "sweep", "--axis", axis, f"--{axis}", fixed, "--from", "0", "--to", "1",
            "--steps", "3",
        )
        assert code == 2 and out == "" and f"axis parameter {axis!r} cannot also be fixed" in err

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "sweep", "--axis", "b", "--from", "1", "--to", "0", "--steps", "3")
        assert code == 2
        code, _, _ = run(capsys, "sweep", "--axis", "b", "--from", "0", "--to", "1", "--steps", "1")
        assert code == 2

    @pytest.mark.parametrize("steps", ["4611686018427387904", "99999999999999999999"])
    def test_too_many_steps_is_input_error(self, capsys, steps):
        # numpy refuses both sizes before allocating anything
        code, out, err = run(capsys, "sweep", "--axis=temp", "--from=0", "--to=1", "--vx=1", f"--steps={steps}")
        assert (code, out) == (2, "") and err.startswith(f"error: steps={steps} is too many") and err.count("\n") == 1

    def test_invalid_grid_is_input_error(self, capsys):
        # the scan takes no grid: --grid is an unknown flag of every subcommand
        for argv in (
            ["sweep", "--axis", "b", "--from", "0", "--to", "1", "--steps", "3", "--vx", "1", "--outputs", "limits"],
            ["limits", "--vx", "1", "--vy", "0.3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--grid", "64"])
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "", argv
            assert out.err.endswith("error: unrecognized arguments: --grid 64\n"), out.err

    def test_parameter_axis_matches_one_model_rows(self, capsys):
        # one limit scan and one state kernel call for all 41 rows, each row
        # as its model gives alone
        code, out, err = run(
            capsys, "sweep", "--axis", "b", "--from", "0", "--to", "2", "--steps", "41",
            "--vx", "1.7", "--vy", "0.3", "--outputs", "state,limits", "--temp", "0.3",
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) == 42
        for b, line in zip(np.linspace(0.0, 2.0, 41), lines[1:]):
            p = canonicalize(1.7, 0.3, 0.0, float(b))
            want = {**state_alone(p, 0.3), **limits_alone(p)}
            assert line == ",".join([fmt(b)] + [fmt(want[k]) for k in header[1:]]), b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "axis, start, stop",
        [("b", "-1e308", "1e308"), ("b", "0", "inf"), ("temp", "0", "inf"), ("vz", "-inf", "0"), ("b", "nan", "1")],
    )
    def test_non_finite_range_is_input_error(self, capsys, axis, start, stop):
        # rejected before np.linspace, which would warn and hand on a nan
        code, out, err = run(
            capsys, "sweep", f"--axis={axis}", f"--from={start}", f"--to={stop}", "--steps=3",
            "--vx=1", *(["--outputs=limits"] if axis != "temp" else []),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: need a finite range") and err.count("\n") == 1, err

    def test_tiny_field_splitting_is_not_degenerate(self, capsys):
        # Delta = 1e-13 is a real splitting of the aligned levels, resolved
        # at these temperatures; only Delta == 0 is degenerate
        temps = np.linspace(0.0, 1e-12, 5)
        code, out, err = run(
            capsys, "sweep", "--axis", "temp", "--from", "0", "--to", "1e-12", "--steps", "5",
            "--vz", "1", "--b=1e-13",
        )
        assert code == 0 and err == ""
        rows = out.strip().split("\n")[1:]
        assert [float(r.split(",")[0]) for r in rows] == list(temps)
        p = canonicalize(0.0, 0.0, 1.0, 1e-13)
        c, eof = _state_values(stacked([eigensystem(p)]), temps)[:, :2].T
        eps = np.finfo(float).eps
        for k, t in enumerate(temps):
            rep = point_report(0.0, 0.0, 1.0, 1e-13, float(t))
            assert abs(c[k] - rep["concurrence"]) <= 16 * eps, t
            assert abs(eof[k] - rep["eof"]) <= 16 * eps, t

    def test_negative_temperature_names_the_first(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--axis", "temp", "--from=-1", "--to", "1", "--steps", "5000", "--vx", "1",
        )
        assert code == 2 and out == ""
        assert "-1.0" in err and err.count("\n") == 1 and len(err) < 120, err

    def test_state_columns_need_temperature(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--axis", "b", "--from", "0", "--to", "1", "--steps", "3",
            "--outputs", "state",
        )
        assert code == 2 and "--temp" in err
        # and the converse: a temperature no column reads is not dropped
        code, out, err = run(
            capsys, "sweep", "--axis", "b", "--from", "0", "--to", "1", "--steps", "3",
            "--vx", "1", "--outputs=limits", "--temp=-1",
        )
        assert code == 2 and out == "" and "--temp" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_outputs_is_an_unknown_group(self, capsys, tmp_path, via):
        # an empty value names the group '', as `--outputs=,` does, not the default groups
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("outputs =\n")
        given = ["--outputs="] if via == "flag" else ["--config", str(cfg)]
        code, out, err = run(capsys, "sweep", "--axis=temp", "--from=0", "--to=1", "--steps=3", "--vx=1", *given)
        assert code == 2 and out == ""
        assert err == "error: unknown output group ''\n", err

    def test_v_minus_axis(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "v_minus", "--from", "0.1", "--to", "1.0",
            "--steps", "4", "--temp", "0.5", "--b", "0.3", "--outputs", "state",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--axis", "temp", "--from", "0.1", "--to", "1",
            "--steps", "3", "--vx", "1", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("temp,")


class TestConfig:
    def test_config_supplies_params(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        # keys that are not options of the subcommand are ignored
        cfg.write_text("# case 2\nvx = 1\nvy = -1\ntemp = 1\nfunc = x\ncommand = sweep\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg))
        assert code == 0
        assert "concurrence: 0.068893290777" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("vx = 1\nvy = -1\ntemp = 1\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg), "--temp", "1e9")
        assert code == 0
        assert "concurrence: 0\n" in out

    def test_abbreviated_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("temp = 2\nstart = 0.5\n")
        code, out, _ = run(capsys, "point", "--vx", "1", "--vy", "-1", "--te", "0.5", "--config", str(cfg))
        assert code == 0
        assert out.startswith("params: vx=1 vy=-1 vz=0 b=0 temp=0.5\n")
        # --from stores into `start`; the flag still wins over the file
        code, out, _ = run(
            capsys, "sweep", "--axis", "temp", "--from", "0.25", "--to", "1", "--steps", "2",
            "--vx", "1", "--config", str(cfg),
        )
        assert code == 0
        assert out.split("\n")[1].startswith("0.25,")

    def test_config_supplies_the_sweep_range(self, capsys, tmp_path):
        # the axis and range are required, but a config file may supply them
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = b\nstart = 0\nstop = 1\nsteps = 5\nvx = 1.7\nvy = 0.3\n")
        flags = ["--axis=b", "--from=0", "--to=1", "--steps=5", "--vx=1.7", "--vy=0.3"]
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and err == "" and (code, out, err) == run(capsys, "sweep", *flags)
        # and where neither gives one: one error line, exit 2, nothing printed
        cfg.write_text("axis = b\nstop = 1\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: sweep requires --from, --steps\n"), err
        assert run(capsys, "sweep", "--to=1") == (2, "", "error: sweep requires --axis, --from, --steps\n")

    def test_grid_key_is_ignored(self, capsys, tmp_path):
        # the scan takes no grid, so a grid key is read by no subcommand
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("grid = 64\n")
        argv = ["limits", "--vx", "1.7", "--vy", "0.3", "--b", "0.2"]
        assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv)

    def test_tol_key_is_ignored(self, capsys, tmp_path):
        # every limit is refined to adjacent floats, so no subcommand reads a
        # tolerance, not even an invalid one
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("tol = nan\n")
        for argv in (
            ["limits", "--vx", "1.7", "--vy", "0.3", "--b", "0.2"],
            ["sweep", "--axis=b", "--from=0", "--to=1", "--steps=3", "--vx=1"],
            ["figure", "fig2", "--steps", "3", "--out", str(tmp_path / "panels")],
        ):
            assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv), argv

    def test_tmax_key_is_ignored(self, capsys, tmp_path):
        # each model is scanned up to its own t_cut, so no subcommand reads a
        # scan range, not even an invalid one
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("tmax = -1\n")
        for argv in (
            ["limits", "--vx", "1.7", "--vy", "0.3", "--b", "0.2"],
            ["sweep", "--axis=b", "--from=0", "--to=1", "--steps=3", "--vx=1"],
            ["figure", "fig2", "--steps", "3", "--out", str(tmp_path / "panels")],
        ):
            assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv), argv

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "point", "--temp", "1", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3

    def test_non_utf8_config_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "point", "--temp", "1", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: config file") and err.count("\n") == 1, err

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("vx 1\n")
        code, _, _ = run(capsys, "point", "--temp", "1", "--config", str(cfg))
        assert code == 2
        # values are converted and checked as the flag's would be
        for command, line in (("limits", "format = xml"), ("limits", "vy = 10,5"), ("point", "temp = abc")):
            cfg.write_text(line + "\n")
            code, out, err = run(capsys, command, "--vx", "1", "--config", str(cfg))
            assert code == 2 and out == "" and f"config key {line.split()[0]!r}" in err, line


class TestFigure:
    def test_fig2_datasets(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "fig2", "--out", str(tmp_path), "--steps", "41",
        )
        assert code == 0
        center = (tmp_path / "fig2_center.csv").read_text().strip().split("\n")
        header = center[0].split(",")
        i_te, i_td = header.index("t_exact"), header.index("t_disorder")
        te = [float(r.split(",")[i_te]) for r in center[1:]]
        assert max(te) - min(te) < 1e-4  # field-independent
        assert abs(te[0] - ALPHA) < 1e-4
        # disorder limit vanishes approaching the level-crossing field b = v_plus
        rows = [r.split(",") for r in center[1:]]
        td = {float(r[0]): (float(r[i_td]) if r[i_td] else None) for r in rows}
        assert td[0.5] > 0.4
        near = [v for k, v in td.items() if 0.9 <= k < 1.0 and v is not None]
        assert near and max(near) < 0.25
        assert all(v is None for k, v in td.items() if k > 1.05)
        for name in ("fig2_top.csv", "fig2_bottom.csv"):
            assert (tmp_path / name).exists()

    def test_fig3_disorder_minimum(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "fig3", "--out", str(tmp_path), "--steps", "81",
        )
        assert code == 0
        center = (tmp_path / "fig3_center.csv").read_text().strip().split("\n")
        header = center[0].split(",")
        i_td = header.index("t_disorder")
        rows = [r.split(",") for r in center[1:]]
        b = np.array([float(r[0]) for r in rows])
        td = np.array([float(r[i_td]) for r in rows])
        b_min = b[np.argmin(td)]
        assert abs(b_min - 1.25) < 0.05

    def test_fig4_reentry_band(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "fig4", "--out", str(tmp_path), "--steps", "41",
        )
        assert code == 0
        center = (tmp_path / "fig4_center.csv").read_text().strip().split("\n")
        header = center[0].split(",")
        i_lo = header.index("reentry_lower")
        rows = [r.split(",") for r in center[1:]]
        populated = [float(r[0]) for r in rows if r[i_lo]]
        assert populated
        # windows live where v_plus/b is roughly in [0.9, 1.4]
        assert min(populated) > 1 / 1.45
        assert max(populated) < 1 / 0.85

    def test_invalid_grid_is_input_error(self, capsys, tmp_path):
        # --grid is an unknown flag: argparse exits 2 before any panel is written
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig2", "--out", str(tmp_path), "--steps", "5", "--grid=64"])
        assert exc.value.code == 2 and "unrecognized arguments: --grid=64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig2_center_limits_are_the_field_sweep_limits(self, capsys, tmp_path):
        # both commands build the same field floats and the same models, so
        # the limit columns are the same bytes
        assert run(capsys, "figure", "fig2", "--out", str(tmp_path))[0] == 0
        argv = ["--axis", "b", "--from", "0", "--to", "2", "--steps", "201", "--vx", "1", "--vy", "1"]
        code, out, err = run(capsys, "sweep", *argv, "--outputs", "limits")
        assert code == 0 and err == ""
        center = (tmp_path / "fig2_center.csv").read_text().splitlines()
        sweep = out.splitlines()
        assert len(center) == len(sweep) == 202
        n = len(LIMIT_COLUMNS)
        assert [line.split(",")[2 : 2 + n] for line in center] == [line.split(",")[1:] for line in sweep]

    def test_fig4_matches_one_model_rows(self, capsys, tmp_path):
        # centre and bottom panels come from one limit scan and one kernel
        # call; every row must be what its model gives alone
        code, _, err = run(capsys, "figure", "fig4", "--out", str(tmp_path), "--steps", "41")
        assert code == 0 and err == ""
        center = (tmp_path / "fig4_center.csv").read_text().strip().split("\n")
        bottom = (tmp_path / "fig4_bottom.csv").read_text().strip().split("\n")
        assert len(center) == len(bottom) == 42
        keys = ("t_exact", "t_disorder", "t_entropic", "t_critical")
        for ratio, c_line, b_line in zip(np.linspace(0.0, 2.0, 41), center[1:], bottom[1:]):
            p = canonicalize(1.7, 0.3, 0.0, float(ratio))
            want = limits_alone(p)
            head = [fmt(ratio), fmt(1.0 / ratio if ratio > 0.0 else None)]
            assert c_line == ",".join(head + [fmt(v) for v in want.values()]), ratio
            c = [state_alone(p, want[k])["concurrence"] if want[k] else None for k in keys]
            assert b_line == ",".join(head + [fmt(x) for x in c]), ratio

    def test_too_few_steps_is_input_error(self, capsys, tmp_path):
        for steps in ("-1", "0", "1"):
            out_dir = tmp_path / steps
            code, out, err = run(capsys, "figure", "fig2", "--out", str(out_dir), f"--steps={steps}")
            assert code == 2 and out == "" and "steps must be >= 2" in err, steps
            assert not out_dir.exists()  # no panel written before validation

    def test_missing_out_is_input_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "figure", "fig2", "--steps", "3")
        assert code == 2 and out == "" and err == "error: figure requires --out\n"
        assert list(tmp_path.iterdir()) == []
        # the config file may supply it
        (tmp_path / "fig.cfg").write_text("out = panels\n")
        code, _, _ = run(capsys, "figure", "fig2", "--steps", "3", "--config", "fig.cfg")
        assert code == 0 and (tmp_path / "panels" / "fig2_center.csv").exists()

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, _ = run(capsys, "figure", "fig2", "--out", "/proc/nope/dir", "--steps", "5")
        assert code == 3


#: every value each subcommand can set, positionals included
OPTIONS = {
    "point": ["vx", "vy", "vz", "b", "temp", "format", "out", "config"],
    "limits": ["vx", "vy", "vz", "b", "format", "out", "config"],
    "sweep": [
        "vx", "vy", "vz", "b", "temp",
        "axis", "start", "stop", "steps", "outputs", "out", "config",
    ],
    "figure": ["which", "steps", "out", "config"],
}


class TestOptions:
    """Each subcommand takes only the options it reads."""

    def test_settable_values(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            for name, sub in subs.choices.items()
        }
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 31

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("point", "--tmax=-3"),
            # each model is scanned up to its own t_cut: no flag sets a range
            ("sweep", "--tmax=30"),
            ("sweep", "--tm=3"),
            ("figure", "--tmax=30"),
            ("point", "--grid=10"),
            ("point", "--tol=-1"),
            ("limits", "--temp=nan"),
            ("limits", "--tol=1e-6"),
            ("sweep", "--tol=nan"),
            ("figure", "--tol=0"),
            ("sweep", "--format=json"),
            ("figure", "--vx=5"),
            ("figure", "--vy=1"),
            ("figure", "--vz=1"),
            ("figure", "--b=1"),
            ("figure", "--temp=1"),
            ("figure", "--format=json"),
        ],
    )
    def test_unread_flag_is_input_error(self, capsys, tmp_path, command, flag):
        base = {
            "point": ["--temp", "0.5"],
            "limits": ["--vx", "1"],
            "sweep": ["--axis", "temp", "--from", "0.1", "--to", "1", "--steps", "3", "--vx", "1"],
            "figure": ["fig2", "--steps", "3", "--out", str(tmp_path / "panels")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *base, flag])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith(f"error: unrecognized arguments: {flag}\n"), out.err
        assert list(tmp_path.iterdir()) == []


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "xyzent"]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_readme_library_sketch_runs():
    # every line runs, and each value a comment states is what the line gives
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, stated = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        number = re.search(r"#\D*(\d+\.(\d+))", lines[node.lineno - 1])
        if number:
            stated += 1
            assert abs(value - float(number[1])) <= 0.5 * 10.0 ** -len(number[2]), (source, value)
    assert stated >= 4


def per_cell_csv(columns, rows) -> str:
    """A CSV table as the CLI wrote it before its block writer: each cell
    through fmt, joined row by row."""
    lines = [",".join(columns)] + [",".join(fmt(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def block_csv(columns, rows) -> str:
    return "".join(line + "\n" for line in _csv_blocks(columns, rows))


def reference_sweep(argv) -> str:
    """The sweep table of argv (which names --outputs) as the CLI wrote it
    before its block writer: columns filled as then, each cell through fmt."""
    args = build_parser().parse_args(["sweep", *argv])
    groups = [g.strip() for g in args.outputs.split(",")]
    values = np.linspace(args.start, args.stop, args.steps)
    columns = [args.axis]
    if args.axis == "temp":
        models = [canonicalize(args.vx, args.vy, args.vz, args.b)]
    else:
        models = [_sweep_model(args, float(v)) for v in values]
    cols = {args.axis: values}
    if "state" in groups:
        columns += STATE_COLUMNS
        temps = values if args.axis == "temp" else np.full(values.size, args.temp)
        cols.update(zip(STATE_COLUMNS, _state_values(stacked([eigensystem(p) for p in models]), temps).T))
    if "limits" in groups:
        columns += LIMIT_COLUMNS
        lims = [limits_alone(p) for p in models] * (values.size // len(models))
        cols.update((k, [lim[k] for lim in lims]) for k in LIMIT_COLUMNS)
    return per_cell_csv(columns, ([cols[c][i] for c in columns] for i in range(values.size)))


def reference_figure(which, steps) -> dict:
    """The three panels of a figure as the CLI wrote them before its block
    writer, each cell through fmt."""
    v_plus, v_minus, top_fields = _FIGURES[which]
    vx, vy = v_plus + v_minus, v_plus - v_minus
    temps = np.linspace(0.0, 2.5, 501)[1:]
    top = []
    for b in top_fields:
        c = _state_values(stacked([eigensystem(canonicalize(vx, vy, 0.0, b))]), temps)[:, 0]
        top += ((b, t, x) for t, x in zip(temps, c))
    v_unit = v_plus if v_plus > 0.0 else v_minus
    fields = np.linspace(0.0, 2.0, steps) * v_unit
    models = [canonicalize(vx, vy, 0.0, float(b)) for b in fields]
    lims = [limits_alone(p) for p in models]
    keys = ("t_exact", "t_disorder", "t_entropic", "t_critical")
    ts = np.array([[lim[k] or 0.0 for k in keys] for lim in lims])
    eigs = [e for e in map(eigensystem, models) for _ in keys]
    c = _state_values(stacked(eigs), ts.ravel())[:, 0].reshape(ts.shape)
    c = np.where(ts > 0.0, c, np.nan)
    center, bottom = [], []
    for b, lim, c_row in zip(fields, lims, c):
        ratio = b / v_unit
        inv = 1.0 / ratio if ratio > 0.0 else None
        center.append((ratio, inv, *lim.values()))
        bottom.append((ratio, inv, *c_row))
    return {
        "top": per_cell_csv(("b", "temp", "concurrence"), top),
        "center": per_cell_csv(("b_over_v", "v_over_b", *LIMIT_COLUMNS, "reentry_two_level"), center),
        "bottom": per_cell_csv(("b_over_v", "v_over_b", *(f"c_at_{k}" for k in keys)), bottom),
    }


#: values whose fmt rendering is an edge case: signed zeros, subnormals,
#: the ends of the float range, and the absent and non-finite values
EDGE_CELLS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, -1e-308, 1e-300, 1e300,
    float("nan"), float("inf"), float("-inf"), None,
)


class TestFormatting:
    def test_fmt(self):
        assert fmt(None) == ""
        assert fmt(float("inf")) == ""
        assert fmt(0.5) == "0.5"
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(1.134592657106511) == "1.13459265711"

    # no shrinking: an example holds up to 65,000 cells, so shrinking one
    # takes minutes; the list comparison names the first differing line
    @settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000]),
        width=st.integers(1, 13),
        cells=st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_CELLS)), min_size=1, max_size=24),
        absent=st.sampled_from([0.0, 1e-4, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=5000, width=7, cells=list(EDGE_CELLS), absent=0.3, seed=1)
    @example(rows=_BLOCK + 1, width=3, cells=[1.5, -0.0, 5e-324], absent=1e-4, seed=2)
    def test_block_writer_matches_per_cell_fmt(self, rows, width, cells, absent, seed):
        # each cell is drawn from cells, or is None with probability absent,
        # so blocks with and without a non-finite value alternate
        rng = np.random.default_rng(seed)
        picks = rng.integers(len(cells), size=(rows, width)).tolist()
        gaps = (rng.random((rows, width)) < absent).tolist()
        table = [[None if gap else cells[k] for k, gap in zip(*row)] for row in zip(picks, gaps)]
        columns = [f"c{j}" for j in range(width)]
        want = per_cell_csv(columns, table).splitlines(keepends=True)
        assert block_csv(columns, table).splitlines(keepends=True) == want
        assert block_csv(columns, np.array(table, dtype=float)).splitlines(keepends=True) == want

    @pytest.mark.parametrize("axis", ["temp", "b", "v_plus", "v_minus", "vz"])
    @pytest.mark.parametrize("outputs", ["state", "limits", "state,limits", "limits, state"])
    def test_sweep_matches_per_cell_reference(self, capsys, axis, outputs):
        span = ["--from=0", "--to=2"] if axis == "temp" else ["--from=-0.5", "--to=2"]
        argv = [f"--axis={axis}", *span, "--steps=9", f"--outputs={outputs}"]
        argv += [f"--{k}={v}" for k, v in (("vx", 1.7), ("vy", 0.3), ("vz", 0.2), ("b", 0.9)) if k != axis]
        if axis != "temp" and "state" in outputs:
            argv.append("--temp=0.3")
        code, out, _ = run(capsys, "sweep", *argv)
        assert code == 0
        assert out == reference_sweep(argv), argv
        assert "nan" not in out and "inf" not in out

    @pytest.mark.parametrize("which", sorted(_FIGURES))
    def test_figure_matches_per_cell_reference(self, capsys, tmp_path, which):
        code, _, _ = run(capsys, "figure", which, "--steps", "5", "--out", str(tmp_path))
        assert code == 0
        want = reference_figure(which, 5)
        for panel in ("top", "center", "bottom"):
            assert (tmp_path / f"{which}_{panel}.csv").read_text() == want[panel], panel


def run_child(preexec_fn, *argv):
    """(exit code, standard error) of one fresh `python -W error -m
    xyzent.cli argv`, standard output discarded, with no thread count for
    OpenBLAS but the program's own and preexec_fn run in the child first."""
    src = os.path.dirname(os.path.dirname(xyzent.__file__))
    env = {k: v for k, v in os.environ.items() if k not in xyzent._BLAS_THREADS}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    cmd = [sys.executable, "-W", "error", "-m", "xyzent.cli", *argv]
    out = subprocess.run(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, preexec_fn=preexec_fn
    )
    return out.returncode, out.stderr


def test_allocation_failure_is_input_error():
    resource = pytest.importorskip("resource")
    # 768 MiB of address space: the 2e7-step grid (160 MB) is allocated,
    # the (4, 2e7) Gibbs weights of the temperature axis (640 MB) are not
    limit = 768 * 2**20
    code, err = run_child(
        lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        "sweep", "--axis=temp", "--from=0", "--to=2", "--steps=20000000", "--vx=1.7", "--vy=0.3", "--b=0.9",
        "--out=/dev/null",
    )
    assert code == 2 and err.startswith("error: out of memory (") and err.count("\n") == 1, err


def test_closed_standard_output_is_io_error():
    code, err = run_child(lambda: os.close(1), "point", "--vx=1", "--vy=0.3", "--temp=0.5")
    assert (code, err) == (3, "error: standard output is closed\n")


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(xyzent.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, xyzent.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
