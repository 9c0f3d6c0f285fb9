"""Output checks for benchmark ops, run outside the timed region.

Each check returns a list of failure messages (empty means the op
passed).  The oracles are independent of the code path the CLI took:

- homogeneity: an op at energy scale lam must equal lam times the
  library result for the unit-scale model (concurrences and margins
  unchanged);
- the criterion hierarchy t_entropic <= t_disorder <= t_exact, and at
  the state level entropic detection => disorder detection =>
  entanglement;
- closed forms: the mean-field T_c formula, `closed_form_limits` for
  the xx and max-anisotropy cases, and numeric T_c against closed T_c;
- the matrix route `concurrence_general(realize_matrix(m))` on sampled
  thermal states, and zero concurrence at t_exact.

The module also digests outputs for the stored reference comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

import workloads
import xyzent as xe

#: relative tolerance for temperatures (bisection stops at 1e-10 relative)
T_REL = 1e-8
#: numeric T_c bisects the solver onset to 1e-6 relative
TC_NUMERIC_REL = 2e-6
#: absolute tolerance for concurrences and margins printed with 12 digits
STATE_ABS = 1e-9
#: the matrix route zeroes eigenvalues of rho * rho~ below 64 eps before
#: taking square roots, so near pure states each of the three small ones
#: can drop up to sqrt(64 eps) ~ 1.2e-7 from the concurrence
MATRIX_ABS = 4e-7
#: concurrence left at a limit temperature refined to 1e-10 relative
C_AT_LIMIT = 1e-7
#: relative tolerance for an echoed grid value printed with 12 digits
GRID_REL = 1e-11

LIMIT_HEADER = ["b", "t_exact", "t_disorder", "t_entropic", "t_critical", "reentry_lower", "reentry_upper"]
STATE_HEADER = [
    "temp",
    "concurrence",
    "eof",
    "margin_12",
    "margin_03",
    "disorder_margin",
    "entropic_margin",
]


def parse_csv(text: str) -> tuple[list[str], list[list[float | None]]]:
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
    return header, rows


def _rel(a: float | None, b: float | None) -> float:
    """Relative difference; 0 for two absent values, inf for one."""
    if a is None or b is None:
        return 0.0 if a is None and b is None else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def tc_closed(vx: float, vy: float, vz: float, b: float) -> float | None:
    """T_c = v_max chi / ln[(1 + chi)/(1 - chi)], chi = |b|/(v_max - vz),
    written out here from the formula rather than taken from meanfield."""
    v_max = abs(vx + vy) / 2 + abs(vx - vy) / 2
    if not (v_max > vz and abs(b) < v_max - vz):
        return None
    chi = abs(b) / (v_max - vz)
    return 0.5 * v_max if chi == 0.0 else v_max * chi / math.log((1 + chi) / (1 - chi))


def _hierarchy(t_exact, t_disorder, t_entropic) -> str | None:
    """t_entropic <= t_disorder <= t_exact, with absent meaning 'never fires'."""
    slack = 1.0 + T_REL
    if t_entropic is not None and (t_disorder is None or t_entropic > t_disorder * slack):
        return f"t_entropic {t_entropic!r} above t_disorder {t_disorder!r}"
    if t_disorder is not None and (t_exact is None or t_disorder > t_exact * slack):
        return f"t_disorder {t_disorder!r} above t_exact {t_exact!r}"
    return None


def _library_limits(vx, vy, vz, b) -> dict:
    lt = xe.limit_temperatures(xe.canonicalize(vx, vy, vz, b))
    return {
        "t_exact": lt.t_exact,
        "t_disorder": lt.t_disorder,
        "t_entropic": lt.t_entropic,
        "reentry_lower": lt.reentry.lower if lt.reentry else None,
        "reentry_upper": lt.reentry.upper if lt.reentry else None,
        "reentry_two_level": lt.reentry.two_level if lt.reentry else None,
    }


def _homogeneous(got: dict, unit: dict, lam: float, where: str) -> list[str]:
    out = []
    for key, u in unit.items():
        expect = None if u is None else lam * u
        if _rel(got[key], expect) > T_REL:
            out.append(f"{where}: {key} {got[key]!r} != lam * {u!r} (lam {lam!r})")
    return out


def _sample(n: int, k: int, tag: str) -> list[int]:
    """k row indices out of n, fixed for a given op."""
    return sorted(random.Random(tag).sample(range(n), min(k, n)))


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def check_sweep_b(op, outputs: dict) -> list[str]:
    header, rows = parse_csv(outputs["stdout"].decode())
    if header != LIMIT_HEADER:
        return [f"header {header!r}"]
    if len(rows) != op.items:
        return [f"{len(rows)} rows, expected {op.items}"]
    m, lam = op.model, op.lam
    bs = np.linspace(lam * op.span[0], lam * op.span[1], op.items)  # as the CLI builds its grid
    fails = []
    for i, row in enumerate(rows):
        got = dict(zip(header, row))
        if _rel(got["b"], float(bs[i])) > GRID_REL:
            fails.append(f"row {i}: b {got['b']!r} != {bs[i]!r}")
        msg = _hierarchy(got["t_exact"], got["t_disorder"], got["t_entropic"])
        if msg:
            fails.append(f"row {i}: {msg}")
        tc = tc_closed(m.vx, m.vy, m.vz, bs[i] / lam)
        if _rel(got["t_critical"], None if tc is None else lam * tc) > T_REL:
            fails.append(f"row {i}: t_critical {got['t_critical']!r} != closed form")
        lo, hi = got["reentry_lower"], got["reentry_upper"]
        if (lo is None) != (hi is None) or (lo is not None and not lo <= hi <= got["t_exact"]):
            fails.append(f"row {i}: reentry window ({lo!r}, {hi!r}) outside (0, t_exact]")
    # homogeneity on sampled rows, always including the two around b_crossing
    p = xe.canonicalize(m.vx, m.vy, m.vz, 0.0)
    near = int(np.searchsorted(bs / lam, workloads.b_crossing(p.v_plus, p.v_minus, p.vz)))
    picks = set(_sample(len(rows), 10, op.key)) | {max(near - 1, 0), min(near, len(rows) - 1)}
    for i in sorted(picks):
        unit = _library_limits(m.vx, m.vy, m.vz, bs[i] / lam)
        del unit["reentry_two_level"]
        fails += _homogeneous(dict(zip(header, rows[i])), unit, lam, f"row {i}")
    return fails


def check_figure(op, outputs: dict) -> list[str]:
    which = op.category
    fails = []
    center_h, center = parse_csv(outputs[f"{which}_center.csv"].decode())
    grid = np.linspace(0.0, 2.0, op.items)
    if len(center) != op.items:
        return [f"center: {len(center)} rows, expected {op.items}"]
    v_plus, v_minus = {"fig2": (1.0, 0.0), "fig3": (0.0, 1.0), "fig4": (1.0, 0.7)}[which]
    vx, vy = v_plus + v_minus, v_plus - v_minus
    for i, row in enumerate(center):
        got = dict(zip(center_h, row))
        if _rel(got["b_over_v"], float(grid[i])) > GRID_REL:
            fails.append(f"center row {i}: b_over_v {got['b_over_v']!r}")
        msg = _hierarchy(got["t_exact"], got["t_disorder"], got["t_entropic"])
        if msg:
            fails.append(f"center row {i}: {msg}")
        b = grid[i]  # v = 1 in all three figures
        if _rel(got["t_critical"], tc_closed(vx, vy, 0.0, b)) > T_REL:
            fails.append(f"center row {i}: t_critical {got['t_critical']!r} != closed form")
        cf = xe.closed_form_limits(xe.canonicalize(vx, vy, 0.0, b))
        if (cf.case is None) != (which == "fig4"):
            fails.append(f"center row {i}: closed_form_limits case {cf.case!r} in {which}")
        if cf.case is not None:
            if _rel(got["t_exact"], cf.t_exact) > T_REL:
                fails.append(f"center row {i}: t_exact {got['t_exact']!r} != {cf.case} {cf.t_exact!r}")
            if cf.t_disorder is not None and _rel(got["t_disorder"], cf.t_disorder) > T_REL:
                fails.append(f"center row {i}: t_disorder {got['t_disorder']!r} != {cf.t_disorder!r}")
    for i in _sample(len(center), 6, op.key):
        got = dict(zip(center_h, center[i]))
        fails += _homogeneous(got, _library_limits(vx, vy, 0.0, grid[i]), 1.0, f"center row {i}")

    _, bottom = parse_csv(outputs[f"{which}_bottom.csv"].decode())
    for i, row in enumerate(bottom):
        c_exact = row[2]
        if c_exact is not None and abs(c_exact) > C_AT_LIMIT:
            fails.append(f"bottom row {i}: concurrence {c_exact!r} at t_exact")
        if any(c is not None and not 0.0 <= c <= 1.0 for c in row[2:]):
            fails.append(f"bottom row {i}: concurrence outside [0, 1]")

    _, top = parse_csv(outputs[f"{which}_top.csv"].decode())
    if any(not 0.0 <= r[2] <= 1.0 for r in top):
        fails.append("top: concurrence outside [0, 1]")
    for i in _sample(len(top), 24, op.key):
        b, t, c = top[i]
        rho = xe.realize_matrix(xe.thermal_mixture(xe.canonicalize(vx, vy, 0.0, b), t))
        if abs(xe.concurrence_general(rho) - c) > MATRIX_ABS:
            fails.append(f"top row {i}: concurrence {c!r} != matrix route")
    return fails


def check_limits(op, outputs: dict) -> list[str]:
    got = json.loads(outputs["stdout"])
    m, lam = op.model, op.lam
    fails = []
    for key, arg in zip(("vx", "vy", "vz", "b"), op.argv[1:5]):
        if got[key] != float(arg.split("=")[1]):
            fails.append(f"{key} echoed as {got[key]!r}")
    unit = _library_limits(m.vx, m.vy, m.vz, m.b)
    fails += _homogeneous(got, unit, lam, "limits")
    msg = _hierarchy(got["t_exact"], got["t_disorder"], got["t_entropic"])
    if msg:
        fails.append(msg)
    tc = tc_closed(m.vx, m.vy, m.vz, m.b)
    closed, numeric = got["t_critical_closed"], got["t_critical_numeric"]
    if _rel(closed, None if tc is None else lam * tc) > T_REL:
        fails.append(f"t_critical_closed {closed!r} != closed form {tc!r} * lam")
    if _rel(numeric, closed) > TC_NUMERIC_REL:
        fails.append(f"t_critical_numeric {numeric!r} != t_critical_closed {closed!r}")
    cf = xe.closed_form_limits(xe.canonicalize(m.vx, m.vy, m.vz, m.b))
    if op.category == "closed_form" and cf.case is None:
        fails.append("closed_form_limits finds no case for a closed-form model")
    if cf.case is not None:
        if _rel(got["t_exact"], lam * cf.t_exact) > T_REL:
            fails.append(f"t_exact {got['t_exact']!r} != {cf.case} closed form")
        if cf.t_disorder is not None and _rel(got["t_disorder"], lam * cf.t_disorder) > T_REL:
            fails.append(f"t_disorder {got['t_disorder']!r} != {cf.case} closed form")
    return fails


def _eof(c: np.ndarray) -> np.ndarray:
    """Binary entropy of (1 + sqrt(1 - C^2))/2 in bits."""
    q = 0.5 * (1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(q * np.log2(q) + np.where(q < 1.0, (1.0 - q) * np.log2(1.0 - q), 0.0))
    return h


def check_sweep_temp(op, outputs: dict) -> list[str]:
    header, rows = parse_csv(outputs["stdout"].decode())
    if header != STATE_HEADER:
        return [f"header {header!r}"]
    if len(rows) != op.items:
        return [f"{len(rows)} rows, expected {op.items}"]
    m, lam = op.model, op.lam
    a = np.array(rows, dtype=float)
    temp, c, eof, m12, m03, dis, ent = a.T
    ts = np.linspace(lam * op.span[0], lam * op.span[1], op.items)
    fails = []
    bad = np.abs(temp - ts) > GRID_REL * np.abs(ts)
    if bad.any():
        fails.append(f"{bad.sum()} temperatures off the grid")
    if ((c < 0.0) | (c > 1.0)).any():
        fails.append("concurrence outside [0, 1]")
    bad = np.abs(c - np.maximum(0.0, -np.minimum(m12, m03))) > 1e-11
    if bad.any():
        fails.append(f"{bad.sum()} rows with concurrence != max(0, -min margin)")
    bad = np.abs(eof - _eof(c)) > 1e-5
    if bad.any():
        fails.append(f"{bad.sum()} rows with eof != h(concurrence)")
    if ((dis < -1e-12) & (c <= 0.0)).any():
        fails.append("disorder detection without entanglement")
    if ((ent < -1e-12) & (dis >= 0.0)).any():
        fails.append("entropic detection without disorder detection")
    p = xe.canonicalize(m.vx, m.vy, m.vz, m.b)
    sample = _sample(len(rows), 200, op.key)
    for n, i in enumerate(sample):
        state = xe.thermal_mixture(p, ts[i] / lam)
        ex = xe.separability_exact(state)
        unit = (
            ex.concurrence,
            xe.entanglement_of_formation(ex.concurrence),
            ex.margin_12,
            ex.margin_03,
            xe.disorder_check(state).margin,
            xe.entropic_check(state).margin,
        )
        if np.abs(np.array(unit) - a[i, 1:]).max() > STATE_ABS:
            fails.append(f"row {i}: state values differ from the unit-scale library")
        if n % 8 == 0:
            c_matrix = xe.concurrence_general(xe.realize_matrix(state))
            if abs(c_matrix - c[i]) > MATRIX_ABS:
                fails.append(f"row {i}: concurrence {c[i]!r} != matrix route {c_matrix!r}")
    return fails


CHECKS = {
    "figure": check_figure,
    "sweep_b": check_sweep_b,
    "limits": check_limits,
    "sweep_temp": check_sweep_temp,
}


def check(op, outputs: dict) -> list[str]:
    """Every oracle for the op's kind; exceptions count as failures."""
    try:
        return CHECKS[op.kind](op, outputs)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# stored reference outputs
# ---------------------------------------------------------------------------

SAMPLE_LINES = 32


def digest(outputs: dict) -> dict:
    """SHA-256, line count and a fixed sample of lines of every output."""
    out = {}
    for name, data in sorted(outputs.items()):
        lines = data.decode().splitlines()
        step = max(1, len(lines) // SAMPLE_LINES)
        picks = sorted(set(range(0, len(lines), step)) | {len(lines) - 1})
        out[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "lines": len(lines),
            "sample": {str(i): lines[i] for i in picks if i >= 0},
        }
    return out


def _values(line: str) -> list:
    if line.startswith("{"):
        return list(json.loads(line).values())
    try:
        return [float(x) if x else None for x in line.split(",")]
    except ValueError:  # a header line
        return [line]


def compare(reference: dict, outputs: dict) -> tuple[bool, float]:
    """(all bytes identical, largest relative difference on sampled lines)."""
    same, worst = True, 0.0
    for name, ref in reference.items():
        data = outputs.get(name, b"")
        if hashlib.sha256(data).hexdigest() == ref["sha256"]:
            continue
        same = False
        lines = data.decode().splitlines()
        if len(lines) != ref["lines"]:
            return False, math.inf
        for i, ref_line in ref["sample"].items():
            a, b = _values(lines[int(i)]), _values(ref_line)
            if len(a) != len(b):
                return False, math.inf
            for x, y in zip(a, b):
                if isinstance(x, (str, bool)) or isinstance(y, (str, bool)):
                    if x != y:
                        return False, math.inf
                else:
                    worst = max(worst, _rel(x, y))
    return same, worst
