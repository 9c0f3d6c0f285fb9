"""Command-line front end.

Subcommands:

    point   single-state report: energies, weights, concurrence, criteria
    limits  detection limit temperatures and mean-field T_c for one model
    sweep   1-D parameter sweep emitted as CSV
    figure  regenerate the reference datasets (fig2/fig3/fig4) as CSV files

Exit codes: 0 success, 2 invalid input, 3 I/O failure.  `limits`
prints the mean-field T_c twice: t_critical_closed (XYZParams.t_critical),
and t_critical_numeric, the onset of the mean field's broken global
minimum (meanfield.critical_temperature), which is the closed form
wherever XYZParams.t_critical_is_onset holds; only elsewhere does
`limits` run the mean-field module.
Limits are scanned up to each model's own t_cut, past which no criterion
detects (limits module docstring), so no option sets a scan range.
Floats in CSV output carry up to 12 significant digits, and a limit
temperature's are all the margin kernel's (limits refines it to adjacent
floats).  `limits`, `sweep` and `figure` read one limit table
(_limit_table), the float array limits._limit_table builds in one scan
of all their models, with t_critical inserted, in which an absent value
is NaN; absent values print as empty fields.  A fault of the scan
(limits module docstring) raises RuntimeError, which exits 1 with its
traceback.  The figure's top panel is one margin-kernel call.  Output
is deterministic: identical invocations produce byte-identical files.

Run as a program (`python -m xyzent.cli`, or the `xyzent` console script,
which runs this module as __main__ through runpy), it sets up its process
in its two __main__ blocks.  Before the imports, numpy's OpenBLAS is set
to start one thread unless the user set a count (xyzent._one_blas_thread;
no LAPACK routine is called), the garbage collector is turned off, and
gc.freeze is registered to run at exit, before the teardown collections.
After them, what the imports built, which lives until exit, is frozen and
the collector turned back on.  Importing this module, or calling main in
a process, does neither: the environment, the collector and the atexit
callbacks stay as they were.
"""

from __future__ import annotations

if __name__ == "__main__":  # before the imports: OpenBLAS reads its thread count as numpy loads
    import atexit
    import gc

    from . import _one_blas_thread

    _one_blas_thread()
    gc.disable()
    atexit.register(gc.freeze)

import argparse
import math
import re
import sys

import numpy as np

from . import criteria, entanglement, limits, meanfield, states
from .errors import XyzentError
from .model import XYZParams, _eigen_columns, canonicalize

PARAM_KEYS = ("vx", "vy", "vz", "b")
STATE_COLUMNS = (
    "concurrence",
    "eof",
    "margin_12",
    "margin_03",
    "disorder_margin",
    "entropic_margin",
)
LIMIT_COLUMNS = (
    "t_exact",
    "t_disorder",
    "t_entropic",
    "t_critical",
    "reentry_lower",
    "reentry_upper",
)


def fmt(x) -> str:
    """CSV float rendering: 12 significant digits, '' for absent."""
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return f"{x:.12g}"


#: rows per block of a CSV table that one format operation renders
_BLOCK = 1024


def _csv_blocks(columns, table):
    """The header and then the rows of a CSV table, in blocks of at most
    _BLOCK lines each.  table holds one row per line (None or nan for an
    absent value).  A block is one "%.12g,..." format of its values, which
    renders every finite value as fmt does; where the block holds a
    non-finite value, the tokens "-inf", "inf" and "nan" are then removed,
    so that value is an empty field, as fmt renders it."""
    yield ",".join(columns)
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.12g"] * table.shape[1])
    for k in range(0, len(table), _BLOCK):
        block = table[k : k + _BLOCK]
        text = "\n".join([row] * len(block)) % tuple(block.ravel().tolist())
        if not np.isfinite(block).all():
            text = text.replace("-inf", "").replace("inf", "").replace("nan", "")
        yield text


def _steps(start, stop, steps) -> np.ndarray:
    """np.linspace(start, stop, steps), where too many steps to allocate
    is invalid input (XyzentError) rather than numpy's ValueError or
    MemoryError."""
    try:
        return np.linspace(start, stop, steps)
    except (ValueError, MemoryError) as exc:
        raise XyzentError(f"steps={steps} is too many ({exc})") from None


def _write_lines(lines, out_path):
    """Write each string of lines and a newline to out_path, or to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    elif sys.stdout is None:  # standard output was closed when the program started
        raise OSError("standard output is closed")
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# shared computation
# ---------------------------------------------------------------------------


def point_report(vx, vy, vz, b, temp) -> dict:
    """Everything `point` prints, as one plain dict (stable key order),
    from the scalar API on one Gibbs state (its margins are the kernel's)."""
    p = canonicalize(vx, vy, vz, b)
    m = states.thermal_mixture(p, temp)
    sep = entanglement.separability_exact(m)
    dis = criteria.disorder_check(m)
    ent = criteria.entropic_check(m)
    pt = entanglement.pt_spectrum(m)
    return {
        "input": {"vx": vx, "vy": vy, "vz": vz, "b": b, "temp": temp},
        "canonical": {"vx": p.vx, "vy": p.vy, "vz": p.vz, "b": p.b, "flips": list(p.flips)},
        "energies": [float(e) for e in m.eigen.energies],
        "probabilities": [float(x) for x in m.probs],
        "concurrence": sep.concurrence,
        "eof": entanglement.entanglement_of_formation(sep.concurrence),
        "exact": {k: getattr(sep, k) for k in ("margin_12", "margin_03", "entangled", "violated")},
        "disorder": {"detected": dis.detected, "margin": dis.margin, "detail": list(dis.detail)},
        "entropic": {"detected": ent.detected, "margin": ent.margin},
        "pt_spectrum": [pt.q_0, pt.q_1, pt.q_2, pt.q_3],
    }


def _state_values(columns, temps: np.ndarray) -> np.ndarray:
    """The thermal states at the temperatures temps (1-D), one row each,
    with the STATE_COLUMNS in order, from one call to the margin kernel
    (states._margin_columns, which the limit scan also reads); columns
    are the level gaps, v_minus/Delta and b/Delta of model._eigen_columns,
    of one model for every temperature or of one per temperature."""
    m12, m03, dis, ent = states._margin_columns(*columns[:3], temps)
    worst = np.minimum(m12, m03)
    c = np.where(worst < 0.0, -worst, 0.0)
    return np.column_stack((c, states._eof(c), m12, m03, dis, ent))


def _limit_table(ps) -> np.ndarray:
    """limits._limit_table of the models ps with t_critical inserted: the
    LIMIT_COLUMNS and then reentry_two_level, NaN where a value is absent."""
    return np.insert(limits._limit_table(ps)[0], 3, [p.t_critical for p in ps], axis=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_point(args) -> int:
    import json

    rep = point_report(args.vx, args.vy, args.vz, args.b, args.temp)
    if args.format == "json":
        _write_lines([json.dumps(rep)], args.out)
        return 0
    c = rep["canonical"]
    lines = [
        f"params: vx={fmt(args.vx)} vy={fmt(args.vy)} vz={fmt(args.vz)} b={fmt(args.b)} temp={fmt(args.temp)}",
        f"canonical: vx={fmt(c['vx'])} vy={fmt(c['vy'])} vz={fmt(c['vz'])} b={fmt(c['b'])}"
        + (f" (flipped: {', '.join(c['flips'])})" if c["flips"] else ""),
        "energies: " + " ".join(f"E{j}={fmt(e)}" for j, e in enumerate(rep["energies"])),
        "weights: " + " ".join(f"p{j}={fmt(x)}" for j, x in enumerate(rep["probabilities"])),
        f"concurrence: {fmt(rep['concurrence'])}",
        f"entanglement_of_formation: {fmt(rep['eof'])}",
        f"exact: {'entangled' if rep['exact']['entangled'] else 'separable'}"
        f" margin_12={fmt(rep['exact']['margin_12'])} margin_03={fmt(rep['exact']['margin_03'])}"
        + (f" violated={rep['exact']['violated']}" if rep["exact"]["violated"] else ""),
        f"disorder: {'detected' if rep['disorder']['detected'] else 'not detected'}"
        f" margin={fmt(rep['disorder']['margin'])}",
        f"entropic: {'detected' if rep['entropic']['detected'] else 'not detected'}"
        f" margin={fmt(rep['entropic']['margin'])}",
        "pt_spectrum: " + " ".join(fmt(q) for q in rep["pt_spectrum"]),
    ]
    _write_lines(lines, args.out)
    return 0


def cmd_limits(args) -> int:
    import json

    p = canonicalize(args.vx, args.vy, args.vz, args.b)
    (t_exact, t_disorder, t_entropic, t_critical, lower, upper, two_level) = (
        None if math.isnan(x) else x for x in _limit_table([p])[0].tolist()
    )
    # the onset of the broken global minimum: the closed form where the rule
    # says so, so meanfield runs only for the others (Neel-z models)
    tc_numeric = p.t_critical if p.t_critical_is_onset else meanfield.critical_temperature(p)
    row = {
        "vx": args.vx,
        "vy": args.vy,
        "vz": args.vz,
        "b": args.b,
        "t_exact": t_exact,
        "t_disorder": t_disorder,
        "t_entropic": t_entropic,
        "t_critical_closed": t_critical,
        "t_critical_numeric": tc_numeric,
        "reentry_lower": lower,
        "reentry_upper": upper,
        "reentry_two_level": two_level,
    }
    if args.format == "json":
        _write_lines([json.dumps(row)], args.out)
    else:
        _write_lines(_csv_blocks(row, [list(row.values())]), args.out)
    return 0


_AXES = ("temp", "b", "v_plus", "v_minus", "vz")


def _sweep_model(args, value: float) -> XYZParams:
    """The model at one value of a parameter axis."""
    vx, vy, vz, b = args.vx, args.vy, args.vz, args.b
    if args.axis == "b":
        b = value
    elif args.axis == "vz":
        vz = value
    else:
        v_plus, v_minus = 0.5 * (vx + vy), 0.5 * (vx - vy)
        if args.axis == "v_plus":
            v_plus = value
        else:
            v_minus = value
        vx, vy = v_plus + v_minus, v_plus - v_minus
    return canonicalize(vx, vy, vz, b)


def cmd_sweep(args) -> int:
    if not all(map(math.isfinite, (args.start, args.stop, args.stop - args.start))):
        raise XyzentError(f"need a finite range, got from {args.start} to {args.stop}")
    if not args.start < args.stop:
        raise XyzentError(f"need from < to, got {args.start} and {args.stop}")

    groups = [g.strip() for g in args.outputs.split(",")] if args.outputs is not None else None
    if groups is None:
        groups = ["state"] if args.axis == "temp" else ["limits"]
        if args.axis != "temp" and args.temp is not None:
            groups.insert(0, "state")
    for g in groups:
        if g not in ("state", "limits"):
            raise XyzentError(f"unknown output group {g!r}")
    if args.axis != "temp":
        if "state" in groups and args.temp is None:
            raise XyzentError("state columns on a parameter axis need --temp")
        if "state" not in groups and "temp" in args._explicit:
            raise XyzentError("--temp on a parameter axis is read only by the state columns")

    values = _steps(args.start, args.stop, args.steps)
    # a temperature axis is one model, whose limits fill every row
    if args.axis == "temp":
        models = [canonicalize(args.vx, args.vy, args.vz, args.b)]
    else:
        models = [_sweep_model(args, float(v)) for v in values]
    columns, parts = [args.axis], [values[:, None]]
    if "state" in groups:
        temps = values if args.axis == "temp" else np.full(values.size, args.temp)
        columns += STATE_COLUMNS
        parts.append(_state_values(_eigen_columns(models), temps))
    if "limits" in groups:
        columns += LIMIT_COLUMNS
        lims = _limit_table(models)[:, : len(LIMIT_COLUMNS)]
        parts.append(np.broadcast_to(lims, (values.size, len(LIMIT_COLUMNS))))
    _write_lines(_csv_blocks(columns, np.hstack(parts)), args.out)
    return 0


_FIGURES = {
    # v_plus, v_minus, field values for the concurrence-vs-T panel
    "fig2": (1.0, 0.0, (0.0, 0.5, 1.0, 1.5)),
    "fig3": (0.0, 1.0, (0.0, 0.5, 1.0, 2.0)),
    "fig4": (1.0, 0.7, (0.5, 0.8, 0.9, 1.0, 1.2)),
}


def cmd_figure(args) -> int:
    import os

    v_plus, v_minus, top_fields = _FIGURES[args.which]
    vx, vy = v_plus + v_minus, v_plus - v_minus

    # top: concurrence vs temperature at a few fields, one kernel column per field and temperature
    temps = np.linspace(0.0, 2.5, 501)[1:]
    top_columns = _eigen_columns([canonicalize(vx, vy, 0.0, b) for b in top_fields])[:3]
    top_columns = [np.repeat(x, temps.size, axis=-1) for x in top_columns]
    b_col, t_col = np.repeat(top_fields, temps.size), np.tile(temps, len(top_fields))
    top = np.column_stack([b_col, t_col, _state_values(top_columns, t_col)[:, 0]])

    # center: limit temperatures vs field; bottom: concurrence at each limit
    v_unit = v_plus if v_plus > 0.0 else v_minus
    fields = _steps(0.0, 2.0, args.steps) * v_unit
    models = [canonicalize(vx, vy, 0.0, float(b)) for b in fields]
    lims = _limit_table(models)
    # the concurrence at each model's four limits, one kernel column each (at T = 0 where absent)
    ts = np.where(np.isnan(lims[:, :4]), 0.0, lims[:, :4])
    bottom_columns = [np.repeat(x, ts.shape[1], axis=-1) for x in _eigen_columns(models)[:3]]
    c = _state_values(bottom_columns, ts.ravel())[:, 0].reshape(ts.shape)
    c = np.where(ts > 0.0, c, np.nan)  # absent at T = 0
    ratio = fields / v_unit
    inv = np.divide(1.0, ratio, out=np.full(ratio.size, np.nan), where=ratio > 0.0)
    center = np.column_stack([ratio, inv, lims])
    bottom = np.column_stack([ratio, inv, c])
    # every panel is built (and every setting validated) before any file is written
    os.makedirs(args.out, exist_ok=True)
    for panel, columns, table in (
        ("top", ("b", "temp", "concurrence"), top),
        ("center", ("b_over_v", "v_over_b", *LIMIT_COLUMNS, "reentry_two_level"), center),
        (
            "bottom",
            ("b_over_v", "v_over_b", "c_at_t_exact", "c_at_t_disorder", "c_at_t_entropic", "c_at_t_critical"),
            bottom,
        ),
    ):
        _write_lines(_csv_blocks(columns, table), os.path.join(args.out, f"{args.which}_{panel}.csv"))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise XyzentError(f"config file {path!r} is not UTF-8 text") from None
    cfg = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise XyzentError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _apply_config(args, parser):
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    options = {a.dest: a for a in sub._actions if isinstance(a, _Given)}
    for key, value in cfg.items():
        action = options.get(key)
        if action is None:
            continue  # keys for other subcommands are fine in one file
        if key in args._explicit:
            continue  # flags win over the file
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            raise XyzentError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise XyzentError(f"config key {key!r}: {value!r} is not one of {', '.join(action.choices)}")
        setattr(args, key, value)


class _Given(argparse.Action):
    """Store the value and record its dest as given on the command line,
    so config-file values only fill the gaps (abbreviations included)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace._explicit = namespace._explicit | {self.dest}


class _Parser(argparse.ArgumentParser):
    """Parser (and subparsers) whose plain options record that they were
    given, and which read -4e-15 as a negative number rather than an
    option, as argparse does from Python 3.13 on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Given)
        self.set_defaults(_explicit=frozenset())
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_couplings(sub):
    for key in PARAM_KEYS:
        sub.add_argument(f"--{key}", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the options it reads, so any other
    flag is an argparse error (exit 2) rather than silently dropped."""
    parser = _Parser(prog="xyzent", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("point", help="report one thermal state")
    _add_couplings(sp)
    sp.add_argument("--temp", type=float, default=None)
    sp.set_defaults(func=cmd_point)

    sl = subs.add_parser("limits", help="limit temperatures for one model")
    _add_couplings(sl)
    sl.set_defaults(func=cmd_limits)

    ss = subs.add_parser("sweep", help="1-D parameter sweep as CSV")
    _add_couplings(ss)
    ss.add_argument("--temp", type=float, default=None, help="fixed temperature of a parameter-axis state sweep")
    # required, but checked once --config has filled the gaps (main)
    ss.add_argument("--axis", choices=_AXES, default=None)
    ss.add_argument("--from", dest="start", type=float, default=None)
    ss.add_argument("--to", dest="stop", type=float, default=None)
    ss.add_argument("--steps", type=int, default=None)
    ss.add_argument("--outputs", default=None, help="comma list: state,limits")
    ss.set_defaults(func=cmd_sweep)

    sf = subs.add_parser("figure", help="regenerate a reference dataset")
    sf.add_argument("which", choices=tuple(_FIGURES))
    sf.add_argument("--steps", type=int, default=201, help="field grid points")
    sf.add_argument("--out", default=None, help="output directory (required)")
    sf.set_defaults(func=cmd_figure)

    for sub in (sp, sl):
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    for sub in (sp, sl, ss):
        sub.add_argument("--out", default=None, help="output file (default: stdout)")
    for sub in (sp, sl, ss, sf):
        sub.add_argument("--config", default=None, help="key=value parameter file; flags win")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        if args.command == "point" and args.temp is None:
            raise XyzentError("point requires --temp")
        if args.command == "figure" and args.out is None:
            raise XyzentError("figure requires --out")
        if args.command == "sweep":
            given = {"--axis": args.axis, "--from": args.start, "--to": args.stop, "--steps": args.steps}
            missing = [flag for flag, value in given.items() if value is None]
            if missing:
                raise XyzentError(f"sweep requires {', '.join(missing)}")
            if args.axis == "temp":
                if "temp" in args._explicit:
                    raise XyzentError("axis parameter 'temp' cannot also be fixed")
            elif args.axis in ("b", "vz") and args.axis in args._explicit:
                raise XyzentError(f"axis parameter {args.axis!r} cannot also be fixed")
        if args.command in ("sweep", "figure") and args.steps < 2:
            raise XyzentError(f"steps must be >= 2, got {args.steps}")
        return args.func(args)
    except XyzentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # input too large to compute, as for _steps
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    sys.exit(main())
