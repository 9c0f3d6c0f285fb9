"""Package layout: the oracles stay out of the runtime, each CLI command
runs only the modules it uses, and the public surface is pinned."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import xyzent

PACKAGE = pathlib.Path(xyzent.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

PUBLIC = [
    "BellMixture",
    "ClosedFormLimits",
    "CriterionReport",
    "EigenSystem",
    "LimitTemperatures",
    "MeanFieldSolution",
    "PTSpectrum",
    "ReentryWindow",
    "SeparabilityReport",
    "XYZParams",
    "canonicalize",
    "closed_form_limits",
    "concurrence_general",
    "critical_temperature",
    "disorder_check",
    "eigensystem",
    "entanglement_of_formation",
    "entropic_check",
    "exact_free_energy",
    "limit_temperatures",
    "mf_free_energy",
    "mixture",
    "pt_spectrum",
    "realize_matrix",
    "reentry_two_level",
    "separability_exact",
    "solve_mf",
    "thermal_mixture",
]


def _imported_modules(tree):
    """Every dotted name an import statement names, each imported name
    also joined to its `from` module, so `from . import linalg` and
    `from .linalg import x` both yield a name with a `linalg` part."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _runtime_modules():
    """The source files of every module but the oracles and the package."""
    return [f for f in sorted(PACKAGE.glob("*.py")) if f.name not in ("linalg.py", "__init__.py")]


def test_no_runtime_module_imports_the_oracles():
    runtime = _runtime_modules()
    layers = {"model", "states", "entanglement", "criteria", "limits", "meanfield", "cli"}
    assert layers <= {f.stem for f in runtime}
    for f in runtime:
        names = _imported_modules(ast.parse(f.read_text(), str(f)))
        hits = [n for n in names if "linalg" in n.split(".")]
        assert hits == [], (f.name, hits)


def test_no_runtime_module_calls_lapack():
    # no np.linalg anywhere in the runtime, so the CLI hands nothing to LAPACK
    for f in _runtime_modules():
        tree = ast.parse(f.read_text(), str(f))
        hits = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "linalg"]
        assert hits == [], (f.name, hits)


#: reference closed forms that no command prints, the exact free energy
#: that bounds the mean field's, and the errors only the oracles raise:
#: only tests and the benchmark checks read them, from the oracle module
ORACLE_ONLY = {
    "ClosedFormLimits",
    "closed_form_limits",
    "MixtureThresholds",
    "mixture_thresholds",
    "b_crossing",
    "exact_free_energy",
    "NonHermitianInput",
    "NonPhysicalState",
    "InvalidSpectrum",
}
#: names deleted with their last reader
DELETED = {
    "v_min",
    "margin_table",
    "_snap_degeneracies",
    "exact_check",
    "_limit_rows",
    "_limit_values",
    "_start_program",
    "_freeze_imports",
    "_canted",
    "_disorder_near_zero",
    "_near_zero",
}


def _defined_names(tree):
    """Every name a module defines at any depth: functions, methods and
    properties, classes, and plain or annotated assignment targets."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_reference_closed_forms_live_only_in_the_oracles():
    for f in _runtime_modules():
        hits = set(_defined_names(ast.parse(f.read_text(), str(f)))) & (ORACLE_ONLY | DELETED)
        assert hits == set(), (f.name, hits)
    assert all(hasattr(xyzent.linalg, name) for name in ORACLE_ONLY)
    assert not any(hasattr(m, name) for m in (xyzent, xyzent.linalg, xyzent.XYZParams) for name in DELETED)
    # Delta is EigenSystem.delta alone (a local or field named delta may stay)
    assert not hasattr(xyzent.XYZParams, "delta")
    for name in ("NonHermitianInput", "NonPhysicalState", "InvalidSpectrum"):
        error = getattr(xyzent.linalg, name)
        assert issubclass(error, xyzent.errors.XyzentError) and issubclass(error, ValueError), name
    # the benchmark checks read the closed forms from the package
    assert xyzent.closed_form_limits is xyzent.linalg.closed_form_limits
    assert xyzent.ClosedFormLimits is xyzent.linalg.ClosedFormLimits
    assert xyzent.exact_free_energy is xyzent.linalg.exact_free_energy


#: imports that a runtime module binds but never reads, kept for perfbench's
#: tracer, which rebinds a wrapped function under every name bound to it
TRACING_BINDINGS = {
    ("limits", "thermal_probabilities"),
    ("criteria", "separability_exact"),
    ("meanfield", "eigensystem"),
}


def _imported_bindings(tree):
    """Every name an import statement binds, but `from __future__` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_runtime_modules_read_every_name_they_import():
    unread = set()
    for f in [*_runtime_modules(), PACKAGE / "__init__.py"]:
        tree = ast.parse(f.read_text(), str(f))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {(f.stem, name) for name in _imported_bindings(tree) if name not in read}
    assert unread == TRACING_BINDINGS


def test_public_names_are_pinned():
    assert xyzent.__all__ == PUBLIC
    assert all(hasattr(xyzent, name) for name in PUBLIC)


def test_star_import_binds_every_public_name():
    assert set(xyzent.__all__) <= set(dir(xyzent))
    namespace = {}
    exec("from xyzent import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(xyzent, name) for name in PUBLIC)


#: Run in a fresh interpreter: import xyzent.cli, run main(argv) if argv is
#: given (standard output discarded), and print as JSON its exit code, the
#: xyzent modules whose bodies ran (the "exec" audit events of their code)
#: and the xyzent modules in sys.modules.
_AUDIT = """
import contextlib, io, json, os, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
import xyzent.cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = None if argv is None else xyzent.cli.main(argv)
package = os.path.dirname(xyzent.__file__)
print(json.dumps([
    code,
    sorted(os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package),
    sorted(m for m in sys.modules if m.split(".")[0] == "xyzent"),
]))
"""


def _fresh_cli(argv):
    """(exit code, modules run, modules registered) of one fresh interpreter."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-W", "error", "-c", _AUDIT, json.dumps(argv)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


#: the modules every command runs: the margin kernel and the Gibbs weights
#: are in states, so only `point` runs the scalar report layer
#: (entanglement, criteria)
_BASE_MODULES = ["__init__", "cli", "errors", "model", "states"]
#: the modules of the limit scan; `meanfield` runs only for the numeric T_c
#: of `limits` on a model where model.XYZParams.t_critical_is_onset does not
#: hold
_SCAN_MODULES = ["expsums", "limits"]
#: `limits` of a Neel-z model (vz < -2 T_c), where the onset rule does not
#: hold, so its numeric T_c (meanfield's enumerated minimum) runs
_NEEL_Z = ["limits", "--vx=0.865", "--vy=0.192", "--vz=-2.775", "--b=0.877"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["point", "--vx=1", "--vy=0.3", "--temp=0.5"], ["criteria", "entanglement"]),
        (["sweep", "--axis=temp", "--from=0", "--to=2", "--steps=50", "--vx=1.7", "--vy=0.3", "--b=0.9"], []),
        (["limits", "--vx=1", "--vy=0.3", "--b=0.2"], _SCAN_MODULES),
        (_NEEL_Z, [*_SCAN_MODULES, "meanfield"]),
        (
            ["sweep", "--axis=b", "--from=0", "--to=2", "--steps=9", "--vx=1.7", "--vy=0.3", "--outputs=limits"],
            _SCAN_MODULES,
        ),
        (["figure", "fig2", "--steps=9", "--out={out}"], _SCAN_MODULES),
    ],
    ids=["point", "sweep_temp", "limits", "limits_neel_z", "sweep_b_limits", "figure_fig2"],
)
def test_cli_command_runs_only_the_modules_it_uses(argv, extra, tmp_path):
    code, ran, _ = _fresh_cli([a.replace("{out}", str(tmp_path)) for a in argv])
    assert code == 0
    assert ran == sorted(_BASE_MODULES + extra), ran


def test_cli_import_runs_no_oracle_and_registers_every_layer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _, ran, registered = _fresh_cli(None)
    assert ran == ["__init__", "cli", "errors", "model"]
    assert {f"xyzent.{layer}" for layer in tracing.LAYERS} <= set(registered)


#: Run in a fresh interpreter: run the CLI as a program with the arguments
#: in sys.argv[2] (JSON), either as `python -m xyzent.cli` does (sys.argv[1]
#: is "-m") or as the installed script does, sys.exit of the console-script
#: entry named in sys.argv[1] ("module:function").  The CLI's output goes to
#: standard output and standard error.  Then, at exit, an atexit callback
#: registered before the CLI's own (so it runs after them) writes the last
#: line of standard error: as JSON, the CLI's exit code, the number of
#: threads of the process after the command, the OPENBLAS_NUM_THREADS it
#: ended with, the collector's state after the command as
#: [gc.isenabled(), gc.get_freeze_count()], the xyzent modules whose bodies
#: ran (the "exec" audit events of their code), whether xyzent.cli is in
#: sys.modules, and the collector's state at exit.
_PROGRAM = """
import atexit, gc, importlib, json, os, runpy, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
report = []
atexit.register(lambda: print(json.dumps([*report, [gc.isenabled(), gc.get_freeze_count()]]), file=sys.stderr))
entry, argv = sys.argv[1], json.loads(sys.argv[2])
sys.argv = ["xyzent", *argv]
try:
    if entry == "-m":
        runpy.run_module("xyzent.cli", run_name="__main__")
    else:
        module, _, name = entry.partition(":")
        sys.exit(getattr(importlib.import_module(module), name)())
except SystemExit as exc:
    code = exc.code
threads = len(os.listdir("/proc/self/task"))
package = os.path.dirname(sys.modules["xyzent"].__file__)
report += [code, threads, os.environ.get("OPENBLAS_NUM_THREADS"), [gc.isenabled(), gc.get_freeze_count()]]
report += [sorted(os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package)]
report += ["xyzent.cli" in sys.modules]
"""


def _fresh(cmd, **blas_threads):
    """One fresh interpreter `python -W error cmd`, with src on the path and
    no thread count for OpenBLAS but blas_threads."""
    env = {k: v for k, v in os.environ.items() if k not in xyzent._BLAS_THREADS}
    env.update(blas_threads, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", *cmd], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr.decode()
    return out


def _program(entry, argv, **blas_threads):
    """(standard output, the CLI's standard error, [exit code, threads,
    OPENBLAS_NUM_THREADS, collector after the command, modules run, whether
    xyzent.cli is in sys.modules, collector at exit]) of _PROGRAM; entry
    "console_script" is the one of pyproject.toml."""
    entry = _console_script_entry() if entry == "console_script" else entry
    out = _fresh(["-c", _PROGRAM, entry, json.dumps(argv)], **blas_threads)
    *stderr, report = out.stderr.splitlines(keepends=True)
    return out.stdout, b"".join(stderr), json.loads(report)


def _console_script_entry():
    """The `xyzent` entry of pyproject.toml's [project.scripts]."""
    return re.search(r'^xyzent = "(.+)"$', (PACKAGE.parent.parent / "pyproject.toml").read_text(), re.M)[1]


def _numpy_loads_openblas():
    import numpy  # noqa: F401

    with open("/proc/self/maps") as maps:
        return "openblas" in maps.read().lower()


openblas_threads = pytest.mark.skipif(
    not (os.path.isdir("/proc/self/task") and _numpy_loads_openblas()),
    reason="counts threads in /proc/self/task of a numpy linked to OpenBLAS",
)

#: a Neel-z model whose numeric T_c runs meanfield and is a positive
#: crossing below its closed form
_LIMITS = ["limits", "--vx=2.601", "--vy=-2.094", "--vz=-2.969", "--b=1.518", "--format=json"]


@openblas_threads
@pytest.mark.parametrize("entry", ["-m", "console_script"])
def test_cli_program_starts_no_blas_thread(entry):
    entry = _console_script_entry() if entry == "console_script" else entry
    assert entry != "xyzent.cli:main"  # that module imports numpy before any of its code runs
    stdout, _, (code, threads, blas, *_) = _program(entry, _LIMITS)
    assert code == 0 and json.loads(stdout)["t_critical_numeric"] > 0.0
    assert (threads, blas) == (1, "1")


@openblas_threads
def test_cli_program_keeps_a_user_set_thread_count(tmp_path):
    default, _, (code, threads, blas, *_) = _program("-m", _LIMITS)
    assert (code, threads, blas) == (0, 1, "1")
    two, _, (code, threads, blas, *_) = _program("-m", _LIMITS, OPENBLAS_NUM_THREADS="2")
    assert (code, threads, blas) == (0, min(2, len(os.sched_getaffinity(0))), "2")
    assert two == default
    _, _, (code, _, blas, *_) = _program("-m", _LIMITS, OMP_NUM_THREADS="2")
    assert (code, blas) == (0, None)
    files = {}
    for name, blas_threads in [("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})]:
        out = tmp_path / name
        assert _program("-m", ["figure", "fig4", f"--out={out}"], **blas_threads)[2][0] == 0
        files[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(files["default"]) == 3 and files["two"] == files["default"]


@pytest.mark.parametrize("entry", ["-m", "console_script"])
def test_cli_program_freezes_its_imports(entry):
    stdout, _, (code, _, _, (enabled, frozen), _, _, at_exit) = _program(entry, _LIMITS)
    assert code == 0 and json.loads(stdout)["t_critical_numeric"] > 0.0
    # the command's own garbage is collected; the imports' objects are frozen
    assert enabled and frozen > 0
    # and at exit so is what the command left, before the teardown collections
    assert at_exit[0] and at_exit[1] > frozen


@pytest.mark.parametrize("entry", ["-m", "console_script"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["point", "--vx=1", "--bogus"], 2),
        (["point", "--vx=1"], 2),
        (["point", "--vx=1", "--temp=0.5", "--out={missing}"], 3),
    ],
    ids=["argparse", "xyzent_error", "io_error"],
)
def test_cli_program_error_exits(entry, argv, expected, tmp_path):
    import contextlib
    import io

    import xyzent.cli

    argv = [a.replace("{missing}", str(tmp_path / "missing" / "out.txt")) for a in argv]
    stdout, stderr, (code, *_, at_exit) = _program(entry, argv)
    # the same exit code and standard error as an in-process main(argv)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            in_process = xyzent.cli.main(argv)
        except SystemExit as exc:
            in_process = exc.code
    assert (code, stdout, stderr) == (expected, b"", err.getvalue().encode())
    assert in_process == expected and at_exit[1] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--vx=1", "--vy=0.3", "--temp=0.5"],
        ["point", "--vx=1", "--vy=0.3", "--temp=0.5", "--format=json"],
        ["limits", "--vx=1", "--vy=0.4", "--vz=0.1", "--b=0.5"],
        _LIMITS,
        ["sweep", "--axis=b", "--from=0", "--to=2", "--steps=9", "--vx=1.7", "--vy=0.3", "--temp=0.3"],
    ],
    ids=["point_csv", "point_json", "limits_csv", "limits_json", "sweep"],
)
def test_cli_program_output_is_complete(argv, tmp_path):
    """A program's --out file holds what it prints, from either entry, so no
    output waits on a finalizer the teardown may skip."""
    stdout, _, report = _program("-m", argv)
    assert report[0] == 0 and stdout.endswith(b"\n")
    for entry in ("-m", "console_script"):
        out = tmp_path / f"{entry}.out"
        assert _program(entry, [*argv, f"--out={out}"])[:2] == (b"", b"")
        assert out.read_bytes() == stdout


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_LIMITS, [*_BASE_MODULES, *_SCAN_MODULES, "meanfield"]),
        (
            ["sweep", "--axis=temp", "--from=0", "--to=2", "--steps=50", "--vx=1.7", "--vy=0.3", "--b=0.9"],
            _BASE_MODULES,
        ),
    ],
    ids=["limits_neel_z", "sweep_temp"],
)
def test_cli_program_entries_run_the_same_modules(argv, expected):
    """The console script runs xyzent.cli as __main__, as `python -m` does:
    neither imports it as a module, and both run the same modules."""
    runs = [_program(entry, argv) for entry in ("-m", "console_script")]
    for _, _, (code, *_, ran, cli_imported, _) in runs:
        assert (code, ran, cli_imported) == (0, sorted(expected), False)
    assert runs[0][:2] == runs[1][:2]


def test_cli_program_entries_write_the_same_figure(tmp_path):
    files = {}
    for entry in ("-m", "console_script"):
        out = tmp_path / entry
        assert _program(entry, ["figure", "fig2", "--steps=41", f"--out={out}"])[2][0] == 0
        files[entry] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(files["-m"]) == 3 and files["console_script"] == files["-m"]


@pytest.mark.parametrize(
    "statement",
    [
        "import xyzent",
        "import xyzent.cli",
        "from xyzent import *",
        # once numpy has loaded OpenBLAS the variable would change nothing
        "import numpy, xyzent\nxyzent._one_blas_thread()",
        "import xyzent.cli\nxyzent.cli.main(['point', '--vx=1', '--vy=0.3', '--temp=0.5'])",
    ],
    ids=["import", "import_cli", "star_import", "after_numpy", "main"],
)
def test_imports_leave_the_environment_alone(statement):
    """Only the programs change os.environ, the collector or the atexit
    callbacks; the probe, registered first, runs after any callback."""
    check = f"""
import atexit, gc, json, os, sys
atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count()]), file=sys.stderr))
before = dict(os.environ), atexit._ncallbacks()
{statement}
assert (dict(os.environ), atexit._ncallbacks()) == before
assert (gc.isenabled(), gc.get_freeze_count()) == (True, 0)
"""
    assert json.loads(_fresh(["-c", check]).stderr.splitlines()[-1]) == [True, 0]
