"""Package layout: the oracles stay out of the runtime, each CLI command
runs only the modules it uses, and the public surface is pinned."""

import ast
import importlib.util
import json
import os
import pathlib
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
    "CriticalTemperature",
    "EigenSystem",
    "LimitTemperatures",
    "MeanFieldSolution",
    "MixtureThresholds",
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
    "exact_check",
    "exact_free_energy",
    "limit_temperatures",
    "mf_free_energy",
    "mixture",
    "mixture_thresholds",
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


def test_no_runtime_module_imports_the_oracles():
    runtime = [f for f in sorted(PACKAGE.glob("*.py")) if f.name not in ("linalg.py", "__init__.py")]
    layers = {"model", "states", "entanglement", "criteria", "limits", "meanfield", "cli"}
    assert layers <= {f.stem for f in runtime}
    for f in runtime:
        names = _imported_modules(ast.parse(f.read_text(), str(f)))
        hits = [n for n in names if "linalg" in n.split(".")]
        assert hits == [], (f.name, hits)


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


_SCAN_MODULES = {"limits", "expsums", "meanfield"}


@pytest.mark.parametrize(
    "argv, scan",
    [
        (["point", "--vx=1", "--vy=0.3", "--temp=0.5"], False),
        (["sweep", "--axis=temp", "--from=0", "--to=2", "--steps=50", "--vx=1.7", "--vy=0.3", "--b=0.9"], False),
        (["limits", "--vx=1", "--vy=0.3", "--b=0.2"], True),
        (["sweep", "--axis=b", "--from=0", "--to=2", "--steps=9", "--vx=1.7", "--vy=0.3", "--outputs=limits"], True),
    ],
    ids=["point", "sweep_temp", "limits", "sweep_b_limits"],
)
def test_cli_command_runs_only_the_modules_it_uses(argv, scan):
    code, ran, _ = _fresh_cli(argv)
    assert code == 0
    assert {"cli", "model", "states", "entanglement", "criteria"} <= set(ran), ran
    assert (_SCAN_MODULES <= set(ran)) if scan else not (_SCAN_MODULES & set(ran)), ran
    assert "linalg" not in ran


def test_cli_import_runs_no_oracle_and_registers_every_layer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _, ran, registered = _fresh_cli(None)
    assert ran == ["__init__", "cli", "errors", "model"]
    assert {f"xyzent.{layer}" for layer in tracing.LAYERS} <= set(registered)
