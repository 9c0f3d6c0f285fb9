"""Package layout: the oracles stay out of the runtime, and the public
surface is pinned."""

import ast
import pathlib

import xyzent

PACKAGE = pathlib.Path(xyzent.__file__).parent

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
