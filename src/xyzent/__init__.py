"""Thermal entanglement toolkit for two-qubit Heisenberg XYZ models.

Closed-form separability verdicts, concurrence and entanglement of
formation, the disorder and entropic detection criteria, limit
temperatures (including vanishing-plus-reentry windows), and the
symmetry-breaking mean-field critical temperature.  The independent
oracles that check them live in xyzent.linalg.

Importing the package runs none of its submodules.  Each one is put in
sys.modules and on the package unexecuted (importlib.util.LazyLoader),
and its body runs, once, when one of its attributes is first read.  The
public names (_EXPORTS) are read from their submodules by the module
__getattr__, so they load them the same way.  So `xyzent point` never
runs the limit scan or the mean field, while every submodule can still
be looked up in sys.modules (perfbench's tracer finds each layer there).

A program run, `python -m xyzent.cli` or the `xyzent` console script
(_console_script, which runs that module as __main__ through runpy), sets
up its own process only in the two __main__ blocks of xyzent.cli: one
OpenBLAS thread (_one_blas_thread) and the garbage collector kept off the
objects its imports build (the xyzent.cli docstring).  Importing the
package or any of its modules, or calling xyzent.cli.main in a process,
does neither: os.environ, the collector and the atexit callbacks stay as
they were.
"""

import importlib.util as _util
import os as _os
import sys as _sys

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "criteria": ("CriterionReport", "disorder_check", "entropic_check"),
    "entanglement": (
        "PTSpectrum",
        "SeparabilityReport",
        "entanglement_of_formation",
        "pt_spectrum",
        "separability_exact",
    ),
    "limits": ("LimitTemperatures", "ReentryWindow", "limit_temperatures", "reentry_two_level"),
    "linalg": ("ClosedFormLimits", "closed_form_limits", "concurrence_general", "exact_free_energy", "realize_matrix"),
    "meanfield": ("MeanFieldSolution", "critical_temperature", "mf_free_energy", "solve_mf"),
    "model": ("EigenSystem", "XYZParams", "canonicalize", "eigensystem"),
    "states": ("BellMixture", "mixture", "thermal_mixture"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def _register(name):
    """Put the submodule name in sys.modules and on the package, unexecuted."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    globals()[name] = module


# not cli: runpy, which runs it for both program entries, warns if it is already in sys.modules
for _name in ("errors", "model", "states", "entanglement", "criteria", "expsums", "limits", "meanfield", "linalg"):
    _register(_name)
del _name


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


#: The variables OpenBLAS reads its thread count from, in its order.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread():
    """Have OpenBLAS start no worker thread, unless a thread count is set.

    OpenBLAS reads its thread count once, when numpy loads it, and by
    default starts a worker thread per core but the first, which spin
    while numpy imports.  The CLI hands nothing to LAPACK, so it never
    uses them.  Does nothing once numpy is imported, or where the user
    set any of _BLAS_THREADS.  For the programs only: it changes
    os.environ, which every child process inherits.
    """
    if "numpy" not in _sys.modules and not any(_os.environ.get(k) for k in _BLAS_THREADS):
        _os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _console_script():
    """The `xyzent` console script: xyzent.cli run as __main__, as
    `python -m xyzent.cli` runs it."""
    import runpy

    runpy.run_module("xyzent.cli", run_name="__main__", alter_sys=True)
