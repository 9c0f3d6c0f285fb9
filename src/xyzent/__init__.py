"""Thermal entanglement toolkit for two-qubit Heisenberg XYZ models.

Closed-form separability verdicts, concurrence and entanglement of
formation, the disorder and entropic detection criteria, limit
temperatures (including vanishing-plus-reentry windows), and the
symmetry-breaking mean-field critical temperature.  The independent
oracles that check them live in xyzent.linalg.
"""

from .criteria import CriterionReport, disorder_check, entropic_check, exact_check
from .entanglement import (
    PTSpectrum,
    SeparabilityReport,
    entanglement_of_formation,
    pt_spectrum,
    separability_exact,
)
from .limits import (
    ClosedFormLimits,
    LimitTemperatures,
    MixtureThresholds,
    ReentryWindow,
    closed_form_limits,
    limit_temperatures,
    mixture_thresholds,
    reentry_two_level,
)
from .linalg import concurrence_general, realize_matrix
from .meanfield import (
    CriticalTemperature,
    MeanFieldSolution,
    critical_temperature,
    exact_free_energy,
    mf_free_energy,
    solve_mf,
)
from .model import EigenSystem, XYZParams, canonicalize, eigensystem
from .states import BellMixture, mixture, thermal_mixture

__version__ = "0.1.0"

__all__ = [
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
