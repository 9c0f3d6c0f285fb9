"""Thermal entanglement toolkit for two-qubit Heisenberg XYZ models.

Closed-form separability verdicts, concurrence and entanglement of
formation, the disorder and entropic detection criteria, limit
temperatures (including vanishing-plus-reentry windows), and the
symmetry-breaking mean-field critical temperature, all cross-checked
against a general matrix-level oracle.
"""

from .criteria import (
    CriterionReport,
    disorder_check,
    disorder_margins_spin_form,
    entropic_check,
    exact_check,
)
from .entanglement import (
    PTSpectrum,
    RSpectrum,
    SeparabilityReport,
    concurrence_general,
    entanglement_of_formation,
    pt_spectrum,
    r_spectrum,
    separability_exact,
    total_spin_margins,
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
    thermal_margin_exact,
)
from .linalg import (
    entropy_base2,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    spin_flip,
)
from .meanfield import (
    CriticalTemperature,
    MeanFieldSolution,
    critical_temperature,
    exact_free_energy,
    mf_free_energy,
    solve_mf,
)
from .model import EigenSystem, XYZParams, canonicalize, eigensystem, hamiltonian_matrix
from .states import (
    BellMixture,
    SpinAverages,
    mixture,
    realize_matrix,
    spin_averages,
    thermal_mixture,
)

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
    "RSpectrum",
    "ReentryWindow",
    "SeparabilityReport",
    "SpinAverages",
    "XYZParams",
    "canonicalize",
    "closed_form_limits",
    "concurrence_general",
    "critical_temperature",
    "disorder_check",
    "disorder_margins_spin_form",
    "eigensystem",
    "entanglement_of_formation",
    "entropic_check",
    "entropy_base2",
    "exact_check",
    "exact_free_energy",
    "hamiltonian_matrix",
    "hermitian_eigenvalues",
    "limit_temperatures",
    "mf_free_energy",
    "mixture",
    "mixture_thresholds",
    "partial_trace",
    "partial_transpose",
    "pt_spectrum",
    "r_spectrum",
    "realize_matrix",
    "reentry_two_level",
    "separability_exact",
    "solve_mf",
    "spin_averages",
    "spin_flip",
    "thermal_margin_exact",
    "thermal_mixture",
    "total_spin_margins",
]
