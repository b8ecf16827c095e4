"""Spectral laboratory for small-data nonlinear Schrodinger equations with amplifying nonlinearities."""

from importlib import import_module

from .spectral import (
    ComplexField,
    Grid,
    NormReport,
    Space,
    boundary_shell_fraction,
    fourier_forward,
    fourier_inverse,
    norms,
    spectral_tail_fraction,
    sup_modulus,
)
from .propagators import (
    NonlinearityParams,
    PointwiseBlowUp,
    blowup_horizon,
    free_propagate,
    g_p,
    gauge_multiply,
    nonlinear_flow_exact,
)
from .solver import (
    DiagnosticRow,
    DiagnosticsLog,
    RunStatus,
    SolverConfig,
    SolverState,
    init,
    make_record,
    run_to_blowup,
)
from .lifespan import (
    BoundReport,
    critical_bound,
    critical_pointwise_time,
    fold,
    gamma_exponent,
    max_remainder_scaled,
    profile,
    remainder,
    remainder_series,
    sweep,
    t_star_time,
    theoretical_bound,
)
from .records import RunRecord, RunStats, SweepSummary
from .initial_data import bump_sum, gaussian, super_gaussian
from . import initial_data

__version__ = "0.1.0"

# The modules that no run reads load on first use (PEP 562), each with its names:
# a run neither compiles nor holds them.
_LAZY = {
    **dict.fromkeys(("profile_ode", "BoundConstants", "IntegrationFailure", "OdeParams",
                     "PerturbationSpec", "ProfileTrajectory", "bound_constants", "c0_constant",
                     "eta0_blowup_time", "eta0_closed_form", "eta0_modulus",
                     "integrate_perturbed", "make_perturbation", "sup_bound_check"),
                    "profile_ode"),
    **dict.fromkeys(("convergence", "ConvergenceReport", "convergence_study"), "convergence"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
