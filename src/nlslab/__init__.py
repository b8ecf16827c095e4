"""Spectral laboratory for small-data nonlinear Schrodinger equations with amplifying nonlinearities."""

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
    ConvergenceReport,
    DiagnosticRow,
    DiagnosticsLog,
    RunStatus,
    SolverConfig,
    SolverState,
    convergence_study,
    init,
    make_record,
    mass_balance_residuals,
    run_to_blowup,
)
from .profile_ode import (
    BoundConstants,
    IntegrationFailure,
    OdeParams,
    PerturbationSpec,
    ProfileTrajectory,
    bound_constants,
    c0_constant,
    eta0_blowup_time,
    eta0_closed_form,
    eta0_modulus,
    integrate_perturbed,
    make_perturbation,
    sup_bound_check,
)
from .lifespan import (
    BoundReport,
    critical_bound,
    critical_pointwise_time,
    gamma_exponent,
    decay_ratio_diagnostics,
    max_remainder_scaled,
    profile,
    remainder,
    remainder_series,
    sweep,
    t_star_time,
    theoretical_bound,
)
from .records import RunRecord, SweepSummary, canonical_fingerprint
from .initial_data import bump_sum, gaussian, super_gaussian
from . import initial_data

__version__ = "0.1.0"
