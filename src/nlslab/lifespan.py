"""Lifespan bound constants, the diagnostic ratios of a run, and the eps-sweep.

The headline quantity is the explicit lower-bound value for the rescaled
lifespan: with 0 < theta < 1, Im(lam) > 0 and datum eps*phi,

    eps^(2 theta/d) * T_eps^(1-theta)  >=  bound_value
    bound_value = (1-theta) d / (2 theta Im(lam) sup_xi |phi_hat(xi)|^(2 theta/d))

up to finite-eps effects; tau0 = bound_value^(1/(1-theta)) is the associated
time scale.  The sweep measures T_eps on a decreasing eps ladder, and the fold
compares the least left side of its records against bound_value with a tolerance.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import build as build_initial_data, check_spec
from .propagators import (  # profile and remainder are re-exported
    NonlinearityParams,
    blowup_horizon,
    coefficient_time,
    gamma_exponent,
    profile,
    remainder,
    t_star_time,
)
from .records import SweepSummary
from .solver import (  # max_remainder_scaled and remainder_series are re-exported
    SolverConfig, init, max_remainder_scaled, remainder_series, run_to_blowup)
from .spectral import ComplexField, Space, _require_space, fourier_forward, sup_modulus


@dataclass
class BoundReport:
    tau0: float
    bound_value: float
    gamma: float | None = None
    t_star: float | None = None


def _datum_peak(phi_hat: ComplexField, op: str) -> float:
    """sup|phi_hat|, the datum's peak that every bound reads; ValueError naming `op`
    unless phi_hat is a frequency-space field, and for a zero datum."""
    _require_space(phi_hat, Space.FREQUENCY, op)
    sup = sup_modulus(phi_hat)
    if sup == 0:
        raise ValueError("datum transform vanishes identically")
    return sup


def theoretical_bound(phi_hat: ComplexField, params: NonlinearityParams,
                      s: float | None = None, eps: float | None = None) -> BoundReport:
    """Evaluate the explicit lifespan lower-bound constants for datum transform phi_hat.

    Requires Im(lam) > 0 and 0 < theta < 1.  When s or eps are supplied the
    report also carries gamma = (2s-d)/8 and t_star = eps^(-theta/((1-theta)d)).
    """
    sup = _datum_peak(phi_hat, "theoretical_bound")
    theta, d = params.theta, params.d
    if params.mu <= 0:
        raise ValueError(f"lifespan bound requires Im(lam) > 0, got {params.lam}")
    if not (0.0 < theta < 1.0):
        raise ValueError(
            f"lifespan bound requires 0 < theta < 1 (theta = 1 is the critical case), got {theta}"
        )
    # the horizon of the peak mode's flow; its clock from t = 0 reaches it at tau0
    horizon = blowup_horizon(sup, params)
    report = BoundReport(tau0=float(coefficient_time(0.0, horizon, theta)),
                         bound_value=(1.0 - theta) * horizon)
    if s is not None:
        report.gamma = gamma_exponent(s, d)
    if eps is not None:
        report.t_star = t_star_time(eps, theta, d)
    return report


def bound_or_none(phi_hat: ComplexField, params: NonlinearityParams) -> BoundReport | None:
    """The run's bound, :func:`theoretical_bound`, or None where it is undefined:
    theta = 1, Im(lam) <= 0 or a zero datum.  Every config that runs gets a
    record; one without a bound gets bound_value None."""
    try:
        return theoretical_bound(phi_hat, params)
    except ValueError:
        return None


def _critical_horizon(amplitude, d: int, lam: complex):
    if not np.imag(lam) > 0:
        raise ValueError(f"the critical case requires Im(lam) > 0, got {lam}")
    return blowup_horizon(amplitude, NonlinearityParams(lam=lam, theta=1.0, d=d))


def critical_bound(phi_hat: ComplexField, d: int, lam: complex) -> float:
    """Critical-case (theta = 1) constant d / (2 Im(lam) sup|phi_hat|^(2/d)), the
    pointwise flow's horizon at sup|phi_hat|, for the frequency-space datum."""
    return _critical_horizon(_datum_peak(phi_hat, "critical_bound"), d, lam)


def critical_pointwise_time(amplitude, d: int, lam: complex):
    """Heuristic per-frequency blow-up time exp(d / (2 Im(lam) amplitude^(2/d))).

    `amplitude` is eps*|phi_hat(xi)|; the critical profile ODE, the pointwise
    flow on the clock log t from t = 1, blows up at this time.
    """
    out = coefficient_time(1.0, _critical_horizon(amplitude, d, lam), 1.0)
    return float(out) if out.ndim == 0 else out


def decreasing_ladder(eps_ladder) -> list:
    """The eps ladder as floats; ValueError unless it has a rung and its rungs are
    finite, >= 0 and strictly decreasing."""
    ladder = [float(e) for e in eps_ladder]
    if not ladder:
        raise ValueError("eps ladder must hold at least one rung, got []")
    if not all(0.0 <= e < np.inf for e in ladder):
        raise ValueError(f"eps ladder rungs must be finite and >= 0, got {ladder}")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"eps ladder must be strictly decreasing, got {ladder}")
    return ladder


def checked_tolerance(tolerance) -> float:
    """The verdict's tolerance as a float; ValueError unless it lies in [0, 1), so that
    the threshold bound_value * (1 - tolerance) lies in (0, bound_value]."""
    tolerance = float(tolerance)
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must lie in [0, 1), got {tolerance!r}")
    return tolerance


def fold(records, tolerance: float) -> SweepSummary:
    """A ladder's verdict, read off its records' status, invariant_quantity and
    bound_value (one experiment's, so the first record's is every one's).  min_q is
    the least q of the runs that blew up.  INCONCLUSIVE where none did or there is
    no bound, else PASS where min_q >= bound_value * (1 - tolerance), else FAIL."""
    tolerance = checked_tolerance(tolerance)
    min_q = min((rec.invariant_quantity for rec in records if rec.usable_for_bound()),
                default=None)
    if min_q is None or records[0].bound_value is None:
        verdict = "INCONCLUSIVE"
    elif min_q >= records[0].bound_value * (1.0 - tolerance):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return SweepSummary(verdict=verdict, min_q=min_q, tolerance=tolerance)


def sweep(eps_ladder, base_config: SolverConfig, data_spec: dict,
          tolerance: float = 0.1, jobs: int = 1, diagnostics: bool = False):
    """Run the eps ladder, stamp each record, and fold the records into a verdict.

    This is the one path from a config to a stamped record: `nlslab simulate`
    and `nlslab diagnostics` take the first record of a one-rung sweep.  The
    datum is built once.  With `jobs` = 1 each rung is initialised from it
    just before it runs, the sweep holds no rung's state while that rung
    runs (the run releases each of its states once it has a newer one), and
    the datum goes once the last rung has started: a sweep holds one rung.
    A datum that no rung can start from still raises ValueError before any
    run, for the first rung is initialised first and is the only one that
    can fail: the ladder is strictly decreasing, so the first rung has the
    largest eps, and the cap check sup|eps*phi| < 1e3/eps is monotone in eps
    under rounding (every other check of :func:`nlslab.solver.init` does not
    depend on eps).  With `jobs` > 1 every rung is initialised before the
    pool starts, and the records are those of `jobs` = 1.  Each run's record
    comes from :func:`nlslab.solver.make_record` with every measurement of
    the run; the sweep stamps only the datum-level facts, the bound value
    and its own copy of the experiment (see :class:`nlslab.records.RunRecord`),
    whose datum is as :func:`nlslab.initial_data.check_spec` reads it.
    `diagnostics` reaches :func:`nlslab.solver.init`: each run then computes
    a full row at every kept grid time, with the ratios r1-r3 (the log's
    `rows`) and :func:`remainder_series` over the whole run, and the record's
    values do not change.  Returns (records, summary, bound), with summary
    :func:`fold` of the stamped records and bound from :func:`bound_or_none`.
    The ladder must be non-empty and strictly decreasing, and the tolerance in
    [0, 1): both are checked before any run.
    """
    ladder = decreasing_ladder(eps_ladder)
    checked_tolerance(tolerance)
    data_spec = check_spec(data_spec)
    phi = build_initial_data(base_config.grid, data_spec)
    bound = bound_or_none(fourier_forward(phi), base_config.params)
    bound_value = None if bound is None else bound.bound_value
    grid, params = base_config.grid, base_config.params
    experiment = {"initial_data": data_spec, "d": grid.d, "n": grid.n, "L": grid.L,
                  "lam": [float(params.lam.real), float(params.lam.imag)], "theta": params.theta,
                  "s": base_config.s, "t_max": base_config.t_max,
                  "record_every": base_config.record_every}

    configs = [replace(base_config, eps=e) for e in ladder]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        states = [init(config, phi, diagnostics) for config in configs]
        # a fork-started pool forks all its workers up front: one per rung at most
        with ProcessPoolExecutor(max_workers=min(jobs, len(states))) as pool:
            records = list(pool.map(run_to_blowup, states))
    else:
        records = []
        for k, config in enumerate(configs, 1):
            # the first init is the one that can fail, and it comes before any run
            start = [init(config, phi, diagnostics)]
            if k == len(configs):
                phi = None  # the last rung has started
            # the run takes the only reference to its state, and so can release it
            records.append(run_to_blowup(start.pop()))

    for rec in records:
        rec.bound_value = bound_value
        rec.experiment = deepcopy(experiment)
    return records, fold(records, tolerance), bound
