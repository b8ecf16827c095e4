"""Lifespan bound constants, scattering-profile extraction, diagnostic ratios, and the eps-sweep.

The headline quantity is the explicit lower-bound value for the rescaled
lifespan: with 0 < theta < 1, Im(lam) > 0 and datum eps*phi,

    eps^(2 theta/d) * T_eps^(1-theta)  >=  bound_value
    bound_value = (1-theta) d / (2 theta Im(lam) sup_xi |phi_hat(xi)|^(2 theta/d))

up to finite-eps effects; tau0 = bound_value^(1/(1-theta)) is the associated
time scale.  The sweep measures T_eps on a decreasing eps ladder and compares
the running minimum of the left side against bound_value with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .initial_data import build as build_initial_data
from .propagators import NonlinearityParams, blowup_horizon, coefficient_time, g_p, t_star_time
from .records import SweepSummary
from .solver import DiagnosticsLog, SolverConfig, init, run_to_blowup
from .spectral import (
    ComplexField,
    Space,
    _back_propagation_phase,
    fourier_forward,
    norms,
    sup_modulus,
)


def gamma_exponent(s: float, d: int) -> float:
    """Remainder-decay exponent gamma = (2s - d)/8; lies in (0, 1/2] on the admissible range."""
    gamma = (2.0 * s - d) / 8.0
    if not (0.0 < gamma <= 0.5):
        raise ValueError(f"gamma = (2s-d)/8 = {gamma} outside (0, 1/2]; s = {s}, d = {d}")
    return gamma


@dataclass
class BoundReport:
    tau0: float
    bound_value: float
    gamma: float | None = None
    t_star: float | None = None


def theoretical_bound(phi_hat: ComplexField, params: NonlinearityParams,
                      s: float | None = None, eps: float | None = None) -> BoundReport:
    """Evaluate the explicit lifespan lower-bound constants for datum transform phi_hat.

    Requires Im(lam) > 0 and 0 < theta < 1.  When s or eps are supplied the
    report also carries gamma = (2s-d)/8 and t_star = eps^(-theta/((1-theta)d)).
    """
    if phi_hat.space is not Space.FREQUENCY:
        raise ValueError("theoretical_bound expects the frequency-space datum")
    theta, d = params.theta, params.d
    if params.mu <= 0:
        raise ValueError(f"lifespan bound requires Im(lam) > 0, got {params.lam}")
    if not (0.0 < theta < 1.0):
        raise ValueError(
            f"lifespan bound requires 0 < theta < 1 (theta = 1 is the critical case), got {theta}"
        )
    sup = sup_modulus(phi_hat)
    if sup == 0:
        raise ValueError("datum transform vanishes identically")
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
    pointwise flow's horizon at sup|phi_hat|."""
    sup = sup_modulus(phi_hat)
    if sup == 0:
        raise ValueError("datum transform vanishes identically")
    return _critical_horizon(sup, d, lam)


def critical_pointwise_time(amplitude, d: int, lam: complex):
    """Heuristic per-frequency blow-up time exp(d / (2 Im(lam) amplitude^(2/d))).

    `amplitude` is eps*|phi_hat(xi)|; the critical profile ODE, the pointwise
    flow on the clock log t from t = 1, blows up at this time.
    """
    out = coefficient_time(1.0, _critical_horizon(amplitude, d, lam), 1.0)
    return float(out) if out.ndim == 0 else out


def profile(u: ComplexField, t: float) -> ComplexField:
    """Scattering profile A(t) = F[U(t)^{-1} u(t)] on the frequency lattice."""
    fhat = fourier_forward(u)
    vals = _back_propagation_phase(u.grid, t) * fhat.values
    return ComplexField(u.grid, Space.FREQUENCY, vals)


def remainder(u: ComplexField, t: float, params: NonlinearityParams) -> ComplexField:
    """Reduced-ODE remainder R(t) = F[U(t)^{-1} N(u)] - t^(-theta) N(A(t)).

    N(z) = lam |z|^(2 theta/d) z; defined for t > 0.  Both profiles share one
    back-propagation phase, multiplied in as :func:`profile` does, so each
    term is bit-identical to its :func:`profile`.
    """
    if not (t > 0):
        raise ValueError(f"remainder requires t > 0, got {t}")
    g = u.grid
    nu = ComplexField(g, Space.PHYSICAL, params.lam * g_p(u.values, params.p))
    phase = _back_propagation_phase(g, t)
    lhs = phase * fourier_forward(nu).values
    a = phase * fourier_forward(u).values
    rhs = t ** (-params.theta) * params.lam * g_p(a, params.p)
    return ComplexField(g, Space.FREQUENCY, lhs - rhs)


def remainder_series(diag: DiagnosticsLog, cfg: SolverConfig, t_min: float = 1.0,
                     t_max: float = np.inf):
    """sup_xi |R(t, xi)| over the stored snapshots with t_min <= t <= t_max.

    Both ends are inclusive; a snapshot outside them is never transformed.
    Returns (times, sup_values), two empty arrays when no snapshot is in
    range; the scaled series is sup * t^(theta+gamma).
    """
    times, sups = [], []
    for t, vals in zip(diag.snapshot_times, diag.snapshots):
        if not (t_min <= t <= t_max):
            continue
        u = ComplexField(cfg.grid, Space.PHYSICAL, vals)
        r = remainder(u, t, cfg.params)
        times.append(t)
        sups.append(sup_modulus(r))
    return np.array(times), np.array(sups)


def max_remainder_scaled(diag: DiagnosticsLog, cfg: SolverConfig, T: float) -> float | None:
    """sup over [t_star, T/2] of sup_xi|R| * t^(theta+gamma).

    Only the snapshots inside the window are transformed.  None where the
    window is undefined (theta >= 1, eps = 0, or gamma outside (0, 1/2]) or
    holds no snapshot.
    """
    params = cfg.params
    try:
        t_star = t_star_time(cfg.eps, params.theta, params.d)
        gamma = gamma_exponent(cfg.s, params.d)
    except ValueError:
        return None
    if T is None or T / 2.0 <= t_star:
        return None
    times, sups = remainder_series(diag, cfg, t_min=t_star, t_max=T / 2.0)
    if not len(times):
        return None
    return float(np.max(sups * times ** (params.theta + gamma)))


@dataclass
class RatioSample:
    """Scale-invariant diagnostic ratios at one time; None marks a vanishing denominator.

    r1: (1+t)^(d/2) ||u||_inf / ||U(-t)u||_{Sigma^s}         (dispersive decay)
    r2: (||u||_inf - t^(-d/2) ||A||_inf) t^(d/2+gamma) / ||U(-t)u||_{H^{0,s}}
        (profile dominance of the sup norm, t >= 1 only)
    r3: (1+t)^(d(p-1)/2) ||U(-t)N(u)||_{Sigma^s} / ||U(-t)u||_{Sigma^s}^p
        (nonlinear composition decay)
    """

    t: float
    r1: float | None
    r2: float | None
    r3: float | None


def decay_ratio_diagnostics(diag: DiagnosticsLog, cfg: SolverConfig) -> list:
    """Diagnostic ratios at index cfg.s sampled over a run's snapshots; each must stay bounded.

    Callers holding a solver state pass (state.diagnostics, state.config).
    Raises ValueError unless gamma = (2s-d)/8 lies in (0, 1/2], so s > d/2.
    """
    params = cfg.params
    s = cfg.s
    gamma = gamma_exponent(s, params.d)
    d, p = params.d, params.p
    out = []
    for t, vals in zip(diag.snapshot_times, diag.snapshots):
        u = ComplexField(cfg.grid, Space.PHYSICAL, vals)
        rep = norms(u, t, s)
        nu = ComplexField(cfg.grid, Space.PHYSICAL, params.lam * g_p(vals, p))
        rep_nu = norms(nu, t, s)
        r1 = (1 + t) ** (d / 2.0) * rep.l_inf / rep.sigma_s if rep.sigma_s > 0 else None
        r2 = None
        if t >= 1.0 and rep.h_0s > 0:
            sup_a = sup_modulus(profile(u, t))
            r2 = (rep.l_inf - t ** (-d / 2.0) * sup_a) * t ** (d / 2.0 + gamma) / rep.h_0s
        r3 = None
        if rep.sigma_s > 0:
            r3 = (1 + t) ** (d * (p - 1) / 2.0) * rep_nu.sigma_s / rep.sigma_s**p
        out.append(RatioSample(t=t, r1=r1, r2=r2, r3=r3))
    return out


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


def sweep(eps_ladder, base_config: SolverConfig, data_spec: dict,
          tolerance: float = 0.1, jobs: int = 1):
    """Run the eps ladder, stamp each record, and fold the records into a verdict.

    This is the one path from a config to a stamped record: `nlslab simulate`
    and `nlslab diagnostics` take the first record of a one-rung sweep.  The
    datum is built once, and every rung's state is initialised from it before
    the first run, so a datum that no rung can start from raises ValueError
    before any run.  Each record is stamped with the bound value and its
    scaled remainder maximum.  Returns (records, summary, bound), with bound
    from :func:`bound_or_none`.  The ladder must be non-empty and strictly
    decreasing.
    Censored (reached t_max) and boundary-contaminated runs are excluded from
    the bound verdict; if no usable run remains, or the config has no bound,
    the verdict is INCONCLUSIVE.
    """
    ladder = decreasing_ladder(eps_ladder)
    phi = build_initial_data(base_config.grid, data_spec)
    bound = bound_or_none(fourier_forward(phi), base_config.params)
    bound_value = None if bound is None else bound.bound_value

    states = [init(replace(base_config, eps=e), phi) for e in ladder]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool forks all its workers up front: one per rung at most
        with ProcessPoolExecutor(max_workers=min(jobs, len(states))) as pool:
            records = list(pool.map(run_to_blowup, states))
    else:
        records = [run_to_blowup(state) for state in states]

    q_values, running_min = [], []
    current_min = None
    for state, rec in zip(states, records):
        rec.bound_value = bound_value
        rec.max_remainder_scaled = max_remainder_scaled(rec.diagnostics, state.config, rec.T_eps)
        if rec.usable_for_bound():
            q = rec.invariant_quantity
            q_values.append(q)
            current_min = q if current_min is None else min(current_min, q)
        else:
            q_values.append(None)
        running_min.append(current_min)

    if current_min is None or bound_value is None:
        verdict = "INCONCLUSIVE"
    elif current_min >= bound_value * (1.0 - tolerance):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    summary = SweepSummary(
        eps_ladder=ladder,
        q_values=q_values,
        running_min=running_min,
        bound_value=bound_value,
        tolerance=tolerance,
        verdict=verdict,
    )
    return records, summary, bound
