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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import build as build_initial_data
from .propagators import NonlinearityParams, g_p
from .records import SweepSummary
from .solver import DiagnosticsLog, SolverConfig, SolverState, init, run_to_blowup
from .spectral import (
    ComplexField,
    Space,
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


def t_star_time(eps: float, theta: float, d: int) -> float:
    """Hand-off time eps^(-theta/((1-theta) d)) where the profile ODE takes over."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"t_star is defined for theta in (0,1), got {theta}")
    if not (eps > 0.0):
        raise ValueError(f"t_star is defined for eps > 0, got {eps}")
    return float(eps ** (-theta / ((1.0 - theta) * d)))


@dataclass
class BoundReport:
    tau0: float
    bound_value: float
    tau1: float
    gamma: float | None = None
    t_star: float | None = None
    d0_estimate: float | None = None
    critical_T: float | None = None


def theoretical_bound(phi_hat: ComplexField, params: NonlinearityParams,
                      s: float | None = None, eps: float | None = None) -> BoundReport:
    """Evaluate the explicit lifespan lower-bound constants for datum transform phi_hat.

    Requires Im(lam) > 0 and 0 < theta < 1.  When s or eps are supplied the
    report also carries gamma = (2s-d)/8 and t_star = eps^(-theta/((1-theta)d)).
    """
    if phi_hat.space is not Space.FREQUENCY:
        raise ValueError("theoretical_bound expects the frequency-space datum")
    mu = params.mu
    theta, d = params.theta, params.d
    if mu <= 0:
        raise ValueError(f"lifespan bound requires Im(lam) > 0, got {params.lam}")
    if not (0.0 < theta < 1.0):
        raise ValueError(
            f"lifespan bound requires 0 < theta < 1 (theta = 1 is the critical case), got {theta}"
        )
    sup = sup_modulus(phi_hat)
    if sup == 0:
        raise ValueError("datum transform vanishes identically")
    bound_value = (1.0 - theta) * d / (2.0 * theta * mu * sup ** (2.0 * theta / d))
    tau0 = bound_value ** (1.0 / (1.0 - theta))
    # OdeParams.tau1 with a = theta, b = 2 theta/d and psi0_sup = sup
    b = params.b
    q = b / (2.0 * (1.0 - theta))
    tau1 = float((2.0 * q * mu * sup**b) ** (-1.0 / (1.0 - theta)))
    report = BoundReport(tau0=tau0, bound_value=bound_value, tau1=tau1)
    if s is not None:
        report.gamma = gamma_exponent(s, d)
    if eps is not None:
        report.t_star = t_star_time(eps, theta, d)
    return report


def critical_bound(phi_hat: ComplexField, d: int, lam: complex) -> float:
    """Critical-case (theta = 1) constant d / (2 Im(lam) sup|phi_hat|^(2/d))."""
    mu = float(np.imag(lam))
    if mu <= 0:
        raise ValueError(f"critical bound requires Im(lam) > 0, got {lam}")
    sup = sup_modulus(phi_hat)
    if sup == 0:
        raise ValueError("datum transform vanishes identically")
    return d / (2.0 * mu * sup ** (2.0 / d))


def critical_pointwise_time(amplitude, d: int, lam: complex):
    """Heuristic per-frequency blow-up time exp(d / (2 Im(lam) amplitude^(2/d))).

    `amplitude` is eps*|phi_hat(xi)|; the log-denominator of the critical
    profile ODE vanishes at this time.
    """
    mu = float(np.imag(lam))
    if mu <= 0:
        raise ValueError(f"critical heuristic requires Im(lam) > 0, got {lam}")
    amp = np.asarray(amplitude, dtype=float)
    out = np.exp(d / (2.0 * mu * amp ** (2.0 / d)))
    if out.ndim == 0:
        return float(out)
    return out


def profile(u: ComplexField, t: float) -> ComplexField:
    """Scattering profile A(t) = F[U(t)^{-1} u(t)] on the frequency lattice."""
    fhat = fourier_forward(u)
    vals = np.exp(0.5j * t * u.grid.abs_xi_sq) * fhat.values
    return ComplexField(u.grid, Space.FREQUENCY, vals, u.blown_up)


def remainder(u: ComplexField, t: float, params: NonlinearityParams) -> ComplexField:
    """Reduced-ODE remainder R(t) = F[U(t)^{-1} N(u)] - t^(-theta) N(A(t)).

    N(z) = lam |z|^(2 theta/d) z; defined for t > 0.
    """
    if not (t > 0):
        raise ValueError(f"remainder requires t > 0, got {t}")
    g = u.grid
    nu = ComplexField(g, Space.PHYSICAL, params.lam * g_p(u.values, params.p))
    lhs = profile(nu, t)
    a = profile(u, t)
    rhs = t ** (-params.theta) * params.lam * g_p(a.values, params.p)
    return ComplexField(g, Space.FREQUENCY, lhs.values - rhs)


def extract_profile(state: SolverState):
    """(A, R) for a solver state; R is None at t = 0."""
    u, t = state.u, state.t
    a = profile(u, t)
    r = remainder(u, t, state.config.params) if t > 0 else None
    return a, r


def remainder_series(diag: DiagnosticsLog, cfg: SolverConfig, t_min: float = 1.0):
    """sup_xi |R(t, xi)| over the stored snapshots with t >= t_min.

    Returns (times, sup_values); the scaled series is sup * t^(theta+gamma).
    """
    times, sups = [], []
    for t, vals in zip(diag.snapshot_times, diag.snapshots):
        if t < t_min:
            continue
        u = ComplexField(cfg.grid, Space.PHYSICAL, vals)
        r = remainder(u, t, cfg.params)
        times.append(t)
        sups.append(sup_modulus(r))
    return np.array(times), np.array(sups)


def max_remainder_scaled(diag: DiagnosticsLog, cfg: SolverConfig, T: float) -> float | None:
    """sup over [t_star, T/2] of sup_xi|R| * t^(theta+gamma); None when the window is empty."""
    params = cfg.params
    if params.theta >= 1.0:
        return None
    t_star = t_star_time(cfg.eps, params.theta, params.d)
    if T is None or T / 2.0 <= t_star:
        return None
    gamma = gamma_exponent(cfg.s, params.d)
    times, sups = remainder_series(diag, cfg, t_min=t_star)
    mask = times <= T / 2.0
    if not np.any(mask):
        return None
    scaled = sups[mask] * times[mask] ** (params.theta + gamma)
    return float(np.max(scaled))


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


def decay_ratio_diagnostics(diag: DiagnosticsLog, cfg: SolverConfig,
                      s: float | None = None, gamma: float | None = None) -> list:
    """Diagnostic ratios sampled over a run's snapshots; each must stay bounded.

    Callers holding a solver state pass (state.diagnostics, state.config).
    """
    params = cfg.params
    s = cfg.s if s is None else s
    if not (s > params.d / 2.0):
        raise ValueError(f"diagnostic ratios require s > d/2, got s={s}, d={params.d}")
    if gamma is None:
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


def _run_one(args):
    cfg, data_spec = args
    phi = build_initial_data(cfg.grid, data_spec)
    return run_to_blowup(init(cfg, phi))


def sweep(eps_ladder, base_config: SolverConfig, data_spec: dict,
          tolerance: float = 0.1, jobs: int = 1, measure_remainder: bool = True):
    """Run the eps ladder, stamp bound values, and fold the records into a verdict.

    The ladder must be strictly decreasing.  Censored (reached t_max) and
    boundary-contaminated runs are excluded from the bound verdict; if no
    usable run remains the verdict is INCONCLUSIVE.
    """
    ladder = [float(e) for e in eps_ladder]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"eps ladder must be strictly decreasing, got {ladder}")
    params = base_config.params
    phi = build_initial_data(base_config.grid, data_spec)
    phi_hat = fourier_forward(phi)
    bound = theoretical_bound(phi_hat, params, s=base_config.s, eps=min(ladder))

    configs = [replace(base_config, eps=e) for e in ladder]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, [(c, data_spec) for c in configs]))
    else:
        records = [_run_one((c, data_spec)) for c in configs]

    q_values, running_min, statuses = [], [], []
    current_min = None
    d0 = None
    for cfg, rec in zip(configs, records):
        rec.bound_value = bound.bound_value
        if measure_remainder and rec.diagnostics is not None and rec.T_eps is not None:
            rec.max_remainder_scaled = max_remainder_scaled(rec.diagnostics, cfg, rec.T_eps)
        statuses.append(rec.status)
        if rec.usable_for_bound():
            q = rec.invariant_quantity
            q_values.append(q)
            current_min = q if current_min is None else min(current_min, q)
            rough = rec.T_eps * rec.eps ** (2.0 * params.theta / ((1.0 - params.theta) * params.d))
            d0 = rough if d0 is None else min(d0, rough)
        else:
            q_values.append(None)
        running_min.append(current_min)

    usable = [q for q in q_values if q is not None]
    if not usable:
        verdict = "INCONCLUSIVE"
    elif min(usable) >= bound.bound_value * (1.0 - tolerance):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    summary = SweepSummary(
        eps_ladder=ladder,
        q_values=q_values,
        running_min=running_min,
        bound_value=bound.bound_value,
        tolerance=tolerance,
        verdict=verdict,
        d0_estimate=d0,
        statuses=statuses,
    )
    bound.d0_estimate = d0
    return records, summary, bound
