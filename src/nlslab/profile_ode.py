"""Diagonal profile ODE with singular-in-time power coefficient.

Implements the model problem i eta' = (lam / t^a) |eta|^b eta on [t_*, T):
the unperturbed flow has a closed-form solution whose modulus blows up when
an explicit denominator vanishes, and small perturbations (psi1 of the datum,
rho of the equation) leave the trajectory within an explicit envelope built
from the constants C0, C3, M below.  Every quantity here is per-frequency;
the equation is diagonal in xi, so samples integrate independently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .propagators import PointwiseBlowUp


class IntegrationFailure(RuntimeError):
    """The adaptive integrator stopped before the requested end time."""


@dataclass(frozen=True)
class OdeParams:
    """Parameters of the profile ODE and its bound window.

    q = b / (2(1-a)) and tau1 = (2 q Im(lam) psi0_sup^b)^(-1/(1-a)) are
    derived exactly; sigma must satisfy 0 < sigma < tau1.
    """

    a: float
    b: float
    lam: complex
    eps: float
    t_star: float
    psi0_sup: float
    sigma: float | None = None

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"decay exponent a must lie in (0,1), got {self.a}")
        if not (self.b > 0.0):
            raise ValueError(f"power b must be positive, got {self.b}")
        if not (np.imag(self.lam) > 0.0):
            raise ValueError(f"Im(lam) must be positive, got {self.lam}")
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (self.t_star > 0.0):
            raise ValueError(f"t_star must be positive, got {self.t_star}")
        if self.psi0_sup < 0.0:
            raise ValueError(f"psi0_sup must be >= 0, got {self.psi0_sup}")
        if self.sigma is None:
            default = self.tau1 / 2.0 if np.isfinite(self.tau1) else 1.0
            object.__setattr__(self, "sigma", default)
        if not (0.0 < self.sigma < self.tau1):
            raise ValueError(
                f"sigma must lie in (0, tau1) = (0, {self.tau1!r}), got {self.sigma}"
            )

    @property
    def q(self) -> float:
        return self.b / (2.0 * (1.0 - self.a))

    @property
    def mu(self) -> float:
        return float(np.imag(self.lam))

    @property
    def tau1(self) -> float:
        rate = 2.0 * self.q * self.mu * self.psi0_sup**self.b
        if rate == 0.0:
            return np.inf
        return float(rate ** (-1.0 / (1.0 - self.a)))

    @property
    def horizon(self) -> float:
        """Upper end of the bound window, sigma * eps^(-2q)."""
        return self.sigma * self.eps ** (-2.0 * self.q)


def _denominator(t, psi0_abs, params: OdeParams):
    rate = 2.0 * params.q * params.mu * np.abs(psi0_abs) ** params.b * params.eps**params.b
    t = np.asarray(t, dtype=float)
    return 1.0 + rate * (params.t_star ** (1.0 - params.a) - t ** (1.0 - params.a))


def _modulus_and_denominator(t, psi0_abs, params: OdeParams):
    """(|eta0(t)|, D(t)); raises :class:`PointwiseBlowUp` where D <= 0."""
    denom = _denominator(t, psi0_abs, params)
    if np.any(denom <= 0.0):
        raise PointwiseBlowUp(eta0_blowup_time(psi0_abs, params))
    return params.eps * np.abs(psi0_abs) * denom ** (-1.0 / params.b), denom


def eta0_modulus(t, psi0_abs, params: OdeParams):
    """Closed-form |eta0(t)| for datum modulus |psi0| at one frequency.

    |eta0(t)|^b = (eps |psi0|)^b / D(t) with the explicit denominator D;
    raises :class:`PointwiseBlowUp` where D <= 0.
    """
    out, _ = _modulus_and_denominator(t, psi0_abs, params)
    if out.ndim == 0:
        return float(out)
    return out


def eta0_closed_form(t, psi0_value, params: OdeParams):
    """Closed-form complex eta0(t); modulus from :func:`eta0_modulus`, phase
    advanced by -(Re lam / (b mu)) log(1/D(t))."""
    modulus, denom = _modulus_and_denominator(t, np.abs(psi0_value), params)
    phase0 = np.angle(psi0_value) if psi0_value != 0 else 0.0
    alpha = float(np.real(params.lam))
    phase = phase0 + (alpha / (params.b * params.mu)) * np.log(denom)
    return modulus * np.exp(1j * phase)


def eta0_blowup_time(psi0_abs, params: OdeParams):
    """Denominator root: where the closed-form modulus escapes to infinity."""
    rate = 2.0 * params.q * params.mu * np.abs(psi0_abs) ** params.b * params.eps**params.b
    rate = np.asarray(rate, dtype=float)
    with np.errstate(divide="ignore"):
        tpow = params.t_star ** (1.0 - params.a) + np.where(rate > 0, 1.0 / rate, np.inf)
    out = tpow ** (1.0 / (1.0 - params.a))
    if out.ndim == 0:
        return float(out)
    return out


def _window_times(params: OdeParams, t_end: float, n: int) -> np.ndarray:
    # uniform in t^(1-a), the ODE's natural clock; clipped because the
    # power round trip can overshoot the endpoints by an ulp
    ex = 1.0 - params.a
    hi = max(t_end, params.t_star)
    times = np.linspace(params.t_star**ex, hi**ex, n) ** (1.0 / ex)
    return np.clip(times, params.t_star, hi)


def c0_constant(params: OdeParams) -> float:
    """Envelope constant C0 = psi0_sup / (1 - (sigma/tau1)^(1-a))^(1/b)."""
    if not np.isfinite(params.tau1):
        return params.psi0_sup
    ratio = (params.sigma / params.tau1) ** (1.0 - params.a)
    return float(params.psi0_sup / (1.0 - ratio) ** (1.0 / params.b))


def sup_bound_check(params: OdeParams, psi0_abs_samples=None, n_times: int = 129) -> float:
    """Max of |eta0|/eps over a (t, psi0)-sample grid on [t_*, sigma eps^(-2q)].

    The contract is that the result never exceeds :func:`c0_constant`.
    """
    if psi0_abs_samples is None:
        psi0_abs_samples = np.linspace(0.0, params.psi0_sup, 33)[1:]
    times = _window_times(params, params.horizon, n_times)
    worst = 0.0
    for psi0 in np.atleast_1d(psi0_abs_samples):
        vals = eta0_modulus(times, psi0, params) / params.eps
        worst = max(worst, float(np.max(vals)))
    return worst


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the perturbation envelope: |eta| <= c0*eps + m*eps^(1+delta)."""

    c0: float
    c3: float
    m: float


def bound_constants(params: OdeParams, c1: float, c2: float, delta: float) -> BoundConstants:
    c0 = c0_constant(params)
    c3 = 2.0 * abs(params.lam) * (params.b + 1.0) * (2.0 * c0 + 1.0) ** params.b + 0.5
    m = (
        2.0
        * np.sqrt(c1**2 + c2**2 / (2.0 * c3))
        * np.exp(c3 * params.sigma ** (1.0 - params.a) / (2.0 * (1.0 - params.a)))
    )
    return BoundConstants(c0=c0, c3=c3, m=float(m))


@dataclass(frozen=True)
class PerturbationSpec:
    """Admissible perturbation: |psi1| <= c1 eps^(1+delta), |rho| <= c2 eps^(1+b+delta)/t^a.

    `psi1(xi)` perturbs the datum; `rho(t, xi, eta)` perturbs the equation
    (the eta argument lets adversarial shapes track the trajectory).  Both
    envelopes are re-checked at runtime on every sampled argument.
    """

    psi1: Callable
    rho: Callable
    c1: float
    c2: float
    delta: float

    def rho_envelope(self, t, params: OdeParams):
        return self.c2 * params.eps ** (1.0 + params.b + self.delta) / np.asarray(t) ** params.a

    def psi1_envelope(self, params: OdeParams):
        return self.c1 * params.eps ** (1.0 + self.delta)


def make_perturbation(kind: str, c1: float, c2: float, delta: float,
                      params: OdeParams, seed=None) -> PerturbationSpec:
    """Library of probe shapes: 'zero', 'oscillatory', or 'adversarial'.

    'adversarial' saturates the rho envelope radially along the current
    trajectory direction, the worst sign for the growth bound.
    """
    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi)
    amp1 = c1 * params.eps ** (1.0 + delta)

    def env(t):
        return c2 * params.eps ** (1.0 + params.b + delta) / np.asarray(t) ** params.a

    def xi_scalar(xi):
        v = np.asarray(xi, dtype=float)
        return v if v.ndim <= 1 else np.linalg.norm(v, axis=-1)

    if kind == "zero":
        psi1 = lambda xi: np.zeros(np.shape(xi_scalar(xi)), dtype=complex)
        rho = lambda t, xi, eta: np.zeros_like(np.asarray(eta, dtype=complex))
    elif kind == "oscillatory":
        psi1 = lambda xi: amp1 * np.exp(1j * (phase + xi_scalar(xi)))
        rho = lambda t, xi, eta: env(t) * np.exp(1j * (t + phase)) * np.ones_like(np.asarray(eta))
    elif kind == "adversarial":
        psi1 = lambda xi: amp1 * np.exp(1j * phase) * np.ones_like(np.asarray(xi, dtype=complex))

        def rho(t, xi, eta):
            eta = np.asarray(eta, dtype=complex)
            mod = np.abs(eta)
            direction = np.where(mod > 0, eta / np.where(mod > 0, mod, 1.0), 1.0 + 0.0j)
            return 1j * env(t) * direction
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    return PerturbationSpec(psi1=psi1, rho=rho, c1=c1, c2=c2, delta=delta)


@dataclass
class ProfileTrajectory:
    """Sampled perturbed/unperturbed trajectories and the energy-like audit function f."""

    t: np.ndarray            # (nt,)
    xi: np.ndarray           # (m,) or (m, d)
    eta: np.ndarray          # (m, nt) complex
    eta0: np.ndarray         # (m, nt) complex, closed form
    f: np.ndarray            # (m, nt): |eta - eta0|^2 + c2^2/(2 c3) eps^(2+2delta)
    params: OdeParams
    pert: PerturbationSpec
    constants: BoundConstants

    @property
    def w(self) -> np.ndarray:
        return self.eta - self.eta0

    def gronwall_envelope(self) -> np.ndarray:
        """Pointwise bound f(t_*) exp(C3 eps^b (t^(1-a) - t_*^(1-a)) / (1-a)) per sample."""
        p = self.params
        ex = 1.0 - p.a
        growth = np.exp(self.constants.c3 * p.eps**p.b * (self.t**ex - p.t_star**ex) / ex)
        return self.f[:, :1] * growth[None, :]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "xi", "re_eta", "im_eta", "abs_eta0", "abs_w", "f"])
            for i, xi in enumerate(np.atleast_1d(self.xi)):
                for k, t in enumerate(self.t):
                    writer.writerow([
                        repr(float(t)),
                        repr(float(np.real(xi))) if np.ndim(xi) == 0 else repr(list(map(float, xi))),
                        repr(float(self.eta[i, k].real)),
                        repr(float(self.eta[i, k].imag)),
                        repr(float(np.abs(self.eta0[i, k]))),
                        repr(float(np.abs(self.eta[i, k] - self.eta0[i, k]))),
                        repr(float(self.f[i, k])),
                    ])


def integrate_perturbed(params: OdeParams, pert: PerturbationSpec, xi_samples,
                        psi0: Callable | None = None, t_end: float | None = None,
                        n_output: int = 200, rtol: float = 1e-10) -> ProfileTrajectory:
    """Adaptive high-order integration of the perturbed ODE on [t_*, min(t_end, horizon)].

    psi0 defaults to a hump peaking at psi0_sup on xi = 0.  Requires the
    smallness condition eps <= min(1, sigma^(-1/q), m^(-1/delta)); envelope
    violations and integrator failures raise, never pass silently.
    """
    consts = bound_constants(params, pert.c1, pert.c2, pert.delta)
    eps_max = min(1.0, params.sigma ** (-1.0 / params.q), consts.m ** (-1.0 / pert.delta))
    if params.eps > eps_max:
        raise ValueError(
            f"eps = {params.eps} violates the smallness condition eps <= {eps_max!r}"
        )
    xi = np.atleast_1d(np.asarray(xi_samples))
    if psi0 is None:
        def psi0(s):
            v = np.asarray(s, dtype=float)
            r2 = v**2 if v.ndim <= 1 else np.sum(v**2, axis=-1)
            return params.psi0_sup * np.exp(-r2 / 2.0)
    psi0_vals = np.asarray(psi0(xi), dtype=complex)
    if np.max(np.abs(psi0_vals)) > params.psi0_sup * (1 + 1e-12):
        raise ValueError("psi0 samples exceed the declared sup psi0_sup")
    psi1_vals = np.asarray(pert.psi1(xi), dtype=complex)
    if np.max(np.abs(psi1_vals)) > pert.psi1_envelope(params) * (1 + 1e-9):
        raise ValueError("psi1 violates its envelope c1 * eps^(1+delta)")

    horizon = params.horizon
    t_hi = horizon if t_end is None else min(t_end, horizon)
    if t_hi <= params.t_star:
        raise ValueError(f"window [{params.t_star}, {t_hi}] is empty")

    m = len(xi)
    y0 = np.concatenate([np.real(params.eps * psi0_vals + psi1_vals),
                         np.imag(params.eps * psi0_vals + psi1_vals)])

    lam, a, b = params.lam, params.a, params.b

    def rhs(t, y):
        eta = y[:m] + 1j * y[m:]
        rho = pert.rho(t, xi, eta)
        deta = -1j * (lam * t ** (-a) * np.abs(eta) ** b * eta + rho)
        return np.concatenate([np.real(deta), np.imag(deta)])

    t_eval = _window_times(params, t_hi, n_output)
    atol = 1e-12 * params.eps
    sol = solve_ivp(rhs, (params.t_star, t_hi), y0, method="DOP853",
                    rtol=rtol, atol=atol, t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise IntegrationFailure(f"integrator stopped at t = {sol.t[-1]!r}: {sol.message}")

    eta = sol.y[:m, :] + 1j * sol.y[m:, :]
    # runtime envelope audit for rho along the computed trajectory
    for k, t in enumerate(sol.t):
        rho_vals = np.abs(np.asarray(pert.rho(t, xi, eta[:, k])))
        if np.max(rho_vals) > pert.rho_envelope(t, params) * (1 + 1e-9):
            raise ValueError(f"rho violates its envelope at t = {t}")

    eta0 = np.empty_like(eta)
    for i in range(m):
        eta0[i, :] = eta0_closed_form(sol.t, complex(psi0_vals[i]), params)
    f = np.abs(eta - eta0) ** 2 + (pert.c2**2 / (2.0 * consts.c3)) * params.eps ** (2.0 + 2.0 * pert.delta)
    return ProfileTrajectory(t=sol.t, xi=xi, eta=eta, eta0=eta0, f=f,
                             params=params, pert=pert, constants=consts)
