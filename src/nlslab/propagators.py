"""Free Schrodinger flow, quadratic gauge factor, power nonlinearity, and its exact pointwise flow.

Also the quantities that the run's diagnostics read off a field: the remainder
window's exponents (t_star and gamma), the scattering profile A(t) and the
reduced-ODE remainder R(t).  They live here because the solver computes them
during a run, and :mod:`nlslab.lifespan`, which imports the solver, re-exports
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    ComplexField,
    Grid,
    Space,
    _back_propagation_phase,
    _phase_overflows,
    _read_only,
    _real_fields,
    _require_space,
    dft,
    fourier_forward,
    idft,
)


class PointwiseBlowUp(Exception):
    """The exact nonlinear substep ran past a pointwise denominator zero.

    `earliest` is the smallest pointwise blow-up horizon among the offending
    samples, measured from the start of the substep.
    """

    def __init__(self, earliest: float):
        self.earliest = float(earliest)
        super().__init__(f"nonlinear flow blows up after {earliest!r} time units")


@dataclass(frozen=True)
class NonlinearityParams:
    """Power nonlinearity lam * |u|^(2*theta/d) u.

    p = 1 + 2*theta/d and b = p - 1 are derived exactly from (theta, d).
    theta in (0, 1) is the long-range subcritical range; theta = 1 is the
    critical case.
    """

    lam: complex
    theta: float
    d: int

    def __post_init__(self):
        _real_fields(self, "theta")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")

    @property
    def b(self) -> float:
        return 2.0 * self.theta / self.d

    @property
    def p(self) -> float:
        return 1.0 + self.b

    @property
    def mu(self) -> float:
        return complex(self.lam).imag


def _free_multiplier(grid: Grid, t: float) -> np.ndarray:
    """exp(-i t |xi|^2 / 2), read-only.

    Propagation over t is back-propagation over -t, so the values come from
    the same 1-D factor: in d = 1 they equal ``np.exp(-0.5j * t *
    grid.abs_xi_sq)`` bit for bit, and every step size costs n/2 + 1
    complex exponentials, however large the grid.
    """
    if _phase_overflows(grid, -t):
        raise ValueError(f"free propagation over t={t!r} overflows the phase on the lattice")
    return _read_only(_back_propagation_phase(grid, -t))


def _multiply_spectrum(values: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """idft(m * dft(values)) into `out`, which holds the spectrum in between; it may be `values`.

    With m = ``_free_multiplier(grid, t)`` this is the free flow over t.
    """
    spectrum = dft(values, out=out)
    # m first: numpy's SIMD complex multiply rounds the two operand orders differently
    np.multiply(m, spectrum, out=spectrum)
    return idft(spectrum, out=out)


def free_propagate(f: ComplexField, t: float) -> ComplexField:
    """Free flow U(t) = exp(i t Lap / 2); t < 0 gives the inverse flow.

    Computed as idft(m * dft(u)) into a fresh array: the unitary transform's
    scale and sign vector cancel in F^{-1} m F.
    """
    _require_space(f, Space.PHYSICAL, "free_propagate")
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    if t == 0.0:
        return f.copy()
    out = _multiply_spectrum(f.values, _free_multiplier(f.grid, t), np.empty_like(f.values))
    return ComplexField(f.grid, Space.PHYSICAL, out)


def gauge_multiply(f: ComplexField, t: float, inverse: bool = False) -> ComplexField:
    """Pointwise multiply by exp(+-i |x|^2 / (2t)); requires t > 0."""
    _require_space(f, Space.PHYSICAL, "gauge_multiply")
    if not (t > 0):
        raise ValueError(f"gauge factor requires t > 0, got {t}")
    phase = f.grid.abs_x_sq / (2.0 * t)
    factor = np.exp(-1j * phase) if inverse else np.exp(1j * phase)
    return ComplexField(f.grid, Space.PHYSICAL, factor * f.values)


def g_p(z, p: float):
    """Power map |z|^(p-1) z, continuously extended by 0 at z = 0."""
    if p <= 1.0:
        raise ValueError(f"power must satisfy p > 1, got {p}")
    z = np.asarray(z, dtype=np.complex128)
    out = np.abs(z) ** (p - 1.0) * z
    if out.ndim == 0:
        return complex(out)
    return out


_TINY = float(np.finfo(float).tiny)


def blowup_horizon(z, params: NonlinearityParams):
    """Pointwise blow-up horizon of i w' = lam |w|^b w starting from w(0) = z.

    Returns 1 / (b * Im(lam) * |z|^b) where Im(lam) > 0, +inf otherwise.  A Python
    float z takes Python arithmetic: numpy's 0-d result bit for bit, 7x cheaper.
    """
    b, mu = params.b, params.mu
    if type(z) is float:
        try:
            az_b = abs(z) ** b
        except OverflowError:  # numpy's power gives inf
            az_b = math.inf
        return 1.0 / max(b * mu * az_b, _TINY) if mu > 0.0 and az_b > 0.0 else math.inf
    az_b = np.abs(np.asarray(z, dtype=np.complex128)) ** b
    # the divisor is at least the smallest normal float, so it never divides by zero
    hor = np.where((mu > 0.0) & (az_b > 0.0), 1.0 / np.maximum(b * mu * az_b, _TINY), np.inf)
    if hor.ndim == 0:
        return float(hor)
    return hor


def coefficient_integral(t0: float, t1, a: float):
    """Clock tau = integral of s^(-a) ds from t0 to t1: (t1^(1-a) - t0^(1-a)) / (1-a),
    log(t1/t0) at a = 1.  :func:`nonlinear_flow_exact` over tau is the flow of
    i w' = lam t^(-a) |w|^b w from t0 to t1."""
    ex = 1.0 - a
    if t0 == 0.0:
        return np.power(t1, ex) / ex
    # log1p of (t1 - t0)/t0, where t1 - t0 is exact near t0: tau is 0 at t1 = t0,
    # has the sign of t1 - t0 and stays accurate on short intervals
    log_ratio = np.log1p(np.subtract(t1, t0) / t0)
    return log_ratio if ex == 0.0 else t0**ex * np.expm1(ex * log_ratio) / ex


def coefficient_time(t0: float, tau, a: float):
    """Inverse of :func:`coefficient_integral`: the time t1 at clock tau from t0."""
    ex = 1.0 - a
    if t0 == 0.0:
        return np.power(ex * tau, 1.0 / ex)
    if ex == 0.0:
        return t0 * np.exp(tau)
    return t0 * np.exp(np.log1p(ex * tau / t0**ex) / ex)


def t_star_time(eps: float, theta: float, d: int) -> float:
    """Hand-off time eps^(-theta/((1-theta) d)) where the profile ODE takes over;
    inf where the power overflows a float.  The solver's grid of kept fields is
    dense from here on, and the remainder criterion is read from here to T/2."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"t_star is defined for theta in (0,1), got {theta}")
    if not (eps > 0.0):
        raise ValueError(f"t_star is defined for eps > 0, got {eps}")
    try:
        return float(eps ** (-theta / ((1.0 - theta) * d)))
    except OverflowError:
        return math.inf


def gamma_exponent(s: float, d: int) -> float:
    """Remainder-decay exponent gamma = (2s - d)/8; lies in (0, 1/2] on the admissible range."""
    gamma = (2.0 * s - d) / 8.0
    if not (0.0 < gamma <= 0.5):
        raise ValueError(f"gamma = (2s-d)/8 = {gamma} outside (0, 1/2]; s = {s}, d = {d}")
    return gamma


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


def nonlinear_flow_exact(z, dt, params: NonlinearityParams, *, out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None, abs_b: np.ndarray | None = None):
    """Exact flow of i w' = lam |w|^b w over time dt, applied pointwise.

    The modulus obeys |w(dt)|^b = |z|^b / (1 - b mu |z|^b dt) with mu = Im(lam);
    the phase advances by -Re(lam) * integral of |w|^b.  Raises
    :class:`PointwiseBlowUp` if any denominator reaches zero within dt, before
    anything is written.  dt is a float or an array that broadcasts against
    z.  For an array z and a float dt, `out` (complex, z's shape; it may be
    z) receives the values and `scratch` (float, z's shape) holds the modulus
    terms; each is a fresh array when not given.  `abs_b`, when given, is
    |z|^b (float, z's shape) already computed; it is only read, so several
    flows from one z can share it.
    """
    dt_float = isinstance(dt, float)  # the step kernel's float dt skips numpy's reductions
    if dt < 0 if dt_float else np.any(dt < 0):
        raise ValueError(f"substep length must be >= 0, got {dt}")
    b, mu = params.b, params.mu
    alpha = complex(params.lam).real
    z = np.asarray(z, dtype=np.complex128)
    if not dt_float:  # z read on the common shape, which every array below then has
        z = np.broadcast_to(z, np.broadcast_shapes(z.shape, np.shape(dt)))
    if abs_b is None:
        abs_b = np.abs(z, out=scratch)
        if b != 1.0:  # numpy spends a pass on the exponent 1
            abs_b **= b
    if mu == 0.0 and alpha != 0.0:
        # |w| stays |z|, so no denominator can vanish
        w = np.multiply(z, np.exp(-1j * alpha * abs_b * dt), out=out)
    else:
        a = np.multiply(abs_b, b * mu, out=scratch)
        a *= dt
        denom = np.subtract(1.0, a, out=scratch)
        # fmin passes over NaNs, as the comparison denom <= 0 does, and an empty z gives inf
        if np.fmin.reduce(denom, axis=None, initial=np.inf) <= 0.0:
            raise PointwiseBlowUp(np.min(blowup_horizon(z, params)))
        # phase integral: -(alpha / (b mu)) * log(1 / denom); with alpha = 0 the
        # factor would be exp(0j) == 1 exactly, so it is skipped
        phase = None if alpha == 0.0 else np.exp(1j * (alpha / (b * mu)) * np.log(denom))
        # (1/denom)^(1/b): numpy squares for b = 1/2 where denom^(-2) takes a general power
        denom = np.reciprocal(denom, out=scratch)
        if b != 1.0:
            denom **= 1.0 / b
        w = np.multiply(z, denom, out=out)
        if phase is not None:
            w *= phase
    return complex(w) if z.ndim == 0 else w
