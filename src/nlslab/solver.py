"""Strang split-step integration with adaptive stepping and blow-up time measurement.

One step is: half-step of the exact pointwise nonlinear flow, full spectral
free propagation, half-step of the nonlinear flow.  The nonlinear substep's
closed form carries its own blow-up detector (a pointwise denominator zero),
so a run ends either when that fires, or when the sup norm crosses the
configured cap; the final step is bisected to bracket the event time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .propagators import (
    NonlinearityParams,
    PointwiseBlowUp,
    free_propagate,
    nonlinear_flow_exact,
)
from .records import RunRecord, canonical_fingerprint
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


class RunStatus(str, Enum):
    RUNNING = "running"
    BLOWN_UP = "blown-up"
    BOUNDARY_CONTAMINATED = "boundary-contaminated"
    REACHED_TMAX = "reached-t-max"


def index_condition_holds(d: int, theta: float, s: float) -> bool:
    """Admissible Sobolev range d/2 < s < min(2, 1 + 2 theta / d)."""
    return d / 2.0 < s < min(2.0, 1.0 + 2.0 * theta / d)


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    params: NonlinearityParams
    eps: float
    s: float
    dt_init: float = 0.05
    dt_safety: float = 0.1
    blowup_norm_threshold: float | None = None
    boundary_mass_tolerance: float = 1e-6
    t_max: float = 100.0
    enforce_hypotheses: bool = True
    record_every: int = 1
    snapshot_budget: int = 128

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        for name in ("dt_init", "dt_safety", "t_max"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0 < self.dt_safety < 1):
            raise ValueError(f"dt_safety must lie in (0,1), got {self.dt_safety}")
        if self.enforce_hypotheses and not self.index_condition_ok:
            raise ValueError(
                f"Sobolev index s={self.s} violates the admissible range "
                f"d/2 < s < min(2, 1+2 theta/d) for d={self.params.d}, "
                f"theta={self.params.theta}; pass enforce_hypotheses=False to run anyway"
            )

    @property
    def index_condition_ok(self) -> bool:
        return index_condition_holds(self.params.d, self.params.theta, self.s)

    @property
    def threshold(self) -> float:
        if self.blowup_norm_threshold is not None:
            return self.blowup_norm_threshold
        return 1e3 / self.eps if self.eps > 0 else np.inf

    def fingerprint(self) -> str:
        g = self.grid
        return canonical_fingerprint({
            "d": g.d, "n": g.n, "L": g.L,
            "lam": [self.params.lam.real, self.params.lam.imag],
            "theta": self.params.theta, "eps": self.eps, "s": self.s,
            "dt_init": self.dt_init, "dt_safety": self.dt_safety,
            "threshold": self.threshold,
            "boundary_mass_tolerance": self.boundary_mass_tolerance,
            "t_max": self.t_max, "record_every": self.record_every,
        })


@dataclass
class DiagnosticSample:
    t: float
    report: NormReport
    energy: float            # running sup of sigma_s, the E(t) tracker
    mass: float              # ||u||_2^2
    lp1: float               # ||u||_{p+1}^{p+1}, the gain-rate norm
    tail_fraction: float
    shell_fraction: float


@dataclass
class DiagnosticsLog:
    """Diagnostics of one trajectory; every state along it shares this log.

    Samples are only appended, so stepping twice from one state with
    recording on writes both branches here.  An event step records none.
    """

    samples: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    _snapshot_stride: int = 1
    _steps_since_snapshot: int = 0

    def record_snapshot(self, t: float, values: np.ndarray, budget: int):
        self._steps_since_snapshot += 1
        if self._steps_since_snapshot < self._snapshot_stride:
            return
        self._steps_since_snapshot = 0
        self.snapshot_times.append(t)
        self.snapshots.append(values.copy())
        if len(self.snapshots) > budget:
            # dyadic decimation keeps memory bounded over arbitrarily long runs
            self.snapshot_times = self.snapshot_times[::2]
            self.snapshots = self.snapshots[::2]
            self._snapshot_stride *= 2


@dataclass
class SolverState:
    t: float
    u: ComplexField
    status: RunStatus
    config: SolverConfig
    diagnostics: DiagnosticsLog
    t_blow: float | None = None
    blow_criterion: str | None = None   # "pointwise" or "threshold"
    step_count: int = 0


def _sample_diagnostics(state: SolverState):
    cfg = state.config
    rep = norms(state.u, state.t, cfg.s)
    g = cfg.grid
    wx = g.h**g.d
    absu = np.abs(state.u.values)
    mass = float(wx * np.sum(absu**2))
    lp1 = float(wx * np.sum(absu ** (cfg.params.p + 1.0)))
    samples = state.diagnostics.samples
    energy = max(samples[-1].energy if samples else 0.0, rep.sigma_s)
    samples.append(DiagnosticSample(
        t=state.t,
        report=rep,
        energy=energy,
        mass=mass,
        lp1=lp1,
        tail_fraction=spectral_tail_fraction(state.u),
        shell_fraction=boundary_shell_fraction(state.u),
    ))
    state.diagnostics.record_snapshot(state.t, state.u.values, cfg.snapshot_budget)


def init(config: SolverConfig, phi: ComplexField) -> SolverState:
    """Fresh state u(0) = eps * phi with initial diagnostics recorded."""
    if phi.space is not Space.PHYSICAL:
        raise ValueError("initial datum must be a physical-space field")
    if not phi.is_finite():
        raise ValueError("initial datum contains non-finite values")
    u0 = ComplexField(config.grid, Space.PHYSICAL, config.eps * phi.values)
    state = SolverState(t=0.0, u=u0, status=RunStatus.RUNNING, config=config,
                        diagnostics=DiagnosticsLog())
    _sample_diagnostics(state)
    return state


def _strang(u: np.ndarray, dt: float, config: SolverConfig) -> np.ndarray:
    """Half nonlinear substep, free propagation, half nonlinear substep; a
    :class:`PointwiseBlowUp` carries `earliest` from the start of the step."""
    half = dt / 2.0
    elapsed = 0.0
    try:
        u = nonlinear_flow_exact(u, half, config.params)
        elapsed = half
        u = free_propagate(ComplexField(config.grid, Space.PHYSICAL, u), dt).values
        return nonlinear_flow_exact(u, half, config.params)
    except PointwiseBlowUp as e:
        raise PointwiseBlowUp(elapsed + min(e.earliest, half)) from None


def step(state: SolverState, dt: float, record: bool = True) -> SolverState:
    """One Strang step of size dt.

    A step that ends in an event returns the base state marked BLOWN_UP with
    `t_blow` and `blow_criterion`: "pointwise" for a substep denominator zero
    or a non-finite field, "threshold" when sup|u| reaches the cap.  An event
    step records no sample; otherwise the new state shares the append-only
    diagnostics log and, with `record` set, samples it every `record_every`
    steps.
    """
    if state.status is not RunStatus.RUNNING:
        raise ValueError(f"cannot step a state with status {state.status.value}")
    if not (dt > 0):
        raise ValueError(f"step size must be positive, got {dt}")
    cfg = state.config
    try:
        u = ComplexField(cfg.grid, Space.PHYSICAL, _strang(state.u.values, dt, cfg))
    except PointwiseBlowUp as e:
        t_blow, criterion = state.t + e.earliest, "pointwise"
    else:
        if not u.is_finite():
            t_blow, criterion = state.t + dt, "pointwise"
        elif sup_modulus(u) >= cfg.threshold:
            t_blow, criterion = state.t + dt, "threshold"
        else:
            new = replace(state, t=state.t + dt, u=u, step_count=state.step_count + 1)
            if record and new.step_count % cfg.record_every == 0:
                _sample_diagnostics(new)
            return new
    return replace(state, status=RunStatus.BLOWN_UP, t_blow=t_blow, blow_criterion=criterion)


def _adaptive_dt(state: SolverState) -> float:
    cfg = state.config
    sup = sup_modulus(state.u)
    params = cfg.params
    if params.mu > 0 and sup > 0:
        horizon = 1.0 / (params.b * params.mu * sup**params.b)
    else:
        horizon = np.inf
    return cfg.dt_safety * min(cfg.dt_init, horizon)


def _bisect_event(state: SolverState, dt_hi: float, hi_trial: SolverState):
    """Bracket the event time within [t, t + dt_hi] to relative width 1e-3.

    `hi_trial` is the event step of size dt_hi.  Every further trial steps
    from the same base state without recording; returns (dt_lo, dt_hi,
    criterion) where criterion is read off the first-firing edge.
    """
    lo, hi = 0.0, dt_hi
    while (hi - lo) > 1e-3 * max(state.t + lo, dt_hi):
        mid = 0.5 * (lo + hi)
        trial = step(state, mid, record=False)
        if trial.status is RunStatus.BLOWN_UP:
            hi, hi_trial = mid, trial
        else:
            lo = mid
    return lo, hi, hi_trial.blow_criterion


def run_to_blowup(state: SolverState) -> RunRecord:
    """Advance with the adaptive step law until blow-up, contamination, or t_max.

    dt = dt_safety * min(dt_init, pointwise blow-up horizon of the sup norm),
    so the nonlinear substep stays well inside its own singularity.  When a
    step ends in an event the step is bisected, the run lands on the last
    event-free trial and records one final sample there.  The boundary
    monitor aborts when the outer-shell mass fraction exceeds its tolerance;
    such runs are invalid for bound checking.
    """
    cfg = state.config
    while state.status is RunStatus.RUNNING:
        remaining = cfg.t_max - state.t
        if remaining <= 1e-12 * cfg.t_max:
            state = replace(state, status=RunStatus.REACHED_TMAX)
            break
        dt = min(_adaptive_dt(state), remaining)
        trial = step(state, dt)
        if trial.status is RunStatus.BLOWN_UP:
            dt_lo, dt_hi, criterion = _bisect_event(state, dt, trial)
            landed = step(state, dt_lo, record=False) if dt_lo > 0 else state
            state = replace(landed, status=RunStatus.BLOWN_UP,
                            t_blow=state.t + 0.5 * (dt_lo + dt_hi), blow_criterion=criterion)
            _sample_diagnostics(state)
        elif boundary_shell_fraction(trial.u) > cfg.boundary_mass_tolerance:
            state = replace(trial, status=RunStatus.BOUNDARY_CONTAMINATED)
        else:
            state = trial
    return make_record(state)


def make_record(state: SolverState) -> RunRecord:
    cfg = state.config
    params = cfg.params
    status = state.status.value
    censored = state.status is RunStatus.REACHED_TMAX
    if state.status is RunStatus.BLOWN_UP:
        T = state.t_blow
    elif state.status is RunStatus.REACHED_TMAX:
        T = state.t
    else:
        T = None
    samples = state.diagnostics.samples
    record = RunRecord(
        eps=cfg.eps,
        theta=params.theta,
        d=params.d,
        lam=params.lam,
        status=status,
        T_eps=T,
        censored=censored,
        t_blow_pointwise=state.t_blow if state.blow_criterion == "pointwise" else None,
        t_blow_threshold=state.t_blow if state.blow_criterion == "threshold" else None,
        grid_fingerprint=canonical_fingerprint(
            {"d": cfg.grid.d, "n": cfg.grid.n, "L": cfg.grid.L}),
        config_fingerprint=cfg.fingerprint(),
        max_tail_fraction=max((s.tail_fraction for s in samples), default=None),
        max_shell_fraction=max((s.shell_fraction for s in samples), default=None),
        outside_hypotheses=not cfg.index_condition_ok,
        diagnostics=state.diagnostics,
    )
    if T is not None and T > 0:
        record.invariant_quantity = record.q_value()
    return record


@dataclass
class ConvergenceReport:
    dts: list
    temporal_errors: list
    temporal_ratios: list
    measured_orders: list
    spatial_ns: list
    spatial_errors: list
    spatial_drops: list


def _fixed_run(config: SolverConfig, phi: ComplexField, t_end: float, dt: float) -> np.ndarray:
    n_steps = int(round(t_end / dt))
    state = init(replace(config, record_every=10**9), phi)
    for _ in range(n_steps):
        state = step(state, dt, record=False)
        if state.status is not RunStatus.RUNNING:
            raise RuntimeError(f"fixed-step run ended early with {state.status.value}")
    return state.u.values


def convergence_study(config: SolverConfig, phi: ComplexField, refinements: int = 2,
                      t_end: float = 0.5, dt0: float = 0.02) -> ConvergenceReport:
    """Temporal self-convergence against a dt0/8 reference plus a spatial doubling check."""
    ref = _fixed_run(config, phi, t_end, dt0 / 8.0)
    dts = [dt0 / 2**k for k in range(refinements + 1)]
    errors = []
    for dt in dts:
        u = _fixed_run(config, phi, t_end, dt)
        errors.append(float(np.sqrt(np.sum(np.abs(u - ref) ** 2) / np.sum(np.abs(ref) ** 2))))
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    orders = [float(np.log2(r)) for r in ratios]

    # spatial: double n at fixed data and dt, compare on the shared coarse points
    base = config.grid
    fields = []
    for k in range(3):
        g_k = Grid(base.d, base.n * 2**k, base.L)
        cfg_k = replace(config, grid=g_k)
        fields.append(_fixed_run(cfg_k, _resample(phi, g_k), t_end, dt0))
    stride = (slice(None, None, 2),) * base.d
    sp_errors = [float(np.max(np.abs(fields[k] - fields[k + 1][stride]))) for k in range(2)]
    drops = [sp_errors[0] / max(sp_errors[1], 1e-300)]
    return ConvergenceReport(
        dts=dts, temporal_errors=errors, temporal_ratios=ratios,
        measured_orders=orders, spatial_ns=[base.n, base.n * 2],
        spatial_errors=sp_errors, spatial_drops=drops,
    )


def _resample(phi: ComplexField, grid: Grid) -> ComplexField:
    """Evaluate a field on a refined grid by zero-padded trigonometric interpolation."""
    if phi.grid.n == grid.n:
        return ComplexField(grid, Space.PHYSICAL, phi.values.copy())
    fhat = fourier_forward(phi)
    pad = (grid.n - phi.grid.n) // 2
    padded = np.pad(fhat.values, [(pad, pad)] * phi.grid.d)
    return fourier_inverse(ComplexField(grid, Space.FREQUENCY, padded))


def mass_balance_residuals(samples, mu: float) -> np.ndarray:
    """Trapezoid residuals of the mass-balance identity between consecutive samples."""
    t = np.array([s.t for s in samples])
    m = np.array([s.mass for s in samples])
    lp1 = np.array([s.lp1 for s in samples])
    dt = np.diff(t)
    rate = np.diff(m) / dt
    expected = mu * (lp1[:-1] + lp1[1:])
    return rate - expected
