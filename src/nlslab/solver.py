"""Strang split-step integration with error-controlled stepping and blow-up time measurement.

One step is: half-step of the exact pointwise nonlinear flow, full spectral
free propagation, half-step of the nonlinear flow.  The run loop's trials
and the convergence study's fixed steps are paths of one kernel,
:func:`_strang`, which alternates exact nonlinear substeps with free
propagations by a Fourier multiplier.  Every run goes through one loop,
:func:`run_to_blowup`.  It sizes its steps by step doubling, so the step grows
wherever the local error allows: a doubling trial takes one step of dt and
two of dt/2, squaring the half step's multiplier for the full step.  Strang
splitting is symmetric, so the Richardson extrapolation of the two is a
fourth-order field at no extra cost, and the run loop accepts it (local
extrapolation).
A run ends when its blow-up is bracketed within 1e-3 of the elapsed time, in
one of two ways.  The pointwise blow-up horizon of sup|u| falls within the
bracket: the pointwise flow's own singularity then lies at most that far
ahead, and the horizon is the bracket.  Or a trial's field reaches the
sup-norm cap 1e3/eps, the one event: that step is halved until it is no wider
than the bracket, and that final step is the bracket.  A trial that meets the
nonlinear substep's own singularity (a pointwise denominator zero) is not an
event but a rejected trial, retried at most a fifth as long.
A run that does not blow up ends on t_max or on boundary contamination.
A :class:`SolverState` is a field on the trajectory; how the run ended (its
status, blow-up time and criterion) is the run loop's own, and goes only
into the record, which ends on a sample of the run's last state at every exit.
The run's :class:`DiagnosticsLog` keeps its samples and its rows: what the
diagnostics read off the first field offered at or after each time of a grid
geometric in 1 + t, dense from t_star on.  The log holds a field only until
the run can tell whether the remainder criterion's window [t_star, T/2] holds
it, so a run holds at most the dense grid times in (t/2, t] at once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .propagators import (
    NonlinearityParams,
    PointwiseBlowUp,
    _free_multiplier,
    _multiply_spectrum,
    blowup_horizon,
    g_p,
    gamma_exponent,
    nonlinear_flow_exact,
    profile,
    remainder,
    t_star_time,
)
from .records import RunRecord, canonical_fingerprint
from .spectral import (
    ComplexField,
    Grid,
    NormReport,
    Space,
    _real_fields,
    _resample,
    boundary_shell_fraction,
    dft,
    norms,
    spectral_tail_fraction,
    sup_modulus,
)


# Relative local error of the two-half-step field that the run loop's step
# doubling accepts per step; the extrapolated field it accepts is more accurate
# still.  Chosen on the benchmark runs: every 1-D rung's T_eps lies within
# 7.2e-7 relative of the same run at 1e-10 (the two-half-step field accepted at
# 1e-7 lay up to 5.9e-6 away, after twice the trials), and the 2-D run, which
# ends on the sup-norm cap, moved by 3.1e-4 from that, inside the event
# bracket's half-width 5e-4.
_STEP_TOLERANCE = 1e-6
_HORIZON_FRACTION = 0.1  # every step is at most this fraction of the blow-up horizon of sup|u|
_BRACKET = 1e-3  # a blow-up is bracketed within this fraction of the elapsed time
_FIRST_STEP = 0.1 * 0.05  # 0.005000000000000001: a literal 0.005 would move every run's bits
_SUP_CAP = 1e3  # sup|u| >= _SUP_CAP / eps is an event; there is no cap at eps = 0
_SHELL_TOLERANCE = 1e-6  # outer-shell mass fraction above which a run is contaminated
_SPARSE_PER_DECADE = 16  # grid times per decade of 1 + t before t_star
_DENSE_PER_DECADE = 160  # from t_star on: the eps = 0.2 rung keeps its 3 offers in [t_star, T/2]
_DENSE_INDEX = 2**32  # grid index of t_star, above every index before it


class RunStatus(str, Enum):
    BLOWN_UP = "blown-up"
    BOUNDARY_CONTAMINATED = "boundary-contaminated"
    REACHED_TMAX = "reached-t-max"


@dataclass(frozen=True)
class SolverConfig:
    """Everything one run depends on that callers vary; the step tolerance, first
    step, horizon fraction, event bracket, sup-norm cap, shell tolerance and
    the grid of kept fields are this module's constants.  Any finite s runs; one
    outside the paper's range sets the record's outside_hypotheses."""

    grid: Grid
    params: NonlinearityParams
    eps: float
    s: float
    t_max: float = 100.0
    record_every: int = 1

    def __post_init__(self):
        _real_fields(self, "eps", "s", "t_max")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if not self.record_every > 0:
            raise ValueError(f"record_every must be positive, got {self.record_every}")

    @property
    def index_condition_ok(self) -> bool:
        d = self.params.d
        return d / 2.0 < self.s < min(2.0, 1.0 + 2.0 * self.params.theta / d)

    @property
    def threshold(self) -> float:
        return _SUP_CAP / self.eps if self.eps > 0 else math.inf

    def fingerprint(self) -> str:
        return canonical_fingerprint({
            **asdict(self.grid),
            "lam": [self.params.lam.real, self.params.lam.imag],
            "theta": self.params.theta, "eps": self.eps, "s": self.s,
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
class DiagnosticRow:
    """What the diagnostics read off one kept field at t.

    remainder_sup is sup_xi |R(t, xi)|, None at t = 0.  A log that computes full
    rows also fills the scale-invariant ratios at the run's index s, each None
    where its denominator vanishes (and r2 before t = 1):

    r1: (1+t)^(d/2) ||u||_inf / ||U(-t)u||_{Sigma^s}         (dispersive decay)
    r2: (||u||_inf - t^(-d/2) ||A||_inf) t^(d/2+gamma) / ||U(-t)u||_{H^{0,s}}
        (profile dominance of the sup norm, t >= 1 only)
    r3: (1+t)^(d(p-1)/2) ||U(-t)N(u)||_{Sigma^s} / ||U(-t)u||_{Sigma^s}^p
        (nonlinear composition decay)
    """

    t: float
    remainder_sup: float | None
    r1: float | None = None
    r2: float | None = None
    r3: float | None = None


def _row(config: SolverConfig, t: float, values: np.ndarray, full: bool) -> DiagnosticRow:
    """The row of the field `values` at t: sup|R(t)| where t > 0, and with `full` the
    ratios r1-r3 too."""
    params = config.params
    u = ComplexField(config.grid, Space.PHYSICAL, values)
    row = DiagnosticRow(t, sup_modulus(remainder(u, t, params)) if t > 0 else None)
    if not full:
        return row
    s, d, p = config.s, params.d, params.p
    rep = norms(u, t, s)
    nu = ComplexField(config.grid, Space.PHYSICAL, params.lam * g_p(values, p))
    rep_nu = norms(nu, t, s)
    if rep.sigma_s > 0:
        row.r1 = (1 + t) ** (d / 2.0) * rep.l_inf / rep.sigma_s
        row.r3 = (1 + t) ** (d * (p - 1) / 2.0) * rep_nu.sigma_s / rep.sigma_s**p
    if t >= 1.0 and rep.h_0s > 0:
        sup_a = sup_modulus(profile(u, t))
        row.r2 = ((rep.l_inf - t ** (-d / 2.0) * sup_a) * t ** (d / 2.0 + gamma_exponent(s, d))
                  / rep.h_0s)
    return row


@dataclass
class DiagnosticsLog:
    """Diagnostics of one trajectory; every state along it shares this log.

    Samples are only appended, so accepting two fields from one state writes
    both branches here.  An event step records nothing.  :func:`_accept` is
    the one place that offers fields (:meth:`offer`): every field it accepts,
    after the trial's midpoint field for a run loop step, in time order.  The
    log keeps the first field offered at or after each time of its grid and
    nothing else.  The grid is geometric in 1 + t: `_SPARSE_PER_DECADE`
    times per decade from t = 0, and `_DENSE_PER_DECADE` from `dense_from`
    on, the run's t_star, where the remainder criterion is read.

    A kept field becomes a row (:class:`DiagnosticRow`).  With `full`, every
    kept field's full row is computed as it is kept, and no field is held.
    Otherwise only the criterion's rows are computed: a kept field at
    t_k >= `window_from` (the run's t_star, or inf where the criterion is
    undefined) is `held`, and becomes a sup|R| row once an offer at 2 t_k or
    later shows that t_k <= T/2, for no run ends before its last offer.
    :meth:`close` turns the rest that lie at or before T/2 into rows and
    drops every held field.  A held field is the offered read-only array
    itself, not a copy; every offer is made read-only, held or not.
    """

    samples: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    held: list = field(default_factory=list)  # (t, values) of each kept field awaiting its row
    dense_from: float = 1.0
    window_from: float = math.inf
    full: bool = False
    _last_offer: int = field(default=-1, init=False, repr=False)  # grid index of the last offer

    def _grid_index(self, t: float) -> int:
        """Index of the last grid time at or before t."""
        if t < self.dense_from:
            return math.floor(_SPARSE_PER_DECADE * math.log10(1.0 + t))
        return _DENSE_INDEX + math.floor(
            _DENSE_PER_DECADE * math.log10((1.0 + t) / (1.0 + self.dense_from)))

    def offer(self, config: SolverConfig, t: float, values: np.ndarray):
        """Offer the field `values` at t, no earlier than every earlier offer."""
        values.flags.writeable = False  # kept or not: no field on a trajectory changes
        while self.held and 2.0 * self.held[0][0] <= t:
            self.rows.append(_row(config, *self.held.pop(0), full=False))
        index, last = self._grid_index(t), self._last_offer
        self._last_offer = index
        if index <= last:
            return
        if self.full:
            self.rows.append(_row(config, t, values, full=True))
        elif t >= self.window_from:
            self.held.append((t, values))

    def close(self, config: SolverConfig, T: float | None):
        """End the run at T: the held fields at or before T/2 become rows, and none is
        held after.  A run without a T (contaminated) gets no more rows."""
        if T is not None:
            self.rows.extend(_row(config, t, values, full=False)
                             for t, values in self.held if 2.0 * t <= T)
        self.held.clear()


@dataclass
class SolverState:
    """A field on the run's trajectory; how the run ends is the run loop's own."""

    t: float
    u: ComplexField
    config: SolverConfig
    diagnostics: DiagnosticsLog
    sup: float                           # sup|u|, the boundary-shell mass fraction and
    shell: float                         # |u|^b, all from the one |u| pass per field;
    abs_b: np.ndarray                    # every path from u reads this read-only |u|^b
    step_count: int = 0


def _sample_diagnostics(state: SolverState, power: np.ndarray):
    """Append a sample of `state`, whose field has squared modulus `power`."""
    cfg = state.config
    g = cfg.grid
    wx = g.h**g.d
    mass = float(wx * np.sum(power))
    # one forward transform and its |spectrum|^2 serve the norms and the tail monitor
    spectrum = dft(state.u.values)
    spectral_power = np.abs(spectrum) ** 2
    rep = norms(state.u, state.t, cfg.s, spectrum=spectrum, spectral_power=spectral_power,
                l2=math.sqrt(mass), sup=state.sup)
    # |u|^(p+1) as |u|^2 |u|^b: numpy takes b = 1 and 0.5 without a general power
    lp1 = float(wx * np.sum(power * state.abs_b))
    samples = state.diagnostics.samples
    energy = max(samples[-1].energy if samples else 0.0, rep.sigma_s)
    samples.append(DiagnosticSample(
        t=state.t,
        report=rep,
        energy=energy,
        mass=mass,
        lp1=lp1,
        tail_fraction=spectral_tail_fraction(state.u, spectral_power=spectral_power),
        shell_fraction=state.shell,
    ))


def _accept(config: SolverConfig, log: DiagnosticsLog, t: float, u: np.ndarray,
            step_count: int, mid: tuple | None = None) -> SolverState | None:
    """The state at t carrying the field u on the trajectory of `log`; or None, with
    nothing recorded, when sup|u| is not below the sup-norm cap 1e3/eps, as a
    non-finite field's is not.

    Every field on a trajectory comes through here, the datum and each accepted
    trial field.  One pass of |u| gives sup|u|, the boundary-shell fraction and
    the read-only |u|^b that every path from u reads, and the sample reuses
    it.  The midpoint `mid` = (t_mid, values), when given, is offered to the
    log first, then u (see :meth:`DiagnosticsLog.offer`); the state is sampled
    every `record_every` steps.
    """
    absu = np.abs(u)
    sup = float(np.max(absu))
    if not sup < config.threshold:  # NaN and inf too
        return None
    b = config.params.b
    abs_b = absu if b == 1.0 else absu**b  # numpy spends a pass on the exponent 1
    abs_b.flags.writeable = False
    u_field = ComplexField(config.grid, Space.PHYSICAL, u)
    power = absu**2
    state = SolverState(t=t, u=u_field, config=config, diagnostics=log, sup=sup,
                        shell=boundary_shell_fraction(u_field, power=power), abs_b=abs_b,
                        step_count=step_count)
    if mid is not None:
        log.offer(config, *mid)
    log.offer(config, t, u_field.values)
    if step_count % config.record_every == 0:
        _sample_diagnostics(state, power)
    return state


def _dense_from(config: SolverConfig) -> float:
    """Where the grid of kept fields turns dense: t_star, or t = 1 where t_star is
    undefined (theta outside (0, 1) or eps = 0), the default start of
    remainder_series."""
    try:
        return t_star_time(config.eps, config.params.theta, config.params.d)
    except ValueError:
        return 1.0


def _window_from(config: SolverConfig) -> float:
    """Where the remainder criterion's window [t_star, T/2] starts: t_star, or inf
    where the criterion is undefined (theta = 1, eps = 0, or gamma outside (0, 1/2])."""
    try:
        gamma_exponent(config.s, config.params.d)
        return t_star_time(config.eps, config.params.theta, config.params.d)
    except ValueError:
        return math.inf


def init(config: SolverConfig, phi: ComplexField, diagnostics: bool = False) -> SolverState:
    """Fresh state u(0) = eps * phi, accepted as the run loop accepts a field: it is
    offered and sampled first, in a log whose grid is dense from t_star on.

    By default the log computes only the rows that the remainder criterion
    reads, over [t_star, T/2].  With `diagnostics`, it computes a full row
    (sup|R| and the ratios r1-r3) for every kept field, t = 0 included, which
    needs gamma = (2s-d)/8 in (0, 1/2].  Raises ValueError when it is not, and
    when sup|u(0)| already reaches the sup-norm cap 1e3/eps: such a run has
    no event-free step to start from.
    """
    if diagnostics:
        gamma_exponent(config.s, config.params.d)
    if phi.space is not Space.PHYSICAL:
        raise ValueError("initial datum must be a physical-space field")
    if not phi.is_finite():
        raise ValueError("initial datum contains non-finite values")
    u0 = config.eps * phi.values
    log = DiagnosticsLog(dense_from=_dense_from(config), window_from=_window_from(config),
                         full=diagnostics)
    state = _accept(config, log, 0.0, u0, 0)
    if state is None:
        raise ValueError(f"sup-norm cap 1e3/eps = {config.threshold!r} must exceed the "
                         f"initial sup|eps*phi| = {float(np.max(np.abs(u0)))!r}")
    return state


def _strang(u: np.ndarray, substeps: tuple, multipliers: tuple, params: NonlinearityParams,
            out: np.ndarray | None = None, scratch: np.ndarray | None = None,
            abs_b: np.ndarray | None = None) -> np.ndarray:
    """The Strang path N(substeps[0]) F(multipliers[0]) N(substeps[1]) ... from the field u.

    N(tau) is the exact nonlinear substep over tau, F(m) the free propagation
    by the Fourier multiplier m; there is one multiplier fewer than substeps.
    A substep's :class:`PointwiseBlowUp` propagates and ends the path.  The
    first substep reads u and `abs_b` = |u|^b when given, and writes into
    `out` (a fresh array when not given; it may be u); the rest work in place
    there, with the float `scratch`.
    """
    if scratch is None:
        scratch = np.empty(u.shape)
    w = nonlinear_flow_exact(u, substeps[0], params, out=out, scratch=scratch, abs_b=abs_b)
    for m, tau in zip(multipliers, substeps[1:]):
        _multiply_spectrum(w, m, w)
        w = nonlinear_flow_exact(w, tau, params, out=w, scratch=scratch)
    return w


def _doubling_trial(u: np.ndarray, abs_b: np.ndarray, dt: float, config: SolverConfig):
    """One Strang step of dt and two of dt/2 from the field u, extrapolated.

    The full path is N(dt/2) F(m_dt) N(dt/2) and each half step is
    N(dt/4) F(m_{dt/2}) N(dt/4), where N is the exact nonlinear substep and
    F the free propagation by a multiplier; m_dt = m_{dt/2}^2, so a trial
    takes 6 nonlinear substeps, 3 FFT pairs and one multiplier build.  The
    first substep of the full path and of the first half step reads
    `abs_b` = |u|^b, which the caller took with sup|u|.

    Returns (R, mid, err).  With u_dt the full-step field and two the
    two-half-step field, err = ||u_dt - two||_2 / (3 ||two||_2) estimates
    two's local error, O(dt^3), and R = two - (u_dt - two)/3 cancels its
    leading term: Strang splitting is symmetric, so R's local error is
    O(dt^5) and err bounds it.  mid is the field after the first half step,
    at dt/2.  err is not finite when u_dt or two is not.  The norms are
    numpy's own sums of products (einsum calls no BLAS), so err does not
    depend on the BLAS thread count.  A :class:`PointwiseBlowUp` in any
    path propagates, and the paths after it are not taken.  The trial
    allocates its three fields, m_dt and one float scratch array, and every
    substep writes into them; u and abs_b are only read.
    """
    params = config.params
    half, quarter = 0.5 * dt, 0.25 * dt
    m_half = _free_multiplier(config.grid, half)
    scratch = np.empty(u.shape)
    full = _strang(u, (half, half), (np.multiply(m_half, m_half),), params,
                   np.empty_like(u), scratch, abs_b)
    mid = _strang(u, (quarter, quarter), (m_half,), params, np.empty_like(u), scratch, abs_b)
    two = _strang(mid, (quarter, quarter), (m_half,), params, np.empty_like(u), scratch)
    # each squared norm is the sum of squares of the real and imaginary parts
    diff = np.subtract(full, two, out=full)
    flat_diff, flat = diff.ravel().view(np.float64), two.ravel().view(np.float64)
    num, den = float(np.einsum("i,i", flat_diff, flat_diff)), float(np.einsum("i,i", flat, flat))
    if den > 0:
        err = math.sqrt(num / den) / 3.0
    else:
        err = 0.0 if num == 0 else math.nan
    two -= np.divide(diff, 3.0, out=diff)
    return two, mid, err


def _resize(err: float, tol: float) -> float:
    """Factor from one step to the next: 0.9 (tol/err)^(1/3), clipped to [0.2, 4].

    The exponent is that of the doubling estimate's local error, O(dt^3),
    which err measures; the accepted extrapolated field is more accurate still.
    A non-finite err gives the smallest factor.
    """
    if not math.isfinite(err):
        return 0.2
    if err == 0.0:
        return 4.0
    return min(4.0, max(0.2, 0.9 * (tol / err) ** (1.0 / 3.0)))


def run_to_blowup(state: SolverState) -> RunRecord:
    """Advance with the error-controlled step law until blow-up, contamination, or t_max.

    Each proposed step h is cut to dt = min(h, 0.1 * pointwise blow-up
    horizon of sup|u|, t_max - t), so the nonlinear substep stays well
    inside its own singularity; the first proposal is 0.005.
    A trial takes one Strang step of dt and two of dt/2 (see
    :func:`_doubling_trial`).  If the error estimate err meets the step
    tolerance `_STEP_TOLERANCE`, the extrapolated field is accepted by
    :func:`_accept`, and only it gets the |u| pass, the shell check, an
    offer to the log and, every `record_every` accepted steps, a sample; the
    trial's midpoint field is offered at t + dt/2 just before.
    Otherwise the trial is rejected and retried: its err is over tolerance or
    not finite, or a path met the nonlinear substep's singularity, which
    counts as err = inf.  The next proposal is dt * 0.9 (tol/err)^(1/3) in
    [dt/5, 4 dt], and dt/5 for a non-finite err.  A step that shrinks to
    nothing, under a tolerance that cannot be met or a singularity that
    recurs at every step length, raises RuntimeError.

    The run ends when its blow-up is bracketed within `_BRACKET` = 1e-3 of the
    elapsed time, on its base state.  Either the horizon of sup|u| brackets
    it: before each trial, once horizon <= 1e-3 t and t + horizon <= t_max,
    the pointwise flow's singularity lies within [t, t + horizon], and the
    run ends "pointwise" with t_blow = t + horizon.  Or a trial within
    tolerance brackets the one event, a field that reaches the sup-norm cap
    1e3/eps: an event step wider than 1e-3 max(t, dt) is halved and retried,
    so a crossing that does not recur at the shorter steps does not end the
    run; one within that width is the bracket, and the run ends "threshold"
    with t_blow = t + dt/2.
    The boundary monitor aborts when the outer-shell mass fraction exceeds
    1e-6; such runs are invalid for bound checking.  The outcome is the
    loop's own: each of the four exits (the horizon stop, an event step,
    contamination and t_max) returns :func:`make_record` of its last state
    with the status, and for a blow-up t_blow and its criterion, so every
    record ends on a sample of the state the run stopped on.  Every exit with
    a T_eps has T_eps >= the last offer's t, so the log's rows are the
    criterion's once :func:`make_record` closes it.
    """
    cfg = state.config
    tol = _STEP_TOLERANCE
    h = _FIRST_STEP
    while True:
        remaining = cfg.t_max - state.t
        if remaining <= 1e-12 * cfg.t_max:
            return make_record(state, RunStatus.REACHED_TMAX)
        horizon = blowup_horizon(state.sup, cfg.params)
        if horizon <= _BRACKET * state.t and state.t + horizon <= cfg.t_max:
            return make_record(state, RunStatus.BLOWN_UP, state.t + horizon, "pointwise")
        dt = min(h, _HORIZON_FRACTION * horizon, remaining)
        if not state.t + dt > state.t:
            raise RuntimeError(f"step size {dt!r} vanishes at t={state.t!r}: the trials "
                               f"cannot meet the step tolerance {tol!r}, or keep meeting "
                               f"a pointwise singularity")
        try:
            u, mid, err = _doubling_trial(state.u.values, state.abs_b, dt, cfg)
        except PointwiseBlowUp:
            err = math.inf
        h = dt * _resize(err, tol)
        if not err <= tol:
            continue
        new = _accept(cfg, state.diagnostics, state.t + dt, u, state.step_count + 1,
                      (state.t + 0.5 * dt, mid))
        if new is None:  # the field reaches the sup-norm cap
            if dt > _BRACKET * max(state.t, dt):
                h = 0.5 * dt
                continue
            return make_record(state, RunStatus.BLOWN_UP, state.t + 0.5 * dt, "threshold")
        state = new
        if state.shell > _SHELL_TOLERANCE:
            return make_record(state, RunStatus.BOUNDARY_CONTAMINATED)


def make_record(state: SolverState, status: RunStatus, t_blow: float | None = None,
                criterion: str | None = None) -> RunRecord:
    """The record of a run that ended on `state` with `status`, whose last sample
    is `state`: it is sampled here unless it already was.  A BLOWN_UP run blew
    up at t_blow by `criterion`: "pointwise" (the horizon of sup|u|) or
    "threshold" (the sup-norm cap).
    The log is closed at the record's T_eps, so it holds no field after."""
    if state.diagnostics.samples[-1].t != state.t:
        _sample_diagnostics(state, np.abs(state.u.values) ** 2)
    cfg = state.config
    params = cfg.params
    censored = status is RunStatus.REACHED_TMAX
    if status is RunStatus.BLOWN_UP:
        T = t_blow
    elif censored:
        T = state.t
    else:
        T = None
    state.diagnostics.close(cfg, T)
    samples = state.diagnostics.samples
    record = RunRecord(
        eps=cfg.eps,
        theta=params.theta,
        d=params.d,
        lam=params.lam,
        status=status.value,
        T_eps=T,
        censored=censored,
        t_blow_pointwise=t_blow if criterion == "pointwise" else None,
        t_blow_threshold=t_blow if criterion == "threshold" else None,
        grid_fingerprint=canonical_fingerprint(asdict(cfg.grid)),
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
    """The field after round(t_end/dt) Strang steps of dt from eps*phi; raises
    RuntimeError when a step meets the pointwise singularity or the final field
    is not finite."""
    u = init(config, phi).u.values
    substeps, multipliers = (dt / 2.0, dt / 2.0), (_free_multiplier(config.grid, dt),)
    try:
        for k in range(int(round(t_end / dt))):
            u = _strang(u, substeps, multipliers, config.params)
    except PointwiseBlowUp:
        raise RuntimeError(f"fixed-step run of dt={dt!r} met a pointwise singularity "
                           f"in the step from t={k * dt!r}") from None
    if not np.isfinite(u).all():
        raise RuntimeError(f"fixed-step run of dt={dt!r} left a non-finite field")
    return u


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


def mass_balance_residuals(samples, mu: float) -> np.ndarray:
    """Trapezoid residuals of the mass-balance identity between consecutive samples."""
    t = np.array([s.t for s in samples])
    m = np.array([s.mass for s in samples])
    lp1 = np.array([s.lp1 for s in samples])
    dt = np.diff(t)
    rate = np.diff(m) / dt
    expected = mu * (lp1[:-1] + lp1[1:])
    return rate - expected
