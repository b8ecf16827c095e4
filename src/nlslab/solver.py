"""Strang split-step integration with error-controlled stepping and blow-up time measurement.

One step is: half-step of the exact pointwise nonlinear flow, full spectral
free propagation, half-step of the nonlinear flow.  The run loop's trials
and the convergence study's fixed steps take it through one kernel,
:func:`_strang`: an exact nonlinear substep on either side of a free
propagation by a Fourier multiplier.  This module reaches the lattice only
through the methods of the config's :class:`~nlslab.spectral.Grid`: the
multiplier and the propagation by it, the |u| pass with its sup, the
quadrature of the step error and of the samples, the norms and the monitors,
and the rows' profile and remainder.  Every run goes through one loop,
:func:`run_to_blowup`.  It sizes its steps by step doubling, so the step grows
wherever the local error allows: a doubling trial takes two steps of dt/2,
then one of dt, squaring the half step's multiplier in place for the full
step.  Strang splitting is symmetric, so the Richardson extrapolation of the
two is a fourth-order field at no extra cost, and the run loop accepts it
(local extrapolation).  The tolerance alone sizes the steps, into the
end-game too: each proposal shrinks with the pointwise blow-up horizon of
sup|u|, the solution's own time scale there.
A run ends when its blow-up is bracketed within 1e-3 of the elapsed time, in
one of two ways.  The pointwise blow-up horizon of sup|u| falls within the
bracket: the pointwise flow's own singularity then lies at most that far
ahead, and the horizon is the bracket.  Or a trial's field reaches the
sup-norm cap 1e3/eps, the one event: that step is halved until it is no wider
than the bracket, and that final step is the bracket.  A trial that meets the
nonlinear substep's own singularity (a pointwise denominator zero) is not an
event but a rejected trial, retried at most a fifth as long.
A run that does not blow up ends on t_max or on boundary contamination; so
does one whose t_max falls inside the horizon's bracket, censored where the
bracket is reached rather than stepped on into the spike.
A :class:`SolverState` is a field on the trajectory, a read-only array of the
grid's shape; how the run ended (its status, a :class:`~nlslab.records.RunStatus`,
blow-up time and criterion) is the run loop's own, and goes only into the record,
which ends on a sample of the run's last state at every exit.
The run's :class:`DiagnosticsLog` keeps its samples and its rows: what the
diagnostics read off the first field offered at or after each time of a grid
geometric in 1 + t, dense from t_star on, where every run lands; t_star is
read in :func:`_window` alone.  A field's row is computed as the field is
kept, so the log holds no field, and the rows are all it records of what it
kept.  A trial's midpoint field is one of the trial's buffers: the trial
computes its row, when the log keeps it, before the second half step runs
over that buffer, and the run loop appends the row to the log only if it
accepts the trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .propagators import (
    NonlinearityParams,
    PointwiseBlowUp,
    blowup_horizon,
    g_p,
    gamma_exponent,
    nonlinear_flow_exact,
    t_star_time,
)
from .records import RunRecord, RunStats, RunStatus  # RunStatus is re-exported
from .spectral import ComplexField, Grid, NormReport, Space, _int_fields, _real_fields


# Relative local error of the two-half-step field that the run loop's step
# doubling accepts per step; the extrapolated field it accepts is more accurate
# still.  Trials and relative T_eps moves against 1e-6, landing on t_star:
#   sweep-1d, eps .4/.3/.2/.15   484 -> 236  +8.1e-7/-1.9e-7/+3.7e-7/-2.7e-7
#   long-1d-dense                124 -> 61   -1.1e-8
#   blowup-2d, on the cap        115 -> 59   +6.8e-4 (the cap's bracket 1e-3)
#   lam = -3+i, eps .4/.15       958 -> 451  -6.2e-7/-5.5e-7 (n = 8192)
#   theta = 1/4, eps .8/.6, cap  180 -> 96   -3.5e-4/+5.4e-5
#   lam = 3+i, eps .2            171 -> 83   +1.8e-6
# No trial was rejected, and the end-game's err runs at about 0.72 tol.  The
# 1-D moves are the horizon stop's jitter, inside its bias: at eps .4 the run
# lies 1.5e-6 from itself at 1e-10, where the stop reads 7.8e-6 low.
_STEP_TOLERANCE = 1e-5
_BRACKET = 1e-3  # a blow-up is bracketed within this fraction of the elapsed time
_FIRST_STEP = 0.1 * 0.05  # 0.005000000000000001: a literal 0.005 would move every run's bits
_FIRST_STEP_HORIZONS = 0.2  # and at most this many of the datum's blow-up horizons
_SUP_CAP = 1e3  # sup|u| >= _SUP_CAP / eps is an event; there is no cap at eps = 0
_SHELL_TOLERANCE = 1e-6  # outer-shell mass fraction above which a run is contaminated
_SPARSE_PER_DECADE = 16  # grid times per decade of 1 + t before t_star
_DENSE_PER_DECADE = 160  # from t_star on: the benchmark runs keep every offer in [t_star, T/2]
_DENSE_INDEX = 2**32  # grid index of t_star, above every index before it


@dataclass(frozen=True)
class SolverConfig:
    """Everything one run depends on that callers vary; the step tolerance, first
    step, event bracket, sup-norm cap, shell tolerance and the grid of kept
    fields are this module's constants.  Any finite s runs; one outside the
    paper's range sets the record's outside_hypotheses."""

    grid: Grid
    params: NonlinearityParams
    eps: float
    s: float
    t_max: float = 100.0
    record_every: int = 1

    def __post_init__(self):
        _int_fields(self, "record_every")
        _real_fields(self, "eps", "s", "t_max")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if not self.record_every > 0:
            raise ValueError(f"record_every must be positive, got {self.record_every}")
        if self.grid.d != self.params.d:
            raise ValueError(f"grid is {self.grid.d}-dimensional, params.d is {self.params.d}")

    @property
    def index_condition_ok(self) -> bool:
        d = self.params.d
        return d / 2.0 < self.s < min(2.0, 1.0 + 2.0 * self.params.theta / d)

    @property
    def threshold(self) -> float:
        return _SUP_CAP / self.eps if self.eps > 0 else math.inf


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


@dataclass
class DiagnosticsLog:
    """Diagnostics of one trajectory; every state along it shares this log.

    Samples are only appended, so accepting two fields from one state writes
    both branches here.  An event step records nothing.  Fields reach the log
    in time order: each field the run accepts through :meth:`offer`, in
    :func:`_accept`, and just before it the midpoint of its trial, whose row
    the run loop appends.  The log keeps the first field offered at or after
    each time of its grid (:meth:`keeps`) and nothing else.  The grid is
    geometric in 1 + t: `_SPARSE_PER_DECADE` times per decade from t = 0, and
    `_DENSE_PER_DECADE` from `dense_from` on, the run's t_star, where the
    remainder criterion is read.

    A kept field becomes a row (:class:`DiagnosticRow`) as it is kept; the
    log holds no field, and its rows are its only record of what it kept.
    With `full`, every kept field gets its full row.  Otherwise only the
    criterion's rows are computed, with `window`: a sup|R| row for each field
    kept from `dense_from` on, up to the run's end.  The criterion reads
    those in [t_star, T/2] (:func:`max_remainder_scaled`).
    An offered field is made read-only, kept or not.  A midpoint is a buffer
    of its trial, which computes the midpoint's row when the log keeps it and
    then writes the second half step over it.  `stats` is what the run did
    (:class:`~nlslab.records.RunStats`): the run loop counts its refused
    trials, :func:`_accept` the accepted ones, and :meth:`row` each row computed.
    """

    samples: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    dense_from: float = 1.0
    window: bool = False
    full: bool = False
    stats: RunStats = field(default_factory=RunStats)

    def _grid_index(self, t: float) -> int:
        """Index of the last grid time at or before t."""
        if t < self.dense_from:
            return math.floor(_SPARSE_PER_DECADE * math.log10(1.0 + t))
        return _DENSE_INDEX + math.floor(
            _DENSE_PER_DECADE * math.log10((1.0 + t) / (1.0 + self.dense_from)))

    def keeps(self, t: float) -> bool:
        """Whether the log keeps a row of a field offered at t, no earlier than
        every earlier offer: it computes rows at t (every t with `full`, else
        from `dense_from` on with `window`), and t's grid index is above its
        last row's."""
        if not (self.full or self.window and t >= self.dense_from):
            return False
        return not self.rows or self._grid_index(t) > self._grid_index(self.rows[-1].t)

    def row(self, config: SolverConfig, t: float, values: np.ndarray) -> DiagnosticRow:
        """The row of the field `values` at t, counted in `stats.rows`, as :meth:`offer`
        keeps it: sup|R(t)| by :meth:`Grid.remainder_sup` where t > 0, and with `full`
        the ratios r1-r3 too."""
        self.stats.rows += 1
        g, params = config.grid, config.params
        if not self.full:
            return DiagnosticRow(t, g.remainder_sup(values, t, params) if t > 0 else None)
        # one forward transform of u serves the remainder, the norms and the profile
        spectrum = g.transform(values)
        row = DiagnosticRow(t, g.remainder_sup(values, t, params, spectrum=spectrum)
                            if t > 0 else None)
        s, d, p = config.s, params.d, params.p
        rep = g.norms(values, t, s, spectrum=spectrum)
        rep_nu = g.norms(params.lam * g_p(values, p), t, s)
        if rep.sigma_s > 0:
            row.r1 = (1 + t) ** (d / 2.0) * rep.l_inf / rep.sigma_s
            row.r3 = (1 + t) ** (d * (p - 1) / 2.0) * rep_nu.sigma_s / rep.sigma_s**p
        if t >= 1.0 and rep.h_0s > 0:
            sup_a = g.modulus(g.profile(values, t, spectrum=spectrum))[1]
            row.r2 = ((rep.l_inf - t ** (-d / 2.0) * sup_a) * t ** (d / 2.0 + gamma_exponent(s, d))
                      / rep.h_0s)
        return row

    def offer(self, config: SolverConfig, t: float, values: np.ndarray):
        """Offer the field `values` at t, no earlier than every earlier offer."""
        values.flags.writeable = False  # kept or not: no field on a trajectory changes
        if self.keeps(t):
            self.rows.append(self.row(config, t, values))


@dataclass
class SolverState:
    """A field on the run's trajectory, `u`, the read-only complex array of the grid's
    shape; how the run ends is the run loop's own."""

    t: float
    u: np.ndarray
    config: SolverConfig
    diagnostics: DiagnosticsLog
    sup: float                           # sup|u|, the boundary-shell mass fraction and
    shell: float                         # |u|^b, all from the one |u| pass per field;
    abs_b: np.ndarray                    # every path from u reads this read-only |u|^b


def _sample_diagnostics(state: SolverState, power: np.ndarray):
    """Append a sample of `state`, whose field has squared modulus `power`."""
    cfg = state.config
    g = cfg.grid
    mass = g.integral(power)
    rep, tail = g.sample_norms(state.u, state.t, cfg.s, l2=math.sqrt(mass), sup=state.sup)
    # |u|^(p+1) as |u|^2 |u|^b: numpy takes b = 1 and 0.5 without a general power
    lp1 = g.integral(power * state.abs_b)
    samples = state.diagnostics.samples
    energy = max(samples[-1].energy if samples else 0.0, rep.sigma_s)
    samples.append(DiagnosticSample(t=state.t, report=rep, energy=energy, mass=mass, lp1=lp1,
                                    tail_fraction=tail, shell_fraction=state.shell))


def _accept(config: SolverConfig, log: DiagnosticsLog, t: float, u: np.ndarray,
            absu: np.ndarray, sup: float, dt: float | None) -> SolverState:
    """The state at t carrying the field u on the trajectory of `log`.

    Every field on a trajectory comes through here, the datum and each accepted
    trial field, with the |u| pass of :meth:`Grid.modulus`, `absu` and `sup`, that
    found it below the sup-norm cap, and the trial's step dt, which the log's
    `stats` counts (None for the datum).  That one pass gives sup|u|, the
    boundary-shell fraction, the |u|^2 the sample reuses and the read-only
    |u|^b that every path from u reads, taken in place in `absu`: a caller
    that keeps `absu` keeps only the state's own |u|^b.  Then u is offered
    (see :meth:`DiagnosticsLog.offer`), and the state is sampled every
    `record_every` accepted trials, as the log's `stats.accepted` counts them.
    """
    if dt is not None:
        log.stats.accept(dt)
    power = np.square(absu)
    if config.params.b != 1.0:  # numpy spends a pass on the exponent 1
        absu **= config.params.b
    absu.flags.writeable = False
    state = SolverState(t=t, u=u, config=config, diagnostics=log, sup=sup,
                        shell=config.grid.shell_fraction(power), abs_b=absu)
    log.offer(config, t, u)
    if log.stats.accepted % config.record_every == 0:
        _sample_diagnostics(state, power)
    return state


def _window(config: SolverConfig) -> tuple[float, float | None]:
    """(dense_from, exponent): where the grid of kept fields turns dense, and the
    exponent theta + gamma of the remainder criterion's window [t_star, T/2].
    dense_from is t_star, or t = 1 where t_star is undefined (theta outside
    (0, 1) or eps = 0), the default start of remainder_series.  exponent is
    None where the window is undefined: t_star is, or gamma lies outside (0, 1/2]."""
    params = config.params
    try:
        t_star = t_star_time(config.eps, params.theta, params.d)
    except ValueError:
        return 1.0, None
    try:
        return t_star, params.theta + gamma_exponent(config.s, params.d)
    except ValueError:
        return t_star, None


def remainder_series(diag: DiagnosticsLog, t_min: float = 1.0, t_max: float = math.inf):
    """sup_xi |R(t, xi)| over the log's rows with t_min <= t <= t_max.

    Both ends are inclusive.  A default run's rows run from t_star to its
    last kept field, past T/2; one started with `diagnostics` has a row at
    every kept grid time.
    Returns (times, sup_values), two empty arrays when no row is in range;
    the scaled series is sup * t^(theta+gamma).
    """
    rows = [r for r in diag.rows if r.remainder_sup is not None and t_min <= r.t <= t_max]
    return np.array([r.t for r in rows]), np.array([r.remainder_sup for r in rows])


def max_remainder_scaled(diag: DiagnosticsLog, cfg: SolverConfig, T: float | None) -> float | None:
    """sup over [t_star, T/2] of sup_xi|R| * t^(theta+gamma), read from the log's rows.

    The run computed them and kept those past T/2 too; the window is cut
    here alone, and nothing is transformed.  None where the window is
    undefined (:func:`_window`), where the run has no T (boundary
    contamination), or where the window holds no row.
    """
    t_star, exponent = _window(cfg)
    if exponent is None or T is None:
        return None
    times, sups = remainder_series(diag, t_min=t_star, t_max=T / 2.0)
    return float(np.max(sups * times ** exponent)) if len(times) else None


def init(config: SolverConfig, phi: ComplexField, diagnostics: bool = False) -> SolverState:
    """Fresh state u(0) = eps * phi, accepted as the run loop accepts a field: it is
    offered and sampled first, in a log whose grid is dense from t_star on.

    By default the log computes only the sup|R| rows of the fields it keeps
    from t_star on, which hold the remainder criterion's window [t_star, T/2].
    With `diagnostics`, it computes a full row (sup|R| and the ratios r1-r3)
    for every kept field, t = 0 included, which needs gamma = (2s-d)/8 in
    (0, 1/2].  Raises ValueError when it is not, and when sup|u(0)| already
    reaches the sup-norm cap 1e3/eps: such a run has no event-free step to
    start from.
    """
    if diagnostics:
        gamma_exponent(config.s, config.params.d)
    if phi.space is not Space.PHYSICAL:
        raise ValueError("initial datum must be a physical-space field")
    if not np.isfinite(phi.values).all():
        raise ValueError("initial datum contains non-finite values")
    u0 = config.eps * phi.values
    dense_from, exponent = _window(config)
    log = DiagnosticsLog(dense_from=dense_from, window=exponent is not None, full=diagnostics)
    absu, sup = config.grid.modulus(u0)
    if not sup < config.threshold:
        raise ValueError(f"sup-norm cap 1e3/eps = {config.threshold!r} must exceed the "
                         f"initial sup|eps*phi| = {sup!r}")
    return _accept(config, log, 0.0, u0, absu, sup, None)


def _strang(u: np.ndarray, tau: float, m: np.ndarray, config: SolverConfig,
            out: np.ndarray | None = None, scratch: np.ndarray | None = None,
            abs_b: np.ndarray | None = None) -> np.ndarray:
    """The Strang step N(tau) F(m) N(tau) from the field u.

    N(tau) is the exact nonlinear substep over tau, F(m) the grid's free
    propagation by the multiplier m (that of a step of 2 tau).  A substep's
    :class:`PointwiseBlowUp` propagates and ends the step.  The first substep
    reads u and `abs_b` = |u|^b when given, and writes into `out` (a fresh
    array when not given; it may be u); the free propagation and the second
    substep work in place there, with the float `scratch`.
    """
    params = config.params
    if scratch is None:
        scratch = np.empty(u.shape)
    w = nonlinear_flow_exact(u, tau, params, out=out, scratch=scratch, abs_b=abs_b)
    config.grid.propagate(w, m, w)
    return nonlinear_flow_exact(w, tau, params, out=w, scratch=scratch)


def _doubling_trial(u: np.ndarray, abs_b: np.ndarray, dt: float, config: SolverConfig,
                    mid_row=None):
    """Two Strang steps of dt/2 and then one of dt from the field u, extrapolated.

    The full path is N(dt/2) F(m_dt) N(dt/2) and each half step is
    N(dt/4) F(m_{dt/2}) N(dt/4), where N is the exact nonlinear substep and
    F the free propagation by a multiplier; m_dt = m_{dt/2}^2, so a trial
    takes 6 nonlinear substeps, 3 FFT pairs and one multiplier build.  The
    first substep of the full path and of the first half step reads
    `abs_b` = |u|^b, which the caller took with sup|u|.

    Returns (R, row, err).  With u_dt the full-step field and two the
    two-half-step field, err = ||u_dt - two||_2 / (3 ||two||_2) estimates
    two's local error, O(dt^3), and R = two - (u_dt - two)/3 cancels its
    leading term: Strang splitting is symmetric, so R's local error is
    O(dt^5) and err bounds it (:meth:`Grid.norm_ratio`).  err is not finite
    when u_dt or two is not; R is then two.  A :class:`PointwiseBlowUp` in any
    path propagates, and the paths after it are not taken.

    `mid_row`, when given, maps the midpoint field, the field after the first
    half step at dt/2, to its :class:`DiagnosticRow`, and row is what it
    returns; row is None without it.  The midpoint is read-only while
    `mid_row` reads it.  The trial holds two fields, one
    multiplier (m_{dt/2}, squared in place into m_dt once the half steps are
    done) and one float scratch array, and every substep writes into them;
    u and abs_b are only read.  The midpoint is the first field: the second
    half step runs over it in place, so two and then R take its buffer.  To
    compute row, the trial releases its multiplier and scratch, so the row's
    transients take their place, and builds them again after.
    """
    g = config.grid
    half, quarter = 0.5 * dt, 0.25 * dt
    m = g.free_multiplier(half)
    scratch = np.empty(u.shape)
    mid = _strang(u, quarter, m, config, np.empty_like(u), scratch, abs_b)
    row = None
    if mid_row is not None:
        m = scratch = None
        mid.flags.writeable = False  # the row only reads it
        row = mid_row(mid)
        mid.flags.writeable = True
        m, scratch = g.free_multiplier(half), np.empty(u.shape)
    two = _strang(mid, quarter, m, config, mid, scratch)
    # the half steps are done with the trial's own multiplier: square it in place
    m.flags.writeable = True
    m = np.multiply(m, m, out=m)
    full = _strang(u, half, m, config, np.empty_like(u), scratch, abs_b)
    diff = np.subtract(full, two, out=full)
    err = g.norm_ratio(diff, two) / 3.0
    if math.isfinite(err):  # the run rejects any other trial: extrapolate no inf or NaN
        two -= np.divide(diff, 3.0, out=diff)
    return two, row, err


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

    Each proposed step h is cut to dt = min(h, t_max - t); the first
    proposal is 0.005, or a fifth of the datum's pointwise blow-up horizon
    where that is shorter, so that a large datum's first trial does not meet
    the pointwise singularity.  Before each trial, where the pointwise blow-up
    horizon H of sup|u| is finite and below the last state's H_prev, h is
    first scaled by H/H_prev: in the end-game H is the solution's time scale
    and shrinks by about a fifth per step, faster than a proposal made from
    the last dt alone can follow without rejected trials.  Before the log's
    `dense_from` (t_star, or 1), dt is cut to dense_from - t too: that trial
    lands at exactly dense_from, and the next proposal is at least h.
    dense_from depends on eps, theta and d alone.
    A trial takes two Strang steps of dt/2 and then one of dt (see
    :func:`_doubling_trial`).  If the error estimate err meets the step
    tolerance `_STEP_TOLERANCE`, only the extrapolated field gets the |u|
    pass (:meth:`Grid.modulus`) and the cap check, and one below the cap is
    accepted by :func:`_accept`: the shell check, an offer to the log and,
    every `record_every` accepted steps, a sample.  Before each trial the
    loop asks the log whether it keeps the midpoint at t + dt/2
    (:meth:`DiagnosticsLog.keeps`), and if so the trial computes the
    midpoint's row.  The loop appends an accepted trial's row to the log just
    before it accepts the trial's field (no offer comes between the trial and
    its acceptance); a refused trial's row goes with the trial.
    Otherwise the trial is rejected and retried: its err is over tolerance or
    not finite, or a path met the nonlinear substep's singularity, which
    counts as err = inf.  The next proposal is dt * 0.9 (tol/err)^(1/3) in
    [dt/5, 4 dt], and dt/5 for a non-finite err; nothing bounds dt by H, so
    a step longer than H may meet the singularity.  A step that shrinks to
    nothing, under a tolerance that cannot be met or a singularity that
    recurs at every step length, raises RuntimeError.

    The run ends when its blow-up is bracketed within `_BRACKET` = 1e-3 of the
    elapsed time, on its base state.  Either the horizon of sup|u| brackets
    it: before each trial, once horizon <= 1e-3 t, the pointwise flow's
    singularity lies within [t, t + horizon], and the run ends "pointwise"
    with t_blow = t + horizon.  Where t + horizon > t_max instead, t_max may
    come first: the run ends censored on that state (reached-t-max, T_eps =
    t) rather than step on into the spike.  Or a trial within
    tolerance brackets the one event, a field that reaches the sup-norm cap
    1e3/eps: an event step wider than 1e-3 max(t, dt) is halved and retried,
    so a crossing that does not recur at the shorter steps does not end the
    run; one within that width is the bracket, and the run ends "threshold"
    with t_blow = t + dt/2.
    The boundary monitor aborts when the outer-shell mass fraction exceeds
    1e-6; such runs are invalid for bound checking.  The outcome is the
    loop's own: each exit (the horizon stop, the horizon past t_max, an event
    step, contamination and t_max) returns :func:`make_record` of its last
    state with the status, and for a blow-up t_blow and its criterion, so
    every record ends on a sample of the state the run stopped on.  The log
    keeps every row the run computed, past T/2 too, and its `stats` counts
    each trial by its fate and the rows that each refused trial computed.

    A run holds one state (its field and |u|^b, 1.5 fields) and one trial
    (3.5 fields: see :func:`_doubling_trial`), 5 fields at its peak.  A
    rejected trial's field, and a capped one's, go before the retry makes
    its own; a capped trial keeps the state it started from for the halving
    retry and the "threshold" record.  Once an accepted trial's field has
    passed the cap check, the old state goes before the new one is built.
    The loop holds the only reference to `state` that it is given: a caller
    that keeps its own keeps that state alive through the run.
    """
    cfg = state.config
    log = state.diagnostics
    stats = log.stats
    tol = _STEP_TOLERANCE
    h = min(_FIRST_STEP, _FIRST_STEP_HORIZONS * blowup_horizon(state.sup, cfg.params))
    last_horizon = math.inf
    while True:
        t = state.t
        remaining = cfg.t_max - t
        if remaining <= 1e-12 * cfg.t_max:
            return make_record(state, RunStatus.REACHED_TMAX)
        horizon = blowup_horizon(state.sup, cfg.params)
        if horizon <= _BRACKET * t:
            if t + horizon <= cfg.t_max:
                return make_record(state, RunStatus.BLOWN_UP, t + horizon, "pointwise")
            return make_record(state, RunStatus.REACHED_TMAX)  # t_max may come first
        if horizon < last_horizon < math.inf:  # the solution's time scale shrank: so does h
            h *= horizon / last_horizon
        last_horizon = horizon
        dt = min(h, remaining)
        lands = 0 < log.dense_from - t <= dt
        if lands:
            dt = log.dense_from - t
        if not t + dt > t:
            raise RuntimeError(f"step size {dt!r} vanishes at t={t!r}: the trials "
                               f"cannot meet the step tolerance {tol!r}, or keep meeting "
                               f"a pointwise singularity")
        t_mid = t + 0.5 * dt
        mid_row = partial(log.row, cfg, t_mid) if log.keeps(t_mid) else None
        computed = stats.rows
        try:
            u, row, err = _doubling_trial(state.u, state.abs_b, dt, cfg, mid_row)
        except PointwiseBlowUp:
            u, err = None, math.inf
        proposal, h = h, dt * _resize(err, tol)
        if not err <= tol:
            stats.refuse("rejected" if u is not None else "singular", stats.rows - computed)
            u = None  # the rejected trial's field goes before the retry makes its own
            continue
        absu, sup = cfg.grid.modulus(u)
        if not sup < cfg.threshold:  # the field reaches the sup-norm cap (a non-finite
            # one too): the state stays for the halving retry or the record
            u = absu = None
            stats.refuse("capped", stats.rows - computed)
            if dt > _BRACKET * max(t, dt):
                h = 0.5 * dt
                continue
            return make_record(state, RunStatus.BLOWN_UP, t + 0.5 * dt, "threshold")
        t_new = t + dt
        if lands:  # the cut does not shrink the next proposal
            t_new, h = log.dense_from, max(h, proposal)
        state = None  # nothing reads the old state past the cap check
        if row is not None:
            log.rows.append(row)
        state = _accept(cfg, log, t_new, u, absu, sup, dt)
        if state.shell > _SHELL_TOLERANCE:
            return make_record(state, RunStatus.BOUNDARY_CONTAMINATED)


def make_record(state: SolverState, status: RunStatus, t_blow: float | None = None,
                criterion: str | None = None) -> RunRecord:
    """The record of a run that ended on `state` with `status`, whose last sample
    is `state`: it is sampled here unless it already was.  A BLOWN_UP run blew
    up at t_blow by `criterion`: "pointwise" (the horizon of sup|u|) or
    "threshold" (the sup-norm cap).  Every measurement of the run enters the
    record here, the remainder criterion's maximum (:func:`max_remainder_scaled`)
    too; it carries the log as the run left it, with every row it kept."""
    cfg = state.config
    if state.diagnostics.samples[-1].t != state.t:
        absu = cfg.grid.modulus(state.u)[0]
        _sample_diagnostics(state, np.square(absu, out=absu))
    params = cfg.params
    T = {RunStatus.BLOWN_UP: t_blow, RunStatus.REACHED_TMAX: state.t}.get(status)
    samples = state.diagnostics.samples
    record = RunRecord(
        eps=cfg.eps,
        theta=params.theta,
        d=params.d,
        lam=params.lam,
        status=status.value,
        T_eps=T,
        criterion=criterion,
        max_remainder_scaled=max_remainder_scaled(state.diagnostics, cfg, T),
        max_tail_fraction=max((s.tail_fraction for s in samples), default=None),
        max_shell_fraction=max((s.shell_fraction for s in samples), default=None),
        outside_hypotheses=not cfg.index_condition_ok,
        diagnostics=state.diagnostics,
    )
    if T is not None and T > 0:
        record.invariant_quantity = record.q_value()
    return record
