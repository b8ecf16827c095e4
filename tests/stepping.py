"""Fixed-step driving for the tests: the run loop's kernel and acceptance at a step the test picks."""

from nlslab import solver
from nlslab.propagators import _free_multiplier


def strang_step(u, dt, config, abs_b=None):
    """One Strang step of dt from the field u: :func:`solver._strang`'s
    N(dt/2) F(m_dt) N(dt/2), whose first substep reads `abs_b` = |u|^b when given."""
    return solver._strang(u, dt / 2, _free_multiplier(config.grid, dt), config.params,
                          abs_b=abs_b)


def fixed_step(state, dt):
    """The state one Strang step of dt after `state`, accepted as the run loop accepts
    a trial's field, so it is offered to the log and sampled every `record_every`
    steps.  A step that meets the pointwise singularity raises
    :class:`PointwiseBlowUp`; one whose field reaches the sup-norm cap fails the
    test."""
    cfg = state.config
    u = strang_step(state.u.values, dt, cfg, state.abs_b)
    modulus = solver._modulus(cfg, u)
    assert modulus is not None, f"the step of {dt!r} from t={state.t!r} reached the sup-norm cap"
    return solver._accept(cfg, state.diagnostics, state.t + dt, u, *modulus, state.step_count + 1)


def noting_offers(mp, note):
    """Call note(log, t) for each field offered to a log, under the monkeypatch `mp`,
    in time order and before the log takes it: each field :meth:`offer` takes,
    and just before an accepted trial's field, that trial's midpoint.  The run
    loop asks :meth:`keeps` about each trial's midpoint before the trial, and
    no offer comes between a trial and its acceptance, so the midpoint is the
    last time asked about outside an offer, when that was asked of the same log."""
    keeps, offer = solver.DiagnosticsLog.keeps, solver.DiagnosticsLog.offer
    asked, offering = [], []

    def asking(log, t):
        if not offering:
            asked[:] = [(log, t)]
        return keeps(log, t)

    def offered(log, config, t, values):
        for asker, t_mid in asked:
            if asker is log:
                note(log, t_mid)
        asked.clear()
        note(log, t)
        offering.append(t)
        try:
            offer(log, config, t, values)
        finally:
            offering.pop()

    mp.setattr(solver.DiagnosticsLog, "keeps", asking)
    mp.setattr(solver.DiagnosticsLog, "offer", offered)
