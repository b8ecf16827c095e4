"""Fixed-step driving for the tests, the run loop's kernel and acceptance at a step the
test picks, and the contract between a finished run's log and its counts."""

import math

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
    accepted steps, and counted in the log's stats as an accepted trial.  A step
    that meets the pointwise singularity raises :class:`PointwiseBlowUp`; one
    whose field reaches the sup-norm cap fails the test."""
    cfg, log = state.config, state.diagnostics
    u = strang_step(state.u.values, dt, cfg, state.abs_b)
    modulus = solver._modulus(cfg, u)
    assert modulus is not None, f"the step of {dt!r} from t={state.t!r} reached the sup-norm cap"
    return solver._accept(cfg, log, state.t + dt, u, *modulus, dt)


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


def assert_log_matches_its_counts(log, record_every):
    """The contract between the log of a run that ended in a record and its counts
    (:class:`nlslab.records.RunStats`): every row the run computed is kept unless
    its trial was refused; the rows' times strictly increase, and so do their grid
    indices; a default log's rows all lie at t >= dense_from; and the samples are
    the datum's, one per `record_every` accepted trials, and the last state's."""
    stats = log.stats
    assert stats.rows == len(log.rows) + stats.rows_refused
    times = [row.t for row in log.rows]
    indices = [log._grid_index(t) for t in times]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert log.full or all(t >= log.dense_from for t in times)
    assert len(log.samples) == 1 + math.ceil(stats.accepted / record_every)
