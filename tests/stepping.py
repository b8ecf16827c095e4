"""Fixed-step driving for the tests: the run loop's kernel and acceptance at a step the test picks."""

from nlslab import solver
from nlslab.propagators import _free_multiplier


def strang_step(u, dt, config, abs_b=None):
    """One Strang step of dt from the field u: the path N(dt/2) F(m_dt) N(dt/2) of
    :func:`solver._strang`, whose first substep reads `abs_b` = |u|^b when given."""
    return solver._strang(u, (dt / 2, dt / 2), (_free_multiplier(config.grid, dt),),
                          config.params, abs_b=abs_b)


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
    """Call note(log, t, row) for each offer a log takes, under the monkeypatch `mp`,
    just before the log commits it: t is the offer's time and row its row, None
    where the log keeps none.  Every commit follows the :meth:`keeps` call that
    gave its grid index with no other call between on that log: an accepted
    field's in its offer, a midpoint's before its trial.  t is read from that
    call."""
    keeps, commit = solver.DiagnosticsLog.keeps, solver.DiagnosticsLog.commit
    asked = {}

    def asking(log, t):
        asked[id(log)] = t
        return keeps(log, t)

    def committing(log, index, row):
        t = asked.pop(id(log))
        assert index == log._grid_index(t) and (row is None or row.t == t)
        note(log, t, row)
        commit(log, index, row)

    mp.setattr(solver.DiagnosticsLog, "keeps", asking)
    mp.setattr(solver.DiagnosticsLog, "commit", committing)
