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
