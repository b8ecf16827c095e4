"""Split-step solver: linear limit, conservation, blow-up measurement, convergence."""

import collections
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlslab import (
    ComplexField,
    Grid,
    NonlinearityParams,
    Space,
    boundary_shell_fraction,
    free_propagate,
    norms,
    sup_modulus,
)
from nlslab import convergence, initial_data, propagators, solver
from nlslab.harness import ExperimentConfig
from nlslab.initial_data import gaussian
from nlslab.propagators import (
    PointwiseBlowUp,
    blowup_horizon,
    g_p,
    profile,
    remainder_sup,
    t_star_time,
)
from nlslab.convergence import convergence_study
from nlslab.solver import (
    SolverConfig,
    init,
    mass_balance_residuals,
    run_to_blowup,
)
from stepping import assert_log_matches_its_counts, fixed_step, noting_offers, strang_step

AMPLIFYING = NonlinearityParams(lam=1j, theta=0.5, d=1)
CONSERVATIVE = NonlinearityParams(lam=1.0 + 0j, theta=0.5, d=1)
FREE = NonlinearityParams(lam=0j, theta=0.5, d=1)


def small_config(params=AMPLIFYING, **over):
    kw = dict(grid=Grid(1, 256, 20.0), params=params, eps=0.3, s=1.0, t_max=50.0)
    kw.update(over)
    return SolverConfig(**kw)


# A doubling trial squares the half step's multiplier for its full step, so it
# rounds differently from separate Strang steps: its extrapolated field is
# within 2.3e-16 max|R| of theirs and its err within 3.8e-17 of theirs
# (measured over whole 1-D and 2-D runs).  Its midpoint field is theirs bit for bit.
TRIAL_ROUNDOFF = 1e-15
TRIAL_ERR_ROUNDOFF = 2e-16


def doubling_trial(u, dt, config):
    """(R, mid, err) of :func:`solver._doubling_trial` from u, with |u|^b taken here:
    the trial's row callable is np.copy, so its row is a copy of its midpoint field."""
    return solver._doubling_trial(u, np.abs(u) ** config.params.b, dt, config, np.copy)


def unfused_trial(u, dt, config):
    """(R, mid, err, two) of a doubling trial composed of separate Strang steps."""
    mid = strang_step(u, dt / 2, config)
    two = strang_step(mid, dt / 2, config)
    full = strang_step(u, dt, config)
    err = np.linalg.norm(full - two) / (3.0 * np.linalg.norm(two))
    return two - (full - two) / 3.0, mid, err, two


def fresh_env(**extra):
    """The environment, with `extra` set, of a fresh interpreter that imports this
    checkout's nlslab and these tests' modules."""
    env = dict(os.environ, **extra)
    paths = (Path(solver.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), *filter(None, [env.get("PYTHONPATH")])])
    return env


def assert_trial_matches_unfused(u, dt, config, trial):
    got, mid, err = trial
    want, want_mid, want_err, _ = unfused_trial(u, dt, config)
    assert np.array_equal(mid, want_mid)
    assert np.max(np.abs(got - want)) <= TRIAL_ROUNDOFF * np.max(np.abs(got))
    assert err == pytest.approx(want_err, rel=0, abs=TRIAL_ERR_ROUNDOFF)


class TestConfig:
    def test_threshold_default(self, monkeypatch):
        cfg = small_config(eps=0.25)
        assert cfg.threshold == pytest.approx(4000.0)
        # the cap stays infinite for the zero datum, which never grows
        assert small_config(eps=0.0).threshold == np.inf
        monkeypatch.setattr(solver, "_SUP_CAP", 1.75)
        assert cfg.threshold == 7.0

    def test_config_outside_the_index_range_runs_flagged(self):
        # d=3 with theta <= 3/4 leaves no admissible s at all; the run is still defined
        params = NonlinearityParams(lam=1j, theta=0.7, d=3)
        cfg = SolverConfig(grid=Grid(3, 16, 5.0), params=params, eps=1.0, s=1.6, t_max=20.0)
        assert not cfg.index_condition_ok
        record = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert record.outside_hypotheses and record.status == "boundary-contaminated"
        inside = small_config()
        assert inside.index_condition_ok
        assert not run_to_blowup(init(inside, gaussian(inside.grid))).outside_hypotheses

    @pytest.mark.parametrize("field, value", [
        ("eps", np.nan), ("eps", np.inf), ("eps", -0.1),
        ("t_max", np.inf), ("t_max", np.nan), ("t_max", 0.0)])
    def test_rejects_non_finite_eps_and_t_max(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_s(self, value):
        # a NaN s would run, with every sample's sigma_s NaN and E(t) reading 0
        with pytest.raises(ValueError, match="^s must be finite"):
            small_config(s=value)

    @pytest.mark.parametrize("field, value", [("record_every", 0), ("record_every", -3)])
    def test_rejects_bad_sampling_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_fingerprint_changes_with_fields(self):
        # every field can change a run's results; a field added without a value
        # here fails the key check
        changed = {
            "grid": Grid(1, 512, 20.0), "params": CONSERVATIVE, "eps": 0.31, "s": 1.5,
            "t_max": 60.0, "record_every": 2,
        }
        names = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(changed) == names
        base = small_config()
        assert base.fingerprint() == small_config().fingerprint()
        for name, value in changed.items():
            assert getattr(base, name) != value
            assert small_config(**{name: value}).fingerprint() != base.fingerprint(), name


class TestInit:
    def test_scaled_datum(self):
        cfg = small_config(eps=0.1)
        state = init(cfg, gaussian(cfg.grid))
        assert np.max(np.abs(state.u.values)) == pytest.approx(0.1, rel=1e-14)
        assert state.t == 0.0

    def test_initial_energy_is_linear_in_eps(self):
        cfg = small_config(eps=0.37)
        phi = gaussian(cfg.grid)
        state = init(cfg, phi)
        expected = cfg.eps * norms(phi, 0.0, cfg.s).sigma_s
        assert state.diagnostics.samples[0].energy == pytest.approx(expected, rel=1e-12)

    def test_zero_eps_stays_zero(self):
        cfg = small_config(eps=0.0)
        state = init(cfg, gaussian(cfg.grid))
        for _ in range(5):
            state = fixed_step(state, 0.01)
        assert np.all(state.u.values == 0)

    def test_rejects_datum_at_the_threshold(self):
        # sup|eps phi| = 4000 already reaches the cap 1e3/eps = 2500: no step could be
        # event-free
        cfg = small_config(eps=0.4)
        with pytest.raises(ValueError, match=r"sup-norm cap 1e3/eps = 2500\.0"):
            init(cfg, gaussian(cfg.grid, amplitude=1e4))

    def test_rejects_frequency_datum(self):
        cfg = small_config()
        from nlslab import fourier_forward

        with pytest.raises(ValueError):
            init(cfg, fourier_forward(gaussian(cfg.grid)))


class TestStep:
    def test_free_case_is_exact_multiplier(self):
        cfg = small_config(params=FREE, record_every=10**9)
        phi = gaussian(cfg.grid)
        state = init(cfg, phi)
        for _ in range(50):
            state = fixed_step(state, 0.02)
        exact = free_propagate(ComplexField(cfg.grid, Space.PHYSICAL,
                                            cfg.eps * phi.values), 1.0)
        assert np.max(np.abs(state.u.values - exact.values)) < 1e-12

    def test_state_carries_sup_of_its_field(self):
        cfg = small_config(eps=0.4)
        state = init(cfg, gaussian(cfg.grid))
        for _ in range(20):
            assert state.sup == np.max(np.abs(state.u.values))
            state = fixed_step(state, 0.05)

    @pytest.mark.parametrize("d", [1, 2])
    def test_sample_reuses_the_steps_modulus_pass(self, d):
        # the shell fraction and sup|u| on the state, and the sample's l2,
        # l_inf and shell fraction, are the public functions' values bit for bit
        if d == 1:
            cfg = small_config(eps=0.4, grid=Grid(1, 128, 10.0), record_every=3)
        else:
            cfg = SolverConfig(grid=Grid(2, 32, 6.0), params=NonlinearityParams(1j, 0.5, 2),
                               eps=0.5, s=1.2, record_every=3)
        state = init(cfg, gaussian(cfg.grid))
        samples = state.diagnostics.samples
        for _ in range(60):
            assert state.shell == boundary_shell_fraction(state.u)
            assert state.sup == sup_modulus(state.u)
            if state.diagnostics.stats.accepted % cfg.record_every == 0:
                sample = samples[-1]
                assert sample.t == state.t
                assert sample.shell_fraction == state.shell
                assert sample.report.l_inf == sup_modulus(state.u)
                want = norms(state.u, state.t, cfg.s)
                assert sample.report.l2 == want.l2
                assert sample.report.h_s0 == want.h_s0
                assert sample.report.h_0s == pytest.approx(want.h_0s, rel=1e-13)
                if d == 1:
                    assert sample.report == want
                wx = cfg.grid.h ** d
                lp1 = wx * np.sum(np.abs(state.u.values) ** (cfg.params.p + 1.0))
                assert sample.lp1 == pytest.approx(lp1, rel=1e-14)
            state = fixed_step(state, 0.005)
        assert state.shell > 0 and len(samples) == 21

    def test_fixed_steps_keep_the_first_field_at_each_grid_time(self):
        # a fixed step is accepted as the run loop accepts a trial's field: it is
        # offered to the log whether or not it is due a sample, and kept when
        # it is the first at or after a time of the grid, 16 per decade of 1 + t
        # before t_star = 2.5: 0, 0.155 and 0.334 up to t = 0.35.  A full log
        # turns each kept field into its row as it is kept, by remainder_sup
        cfg = small_config(eps=0.4, record_every=3)
        state = init(cfg, gaussian(cfg.grid), diagnostics=True)
        states = [state]
        for _ in range(7):
            state = fixed_step(state, 0.05)
            states.append(state)
        log = state.diagnostics
        assert log.dense_from == 2.5
        assert [row.t for row in log.rows] == [states[k].t for k in (0, 4, 7)]
        assert log.rows[0].remainder_sup is None
        assert [row.remainder_sup for row in log.rows[1:]] == [
            remainder_sup(states[k].u, states[k].t, cfg.params) for k in (4, 7)]
        assert [s.t for s in log.samples] == [s.t for s in states[::3]]

    def test_real_lambda_conserves_mass(self):
        cfg = small_config(params=CONSERVATIVE)
        state = init(cfg, gaussian(cfg.grid))
        m0 = state.diagnostics.samples[0].mass
        for _ in range(1000):
            state = fixed_step(state, 0.005)
        drift = max(abs(s.mass - m0) / m0 for s in state.diagnostics.samples)
        assert drift < 1e-10

    def test_mass_balance_residual_is_second_order(self):
        # d||u||^2/dt = 2 Im(lam) ||u||_{p+1}^{p+1}: the trapezoid residual
        # of the recorded series must shrink like dt^2
        def residual(dt):
            cfg = small_config(eps=0.4)
            state = init(cfg, gaussian(cfg.grid))
            for _ in range(int(round(1.0 / dt))):
                state = fixed_step(state, dt)
            res = mass_balance_residuals(state.diagnostics.samples, mu=1.0)
            return np.max(np.abs(res))

        r1, r2 = residual(0.02), residual(0.01)
        assert r1 / r2 == pytest.approx(4.0, abs=1.5)

    def test_pointwise_blowup_detected_in_large_step(self):
        cfg = small_config(eps=0.5, record_every=10**9)
        state = init(cfg, gaussian(cfg.grid))
        # sup |u| = 0.5, so the half-step horizon is 1/0.5 = 2 < dt/2
        with pytest.raises(PointwiseBlowUp) as blown:
            strang_step(state.u.values, 20.0, cfg, state.abs_b)
        assert blown.value.earliest == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.0], ids=["capped", "no cap"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_not_accepted(self, eps, value):
        # sup|u| of a non-finite field is not below the cap, even at eps = 0
        # where the cap is inf: the cap check refuses it, so no state is taken
        # from it and nothing is recorded
        cfg = small_config(eps=eps, record_every=10**9)
        state = init(cfg, gaussian(cfg.grid))
        field = state.u.values.copy()
        field[0] = value
        log = state.diagnostics
        assert solver._modulus(cfg, field) is None
        assert len(log.samples) == 1 and state.t == 0.0
        # offered at t = 20, past t_star = 2, the field would get a row
        assert log.rows == []

    def test_threshold_crossing_is_an_event_without_sample(self, monkeypatch):
        # sup |u| starts at 0.4 and grows without bound; the pointwise
        # horizon stays far beyond dt/2 while sup |u| < 1, the cap 0.4/eps
        monkeypatch.setattr(solver, "_SUP_CAP", 0.4)
        cfg = small_config(eps=0.4)
        state = init(cfg, gaussian(cfg.grid), diagnostics=True)
        log = state.diagnostics
        for _ in range(1000):
            n_samples, n_rows = len(log.samples), len(log.rows)
            u = strang_step(state.u.values, 0.05, cfg, state.abs_b)
            modulus = solver._modulus(cfg, u)
            if modulus is None:
                break
            state = solver._accept(cfg, log, state.t + 0.05, u, *modulus, 0.05)
        assert modulus is None
        assert len(log.samples) == n_samples and len(log.rows) == n_rows
        # the run loop brackets the same crossing and records it as a threshold blow-up
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up" and rec.t_blow_threshold == rec.T_eps
        assert state.t < rec.T_eps < state.t + 0.05


class TestRunToBlowup:
    def test_reference_blowup_time(self):
        # the converged lifespan of this datum is 3.7544805 (the blow-up bracketed
        # within 1e-6 of t, no sup-norm cap); the horizon stop reads 3.754451197
        # here, 7.8e-6 low, which is the stop's known bias
        cfg = small_config(eps=0.4, grid=Grid(1, 512, 30.0), record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up"
        assert rec.T_eps == pytest.approx(3.7544805, rel=2e-5)
        assert rec.t_blow_pointwise is not None
        assert rec.invariant_quantity == pytest.approx(0.4 * np.sqrt(rec.T_eps), rel=1e-12)

    def test_deterministic(self):
        cfg = small_config(eps=0.4, grid=Grid(1, 256, 25.0), record_every=8)
        rec1 = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        rec2 = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec1.T_eps == rec2.T_eps
        assert rec1.config_fingerprint == rec2.config_fingerprint
        m1 = [s.mass for s in rec1.diagnostics.samples]
        m2 = [s.mass for s in rec2.diagnostics.samples]
        assert m1 == m2

    def test_damping_censors(self):
        cfg = small_config(params=NonlinearityParams(lam=-1j, theta=0.5, d=1),
                           eps=0.3, t_max=3.0, record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "reached-t-max"
        assert rec.censored
        assert rec.T_eps == pytest.approx(3.0, rel=1e-6)

    def test_larger_gain_blows_up_sooner(self):
        grid = Grid(1, 512, 30.0)
        times = {}
        for lam in (1j, 2j):
            cfg = small_config(params=NonlinearityParams(lam=lam, theta=0.5, d=1),
                               eps=0.4, grid=grid, record_every=8)
            times[lam] = run_to_blowup(init(cfg, gaussian(grid))).T_eps
        assert times[2j] < times[1j]

    def test_gain_amplitude_scaling_covariance(self):
        # for b = 1 the substitution u -> u/2 maps (lam=i, eps=0.4) onto
        # (lam=2i, eps=0.2) exactly, and so does the horizon stop that ends
        # both runs: the two measured lifespans agree (bit for bit, measured)
        grid = Grid(1, 512, 30.0)
        phi = gaussian(grid)

        def measure(lam, eps):
            params = NonlinearityParams(lam=lam, theta=0.5, d=1)
            cfg = small_config(params=params, eps=eps, grid=grid, t_max=60.0,
                               record_every=10**9)
            return run_to_blowup(init(cfg, phi)).T_eps

        t_a, t_b = measure(2j, 0.2), measure(1j, 0.4)
        assert abs(t_a - t_b) / t_b < 1e-3

    def test_wide_threshold_bracket_keeps_t_eps(self, monkeypatch):
        # at a cap of 0.6/eps = 2 the event step the step law reaches is wider than the
        # bracket, so it is halved down to 1e-3 t; T_eps must agree, to the
        # bracket half-width, with the value frozen from a solver that
        # bisected that wide step instead; the run records its landing state
        # although it falls between the every-7th-step samples
        monkeypatch.setattr(solver, "_SUP_CAP", 0.6)
        cfg = small_config(eps=0.3, record_every=7)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up" and rec.t_blow_threshold == rec.T_eps
        assert abs(rec.T_eps - 5.167165066477595) / 5.167165066477595 < 5e-4
        last = rec.diagnostics.samples[-1].t
        assert 0 < 2 * (rec.T_eps - last) <= 1e-3 * last

    def test_threshold_insensitivity(self, monkeypatch):
        # sup|u| brings the pointwise horizon inside the bracket below both
        # caps, so the run ends on that stop and the cap never fires
        grid = Grid(1, 512, 30.0)
        phi = gaussian(grid)

        def measure(thr):
            monkeypatch.setattr(solver, "_SUP_CAP", thr * 0.3)
            cfg = small_config(eps=0.3, grid=grid, t_max=60.0, record_every=10**9)
            rec = run_to_blowup(init(cfg, phi))
            assert rec.status == "blown-up" and rec.t_blow_pointwise == rec.T_eps
            return rec.T_eps

        assert measure(1000.0) == measure(4000.0)

    def test_horizon_stop_brackets_the_singularity(self):
        # the run ends on its last sample, once the pointwise blow-up horizon
        # of its sup|u| is within the bracket; that horizon is the bracket
        cfg = small_config(eps=0.4, grid=Grid(1, 512, 30.0), record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        last = rec.diagnostics.samples[-1]
        assert rec.status == "blown-up" and rec.t_blow_pointwise == rec.T_eps
        assert rec.T_eps == last.t + blowup_horizon(last.report.l_inf, cfg.params)
        assert 0 < rec.T_eps - last.t <= 1e-3 * last.t

    def test_horizon_stop_keeps_the_run_resolved(self):
        # the default eps = 0.4 run stops before the spike outgrows the
        # grid (tail 1.4e-7 measured; 5.2e-3 when it ran on to the cap)
        cfg = small_config(eps=0.4, grid=Grid(1, 2048, 80.0), t_max=200.0, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up" and rec.t_blow_pointwise == rec.T_eps
        assert rec.max_tail_fraction < 1e-6

    def test_singularity_past_t_max_is_censored(self):
        # the predicted singularity, 3.75446, lies past t_max = 3.754, which falls
        # inside the horizon's bracket: the run ends censored where the bracket is
        # reached, at 3.750993, and does not step on into the spike (tail 1.4e-7
        # there, 3.4e-3 when it ran on to t_max)
        cfg = small_config(eps=0.4, grid=Grid(1, 2048, 80.0), t_max=3.754, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "reached-t-max" and rec.censored
        assert rec.t_blow_pointwise is None and rec.t_blow_threshold is None
        assert 0 < cfg.t_max - rec.T_eps <= solver._BRACKET * rec.T_eps
        assert rec.max_tail_fraction < 1e-6
        # the record ends on a sample of the state it stopped on
        last = rec.diagnostics.samples[-1]
        assert last.t == rec.T_eps
        assert rec.max_tail_fraction == last.tail_fraction

    def test_boundary_contamination_flagged(self):
        # a box too small for the dispersive spreading must abort the run
        cfg = small_config(params=CONSERVATIVE, grid=Grid(1, 64, 6.0),
                           eps=0.3, t_max=40.0, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "boundary-contaminated"
        assert rec.T_eps is None
        assert rec.invariant_quantity is None

    def test_contamination_detected_on_an_unsampled_step(self):
        cfg = small_config(params=CONSERVATIVE, grid=Grid(1, 64, 6.0),
                           eps=0.3, t_max=40.0, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        log = rec.diagnostics
        assert rec.status == "boundary-contaminated"
        # the aborting step was not due a sample; the record samples it, so
        # its shell mass shows, and only there
        assert log.stats.accepted % cfg.record_every != 0
        assert_log_matches_its_counts(log, cfg.record_every)
        *before, last = log.samples
        assert last.shell_fraction > solver._SHELL_TOLERANCE
        assert all(sample.shell_fraction <= solver._SHELL_TOLERANCE for sample in before)
        assert rec.max_shell_fraction == last.shell_fraction

    def test_mass_monotone_for_amplifying(self):
        cfg = small_config(eps=0.3, grid=Grid(1, 512, 30.0), record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        masses = np.array([s.mass for s in rec.diagnostics.samples])
        assert np.all(np.diff(masses) > -1e-12)

    @pytest.mark.parametrize("lam, t_max", [(1j, 50.0), (-1j, 3.0)])
    def test_energy_is_running_sup_of_sigma(self, lam, t_max):
        # the damped run's sigma_s falls, so its energy must stay at the peak
        cfg = small_config(params=NonlinearityParams(lam=lam, theta=0.5, d=1), eps=0.4,
                           grid=Grid(1, 256, 25.0), t_max=t_max, record_every=2)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        samples = rec.diagnostics.samples
        sigma = np.array([s.report.sigma_s for s in samples])
        assert [s.energy for s in samples] == list(np.maximum.accumulate(sigma))
        if lam == -1j:
            assert sigma[-1] < sigma.max()

    def test_sample_times_increase_up_to_landing(self):
        cfg = small_config(eps=0.4, grid=Grid(1, 256, 25.0), record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        times = np.array([s.t for s in rec.diagnostics.samples])
        assert rec.status == "blown-up"
        # a landing on an already-sampled base state adds no second sample
        assert np.all(np.diff(times) > 0)
        # a sample from the rejected trial step would lie beyond T_eps
        assert times[-1] < rec.T_eps

    def test_landing_on_sampled_base_keeps_residuals_finite(self):
        # the run lands on its (sampled) base state, and the horizon from
        # there is the bracket [last, T_eps]
        cfg = small_config(eps=0.4, grid=Grid(1, 256, 25.0), record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        last = rec.diagnostics.samples[-1].t
        assert rec.status == "blown-up"
        assert 0 < rec.T_eps - last <= 1e-3 * last
        with np.errstate(divide="raise", invalid="raise"):
            res = mass_balance_residuals(rec.diagnostics.samples, mu=1.0)
        assert np.all(np.isfinite(res))

    def test_censored_run_keeps_every_row_it_computes(self):
        # the log computes the row of each field it keeps from t_star on as the field
        # is offered, and the record keeps them all, past T/2 = 100 (T = t_max) too
        # damped and censored at t_max = 200, t_star = 1: it keeps 117 fields
        cfg = small_config(params=NonlinearityParams(-1j, 0.5, 1), grid=Grid(1, 4096, 1600.0),
                           eps=1.0, t_max=200.0, record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        log = rec.diagnostics
        assert rec.status == "reached-t-max" and rec.T_eps == 200.0
        assert_log_matches_its_counts(log, cfg.record_every)
        assert len(log.rows) > 100 and log.stats.rows_refused == 0
        assert log.dense_from == 1.0 and any(row.t > 100.0 for row in log.rows)

    def test_run_keeps_the_first_offer_at_or_after_each_grid_time(self, monkeypatch):
        # the grid is 16 times per decade of 1 + t from t = 0 and 160 from
        # t_star = 1/0.3 on; every offer is an accepted field or the midpoint of
        # its trial, each offered to the log as it is accepted.  The run lands on
        # t_star, so its first row from there on is at t_star
        offered = []
        noting_offers(monkeypatch, lambda log, t: offered.append(t))
        cfg = small_config(eps=0.3, grid=Grid(1, 256, 25.0), record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid), diagnostics=True))
        log = rec.diagnostics
        t_star = log.dense_from
        times = [row.t for row in log.rows]
        assert rec.status == "blown-up" and t_star == 0.3**-1.0
        assert times == first_offers(offered, grid_times(t_star, offered[-1]))
        # 29 of the 40 from t_star on, one at each grid time up to T_eps = 5.69
        late = [t for t in times if t >= t_star]
        assert len(late) > 20 and late[0] == t_star

    @pytest.mark.parametrize("eps, theta, dense_from", [
        (0.2, 0.5, 5.0), (0.0, 0.5, 1.0), (0.2, 1.0, 1.0), (1e-10, 0.99, np.inf),
    ], ids=["t-star", "eps-0", "theta-1", "t-star-beyond-a-float"])
    def test_snapshot_grid_is_dense_from_t_star_or_one(self, eps, theta, dense_from):
        cfg = small_config(params=NonlinearityParams(1j, theta, 1), eps=eps)
        assert init(cfg, gaussian(cfg.grid)).diagnostics.dense_from == dense_from

    @pytest.mark.parametrize("seed", [1, 2, 3, 32, 128])
    def test_kept_offers_are_the_first_at_or_after_each_grid_time(self, monkeypatch, seed):
        # random offer sequences, in time order: what is kept is the first offer at
        # or after each time of the grid.  A full log makes each kept offer a row as
        # it comes, with `window` or without; a default log does so for those from
        # dense_from on with `window`, and for none without.  The row is stubbed:
        # this is the log's bookkeeping alone
        monkeypatch.setattr(solver.DiagnosticsLog, "row", lambda log, config, t, values:
                            StubRow(config, t, values, log.full))
        rng = np.random.default_rng(seed)
        for k in range(20):
            dense_from = np.inf if k % 5 == 4 else float(rng.uniform(0.2, 8.0))
            has_window = k % 3 != 0
            # gaps of 0 offer a time twice
            gaps = rng.integers(0, 3, 300) * 0.05 if k % 2 else rng.exponential(0.05, 300)
            times = [float(t) for t in np.cumsum(gaps)]
            full = solver.DiagnosticsLog(dense_from=dense_from, window=has_window, full=True)
            window = solver.DiagnosticsLog(dense_from=dense_from, window=has_window)
            arrays = {}
            for t in times:
                arrays.setdefault(t, np.array([t]))
                for log in (full, window):
                    kept, before = log.keeps(t), len(log.rows)
                    log.offer(None, t, arrays[t])
                    assert isinstance(kept, bool) and len(log.rows) == before + kept
                assert [row.t for row in window.rows] == [
                    row.t for row in full.rows if has_window and row.t >= dense_from]
            want = first_offers(times, grid_times(dense_from, times[-1]))
            assert [row.t for row in full.rows] == want
            assert [row.t for row in window.rows] == [t for t in want
                                                      if has_window and t >= dense_from]
            for log, is_full in ((full, True), (window, False)):
                assert all(row.values is arrays[row.t] and not row.values.flags.writeable
                           and row.full is is_full for row in log.rows)


StubRow = collections.namedtuple("StubRow", "config t values full")


def grid_times(dense_from, t_end):
    """The grid's times up to t_end: 16 per decade of 1 + t from t = 0, then 160 per
    decade from dense_from on."""
    times = []
    k = 0
    while k / 16 <= np.log10(1.0 + t_end) and 10.0 ** (k / 16) - 1.0 < dense_from:
        times.append(10.0 ** (k / 16) - 1.0)
        k += 1
    j = 0
    while dense_from <= t_end and j / 160 <= np.log10((1.0 + t_end) / (1.0 + dense_from)):
        # the first is dense_from itself, which (1 + t) - 1 may round away from
        times.append((1.0 + dense_from) * 10.0 ** (j / 160) - 1.0 if j else dense_from)
        j += 1
    return times


def first_offers(offers, times):
    """The first of the time-ordered offers at or after each time, each once."""
    kept = []
    for g in times:
        first = next((t for t in offers if t >= g), None)
        if first is not None and (not kept or kept[-1] != first):
            kept.append(first)
    return kept


@pytest.fixture(scope="module")
def rung_three_ways():
    """The records of the default config's eps = 0.2 rung as it is, with
    diagnostics=True and at s = 0.4, where it has no remainder window, each
    sampled at every accepted field."""
    base = ExperimentConfig(eps_ladder=[0.2])
    cfg = dataclasses.replace(base.solver_config(), record_every=1)
    phi = initial_data.build(cfg.grid, base.initial_data)
    return {name: run_to_blowup(init(run_cfg, phi, diagnostics=diagnostics))
            for name, run_cfg, diagnostics in (("default", cfg, False), ("full", cfg, True),
                                               ("s=0.4", dataclasses.replace(cfg, s=0.4), False))}


def amplified_gaussian(cfg, amplitude):
    return initial_data.build(cfg.grid, {"kind": "gaussian", "width": 1.0,
                                         "amplitude": amplitude})


class TestStepLaw:
    def spy_trials(self, monkeypatch):
        """Record (dt, R, row, err) of every doubling trial, each checked against the
        unfused composition, and (dt, None, None, inf) of one that meets the
        pointwise singularity."""
        trials = []
        trial = solver._doubling_trial

        def spy_trial(u, abs_b, dt, config, mid_row=None):
            mids = []

            def noting(values):  # every trial shows its midpoint field here
                mids.append(values.copy())
                return None if mid_row is None else mid_row(values)

            try:
                field, row, err = trial(u, abs_b, dt, config, noting)
            except PointwiseBlowUp:
                trials.append((dt, None, None, math.inf))
                raise
            # the field is the extrapolation of two Strang steps of dt/2 and one
            # of dt, the midpoint the first of the two, and err the doubling estimate
            assert_trial_matches_unfused(u, dt, config, (field, *mids, err))
            trials.append((dt, field, row, err))
            return field, row, err

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        return trials

    def test_tolerance_refinement_stays_inside_the_event_bracket(self, monkeypatch):
        # the event bracket has relative half-width 5e-4; a tenfold tighter
        # step tolerance must move T by less (3.1e-7 measured)
        cfg = small_config(eps=0.4, grid=Grid(1, 512, 30.0), record_every=8)
        t_a = run_to_blowup(init(cfg, gaussian(cfg.grid))).T_eps
        monkeypatch.setattr(solver, "_STEP_TOLERANCE", solver._STEP_TOLERANCE / 10.0)
        t_b = run_to_blowup(init(cfg, gaussian(cfg.grid))).T_eps
        assert abs(t_a - t_b) / t_b < 5e-4

    def test_default_rung_lands_near_the_converged_lifespan(self, monkeypatch):
        # the default eps = 0.4 rung lies 5.7e-9 (relative, measured) from the
        # same run at step tolerance 1e-10; at tolerance 1e-6, before runs landed
        # on t_star, it lay 7.4e-7 from there, and accepting the two-half-step
        # field at tolerance 1e-7 left it 2.0e-6 away
        cfg = ExperimentConfig().solver_config()
        phi = gaussian(cfg.grid)
        t_eps = run_to_blowup(init(cfg, phi)).T_eps
        monkeypatch.setattr(solver, "_STEP_TOLERANCE", 1e-10)
        converged = run_to_blowup(init(cfg, phi)).T_eps
        assert abs(t_eps - converged) / converged < 2.0e-6

    def test_every_run_of_a_rung_lands_on_t_star_at_the_same_times(self, rung_three_ways):
        # the landing on t_star = 5.0 depends on eps, theta and d alone, so the three
        # runs of the rung accept the same times bit for bit, which their samples
        # show, one for each accepted field
        runs = rung_three_ways
        times = [sample.t for sample in runs["default"].diagnostics.samples]
        assert 5.0 == t_star_time(0.2, 0.5, 1) and 5.0 in times
        assert all(rec.status == "blown-up" for rec in runs.values())
        assert all([sample.t for sample in rec.diagnostics.samples] == times
                   for rec in runs.values())
        assert len({rec.T_eps for rec in runs.values()}) == 1
        # the three differ in what they compute at the times they share
        assert runs["s=0.4"].diagnostics.rows == []
        assert len(runs["full"].diagnostics.rows) > len(runs["default"].diagnostics.rows) > 0

    def test_counts_do_not_depend_on_what_the_log_computes(self, rung_three_ways):
        # the three runs of the rung take the same trials, with the same fates and
        # steps; their rows differ as their logs do: none at s = 0.4, a sup|R| row
        # per field kept from t_star on, and a full row per field kept from t = 0 on
        stats = {name: rec.diagnostics.stats for name, rec in rung_three_ways.items()}
        for name, rec in rung_three_ways.items():
            assert_log_matches_its_counts(rec.diagnostics, 1)
            assert dataclasses.replace(stats[name], rows=0) == dataclasses.replace(
                stats["default"], rows=0)
        default = stats["default"]
        assert default.accepted > 50 and default.rejected == default.singular == default.capped == 0
        assert default.rows_refused == 0 and 0 < default.dt_min < default.dt_max
        assert stats["s=0.4"].rows == 0 < default.rows < stats["full"].rows

    def test_a_landing_cut_does_not_shrink_the_next_trial(self, monkeypatch):
        # the default eps = 0.2 rung cuts its trial to land on t_star = 5.0; the next
        # trial is as long as the proposal made before that cut, where the step law
        # alone would have made it dt * 0.9 (tol/err)^(1/3) from the cut step's dt
        trials = self.spy_trials(monkeypatch)
        base = ExperimentConfig(eps_ladder=[0.2])
        cfg = dataclasses.replace(base.solver_config(), record_every=1)
        rec = run_to_blowup(init(cfg, initial_data.build(cfg.grid, base.initial_data)))
        tol = solver._STEP_TOLERANCE
        assert rec.status == "blown-up" and rec.diagnostics.stats.accepted == len(trials)
        times = [sample.t for sample in rec.diagnostics.samples[1:]]  # one per trial
        k = times.index(5.0)  # trials[k] is the cut trial that lands there
        (dt_before, *_, err_before), (dt_cut, *_, err_cut), (dt_next, *_) = trials[k - 1:k + 2]
        proposal = dt_before * solver._resize(err_before, tol)
        assert times[k - 1] + dt_cut == 5.0 and dt_cut < proposal
        assert dt_cut * solver._resize(err_cut, tol) < proposal
        assert dt_next == proposal

    def test_rejected_trials_retry_smaller_and_accepted_meet_tolerance(self, monkeypatch):
        trials = self.spy_trials(monkeypatch)
        # a first step of 0.2 is far too long for the tolerance
        monkeypatch.setattr(solver, "_FIRST_STEP", 0.1 * 2.0)
        cfg = small_config(eps=0.4, record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        log = rec.diagnostics
        stats = log.stats
        assert rec.status == "blown-up" and stats.singular == stats.capped == 0
        tol = solver._STEP_TOLERANCE
        assert trials[0][0] == pytest.approx(0.2) and trials[0][3] > tol
        rejected = [k for k, (*_, err) in enumerate(trials) if not err <= tol]
        assert rejected and stats.rejected == len(rejected)
        for k in rejected:
            assert trials[k + 1][0] < trials[k][0]
        # every accepted field is the extrapolated field of a trial within tolerance,
        # sampled as it is accepted (its time and sup|u|), and the trial's midpoint
        # row, where it computed one, is kept at its midpoint; a rejected trial's
        # row is counted as refused, and kept nowhere
        accepted = [trial for trial in trials if trial[3] <= tol]
        assert stats.accepted == len(accepted) == len(log.samples) - 1
        assert_log_matches_its_counts(log, cfg.record_every)
        t_base, mids = 0.0, 0
        for (dt, field, row, _), sample in zip(accepted, log.samples[1:]):
            assert sample.t == t_base + dt and sample.report.l_inf == np.max(np.abs(field))
            if row is not None:
                assert row.t == t_base + 0.5 * dt
                assert sum(kept is row for kept in log.rows) == 1
                mids += 1
            t_base = sample.t
        thrown = [row for _, _, row, err in trials if row is not None and not err <= tol]
        assert mids > 5 and stats.rows_refused == len(thrown)
        assert not any(kept is row for kept in log.rows for row in thrown)

    def test_singularity_that_does_not_recur_is_stepped_past(self, monkeypatch):
        # steps of up to 10 horizons from a first proposal of 10: from twice the
        # datum, sup|u| = 0.8 with horizon 1.25, the first trial is cut to land on
        # t_star = 2.5 and meets the pointwise singularity.  It is refused as if its
        # err were inf, the retry takes a fifth of its step, and the run blows up
        trials = self.spy_trials(monkeypatch)
        monkeypatch.setattr(solver, "_HORIZON_FRACTION", 10.0)
        monkeypatch.setattr(solver, "_FIRST_STEP", 10.0)
        cfg = small_config(eps=0.4, record_every=1)
        rec = run_to_blowup(init(cfg, amplified_gaussian(cfg, 2.0)))
        assert rec.status == "blown-up" and rec.diagnostics.stats.singular == 1
        assert trials[0][0] == 2.5 and trials[0][3] == math.inf
        assert trials[1][0] == 2.5 * 0.2
        assert_log_matches_its_counts(rec.diagnostics, cfg.record_every)

    @staticmethod
    def trial_paths(dt):
        """The substeps of a doubling trial's three Strang steps: the two halves, then the
        full step."""
        return [dt / 4, dt / 4, dt / 2]

    @pytest.mark.parametrize("blown_path", ["full", "first half", "second half"])
    def test_recurring_singularity_fails_loudly(self, monkeypatch, blown_path):
        # every trial that would cross t_event meets the singularity in one
        # path, and the paths after it are not taken; each is rejected, so the
        # accepted steps, each sampled, close in on t_event until the step
        # vanishes, and the run raises rather than report a blow-up time
        t_event = 0.0123
        paths = ("first half", "second half", "full")
        dts, calls = [], []
        trial, strang = solver._doubling_trial, solver._strang
        cfg = small_config(eps=0.4, t_max=0.1, record_every=1)
        state = init(cfg, gaussian(cfg.grid))
        log = state.diagnostics

        def spy_trial(u, abs_b, dt, config, mid_row=None):
            dts.append(dt)
            calls.clear()
            try:
                return trial(u, abs_b, dt, config, mid_row)
            except PointwiseBlowUp:
                assert len(calls) == paths.index(blown_path) + 1
                raise

        def spy_strang(u, tau, *args):
            calls.append(tau)
            if paths[len(calls) - 1] == blown_path and log.samples[-1].t + dts[-1] > t_event:
                raise PointwiseBlowUp(0.5 * tau)
            return strang(u, tau, *args)

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        monkeypatch.setattr(solver, "_strang", spy_strang)
        with pytest.raises(RuntimeError, match="step tolerance.*pointwise singularity"):
            run_to_blowup(state)
        clock = log.samples[-1].t
        assert clock <= t_event < clock + dts[-1]
        assert t_event - clock <= 1e-15 * t_event
        assert log.stats.singular > 10 and log.stats.accepted == len(log.samples) - 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad_call", [1, 2, 3], ids=["first half", "second half", "full"])
    def test_non_finite_trial_field_is_never_accepted(self, monkeypatch, value, bad_call):
        # one path of the first trial leaves a NaN or inf in its field: the
        # trial's err is not finite (or the next path meets the singularity),
        # so it is refused and retried at a fifth of its step, and every field
        # the run accepts, each sampled, is finite
        paths = []
        strang = solver._strang

        def spy_strang(u, tau, *args):
            paths.append(tau)
            w = strang(u, tau, *args)
            if len(paths) == bad_call:
                w[len(w) // 2] = value
            return w

        monkeypatch.setattr(solver, "_strang", spy_strang)
        cfg = small_config(eps=0.4, t_max=0.1, record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))  # and warns of no invalid value
        assert rec.status == "reached-t-max"
        dt0 = solver._FIRST_STEP
        retry = paths.index(self.trial_paths(dt0 * 0.2)[0])
        assert paths[:retry] == self.trial_paths(dt0)[:retry]
        assert paths[retry:retry + 3] == self.trial_paths(dt0 * 0.2)
        log = rec.diagnostics
        assert log.stats.rejected + log.stats.singular == 1
        assert_log_matches_its_counts(log, cfg.record_every)
        # a sample's mass is finite only where its whole field is
        assert len(log.samples) > 2 and all(math.isfinite(sample.mass) for sample in log.samples)

    def test_capped_trial_keeps_its_state_for_the_halving_retry(self, monkeypatch):
        # sup|u| starts at 0.4 below the cap 0.4/eps = 1: every trial within
        # tolerance whose field reaches the cap is refused, and the retry at half
        # its step starts from the same state, its field and |u|^b unchanged, with
        # nothing sampled or kept in between; the last refused trial, as narrow
        # as the bracket, ends the run on that state
        monkeypatch.setattr(solver, "_SUP_CAP", 0.4)
        cfg = small_config(eps=0.4, record_every=1)
        state = init(cfg, gaussian(cfg.grid))
        log = state.diagnostics
        trial, trials = solver._doubling_trial, []

        def spy_trial(u, abs_b, dt, config, mid_row=None):
            trials.append(dict(fields=(u, abs_b), copies=(u.copy(), abs_b.copy()), dt=dt,
                               recorded=(len(log.samples), len(log.rows))))
            return trial(u, abs_b, dt, config, mid_row)

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        rec = run_to_blowup(state)
        # no trial is rejected, so a trial retried from its own state is capped,
        # and so is the last
        assert log.stats.rejected == log.stats.singular == 0
        capped = [k for k, (tried, retry) in enumerate(zip(trials, trials[1:]))
                  if retry["fields"][0] is tried["fields"][0]] + [len(trials) - 1]
        assert log.stats.capped == len(capped) >= 2
        for k in capped:
            tried = trials[k]
            assert all(map(np.array_equal, tried["fields"], tried["copies"]))
        for k in capped[:-1]:
            tried, retry = trials[k], trials[k + 1]
            assert retry["fields"][1] is tried["fields"][1]
            assert retry["dt"] == 0.5 * tried["dt"]
            assert retry["recorded"] == tried["recorded"]
        last = trials[-1]
        assert rec.status == "blown-up" and rec.t_blow_threshold == rec.T_eps
        assert (len(log.samples), len(log.rows)) == last["recorded"]
        assert rec.T_eps == log.samples[-1].t + 0.5 * last["dt"]
        assert_log_matches_its_counts(log, cfg.record_every)

    @pytest.mark.parametrize("diagnostics", [False, True], ids=["default", "full"])
    def test_kept_midpoint_rows_are_those_of_the_unfused_midpoints(self, monkeypatch,
                                                                   diagnostics):
        # a kept midpoint's row, computed inside its trial before the second half
        # step runs over the midpoint field, is the row of the first of two separate
        # Strang steps of dt/2 from the trial's state at t, bit for bit, and is kept
        # at t + dt/2
        cfg = small_config(eps=0.3, grid=Grid(1, 256, 25.0), record_every=1)
        state = init(cfg, gaussian(cfg.grid), diagnostics=diagnostics)
        log = state.diagnostics
        trial, expected = solver._doubling_trial, []

        def spy_trial(u, abs_b, dt, config, mid_row=None):
            out = trial(u, abs_b, dt, config, mid_row)
            if mid_row is not None:
                t_mid = log.samples[-1].t + 0.5 * dt
                mid = unfused_trial(u, dt, config)[1]
                want = solver.DiagnosticsLog(full=log.full).row(config, t_mid, mid)
                expected.append((out[1], want, t_mid))
            return out

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        rec = run_to_blowup(state)
        assert rec.status == "blown-up"
        mid_rows = [(row, want, t) for row in rec.diagnostics.rows
                    for got, want, t in expected if row is got]
        assert len(mid_rows) > 10 and all((row.r1 is not None) is diagnostics
                                          for row, _, _ in mid_rows)
        for row, want, t in mid_rows:
            assert row.t == t and row == want

    @pytest.mark.parametrize("refusal", ["rejected", "capped", "singular"])
    def test_a_refused_trial_keeps_no_row(self, monkeypatch, refusal):
        # trials that compute their midpoints' rows in a full log, then are refused.
        # Steps of up to 10 horizons from a first proposal of 10 cut the first trial
        # to land on t_star = 2.5: from the datum its err is over tolerance, as is
        # its retry's; from twice the datum it meets the pointwise singularity after
        # its midpoint's row.  A cap of 0.4/eps = 1 refuses the trials that reach
        # it.  Each refused trial's row is counted as refused, and none is kept
        if refusal == "capped":
            monkeypatch.setattr(solver, "_SUP_CAP", 0.4)
        else:
            monkeypatch.setattr(solver, "_HORIZON_FRACTION", 10.0)
            monkeypatch.setattr(solver, "_FIRST_STEP", 10.0)
        cfg = small_config(eps=0.4, t_max=3.0, record_every=1)
        datum = amplified_gaussian(cfg, 2.0 if refusal == "singular" else 1.0)
        rec = run_to_blowup(init(cfg, datum, diagnostics=True))
        log = rec.diagnostics
        assert getattr(log.stats, refusal) >= 1 and log.stats.rows_refused >= 1
        assert len(log.rows) > 5
        assert_log_matches_its_counts(log, cfg.record_every)

    def test_unattainable_tolerance_fails_loudly(self, monkeypatch):
        # roundoff alone keeps err above 1e-300, so the step shrinks to nothing
        monkeypatch.setattr(solver, "_STEP_TOLERANCE", 1e-300)
        cfg = small_config(eps=0.4, grid=Grid(1, 64, 10.0))
        with pytest.raises(RuntimeError, match="step tolerance"):
            run_to_blowup(init(cfg, gaussian(cfg.grid)))


class TestDoublingTrial:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("lam", [1j, 0.5 + 1j])
    def test_fused_trial_matches_unfused_composition(self, d, lam):
        grid = Grid(1, 256, 20.0) if d == 1 else Grid(2, 32, 12.0)
        cfg = SolverConfig(grid=grid, params=NonlinearityParams(lam, 0.5, d), eps=0.5,
                           s=1.0 if d == 1 else 1.2)
        u = cfg.eps * gaussian(grid).values
        for dt in (0.005, 0.05, 0.2):
            trial = doubling_trial(u, dt, cfg)
            assert trial[2] > 1e-10
            assert_trial_matches_unfused(u, dt, cfg, trial)
            # a trial without a row keeps its multiplier through: the same bits
            field, row, err = solver._doubling_trial(u, np.abs(u) ** cfg.params.b, dt, cfg)
            assert row is None and np.array_equal(field, trial[0]) and err == trial[2]

    @pytest.mark.parametrize("d, lam", [(1, 1j), (1, 0.5 + 1j), (2, 1j)])
    def test_extrapolated_field_is_two_orders_more_accurate(self, d, lam):
        # against a fourth-order reference of 256 Strang steps, each halving
        # of dt divides the local error of the two-half-step field by 8.19-8.31
        # (order 3) and that of the extrapolated field R by 31.5-33.0
        # (order 5), measured at dt = 0.2, 0.1, 0.05; err matches the
        # former's true error to within 1.6%
        grid = Grid(1, 256, 20.0) if d == 1 else Grid(2, 32, 12.0)
        cfg = SolverConfig(grid=grid, params=NonlinearityParams(lam, 0.5, d), eps=0.5,
                           s=1.0 if d == 1 else 1.2)
        u = cfg.eps * gaussian(grid).values

        def strang_steps(dt, k):
            w = u
            for _ in range(k):
                w = strang_step(w, dt / k, cfg)
            return w

        errors = []
        for dt in (0.2, 0.1, 0.05):
            coarse, fine = strang_steps(dt, 128), strang_steps(dt, 256)
            ref = fine + (fine - coarse) / 3.0
            got, _, err = doubling_trial(u, dt, cfg)
            two = unfused_trial(u, dt, cfg)[3]
            e_two, e_got = (np.linalg.norm(f - ref) / np.linalg.norm(ref) for f in (two, got))
            assert err == pytest.approx(e_two, rel=0.02)
            errors.append((e_two, e_got))
        for (two_a, got_a), (two_b, got_b) in zip(errors, errors[1:]):
            assert 7.5 <= two_a / two_b <= 9.0
            assert 28.0 <= got_a / got_b <= 36.0

    @pytest.mark.parametrize("mid_row, builds", [(None, 1), (np.copy, 2)],
                             ids=["no row", "row"])
    def test_trial_takes_six_substeps_three_fft_pairs_and_one_multiplier(self, monkeypatch,
                                                                         mid_row, builds):
        # a trial that computes its midpoint's row builds its multiplier again after
        counts = {}

        def count(module, name):
            original = getattr(module, name)

            def spy(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        for module, name in ((solver, "nonlinear_flow_exact"), (propagators, "dft"),
                             (propagators, "idft"), (propagators, "_back_propagation_phase")):
            count(module, name)
        cfg = small_config(eps=0.4)
        u = cfg.eps * gaussian(cfg.grid).values
        solver._doubling_trial(u, np.abs(u) ** cfg.params.b, 0.0123, cfg, mid_row)
        assert counts == {"nonlinear_flow_exact": 6, "dft": 3, "idft": 3,
                          "_back_propagation_phase": builds}

    def test_trial_error_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a complex dot product over its threads on a 128^2 field,
        # which moved err in the last bit between 1 and 2 threads
        code = (
            "from nlslab import Grid, NonlinearityParams, solver\n"
            "from nlslab.initial_data import gaussian\n"
            "cfg = solver.SolverConfig(grid=Grid(2, 128, 20.0), s=1.2, eps=0.4,\n"
            "                          params=NonlinearityParams(1j, 0.5, 2))\n"
            "u = cfg.eps * gaussian(cfg.grid).values\n"
            "abs_b = abs(u) ** cfg.params.b\n"
            "print([solver._doubling_trial(u, abs_b, dt, cfg)[2]\n"
            "       for dt in (0.005, 0.01, 0.02, 0.04)])\n"
        )
        errs = []
        for threads in ("1", "2"):
            done = subprocess.run([sys.executable, "-c", code],
                                  env=fresh_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, check=True)
            errs.append(done.stdout)
        assert errs[0] == errs[1]


def ownership_config(d):
    # both blow up inside the box, after 85 (1-D) and 67 (2-D) accepted steps
    if d == 1:
        return small_config(eps=0.4, record_every=1)
    return SolverConfig(grid=Grid(2, 32, 12.0), params=NonlinearityParams(1j, 0.5, 2),
                        eps=0.5, s=1.2, record_every=1)


def long_run_config(d):
    # at lam = -3+i a run's end-game takes more steps than at lam = i: both blow up
    # inside the box after more than 100 accepted steps, 225 (1-D) and 152 (2-D)
    if d == 1:
        return small_config(params=NonlinearityParams(-3 + 1j, 0.5, 1), grid=Grid(1, 1024, 20.0),
                            eps=0.4, record_every=1)
    return SolverConfig(grid=Grid(2, 64, 20.0), params=NonlinearityParams(-3 + 1j, 0.5, 2),
                        eps=0.4, s=1.2, record_every=1)


class TestFieldOwnership:
    """The Strang substeps write into buffers of their own trial: no field that a
    state or the diagnostics log already holds changes."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_step_leaves_its_input_and_the_earlier_fields_unchanged(self, d):
        # the log computes the rows of the fields it keeps from t_star on (2.5 in
        # 1-D, 2**0.5 in 2-D); past it, steps of 0.2 reach a new time of the grid
        # each, 160 per decade of 1 + t, until three fields have their rows, the
        # state's own field the last
        cfg = ownership_config(d)
        states = [init(cfg, gaussian(cfg.grid))]
        while len(states[-1].diagnostics.rows) < 3:
            states.append(fixed_step(states[-1], 0.2))
        state = states[-1]
        assert [row.t for row in state.diagnostics.rows] == [s.t for s in states[-3:]]
        kept = [(s.u.values, s.u.values.copy()) for s in states]
        new = fixed_step(state, 0.005)
        assert new.u.values is not state.u.values
        for a, copy in kept:
            assert np.array_equal(a, copy)

    @pytest.mark.parametrize("d", [1, 2])
    def test_run_leaves_every_accepted_field_unchanged(self, monkeypatch, d):
        # the accepted fields and the |u|^b arrays that the trials from each
        # accepted state read; a midpoint field is its trial's buffer, which the
        # second half step turns into the trial's field
        cfg = long_run_config(d)
        state = fixed_step(init(cfg, gaussian(cfg.grid)), 0.005)
        kept = [(state.u.values, state.u.values.copy())]
        accept = solver._accept
        times = []

        def spy_accept(config, log, t, u, absu, sup, dt):
            times.append(t)
            kept.append((u, u.copy()))
            new = accept(config, log, t, u, absu, sup, dt)
            kept.append((new.abs_b, new.abs_b.copy()))
            return new

        monkeypatch.setattr(solver, "_accept", spy_accept)
        rec = run_to_blowup(state)
        assert rec.status == "blown-up" and len(times) > 100
        for a, copy in kept:
            assert np.array_equal(a, copy)

    def test_trials_read_the_modulus_pass_of_their_state(self, monkeypatch):
        # |u|^b comes from the pass that took sup|u|: it is |u|^b bit for bit,
        # read-only, and one array for every trial from one state
        cfg = long_run_config(1)
        trial = solver._doubling_trial
        read = {}

        def spy_trial(u, abs_b, dt, config, mid_row=None):
            assert np.array_equal(abs_b, np.abs(u) ** config.params.b)
            assert not abs_b.flags.writeable
            assert read.setdefault(id(u), (u, abs_b))[1] is abs_b
            return trial(u, abs_b, dt, config, mid_row)

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        state = init(cfg, gaussian(cfg.grid))
        with pytest.raises(ValueError, match="read-only"):
            state.abs_b[0] = 0.0
        assert run_to_blowup(state).status == "blown-up" and len(read) > 100

    def test_rows_read_their_fields_from_no_copy(self, monkeypatch):
        # a row is computed from no copy of a read-only field: from the field a
        # state holds while it is offered, or inside a trial from its midpoint
        # field, in the trial's own buffer, which the second half step then turns
        # into the trial's field; writing into an offered field fails, and the log
        # holds none once the offer returns
        cfg = ownership_config(1)
        state = init(cfg, gaussian(cfg.grid))
        assert not state.u.values.flags.writeable
        offered, kinds, read = [], [], []
        trial, offer = solver._doubling_trial, solver.DiagnosticsLog.offer
        row = solver.DiagnosticsLog.row

        def spy_trial(u, abs_b, dt, config, mid_row=None):
            read.clear()
            out = trial(u, abs_b, dt, config, mid_row)
            assert len(read) == (mid_row is not None) and all(v is out[0] for v in read)
            return out

        def spy_offer(log, config, t, values):
            offered.append(values)
            offer(log, config, t, values)

        def spy_row(log, config, t, values):
            assert not values.flags.writeable
            kinds.append("end" if values is offered[-1] else "mid")
            if kinds[-1] == "mid":
                read.append(values)
            return row(log, config, t, values)

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        monkeypatch.setattr(solver.DiagnosticsLog, "offer", spy_offer)
        monkeypatch.setattr(solver.DiagnosticsLog, "row", spy_row)
        rec = run_to_blowup(state)
        assert len(kinds) > 20 and len(kinds) == rec.diagnostics.stats.rows
        assert "mid" in kinds and "end" in kinds
        assert [f.name for f in dataclasses.fields(rec.diagnostics)] == [
            "samples", "rows", "dense_from", "window", "full", "stats"]
        for values in offered:
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                values *= 2.0


# What a run allocates at its peak, traced, in fields of its grid.  Each reading
# is taken in a fresh interpreter (see :func:`in_fresh_process`).  At 64**2 one
# numpy iterator buffer (8192 elements) is a whole field, so this bound counts
# numpy's buffers as much as the run's arrays, and in a shared process the peak
# depended on what ran before it: 6.97-7.37 fields.  In a fresh interpreter it
# peaks at 7.08-7.09 (8 processes); the bound leaves 0.6 field above that.  Run
# alone it peaked at 7.63-7.69 when each trial kept its midpoint field until its
# acceptance offered it, so the trial's saving is gated at 256**2 below, where the
# buffers are a small part of a field.  It peaked at 9.46-9.67 when the loop also
# kept the previous state through the next accepted field's sample; a log that
# held each field kept from t_star on until it could tell t <= T/2 peaked at 50.7
# there, holding 38 at once.
RUN_PEAK_FIELDS = 7.7
# At 256**2 the buffers are a small part of a field, so the bound is what the run
# holds: one state (its field and |u|^b, 1.5 fields) and one trial (its two
# fields, its multiplier and its float scratch, 3.5 fields).  Measured 5.14 fields
# in a fresh interpreter (8 processes); a trial that kept its midpoint field as a
# third field measured 6.14, and keeping the previous state and midpoint field too
# measured 7.52.
STATE_AND_TRIAL_FIELDS = 5.5
# A cold init builds the grid's (grid, s) weights and masks: measured 6.32 fields
# above its start at 256**2 in a fresh interpreter (8 processes), 5.00 for a warm
# one; building each weight through |xi|^2 and two more temporaries measured 6.69.
COLD_INIT_FIELDS = 6.5


def in_fresh_process(test):
    """The test method `test`, run in a fresh interpreter, where a traced peak depends
    on no test that ran before it; it fails with the error that fails there, a
    RuntimeWarning too, as pyproject's `filterwarnings` makes it fail under pytest."""
    def run(self):
        code = f"import {__name__} as m; m.TestMemory.{test.__name__}.__wrapped__(None)"
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                              env=fresh_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    return functools.wraps(test)(run)


def traced_run(state):
    """(record, peak of what run_to_blowup(state) allocates, in fields of its grid):
    tracing starts after `state` is made, so the state it starts from is not counted."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = run_to_blowup(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return rec, peak / state.u.values.nbytes


class TestMemory:
    @in_fresh_process
    def test_run_peak_is_a_few_fields_however_many_rows_it_keeps(self):
        # the blowup-2d rung at 64**2: 49 fields kept from t_star = 1.58 to
        # T = 5.25, each as its row; numpy's buffers are traced, so the peak in
        # fields does not depend on the machine
        cfg = SolverConfig(grid=Grid(2, 64, 20.0), params=NonlinearityParams(1j, 0.5, 2),
                           eps=0.4, s=1.2, record_every=4)
        rec, peak = traced_run(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up" and len(rec.diagnostics.rows) == 49
        assert peak < RUN_PEAK_FIELDS

    @in_fresh_process
    def test_run_holds_one_state_and_one_trial(self):
        # the blowup-2d rung at 256**2 up to t_max = 2.2, past t_star = 1.58: the
        # run samples every fourth field and keeps every row it computes, those of
        # the fields it keeps from t_star on
        cfg = SolverConfig(grid=Grid(2, 256, 20.0), params=NonlinearityParams(1j, 0.5, 2),
                           eps=0.4, s=1.2, t_max=2.2, record_every=4)
        rec, peak = traced_run(init(cfg, gaussian(cfg.grid)))
        log = rec.diagnostics
        assert rec.status == "reached-t-max" and len(log.samples) > 5
        assert log.stats.rows == len(log.rows) > 0 and log.stats.rows_refused == 0
        assert peak <= STATE_AND_TRIAL_FIELDS

    @in_fresh_process
    def test_a_trial_computes_its_midpoints_row_beside_its_midpoint_alone(self):
        # a default row at 256**2 takes 2.63 fields of its own (two complex arrays,
        # one float and numpy's transform buffers); in the trial it runs beside the
        # state (1.5 fields) and the midpoint (1 field) alone, for the trial
        # releases its multiplier and float scratch (1.5 fields) before the row
        cfg = SolverConfig(grid=Grid(2, 256, 20.0), params=NonlinearityParams(1j, 0.5, 2),
                           eps=0.4, s=1.2)
        phi, log = gaussian(cfg.grid), solver.DiagnosticsLog()
        log.row(cfg, 1.7, phi.values)  # the grid's caches and numpy's plans
        peaks = []

        def mid_row(values):
            tracemalloc.reset_peak()
            row = log.row(cfg, 1.7, values)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return row

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            u = cfg.eps * phi.values
            abs_b = np.abs(u) ** cfg.params.b
            state = tracemalloc.get_traced_memory()[0] - base
            log.row(cfg, 1.7, u)
            row_alone = tracemalloc.get_traced_memory()[1] - base - state
            _, row, _ = solver._doubling_trial(u, abs_b, 0.01, cfg, mid_row)
        finally:
            tracemalloc.stop()
        field = u.nbytes
        assert row is not None and 1.5 * field <= state <= 1.55 * field
        assert 2.5 * field <= row_alone <= 2.75 * field
        assert peaks[0] - state - row_alone <= 1.05 * field

    @in_fresh_process
    def test_a_cold_init_builds_each_weight_in_one_array(self):
        # a fresh interpreter has built no grid's weights or masks
        cfg = SolverConfig(grid=Grid(2, 256, 20.0), params=NonlinearityParams(1j, 0.5, 2),
                           eps=0.4, s=1.2)
        phi = gaussian(cfg.grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = init(cfg, phi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / state.u.values.nbytes <= COLD_INIT_FIELDS


def field_functions(u, t, cfg):
    """(t, sup|R|, r1, r2, r3) of the field u at t, from remainder_sup, norms and
    profile directly, as the ratios were computed from stored fields after the run."""
    params, s = cfg.params, cfg.s
    d, p = params.d, params.p
    gamma = (2.0 * s - d) / 8.0
    rep = norms(u, t, s)
    nu = ComplexField(cfg.grid, Space.PHYSICAL, params.lam * g_p(u.values, p))
    rep_nu = norms(nu, t, s)
    r1 = (1 + t) ** (d / 2.0) * rep.l_inf / rep.sigma_s if rep.sigma_s > 0 else None
    r2 = None
    if t >= 1.0 and rep.h_0s > 0:
        sup_a = sup_modulus(profile(u, t))
        r2 = (rep.l_inf - t ** (-d / 2.0) * sup_a) * t ** (d / 2.0 + gamma) / rep.h_0s
    r3 = None
    if rep.sigma_s > 0:
        r3 = (1 + t) ** (d * (p - 1) / 2.0) * rep_nu.sigma_s / rep.sigma_s**p
    sup_r = remainder_sup(u, t, params) if t > 0 else None
    return t, sup_r, r1, r2, r3


@pytest.fixture(scope="module", params=["1d", "2d"])
def two_mode_runs(request):
    """(config, full record, {t: a copy of each field whose row it computed}, default
    record) of one run started with diagnostics=True and again without: the
    default config's eps = 0.15 rung, or one 2-D rung (128**2, L = 20, s = 1.2,
    eps = 0.4)."""
    over = {"eps_ladder": [0.15]}
    if request.param == "2d":
        over = {"d": 2, "n": 128, "L": 20.0, "s": 1.2, "eps_ladder": [0.4]}
    base = ExperimentConfig(**over)
    cfg = base.solver_config()
    phi = initial_data.build(cfg.grid, base.initial_data)
    row, offered = solver.DiagnosticsLog.row, {}

    def noting(log, config, t, values):
        # a midpoint's field is then overwritten in its trial's buffer
        offered[t] = values.copy()
        return row(log, config, t, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.DiagnosticsLog, "row", noting)
        full = run_to_blowup(init(cfg, phi, diagnostics=True))
    return cfg, full, offered, run_to_blowup(init(cfg, phi))


class TestRows:
    def test_full_rows_are_the_field_functions_of_the_kept_offers(self, two_mode_runs):
        cfg, full, offered, _ = two_mode_runs
        rows = full.diagnostics.rows
        assert rows[0].t == 0.0 and len(rows) > 50
        for row in rows:
            u = ComplexField(cfg.grid, Space.PHYSICAL, offered[row.t])
            assert (row.t, row.remainder_sup, row.r1, row.r2, row.r3) == field_functions(
                u, row.t, cfg)

    def test_default_rows_are_the_rows_of_a_full_run_from_t_star_on(self, two_mode_runs):
        from nlslab.lifespan import max_remainder_scaled

        cfg, full, _, default = two_mode_runs
        t_star = t_star_time(cfg.eps, cfg.params.theta, cfg.params.d)
        assert default.T_eps == full.T_eps
        late = [(row.t, row.remainder_sup) for row in full.diagnostics.rows if t_star <= row.t]
        rows = default.diagnostics.rows
        assert len([t for t, _ in late if t <= full.T_eps / 2.0]) >= 3
        assert any(t > full.T_eps / 2.0 for t, _ in late)
        assert [(row.t, row.remainder_sup) for row in rows] == late
        assert all(row.r1 is row.r2 is row.r3 is None for row in rows)
        assert (max_remainder_scaled(default.diagnostics, cfg, default.T_eps)
                == max_remainder_scaled(full.diagnostics, cfg, full.T_eps))


    @pytest.mark.parametrize("full, transforms", [(True, 3), (False, 2)])
    def test_a_row_transforms_its_field_once(self, monkeypatch, full, transforms):
        # a full row's remainder, norms and profile share dft(u); the other two
        # transforms are of G(u) for the remainder and of N(u) for its norms
        from nlslab import spectral

        calls = []
        dft = spectral.dft

        def spy(values, out=None):
            calls.append(values.shape)
            return dft(values, out=out)

        for module in (spectral, propagators, solver):
            monkeypatch.setattr(module, "dft", spy)
        cfg = SolverConfig(grid=Grid(2, 32, 12.0), params=NonlinearityParams(1j, 0.5, 2),
                           eps=0.4, s=1.2)
        row = solver.DiagnosticsLog(full=full).row(cfg, 1.5, cfg.eps * gaussian(cfg.grid).values)
        assert row.remainder_sup is not None and (row.r2 is not None) is full
        assert len(calls) == transforms


class TestHigherDimensions:
    def test_d2_blowup_respects_bound(self):
        from nlslab import fourier_forward
        from nlslab.lifespan import theoretical_bound

        params = NonlinearityParams(lam=1j, theta=0.5, d=2)
        g = Grid(2, 128, 15.0)
        cfg = SolverConfig(grid=g, params=params, eps=0.5, s=1.2, t_max=50.0,
                           record_every=8)
        phi = gaussian(g)
        rec = run_to_blowup(init(cfg, phi))
        rep = theoretical_bound(fourier_forward(phi), params)
        assert rec.status == "blown-up"
        assert rec.invariant_quantity >= 0.9 * rep.bound_value

    def test_d3_blowup_runs(self):
        # d=3 requires theta > 3/4 for an admissible index; strong data keeps
        # the run short enough for a test
        params = NonlinearityParams(lam=1j, theta=0.9, d=3)
        g = Grid(3, 32, 8.0)
        cfg = SolverConfig(grid=g, params=params, eps=2.0, s=1.55, t_max=50.0,
                           record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(g)))
        assert rec.status == "blown-up"
        assert 0.5 < rec.T_eps < 5.0


class TestConvergence:
    def test_strang_order_and_spectral_accuracy(self):
        cfg = SolverConfig(grid=Grid(1, 32, 10.0), params=CONSERVATIVE, eps=0.5,
                           s=1.0, t_max=10.0)
        rep = convergence_study(cfg, gaussian(cfg.grid), refinements=2,
                                t_end=0.5, dt0=0.02)
        assert 3.5 <= rep.temporal_ratios[0] <= 4.5
        assert 1.8 <= rep.measured_orders[0] <= 2.2
        assert rep.spatial_drops[0] > 1e3

    def test_free_case_has_no_temporal_error(self):
        cfg = SolverConfig(grid=Grid(1, 64, 10.0), params=FREE, eps=0.5,
                           s=1.0, t_max=10.0)
        rep = convergence_study(cfg, gaussian(cfg.grid), refinements=1,
                                t_end=0.5, dt0=0.02)
        assert max(rep.temporal_errors) < 1e-13

    def test_convergence_study_fails_loudly_on_a_singular_fixed_step(self, monkeypatch):
        # sup|u| = 0.5 puts the half-step horizon at 2, inside the reference
        # run's first half step of 2.5
        cfg = small_config(eps=0.5)
        phi = gaussian(cfg.grid)
        with pytest.raises(RuntimeError, match="pointwise singularity"):
            convergence_study(cfg, phi, refinements=1, t_end=40.0, dt0=40.0)
        # a step whose field overflows raises too
        monkeypatch.setattr(convergence, "_strang", lambda u, *args: np.full_like(u, np.inf))
        with pytest.raises(RuntimeError, match="non-finite field"):
            convergence_study(cfg, phi, refinements=1)
