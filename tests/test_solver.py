"""Split-step solver: linear limit, conservation, blow-up measurement, convergence."""

import dataclasses
import math
import os
import subprocess
import sys
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
from nlslab import initial_data, propagators, solver
from nlslab.harness import ExperimentConfig
from nlslab.initial_data import gaussian
from nlslab.propagators import (
    PointwiseBlowUp,
    blowup_horizon,
    g_p,
    profile,
    remainder,
    t_star_time,
)
from nlslab.solver import (
    SolverConfig,
    convergence_study,
    init,
    mass_balance_residuals,
    run_to_blowup,
)
from stepping import fixed_step, strang_step

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
    """(R, mid, err) of :func:`solver._doubling_trial` from u, with |u|^b taken here."""
    return solver._doubling_trial(u, np.abs(u) ** config.params.b, dt, config)


def unfused_trial(u, dt, config):
    """(R, mid, err, two) of a doubling trial composed of separate Strang steps."""
    mid = strang_step(u, dt / 2, config)
    two = strang_step(mid, dt / 2, config)
    full = strang_step(u, dt, config)
    err = np.linalg.norm(full - two) / (3.0 * np.linalg.norm(two))
    return two - (full - two) / 3.0, mid, err, two


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
            if state.step_count % cfg.record_every == 0:
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
        # turns each kept field into its row at once and holds none
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
            sup_modulus(remainder(states[k].u, states[k].t, cfg.params)) for k in (4, 7)]
        assert log.held == []
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
        # where the cap is inf: _accept takes no state from it and records nothing
        cfg = small_config(eps=eps, record_every=10**9)
        state = init(cfg, gaussian(cfg.grid))
        field = state.u.values.copy()
        field[0] = value
        log = state.diagnostics
        assert solver._accept(cfg, log, 20.0, field, 1) is None
        assert len(log.samples) == 1 and state.t == 0.0
        # offered at t = 20, past t_star = 2, the field would be held
        assert log.held == [] and log.rows == []

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
            nxt = solver._accept(cfg, log, state.t + 0.05, u, state.step_count + 1)
            if nxt is None:
                break
            state = nxt
        assert nxt is None
        assert len(log.samples) == n_samples and len(log.rows) == n_rows
        # the run loop brackets the same crossing and records it as a threshold blow-up
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up" and rec.t_blow_threshold == rec.T_eps
        assert state.t < rec.T_eps < state.t + 0.05


class TestRunToBlowup:
    def test_reference_blowup_time(self):
        # frozen from two independent grids (n=1024/L=40 and n=2048/L=80),
        # which agree on T to 2e-8 relative
        cfg = small_config(eps=0.4, grid=Grid(1, 512, 30.0), record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up"
        assert rec.T_eps == pytest.approx(3.754098, abs=5e-3)
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
        # the predicted singularity, 3.75446, lies past t_max: no stop
        cfg = small_config(eps=0.4, grid=Grid(1, 2048, 80.0), t_max=3.754, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "reached-t-max" and rec.censored
        assert rec.t_blow_pointwise is None and rec.t_blow_threshold is None
        assert rec.T_eps == pytest.approx(3.754, rel=1e-12)
        # the record ends on a sample of the state at t_max, which saw the tail there
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

    def test_contamination_detected_on_an_unsampled_step(self, monkeypatch):
        accepted = []
        original = solver._accept

        def spy(*args, **kwargs):
            accepted.append(original(*args, **kwargs))
            return accepted[-1]

        monkeypatch.setattr(solver, "_accept", spy)
        cfg = small_config(params=CONSERVATIVE, grid=Grid(1, 64, 6.0),
                           eps=0.3, t_max=40.0, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        abort = accepted[-1]
        assert rec.status == "boundary-contaminated"
        assert abort.shell > solver._SHELL_TOLERANCE
        # the aborting step was not due a sample; the record samples it, so
        # its shell mass shows
        assert abort.step_count % cfg.record_every != 0
        last = rec.diagnostics.samples[-1]
        assert last.t == abort.t and last.shell_fraction == abort.shell
        assert rec.max_shell_fraction > solver._SHELL_TOLERANCE

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

    def test_held_fields_stay_within_the_half_time_bound(self, monkeypatch):
        # a field kept at t_k >= t_star is held until an offer at 2 t_k or later, so
        # after an offer at t the held fields lie in (t/2, t], each the first at its
        # own dense grid time.  Their indices span less than 160 log10 2 (for
        # (1 + t)/(1 + t/2) < 2), so at most floor(160 log10 2) + 2 = 50 are held
        bound = math.floor(solver._DENSE_PER_DECADE * math.log10(2.0)) + 2
        offer, held = solver.DiagnosticsLog.offer, []

        def spy(log, config, t, values):
            offer(log, config, t, values)
            held.append(len(log.held))
            assert all(log.dense_from <= t_k and t < 2.0 * t_k for t_k, _ in log.held)

        monkeypatch.setattr(solver.DiagnosticsLog, "offer", spy)
        # damped and censored at t_max = 100, t_star = 1/0.3: it keeps 154 fields,
        # which a store bounded at 128 fields would have had to coarsen
        cfg = small_config(params=NonlinearityParams(-1j, 0.5, 1), grid=Grid(1, 2048, 800.0),
                           t_max=100.0, record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        log = rec.diagnostics
        assert rec.status == "reached-t-max" and len(held) > 200
        assert bound == 50 and 20 < max(held) <= bound
        assert log.held == []
        times = [row.t for row in log.rows]
        assert len(times) > 100 and log.dense_from <= times[0] and times[-1] <= 50.0

    def test_run_keeps_the_first_offer_at_or_after_each_grid_time(self, monkeypatch):
        # the grid is 16 times per decade of 1 + t from t = 0 and 160 from
        # t_star = 1/0.3 on; every offer is an accepted field or a trial's midpoint
        offer, offered = solver.DiagnosticsLog.offer, []

        def spy(log, config, t, values):
            offered.append(t)
            offer(log, config, t, values)

        monkeypatch.setattr(solver.DiagnosticsLog, "offer", spy)
        cfg = small_config(eps=0.3, grid=Grid(1, 256, 25.0), record_every=1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid), diagnostics=True))
        log = rec.diagnostics
        t_star = log.dense_from
        times = [row.t for row in log.rows]
        assert rec.status == "blown-up" and t_star == 0.3**-1.0
        assert times == first_offers(offered, grid_times(t_star, offered[-1]))
        # 31 of the 42 from t_star on, one at each grid time up to T_eps = 5.69
        assert len([t for t in times if t >= t_star]) > 20

    @pytest.mark.parametrize("eps, theta, dense_from", [
        (0.2, 0.5, 5.0), (0.0, 0.5, 1.0), (0.2, 1.0, 1.0), (1e-10, 0.99, np.inf),
    ], ids=["t-star", "eps-0", "theta-1", "t-star-beyond-a-float"])
    def test_snapshot_grid_is_dense_from_t_star_or_one(self, eps, theta, dense_from):
        cfg = small_config(params=NonlinearityParams(1j, theta, 1), eps=eps)
        assert init(cfg, gaussian(cfg.grid)).diagnostics.dense_from == dense_from

    @pytest.mark.parametrize("seed", [1, 2, 3, 32, 128])
    def test_kept_offers_are_the_first_at_or_after_each_grid_time(self, monkeypatch, seed):
        # random offer sequences, in time order: what is kept is the first offer at
        # or after each time of the grid.  A full log makes each kept offer a row
        # as it comes; a default log holds those from window_from on until an
        # offer at twice their time, and closing at T makes rows of those at or
        # before T/2.  _row is stubbed: this is the log's bookkeeping alone
        monkeypatch.setattr(solver, "_row", lambda config, t, values, full: (t, values, full))
        rng = np.random.default_rng(seed)
        for k in range(20):
            dense_from = np.inf if k % 5 == 4 else float(rng.uniform(0.2, 8.0))
            window_from = 0.01 if k % 3 == 0 else dense_from
            # gaps of 0 offer a time twice
            gaps = rng.integers(0, 3, 300) * 0.05 if k % 2 else rng.exponential(0.05, 300)
            times = [float(t) for t in np.cumsum(gaps)]
            full = solver.DiagnosticsLog(dense_from=dense_from, full=True)
            held = solver.DiagnosticsLog(dense_from=dense_from, window_from=window_from)
            arrays = {}
            for t in times:
                arrays.setdefault(t, np.array([t]))
                full.offer(None, t, arrays[t])
                held.offer(None, t, arrays[t])
                assert full.held == []
                assert all(window_from <= t_k and t < 2.0 * t_k for t_k, _ in held.held)
            T = times[-1]
            held.close(None, T)
            want = first_offers(times, grid_times(dense_from, T))
            assert [t for t, _, _ in full.rows] == want
            assert [t for t, _, _ in held.rows] == [t for t in want if window_from <= t <= T / 2]
            assert held.held == []
            for log, is_full in ((full, True), (held, False)):
                assert all(values is arrays[t] and not values.flags.writeable and f is is_full
                           for t, values, f in log.rows)


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
        times.append((1.0 + dense_from) * 10.0 ** (j / 160) - 1.0)
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


class TestStepLaw:
    def spy_trials(self, monkeypatch):
        """Record (dt, R, mid, err) of every doubling trial and (field, t, mid) of
        every field _accept takes after the datum."""
        trials, advanced = [], []
        trial, accept = solver._doubling_trial, solver._accept

        def spy_trial(u, abs_b, dt, config):
            out = trial(u, abs_b, dt, config)
            # the field is the extrapolation of two Strang steps of dt/2 and one
            # of dt, the midpoint the first of the two, and err the doubling estimate
            assert_trial_matches_unfused(u, dt, config, out)
            trials.append((dt, *out))
            return out

        def spy_accept(config, log, t, u, step_count, mid=None):
            if step_count:
                advanced.append((u, t, mid))
            return accept(config, log, t, u, step_count, mid)

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        monkeypatch.setattr(solver, "_accept", spy_accept)
        return trials, advanced

    def test_tolerance_refinement_stays_inside_the_event_bracket(self, monkeypatch):
        # the event bracket has relative half-width 5e-4; a tenfold tighter
        # step tolerance must move T by less (3.2e-7 measured)
        cfg = small_config(eps=0.4, grid=Grid(1, 512, 30.0), record_every=8)
        t_a = run_to_blowup(init(cfg, gaussian(cfg.grid))).T_eps
        monkeypatch.setattr(solver, "_STEP_TOLERANCE", solver._STEP_TOLERANCE / 10.0)
        t_b = run_to_blowup(init(cfg, gaussian(cfg.grid))).T_eps
        assert abs(t_a - t_b) / t_b < 5e-4

    def test_default_rung_lands_near_the_converged_lifespan(self, monkeypatch):
        # the default eps = 0.4 rung lies 7.4e-7 (relative, measured) from the
        # same run at step tolerance 1e-10; accepting the two-half-step field at
        # tolerance 1e-7 left it 2.0e-6 from there
        cfg = ExperimentConfig().solver_config()
        phi = gaussian(cfg.grid)
        t_eps = run_to_blowup(init(cfg, phi)).T_eps
        monkeypatch.setattr(solver, "_STEP_TOLERANCE", 1e-10)
        converged = run_to_blowup(init(cfg, phi)).T_eps
        assert abs(t_eps - converged) / converged < 2.0e-6

    def test_rejected_trials_retry_smaller_and_accepted_meet_tolerance(self, monkeypatch):
        trials, advanced = self.spy_trials(monkeypatch)
        # a first step of 0.2 is far too long for the tolerance
        monkeypatch.setattr(solver, "_FIRST_STEP", 0.1 * 2.0)
        cfg = small_config(eps=0.4, record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up"
        tol = solver._STEP_TOLERANCE
        assert trials[0][0] == pytest.approx(0.2) and trials[0][3] > tol
        rejected = [k for k, (*_, err) in enumerate(trials) if not err <= tol]
        assert rejected
        for k in rejected:
            assert trials[k + 1][0] < trials[k][0]
        # every accepted field is the extrapolated field of a trial within
        # tolerance, and comes with that trial's midpoint field
        by_field = {id(got): (dt, mid, err) for dt, got, mid, err in trials}
        accepted = [(by_field[id(u)], t, mid) for u, t, mid in advanced if id(u) in by_field]
        assert len(accepted) == len(advanced) == len(trials) - len(rejected)
        t_base = 0.0
        for (dt_trial, mid_trial, err), t, (t_mid, mid) in accepted:
            assert err <= tol and t == t_base + dt_trial and mid is mid_trial
            assert t_mid == t_base + 0.5 * dt_trial
            t_base = t

    def spy_paths(self, monkeypatch, blown_calls):
        """Record the substeps of every Strang path; the calls numbered in `blown_calls` raise."""
        paths = []
        strang = solver._strang

        def spy(u, substeps, *args):
            paths.append(substeps)
            if len(paths) in blown_calls:
                raise PointwiseBlowUp(0.5 * substeps[0])
            return strang(u, substeps, *args)

        monkeypatch.setattr(solver, "_strang", spy)
        return paths

    @staticmethod
    def trial_paths(dt):
        """The substeps of a doubling trial's three paths: the full step and the two halves."""
        return [(dt / 2, dt / 2), (dt / 4, dt / 4), (dt / 4, dt / 4)]

    @pytest.mark.parametrize("blown_call", [1, 2, 3], ids=["full", "first half", "second half"])
    def test_singularity_that_does_not_recur_is_stepped_past(self, monkeypatch, blown_call):
        # one path of the first trial meets the singularity: the trial is
        # rejected as if its err were inf, the paths after that one are not
        # taken, and the retry at a fifth of the step meets none, so the run
        # goes on to t_max
        paths = self.spy_paths(monkeypatch, blown_calls={blown_call})
        cfg = small_config(eps=0.4, t_max=0.1)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        dt0 = solver._FIRST_STEP
        assert paths[:blown_call] == self.trial_paths(dt0)[:blown_call]
        assert paths[blown_call:blown_call + 3] == self.trial_paths(dt0 * 0.2)
        assert rec.status == "reached-t-max"

    @pytest.mark.parametrize("blown_path", ["full", "first half", "second half"])
    def test_recurring_singularity_fails_loudly(self, monkeypatch, blown_path):
        # every trial that would cross t_event meets the singularity in one
        # path; each is rejected, so the accepted steps close in on t_event
        # until the step vanishes, and the run raises rather than report a
        # blow-up time
        t_event = 0.0123
        clock, dts, calls = [0.0], [], []
        trial, strang, accept = solver._doubling_trial, solver._strang, solver._accept

        def spy_trial(u, abs_b, dt, config):
            dts.append(dt)
            calls.clear()
            return trial(u, abs_b, dt, config)

        def spy_strang(u, substeps, *args):
            calls.append(substeps)
            path = ("full", "first half", "second half")[len(calls) - 1]
            if path == blown_path and clock[0] + dts[-1] > t_event:
                raise PointwiseBlowUp(0.5 * substeps[0])
            return strang(u, substeps, *args)

        def spy_accept(*args):
            new = accept(*args)
            clock[0] = new.t
            return new

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        monkeypatch.setattr(solver, "_strang", spy_strang)
        monkeypatch.setattr(solver, "_accept", spy_accept)
        cfg = small_config(eps=0.4, t_max=0.1)
        with pytest.raises(RuntimeError, match="step tolerance.*pointwise singularity"):
            run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert clock[0] <= t_event < clock[0] + dts[-1]
        assert t_event - clock[0] <= 1e-15 * t_event

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad_call", [1, 2, 3], ids=["full", "first half", "second half"])
    def test_non_finite_trial_field_is_never_accepted(self, monkeypatch, value, bad_call):
        # one path of the first trial leaves a NaN or inf in its field: the
        # trial's err is not finite (or the next path meets the singularity),
        # so it is rejected and retried at a fifth of its step, and every
        # field the run accepts is finite
        paths, accepted = [], []
        strang, accept = solver._strang, solver._accept

        def spy_strang(u, substeps, *args):
            paths.append(substeps)
            w = strang(u, substeps, *args)
            if len(paths) == bad_call:
                w[len(w) // 2] = value
            return w

        def spy_accept(config, log, t, u, *args):
            accepted.append(u)
            return accept(config, log, t, u, *args)

        monkeypatch.setattr(solver, "_strang", spy_strang)
        monkeypatch.setattr(solver, "_accept", spy_accept)
        cfg = small_config(eps=0.4, t_max=0.1)
        with np.errstate(invalid="ignore"):  # complex arithmetic on an inf gives NaNs
            rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "reached-t-max"
        dt0 = solver._FIRST_STEP
        retry = paths.index(self.trial_paths(dt0 * 0.2)[0])
        assert paths[:retry] == self.trial_paths(dt0)[:retry]
        assert paths[retry:retry + 3] == self.trial_paths(dt0 * 0.2)
        assert len(accepted) > 1 and all(np.isfinite(u).all() for u in accepted)

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

    def test_trial_takes_six_substeps_three_fft_pairs_and_one_multiplier(self, monkeypatch):
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
        doubling_trial(u, 0.0123, cfg)
        assert counts == {"nonlinear_flow_exact": 6, "dft": 3, "idft": 3,
                          "_back_propagation_phase": 1}

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
        src = Path(solver.__file__).resolve().parents[1]
        errs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            errs.append(done.stdout)
        assert errs[0] == errs[1]


def ownership_config(d):
    # both blow up inside the box, after about 110 accepted steps
    if d == 1:
        return small_config(eps=0.4, record_every=1)
    return SolverConfig(grid=Grid(2, 32, 12.0), params=NonlinearityParams(1j, 0.5, 2),
                        eps=0.5, s=1.2, record_every=1)


def kept_arrays(state):
    """The state's field and every field its log holds, each with a copy of its values."""
    return [(a, a.copy()) for a in (state.u.values, *(v for _, v in state.diagnostics.held))]


class TestFieldOwnership:
    """The Strang substeps write into buffers of their own trial: no field that a
    state or the diagnostics log already holds changes."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_step_leaves_its_input_and_the_snapshots_unchanged(self, d):
        # the log holds the fields it kept from t_star on (2.5 in 1-D, 2**0.5 in
        # 2-D); past it, steps of 0.2 reach a new time of the grid each, 160 per
        # decade of 1 + t, until three are held, the state's own field the last
        cfg = ownership_config(d)
        state = init(cfg, gaussian(cfg.grid))
        while len(state.diagnostics.held) < 3:
            state = fixed_step(state, 0.2)
        kept = kept_arrays(state)
        assert len(kept) == 4 and kept[0][0] is kept[-1][0]
        new = fixed_step(state, 0.005)
        assert new.u.values is not state.u.values
        for a, copy in kept:
            assert np.array_equal(a, copy)

    @pytest.mark.parametrize("d", [1, 2])
    def test_run_leaves_every_accepted_field_unchanged(self, monkeypatch, d):
        # the accepted fields, their midpoint fields and the |u|^b arrays that
        # the trials from each accepted state read
        cfg = ownership_config(d)
        state = fixed_step(init(cfg, gaussian(cfg.grid)), 0.005)
        kept = kept_arrays(state)
        accept = solver._accept
        times = []

        def spy_accept(config, log, t, u, step_count, mid=None):
            times.append(t)
            kept.extend((a, a.copy()) for a in (u, mid[1]))
            new = accept(config, log, t, u, step_count, mid)
            if new is not None:
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
        cfg = ownership_config(1)
        trial = solver._doubling_trial
        read = {}

        def spy_trial(u, abs_b, dt, config):
            assert np.array_equal(abs_b, np.abs(u) ** config.params.b)
            assert not abs_b.flags.writeable
            assert read.setdefault(id(u), (u, abs_b))[1] is abs_b
            return trial(u, abs_b, dt, config)

        monkeypatch.setattr(solver, "_doubling_trial", spy_trial)
        state = init(cfg, gaussian(cfg.grid))
        with pytest.raises(ValueError, match="read-only"):
            state.abs_b[0] = 0.0
        assert run_to_blowup(state).status == "blown-up" and len(read) > 100

    def test_snapshots_are_the_read_only_accepted_fields(self, monkeypatch):
        # a held field is no copy: it is the field a state held, or the midpoint
        # field of the step that led to one, and writing into it fails
        cfg = ownership_config(1)
        state = init(cfg, gaussian(cfg.grid))
        assert not state.u.values.flags.writeable
        offered, held = {}, {}
        accept, close = solver._accept, solver.DiagnosticsLog.close

        def spy_accept(config, log, t, u, step_count, mid=None):
            offered[id(u)] = (u, t, "end")
            offered[id(mid[1])] = (mid[1], mid[0], "mid")
            new = accept(config, log, t, u, step_count, mid)
            held.update((id(values), (t_k, values)) for t_k, values in log.held)
            return new

        def spy_close(log, config, T):
            held.update((id(values), (t_k, values)) for t_k, values in log.held)
            close(log, config, T)

        monkeypatch.setattr(solver, "_accept", spy_accept)
        monkeypatch.setattr(solver.DiagnosticsLog, "close", spy_close)
        rec = run_to_blowup(state)
        assert rec.diagnostics.held == [] and len(held) > 20
        kinds = []
        for t, snap in held.values():
            field, t_offered, kind = offered[id(snap)]
            assert field is snap and t_offered == t
            kinds.append(kind)
        assert "mid" in kinds and "end" in kinds
        for _, snap in held.values():
            with pytest.raises(ValueError, match="read-only"):
                snap[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                snap *= 2.0


def field_functions(u, t, cfg):
    """(t, sup|R|, r1, r2, r3) of the field u at t, from remainder, norms and profile
    directly, as the ratios were computed from stored fields after the run."""
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
    sup_r = sup_modulus(remainder(u, t, params)) if t > 0 else None
    return t, sup_r, r1, r2, r3


@pytest.fixture(scope="module", params=["1d", "2d"])
def two_mode_runs(request):
    """(config, full record, {t: field offered}, default record) of one run started
    with diagnostics=True and again without: the default config's eps = 0.2 rung,
    or one 2-D rung (128**2, L = 20, s = 1.2, eps = 0.4)."""
    over = {"eps_ladder": [0.2]}
    if request.param == "2d":
        over = {"d": 2, "n": 128, "L": 20.0, "s": 1.2, "eps_ladder": [0.4]}
    base = ExperimentConfig(**over)
    cfg = base.solver_config()
    phi = initial_data.build(cfg.grid, base.initial_data)
    offer, offered = solver.DiagnosticsLog.offer, {}

    def noting(log, config, t, values):
        offered[t] = values
        offer(log, config, t, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.DiagnosticsLog, "offer", noting)
        full = run_to_blowup(init(cfg, phi, diagnostics=True))
    return cfg, full, offered, run_to_blowup(init(cfg, phi))


class TestRows:
    def test_full_rows_are_the_field_functions_of_the_kept_offers(self, two_mode_runs):
        cfg, full, offered, _ = two_mode_runs
        rows = full.diagnostics.rows
        assert rows[0].t == 0.0 and len(rows) > 50 and full.diagnostics.held == []
        for row in rows:
            u = ComplexField(cfg.grid, Space.PHYSICAL, offered[row.t])
            assert (row.t, row.remainder_sup, row.r1, row.r2, row.r3) == field_functions(
                u, row.t, cfg)

    def test_default_rows_are_the_window_rows_of_a_full_run(self, two_mode_runs):
        from nlslab.lifespan import max_remainder_scaled

        cfg, full, _, default = two_mode_runs
        t_star = t_star_time(cfg.eps, cfg.params.theta, cfg.params.d)
        assert default.T_eps == full.T_eps
        window = [(row.t, row.remainder_sup) for row in full.diagnostics.rows
                  if t_star <= row.t <= full.T_eps / 2.0]
        rows = default.diagnostics.rows
        assert len(window) >= 3 and [(row.t, row.remainder_sup) for row in rows] == window
        assert all(row.r1 is row.r2 is row.r3 is None for row in rows)
        assert default.diagnostics.held == []
        assert (max_remainder_scaled(default.diagnostics, cfg, default.T_eps)
                == max_remainder_scaled(full.diagnostics, cfg, full.T_eps))


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
        monkeypatch.setattr(solver, "_strang", lambda u, *args: np.full_like(u, np.inf))
        with pytest.raises(RuntimeError, match="non-finite field"):
            convergence_study(cfg, phi, refinements=1)
