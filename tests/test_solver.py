"""Split-step solver: linear limit, conservation, blow-up measurement, convergence."""

import numpy as np
import pytest

from nlslab import (
    ComplexField,
    Grid,
    NonlinearityParams,
    Space,
    free_propagate,
    norms,
)
from nlslab.initial_data import gaussian
from nlslab.solver import (
    RunStatus,
    SolverConfig,
    convergence_study,
    init,
    mass_balance_residuals,
    run_to_blowup,
    step,
)

AMPLIFYING = NonlinearityParams(lam=1j, theta=0.5, d=1)
CONSERVATIVE = NonlinearityParams(lam=1.0 + 0j, theta=0.5, d=1)
FREE = NonlinearityParams(lam=0j, theta=0.5, d=1)


def small_config(params=AMPLIFYING, **over):
    kw = dict(grid=Grid(1, 256, 20.0), params=params, eps=0.3, s=1.0,
              dt_init=0.05, t_max=50.0)
    kw.update(over)
    return SolverConfig(**kw)


class TestConfig:
    def test_threshold_default(self):
        cfg = small_config(eps=0.25)
        assert cfg.threshold == pytest.approx(4000.0)
        assert small_config(eps=0.25, blowup_norm_threshold=7.0).threshold == 7.0

    def test_index_condition_enforced(self):
        # d=3 with theta <= 3/4 leaves no admissible s at all
        params = NonlinearityParams(lam=1j, theta=0.7, d=3)
        with pytest.raises(ValueError):
            SolverConfig(grid=Grid(3, 16, 5.0), params=params, eps=0.1, s=1.6)
        cfg = SolverConfig(grid=Grid(3, 16, 5.0), params=params, eps=0.1, s=1.6,
                           enforce_hypotheses=False)
        assert not cfg.index_condition_ok

    def test_fingerprint_changes_with_fields(self):
        a = small_config()
        b = small_config(eps=0.31)
        c = small_config(grid=Grid(1, 512, 20.0))
        assert a.fingerprint() == small_config().fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestInit:
    def test_scaled_datum(self):
        cfg = small_config(eps=0.1)
        state = init(cfg, gaussian(cfg.grid))
        assert np.max(np.abs(state.u.values)) == pytest.approx(0.1, rel=1e-14)
        assert state.t == 0.0 and state.status is RunStatus.RUNNING

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
            state = step(state, 0.01)
        assert np.all(state.u.values == 0)
        assert state.status is RunStatus.RUNNING

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
            state = step(state, 0.02, record=False)
        exact = free_propagate(ComplexField(cfg.grid, Space.PHYSICAL,
                                            cfg.eps * phi.values), 1.0)
        assert np.max(np.abs(state.u.values - exact.values)) < 1e-12

    def test_real_lambda_conserves_mass(self):
        cfg = small_config(params=CONSERVATIVE)
        state = init(cfg, gaussian(cfg.grid))
        m0 = state.diagnostics.samples[0].mass
        for _ in range(1000):
            state = step(state, 0.005)
        drift = max(abs(s.mass - m0) / m0 for s in state.diagnostics.samples)
        assert drift < 1e-10

    def test_mass_balance_residual_is_second_order(self):
        # d||u||^2/dt = 2 Im(lam) ||u||_{p+1}^{p+1}: the trapezoid residual
        # of the recorded series must shrink like dt^2
        def residual(dt):
            cfg = small_config(eps=0.4)
            state = init(cfg, gaussian(cfg.grid))
            for _ in range(int(round(1.0 / dt))):
                state = step(state, dt)
            res = mass_balance_residuals(state.diagnostics.samples, mu=1.0)
            return np.max(np.abs(res))

        r1, r2 = residual(0.02), residual(0.01)
        assert r1 / r2 == pytest.approx(4.0, abs=1.5)

    def test_pointwise_blowup_detected_in_large_step(self):
        cfg = small_config(eps=0.5, record_every=10**9)
        state = init(cfg, gaussian(cfg.grid))
        # sup |u| = 0.5, so the half-step horizon is 1/0.5 = 2 < dt/2
        frozen = step(state, 20.0)
        assert frozen.status is RunStatus.BLOWN_UP
        assert frozen.blow_criterion == "pointwise"
        assert frozen.t_blow == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ValueError):
            step(frozen, 0.01)

    def test_threshold_crossing_is_an_event_without_sample(self):
        # sup |u| starts at 0.4 and grows without bound; the pointwise
        # horizon stays far beyond dt/2 while sup |u| < 1
        cfg = small_config(eps=0.4, blowup_norm_threshold=1.0)
        state = init(cfg, gaussian(cfg.grid))
        for _ in range(1000):
            n_samples = len(state.diagnostics.samples)
            nxt = step(state, 0.05)
            if nxt.status is not RunStatus.RUNNING:
                break
            state = nxt
        assert nxt.status is RunStatus.BLOWN_UP
        assert nxt.blow_criterion == "threshold"
        assert nxt.t == state.t and nxt.t_blow == state.t + 0.05
        assert len(nxt.diagnostics.samples) == n_samples

    def test_rejects_nonpositive_dt(self):
        state = init(small_config(), gaussian(Grid(1, 256, 20.0)))
        with pytest.raises(ValueError):
            step(state, 0.0)


class TestRunToBlowup:
    def test_reference_blowup_time(self):
        # frozen from two independent grids (n=1024/L=40 and n=2048/L=80),
        # which agree on T to 2e-8 relative
        cfg = small_config(eps=0.4, grid=Grid(1, 512, 30.0), record_every=8)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "blown-up"
        assert rec.T_eps == pytest.approx(3.754098, abs=5e-3)
        assert rec.t_blow_threshold is not None
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
        # (lam=2i, eps=0.2) exactly, so the two measured lifespans agree up
        # to the eps-dependent cap and bisection width (7.6e-5 measured)
        grid = Grid(1, 512, 30.0)
        phi = gaussian(grid)

        def measure(lam, eps):
            params = NonlinearityParams(lam=lam, theta=0.5, d=1)
            cfg = small_config(params=params, eps=eps, grid=grid, t_max=60.0,
                               record_every=10**9)
            return run_to_blowup(init(cfg, phi)).T_eps

        t_a, t_b = measure(2j, 0.2), measure(1j, 0.4)
        assert abs(t_a - t_b) / t_b < 1e-3

    def test_threshold_insensitivity(self):
        # the remaining time to the singularity at the sup-norm cap is
        # O(1/cap), so quadrupling the cap barely moves T (1.4e-4 measured)
        grid = Grid(1, 512, 30.0)
        phi = gaussian(grid)

        def measure(thr):
            cfg = small_config(eps=0.3, grid=grid, t_max=60.0,
                               record_every=10**9, blowup_norm_threshold=thr)
            return run_to_blowup(init(cfg, phi)).T_eps

        assert abs(measure(1000.0) - measure(4000.0)) / measure(4000.0) < 1.5e-3

    def test_boundary_contamination_flagged(self):
        # a box too small for the dispersive spreading must abort the run
        cfg = small_config(params=CONSERVATIVE, grid=Grid(1, 64, 6.0),
                           eps=0.3, t_max=40.0, record_every=4)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert rec.status == "boundary-contaminated"
        assert rec.T_eps is None
        assert rec.invariant_quantity is None

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
        # the last sample is taken on the landed state; when the bisection
        # lands on the base state it repeats the base state's time
        assert np.all(np.diff(times[:-1]) > 0) and times[-1] >= times[-2]
        # a sample from the rejected trial step would lie beyond T_eps
        assert times[-1] < rec.T_eps

    def test_snapshot_budget_respected(self):
        cfg = small_config(eps=0.2, grid=Grid(1, 256, 25.0), record_every=1,
                           snapshot_budget=32)
        rec = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert len(rec.diagnostics.snapshots) <= 33


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
