"""Bound constants, profile extraction, diagnostic ratios, and the eps-sweep."""

import numpy as np
import pytest

from nlslab import (
    ComplexField,
    Grid,
    NonlinearityParams,
    Space,
    fourier_forward,
    fourier_inverse,
    norms,
)
from nlslab.initial_data import gaussian
from nlslab.lifespan import (
    critical_bound,
    critical_pointwise_time,
    extract_profile,
    gamma_exponent,
    decay_ratio_diagnostics,
    max_remainder_scaled,
    profile,
    remainder,
    sweep,
    t_star_time,
    theoretical_bound,
)
from nlslab.propagators import g_p
from nlslab.solver import SolverConfig, init, step

GAUSS_SPEC = {"kind": "gaussian", "width": 1.0}


def unit_peak_datum(n=128, L=10.0):
    """Frequency-space field with sup modulus exactly 1 at xi = 0."""
    g = Grid(1, n, L)
    return ComplexField(g, Space.FREQUENCY, np.exp(-g.xi_1d**2 / 2))


class TestTheoreticalBound:
    def test_reference_values(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        rep = theoretical_bound(unit_peak_datum(), params)
        assert rep.bound_value == pytest.approx(0.5, abs=1e-12)
        assert rep.tau0 == pytest.approx(0.25, abs=1e-12)
        # the ODE-module time scale coincides with tau0 for a=theta, b=2theta/d
        assert rep.tau1 == pytest.approx(rep.tau0, rel=1e-12)

    def test_scaling_in_datum(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        f = unit_peak_datum()
        c = 1.7
        scaled = ComplexField(f.grid, Space.FREQUENCY, c * f.values)
        r1 = theoretical_bound(f, params)
        r2 = theoretical_bound(scaled, params)
        assert r2.bound_value == pytest.approx(r1.bound_value * c ** (-1.0), rel=1e-12)
        # rescaling phi -> c phi, eps -> eps/c leaves the product invariant
        assert r2.bound_value * c ** (2 * params.theta / params.d) == pytest.approx(
            r1.bound_value, rel=1e-12)

    def test_inverse_linear_in_gain(self):
        f = unit_peak_datum()
        r1 = theoretical_bound(f, NonlinearityParams(lam=1j, theta=0.5, d=1))
        r2 = theoretical_bound(f, NonlinearityParams(lam=2j, theta=0.5, d=1))
        assert r2.bound_value == pytest.approx(r1.bound_value / 2.0, rel=1e-14)

    def test_gamma_and_t_star(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        rep = theoretical_bound(unit_peak_datum(), params, s=1.0, eps=0.2)
        assert rep.gamma == pytest.approx(0.125)
        assert rep.t_star == pytest.approx(5.0, rel=1e-12)
        assert t_star_time(0.2, 0.5, 1) == pytest.approx(5.0, rel=1e-12)
        assert gamma_exponent(1.0, 1) == pytest.approx(0.125)

    def test_domain_errors(self):
        f = unit_peak_datum()
        with pytest.raises(ValueError):
            theoretical_bound(f, NonlinearityParams(lam=1.0 + 0j, theta=0.5, d=1))
        with pytest.raises(ValueError):
            theoretical_bound(f, NonlinearityParams(lam=1j, theta=1.0, d=1))

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps > 0"):
            t_star_time(eps, 0.5, 1)
        with pytest.raises(ValueError, match="eps > 0"):
            theoretical_bound(unit_peak_datum(), NonlinearityParams(lam=1j, theta=0.5, d=1),
                              eps=eps)


class TestCriticalBound:
    def test_reference_value(self):
        assert critical_bound(unit_peak_datum(), 1, 1j) == pytest.approx(0.5, abs=1e-12)

    def test_pointwise_heuristic(self):
        # amplitude 0.1, d = 1, Im lam = 1: time exp(1/(2*0.01)) = e^50
        t = critical_pointwise_time(0.1, 1, 1j)
        assert t == pytest.approx(np.exp(50.0), rel=1e-12)

    def test_monotone_in_peak(self):
        f = unit_peak_datum()
        big = ComplexField(f.grid, Space.FREQUENCY, 10.0 * f.values)
        assert critical_bound(big, 1, 1j) < critical_bound(f, 1, 1j)

    def test_higher_dimensions(self):
        g = Grid(2, 32, 10.0)
        datum = ComplexField(g, Space.FREQUENCY, np.exp(-g.abs_xi_sq / 2))
        # d / (2 mu sup^(2/d)) with sup = 1
        assert critical_bound(datum, 2, 1j) == pytest.approx(1.0, abs=1e-12)
        assert critical_bound(datum, 2, 2j) == pytest.approx(0.5, abs=1e-12)

    def test_requires_gain(self):
        with pytest.raises(ValueError):
            critical_bound(unit_peak_datum(), 1, -1j)


class TestProfileExtraction:
    def test_initial_profile_is_datum_transform(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=params, eps=0.2, s=1.0)
        state = init(cfg, gaussian(cfg.grid))
        a, r = extract_profile(state)
        expected = fourier_forward(state.u)
        assert np.max(np.abs(a.values - expected.values)) < 1e-12
        assert r is None

    def test_free_run_has_constant_profile(self):
        params = NonlinearityParams(lam=0j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=params, eps=0.2, s=1.0,
                           record_every=10**9)
        state = init(cfg, gaussian(cfg.grid))
        a0 = profile(state.u, state.t)
        for _ in range(40):
            state = step(state, 0.05, record=False)
        a1 = profile(state.u, state.t)
        assert np.max(np.abs(a1.values - a0.values)) < 1e-10

    def test_remainder_is_reduced_ode_residual(self):
        # independent oracle: central finite difference of A along two runs
        # reproduces i dA/dt = lam t^-theta G_p(A) + R to O(dt^2)
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        g = Grid(1, 512, 30.0)
        cfg = SolverConfig(grid=g, params=params, eps=0.3, s=1.0, record_every=10**9)
        dt = 2.5e-3

        def run_to(t_target):
            state = init(cfg, gaussian(g))
            while state.t < t_target - 1e-9:
                state = step(state, dt, record=False)
            return state

        mid = run_to(2.0)
        a_mid = profile(mid.u, mid.t)
        r_mid = remainder(mid.u, mid.t, params)
        a_plus = profile(step(mid, dt, record=False).u, mid.t + dt)
        a_minus = profile(run_to(2.0 - dt).u, mid.t - dt)
        lhs = 1j * (a_plus.values - a_minus.values) / (2 * dt)
        rhs = params.lam * mid.t ** (-params.theta) * g_p(a_mid.values, params.p) + r_mid.values
        rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(r_mid.values))
        assert rel < 1e-4

    def test_remainder_requires_positive_time(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        g = Grid(1, 64, 10.0)
        with pytest.raises(ValueError):
            remainder(gaussian(g), 0.0, params)


class TestLemmaDiagnostics:
    def test_free_gaussian_ratios_bounded(self):
        # analytic free evolution on a wide box; caps frozen from a refined
        # measurement (r1 in [0.325, 0.344], r2 in [-0.003, 0])
        params = NonlinearityParams(lam=0j, theta=0.5, d=1)
        g = Grid(1, 4096, 200.0)
        cfg = SolverConfig(grid=g, params=params, eps=0.3, s=0.75, t_max=50.0,
                           record_every=4)
        state = init(cfg, gaussian(g))
        while state.t < 50.0 - 1e-9:
            state = step(state, 1.0)
        ratios = decay_ratio_diagnostics(state.diagnostics, state.config)
        r1 = [r.r1 for r in ratios if r.r1 is not None]
        r2 = [r.r2 for r in ratios if r.r2 is not None]
        assert 0.2 < min(r1) and max(r1) < 0.5
        assert max(abs(v) for v in r2) < 0.1

    def test_r1_at_time_zero_is_direct_quotient(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=params, eps=0.2, s=1.0)
        state = init(cfg, gaussian(cfg.grid))
        ratios = decay_ratio_diagnostics(state.diagnostics, state.config)
        rep = norms(state.u, 0.0, 1.0)
        assert ratios[0].r1 == pytest.approx(rep.l_inf / rep.sigma_s, rel=1e-12)

    def test_vanishing_norms_reported_absent(self):
        # the zero field has no meaningful ratios: every denominator vanishes
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 64, 10.0), params=params, eps=0.0, s=1.0)
        state = init(cfg, gaussian(cfg.grid))
        ratios = decay_ratio_diagnostics(state.diagnostics, state.config)
        assert ratios and ratios[0].r1 is None and ratios[0].r3 is None

    def test_r3_bounded_on_random_smooth_fields(self):
        # frozen measurement: 20 seeded draws fall in [0.036, 0.048]
        rng = np.random.default_rng(0)
        g = Grid(1, 256, 15.0)
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        vals = []
        for _ in range(20):
            spec = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
            spec *= np.exp(-g.xi_1d**2 / 4)
            f = fourier_inverse(ComplexField(g, Space.FREQUENCY, spec))
            rep = norms(f, 0.0, 0.75)
            nu = ComplexField(g, Space.PHYSICAL, params.lam * g_p(f.values, params.p))
            vals.append(norms(nu, 0.0, 0.75).sigma_s / rep.sigma_s**params.p)
        assert max(vals) < 0.2


class TestSweep:
    def test_micro_ladder_passes(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 512, 30.0), params=params, eps=0.4, s=1.0,
                           t_max=60.0, record_every=8)
        records, summary, bound = sweep([0.4, 0.3], cfg, GAUSS_SPEC)
        assert summary.verdict == "PASS"
        assert bound.bound_value == pytest.approx(0.5, abs=1e-9)
        assert summary.q_values[0] == pytest.approx(0.775, abs=0.01)
        assert summary.q_values[1] == pytest.approx(0.715, abs=0.01)
        assert summary.running_min == sorted(summary.running_min, reverse=True)
        assert summary.d0_estimate == pytest.approx(
            min(r.T_eps * r.eps**2 for r in records), rel=1e-12)
        for rec in records:
            assert rec.bound_value == bound.bound_value
            assert rec.invariant_quantity == pytest.approx(rec.q_value(), rel=1e-12)

    def test_single_rung_reduces_to_run(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0,
                           t_max=30.0, record_every=8)
        records, summary, _ = sweep([0.4], cfg, GAUSS_SPEC)
        assert len(records) == 1
        assert summary.q_values == [records[0].invariant_quantity]
        assert summary.running_min == [records[0].invariant_quantity]

    def test_all_censored_is_inconclusive(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0,
                           t_max=0.5, record_every=8)
        _, summary, _ = sweep([0.2, 0.1], cfg, GAUSS_SPEC)
        assert summary.verdict == "INCONCLUSIVE"
        assert all(q is None for q in summary.q_values)

    def test_rejects_nonmonotone_ladder(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0)
        with pytest.raises(ValueError):
            sweep([0.2, 0.3], cfg, GAUSS_SPEC)

    def test_parallel_matches_serial(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0,
                           t_max=30.0, record_every=8)
        serial, _, _ = sweep([0.4, 0.3], cfg, GAUSS_SPEC, jobs=1)
        parallel, _, _ = sweep([0.4, 0.3], cfg, GAUSS_SPEC, jobs=2)
        assert [r.T_eps for r in serial] == [r.T_eps for r in parallel]

    def test_profile_follows_reduced_ode(self):
        # end-to-end mechanism check: the extracted |A(t, 0)| along a blow-up
        # run follows the diagonal ODE's closed form, anchored at the first
        # snapshot past t_star, to 0.42% measured (assert 2% with margin)
        from nlslab.profile_ode import OdeParams, eta0_modulus

        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        g = Grid(1, 2048, 80.0)
        eps = 0.2
        cfg = SolverConfig(grid=g, params=params, eps=eps, s=1.0,
                           t_max=200.0, dt_init=0.05, record_every=4)
        records, _, _ = sweep([eps], cfg, GAUSS_SPEC)
        rec = records[0]
        diag = rec.diagnostics
        ts = t_star_time(eps, 0.5, 1)
        snaps = [(t, v) for t, v in zip(diag.snapshot_times, diag.snapshots)
                 if ts <= t <= 0.9 * rec.T_eps]
        assert len(snaps) > 5
        j0 = g.n // 2  # xi = 0 in monotone order
        t0, v0 = snaps[0]
        a00 = abs(profile(ComplexField(g, Space.PHYSICAL, v0), t0).values[j0])
        ode = OdeParams(a=0.5, b=1.0, lam=1j, eps=eps, t_star=t0, psi0_sup=a00 / eps)
        worst = 0.0
        for t, v in snaps:
            measured = abs(profile(ComplexField(g, Space.PHYSICAL, v), t).values[j0])
            predicted = eta0_modulus(t, a00 / eps, ode)
            worst = max(worst, abs(measured - predicted) / predicted)
        assert worst < 0.02

    def test_remainder_attached(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 1024, 40.0), params=params, eps=0.2, s=1.0,
                           t_max=60.0, record_every=4)
        records, _, _ = sweep([0.2], cfg, GAUSS_SPEC)
        rec = records[0]
        assert rec.max_remainder_scaled is not None
        assert 0 < rec.max_remainder_scaled < 1.0
