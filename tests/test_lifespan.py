"""Bound constants, profile extraction, diagnostic ratios, and the eps-sweep."""

import ast
import concurrent.futures
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlslab import (
    ComplexField,
    Grid,
    NonlinearityParams,
    Space,
    fourier_forward,
    fourier_inverse,
)
from nlslab import cli, lifespan, propagators, solver
from nlslab.harness import ExperimentConfig
from nlslab.initial_data import build as build_initial_data
from nlslab.initial_data import gaussian
from nlslab.lifespan import (
    bound_or_none,
    critical_bound,
    critical_pointwise_time,
    decreasing_ladder,
    fold,
    gamma_exponent,
    max_remainder_scaled,
    remainder,
    remainder_series,
    sweep,
    t_star_time,
    theoretical_bound,
)
from nlslab.profile_ode import OdeParams
from nlslab.records import RunRecord, SweepSummary
from nlslab.propagators import g_p
from nlslab.solver import DiagnosticRow, DiagnosticsLog, SolverConfig, init, run_to_blowup
from stepping import assert_log_matches_its_counts, fixed_step, noting_offers

GAUSS_SPEC = {"kind": "gaussian", "width": 1.0}


def unit_peak_datum(n=128, L=10.0):
    """Frequency-space field with sup modulus exactly 1 at xi = 0."""
    g = Grid(1, n, L)
    return ComplexField(g, Space.FREQUENCY, np.exp(-g.xi_1d**2 / 2))


class TestTheoreticalBound:
    def test_reference_values(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        datum = unit_peak_datum()
        rep = theoretical_bound(datum, params)
        assert rep.bound_value == pytest.approx(0.5, abs=1e-12)
        assert rep.tau0 == pytest.approx(0.25, abs=1e-12)
        # the ODE module's time scale coincides with tau0 for a=theta, b=2theta/d
        ode = OdeParams(a=params.theta, b=params.b, lam=params.lam, eps=1.0, t_star=1.0,
                        psi0_sup=datum.grid.modulus(datum.values)[1])
        assert ode.tau1 == pytest.approx(rep.tau0, rel=1e-12)

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

    def test_bound_or_none_is_the_bound_where_it_is_defined(self):
        f = unit_peak_datum()
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        assert bound_or_none(f, params) == theoretical_bound(f, params)
        zero = ComplexField(f.grid, Space.FREQUENCY, np.zeros_like(f.values))
        for lam, theta, datum in [(1j, 1.0, f), (-1j, 0.5, f), (0j, 0.5, f), (1j, 0.5, zero)]:
            assert bound_or_none(datum, NonlinearityParams(lam=lam, theta=theta, d=1)) is None

    def test_t_star_beyond_a_float_is_infinite(self):
        # eps^(-99) overflows a float: t_star is inf, and the remainder window empty
        assert t_star_time(1e-10, 0.99, 1) == np.inf
        cfg = SolverConfig(grid=Grid(1, 64, 10.0), params=NonlinearityParams(1j, 0.99, 1),
                           eps=1e-10, s=0.75)
        assert max_remainder_scaled(DiagnosticsLog(), cfg, 1e300) is None

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

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("eps", [0.3, 0.6])
    def test_bound_is_the_log_of_the_heuristic_time(self, d, eps):
        # eps^(2/d) log T(eps sup) = critical_bound: one horizon on the clock log t
        g = Grid(d, 32, 10.0)
        datum = ComplexField(g, Space.FREQUENCY, 1.3 * np.exp(-g.abs_xi_sq / 2))
        sup = g.modulus(datum.values)[1]
        t = critical_pointwise_time(eps * sup, d, 0.2 + 1.5j)
        assert eps ** (2.0 / d) * np.log(t) == pytest.approx(
            critical_bound(datum, d, 0.2 + 1.5j), rel=1e-12)

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
        for lam in (-1j, 0.5 + 0j):
            with pytest.raises(ValueError, match="Im"):
                critical_bound(unit_peak_datum(), 1, lam)
            with pytest.raises(ValueError, match="Im"):
                critical_pointwise_time(0.1, 1, lam)

    def test_rejects_zero_datum(self):
        zero = ComplexField(Grid(1, 16, 5.0), Space.FREQUENCY, np.zeros(16, dtype=complex))
        with pytest.raises(ValueError, match="vanishes"):
            critical_bound(zero, 1, 1j)

    def test_rejects_a_physical_space_field_as_theoretical_bound_does(self):
        # both bounds read the datum's peak through one reader, which checks the space
        phi = gaussian(Grid(1, 256, 20.0))
        with pytest.raises(ValueError, match="expects a frequency-space field") as refused:
            theoretical_bound(phi, NonlinearityParams(lam=1j, theta=0.5, d=1))
        assert "theoretical_bound" in str(refused.value)
        with pytest.raises(ValueError, match="expects a frequency-space field") as refused:
            critical_bound(phi, 1, 1j)
        assert "critical_bound" in str(refused.value)

    def test_the_datum_peak_has_one_reader(self):
        # the bounds and `nlslab bounds` read sup|phi_hat| through datum_peak alone:
        # no other function of lifespan or cli calls Grid.modulus
        callers = []

        class Calls(ast.NodeVisitor):
            def __init__(self, module):
                self.where = [module]

            def visit_FunctionDef(self, node):
                self.where.append(node.name)
                self.generic_visit(node)
                self.where.pop()

            def visit_Call(self, node):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "modulus":
                    callers.append(".".join(self.where))
                self.generic_visit(node)

        for module in (lifespan, cli):
            path = Path(module.__file__)
            Calls(path.stem).visit(ast.parse(path.read_text()))
        assert callers == ["lifespan.datum_peak"]


class TestProfileExtraction:
    def test_initial_profile_is_datum_transform(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=params, eps=0.2, s=1.0)
        state = init(cfg, gaussian(cfg.grid))
        a = cfg.grid.profile(state.u, state.t)
        expected = fourier_forward(ComplexField(cfg.grid, Space.PHYSICAL, state.u))
        assert np.max(np.abs(a - expected.values)) < 1e-12

    def test_free_run_has_constant_profile(self):
        params = NonlinearityParams(lam=0j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=params, eps=0.2, s=1.0,
                           record_every=10**9)
        state = init(cfg, gaussian(cfg.grid))
        a0 = cfg.grid.profile(state.u, state.t)
        for _ in range(40):
            state = fixed_step(state, 0.05)
        a1 = cfg.grid.profile(state.u, state.t)
        assert np.max(np.abs(a1 - a0)) < 1e-10

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
                state = fixed_step(state, dt)
            return state

        mid = run_to(2.0)
        a_mid = g.profile(mid.u, mid.t)
        r_mid = remainder(ComplexField(g, Space.PHYSICAL, mid.u), mid.t, params)
        a_plus = g.profile(fixed_step(mid, dt).u, mid.t + dt)
        a_minus = g.profile(run_to(2.0 - dt).u, mid.t - dt)
        lhs = 1j * (a_plus - a_minus) / (2 * dt)
        rhs = params.lam * mid.t ** (-params.theta) * g_p(a_mid, params.p) + r_mid.values
        rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(r_mid.values))
        assert rel < 1e-4

    def test_remainder_requires_positive_time(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        g = Grid(1, 64, 10.0)
        with pytest.raises(ValueError):
            remainder(gaussian(g), 0.0, params)


@pytest.fixture(scope="module")
def default_rungs():
    """(config, record, offered) of the default experiment config's runs at eps = 0.2
    and 0.15, with the times of every field offered to the run's log."""
    base = ExperimentConfig()
    out = {}
    for eps in (0.2, 0.15):
        cfg = replace(base.solver_config(), eps=eps)
        phi = build_initial_data(cfg.grid, base.initial_data)
        offered = []
        with pytest.MonkeyPatch.context() as mp:
            noting_offers(mp, lambda log, t: offered.append(t))
            out[eps] = cfg, run_to_blowup(init(cfg, phi)), offered
    return out


def hand_built_log(cfg, times):
    """A DiagnosticsLog with the Gaussian datum's sup|R| row at each time."""
    u = gaussian(cfg.grid)
    sups = [cfg.grid.modulus(remainder(u, t, cfg.params).values)[1] for t in times]
    return DiagnosticsLog(rows=[DiagnosticRow(t, sup) for t, sup in zip(times, sups)])


class TestRemainderWindow:
    @pytest.mark.parametrize("eps, inside", [(0.2, 2), (0.15, 7)])
    def test_rows_are_the_kept_offers_in_the_window(self, default_rungs, monkeypatch,
                                                    eps, inside):
        # the run computes the row of each field it keeps from t_star on as the
        # field is offered, or in its trial for a midpoint, and keeps all of them but
        # those of the trials it refuses, past T/2 too; the scaled maximum reads
        # those in [t_star, T/2] and transforms nothing
        cfg, rec, offered = default_rungs[eps]
        t_star = t_star_time(eps, cfg.params.theta, cfg.params.d)
        half = rec.T_eps / 2.0
        times = np.array(offered)
        assert np.any(times < t_star) and np.any(times > half)
        log = rec.diagnostics
        rows, stats = log.rows, log.stats
        assert_log_matches_its_counts(log, cfg.record_every)
        assert stats.rows_refused == 0
        # no trial is refused, so the offers are the datum and then each accepted
        # trial's midpoint and field, and a midpoint's row is among the rows
        assert stats.rejected == stats.singular == stats.capped == 0
        assert stats.accepted == len(offered) // 2 and any(row.t in offered[1::2] for row in rows)
        assert rows[0].t == t_star  # every run lands on t_star
        assert all(row.t in offered for row in rows) and any(row.t > half for row in rows)
        assert len([row for row in rows if row.t <= half]) == inside
        seen = []
        for owner, name in ((Grid, "remainder_sup"), (lifespan, "remainder"),
                            (propagators, "remainder")):
            monkeypatch.setattr(owner, name, lambda *args: seen.append(args))
        assert max_remainder_scaled(rec.diagnostics, cfg, rec.T_eps) is not None
        assert seen == []

    @pytest.mark.parametrize("eps", [0.2, 0.15])
    def test_scaled_maximum_equals_the_masked_full_series(self, default_rungs, eps):
        cfg, rec, _ = default_rungs[eps]
        params = cfg.params
        t_star = t_star_time(eps, params.theta, params.d)
        times, sups = remainder_series(rec.diagnostics, t_min=t_star)
        mask = times <= rec.T_eps / 2.0
        gamma = gamma_exponent(cfg.s, params.d)
        want = float(np.max(sups[mask] * times[mask] ** (params.theta + gamma)))
        assert max_remainder_scaled(rec.diagnostics, cfg, rec.T_eps) == want

    def test_series_keeps_both_ends(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 128, 20.0), params=params, eps=0.2, s=1.0)
        diag = hand_built_log(cfg, [0.5, 1.0, 2.0, 3.0])
        times, sups = remainder_series(diag, t_min=1.0, t_max=2.0)
        assert times.tolist() == [1.0, 2.0]
        assert len(sups) == 2 and np.all(sups > 0)

    def test_empty_window(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 128, 20.0), params=params, eps=0.2, s=1.0)
        t_star = t_star_time(cfg.eps, params.theta, params.d)
        T = 4.0 * t_star
        # rows on both sides of [t_star, T/2], none inside it
        diag = hand_built_log(cfg, [1.0, 0.5 * t_star, 3.0 * t_star])
        times, sups = remainder_series(diag, t_min=t_star, t_max=T / 2.0)
        assert times.shape == (0,) and sups.shape == (0,)
        assert max_remainder_scaled(diag, cfg, T) is None


    def test_contaminated_run_has_rows_but_no_scaled_maximum(self):
        # damped on a box too small for t_max = 100: the run computes the rows of
        # the fields it keeps from t_star = 1/0.3 on until the shell monitor aborts
        # it at t, and keeps them all, but an aborted run has no T to read them
        # against
        params = NonlinearityParams(lam=-1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 1024, 400.0), params=params, eps=0.3, s=1.0,
                           t_max=100.0, record_every=1)
        (rec,), _, _ = sweep([0.3], cfg, GAUSS_SPEC)
        rows, t_abort = rec.diagnostics.rows, rec.diagnostics.samples[-1].t
        assert_log_matches_its_counts(rec.diagnostics, cfg.record_every)
        assert rec.diagnostics.stats.rows_refused == 0
        assert rec.status == "boundary-contaminated" and rec.T_eps is None
        assert len(rows) > 50 and any(2.0 * row.t > t_abort for row in rows)
        assert rows[-1].t <= t_abort
        assert rec.max_remainder_scaled is None

    def test_full_run_keeps_every_row_it_computes(self):
        # a diagnostics=True run of the default eps = 0.2 rung computes a full row
        # for every field it keeps from t = 0 on (sup|R| from t > 0), and keeps all
        # of them but those of the trials it refuses; sampled at every accepted
        # field, it shows a midpoint's row as one at no sample's time
        base = ExperimentConfig()
        cfg = replace(base.solver_config(), record_every=1)
        (rec,), _, _ = sweep([0.2], cfg, base.initial_data, diagnostics=True)
        log = rec.diagnostics
        rows = log.rows
        assert rows[0].t == 0.0 and rows[0].remainder_sup is None
        assert_log_matches_its_counts(log, cfg.record_every)
        assert log.stats.rows_refused == 0
        assert len(rows) > 40 and all(row.r1 is not None for row in rows)
        sampled = {sample.t for sample in log.samples}
        assert any(row.t not in sampled for row in rows)

    def test_run_ending_before_twice_t_star_has_no_row_in_its_window(self):
        # the default eps = 0.4 rung: t_star = 2.5 > T/2 = 1.88, so the rows of the
        # fields it keeps from t_star on all lie past T/2, and the scaled maximum
        # reads none of them
        base = ExperimentConfig()
        (rec,), _, _ = sweep([0.4], base.solver_config(), base.initial_data)
        log = rec.diagnostics
        rows = log.rows
        assert rec.status == "blown-up" and rec.T_eps / 2.0 < 2.5 and log.dense_from == 2.5
        assert_log_matches_its_counts(log, base.record_every)
        assert len(rows) > 5 and log.stats.rows_refused == 0
        assert rows[-1].t <= rec.T_eps and rec.max_remainder_scaled is None

    @pytest.mark.parametrize("theta, s", [(1.0, 1.0), (0.5, 0.4)], ids=["theta-1", "gamma-outside"])
    def test_run_without_a_window_computes_no_row(self, theta, s):
        # theta = 1, or gamma = (2s-d)/8 <= 0, leaves the remainder criterion
        # undefined, so nothing reads a row
        params = NonlinearityParams(lam=1j, theta=theta, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.6, s=s,
                           t_max=30.0, record_every=8)
        (rec,), _, _ = sweep([0.6], cfg, GAUSS_SPEC)
        stats = rec.diagnostics.stats
        assert stats.accepted > 10 and stats.rows == 0
        assert rec.diagnostics.rows == [] and rec.max_remainder_scaled is None


class TestLemmaDiagnostics:
    def test_free_gaussian_ratios_bounded(self):
        # analytic free evolution on a wide box, read at every kept field from
        # t = 2 on.  Measured there: r1 in [0.328, 0.377] and r2 in
        # [-0.037, -8.3e-5]; at t = 1, before the decay sets in, r2 = -0.103
        params = NonlinearityParams(lam=0j, theta=0.5, d=1)
        g = Grid(1, 4096, 200.0)
        cfg = SolverConfig(grid=g, params=params, eps=0.3, s=0.75, t_max=50.0,
                           record_every=4)
        state = init(cfg, gaussian(g), diagnostics=True)
        while state.t < 50.0 - 1e-9:
            state = fixed_step(state, 1.0)
        ratios = [r for r in state.diagnostics.rows if r.t >= 2.0]
        assert len(ratios) == 49
        r1 = [r.r1 for r in ratios if r.r1 is not None]
        r2 = [r.r2 for r in ratios if r.r2 is not None]
        assert 0.2 < min(r1) and max(r1) < 0.5
        assert max(abs(v) for v in r2) < 0.1

    def test_r1_at_time_zero_is_direct_quotient(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=params, eps=0.2, s=1.0)
        state = init(cfg, gaussian(cfg.grid), diagnostics=True)
        rep = cfg.grid.norms(state.u, 0.0, 1.0)
        assert state.diagnostics.rows[0].r1 == pytest.approx(rep.l_inf / rep.sigma_s, rel=1e-12)

    def test_vanishing_norms_reported_absent(self):
        # the zero field has no meaningful ratios: every denominator vanishes
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 64, 10.0), params=params, eps=0.0, s=1.0)
        state = init(cfg, gaussian(cfg.grid), diagnostics=True)
        ratios = state.diagnostics.rows
        assert ratios and ratios[0].r1 is None and ratios[0].r3 is None

    def test_r3_bounded_on_random_smooth_fields(self):
        # frozen measurement: 20 seeded draws fall in [0.035, 0.045]
        rng = np.random.default_rng(0)
        g = Grid(1, 256, 15.0)
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        vals = []
        for _ in range(20):
            spec = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
            spec *= np.exp(-g.xi_1d**2 / 4)
            f = fourier_inverse(ComplexField(g, Space.FREQUENCY, spec))
            rep = g.norms(f.values, 0.0, 0.75)
            nu = params.lam * g_p(f.values, params.p)
            vals.append(g.norms(nu, 0.0, 0.75).sigma_s / rep.sigma_s**params.p)
        assert max(vals) < 0.2


class TestSweep:
    @pytest.mark.parametrize("ladder", [[0.4, np.nan], [0.4, -0.1], [np.inf, 0.4], []])
    def test_ladder_rungs_must_be_finite_and_non_negative(self, ladder):
        cfg = SolverConfig(grid=Grid(1, 64, 20.0), params=NonlinearityParams(1j, 0.5, 1),
                           eps=0.4, s=1.0)
        with pytest.raises(ValueError, match="eps ladder (rungs must be finite and >= 0|"
                                             "must hold at least one rung)"):
            sweep(ladder, cfg, GAUSS_SPEC)

    def test_micro_ladder_passes(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 512, 30.0), params=params, eps=0.4, s=1.0,
                           t_max=60.0, record_every=8)
        records, summary, bound = sweep([0.4, 0.3], cfg, GAUSS_SPEC)
        assert summary.verdict == "PASS"
        assert bound.bound_value == pytest.approx(0.5, abs=1e-9)
        assert records[0].invariant_quantity == pytest.approx(0.775, abs=0.01)
        assert records[1].invariant_quantity == pytest.approx(0.715, abs=0.01)
        assert summary.min_q == records[1].invariant_quantity
        # q = eps sqrt(T), so the least q squared is the empirical
        # D0 = min T eps^2 that demo 03 prints
        assert summary.min_q ** 2 == pytest.approx(
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
        assert summary.min_q == records[0].invariant_quantity
        assert summary == fold(records, 0.1)

    def test_all_censored_is_inconclusive(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0,
                           t_max=0.5, record_every=8)
        records, summary, _ = sweep([0.2, 0.1], cfg, GAUSS_SPEC)
        assert summary.verdict == "INCONCLUSIVE" and summary.min_q is None
        assert not any(r.usable_for_bound() for r in records)

    @pytest.mark.parametrize("lam, theta", [(1j, 1.0), (-1j, 0.5)], ids=["critical", "damped"])
    def test_config_without_a_bound_is_inconclusive(self, lam, theta):
        # the runs are those of any other config; only the verdict needs the bound
        params = NonlinearityParams(lam=lam, theta=theta, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0,
                           t_max=0.5, record_every=8)
        records, summary, bound = sweep([0.4, 0.3], cfg, GAUSS_SPEC)
        assert bound is None
        assert summary.verdict == "INCONCLUSIVE"
        assert [r.status for r in records] == ["reached-t-max"] * 2
        assert all(r.bound_value is None for r in records)

    def test_rejects_nonmonotone_ladder(self):
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0)
        with pytest.raises(ValueError):
            sweep([0.2, 0.3], cfg, GAUSS_SPEC)

    @pytest.mark.parametrize("tolerance", [2.0, 1.0, -1.0, np.nan])
    def test_a_tolerance_outside_0_1_is_refused_before_any_run(self, monkeypatch, tolerance):
        # at 2.0 every q >= -bound would pass, at -1.0 a q above the bound would fail
        monkeypatch.setattr(lifespan, "init", None)
        cfg = SolverConfig(grid=Grid(1, 64, 20.0), params=NonlinearityParams(1j, 0.5, 1),
                           eps=0.4, s=1.0)
        with pytest.raises(ValueError, match=r"tolerance must lie in \[0, 1\)"):
            sweep([0.4], cfg, GAUSS_SPEC, tolerance=tolerance)
        with pytest.raises(ValueError, match=r"tolerance must lie in \[0, 1\)"):
            fold([], tolerance)

    def test_parallel_matches_serial(self, monkeypatch):
        # the pool holds one worker per rung at most, however large jobs is
        pool_class, sizes = concurrent.futures.ProcessPoolExecutor, []

        def sized_pool(max_workers):
            sizes.append(max_workers)
            return pool_class(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", sized_pool)
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg = SolverConfig(grid=Grid(1, 256, 25.0), params=params, eps=0.4, s=1.0,
                           t_max=30.0, record_every=8)
        serial, _, _ = sweep([0.4, 0.3], cfg, GAUSS_SPEC, jobs=1)
        parallel, _, _ = sweep([0.4, 0.3], cfg, GAUSS_SPEC, jobs=4)
        assert [r.T_eps for r in serial] == [r.T_eps for r in parallel]
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_datum_at_the_first_rungs_cap_fails_before_any_run(self, monkeypatch, jobs):
        # sup|0.4 phi| = 4000 reaches the first rung's cap 2500, while the second
        # rung, sup|0.3 phi| = 3000 below its cap 3333, could start: no run starts
        runs = []
        monkeypatch.setattr(lifespan, "run_to_blowup", runs.append)
        cfg = SolverConfig(grid=Grid(1, 256, 20.0), params=NonlinearityParams(1j, 0.5, 1),
                           eps=0.4, s=1.0)
        with pytest.raises(ValueError, match=r"sup-norm cap 1e3/eps = 2500\.0"):
            sweep([0.4, 0.3], cfg, dict(GAUSS_SPEC, amplitude=1e4), jobs=jobs)
        assert runs == []

    @settings(max_examples=80, deadline=None)
    @given(head=st.floats(0.01, 2.0),
           scale=st.one_of(st.floats(0.25, 4.0),
                           st.sampled_from([1.0 - 2**-53, 1.0, 1.0 + 2**-52])),
           fractions=st.lists(st.floats(0.0, 1.0), max_size=4),
           next_rung=st.booleans())
    def test_first_rung_starts_exactly_when_every_rung_does(self, head, scale, fractions,
                                                             next_rung):
        # a datum whose sup|head phi| lies within a factor 4 of the first rung's cap
        # 1e3/head, on a strictly decreasing ladder from head, with the float just
        # below head as its second rung when next_rung
        rungs = {head * f for f in fractions} | ({np.nextafter(head, 0.0)} if next_rung else set())
        ladder = [head] + sorted((e for e in rungs if e < head), reverse=True)
        cfg = SolverConfig(grid=Grid(1, 64, 10.0), params=NonlinearityParams(1j, 0.5, 1),
                           eps=head, s=1.0)
        phi = gaussian(cfg.grid, amplitude=scale * 1e3 / head**2)
        starts = []
        for eps in decreasing_ladder(ladder):
            try:
                init(replace(cfg, eps=eps), phi)
            except ValueError:
                starts.append(False)
            else:
                starts.append(True)
        assert starts[0] == all(starts)

    def test_a_sweep_holds_one_rung(self):
        # what a three-rung sweep holds beyond a one-rung sweep of its first rung
        # is what it must: the datum until its last rung starts, and the records of
        # the rungs it has run; no rung's state outlives its run, and none is made
        # before it runs.  Peaks are traced in fields of the 64**2 grid; each
        # record's share is what deleting it frees
        cfg = SolverConfig(grid=Grid(2, 64, 20.0), params=NonlinearityParams(1j, 0.5, 2),
                           eps=0.4, s=1.2, record_every=4)
        field = 16 * 64**2

        def traced(ladder):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                records = sweep(ladder, cfg, GAUSS_SPEC)[0]
                peak = tracemalloc.get_traced_memory()[1] - base
                held = []
                for k in range(len(records)):
                    before = tracemalloc.get_traced_memory()[0]
                    records[k] = None
                    held.append(before - tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            return peak / field, [h / field for h in held]

        traced([0.4])  # the grid's weights and masks, and numpy's first buffers
        one, _ = traced([0.4])
        three, (first, second, _) = traced([0.4, 0.35, 0.3])
        # the second rung runs beside the datum and the first record, the third
        # beside both records
        assert three - one <= max(1.0 + first, first + second) + 0.25

    def test_profile_follows_reduced_ode(self):
        # end-to-end mechanism check: the extracted |A(t, 0)| along a blow-up
        # run follows the diagonal ODE's closed form, anchored at the first
        # kept field past t_star, to 0.42% measured (assert 2% with margin).
        # The kept fields are those whose rows a diagnostics=True run keeps; each
        # is copied as its row is computed, since a midpoint's trial then writes
        # over it.
        from nlslab.profile_ode import OdeParams, eta0_modulus

        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        g = Grid(1, 2048, 80.0)
        eps = 0.2
        cfg = SolverConfig(grid=g, params=params, eps=eps, s=1.0,
                           t_max=200.0, record_every=4)
        row, offered = solver.DiagnosticsLog.row, {}

        def noting(log, config, t, values):
            offered[t] = values.copy()
            return row(log, config, t, values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver.DiagnosticsLog, "row", noting)
            records, _, _ = sweep([eps], cfg, GAUSS_SPEC, diagnostics=True)
        rec = records[0]
        ts = t_star_time(eps, 0.5, 1)
        snaps = [(row.t, offered[row.t]) for row in rec.diagnostics.rows
                 if ts <= row.t <= 0.9 * rec.T_eps]
        assert len(snaps) > 5
        j0 = np.flatnonzero(g.xi_1d == 0)[0]
        t0, v0 = snaps[0]
        a00 = abs(g.profile(v0, t0)[j0])
        ode = OdeParams(a=0.5, b=1.0, lam=1j, eps=eps, t_star=t0, psi0_sup=a00 / eps)
        worst = 0.0
        for t, v in snaps:
            measured = abs(g.profile(v, t)[j0])
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


def hand_made(status, q, bound_value=0.5, eps=0.4):
    """A record that no run made: the three fields the fold reads, and the rung's eps."""
    return RunRecord(eps=eps, theta=0.5, d=1, lam=1j, status=status,
                     T_eps=None if status == "boundary-contaminated" else 1.0,
                     invariant_quantity=q, bound_value=bound_value)


class TestFold:
    def test_pass_at_the_threshold_exactly(self):
        threshold = 0.5 * (1.0 - 0.1)
        summary = fold([hand_made("blown-up", 0.8), hand_made("blown-up", threshold)], 0.1)
        assert summary == SweepSummary(verdict="PASS", min_q=threshold, tolerance=0.1)
        below = np.nextafter(threshold, 0.0)
        assert fold([hand_made("blown-up", below)], 0.1).verdict == "FAIL"

    @pytest.mark.parametrize("status", ["reached-t-max", "boundary-contaminated"])
    def test_only_a_blown_up_records_q_enters(self, status):
        # a q far below the bound, on a run that did not blow up, changes nothing
        records = [hand_made("blown-up", 0.7), hand_made(status, 0.01, eps=0.3)]
        assert fold(records, 0.1) == SweepSummary("PASS", 0.7, 0.1)
        assert fold(records[1:], 0.1) == SweepSummary("INCONCLUSIVE", None, 0.1)

    def test_no_bound_is_inconclusive(self):
        records = [hand_made("blown-up", 0.7, bound_value=None)]
        assert fold(records, 0.1) == SweepSummary("INCONCLUSIVE", 0.7, 0.1)
        assert fold([], 0.1) == SweepSummary("INCONCLUSIVE", None, 0.1)

    def test_min_q_is_the_least_usable_q(self):
        qs = [0.9, 0.4, 0.6, 0.3]
        records = [hand_made("blown-up" if k != 3 else "reached-t-max", q, eps=1.0 / (k + 1))
                   for k, q in enumerate(qs)]
        summary = fold(records, 0.1)
        assert summary.min_q == 0.4
        assert summary.verdict == "FAIL"  # 0.4 < 0.45
        assert fold(records, 0.2).verdict == "PASS"  # 0.4 >= 0.4
