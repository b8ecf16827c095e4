"""Closed-form profile ODE, perturbation envelope, and growth-bound checks."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlslab.propagators import PointwiseBlowUp
from nlslab.profile_ode import (
    OdeParams,
    PerturbationSpec,
    bound_constants,
    c0_constant,
    eta0_blowup_time,
    eta0_closed_form,
    eta0_modulus,
    integrate_perturbed,
    make_perturbation,
    smallness_bound,
    sup_bound_check,
)

REFERENCE = dict(a=0.5, b=1.0, lam=1j, eps=0.1, t_star=1.0, psi0_sup=1.0, sigma=0.1)


def reference_params(**over):
    kw = dict(REFERENCE)
    kw.update(over)
    return OdeParams(**kw)


def integrate_reference(psi0_value, params, t_samples):
    """Independent oracle: high-order adaptive integration of the diagonal ODE."""
    z0 = params.eps * psi0_value

    def rhs(t, y):
        w = y[0] + 1j * y[1]
        dw = -1j * params.lam * t ** (-params.a) * abs(w) ** params.b * w
        return [dw.real, dw.imag]

    sol = solve_ivp(rhs, (params.t_star, t_samples[-1]), [z0.real, z0.imag],
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_samples)
    assert sol.success
    return sol.y[0] + 1j * sol.y[1]


class TestDerivedQuantities:
    def test_q_and_tau1(self):
        p = reference_params()
        assert p.q == pytest.approx(1.0)
        # 1/tau1 = (2 q Im(lam) Psi0^b)^{1/(1-a)} = (2)^2 = 4
        assert p.tau1 == pytest.approx(0.25, rel=1e-14)

    def test_sigma_must_fit_below_tau1(self):
        with pytest.raises(ValueError):
            reference_params(sigma=0.3)

    @pytest.mark.parametrize("over", [dict(a=0.0), dict(a=1.0), dict(b=0.0),
                                      dict(lam=1.0 + 0j), dict(eps=0.0), dict(t_star=0.0)])
    def test_rejects_bad_parameters(self, over):
        with pytest.raises(ValueError):
            reference_params(**over)

    def test_degenerate_zero_datum(self):
        # psi0_sup = 0 makes tau1 infinite; the trajectory is identically zero
        p = OdeParams(a=0.5, b=1.0, lam=1j, eps=0.1, t_star=1.0, psi0_sup=0.0)
        assert p.tau1 == np.inf
        assert c0_constant(p) == 0.0
        assert eta0_modulus(5.0, 0.0, p) == 0.0


class TestClosedForm:
    def test_hand_evaluated_point(self):
        # denominator at t=4: 1 + 0.2*1 - 0.2*2 = 0.8, so |eta0| = 0.1/0.8
        p = reference_params()
        assert eta0_modulus(4.0, 1.0, p) == pytest.approx(0.125, rel=1e-14)

    def test_initial_value(self):
        p = reference_params()
        assert eta0_modulus(p.t_star, 1.0, p) == pytest.approx(p.eps, rel=1e-14)

    def test_blowup_at_denominator_root(self):
        # denominator 1.2 - 0.2 sqrt(t) hits zero at t = 36
        p = reference_params()
        assert eta0_blowup_time(1.0, p) == pytest.approx(36.0, rel=1e-12)
        with pytest.raises(PointwiseBlowUp):
            eta0_modulus(36.0, 1.0, p)
        assert np.isfinite(eta0_modulus(35.9, 1.0, p))

    def test_modulus_matches_rk_integration(self):
        p = reference_params()
        ts = np.linspace(p.t_star, 30.0, 40)
        eta_ref = integrate_reference(1.0 + 0.0j, p, ts)
        for t, ref in zip(ts, eta_ref):
            assert eta0_modulus(t, 1.0, p) == pytest.approx(abs(ref), rel=1e-8)

    def test_complex_form_matches_rk_integration(self):
        # nonzero Re(lam) exercises the logarithmic phase advance
        p = reference_params(lam=0.7 + 1.0j)
        psi0 = 0.8 * np.exp(0.4j)
        ts = np.linspace(p.t_star, 20.0, 25)
        eta_ref = integrate_reference(psi0, p, ts)
        vals = eta0_closed_form(ts, psi0, p)
        assert np.max(np.abs(vals - eta_ref) / np.abs(eta_ref)) < 1e-8

    def test_random_draws_match_integration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.uniform(0.1, 0.9)
            b = rng.uniform(0.2, 2.0)
            mu = rng.uniform(0.1, 3.0)
            p = OdeParams(a=a, b=b, lam=complex(rng.uniform(-1, 1), mu),
                          eps=rng.uniform(0.05, 0.5), t_star=rng.uniform(0.5, 2.0),
                          psi0_sup=1.0)
            psi0 = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            t_blow = eta0_blowup_time(abs(psi0), p)
            ts = np.linspace(p.t_star, p.t_star + 0.9 * (t_blow - p.t_star), 30)
            eta_ref = integrate_reference(psi0, p, ts)
            vals = eta0_closed_form(ts, psi0, p)
            assert np.max(np.abs(vals - eta_ref) / np.abs(eta_ref)) < 1e-8

    def test_blowup_carries_the_time_not_the_clock(self):
        # the flow's horizon on the clock is 1/(b mu eps) = 10; the ODE reaches it at t = 36
        p = reference_params()
        for fn in (eta0_modulus, eta0_closed_form):
            with pytest.raises(PointwiseBlowUp) as info:
                fn(np.array([2.0, 40.0]), 1.0, p)
            assert info.value.earliest == pytest.approx(36.0, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, np.array([0.99, 2.0])])
    def test_before_t_star_is_rejected(self, t):
        # the ODE lives on [t_*, T); no silent extrapolation below t_*
        p = reference_params()
        for fn in (eta0_modulus, eta0_closed_form):
            with pytest.raises(ValueError, match="t >= t_star"):
                fn(t, 1.0, p)

    def test_modulus_nondecreasing(self):
        p = reference_params()
        ts = np.linspace(p.t_star, 30.0, 200)
        vals = eta0_modulus(ts, 0.9, p)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_blowup_exponent_ladder(self):
        # blow-up time of the peak frequency scales like eps^(-2q) as eps -> 0
        ladder = np.logspace(-3, -5, 5)
        times = []
        for eps in ladder:
            p = reference_params(eps=eps, sigma=0.1)
            times.append(eta0_blowup_time(1.0, p))
        slope = np.polyfit(np.log(ladder), np.log(times), 1)[0]
        p = reference_params()
        assert abs(slope + 2 * p.q) / (2 * p.q) < 0.02


class TestSupBound:
    def test_reference_window(self):
        p = reference_params(sigma=0.125)
        c0 = c0_constant(p)
        assert c0 == pytest.approx(1.0 / (1.0 - np.sqrt(0.5)), rel=1e-12)  # ~3.4142
        measured = sup_bound_check(p)
        assert measured <= c0 * (1 + 1e-12)

    def test_small_sigma_limit(self):
        p = reference_params(sigma=1e-8)
        assert c0_constant(p) == pytest.approx(p.psi0_sup, rel=1e-3)
        assert sup_bound_check(p) == pytest.approx(p.psi0_sup, rel=1e-6)

    def test_bound_holds_across_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(0.2, 0.8)
            b = rng.uniform(0.3, 1.8)
            p = OdeParams(a=a, b=b, lam=complex(rng.uniform(-1, 1), rng.uniform(0.2, 2.0)),
                          eps=rng.uniform(0.02, 0.3), t_star=rng.uniform(0.3, 2.0),
                          psi0_sup=rng.uniform(0.5, 1.5))
            p = OdeParams(a=a, b=b, lam=p.lam, eps=p.eps, t_star=p.t_star,
                          psi0_sup=p.psi0_sup, sigma=rng.uniform(0.05, 0.6) * p.tau1)
            assert sup_bound_check(p, n_times=65) <= c0_constant(p) * (1 + 1e-12)


PERT = dict(c1=0.3, c2=0.3, delta=1.0)


def pert_params(eps=0.02):
    return OdeParams(a=0.5, b=1.0, lam=1j, eps=eps, t_star=0.5, psi0_sup=1.0, sigma=0.05)


class TestBoundConstants:
    def test_values(self):
        p = pert_params()
        k = bound_constants(p, **PERT)
        c0 = 1.0 / (1.0 - np.sqrt(0.2))
        assert k.c0 == pytest.approx(c0, rel=1e-12)
        assert k.c3 == pytest.approx(2.0 * 2.0 * (2 * c0 + 1) + 0.5, rel=1e-12)
        assert k.m >= 2 * PERT["c1"]

    def test_m_dominates_initial_layer(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = pert_params()
            c1, c2, delta = rng.uniform(0.05, 1.0, 3)
            k = bound_constants(p, c1, c2, delta)
            assert k.m >= 2 * c1
            assert k.c3 > 0 and k.c0 > 0


class TestPerturbationShapes:
    @pytest.mark.parametrize("kind", ["oscillatory", "adversarial"])
    def test_shapes_saturate_the_stated_envelopes(self, kind):
        p = pert_params()
        pert = make_perturbation(kind, **PERT, params=p, seed=4)
        xi = np.array([0.0, 0.5, 1.0])
        eta = np.array([0.01, -0.02j, 0.0])
        assert np.abs(pert.psi1(xi)) == pytest.approx(pert.psi1_envelope(p), rel=1e-15)
        for t in (p.t_star, 3.0):
            assert np.abs(pert.rho(t, xi, eta)) == pytest.approx(pert.rho_envelope(t, p),
                                                                  rel=1e-15)


class TestPerturbedIntegration:
    def test_zero_perturbation_reduces_to_closed_form(self):
        p = pert_params()
        pert = make_perturbation("zero", **PERT, params=p)
        traj = integrate_perturbed(p, pert, xi_samples=np.array([0.0, 0.7, 1.5]))
        rel = np.abs(np.abs(traj.eta) - np.abs(traj.eta0)) / np.abs(traj.eta0)
        assert np.max(rel) < 1e-8

    @pytest.mark.parametrize("kind", ["oscillatory", "adversarial"])
    def test_envelope_bound(self, kind):
        p = pert_params()
        pert = make_perturbation(kind, **PERT, params=p, seed=5)
        traj = integrate_perturbed(p, pert, xi_samples=np.array([0.0, 0.5, 1.0]))
        m_eps = traj.constants.m * p.eps ** (1.0 + pert.delta)
        assert np.max(np.abs(traj.w)) <= m_eps
        assert np.max(np.abs(traj.eta)) <= traj.constants.c0 * p.eps + m_eps
        assert np.max(np.abs(traj.eta)) <= (traj.constants.c0 + 1.0) * p.eps

    def test_gronwall_audit(self):
        p = pert_params()
        pert = make_perturbation("adversarial", **PERT, params=p, seed=8)
        traj = integrate_perturbed(p, pert, xi_samples=np.array([0.0, 1.0]))
        envelope = traj.gronwall_envelope()
        assert np.all(traj.f <= envelope * (1 + 1e-9))

    def test_smallness_condition_enforced(self):
        p = pert_params(eps=0.5)
        pert = make_perturbation("zero", **PERT, params=p)
        consts = bound_constants(p, PERT["c1"], PERT["c2"], PERT["delta"])
        eps_max = smallness_bound(p, consts, PERT["delta"])
        assert eps_max == min(1.0, p.sigma ** (-1.0 / p.q), consts.m ** (-1.0 / PERT["delta"]))
        assert 0.02 < eps_max < 0.5
        with pytest.raises(ValueError, match=rf"eps <= {eps_max!r}$"):
            integrate_perturbed(p, pert, xi_samples=np.array([0.0]))

    def test_envelope_violation_detected(self):
        p = pert_params()
        lying = PerturbationSpec(
            psi1=lambda xi: np.full(np.shape(xi), 10.0 * p.eps, dtype=complex),
            rho=lambda t, xi, eta: np.zeros_like(np.asarray(eta)),
            c1=PERT["c1"], c2=PERT["c2"], delta=PERT["delta"],
        )
        with pytest.raises(ValueError):
            integrate_perturbed(p, lying, xi_samples=np.array([0.0]))
