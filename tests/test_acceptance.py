"""Acceptance suite: every gate criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The sweep criteria share a module-scoped set of ladder runs
(seconds each on the shipped grid).
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlslab import (
    ComplexField,
    Grid,
    NonlinearityParams,
    Space,
    free_propagate,
)
from nlslab.initial_data import gaussian
from nlslab.lifespan import (
    critical_bound,
    critical_pointwise_time,
    gamma_exponent,
    max_remainder_scaled,
    remainder_series,
    sweep,
    t_star_time,
    theoretical_bound,
)
from nlslab.profile_ode import (
    OdeParams,
    bound_constants,
    eta0_blowup_time,
    eta0_modulus,
    integrate_perturbed,
    make_perturbation,
)
from nlslab import solver
from nlslab.convergence import convergence_study
from nlslab.solver import SolverConfig, init, run_to_blowup
from stepping import fixed_step, noting_offers

GAUSS = {"kind": "gaussian", "width": 1.0}


def report(criterion: str, checks):
    """Print one PASS/FAIL line for a criterion, then assert every check."""
    ok = all(bool(v) for _, v in checks)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for desc, v in checks:
        assert v, f"{criterion}: {desc}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_bound_formula():
    g = Grid(1, 128, 10.0)
    datum = ComplexField(g, Space.FREQUENCY, np.exp(-g.xi_1d**2 / 2))
    rep = theoretical_bound(datum, NonlinearityParams(lam=1j, theta=0.5, d=1))
    report("1 bound-formula", [
        ("bound_value = 0.5 to 1e-12", abs(rep.bound_value - 0.5) < 1e-12),
        ("tau0 = 0.25 to 1e-12", abs(rep.tau0 - 0.25) < 1e-12),
    ])


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_ode_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.1, 0.9)
        b = rng.uniform(0.2, 2.0)
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0))
        params = OdeParams(a=a, b=b, lam=lam, eps=rng.uniform(0.05, 0.5),
                           t_star=rng.uniform(0.3, 2.0), psi0_sup=1.0)
        psi0_abs = rng.uniform(0.3, 1.0)
        t_blow = eta0_blowup_time(psi0_abs, params)
        t_hi = min(params.t_star + 0.9 * (t_blow - params.t_star),
                   params.t_star + 500.0)
        times = np.linspace(params.t_star, t_hi, 100)

        z0 = params.eps * psi0_abs

        def rhs(t, y):
            w = y[0] + 1j * y[1]
            dw = -1j * lam * t ** (-a) * abs(w) ** b * w
            return [dw.real, dw.imag]

        sol = solve_ivp(rhs, (params.t_star, times[-1]), [z0, 0.0],
                        method="DOP853", rtol=1e-11, atol=1e-14, t_eval=times)
        assert sol.success
        mod_ode = np.hypot(sol.y[0], sol.y[1])
        mod_closed = eta0_modulus(times, psi0_abs, params)
        worst = max(worst, float(np.max(np.abs(mod_ode - mod_closed) / mod_closed)))
    report("2 ode-oracle-equivalence", [
        (f"50 draws, 100 times each, worst rel err {worst:.2e} < 1e-8", worst < 1e-8),
    ])


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_growth_bound_property_suite():
    rng = np.random.default_rng(41)
    violations = 0
    n_draws = 100
    for k in range(n_draws):
        a = rng.uniform(0.35, 0.6)
        b = rng.uniform(0.8, 1.3)
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        psi0_sup = rng.uniform(0.6, 1.2)
        t_star = rng.uniform(0.3, 1.0)
        c1, c2 = rng.uniform(0.05, 0.4, 2)
        delta = rng.uniform(0.9, 1.2)
        probe = OdeParams(a=a, b=b, lam=lam, eps=1.0, t_star=t_star,
                          psi0_sup=psi0_sup)
        # keep the Gronwall exponent moderate so the admissible eps (and with
        # it the window length) stays desk-sized
        consts_probe = bound_constants(
            OdeParams(a=a, b=b, lam=lam, eps=1.0, t_star=t_star,
                      psi0_sup=psi0_sup, sigma=0.2 * probe.tau1), c1, c2, delta)
        sigma = min(0.2 * probe.tau1,
                    (3.0 * 2.0 * (1.0 - a) / consts_probe.c3) ** (1.0 / (1.0 - a)))
        params = OdeParams(a=a, b=b, lam=lam, eps=1.0, t_star=t_star,
                           psi0_sup=psi0_sup, sigma=sigma)
        consts = bound_constants(params, c1, c2, delta)
        # the last term shrinks eps below the admissibility cap until the
        # window [t_star, sigma eps^(-2q)] is at least a few units long
        eps = 0.9 * min(1.0, sigma ** (-1.0 / params.q), consts.m ** (-1.0 / delta),
                        (sigma / (t_star + 5.0)) ** (1.0 / (2.0 * params.q)))
        params = OdeParams(a=a, b=b, lam=lam, eps=eps, t_star=t_star,
                           psi0_sup=psi0_sup, sigma=sigma)
        kind = ("zero", "oscillatory", "adversarial")[k % 3]
        pert = make_perturbation(kind, c1, c2, delta, params, seed=int(rng.integers(2**31)))
        xi = np.array([0.0, 0.6, 1.2, 2.0])
        traj = integrate_perturbed(params, pert, xi,
                                   t_end=min(params.horizon, t_star + 200.0),
                                   n_output=120)
        bound = (traj.constants.c0 + 1.0) * eps
        if np.max(np.abs(traj.eta)) > bound:
            violations += 1
    report("3 growth-bound-property-suite", [
        (f"{n_draws} admissible draws, zero envelope violations (got {violations})",
         violations == 0),
    ])


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_solver_fidelity(monkeypatch):
    checks = []
    # (a) lam = 0 equals the exact free propagator
    params0 = NonlinearityParams(lam=0j, theta=0.5, d=1)
    g = Grid(1, 256, 20.0)
    cfg = SolverConfig(grid=g, params=params0, eps=0.3, s=1.0, t_max=1.0,
                       record_every=1)
    phi = gaussian(g)
    # advance with the run loop's own step law and compare the field of the
    # last accepted step, which lands on t_max
    accept, accepted = solver._accept, []

    def spy(*args, **kwargs):
        accepted.append(accept(*args, **kwargs))
        return accepted[-1]

    monkeypatch.setattr(solver, "_accept", spy)
    rec = run_to_blowup(init(cfg, phi))
    last = accepted[-1]
    checks.append(("free run reaches t_max with its last accepted field there",
                   rec.status == "reached-t-max" and last.t == rec.T_eps))
    exact = free_propagate(ComplexField(g, Space.PHYSICAL, 0.3 * phi.values), 1.0)
    err_a = float(np.max(np.abs(last.u - exact.values)))
    checks.append((f"free-case error {err_a:.2e} < 1e-12", err_a < 1e-12))

    # (b) real lam conserves mass over 1e3 steps
    params_r = NonlinearityParams(lam=1.0 + 0j, theta=0.5, d=1)
    cfg_r = SolverConfig(grid=g, params=params_r, eps=0.3, s=1.0, t_max=50.0)
    st = init(cfg_r, phi)
    m0 = st.diagnostics.samples[0].mass
    for _ in range(1000):
        st = fixed_step(st, 0.005)
    drift = max(abs(s.mass - m0) / m0 for s in st.diagnostics.samples)
    checks.append((f"mass drift {drift:.2e} < 1e-10 over 1000 steps", drift < 1e-10))

    # (c) Strang self-convergence order
    cfg_c = SolverConfig(grid=Grid(1, 32, 10.0), params=params_r, eps=0.5, s=1.0,
                         t_max=10.0)
    rep = convergence_study(cfg_c, gaussian(Grid(1, 32, 10.0)), refinements=2,
                            t_end=0.5, dt0=0.02)
    order = rep.measured_orders[0]
    checks.append((f"order {order:.3f} in [1.8, 2.2]", 1.8 <= order <= 2.2))
    checks.append((f"error ratio {rep.temporal_ratios[0]:.2f} in [3.5, 4.5]",
                   3.5 <= rep.temporal_ratios[0] <= 4.5))
    report("4 solver-fidelity", checks)


# ------------------------------------------------------- criteria 5, 6, 7 runs

LADDER = [0.4, 0.3, 0.2, 0.15]


@pytest.fixture(scope="module")
def ladder_runs():
    """Shared runs: lam = i and lam = 2i ladders, plus an eps = 0.2 refinement.
    out["offers"] maps the id of each run's diagnostics log to the times of
    every field offered to it: each accepted field and its trial's midpoint,
    as the log is offered them."""
    out = {"offers": {}}

    def noting(log, t):
        out["offers"].setdefault(id(log), []).append(t)

    with pytest.MonkeyPatch.context() as mp:
        noting_offers(mp, noting)
        for lam in (1j, 2j):
            params = NonlinearityParams(lam=lam, theta=0.5, d=1)
            cfg = SolverConfig(grid=Grid(1, 2048, 80.0), params=params, eps=0.4, s=1.0,
                               t_max=200.0, record_every=4)
            out[lam] = sweep(LADDER, cfg, GAUSS, tolerance=0.1)
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        cfg_fine = SolverConfig(grid=Grid(1, 4096, 80.0), params=params, eps=0.2, s=1.0,
                                t_max=200.0, record_every=4)
        out["fine"] = sweep([0.2], cfg_fine, GAUSS, tolerance=0.1)
    return out


def test_criterion_5_lifespan_bound_desk_scale(ladder_runs):
    records, summary, bound = ladder_runs[1j]
    checks = [("verdict PASS at tolerance 0.1", summary.verdict == "PASS")]
    usable = [r for r in records if r.usable_for_bound()]
    checks.append(("all four rungs blow up uncensored", len(usable) == 4))
    for rec in usable:
        q = rec.invariant_quantity
        checks.append((
            f"eps={rec.eps}: q={q:.4f} >= 0.9 * bound {0.9 * bound.bound_value:.4f}",
            q >= 0.9 * bound.bound_value))
    checks.append(("summary.min_q is the least usable q",
                   summary.min_q == min(r.invariant_quantity for r in usable)))
    times = [r.T_eps for r in usable]
    checks.append(("T_eps increases as eps decreases",
                   all(a < b for a, b in zip(times, times[1:]))))
    # rough lower bound: T * eps^2 across the ladder stays within 20% of the
    # constant extracted from the smallest-eps rung
    ratios = [r.T_eps * r.eps**2 for r in usable]
    d0 = ratios[-1]
    checks.append((f"rough-bound ratios >= 0.8 * D0 (D0={d0:.3f})",
                   all(r >= 0.8 * d0 for r in ratios)))
    report("5 lifespan-bound-desk-scale", checks)


def test_criterion_6_remainder_decay(ladder_runs):
    records, _, _ = ladder_runs[1j]
    rec = next(r for r in records if r.eps == 0.2)
    params = NonlinearityParams(lam=1j, theta=0.5, d=1)
    cfg = SolverConfig(grid=Grid(1, 2048, 80.0), params=params, eps=0.2, s=1.0,
                       t_max=200.0, record_every=4)
    t_star = t_star_time(0.2, 0.5, 1)
    gamma = gamma_exponent(1.0, 1)
    times, sups = remainder_series(rec.diagnostics, t_min=t_star)
    window = times <= rec.T_eps / 2.0
    scaled = sups[window] * times[window] ** (0.5 + gamma)
    checks = [
        (f"{window.sum()} samples in [t_star, T/2]", window.sum() >= 2),
        (f"max scaled {scaled.max():.4f} <= 3x value at t_star {scaled[0]:.4f}",
         scaled.max() <= 3.0 * scaled[0]),
    ]
    fine_rec = ladder_runs["fine"][0][0]
    coarse_val = rec.max_remainder_scaled
    fine_val = fine_rec.max_remainder_scaled
    ratio = fine_val / coarse_val
    checks.append((f"n -> 2n stability: ratio {ratio:.3f} within [0.5, 2]",
                   0.5 <= ratio <= 2.0))
    report("6 remainder-decay", checks)


def test_criterion_6_window_keeps_every_offer(ladder_runs):
    # the grid of kept fields is dense from t_star on, so every field offered in
    # the remainder window [t_star, T/2] becomes a row: 2 at eps = 0.2, 7 at 0.15.
    # Each run lands on t_star, so the first is read there
    records, _, _ = ladder_runs[1j]
    checks = []
    for eps, want in ((0.2, 2), (0.15, 7)):
        rec = next(r for r in records if r.eps == eps)
        t_star = t_star_time(eps, 0.5, 1)

        def window(times):
            return [t for t in times if t_star <= t <= rec.T_eps / 2.0]

        offered = window(ladder_runs["offers"][id(rec.diagnostics)])
        kept = window([row.t for row in rec.diagnostics.rows])
        checks.append((f"eps={eps}: {len(kept)} of {len(offered)} window offers kept, all {want}",
                       kept == offered and len(kept) == want))
        checks.append((f"eps={eps}: the first kept at t_star = {t_star}", kept[0] == t_star))
    report("6 remainder-window offers", checks)


def test_criterion_7_monotone_in_gain(ladder_runs):
    rec1, sum1, bound1 = ladder_runs[1j]
    rec2, sum2, bound2 = ladder_runs[2j]
    checks = []
    for a, b in zip(rec1, rec2):
        checks.append((f"eps={a.eps}: T(2i)={b.T_eps:.3f} < T(i)={a.T_eps:.3f}",
                       b.T_eps < a.T_eps))
    checks.append(("bound_value exactly halves",
                   abs(bound2.bound_value - bound1.bound_value / 2.0) < 1e-14))
    checks.append(("both verdicts PASS",
                   sum1.verdict == "PASS" and sum2.verdict == "PASS"))
    report("7 monotone-in-gain", checks)


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_critical_case(monkeypatch):
    g = Grid(1, 128, 10.0)
    datum = ComplexField(g, Space.FREQUENCY, np.exp(-g.xi_1d**2 / 2))
    bound = critical_bound(datum, 1, 1j)
    heuristic = critical_pointwise_time(0.1, 1, 1j)
    checks = [
        (f"critical bound {bound!r} = 0.5 to 1e-12", abs(bound - 0.5) < 1e-12),
        ("heuristic time = e^50 to rel 1e-12",
         abs(heuristic - np.exp(50.0)) / np.exp(50.0) < 1e-12),
    ]
    # short-time profile consistency: residual of i dA/dt = (lam/t)|A|^2 A
    # stays bounded over t in [1, 100] (the full e^(c/eps^2) lifespan is out
    # of desk-scale reach by design); theta = 1 has no remainder window, so
    # the run computes its rows with diagnostics=True
    params = NonlinearityParams(lam=1j, theta=1.0, d=1)
    gc = Grid(1, 16384, 400.0)
    monkeypatch.setattr(solver, "_FIRST_STEP", 0.1 * 0.5)
    cfg = SolverConfig(grid=gc, params=params, eps=0.1, s=1.0, t_max=100.0,
                       record_every=20)
    rec = run_to_blowup(init(cfg, gaussian(gc), diagnostics=True))
    checks.append(("run censored at t_max (no blow-up by t=100)", rec.status == "reached-t-max"))
    times, sups = remainder_series(rec.diagnostics, t_min=1.0)
    checks.append((
        f"residual bounded: max {sups.max():.2e} <= 3x first {sups[0]:.2e}",
        sups.max() <= 3.0 * sups[0]))
    checks.append((f"boundary stays clean (shell {rec.max_shell_fraction:.1e})",
                   rec.max_shell_fraction < 1e-6))
    report("8 critical-case", checks)
