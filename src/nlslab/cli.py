"""Command-line entry points.

Subcommands: print-config, bounds, simulate, sweep, profile-ode, diagnostics,
convergence.  The config file states the experiment only; --out (default
"runs") and --jobs (default 1) change only where outputs go and how many
processes compute them.  An --out that is or lies under a non-directory is
refused before any computation; else each output is created when it is
written, after the command has computed it.  Exit status: 0 on success
(including a conclusive PASS/FAIL sweep verdict), 1 on a domain,
configuration, run or I/O error, 2 on an inconclusive verdict (every rung
censored or contaminated, or a config with no bound: theta = 1 or
Im(lam) <= 0) or a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import (ExperimentConfig, persist_diagnostics, persist_run, persist_summary,
                      persist_trajectory)
from .initial_data import build as build_initial_data
from .lifespan import (
    critical_bound,
    critical_pointwise_time,
    decay_ratio_diagnostics,
    gamma_exponent,
    remainder_series,
    sweep,
    t_star_time,
    theoretical_bound,
)
from .spectral import Grid, fourier_forward, sup_modulus


def _load_config(args) -> ExperimentConfig:
    return ExperimentConfig() if args.config is None else ExperimentConfig.load(args.config)


def _check_out(args) -> None:
    """Refuse, before any computation, an --out that is or lies under a non-directory."""
    out = Path(args.out)
    nearest = next((p for p in (out, *out.parents) if p.exists()), Path("."))
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out {str(out)!r}: {str(nearest)!r} is not a directory")


def _say_if_outside(cfg: ExperimentConfig, record) -> None:
    """One line for a run whose s lies outside the paper's index range."""
    if record.outside_hypotheses:
        print(f"s = {cfg.s!r} lies outside the admissible range d/2 < s < min(2, 1 + 2 theta/d) "
              f"for d = {cfg.d}, theta = {cfg.theta!r}: records are flagged outside_hypotheses")


def _cmd_print_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(cfg.serialize())
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    params = cfg.params()
    grid = cfg.grid()
    phi = build_initial_data(grid, cfg.initial_data)
    phi_hat = fourier_forward(phi)
    sup = sup_modulus(phi_hat)
    print(f"sup |phi_hat| = {sup!r}")
    eps = min(cfg.eps_ladder)
    if cfg.theta < 1.0:
        rep = theoretical_bound(phi_hat, params)
        print(f"bound_value = {rep.bound_value!r}")
        print(f"tau0 = {rep.tau0!r}")
        # the remainder window [t_star, T/2] and its decay rate gamma need
        # gamma = (2s-d)/8 in (0, 1/2], which a config run outside the hypotheses lacks,
        # and t_star needs eps > 0, which a ladder ending on a zero rung lacks
        try:
            gamma = gamma_exponent(cfg.s, cfg.d)
        except ValueError as e:
            print(f"gamma and t_star are undefined: {e}")
        else:
            print(f"gamma = {gamma!r}")
            if eps == 0.0:
                print("t_star is undefined at eps = 0")
            else:
                print(f"t_star(eps={eps!r}) = {t_star_time(eps, cfg.theta, cfg.d)!r}")
    else:
        bound = critical_bound(phi_hat, cfg.d, cfg.lam)
        print(f"critical bound_value = {bound!r}")
        print(f"heuristic blow-up time at eps*sup = {eps * sup!r}: "
              f"{critical_pointwise_time(eps * sup, cfg.d, cfg.lam)!r}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _check_out(args)
    (record,), _, _ = sweep(cfg.eps_ladder[:1], cfg.solver_config(), cfg.initial_data)
    _say_if_outside(cfg, record)
    print(f"eps = {record.eps!r}")
    print(f"status = {record.status}")
    if record.T_eps is not None:
        print(f"T_eps = {record.T_eps!r}")
        print(f"q_eps = {record.invariant_quantity!r}")
    samples = record.diagnostics.samples
    masses = np.array([s.mass for s in samples])
    drift = float(np.max(np.abs(masses - masses[0])) / masses[0]) if masses[0] > 0 else 0.0
    if cfg.lam.imag == 0.0:
        print(f"unitary run: relative l2 drift = {drift!r}")
    print(f"max tail fraction = {record.max_tail_fraction!r}")
    print(f"max shell fraction = {record.max_shell_fraction!r}")
    print(record.diagnostics.stats)
    print(f"wrote {persist_run(record, args.out)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    _check_out(args)
    records, summary, _ = sweep(cfg.eps_ladder, cfg.solver_config(), cfg.initial_data,
                                tolerance=cfg.tolerance, jobs=args.jobs)
    _say_if_outside(cfg, records[0])
    print(f"bound_value = {summary.bound_value!r}")
    for rec, q in zip(records, summary.q_values):
        q_str = "censored/invalid" if q is None else repr(q)
        print(f"eps={rec.eps!r} status={rec.status} T_eps={rec.T_eps!r} q_eps={q_str}")
    print(f"verdict: {summary.verdict} "
          f"(running min = {summary.running_min[-1]!r}, tolerance = {summary.tolerance!r})")
    for rec in records:
        persist_run(rec, args.out)
    print(f"wrote {persist_summary(records, summary, args.out)}")
    return 2 if summary.verdict == "INCONCLUSIVE" else 0


def _cmd_profile_ode(args) -> int:
    """The adversarial perturbation (c1 = c2 = 0.3, delta = 1, seed 0) from
    t_* = 0.5 with sigma = 0.2 tau1, at eps = 0.9 of the smallness bound."""
    # only this command loads the profile ODE
    from .profile_ode import (OdeParams, bound_constants, integrate_perturbed,
                              make_perturbation, smallness_bound, sup_bound_check)

    cfg = _load_config(args)
    _check_out(args)
    c, delta = 0.3, 1.0
    base = OdeParams(a=cfg.theta, b=cfg.params().b, lam=cfg.lam, eps=1.0,
                     t_star=0.5, psi0_sup=1.0)
    params = replace(base, sigma=0.2 * base.tau1)
    eps = 0.9 * smallness_bound(params, bound_constants(params, c, c, delta), delta)
    params = replace(params, eps=eps)
    pert = make_perturbation("adversarial", c, c, delta, params, seed=0)
    traj = integrate_perturbed(params, pert, np.array([0.0, 0.5, 1.0, 1.5]))
    k = traj.constants
    print(f"eps = {eps!r}, sigma = {params.sigma!r}, tau1 = {params.tau1!r}")
    print(f"C0 = {k.c0!r}, C3 = {k.c3!r}, M = {k.m!r}")
    print(f"sup |eta0|/eps over window = {sup_bound_check(params)!r} (<= C0)")
    sup_eta = float(np.max(np.abs(traj.eta)))
    sup_w = float(np.max(np.abs(traj.w)))
    print(f"sup |eta| = {sup_eta!r} (envelope {(k.c0 + 1) * eps!r})")
    print(f"sup |w| = {sup_w!r} (envelope {k.m * eps ** (1 + delta)!r})")
    print(f"wrote {persist_trajectory(traj, args.out)}")
    return 0


def _cmd_diagnostics(args) -> int:
    cfg = _load_config(args)
    _check_out(args)
    # the ratios need gamma = (2s-d)/8 in (0, 1/2]: init refuses the config before the run
    (record,), _, _ = sweep(cfg.eps_ladder[:1], cfg.solver_config(), cfg.initial_data,
                            diagnostics=True)
    print(f"run status = {record.status}, T_eps = {record.T_eps!r}")
    ratios = decay_ratio_diagnostics(record.diagnostics)
    for name in ("r1", "r2", "r3"):
        vals = [getattr(r, name) for r in ratios if getattr(r, name) is not None]
        if vals:
            print(f"{name}: min = {min(vals)!r}, max = {max(vals)!r}  ({len(vals)} samples)")
        else:
            print(f"{name}: no valid samples")
    times, sups = remainder_series(record.diagnostics)
    if len(times):
        print(f"remainder sup over t in [{float(times[0])!r}, {float(times[-1])!r}]: "
              f"first = {float(sups[0])!r}, max = {float(np.max(sups))!r}")
    if record.max_remainder_scaled is not None:
        print(f"max remainder scaled = {record.max_remainder_scaled!r}")
    print(f"wrote {persist_diagnostics(ratios, args.out)}")
    return 0


def _cmd_convergence(args) -> int:
    # only this command loads the convergence study
    from .convergence import convergence_study

    cfg = _load_config(args)
    grid = Grid(cfg.d, min(cfg.n, 64), min(cfg.L, 10.0))
    solver_cfg = replace(cfg.solver_config(), grid=grid)
    phi = build_initial_data(grid, cfg.initial_data)
    rep = convergence_study(solver_cfg, phi)
    print(f"dt ladder = {rep.dts}")
    print(f"temporal errors = {rep.temporal_errors}")
    print(f"error ratios = {rep.temporal_ratios}")
    print(f"measured order = {rep.measured_orders[0]!r}")
    print(f"spatial errors (n={rep.spatial_ns}) = {rep.spatial_errors}")
    print(f"spatial error drop = {rep.spatial_drops[0]!r}")
    return 0


_COMMANDS = {
    "print-config": _cmd_print_config,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "profile-ode": _cmd_profile_ode,
    "diagnostics": _cmd_diagnostics,
    "convergence": _cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="Spectral lifespan laboratory for small-data amplifying NLS",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="path to a JSON experiment config")
    parser.add_argument("--out", default="runs",
                        help="output directory, created when the first output is written")
    parser.add_argument("--jobs", type=int, default=1, help="parallel runs in a sweep (>= 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be positive, got {args.jobs}")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
