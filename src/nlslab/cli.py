"""Command-line entry points.

Subcommands: print-config, bounds, simulate, sweep, profile-ode, diagnostics,
convergence.  Exit status: 0 on success (including a conclusive PASS/FAIL
sweep verdict), 1 on a domain or configuration error, 2 on an inconclusive
verdict.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import ExperimentConfig, persist_run, persist_summary
from .initial_data import build as build_initial_data
from .lifespan import (
    critical_bound,
    critical_pointwise_time,
    decay_ratio_diagnostics,
    remainder_series,
    sweep,
    theoretical_bound,
)
from .profile_ode import (
    OdeParams,
    bound_constants,
    integrate_perturbed,
    make_perturbation,
    sup_bound_check,
)
from .solver import convergence_study, init, run_to_blowup
from .spectral import fourier_forward, sup_modulus


def _persist_reported(write, *args_) -> bool:
    """Run a persistence step; an IO failure is reported, never fatal
    (the in-process results were already printed)."""
    try:
        path = write(*args_)
        print(f"wrote {path}")
        return True
    except OSError as e:
        print(f"warning: could not write output: {e}", file=sys.stderr)
        return False


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        cfg = ExperimentConfig.load(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.jobs is not None:
        cfg.jobs = args.jobs
    if args.tolerance is not None:
        cfg.tolerance = args.tolerance
    if args.enforce_hypotheses is not None:
        cfg.enforce_hypotheses = args.enforce_hypotheses == "on"
    return cfg


def _cmd_print_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(cfg.serialize())
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    params = cfg.params()  # validates theta in (0, 1] and the dimension
    grid = cfg.grid()
    phi = build_initial_data(grid, cfg.initial_data)
    phi_hat = fourier_forward(phi)
    sup = sup_modulus(phi_hat)
    print(f"sup |phi_hat| = {sup!r}")
    if cfg.theta < 1.0:
        rep = theoretical_bound(phi_hat, params, s=cfg.s,
                                eps=min(cfg.eps_ladder))
        print(f"bound_value = {rep.bound_value!r}")
        print(f"tau0 = {rep.tau0!r}")
        print(f"tau1 = {rep.tau1!r}")
        print(f"gamma = {rep.gamma!r}")
        print(f"t_star(eps={min(cfg.eps_ladder)!r}) = {rep.t_star!r}")
    else:
        bound = critical_bound(phi_hat, cfg.d, cfg.lam)
        eps = min(cfg.eps_ladder)
        print(f"critical bound_value = {bound!r}")
        print(f"heuristic blow-up time at eps*sup = {eps * sup!r}: "
              f"{critical_pointwise_time(eps * sup, cfg.d, cfg.lam)!r}")
    return 0


def _run_configured(args):
    """Load the config and run its first ladder rung to blow-up."""
    cfg = _load_config(args)
    solver_cfg = cfg.solver_config()
    phi = build_initial_data(cfg.grid(), cfg.initial_data)
    return cfg, solver_cfg, run_to_blowup(init(solver_cfg, phi))


def _cmd_simulate(args) -> int:
    cfg, _, record = _run_configured(args)
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
    if cfg.out_dir:
        path = persist_run(record, cfg.out_dir)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    records, summary, bound = sweep(cfg.eps_ladder, cfg.solver_config(),
                                    cfg.initial_data, tolerance=cfg.tolerance,
                                    jobs=cfg.jobs)
    print(f"bound_value = {bound.bound_value!r}")
    for rec, q in zip(records, summary.q_values):
        q_str = "censored/invalid" if q is None else repr(q)
        print(f"eps={rec.eps!r} status={rec.status} T_eps={rec.T_eps!r} q_eps={q_str}")
    print(f"verdict: {summary.verdict} "
          f"(running min = {summary.running_min[-1]!r}, tolerance = {summary.tolerance!r})")
    if cfg.out_dir:
        for rec in records:
            persist_run(rec, cfg.out_dir)
        path = persist_summary(records, summary, cfg.out_dir)
        print(f"wrote {path}")
    return 2 if summary.verdict == "INCONCLUSIVE" else 0


def _cmd_profile_ode(args) -> int:
    cfg = _load_config(args)
    po = cfg.profile_ode
    params_nl = cfg.params()
    base = OdeParams(a=cfg.theta, b=params_nl.b, lam=cfg.lam, eps=1.0,
                     t_star=po["t_star"], psi0_sup=1.0)
    sigma = po["sigma_fraction"] * base.tau1
    consts_probe = bound_constants(
        OdeParams(a=cfg.theta, b=params_nl.b, lam=cfg.lam, eps=1.0,
                  t_star=po["t_star"], psi0_sup=1.0, sigma=sigma),
        po["c1"], po["c2"], po["delta"])
    eps = po["eps"]
    if eps is None:
        eps = 0.9 * min(1.0, sigma ** (-1.0 / base.q),
                        consts_probe.m ** (-1.0 / po["delta"]))
    params = OdeParams(a=cfg.theta, b=params_nl.b, lam=cfg.lam, eps=eps,
                       t_star=po["t_star"], psi0_sup=1.0, sigma=sigma)
    pert = make_perturbation(po["kind"], po["c1"], po["c2"], po["delta"],
                             params, seed=po["seed"])
    traj = integrate_perturbed(params, pert, np.asarray(po["xi_samples"]))
    k = traj.constants
    print(f"eps = {eps!r}, sigma = {sigma!r}, tau1 = {params.tau1!r}")
    print(f"C0 = {k.c0!r}, C3 = {k.c3!r}, M = {k.m!r}")
    print(f"sup |eta0|/eps over window = {sup_bound_check(params)!r} (<= C0)")
    sup_eta = float(np.max(np.abs(traj.eta)))
    sup_w = float(np.max(np.abs(traj.w)))
    print(f"sup |eta| = {sup_eta!r} (envelope {(k.c0 + 1) * eps!r})")
    print(f"sup |w| = {sup_w!r} (envelope {k.m * eps ** (1 + po['delta'])!r})")
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "profile_trajectory.csv"
        traj.to_csv(path)
        print(f"wrote {path}")
    return 0


def _cmd_diagnostics(args) -> int:
    cfg, solver_cfg, record = _run_configured(args)
    print(f"run status = {record.status}, T_eps = {record.T_eps!r}")
    ratios = decay_ratio_diagnostics(record.diagnostics, solver_cfg)
    for name in ("r1", "r2", "r3"):
        vals = [getattr(r, name) for r in ratios if getattr(r, name) is not None]
        if vals:
            print(f"{name}: min = {min(vals)!r}, max = {max(vals)!r}  ({len(vals)} samples)")
        else:
            print(f"{name}: no valid samples")
    times, sups = remainder_series(record.diagnostics, solver_cfg)
    if len(times):
        print(f"remainder sup over t in [{times[0]!r}, {times[-1]!r}]: "
              f"first = {sups[0]!r}, max = {float(np.max(sups))!r}")
    if record.max_remainder_scaled is not None:
        print(f"max remainder scaled = {record.max_remainder_scaled!r}")
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "diagnostics.csv"
        with open(path, "w") as fh:
            fh.write("t,r1,r2,r3\n")
            for r in ratios:
                row = [repr(float(r.t))] + [
                    "" if v is None else repr(float(v)) for v in (r.r1, r.r2, r.r3)]
                fh.write(",".join(row) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _load_config(args)
    from .spectral import Grid
    from dataclasses import replace

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
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--jobs", type=int, default=None, help="parallel runs in a sweep")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="relative tolerance for the bound verdict")
    parser.add_argument("--enforce-hypotheses", choices=["on", "off"], default=None,
                        help="reject configurations outside the admissible index range")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
