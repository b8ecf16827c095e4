"""One measured repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload blowup-2d --mode full [--trace] [--seed 0]

`--mode setup` stops after set-up.  The last line of standard output is one
JSON object with the timings and the physics of the repetition; `run.py`
launches this script once per repetition and judges the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Overrides of the default ExperimentConfig; every workload is a fixed config.
WORKLOADS = {
    "sweep-1d": {},
    "blowup-2d": {"d": 2, "n": 128, "L": 20.0, "s": 1.2, "eps_ladder": [0.4], "record_every": 4},
    "long-1d-dense": {"n": 4096, "L": 160.0, "eps_ladder": [0.1], "record_every": 1},
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, full: bool, traced: bool, seed: int) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nlslab
    import_s = time.perf_counter() - t0
    if not Path(nlslab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported nlslab from {nlslab.__file__}, not from this tree")
    from nlslab import harness, initial_data, lifespan, solver, spectral

    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install(nlslab)

    cfg = harness.ExperimentConfig(**WORKLOADS[workload])
    scfg = cfg.solver_config()
    phi = initial_data.build(scfg.grid, cfg.initial_data)
    bound = lifespan.theoretical_bound(spectral.fourier_forward(phi), scfg.params,
                                       s=scfg.s, eps=min(cfg.eps_ladder))
    state = solver.init(scfg, phi)
    out = {"setup_s": time.perf_counter() - t0, "import_s": import_s}
    if not full:
        return out

    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE / "out"))
    try:
        t1 = time.perf_counter()
        if workload == "sweep-1d":
            records, summary, bound = lifespan.sweep(cfg.eps_ladder, scfg, cfg.initial_data,
                                                     tolerance=cfg.tolerance, jobs=1)
            paths = [harness.persist_run(rec, work) for rec in records]
            harness.persist_summary(records, summary, work)
            verdict = summary.verdict
        else:
            records = [solver.run_to_blowup(state)]
            verdict = None
        out["wall_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = _peak_rss_mb()
        if workload != "sweep-1d":
            # what `nlslab simulate` and the sweep add to a record after the run
            rec = records[0]
            rec.bound_value = bound.bound_value
            rec.max_remainder_scaled = lifespan.max_remainder_scaled(rec.diagnostics, scfg, rec.T_eps)
            paths = [harness.persist_run(rec, work)]
        out["persisted_T_eps"] = [harness.load_run(p).T_eps for p in paths]
        out["persist_bytes"] = sum(p.stat().st_size for p in paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out["runs"] = [{
        "eps": rec.eps,
        "status": rec.status,
        "T_eps": rec.T_eps,
        "q_eps": rec.invariant_quantity,
        "max_remainder_scaled": rec.max_remainder_scaled,
    } for rec in records]
    out["bound_value"] = bound.bound_value
    out["verdict"] = verdict
    out["samples"] = sum(len(rec.diagnostics.samples) for rec in records)
    if tracer is not None:
        layer = tracer.metrics()
        layer["setup.import_s"] = import_s
        layer["solver.samples"] = out["samples"]
        layer["harness.persist_run.bytes"] = out["persist_bytes"]
        layer["spectral.fft_pair_us"] = spans.fft_pair_us(scfg.grid.shape, seed)
        layer["solver.step_over_fft_pair"] = layer["solver.step_us"] / layer["spectral.fft_pair_us"]
        out["trace"] = layer
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    out = measure(args.workload, args.mode == "full", args.trace, args.seed)
    # json writes floats with repr(), so T_eps round-trips bit for bit
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
