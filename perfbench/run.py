"""nlslab benchmark: time blow-up workloads end to end, or trace them per layer.

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  Each repetition of the workload runs in a fresh interpreter
(`worker.py`), one at a time, single-threaded.  Repetitions start until
`--seconds` have passed, with at least MIN_REPS of them; timings are medians
over repetitions.  Every repetition's physics is checked against
`reference.json`.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
of BENCHMARK.json for `--trace 0` and its per-layer metrics for `--trace 1`.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 4          # full repetitions per run, whatever --seconds says
MIN_SETUPS = 8        # set-up samples per run; set-up-only children top them up
DEADLINE_S = 170.0    # a run never outlives this, children included
T_EPS_RTOL = 1e-3     # the solver's own bisection bracket, relative


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_model": None,
        "cache": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts["cache"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def child(workload: str, mode: str, traced: bool, seed: int, deadline: float) -> dict:
    """Run one worker to completion; a crash comes back as {"error": ...}."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed)] + (["--trace"] if traced else [])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def physics_problems(rep: dict, ref: dict) -> list:
    """Why a full repetition's results disagree with the stored fingerprint."""
    if "error" in rep:
        return [rep["error"]]
    problems = []
    if len(rep["runs"]) != len(ref["runs"]):
        return [f"{len(rep['runs'])} runs, reference has {len(ref['runs'])}"]
    for got, want in zip(rep["runs"], ref["runs"]):
        tag = f"eps={want['eps']}"
        if got["status"] != want["status"]:
            problems.append(f"{tag}: status {got['status']} != {want['status']}")
            continue
        for key in ("T_eps", "q_eps"):
            if not abs(got[key] - want[key]) <= T_EPS_RTOL * abs(want[key]):
                problems.append(f"{tag}: {key} {got[key]!r} outside {T_EPS_RTOL} of {want[key]!r}")
        rem = got["max_remainder_scaled"]
        if rem is not None and not (math.isfinite(rem) and rem > 0):
            problems.append(f"{tag}: max_remainder_scaled {rem!r}")
    if rep["persisted_T_eps"] != [r["T_eps"] for r in rep["runs"]]:
        problems.append("persisted T_eps differ from the in-memory records")
    if not math.isclose(rep["bound_value"], ref["bound_value"], rel_tol=1e-12):
        problems.append(f"bound_value {rep['bound_value']!r} != {ref['bound_value']!r}")
    if rep["verdict"] != ref["verdict"]:
        problems.append(f"verdict {rep['verdict']} != {ref['verdict']}")
    return problems


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run the repetitions of one benchmark run; returns what the result line needs."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    warm = child(workload, "setup", False, seed, deadline)   # compiles bytecode, fills caches
    if "error" in warm:
        raise RuntimeError(f"set-up failed: {warm['error']}")

    ref = json.loads((HERE / "reference.json").read_text())[workload]
    # a traced run alternates untraced and traced repetitions, for the overhead
    kinds = [False, True] if traced else [False]
    min_rounds = 1 if traced else MIN_REPS
    reps, setups, problems = [], [], []
    rounds = 0
    while time.monotonic() < deadline and (
            rounds < min_rounds or time.monotonic() - start < seconds):
        rounds += 1
        for kind in kinds:
            rep = child(workload, "full", kind, seed, deadline)
            rep["traced"] = kind
            reps.append(rep)
            bad = physics_problems(rep, ref)
            rep["problems"] = bad
            problems += bad
            if "setup_s" in rep:
                setups.append(rep["setup_s"])
            print(f"rep {len(reps)} traced={int(kind)} "
                + (f"wall_s={rep['wall_s']:.4f} setup_s={rep['setup_s']:.4f}" if not bad else
                   "FAILED: " + "; ".join(bad)), flush=True)
    attempted = len(reps)
    failed = sum(1 for rep in reps if rep["problems"])
    while len(setups) < MIN_SETUPS and time.monotonic() < deadline:
        rep = child(workload, "setup", False, seed, deadline)
        attempted += 1
        if "error" in rep:
            failed += 1
            problems.append(rep["error"])
        else:
            setups.append(rep["setup_s"])

    good = [rep for rep in reps if not rep["problems"]]
    fingerprints = {json.dumps([r["T_eps"] for r in rep["runs"]]) for rep in good}
    if len(fingerprints) > 1:
        problems.append(f"T_eps not bit-identical across repetitions: {sorted(fingerprints)}")
    return {"reps": reps, "setups": setups, "attempted": attempted, "failed": failed,
            "problems": problems, "ref": ref}


def median_of(reps, key):
    values = [rep[key] for rep in reps if key in rep]
    return statistics.median(values) if values else None


def end_to_end(res: dict) -> dict:
    reps = [rep for rep in res["reps"] if not rep["traced"] and not rep["problems"]]
    return {
        "wall_s": median_of(reps, "wall_s"),
        "setup_s": statistics.median(res["setups"]) if res["setups"] else None,
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(res: dict) -> dict:
    untraced = [rep for rep in res["reps"] if not rep["traced"] and not rep["problems"]]
    traced = [rep for rep in res["reps"] if rep["traced"] and not rep["problems"]]
    if not traced or not untraced:
        return {}
    # median_low keeps counts whole: it always returns one of the measured values
    out = {key: statistics.median_low(rep["trace"][key] for rep in traced)
           for key in traced[0]["trace"]}
    out["trace.untraced_wall_s"] = median_of(untraced, "wall_s")
    out["trace.traced_wall_s"] = median_of(traced, "wall_s")
    out["trace.overhead_ratio"] = out["trace.traced_wall_s"] / out["trace.untraced_wall_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "nlslab" / "__init__.py").is_file():
        print(f"error: no nlslab package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    facts = machine_facts()
    print("machine " + json.dumps(facts), flush=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    values = per_layer(res) if args.trace else end_to_end(res)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        res["problems"].append(f"no value for {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted
               if m["name"] not in missing}

    ref_T = [r["T_eps"] for r in res["ref"]["runs"]]
    got_T = [[r["T_eps"] for r in rep["runs"]] for rep in res["reps"] if "runs" in rep]
    print(f"T_eps {got_T[0] if got_T else None} reference {ref_T} "
          f"bit-identical to reference: {bool(got_T) and got_T[0] == ref_T}")
    print(f"failed_frac {res['failed'] / res['attempted']!r} "
          f"({res['failed']} of {res['attempted']} repetitions)")
    if args.trace:
        reported = {m["name"] for m in wanted}
        extra = {k: v for k, v in values.items() if k not in reported
                 and not k.endswith(".raised") and not k.startswith("solver._")}
        print("unreported spans " + json.dumps(extra))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)

    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, repetitions=res["reps"], setups=res["setups"])
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
