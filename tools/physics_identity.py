"""Check that the working tree computes the same physics as a git revision, bit for bit.

    python3 tools/physics_identity.py <rev> [workload ...]

Exports <rev> with `git archive` into a temporary directory, then runs
`perfbench/worker.py --mode full` on each benchmark workload (all of them by
default) once in that export and once in the working tree, each with its own
worker and its own `src/`.  The physics keys of the two JSON results must be
equal: the runs (status, T_eps, q_eps, max_remainder_scaled), bound_value,
the sweep verdict, the sample count, the persisted T_eps and the persisted
byte count.  Timings are ignored.  For each run whose T_eps, q_eps or
max_remainder_scaled differs it also prints the relative shift
(got - want) / want, the working tree against <rev>.

It then runs `nlslab sweep`, `nlslab profile-ode` and `nlslab diagnostics` on
the default config in both trees and compares every file each writes (the run
JSONs and summary.csv, profile_trajectory.csv, diagnostics.csv) byte for
byte: a changed setting in a run's experiment block or a changed number format
can keep the persisted byte count, and the ratios and the profile ODE are not
in the workloads, so only the bytes show it.  A file whose bytes differ only in
its line ends says so; for a JSON file whose bytes differ it names each key that
only one side has, and each key whose values moved, a list's entries under one
key, with the largest relative shift |got - want| / |want| among its numbers
(see `changed_keys`).  Last it compares the stdout of `nlslab bounds`,
`nlslab convergence` and `nlslab simulate` on the default config byte for byte,
all but the `wrote <path>` line: the bound, the datum's peak, t_star, the
convergence orders and a run's trial and row counts are printed only, and for a
stdout that differs it prints each line that moved on both sides (see
`changed_lines`).  And it runs each demo under `demos/` in both trees and
compares its stdout the same way, all but its `wrote` lines: the demos cover the
critical case, the three profile-ODE perturbations and the bound's scaling laws,
which no workload and no default command runs.

Exit status: 0 when every workload, command and demo output is identical, 1
when one differs, 2 when a worker, a command, a demo or git fails.  `perfbench/run.py`
accepts T_eps within 1e-3 of its reference, so its `correct: true` cannot show
bit-identity; this can.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import WORKLOADS  # noqa: E402

PHYSICS_KEYS = ("runs", "bound_value", "verdict", "samples", "persisted_T_eps", "persist_bytes")


def export(rev: str, dest: Path) -> None:
    """Write the files of `rev` into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def single_threaded_env(**extra) -> dict:
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                **extra)


def physics(tree: Path, workload: str) -> dict:
    """The physics keys of one full worker repetition in `tree`."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "worker.py"), "--workload", workload,
         "--mode", "full"], cwd=tree, env=single_threaded_env(), capture_output=True, text=True,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {key: result.get(key) for key in PHYSICS_KEYS}


COMMANDS = ("sweep", "profile-ode", "diagnostics")
STDOUT_COMMANDS = ("bounds", "convergence", "simulate")


def python(tree: Path, *args: str) -> str:
    """The stdout of `python <args>` in `tree`, importing `tree`'s src/."""
    return subprocess.run([sys.executable, *args], cwd=tree,
                          env=single_threaded_env(PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True, check=True).stdout


def nlslab(tree: Path, *args: str) -> str:
    """The stdout of `nlslab <args>` run by `tree`'s src/."""
    return python(tree, "-m", "nlslab.cli", *args)


def outputs(tree: Path, command: str, out: Path) -> dict:
    """The bytes of each file `nlslab <command>` of `tree`'s src/ writes on the default
    config, by name."""
    nlslab(tree, command, "--out", str(out))
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def comparable(stdout: str) -> str:
    """A command's stdout without its `wrote <path>` lines, which name the directory each
    tree wrote into."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("wrote "))


def demos(tree: Path) -> dict:
    """The stdout of each demo of `tree`, run by its src/, all but its `wrote` lines, by
    file name."""
    return {path.name: comparable(python(tree, str(path.relative_to(tree))))
            for path in sorted((tree / "demos").glob("*.py"))}


def changed_lines(want: str, got: str, rev: str) -> list:
    """Two lines for each line number at which two stdouts differ, `want` from <rev> and
    `got` from the working tree: that line on each side, "" past a side's end."""
    lines = []
    pairs = itertools.zip_longest(want.splitlines(), got.splitlines(), fillvalue="")
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            lines += [f"line {number}: {rev} {a!r}", f"line {number}: working tree {b!r}"]
    return lines


SHIFTED_KEYS = ("T_eps", "q_eps", "max_remainder_scaled")


def run_shifts(want: list, got: list, key: str) -> list:
    """(eps, (got - want) / want) for each run, paired in order, whose number `key`
    differs."""
    return [(w["eps"], (g[key] - w[key]) / w[key])
            for w, g in zip(want, got)
            if w[key] and g[key] is not None and g[key] != w[key]]


def leaves(value, key: str = ""):
    """(key path, leaf) for every leaf of the JSON `value`: each number, string, bool and
    null, and each empty list or object.  The entries of a list share one path, such as
    "diagnostics.samples[].t"."""
    if isinstance(value, dict) and value:
        for name, item in value.items():
            yield from leaves(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list) and value:
        for item in value:
            yield from leaves(item, f"{key}[]")
    else:
        yield key, value


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def changed_keys(want: bytes, got: bytes, rev: str) -> list:
    """One line per key path whose leaves differ between two JSON documents, `want`
    from <rev> and `got` from the working tree, in key order.  A key that one side
    lacks is "only in <rev>" or "only in the working tree", whatever its values.  Where
    both hold as many numbers under a key, the line gives the largest relative shift
    |got - want| / |want| among them, inf where a number left 0 or is not finite;
    where the counts differ, both counts; else the first pair of leaves that differ."""
    by_key = []
    for doc in (want, got):
        found = {}
        for path, x in leaves(json.loads(doc)):
            found.setdefault(path, []).append(x)
        by_key.append(found)
    lines = []
    for path in sorted(by_key[0].keys() | by_key[1].keys()):
        if path not in by_key[1]:
            lines.append(f"{path}: only in {rev}")
            continue
        if path not in by_key[0]:
            lines.append(f"{path}: only in the working tree")
            continue
        a, b = by_key[0][path], by_key[1][path]
        if a == b:
            continue
        if len(a) != len(b):
            lines.append(f"{path}: {len(a)} values in {rev}, {len(b)} in the working tree")
        elif all(map(is_number, a + b)):
            shifts = (abs(y - x) / abs(x) if x else math.inf for x, y in zip(a, b) if x != y)
            shift = max(math.inf if math.isnan(r) else r for r in shifts)
            lines.append(f"{path}: largest relative shift {shift:.3e}")
        else:
            x, y = next((x, y) for x, y in zip(a, b) if x != y)
            lines.append(f"{path}: {json.dumps(x)} in {rev}, {json.dumps(y)} in the working tree")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("workloads", nargs="*", help=f"any of {sorted(WORKLOADS)} (default: all)")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}")
    differ = False
    with tempfile.TemporaryDirectory(prefix="physics-identity-") as tmp:
        base = Path(tmp) / "rev"
        base.mkdir()
        try:
            export(args.rev, base)
            for workload in args.workloads or sorted(WORKLOADS):
                want, got = physics(base, workload), physics(ROOT, workload)
                changed = [key for key in PHYSICS_KEYS if want[key] != got[key]]
                print(f"{workload}: " + ("identical" if not changed else "differs"))
                for key in changed:
                    print(f"  {key}: {args.rev} {json.dumps(want[key])}")
                    print(f"  {key}: working tree {json.dumps(got[key])}")
                for key in SHIFTED_KEYS:
                    for eps, shift in run_shifts(want["runs"], got["runs"], key):
                        print(f"  {key} at eps = {eps}: relative shift {shift:+.3e}")
                differ = differ or bool(changed)
            for command in COMMANDS:
                want = outputs(base, command, Path(tmp) / f"{command}-rev")
                got = outputs(ROOT, command, Path(tmp) / f"{command}-tree")
                changed = sorted(name for name in want.keys() | got.keys()
                                 if want.get(name) != got.get(name))
                print(f"default {command} outputs: " + ("identical" if not changed else "differ"))
                for name in changed:
                    print(f"  {name}: " + (
                        "only in " + args.rev if name not in got else
                        "only in the working tree" if name not in want else
                        "bytes differ" + (" only in line ends" if want[name].replace(b"\r", b"")
                                          == got[name].replace(b"\r", b"") else "")))
                    if name.endswith(".json") and name in want and name in got:
                        for line in changed_keys(want[name], got[name], args.rev):
                            print(f"    {line}")
                differ = differ or bool(changed)
            for command in STDOUT_COMMANDS:
                want, got = (comparable(nlslab(tree, command, "--out",
                                               str(Path(tmp) / f"{command}-{side}")))
                             for tree, side in ((base, "rev"), (ROOT, "tree")))
                changed = changed_lines(want, got, args.rev)
                print(f"default {command} stdout: " + ("identical" if not changed else "differs"))
                for line in changed:
                    print(f"  {line}")
                differ = differ or bool(changed)
            want, got = demos(base), demos(ROOT)
            for name in sorted(want.keys() | got.keys()):
                changed = ([f"only in {args.rev}"] if name not in got else
                           ["only in the working tree"] if name not in want else
                           changed_lines(want[name], got[name], args.rev))
                print(f"demo {name} stdout: " + ("identical" if not changed else "differs"))
                for line in changed:
                    print(f"  {line}")
                differ = differ or bool(changed)
        except subprocess.CalledProcessError as e:
            stderr = e.stderr if isinstance(e.stderr, str) else (e.stderr or b"").decode()
            print(f"error: {' '.join(map(str, e.cmd))} failed: {stderr.strip()}", file=sys.stderr)
            return 2
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
