"""One amplifying run from small data to numerical blow-up.

Watch the dispersive decay of the sup norm lose to the Im(lam) > 0 gain:
the L2 mass grows monotonically, the adaptive step shrinks near the
singular time, and the run ends once the pointwise blow-up horizon of the
sup norm is within 1e-3 of the elapsed time.  The measured T_eps is then
compared against the theoretical lower bound.
"""

from nlslab import Grid, NonlinearityParams
from nlslab.lifespan import sweep
from nlslab.solver import SolverConfig

grid = Grid(1, 2048, 80.0)
params = NonlinearityParams(lam=1j, theta=0.5, d=1)
eps = 0.3
config = SolverConfig(grid=grid, params=params, eps=eps, s=1.0,
                      t_max=200.0, record_every=4)

print(f"running d=1, theta=1/2, lam=i, eps={eps} on n={grid.n}, L={grid.L} ...")
(record,), _, _ = sweep([eps], config, {"kind": "gaussian", "width": 1.0})

samples = record.diagnostics.samples
print(f"\nstatus = {record.status}")
print(f"T_eps = {record.T_eps:.6f} ({record.criterion} criterion, "
      f"last sample at sup|u| = {samples[-1].report.l_inf:.0f})")

print("\n   t        sup|u|      ||u||_2^2    E(t)")
for s in samples[:: max(1, len(samples) // 12)]:
    print(f"  {s.t:7.3f}   {s.report.l_inf:9.4f}   {s.mass:.6f}   {s.energy:.4f}")
last = samples[-1]
print(f"  {last.t:7.3f}   {last.report.l_inf:9.4f}   {last.mass:.6f}   {last.energy:.4f}")

q, bound = record.invariant_quantity, record.bound_value
print(f"\nq_eps = eps * sqrt(T_eps) = {q:.4f}")
print(f"bound_value               = {bound:.4f}")
print(f"lower bound respected: {q >= bound}  (gap = {q - bound:+.4f})")
print(f"\nmax boundary-shell mass fraction = {record.max_shell_fraction:.2e}")
print(f"max high-frequency tail fraction = {record.max_tail_fraction:.2e}")
