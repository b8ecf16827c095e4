"""The critical exponent theta = 1: logarithmic lifespan scale.

At theta = 1 (p = 1 + 2/d) the lower bound moves to the logarithm:
eps^(2/d) log T_eps is bounded below by an explicit constant, so lifespans
are exponentially long in 1/eps^(2/d) and outside desk-scale reach.  What
IS checkable: the constant itself, the heuristic per-frequency blow-up
time, and that the scattering profile A(t) follows its diagonal ODE with a
bounded (in fact decaying) residual over t in [1, 100].
"""

import numpy as np

from nlslab import Grid, NonlinearityParams, ComplexField, Space
from nlslab.lifespan import critical_bound, critical_pointwise_time, remainder_series, sweep
from nlslab.solver import SolverConfig

g = Grid(1, 128, 10.0)
datum = ComplexField(g, Space.FREQUENCY, np.exp(-g.xi_1d**2 / 2))
print(f"critical bound (d=1, Im lam=1, sup|phi_hat|=1): {critical_bound(datum, 1, 1j)}")
for amp in (0.3, 0.2, 0.1):
    t = critical_pointwise_time(amp, 1, 1j)
    print(f"  heuristic blow-up time at eps|phi_hat| = {amp}: {t:.4e}")
print("  (already e^50 ~ 5e21 at amplitude 0.1: no finite run reaches it)")

print("\nshort-time profile consistency, eps = 0.1, t in [1, 100]:")
params = NonlinearityParams(lam=1j, theta=1.0, d=1)
grid = Grid(1, 16384, 400.0)
config = SolverConfig(grid=grid, params=params, eps=0.1, s=1.0, t_max=100.0,
                      record_every=20)
# theta = 1 has no remainder window: diagnostics=True has the run compute sup|R| throughout
(record,), _, _ = sweep([config.eps], config, {"kind": "gaussian", "width": 1.0},
                        diagnostics=True)
print(f"status: {record.status} (no blow-up by t_max, as expected)")
times, sups = remainder_series(record.diagnostics, t_min=1.0)
print("   t      sup_xi |R(t, xi)|")
for t, s in list(zip(times, sups))[:: max(1, len(times) // 8)]:
    print(f"  {t:5.1f}   {s:.3e}")
print(f"residual decays monotonically: {bool(np.all(np.diff(sups) <= 1e-12))}")
