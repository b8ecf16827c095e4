"""Scale-invariant inequality diagnostics sampled along a run.

Three ratios that the norm machinery predicts stay bounded:
  r1: (1+t)^(d/2) ||u||_inf / ||U(-t)u||_{Sigma^s}        (dispersive decay)
  r2: profile-dominance defect of the sup norm, scaled by t^(d/2+gamma)
  r3: (1+t)^(d(p-1)/2) ||U(-t)N(u)||_{Sigma^s} / ||U(-t)u||_{Sigma^s}^p

plus the reduced-ODE remainder: sup_xi |R(t,xi)| should decay fast enough
that t^(theta+gamma) * sup|R| stays essentially flat.
"""

from nlslab import Grid, NonlinearityParams
from nlslab.lifespan import gamma_exponent, remainder_series, sweep, t_star_time
from nlslab.solver import SolverConfig

grid = Grid(1, 2048, 80.0)
params = NonlinearityParams(lam=1j, theta=0.5, d=1)
config = SolverConfig(grid=grid, params=params, eps=0.2, s=1.0,
                      t_max=200.0, record_every=4)

print("running eps = 0.2 to blow-up ...")
# diagnostics=True: the run computes the ratios and sup|R| at every kept grid time
(record,), _, _ = sweep([config.eps], config, {"kind": "gaussian", "width": 1.0},
                        diagnostics=True)
T = record.T_eps
print(f"T_eps = {T:.4f}")

ratios = record.diagnostics.rows
print("\n   t        r1        r2        r3")
shown = [r for r in ratios if r.t <= 0.75 * T]
for r in shown[:: max(1, len(shown) // 10)]:
    f = lambda v: "   --   " if v is None else f"{v:8.4f}"
    print(f"  {r.t:6.2f}  {f(r.r1)}  {f(r.r2)}  {f(r.r3)}")

gamma = gamma_exponent(config.s, params.d)
t_star = t_star_time(config.eps, params.theta, params.d)
times, sups = remainder_series(record.diagnostics, t_min=1.0, t_max=0.75 * T)
scaled = sups * times ** (params.theta + gamma)
print(f"\nremainder scaling (gamma = {gamma}, t_star = {t_star}):")
print("   t        sup|R|      t^(theta+gamma) sup|R|")
for t, s, sc in list(zip(times, sups, scaled))[:: max(1, len(times) // 8)]:
    print(f"  {t:6.2f}   {s:.3e}    {sc:.4f}")
w = (times >= t_star) & (times <= T / 2)
print(f"\nover [t_star, T/2]: max scaled = {scaled[w].max():.4f}"
      f" vs value at t_star = {scaled[w][0]:.4f} (ratio {scaled[w].max()/scaled[w][0]:.2f})")
