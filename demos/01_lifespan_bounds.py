"""Explicit lifespan lower-bound constants and how they scale.

The equation is i u_t + (1/2) Lap u = lam |u|^(2 theta/d) u with Im(lam) > 0
and datum eps * phi.  For 0 < theta < 1 the rescaled lifespan obeys

    eps^(2 theta/d) * T_eps^(1-theta)  >=  bound_value  (as eps -> 0),

with bound_value explicit in (d, theta, Im lam, sup|phi_hat|).  This script
evaluates the constants for the shipped Gaussian datum and shows the two
exact scaling laws the formula obeys.
"""

from nlslab import Grid, NonlinearityParams, fourier_forward, sup_modulus
from nlslab.initial_data import gaussian
from nlslab.lifespan import theoretical_bound

grid = Grid(1, 1024, 40.0)
phi = gaussian(grid, width=1.0)
phi_hat = fourier_forward(phi)
params = NonlinearityParams(lam=1j, theta=0.5, d=1)

print("datum: unit Gaussian, d=1, theta=1/2, lam=i")
print(f"  sup |phi_hat|      = {sup_modulus(phi_hat):.12f}")

rep = theoretical_bound(phi_hat, params, s=1.0, eps=0.2)
print(f"  bound_value        = {rep.bound_value:.12f}")
print(f"  tau0               = {rep.tau0:.12f}")
print(f"  gamma              = {rep.gamma}")
print(f"  t_star(eps=0.2)    = {rep.t_star}")

print("\nscaling law 1: datum amplitude")
for c in (1.0, 2.0, 4.0):
    scaled = fourier_forward(gaussian(grid, width=1.0, amplitude=c))
    r = theoretical_bound(scaled, params)
    print(f"  phi -> {c:.0f}*phi : bound_value = {r.bound_value:.6f}"
          f"   (x {r.bound_value / rep.bound_value:.4f}, expected {c**-1.0:.4f})")

print("\nscaling law 2: gain strength (exactly inverse-linear)")
for mu in (1.0, 2.0, 4.0):
    r = theoretical_bound(phi_hat, NonlinearityParams(lam=mu * 1j, theta=0.5, d=1))
    print(f"  Im lam = {mu:.0f} : bound_value = {r.bound_value:.6f}")
