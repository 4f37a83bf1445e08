"""Vanishing-mutation limit of the rescaled log density.

With mutation strength eps^2 the quantity u_eps = eps log(n) (plus the
Gaussian normalization constant) converges to a concave exponent that
depends only on the time-averaged growth rate. For the oscillating-optimum
environment the limit is the parabola -x^2/2. The sup distance on a window
around the optimal trait shrinks as eps does.
"""

import numpy as np

import fluctsel as fs

model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)

profile = fs.limit_profile(model, np.linspace(-4.0, 4.0, 801))
A, B = profile.taylor
print(f"limit exponent: optimum at x = {profile.x_m:.4f}, "
      f"mean size {profile.rho_bar:.4f}")
print(f"local shape -A/2 (x - x_m)^2 + B (x - x_m)^3 + ... with A = {A:.4f}, "
      f"B = {B:.1e}")

print("\n  eps     sup |u_eps - u| on [-1, 1]")
for eps in (0.1, 0.05, 0.025):
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                             sigma=eps * eps)
    record = fs.find_periodic_orbit(grid, model)
    u_eps = fs.hopf_cole(record.density(0), grid.sigma)
    window = np.abs(grid.x) <= 1.0
    gap = np.abs(u_eps[window] - (-grid.x[window] ** 2 / 2.0)).max()
    print(f"  {eps:5.3f}   {gap:.4f}")
print("the gap is dominated by the first-order (order eps) correction")
