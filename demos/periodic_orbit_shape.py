"""Periodic attractor of the full model and its shape.

The mutation-selection model with a periodic environment settles on a
time-periodic density. Its mass rides a logistic-type orbit while the
normalized profile n / rho locks onto the periodic principal eigenfunction
of the linear part. Both facts are checked here on one grid, from one
eigen-solve.
"""

import numpy as np

import fluctsel as fs

eps = 0.05
model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                         sigma=eps * eps)

# one Krylov eigen-solve; the orbit n = rho * P is read off its result
pair = fs.principal_eigenpair(grid, model)
orbit = fs.orbit_from_pair(pair)
print(f"principal exponent lambda = {pair.lam:.8f} "
      f"({pair.iterations} period maps of the Krylov eigen-solve)")
print(f"orbit read off the eigenpair, period-to-period gap "
      f"{orbit.period_gap:.2e}")
rho = orbit.rho.values
print(f"rho over one period: min {rho.min():.5f}  max {rho.max():.5f}  "
      f"mean {orbit.rho.mean():.5f}")

# the orbit's normalized profile against the unit-mass eigenprofile
P = pair.p_snapshots / (pair.grid.dx * pair.row_sums)[:, None]
gap = max(np.abs(orbit.density(k) / rho[k] - P[k]).max() for k in range(len(rho)))
print(f"sup |n/rho - P| over a full period: {gap:.2e}")

# negative lambda marks persistence; the mean of Q balances it
res = fs.lambda_identity_residual(pair, fs.effective_signals(pair, model))
print(f"lambda + period mean of Q (matched quadrature): {res:.2e}")
