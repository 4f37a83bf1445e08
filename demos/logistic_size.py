"""Total population size under a periodic per-capita rate.

When the population sits at one trait value, its size follows the scalar
logistic law rho' = rho (q(t) - rho). This script builds the positive
periodic orbit, the fixed point of the period map, shows that direct
integration from above and below (one call for both starts) is attracted to
it, and shows the extinction regime.
"""

import numpy as np

import fluctsel as fs

# per-capita rate at the optimal trait of the standard oscillating optimum
q = fs.PeriodicScalarSignal.from_array_callable(
    1.0, lambda ts: 1.0 - np.sin(2 * np.pi * ts) ** 2)

orbit = fs.periodic_rho_closed_form(q)
print("periodic orbit over one period:")
print(f"  min {orbit.values.min():.6f}  max {orbit.values.max():.6f}  "
      f"mean {orbit.mean():.6f}")
print(f"  mean of q (must equal the orbit mean): {q.mean():.6f}")

starts = np.array([0.05, 5.0])
times, rhos = fs.integrate_logistic(q, starts, 30.0)
last = times >= 29.0
for rho0, rho in zip(starts, rhos):
    gap = np.abs(rho[last] - orbit(times[last])).max()
    print(f"start at rho0 = {rho0}: final-period distance to the orbit "
          f"{gap:.2e}")

# a constant rate collapses the formula to the classical equilibrium
q_const = fs.PeriodicScalarSignal.from_array_callable(
    1.0, lambda ts: np.full_like(ts, 0.7))
flat = fs.periodic_rho_closed_form(q_const)
print(f"constant rate 0.7: orbit stays within "
      f"{np.abs(flat.values - 0.7).max():.2e} of 0.7")

# mean rate below zero: no positive orbit exists
bad = fs.PeriodicScalarSignal.from_array_callable(
    1.0, lambda ts: -0.2 + np.sin(2 * np.pi * ts))
try:
    fs.periodic_rho_closed_form(bad)
except fs.ExtinctionError as exc:
    print(f"negative-mean rate: {exc}")
