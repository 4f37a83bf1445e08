"""Trait concentration without mutation.

With mutation switched off the density divided by its mass converges to a
point mass at the trait maximizing the time-averaged growth rate. We track
how the mass piles up near that trait and compare the population size
against the scalar logistic orbit it follows in the limit.
"""

import numpy as np

import fluctsel as fs

model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=100, sigma=0.0)

# broad Gaussian start, unit mass
x = grid.x
w0 = 0.05 * np.exp(-x * x / 8.0)

print("time   rho       mass outside |x|<0.1   trait variance")
for t_stop in (5.0, 20.0, 80.0, 200.0):
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, w0, t_stop)
    m = fs.concentration_metrics(grid, state, radius=0.1)
    print(f"{t_stop:5.0f}  {rho[-1]:.5f}   {m.mass_outside:.3e}"
          f"             {m.variance:.3e}")

# the limiting size dynamics: logistic with the rate at the optimal trait
q = fs.PeriodicScalarSignal.from_array_callable(
    model.period, lambda ts: fs.rate_table(model, ts, np.array([0.0]))[:, 0])
target = fs.periodic_rho_closed_form(q)
tail = times >= t_stop - 1.0
gap = np.abs(rho[tail] - target(times[tail])).max()
print(f"max |rho - limit orbit| over the final period: {gap:.2e}")
