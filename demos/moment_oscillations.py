"""Predicted against simulated trait moments.

For small mutation strength the periodic state is close to a Gaussian whose
mean and variance oscillate with the environment. The expansion predicts
the mean trait swings with amplitude proportional to eps and lags the
moving optimum by a quarter period, while the variance sits near eps times
the inverse curvature scale. This script simulates the oscillating-optimum
environment and lines the two up.
"""

import numpy as np

import fluctsel as fs

eps = 0.05
model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)

predicted = fs.predict_moments(model, eps)
grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                         sigma=eps * eps)
record = fs.find_periodic_orbit(grid, model)
measured = fs.measure_moments(record)

print("period mean size:")
print(f"  predicted {predicted.rho_mean:.5f}   "
      f"simulated {measured.rho_mean:.5f}")
print(f"  (prediction note: {predicted.notes})")

print("\nmean trait over the period:")
times = np.linspace(0.0, 1.0, 9)
print("   t     predicted    simulated")
for t in times:
    print(f"  {t:4.2f}   {float(predicted.mu(t)):+.5f}    "
          f"{float(measured.mu(t)):+.5f}")

v_pred = predicted.sigma2.mean()
v_sim = measured.sigma2.mean()
print(f"\nperiod-mean variance: predicted {v_pred:.5f}, "
      f"simulated {v_sim:.5f}, eps/sqrt(g) = {eps:.5f}")

# the mean of the population growth rate Q along the periodic state equals
# its mean size
qbar = fs.effective_signals(record.pair, model).mean()
print(f"mean of Q along the orbit {qbar:.5f}, mean size {record.rho.mean():.5f} "
      f"(equal up to quadrature error)")
