"""Can a fluctuating environment beat its own best frozen moment?

Take a selection pressure that oscillates over the period while the optimal
trait stands still. Freeze the environment at the time of weakest selection
and let that population equilibrate. Then compare it with the population
living through the full oscillation, sampled at that same time. The
oscillating one carries the variance it built up during the stricter part
of the period, so at the permissive moment its mean growth rate is higher.
Its time-average size is lower, though: fluctuation helps the instantaneous
fitness, not the mean size.
"""

import numpy as np

import fluctsel as fs

eps = 0.05
model = fs.make_oscillating_pressure(
    1.0, lambda t: 2.0 + 1.8 * np.cos(2.0 * np.pi * t))
grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                         sigma=eps * eps)

comp = fs.fitness_comparison(grid, model)
print(f"weakest selection at t* = {comp.t_star:.4f} "
      "(pressure 2 + 1.8 cos(2 pi t) bottoms out at t = 1/2)")
print()
print("                        periodic population   frozen at t*")
print(f"growth rate at t*        {comp.q_star:+.6f}            "
      f"{comp.frozen_fitness:+.6f}")
print(f"trait variance (mean)     {comp.sigma2_periodic_mean:.6f}            "
      f"{comp.sigma2_frozen:.6f}")
print(f"population size (mean)    {comp.rho_mean_periodic:.6f}            "
      f"{comp.frozen_rho:.6f}")
print()
print(f"fitness advantage at t*: {comp.q_star - comp.frozen_fitness:+.5f}")
print(f"size cost of fluctuation: {comp.rho_mean_periodic - comp.frozen_rho:+.5f}")

# first-order theory for the advantage: the frozen rate is r - eps sqrt(g*),
# the periodic one r - eps g* / sqrt(gbar), with g* = 0.2 and gbar = 2
frozen_th = 1.0 - eps * np.sqrt(0.2)
periodic_th = 1.0 - eps * 0.2 / np.sqrt(2.0)
print(f"first-order prediction:  {comp.frozen_fitness:.6f} vs "
      f"{frozen_th:.6f} (frozen), {comp.q_star:.6f} vs "
      f"{periodic_th:.6f} (periodic)")
