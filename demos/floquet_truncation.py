"""Principal eigenvalue, its balance identity, and domain truncation.

The growth-and-diffusion part of the model has a periodic principal
eigenpair. Two self-checks come with it. First, the eigenvalue must cancel
the period mean of the growth rate felt by the eigenprofile; with the
quadrature matched to the time stepper the cancellation is exact except
for mass leaking through the artificial boundary. Second, enlarging the
domain can only lower the eigenvalue, and the changes tell how wide the
domain must be. The residual and the sweep below show both effects.
"""

import fluctsel as fs

model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * 3.141592653589793)
sigma = 0.05 ** 2

print("half-width R   lambda           identity residual   iterations")
rows = fs.radius_sweep(model, [0.6, 0.8, 1.0, 1.4, 2.0], sigma,
                       points_per_unit=60, steps_per_period=512, tol=1e-8)
for row in rows:
    print(f"{row['R']:12.1f}   {row['lambda']:.10f}   "
          f"{row['identity_residual']:.3e}           {row['iterations']}")

drop = abs(rows[-2]["lambda"] - rows[-1]["lambda"])
print(f"last two radii agree to {max(drop, 1e-16):.0e}; "
      "the residual tracks the truncation error")

# on a comfortably wide domain the residual is quadrature-exact
grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                         sigma=sigma)
pair = fs.principal_eigenpair(grid, model)
q = fs.effective_signals(pair, model)
matched = fs.lambda_identity_residual(pair, q)
simpson = abs(pair.lam + q.mean())
print(f"wide domain: matched residual {matched:.2e}, "
      f"plain Simpson residual {simpson:.2e} (splitting error, order dt)")
