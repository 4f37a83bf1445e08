"""What the principal periodic eigenpair of the linearized growth operator says.

The linear flow dp/dt - sigma * d2p/dx2 = a(t, x) p over one period defines a
positive period map; its principal eigenvalue exp(-lambda * T) and positive
eigenfunction determine persistence (lambda < 0) or extinction (lambda >= 0)
of the full model, and the eigenfunction yields the effective per-capita
growth signal that the scalar logistic law runs on and the size band and tail
envelope of the periodic orbit. The eigen-solve itself
(FloquetPair, principal_eigenpair) lives beside the stepper in pde_solver.
"""

from __future__ import annotations

import numpy as np

from .env_models import (EnvironmentModel, averaged_optimum, check_hypotheses, rate_blocks,
                         rate_table)
from .errors import ConfigError
from .pde_solver import FloquetPair, OrbitRecord, SimulationGrid, principal_eigenpair
from .rho_ode import PeriodicScalarSignal


def effective_signals(pair: FloquetPair, model: EnvironmentModel) -> PeriodicScalarSignal:
    """Q, the per-capita growth rate felt by the eigenprofile of pair:
    Q(t_k) = int a(t_k, x) p(t_k, x) dx / int p(t_k, x) dx at its times,
    reduced per block of rate rows (rate_blocks): no rate table is built.
    The signal shares pair.times, as the orbit's size and measured moments
    do; nothing writes to them."""
    q = np.empty(len(pair.times))
    for rows, block in rate_blocks(model, pair.times, pair.grid.x):
        q[rows] = np.einsum("ij,ij->i", pair.p_snapshots[rows], block)
    q /= pair.row_sums
    return PeriodicScalarSignal(period=pair.period, times=pair.times, values=q)


def lambda_identity_residual(pair: FloquetPair, q: PeriodicScalarSignal) -> float:
    """Defect of the balance between lam and the period mean of Q.

    For the continuous problem lam + (1/T) int_0^T Q dt = 0. The integral is
    taken with the quadrature induced by the discrete period map,
    sum_k log(1 + dt * Q(t_k)), for which the identity holds exactly up to
    the boundary mass flux; the plain period mean, abs(lam + q.mean()),
    would carry the O(dt) splitting error.
    """
    dt = pair.times[1] - pair.times[0]
    integral = float(np.sum(np.log1p(dt * q.values[:-1])))
    return abs(pair.lam + integral / pair.period)


def orbit_bounds(record: OrbitRecord, model: EnvironmentModel) -> dict:
    """What the eigenpair says about the periodic orbit on record.grid.

    The size band: with d0 = max |a| and lam the eigenvalue, rho stays within
    [exp(-d0 T) (exp(|lam| T) - 1) / T, max(rho(0), d0)] (rho_band_ok). The
    tail envelope: beyond the confinement radius of check_hypotheses (H5,
    decay rate delta) the eigenprofile stays below
    max P * exp(-sqrt(delta / sigma) (|x - x_m| - radius)); tail_ok and
    tail_worst_ratio are None when H5 gives no positive delta or no node lies
    beyond the radius.
    """
    grid = record.grid
    lam = record.pair.lam
    d0 = float(np.abs(rate_table(model, record.rho.times[::64], grid.x)).max())
    T = model.period
    rho = record.rho.values
    rho_upper = max(float(rho[0]), d0)
    rho_lower = np.exp(-d0 * T) * np.expm1(abs(lam) * T) / T
    report = check_hypotheses(model, (grid.x_lo, grid.x_hi), lambda_hint=lam)
    tail_ok = None
    tail_margin = None
    if report.h5_delta is not None and report.h5_delta > 0:
        decay = np.sqrt(report.h5_delta / grid.sigma)
        dist = np.abs(grid.x - report.x_m)
        outside = dist >= report.h5_radius
        if outside.any():
            # the maxima over time first: dividing by a positive envelope is monotone
            peaks = record.pair.p_snapshots.max(axis=0)
            envelope = peaks.max() * np.exp(-decay * (dist[outside] - report.h5_radius))
            worst = float((peaks[outside] / envelope).max())
            tail_ok = bool(worst <= 1.0 + 1e-9)
            tail_margin = worst
    return {
        "rho_band_lower": float(rho_lower),
        "rho_band_upper": float(rho_upper),
        "rho_min": float(rho.min()),
        "rho_max": float(rho.max()),
        "rho_band_ok": bool(rho_lower - 1e-12 <= rho.min()
                            and rho.max() <= rho_upper + 1e-12),
        "tail_ok": tail_ok,
        "tail_worst_ratio": tail_margin,
        "confine_delta": report.h5_delta,
        "confine_radius": report.h5_radius,
    }


def radius_sweep(model: EnvironmentModel, radii, sigma: float,
                 points_per_unit: int = 100, steps_per_period: int = 1024,
                 tol: float = 1e-10) -> list[dict]:
    """Eigenvalue against domain half-width, to audit truncation.

    Each domain is centered on the averaged optimum; radii must increase.
    Returns one record per radius with keys R, sigma, lambda,
    identity_residual, iterations; the eigenvalue should be nonincreasing in
    R (enlarging the domain relaxes the Dirichlet pinning) and the gap
    between the last two radii estimates the truncation error.
    """
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be strictly increasing")
    center = averaged_optimum(model, (-radii[-1], radii[-1]))
    out = []
    for R in radii:
        nx = max(16, int(round(2.0 * R * points_per_unit)) - 1)
        grid = SimulationGrid(x_lo=center - R, x_hi=center + R, nx=nx,
                              steps_per_period=steps_per_period, sigma=sigma)
        pair = principal_eigenpair(grid, model, tol=tol)
        q = effective_signals(pair, model)
        out.append({
            "R": float(R),
            "sigma": float(sigma),
            "lambda": pair.lam,
            "identity_residual": lambda_identity_residual(pair, q),
            "iterations": pair.iterations,
        })
    return out
