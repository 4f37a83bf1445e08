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

from dataclasses import dataclass

import numpy as np

from .env_models import EnvironmentModel, averaged_optimum, check_hypotheses, rate_table
from .errors import NumericalError
from .pde_solver import FloquetPair, OrbitRecord, SimulationGrid, principal_eigenpair
from .quadrature import simpson
from .rho_ode import PeriodicScalarSignal


@dataclass
class EffectiveSignal:
    """Per-capita growth rate felt by the eigenprofile.

    Q(t_k) = int a(t_k, x) p(t_k, x) dx / int p(t_k, x) dx, packaged as a
    periodic signal; P_snapshots are the unit-mass profiles p / int p.
    """

    Q: PeriodicScalarSignal
    P_snapshots: np.ndarray
    times: np.ndarray


def effective_signals(pair: FloquetPair, model: EnvironmentModel) -> EffectiveSignal:
    """Mass-normalized profiles and their instantaneous mean growth rate."""
    grid = pair.grid
    dx = grid.dx
    masses = dx * pair.p_snapshots.sum(axis=1)
    if masses.min() <= 0.0:
        raise NumericalError("eigenfunction snapshot with nonpositive mass")
    P = pair.p_snapshots / masses[:, None]
    table = rate_table(model, pair.times, grid.x)
    table *= P
    q = dx * table.sum(axis=1)
    signal = PeriodicScalarSignal(period=pair.period, times=pair.times.copy(),
                                  values=q, fn=None)
    return EffectiveSignal(Q=signal, P_snapshots=P, times=pair.times.copy())


def lambda_identity_residual(pair: FloquetPair, effective: EffectiveSignal,
                             method: str = "matched") -> float:
    """Defect of the balance between lam and the period mean of Q.

    For the continuous problem lam + (1/T) int_0^T Q dt = 0. The "matched"
    method evaluates the integral with the quadrature induced by the discrete
    period map, sum_k log(1 + dt * Q(t_k)), for which the identity holds
    exactly up to the boundary mass flux; "simpson" uses plain Simpson
    quadrature of the samples and carries the O(dt) splitting error.
    """
    T = pair.period
    dt = pair.times[1] - pair.times[0]
    q = effective.Q.values
    if method == "matched":
        integral = float(np.sum(np.log1p(dt * q[:-1])))
    elif method == "simpson":
        integral = float(simpson(q, dt))
    else:
        raise NumericalError(f"unknown residual method {method!r}")
    return abs(pair.lam + integral / T)


def orbit_bounds(pair: FloquetPair, record: OrbitRecord,
                 model: EnvironmentModel) -> dict:
    """What the eigenpair says about the periodic orbit on pair.grid.

    The size band: with d0 = max |a| and lam the eigenvalue, rho stays within
    [exp(-d0 T) (exp(|lam| T) - 1) / T, max(rho(0), d0)] (rho_band_ok). The
    tail envelope: beyond the confinement radius of check_hypotheses (H5,
    decay rate delta) the eigenprofile stays below
    max P * exp(-sqrt(delta / sigma) (|x - x_m| - radius)); tail_ok and
    tail_worst_ratio are None when H5 gives no positive delta or no node lies
    beyond the radius.
    """
    grid = pair.grid
    lam = pair.lam
    d0 = float(np.abs(rate_table(model, record.times[::64], grid.x)).max())
    T = model.period
    rho = record.rho_samples
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
            p = pair.p_snapshots
            envelope = p.max() * np.exp(-decay * (dist[outside] - report.h5_radius))
            worst = float((p[:, outside] / envelope[None, :]).max())
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
        raise NumericalError("radii must be strictly increasing")
    center = averaged_optimum(model, (-radii[-1], radii[-1]))
    out = []
    for R in radii:
        nx = max(16, int(round(2.0 * R * points_per_unit)) - 1)
        grid = SimulationGrid(x_lo=center - R, x_hi=center + R, nx=nx,
                              dt=model.period / steps_per_period, sigma=sigma)
        pair = principal_eigenpair(grid, model, tol=tol)
        eff = effective_signals(pair, model)
        out.append({
            "R": float(R),
            "sigma": float(sigma),
            "lambda": pair.lam,
            "identity_residual": lambda_identity_residual(pair, eff),
            "iterations": pair.iterations,
        })
    return out
