"""Mutation-free dynamics integrated exactly in the exponent.

Without mutation the model decouples along traits:

    n(t, x) = n0(x) * exp( int_0^t a(s, x) ds - int_0^t rho(s) ds ),

so the state is carried in log space as the per-trait growth exponent
(log_factors) and the scalar saturation integral (rho_integral). The mass
coupling rho(t) = int n dx is advanced with a midpoint predictor, giving a
second-order scheme that cannot produce negative densities and concentrates
without grid-diffusion artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env_models import EnvironmentModel, rate_table
from .errors import NumericalError
from .pde_solver import EXTINCTION_SIZE, SimulationGrid

_LOG_FLOOR = -746.0  # exp underflows to exactly 0 below this
# steps per block: rate rows and log-space sums are evaluated for a block at
# a time; a whole period's (t, x) table would cost megabytes of memory
_BLOCK = 32


@dataclass
class ExponentState:
    """Log-space state of the mutation-free flow at one time.

    log_factors[i] = int_0^t a(s, x_i) ds, rho_integral = int_0^t rho(s) ds.
    log_n0 keeps the (log of the) initial density so the state is
    self-contained; -inf entries mark traits absent from the start.
    """

    grid: SimulationGrid
    time: float
    log_factors: np.ndarray
    rho_integral: float
    log_n0: np.ndarray


@dataclass
class ConcentrationMetrics:
    """Location and spread summary of a trait density."""

    mean: float
    variance: float
    mass_outside: float


def reconstruct_density(state: ExponentState) -> np.ndarray:
    """Density values n(t, x) on the grid nodes from the exponent state."""
    with np.errstate(over="ignore"):
        return np.exp(state.log_n0 + state.log_factors - state.rho_integral)


def _mass_from_logs(dx: float, w: np.ndarray, rho_integral: float) -> float:
    """Trapezoid mass of exp(w - rho_integral), log-sum-exp stabilized."""
    m = w.max()
    if not np.isfinite(m):
        return 0.0
    return dx * float(np.exp(m - rho_integral) * np.sum(np.exp(w - m)))


def _log_weights(w: np.ndarray):
    """Row maxima m of w, the weights exp(w - m) and their row sums.

    w is overwritten. Entries below m + _LOG_FLOOR are set to 0 without
    evaluating exp, which returns exactly 0 there but slowly.
    """
    m = w.max(axis=1)
    w -= m[:, None]
    weights = np.exp(w, out=np.zeros_like(w), where=w > _LOG_FLOOR)
    return m, weights, weights.sum(axis=1)


def simulate_sigma0(grid: SimulationGrid, model: EnvironmentModel, n0,
                    t_end: float):
    """Integrate the mutation-free model from density n0 up to t_end.

    The growth exponent is accumulated per step with Simpson quadrature of
    a(., x); the saturation integral uses the midpoint rule with a predicted
    half-step mass, so the overall scheme is second order in grid.dt.
    Rates and log-space sums are evaluated for _BLOCK steps at a time, with
    the same arithmetic as stepping one at a time.
    Returns (state, (times, rho), diagnostics); a size below 1e-12 sets the
    extinct flag. diagnostics["mean_growth"] records the population mean of
    a at every time, int n a dx / rho, the effective per-capita rate the
    total size runs on.
    """
    values = np.asarray(n0, dtype=float)
    if values.min() < 0.0:
        raise NumericalError("initial density contains negative values")
    if values.max() <= 0.0:
        raise NumericalError("initial density is identically zero")
    x = grid.x
    dx = grid.dx
    dt = grid.dt
    nsteps = max(1, int(round(t_end / dt)))
    times = dt * np.arange(nsteps + 1)
    with np.errstate(divide="ignore"):
        log_n0 = np.log(values)

    L = np.zeros(grid.nx)
    R = 0.0
    rho = np.empty(nsteps + 1)
    q_eff = np.empty(nsteps + 1)
    rho[0] = _mass_from_logs(dx, log_n0, 0.0)
    a_right = np.asarray(model.rate(0.0, x), dtype=float)
    weights = np.exp(log_n0 - log_n0.max())
    q_eff[0] = float(weights @ a_right) / float(weights.sum())
    rho_k = rho[0]
    for k0 in range(0, nsteps, _BLOCK):
        # steps k0..k1-1 at once; only the recurrence for R and rho is scalar
        k1 = min(k0 + _BLOCK, nsteps)
        t = times[k0:k1]
        a_mid, a_end = np.split(
            rate_table(model, np.concatenate((t + 0.5 * dt, t + dt)), x), 2)
        a_start = np.vstack((a_right, a_end[:-1]))
        a_right = a_end[-1]
        L_end = dt / 6.0 * (a_start + 4.0 * a_mid + a_end)
        L_end[0] += L
        for i in range(1, k1 - k0):
            L_end[i] += L_end[i - 1]
        L_start = np.vstack((L, L_end[:-1]))
        L = L_end[-1]
        # log-sum-exp masses at the half steps (midpoint predictor) and ends
        m_half, _, s_half = _log_weights(
            log_n0 + (L_start + 0.25 * dt * (a_start + a_mid)))
        m_end, weights, s_end = _log_weights(log_n0 + L_end)
        q_eff[k0 + 1:k1 + 1] = np.einsum("ij,ij->i", weights, a_end) / s_end
        for k, mh, sh, me, se in zip(range(k0 + 1, k1 + 1), m_half.tolist(),
                                     s_half.tolist(), m_end.tolist(),
                                     s_end.tolist()):
            r_half = R + 0.5 * dt * rho_k
            rho_mid = dx * float(np.exp(mh - r_half) * sh) if math.isfinite(mh) else 0.0
            R = R + dt * rho_mid
            rho_k = dx * np.exp(me - R) * se
            rho[k] = rho_k
    extinct = bool((rho < EXTINCTION_SIZE).any())
    state = ExponentState(grid=grid, time=float(times[-1]), log_factors=L.copy(),
                          rho_integral=R, log_n0=log_n0)
    diagnostics = {"extinct": extinct, "mean_growth": q_eff}
    return state, (times, rho), diagnostics


def concentration_metrics(grid: SimulationGrid, values: np.ndarray,
                          radius: float, center: float = 0.0) -> ConcentrationMetrics:
    """Mean, variance, and mass fraction outside |x - center| < radius.

    values may be a density array on the grid nodes or an ExponentState.
    Raises NumericalError when the total mass vanishes.
    """
    if isinstance(values, ExponentState):
        values = reconstruct_density(values)
    values = np.asarray(values, dtype=float)
    x = grid.x
    mass = float(np.sum(values))
    if mass <= 0.0 or not np.isfinite(mass):
        raise NumericalError("cannot take moments of a zero or non-finite density")
    mean = float(np.sum(x * values)) / mass
    variance = float(np.sum((x - mean) ** 2 * values)) / mass
    outside = np.abs(x - center) >= radius
    return ConcentrationMetrics(mean=mean, variance=variance,
                                mass_outside=float(np.sum(values[outside])) / mass)
