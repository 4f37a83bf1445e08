"""Mutation-free dynamics integrated exactly in the exponent.

Without mutation the model decouples along traits:

    n(t, x) = n0(x) * exp( int_0^t a(s, x) ds - int_0^t rho(s) ds ),

so the state is carried in log space as the per-trait growth exponent
(log_factors) and the scalar saturation integral (rho_integral). With M(t)
the mass of the linear flow n0 * exp(int a), the size law rho' = rho (q - rho)
is solved by rho = M / Y with Y' = M, Y(0) = 1, and int rho = log Y. Each
step's integral of M is rho_ode's, from the masses at its ends and midpoint,
in logs, so the scheme cannot produce negative densities or sizes,
concentrates without grid-diffusion artifacts, and is third order in dt.

The rate is T-periodic and the step dt = T / S, so after p periods and r
more steps the exponent is exactly p L_T(x) + C_r(x): C_r is the Simpson
exponent of the first r steps of a period and L_T = C_S the exponent gained
over one period, about T times the averaged rate whose maximum the density
concentrates on. Every mass sum over the traits is then an inner product of
a period row exp(log n0 + p L_T) and a phase row exp(C_r), each shifted by
its maximum as in log-sum-exp. Weights far below their row's maximum are
set to 0, and as the density concentrates they are on most traits. The
period rows of all periods are exponentiated once, a block of periods at a
time, and each block is held only over its live window, the traits where
any of its rows has a weight that is not 0. The phase rows are made a block
at a time over the union of the windows, and each phase block's sums are
one matrix product per period block over that block's window. L_T comes
from a pre-pass that only sums the per-step Simpson increments of one
period. A product that underflows, because the two rows peak at distant
traits, is recomputed directly over all traits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env_models import RATE_BLOCK, EnvironmentModel, rate_rows
from .errors import NumericalError
from .pde_solver import EXTINCTION_SIZE, SimulationGrid, initial_density
from .quadrature import check_end_time
from .rho_ode import _log_step_integral

# shifted log weights below _LOG_FLOOR are set to 0, so that products of two
# weights stay normal numbers (subnormal arithmetic is slow)
_LOG_FLOOR = 0.5 * math.log(np.finfo(float).tiny)
# a sum of nx such products below nx * _UNDERFLOW may have lost more than eps
# of its value to the weights set to 0
_UNDERFLOW = math.exp(_LOG_FLOOR) / np.finfo(float).eps
_STEP_BLOCK = 4096  # steps per _log_step_integral call: 32 KiB temporaries, not elided


@dataclass
class ExponentState:
    """Log-space state of the mutation-free flow at one time.

    log_factors[i] = int_0^t a(s, x_i) ds, rho_integral = int_0^t rho(s) ds.
    log_n0 keeps the (log of the) initial density so the state is
    self-contained; -inf entries mark traits absent from the start.
    """

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


def _flushed_exp(w: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The weights exp(w - m[:, None]), written into out; weights below
    exp(_LOG_FLOOR) are set to 0 without evaluating exp."""
    w = w - m[:, None]
    out.fill(0.0)
    return np.exp(w, out=out, where=w > _LOG_FLOOR)


def _shifted_exp(w: np.ndarray, out: np.ndarray | None = None):
    """Row maxima m of w and the row-shifted weights _flushed_exp(w, m),
    written into out (a new array by default)."""
    m = w.max(axis=1)
    return m, _flushed_exp(w, m, np.empty_like(w) if out is None else out)


def _rate_blocks(model: EnvironmentModel, x: np.ndarray, dt: float, count: int):
    """The rates of the first count steps of a period, in blocks.

    Yields (r0, a_start, a_mid, increments) for the steps r0 <= r < r0 + rows
    of a block: the rates at their starts and midpoints, and their Simpson
    increments dt (a(r dt) + 4 a((r + 1/2) dt) + a((r + 1) dt)) / 6. The
    rates of a block come from one rate call of 2 rows + 1 times and at most
    2 RATE_BLOCK elements: numpy elides temporaries from 256 KiB up, and the
    first elision in a process adds about 1 MiB to its resident memory.
    """
    rows = max(1, (2 * RATE_BLOCK // len(x) - 1) // 2)
    for r0 in range(0, count, rows):
        r1 = min(r0 + rows, count)
        a = rate_rows(model, 0.5 * dt * np.arange(2 * r0, 2 * r1 + 1), x)
        a_start, a_mid, a_end = a[:-1:2], a[1::2], a[2::2]
        yield r0, a_start, a_mid, dt / 6.0 * (a_start + 4.0 * a_mid + a_end)


def _phase_blocks(model: EnvironmentModel, x: np.ndarray, dt: float, count: int):
    """Exponents of the first count steps of a period, in blocks.

    Yields (r0, exponents) for the rows = len(exponents) // 2 steps
    r0 <= r < r0 + rows: exponents[:rows] holds the half-step exponents
    C_r + dt (a(r dt) + a((r + 1/2) dt)) / 4 and exponents[rows:] the
    Simpson exponents C_{r+1} = int_0^{(r+1) dt} a, accumulated from C_0 = 0.
    """
    c = np.zeros(len(x))
    for r0, a_start, a_mid, increments in _rate_blocks(model, x, dt, count):
        exponents = np.empty((2 * len(increments), len(x)))
        half, c_end = np.split(exponents, 2)
        increments[0] += c
        np.cumsum(increments, axis=0, out=c_end)
        np.multiply(0.25 * dt, a_start + a_mid, out=half)
        half[0] += c
        half[1:] += c_end[:-1]
        c = c_end[-1]
        yield r0, exponents


def simulate_sigma0(grid: SimulationGrid, model: EnvironmentModel, n0,
                    t_end: float):
    """Integrate the mutation-free model from density n0 up to t_end.

    S = grid.steps_per_period steps of dt = T / S fill one period, and
    round(t_end / dt) steps are taken (none for t_end = 0).
    The growth exponent is accumulated per step with Simpson quadrature of
    a(., x), Y = exp(int rho) by rho_ode's step integral of the linear masses;
    the scheme is third order in dt. Step k = p S + r ends at the exponent
    p L_T + C_{r+1}, so every mass sum is a product of a period row and a
    phase row (see the module docstring). The period rows of all periods
    are held, each block of them over its live window; the phase rows are
    made a block at a time over the union of the windows.
    Returns (state, (times, rho), diagnostics); diagnostics holds only the
    extinct flag, set by a size below 1e-12. An initial density that is
    negative, identically zero or not finite, a step integral that is not
    finite, or a size beyond the double range, raises NumericalError; a
    t_end that is negative or not finite raises ConfigError.
    """
    check_end_time(t_end)
    values = initial_density(n0)
    x = grid.x
    per_period = grid.steps_per_period
    dt = model.period / per_period
    nsteps = int(round(t_end / dt))
    with np.errstate(divide="ignore"):
        log_n0 = np.log(values)
    # t_end = 0 makes the masses of one step and uses none of them
    phases = max(1, min(per_period, nsteps))
    periods = max(1, -(-nsteps // phases))
    last = nsteps - (periods - 1) * phases  # steps in the last period
    L_T, L_last = np.zeros(grid.nx), np.zeros(grid.nx)
    if periods > 1:
        # the increments are summed with the carry in their first row, in
        # the order the phase loop's cumsum adds them, so that L_T equals
        # the C_S it would give to the bit
        for _, _, _, increments in _rate_blocks(model, x, dt, per_period):
            increments[0] += L_T
            L_T = increments.sum(axis=0)
    # the period rows exp(log n0 + p L_T - m_w[p]), a block of periods at a
    # time, each block held only over its live window [lo, hi): the traits
    # where any of its rows has a weight that is not set to 0
    period_rows = max(1, RATE_BLOCK // grid.nx)
    m_w, scratch = np.empty(periods), np.empty((min(period_rows, periods), grid.nx))
    blocks = []
    for p0 in range(0, periods, period_rows):
        p1 = min(p0 + period_rows, periods)
        m_w[p0:p1], w = _shifted_exp(log_n0 + np.arange(p0, p1)[:, None] * L_T,
                                     out=scratch[:p1 - p0])
        live = np.flatnonzero(w.any(axis=0))
        # a NaN rate leaves no weight live, and an empty window
        lo, hi = (live[0], live[-1] + 1) if live.size else (0, 0)
        blocks.append((p0, p1, lo, hi, w[:, lo:hi].copy()))
    del scratch, w
    # the phase rows are needed only over the union [LO, HI) of the windows
    LO, HI = min(block[2] for block in blocks), max(block[3] for block in blocks)
    log_masses = np.empty((2, periods, phases))
    floor = grid.nx * _UNDERFLOW
    # a phase block has at most period_rows rows too
    e = np.empty((2 * period_rows, HI - LO))
    sums = np.empty(periods * len(e))
    for r0, exponents in _phase_blocks(model, x, dt, phases):
        rows = len(exponents) // 2
        r1 = r0 + rows
        if r0 < last <= r1:
            L_last = exponents[rows + last - 1 - r0].copy()
        # the maxima over all traits, so that the shift is that of full rows
        m_e = exponents.max(axis=1)
        e_block = _flushed_exp(exponents[:, LO:HI], m_e, e[:2 * rows])
        # s[p, j] is the half-step (j < rows) or end (j >= rows) sum of
        # step r0 + j % rows of period p, from one product per block of
        # period rows over its window: one product over all periods rounds
        # differently (BLAS splits the sums by shape) and moves rho in the
        # 13th digit
        s = sums[:periods * 2 * rows].reshape(periods, 2 * rows)
        for p0, p1, lo, hi, w in blocks:
            np.matmul(w, e_block[:, lo - LO:hi - LO].T, out=s[p0:p1])
        low = s < floor
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(s, out=s)
            s += m_w[:, None] + m_e
        log_masses[:, :, r0:r1] = s.reshape(periods, 2, rows).transpose(1, 0, 2)
        # a sum that underflowed (the two maxima at distant traits) is
        # recomputed directly by log-sum-exp
        for p, j in zip(*np.nonzero(low[:, :rows] | low[:, rows:])):
            m, weights = _shifted_exp(log_n0 + p * L_T + exponents[j::rows])
            log_masses[:, p, r0 + j] = m + np.log(weights.sum(axis=1))
    del blocks

    # rho_k = M_k / Y_k, Y_{k+1} = Y_k + int M over step k, Y_0 = 1, in logs: the
    # flattened masses run through the steps in order; log_half takes int M, then log Y
    log_masses += math.log(grid.dx)  # log M, from log(M / dx)
    log_half, log_end = (masses.ravel()[:nsteps] for masses in log_masses)
    m_0 = log_n0.max()
    rho = np.append(math.log(grid.dx) + (m_0 + math.log(np.exp(log_n0 - m_0).sum())), log_end)
    for k in range(0, nsteps, _STEP_BLOCK):
        step = slice(k, k + _STEP_BLOCK)
        log_half[step] = _log_step_integral(dt, rho[:-1][step], log_half[step], rho[1:][step])
    if not np.isfinite(log_half).all():
        raise NumericalError("a step integral of the mass is not finite: a NaN rate, "
                             "or dt * |a| too large")
    log_half[:1] = np.logaddexp(0.0, log_half[:1])
    np.logaddexp.accumulate(log_half, out=log_half)
    rho[1:] -= log_half
    with np.errstate(over="ignore"):
        np.exp(rho, out=rho)
    if not np.isfinite(rho).all():
        raise NumericalError("population size exceeds the double range")
    extinct = bool((rho < EXTINCTION_SIZE).any())
    state = ExponentState(log_factors=(periods - 1) * L_T + L_last,
                          rho_integral=float(log_half[-1]) if nsteps else 0.0, log_n0=log_n0)
    return state, (dt * np.arange(nsteps + 1), rho), {"extinct": extinct}


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
