"""Periodic logistic dynamics for the total population size.

When the population concentrates at a single trait, its total size rho obeys
the logistic law rho' = rho * (q(t) - rho) with a periodic per-capita rate q,
and u = 1 / rho the linear law u' = 1 - q u. One positive map of u per step,
composed over a period in logs, gives the positive periodic solution (its
fixed point) and an integrator of u to observe attraction toward it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from .errors import ExtinctionError, NumericalError
from .quadrature import check_end_time, check_steps_per_period, simpson

# Fine-grid intervals per period used for the closed-form machinery.
FINE_INTERVALS = 8192
# Samples (closed grid over one period) of a signal built from a callable.
SAMPLES = 2049


@dataclass
class PeriodicScalarSignal:
    """A scalar signal with a fixed period.

    Holds uniform samples over one closed period (SAMPLES of them when built
    from a callable), plus optionally the callable they came from, which
    takes a 1-d array of times and returns their values.
    Evaluation uses the callable when present and periodic linear
    interpolation of the samples otherwise.
    """

    period: float
    times: np.ndarray
    values: np.ndarray
    fn: Callable | None = None

    @classmethod
    def from_array_callable(cls, period: float, fn: Callable):
        """Signal of fn, a callable of a 1-d array of times."""
        times = np.linspace(0.0, period, SAMPLES)
        values = np.asarray(fn(times), dtype=float)
        return cls(period=period, times=times, values=values, fn=fn)

    def __call__(self, t):
        if self.fn is None:
            return np.interp(np.asarray(t) % self.period, self.times, self.values)
        out = np.asarray(self.fn(np.atleast_1d(np.asarray(t, dtype=float))), dtype=float)
        return out if np.ndim(t) else float(out[0])

    def mean(self) -> float:
        return float(simpson(self.values, self.times[1] - self.times[0])) / self.period

    def first_harmonic(self) -> tuple[float, float, float]:
        """Least-squares fit of the samples to
        offset + amp * sin(2 pi t / period + phase); returns (amp, phase,
        offset) with amp >= 0 and phase in [-pi, pi]."""
        w = 2.0 * np.pi / self.period
        design = np.column_stack([np.sin(w * self.times), np.cos(w * self.times),
                                  np.ones_like(self.times)])
        coef, *_ = np.linalg.lstsq(design, self.values, rcond=None)
        return (float(np.hypot(coef[0], coef[1])), float(np.arctan2(coef[1], coef[0])),
                float(coef[2]))


def _step_map(h, q_start, q_mid, q_end):
    """u -> alpha u + beta, the step of width h of u' = 1 - q u from q at its
    start, midpoint and end, as (log alpha, beta): alpha = exp(-int q), beta =
    int_0^h exp(-int_s^h q) ds, every integral by Simpson's rule on the parabola
    through the three values. Fourth order, alpha >= 0 and beta > 0 for finite q."""
    log_alpha = -h / 6.0 * (q_start + 4.0 * q_mid + q_end)
    half = np.exp(-h / 24.0 * (5.0 * q_end + 8.0 * q_mid - q_start))
    return log_alpha, h / 6.0 * (np.exp(log_alpha) + 4.0 * half + 1.0)


def _period_maps(q: PeriodicScalarSignal, steps: int):
    """(dt, table, log A, log B) of `steps` _step_maps of width dt over a period, table
    being q on the half-step grid: u after k steps is A_k u + B_k, B_k = sum_{r<k}
    beta_r A_k / A_{r+1}, in logs. A map that is not finite raises NumericalError."""
    dt = q.period / steps
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        log_alpha, beta = _step_map(dt, table[0:-1:2], table[1::2], table[2::2])
    bad = np.flatnonzero(~np.isfinite(log_alpha + beta))
    if bad.size:
        rates = table[2 * bad[0]:2 * bad[0] + 3]
        raise NumericalError(f"step map at t = {dt * bad[0]:.6g} is not finite: " + (
            "a NaN rate" if np.isnan(rates).any() else
            f"dt * |q| = {dt * np.abs(rates).max():.6g}, beyond the range of exp"))
    # the running sum of log alpha, each addition's rounding error (TwoSum) added back
    total = np.cumsum(np.append(0.0, log_alpha))
    term = np.diff(total)
    log_A = total + np.cumsum(np.append(0.0, total[:-1] - (total[1:] - term) + (log_alpha - term)))
    log_B = np.append(-np.inf, log_A[1:] + np.logaddexp.accumulate(np.log(beta) - log_A[1:]))
    return dt, table, log_A, log_B


def _sizes(log_A, log_B, log_u):
    """rho = 1 / (A_k u + B_k) for u = exp(log_u), k on a new last axis (0 for u = inf)."""
    rho = log_A + np.expand_dims(log_u, -1)  # one buffer, reused in place
    with np.errstate(over="ignore"):
        return np.reciprocal(np.add(np.exp(rho, out=rho), np.exp(log_B), out=rho), out=rho)


def periodic_rho_closed_form(q: PeriodicScalarSignal) -> PeriodicScalarSignal:
    """Positive periodic logistic orbit for the per-capita rate q of period T.

    The fixed point of the period map of _period_maps on S = FINE_INTERVALS
    steps: u = 1 / rho at node t_k is A_k u_0 + B_k, u_0 = B_S / (1 - A_S) and
    A_S = exp(-I), I the period integral of q. fn steps the node value below
    t by one _step_map: to the bit on a node, within (s max|q|)^5 at s = t - t_k.
    The SAMPLES values are node values. The error is Simpson's on each step,
    about (I / S)^4 / 2880 relative for a constant q. Raises ExtinctionError
    if I <= 0: no positive periodic solution exists then, and 0 attracts.
    """
    T, n = q.period, FINE_INTERVALS
    dt, table, log_A, log_B = _period_maps(q, n)
    period_integral = -float(log_A[n])
    if period_integral <= 0.0:
        raise ExtinctionError("extinction regime: no positive periodic orbit "
                              f"(period integral of q = {period_integral:.6g})")
    at_nodes = _sizes(log_A, log_B, log_B[n] - np.log(-np.expm1(-period_integral)))
    nodes = dt * np.arange(n + 1)

    def rho(t):
        tq = t % T
        k = np.searchsorted(nodes, tq, side="right") - 1
        s = tq - nodes[k]
        log_alpha, beta = _step_map(s, table[2 * k], q(nodes[k] + 0.5 * s), q(tq))
        return at_nodes[k] / (np.exp(log_alpha) + beta * at_nodes[k])

    # the samples are nodes, every (n / (SAMPLES - 1))-th, and rho(T) = rho(0)
    values = np.append(at_nodes[:n:n // (SAMPLES - 1)], at_nodes[0])
    return PeriodicScalarSignal(period=T, times=np.linspace(0.0, T, SAMPLES),
                                values=values, fn=rho)


def integrate_logistic(q: PeriodicScalarSignal, rho0, t_end: float,
                       steps_per_period: int = 1024):
    """Integrate rho' = rho (q(t) - rho) from rho(0) = rho0, one start or a 1-d
    array of them (then one row of rho each). Returns (times, rho).

    Step r of every period is map r of _period_maps at steps_per_period: u =
    1 / rho after it is A_r u_p + B_r, u_p carried between periods in logs.
    A map that is not finite or a negative or non-finite start raises
    NumericalError; a t_end or steps_per_period that check_end_time or
    check_steps_per_period refuses raises ConfigError. After the start rho
    stays in (0, 1 / min beta] up to rounding; a start of 0 stays 0.
    """
    starts = np.asarray(rho0, dtype=float)
    if starts.ndim > 1 or not (np.isfinite(starts) & (starts >= 0.0)).all():
        raise NumericalError(f"initial size {rho0} is not a finite nonnegative number")
    check_end_time(t_end)
    check_steps_per_period(steps_per_period)
    dt, _, log_A, log_B = _period_maps(q, steps_per_period)
    n = int(round(t_end / dt))
    with np.errstate(divide="ignore"):  # a start of 0 is u = inf, a fixed point
        log_u = [-np.log(starts.ravel())]
    for _ in range(n // steps_per_period):
        log_u.append(np.logaddexp(log_A[-1] + log_u[-1], log_B[-1]))
    # (start, period, step), then one row per start
    rho = _sizes(log_A[:-1], log_B[:-1], np.array(log_u).T).reshape(starts.size, -1)
    return dt * np.arange(n + 1), (rho[:, :n + 1] if starts.ndim else rho[0, :n + 1])
