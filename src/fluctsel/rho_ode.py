"""Periodic logistic dynamics for the total population size.

When the population concentrates at a single trait, its total size rho obeys
the logistic law rho' = rho * (q(t) - rho) with a periodic per-capita rate q,
and u = 1 / rho the linear law u' = 1 - q u. This module provides the positive
periodic solution in closed form, an integrator of u to observe attraction
toward it, both stepped by one positive map of u, and period means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np
from .errors import ExtinctionError, NumericalError
from .quadrature import (check_end_time, check_steps_per_period, cumulative_simpson,
                         simpson)

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
    start, midpoint and end: alpha = exp(-int q), beta = int_0^h exp(-int_s^h q)
    ds, every integral by Simpson's rule on the parabola through the three
    values. Fourth order, with alpha >= 0 and beta > 0 for every finite q."""
    alpha = np.exp(-h / 6.0 * (q_start + 4.0 * q_mid + q_end))
    half = np.exp(-h / 24.0 * (5.0 * q_end + 8.0 * q_mid - q_start))
    return alpha, h / 6.0 * (alpha + 4.0 * half + 1.0)


def periodic_rho_closed_form(q: PeriodicScalarSignal) -> PeriodicScalarSignal:
    """Positive periodic logistic orbit for the per-capita rate q of period T.

    The orbit is rho(t) = (1 - e^{-I}) / (e^{-I} J(t)), where I is the period
    integral of q and J(t) = int_t^{t+T} exp(int_t^s q) ds. q is evaluated on
    one period of a fine grid of FINE_INTERVALS intervals and repeated for a
    second, and rho is taken at the grid's nodes t_k. The signal's fn maps
    the node value below any t by one _step_map step of width s = t - t_k:
    to the bit on a node, within an error of order (s max|q|)^5 between
    nodes. Its SAMPLES values are read off the node values without
    evaluating q, and equal fn at their times. The node error is Simpson's
    truncation error on J, about (I / FINE_INTERVALS)^4 / 180 relative for
    a constant q: it grows with I (1.3e-12 at I = 32).
    Raises ExtinctionError if I <= 0: no positive periodic solution exists
    then, and 0 attracts.
    """
    T, n = q.period, FINE_INTERVALS
    ts, dt = np.linspace(0.0, 2.0 * T, 2 * n + 1, retstep=True)
    # q is periodic: evaluate one period and repeat it for the second
    qs = np.asarray(q(ts[:n + 1]), dtype=float)
    anti = cumulative_simpson(np.concatenate([qs, qs[1:]]), dt)
    period_integral = float(anti[n])
    if period_integral <= 0.0:
        raise ExtinctionError(
            "extinction regime: no positive periodic orbit "
            f"(period integral of q = {period_integral:.6g})")
    shift = float(anti.max())
    grow = cumulative_simpson(np.exp(anti - shift), dt)
    # the orbit at the nodes of one closed period
    j = np.exp(-(anti[:n + 1] - shift) - period_integral) * (grow[n:] - grow[:n + 1])
    at_nodes = -np.expm1(-period_integral) / j

    def rho(t):
        tq = t % T
        k = np.searchsorted(ts, tq, side="right") - 1
        s = tq - ts[k]
        alpha, beta = _step_map(s, qs[k], q(ts[k] + 0.5 * s), q(tq))
        return at_nodes[k] / (alpha + beta * at_nodes[k])

    # the samples are nodes, every (n / (SAMPLES - 1))-th, and rho(T) = rho(0)
    values = np.append(at_nodes[:n:n // (SAMPLES - 1)], at_nodes[0])
    return PeriodicScalarSignal(period=T, times=np.linspace(0.0, T, SAMPLES),
                                values=values, fn=rho)


def integrate_logistic(q: PeriodicScalarSignal, rho0: float, t_end: float,
                       steps_per_period: int = 1024):
    """Integrate rho' = rho (q(t) - rho) from rho(0) = rho0 through the
    linear law u' = 1 - q u of u = 1 / rho. Returns (times, rho).

    steps_per_period steps of dt = period / steps_per_period fill each
    period, and q is evaluated once on one period's half-step grid, so step r
    of every period is one _step_map u -> alpha_r u + beta_r, composed over
    a period by one scan. A map that is not finite (a NaN rate, or dt * |q|
    beyond the range of exp) or a negative or non-finite start raises
    NumericalError; a negative or non-finite t_end, or a steps_per_period
    that is not a whole number >= 1, raises ConfigError. After the start rho
    stays in (0, 1 / min beta] up to rounding, and a start of 0 stays 0.
    """
    if not 0.0 <= rho0 < math.inf:
        raise NumericalError(f"initial size {rho0} is not a finite nonnegative number")
    check_end_time(t_end)
    check_steps_per_period(steps_per_period)
    steps = steps_per_period
    dt = q.period / steps
    n = int(round(t_end / dt))
    # q at t = j dt / 2: the step starts, midpoints and ends of one period
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = _step_map(dt, table[0:-1:2], table[1::2], table[2::2])
    bad = np.flatnonzero(~np.isfinite(alpha + beta))
    if bad.size:
        rates = table[2 * bad[0]:2 * bad[0] + 3]
        raise NumericalError(f"step map at t = {dt * bad[0]:.6g} is not finite: " + (
            "a NaN rate" if np.isnan(rates).any() else
            f"dt * |q| = {dt * np.abs(rates).max():.6g}, beyond the range of exp"))
    if rho0 == 0.0:  # a fixed point, also where a period's exp(-int q) underflows to 0
        return dt * np.arange(n + 1), np.zeros(n + 1)
    # (A_r, B_r) maps u at a period's start to u after r of its steps
    *maps, (A_T, B_T) = accumulate(zip(alpha.tolist(), beta.tolist()), initial=(1.0, 0.0),
                                   func=lambda m, s: (s[0] * m[0], s[0] * m[1] + s[1]))
    A, B = np.array(maps).T
    # 1 / (A u_p + B) written in rho_p = 1 / u_p
    starts = np.array([*accumulate(range(n // steps), lambda rho, _: rho / (A_T + B_T * rho),
                                   initial=rho0)])[:, None]
    return dt * np.arange(n + 1), (starts / (A + B * starts)).ravel()[:n + 1]
