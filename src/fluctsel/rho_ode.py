"""Periodic logistic dynamics for the total population size.

When the population concentrates at a single trait, its total size rho obeys
the scalar logistic law rho' = rho * (q(t) - rho) with a periodic per-capita
rate q. This module provides the positive periodic solution in closed form,
a direct time integrator to observe attraction toward it, and period means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from .errors import ExtinctionError, NumericalError
from .quadrature import cumulative_simpson, simpson, snap_steps

# Fine-grid intervals per period used for the closed-form machinery.
FINE_INTERVALS = 8192
# Samples (closed grid over one period) of a signal built from a callable and
# of a closed-form orbit.
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
    def from_callable(cls, period: float, fn: Callable):
        """Signal of fn, a callable of one scalar time, called once per time."""
        return cls.from_array_callable(
            period, lambda ts: np.array([float(fn(t)) for t in ts]))

    @classmethod
    def from_array_callable(cls, period: float, fn: Callable):
        """Signal of fn, a callable of a 1-d array of times."""
        times = np.linspace(0.0, period, SAMPLES)
        values = np.asarray(fn(times), dtype=float)
        return cls(period=period, times=times, values=values, fn=fn)

    @classmethod
    def from_samples(cls, period: float, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        times = np.linspace(0.0, period, len(values))
        return cls(period=period, times=times, values=values, fn=None)

    def __call__(self, t):
        if self.fn is None:
            return np.interp(np.asarray(t) % self.period, self.times, self.values)
        out = np.asarray(self.fn(np.atleast_1d(np.asarray(t, dtype=float))), dtype=float)
        return out if np.ndim(t) else float(out[0])

    def mean(self) -> float:
        return float(simpson(self.values, self.times[1] - self.times[0])) / self.period


@dataclass
class RhoOrbit:
    """The positive periodic orbit of the logistic law.

    samples holds the orbit on a uniform closed grid over one period; mean is
    its period average. evaluate(t) runs the closed-form machinery, so
    off-grid queries keep full accuracy.
    """

    period: float
    times: np.ndarray
    samples: np.ndarray
    mean: float
    evaluate: Callable = field(repr=False)


def periodic_rho_closed_form(q: PeriodicScalarSignal) -> RhoOrbit:
    """Positive periodic logistic orbit for per-capita rate q.

    Parameters
    ----------
    q : PeriodicScalarSignal
        Per-capita growth rate with period T. It is evaluated on one period
        of a fine grid, and its antiderivative is precomputed once over two
        periods.

    Returns
    -------
    RhoOrbit
        Orbit with rho(t) = (1 - e^{-I}) / (e^{-I} * J(t)) where I is the
        period integral of q and J(t) = int_t^{t+T} exp(int_t^s q) ds,
        sampled at SAMPLES times.

    Raises
    ------
    ExtinctionError
        If the period integral of q is not positive, in which case no
        positive periodic solution exists and 0 attracts.
    """
    T = q.period
    ts, dt = np.linspace(0.0, 2.0 * T, 2 * FINE_INTERVALS + 1, retstep=True)
    # q is periodic: evaluate one period and repeat it for the second
    qs = np.asarray(q(ts[:FINE_INTERVALS + 1]), dtype=float)
    qs = np.concatenate([qs, qs[1:]])
    anti = cumulative_simpson(qs, dt)
    period_integral = float(anti[FINE_INTERVALS])
    if period_integral <= 0.0:
        raise ExtinctionError(
            "extinction regime: no positive periodic orbit "
            f"(period integral of q = {period_integral:.6g})")
    shift = float(anti.max())
    grow = cumulative_simpson(np.exp(anti - shift), dt)

    def evaluate(t):
        tq = np.asarray(t, dtype=float) % T
        a_t = np.interp(tq, ts, anti)
        j = np.exp(-(a_t - shift) - period_integral) * (
            np.interp(tq + T, ts, grow) - np.interp(tq, ts, grow))
        out = -np.expm1(-period_integral) / j
        return out if np.ndim(t) else float(out)

    times = np.linspace(0.0, T, SAMPLES)
    samples = np.asarray(evaluate(times), dtype=float)
    fine_times = ts[:FINE_INTERVALS + 1]
    mean = float(simpson(evaluate(fine_times), dt)) / T
    return RhoOrbit(period=T, times=times, samples=samples, mean=mean, evaluate=evaluate)


def integrate_logistic(q: PeriodicScalarSignal, rho0: float, t_end: float,
                       dt: float | None = None):
    """Integrate rho' = rho (q(t) - rho) from rho(0) = rho0 with RK4.

    Steps live on a uniform grid of width dt (default period/1024), snapped
    to period / round(period / dt) so that a whole number of steps fills one
    period. q is evaluated once on one period's half-step grid and step k
    reads it at its node times reduced mod the period. A step whose result
    is not positive is retried as two half steps, recursively, evaluating q
    directly; more than 40 halvings raises NumericalError. Returns
    (times, rho).
    """
    if rho0 < 0:
        raise NumericalError(f"negative initial size {rho0}")
    T = q.period
    steps, dt = snap_steps(T, T / 1024 if dt is None else dt)
    n = int(round(t_end / dt))
    times = dt * np.arange(n + 1)
    # q at t = j dt / 2: the step starts, midpoints and ends of one period
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float).tolist()

    def rk4(rho, h, q_start, q_mid, q_end):
        k1 = rho * (q_start - rho)
        r2 = rho + 0.5 * h * k1
        k2 = r2 * (q_mid - r2)
        r3 = rho + 0.5 * h * k2
        k3 = r3 * (q_mid - r3)
        r4 = rho + h * k3
        k4 = r4 * (q_end - r4)
        return rho + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def halve(rho, t, h, depth):
        if depth >= 40:
            raise NumericalError(f"positivity lost at t = {t:.6g} despite step halving")
        half = advance(rho, t, 0.5 * h, depth + 1)
        return advance(half, t + 0.5 * h, 0.5 * h, depth + 1)

    def advance(rho, t, h, depth):
        out = rk4(rho, h, q(t), q(t + 0.5 * h), q(t + h))
        if out > 0.0 or rho == 0.0:
            return out
        return halve(rho, t, h, depth)

    rho = np.empty(n + 1)
    rho[0] = rho0
    cur = float(rho0)
    for k in range(n):
        j = 2 * (k % steps)
        out = rk4(cur, dt, table[j], table[j + 1], table[j + 2])
        cur = out if out > 0.0 or cur == 0.0 else halve(cur, times[k], dt, 0)
        rho[k + 1] = cur
    return times, rho
