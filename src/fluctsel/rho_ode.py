"""Periodic logistic dynamics for the total population size.

When the population concentrates at a single trait, its total size rho obeys
the scalar logistic law rho' = rho * (q(t) - rho) with a periodic per-capita
rate q. This module provides the positive periodic solution in closed form,
a direct time integrator to observe attraction toward it, and period means.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import cycle
from typing import Callable

import numpy as np
from .errors import ExtinctionError, NumericalError
from .quadrature import check_end_time, cumulative_simpson, simpson, snap_steps

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


def periodic_rho_closed_form(q: PeriodicScalarSignal) -> PeriodicScalarSignal:
    """Positive periodic logistic orbit for per-capita rate q.

    Parameters
    ----------
    q : PeriodicScalarSignal
        Per-capita growth rate with period T. It is evaluated on one period
        of a fine grid, and its antiderivative is precomputed once over two
        periods.

    Returns
    -------
    PeriodicScalarSignal
        The orbit rho(t) = (1 - e^{-I}) / (e^{-I} * J(t)) where I is the
        period integral of q and J(t) = int_t^{t+T} exp(int_t^s q) ds. Its
        fn is this closed form, so off-grid calls keep full accuracy; its
        values are the closed form at SAMPLES times. Its error is Simpson's
        truncation error on J, about (I / FINE_INTERVALS)^4 / 180 relative
        for a constant q: it grows with I (1.3e-12 at I = 32).

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

    def rho(t):
        tq = t % T
        j = np.exp(-(np.interp(tq, ts, anti) - shift) - period_integral) * (
            np.interp(tq + T, ts, grow) - np.interp(tq, ts, grow))
        return -np.expm1(-period_integral) / j

    return PeriodicScalarSignal.from_array_callable(T, rho)


def _rk4_steps(q, sizes: array, triples, h: float, t0: float, depth: int):
    """Fill sizes[1:] from sizes[0] with RK4 steps of width h for
    rho' = rho (q - rho), the step into sizes[i] taking q at its start,
    midpoint and end from the i-th (q_start, q_mid, q_end) of triples. A
    step whose result is not positive is redone as two half steps from its
    start t0 + (i - 1) h, evaluating q directly; more than 40 nested
    halvings raise NumericalError."""
    half, sixth = 0.5 * h, h / 6.0
    rho = sizes[0]
    for i, (q_start, q_mid, q_end) in zip(range(1, len(sizes)), triples):
        k1 = rho * (q_start - rho)
        r2 = rho + half * k1
        k2 = r2 * (q_mid - r2)
        r3 = rho + half * k2
        k3 = r3 * (q_mid - r3)
        r4 = rho + h * k3
        k4 = r4 * (q_end - r4)
        out = rho + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (out > 0.0 or rho == 0.0):
            t = t0 + h * (i - 1)
            if depth >= 40:
                raise NumericalError(f"positivity lost at t = {t:.6g} despite step halving")
            sub = array("d", (rho, 0.0, 0.0))
            _rk4_steps(q, sub, [(q(s), q(s + 0.5 * half), q(s + half))
                                for s in (t, t + half)], half, t, depth + 1)
            out = sub[2]
        sizes[i] = rho = out


def integrate_logistic(q: PeriodicScalarSignal, rho0: float, t_end: float,
                       dt: float | None = None):
    """Integrate rho' = rho (q(t) - rho) from rho(0) = rho0 with RK4.

    Steps live on a uniform grid of width dt (default period/1024), snapped
    to period / round(period / dt) so that a whole number of steps fills one
    period. q is evaluated once on one period's half-step grid, and the
    steps cycle through its (start, midpoint, end) triples. A step whose
    result is not positive is retried as two half steps, recursively,
    evaluating q directly; more than 40 halvings raises NumericalError, as
    does a start that is negative or not finite, and a t_end that is
    negative or not finite raises ConfigError. Returns (times, rho).
    """
    if not 0.0 <= rho0 < math.inf:
        raise NumericalError(f"initial size {rho0} is not a finite nonnegative number")
    check_end_time(t_end)
    T = q.period
    steps, dt = snap_steps(T, T / 1024 if dt is None else dt)
    n = int(round(t_end / dt))
    times = dt * np.arange(n + 1)
    # q at t = j dt / 2: the step starts, midpoints and ends of one period
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float).tolist()
    sizes = array("d", (rho0,)) * (n + 1)
    _rk4_steps(q, sizes, cycle(zip(table[0:-1:2], table[1::2], table[2::2])), dt, 0.0, 0)
    return times, np.frombuffer(sizes)
