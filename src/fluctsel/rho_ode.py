"""Periodic logistic dynamics for the total population size.

When the population concentrates at a single trait, its total size rho obeys
the logistic law rho' = rho * (q(t) - rho) with a periodic per-capita rate q,
and u = 1 / rho the linear law u' = 1 - q u. This module provides the positive
periodic solution in closed form, an RK4 integrator of u to observe
attraction toward it, and period means.
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


def _rk4_map(h, q_start, q_mid, q_end):
    """RK4 step of width h for u' = 1 - q u as u -> alpha u + beta, from the stages
    k_i = a_i u + b_i; q at the step's start, midpoint and end (scalars or arrays)."""
    half, sixth = 0.5 * h, h / 6.0
    a2, b2 = -q_mid * (1.0 - half * q_start), 1.0 - half * q_mid
    a3, b3 = -q_mid * (1.0 + half * a2), 1.0 - q_mid * (half * b2)
    a4, b4 = -q_end * (1.0 + h * a3), 1.0 - q_end * (h * b3)
    return (1.0 + sixth * (-q_start + 2.0 * a2 + 2.0 * a3 + a4),
            sixth * (1.0 + 2.0 * b2 + 2.0 * b3 + b4))


def _positive_map(q, t, h, depth, q_start, q_mid, q_end):
    """The RK4 map of the step of width h from t or, if its alpha or beta is not
    positive, the composition of its halves (q evaluated directly), recursively."""
    alpha, beta = _rk4_map(h, q_start, q_mid, q_end)
    if alpha > 0.0 and beta > 0.0:
        return alpha, beta
    if depth >= 40:
        raise NumericalError(f"positivity lost at t = {t:.6g} despite step halving")
    (a1, b1), (a2, b2) = (_positive_map(q, s, h / 2, depth + 1, q(s), q(s + h / 4), q(s + h / 2))
                          for s in (t, t + h / 2))
    return a2 * a1, a2 * b1 + b2


def integrate_logistic(q: PeriodicScalarSignal, rho0: float, t_end: float,
                       steps_per_period: int = 1024):
    """Integrate rho' = rho (q(t) - rho) from rho(0) = rho0 with RK4 on the
    linear law u' = 1 - q u of u = 1 / rho. Returns (times, rho).

    steps_per_period steps of dt = period / steps_per_period fill each
    period, and q is evaluated once on one period's half-step grid, so step r
    of every period is one affine map u -> alpha_r u + beta_r, composed over
    a period by one scan. A step with alpha or beta not positive is replaced
    by its two half steps, recursively; more than 40 halvings raise
    NumericalError, as does a negative or non-finite start (a negative or
    non-finite t_end, or a steps_per_period that is not a whole number
    >= 1, raises ConfigError). After the start rho stays in
    (0, 1 / min beta] up to rounding, and a start of 0 stays 0.
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
    alpha, beta = _rk4_map(dt, table[0:-1:2], table[1::2], table[2::2])
    for r in np.flatnonzero(~((alpha > 0.0) & (beta > 0.0))):
        alpha[r], beta[r] = _positive_map(q, dt * r, dt, 0, *table[2 * r:2 * r + 3])
    # (A_r, B_r) maps u at a period's start to u after r of its steps
    *maps, (A_T, B_T) = accumulate(zip(alpha.tolist(), beta.tolist()), initial=(1.0, 0.0),
                                   func=lambda m, s: (s[0] * m[0], s[0] * m[1] + s[1]))
    A, B = np.array(maps).T
    # 1 / (A u_p + B) written in rho_p = 1 / u_p, so that 0 stays 0 exactly
    starts = np.array([*accumulate(range(n // steps), lambda rho, _: rho / (A_T + B_T * rho),
                                   initial=rho0)])[:, None]
    return dt * np.arange(n + 1), (starts / (A + B * starts)).ravel()[:n + 1]
