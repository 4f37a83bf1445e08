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
from .quadrature import check_end_time, check_whole_number

# Fine-grid intervals per period used for the closed-form machinery.
FINE_INTERVALS = 8192
# Samples (closed grid over one period) of a signal built from a callable.
SAMPLES = 2049
# psi = 2 e^{-w} sum_k w^{2k} / ((2k)! (2k + 1) (2k + 3)), w = z / 2, in _log_step_integral
# below z = 1, where its closed form cancels: 7 terms, highest first, leave 8e-18 at z = 1
_PSI_SERIES = np.cumprod([2.0 / 3.0] + [1.0 / ((2 * k + 2) * (2 * k + 5)) for k in range(6)])[::-1]


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
        """Plain mean of the N distinct samples on [0, T): exact for a
        trigonometric polynomial of degree below N."""
        return float(self.values[:-1].mean())

    def first_harmonic(self) -> tuple[float, float, float]:
        """offset + amp * sin(2 pi t / period + phase) from the discrete
        Fourier coefficients of the N distinct samples, 2 mean(v sin) and
        2 mean(v cos), and offset = mean(); exact for a trigonometric
        polynomial of degree up to N - 2. Returns (amp, phase, offset) with
        amp >= 0 and phase in [-pi, pi]."""
        wt, v = 2.0 * np.pi / self.period * self.times[:-1], self.values[:-1]
        s, c = 2.0 * np.mean(v * np.sin(wt)), 2.0 * np.mean(v * np.cos(wt))
        return float(np.hypot(s, c)), float(np.arctan2(c, s)), self.mean()


def _log_step_integral(h, log_start, log_mid, log_end):
    """log int_0^h M from log M at a step's start, midpoint and end (1-d arrays,
    or numbers beside one): M over the exponential through its end values, on
    the parabola through 1, gamma = M_mid / sqrt(M_start M_end) and 1, times
    that exponential, integrated exactly: h max(M_start, M_end) [phi(z) + (gamma
    - 1) psi(z)], z = |log(M_end / M_start)|, phi = int_0^1 e^{-zs} ds, psi = 4
    int_0^1 s (1 - s) e^{-zs} ds. Exact for a constant rate, fourth order, and
    positive, as phi - psi = int_0^1 (1 - 2s)^2 e^{-zs} ds >= 0 (inf if gamma > e^709)."""
    z = np.abs(log_end - log_start)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.expm1(-z)
        phi = np.divide(e, -z, out=np.ones_like(z), where=z > 0.0)
        w2, psi = 0.25 * z * z, np.full_like(z, _PSI_SERIES[0])
        for c in _PSI_SERIES[1:]:
            psi *= w2
            psi += c
        psi *= np.exp(-0.5 * z)
        far = z >= 1.0
        psi[far] = 4.0 * (2.0 * z[far] + (z[far] + 2.0) * e[far]) / z[far] ** 3
        psi *= np.expm1(log_mid - 0.5 * (log_start + log_end))
        return np.log(h) + np.maximum(log_start, log_end) + np.log(psi + phi)


def _step_exponents(h, start, mid, end, out=None):
    """(half, full) = (h / 24 (5 start + 8 mid - end), h / 6 (start + 4 mid + end)):
    the integrals over the first half of a step of width h and over all of it
    (Simpson's rule) of the parabola through a rate's values at its start,
    midpoint and end. Written into out = (half, full) if given, with no temporaries."""
    half, full = np.empty((2,) + np.broadcast(h, start, mid, end).shape) if out is None else out
    np.add(np.multiply(start, 5.0, out=half), np.multiply(mid, 8.0, out=full), out=half)
    np.multiply(np.subtract(half, end, out=half), h / 24.0, out=half)
    np.add(np.multiply(mid, 4.0, out=full), start, out=full)
    np.multiply(np.add(full, end, out=full), h / 6.0, out=full)
    return half, full


def _period_maps(q: PeriodicScalarSignal, steps: int):
    """(dt, table, log A, log B) of the `steps` maps u -> alpha u + beta of width dt
    over a period, table being q on the half-step grid (alpha = 1 / M and beta = int M
    / M over a step, M = exp(int q)): u after k steps is A_k u + B_k, B_k = sum_{r<k}
    beta_r A_k / A_{r+1}, in logs. A map that is not finite raises NumericalError."""
    dt = q.period / steps
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        half, full = _step_exponents(dt, table[0:-1:2], table[1::2], table[2::2])
        log_alpha = -full
        log_beta = log_alpha + _log_step_integral(dt, 0.0, half, full)
    bad = np.flatnonzero(~np.isfinite(log_alpha + log_beta))
    if bad.size:
        raise NumericalError(f"step map at t = {dt * bad[0]:.6g} is not finite: a NaN rate, or "
                             f"dt * |q| too large (q = {table[2 * bad[0]:2 * bad[0] + 3]})")
    # the running sum of log alpha, each addition's rounding error (TwoSum) added back
    total = np.cumsum(np.append(0.0, log_alpha))
    term = np.diff(total)
    log_A = total + np.cumsum(np.append(0.0, total[:-1] - (total[1:] - term) + (log_alpha - term)))
    log_B = np.append(-np.inf, log_A[1:] + np.logaddexp.accumulate(log_beta - log_A[1:]))
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
    A_S = exp(-I), I the period integral of q. fn steps the node value below t by
    one such map of width s = t - t_k: to the bit on a node, within (s max|q|)^5
    elsewhere. The SAMPLES values are node values, exact for a constant q. Raises
    ExtinctionError if I <= 0: no positive periodic solution exists, 0 attracts.
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
        half, log_m = _step_exponents(s, table[2 * k], q(nodes[k] + 0.5 * s), q(tq))
        log_y = _log_step_integral(s, 0.0, half, log_m)
        return at_nodes[k] / (np.exp(-log_m) + np.exp(log_y - log_m) * at_nodes[k])

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
    check_whole_number refuses raises ConfigError. After the start rho
    stays in (0, 1 / min beta] up to rounding; a start of 0 stays 0.
    """
    starts = np.asarray(rho0, dtype=float)
    if starts.ndim > 1 or not (np.isfinite(starts) & (starts >= 0.0)).all():
        raise NumericalError(f"initial size {rho0} is not a finite nonnegative number")
    check_end_time(t_end)
    check_whole_number(steps_per_period, "steps_per_period")
    dt, _, log_A, log_B = _period_maps(q, steps_per_period)
    n = int(round(t_end / dt))
    with np.errstate(divide="ignore"):  # a start of 0 is u = inf, a fixed point
        log_u = [-np.log(starts.ravel())]
    for _ in range(n // steps_per_period):
        log_u.append(np.logaddexp(log_A[-1] + log_u[-1], log_B[-1]))
    # (start, period, step), then one row per start
    rho = _sizes(log_A[:-1], log_B[:-1], np.array(log_u).T).reshape(starts.size, -1)
    return dt * np.arange(n + 1), (rho[:, :n + 1] if starts.ndim else rho[0, :n + 1])
