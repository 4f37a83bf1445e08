"""Time-grid checks and composite Simpson quadrature on uniform grids.

Every period integral of the package (averaged rates, mean sizes, moment
and fitness means, antiderivatives) is taken on an equally spaced grid, so
both rules take the spacing dx instead of the nodes. They are the
equal-spacing rules of scipy.integrate, written out so that importing the
package does not load scipy.integrate (and with it scipy.special and
scipy.optimize), and so that the even-N rule does not change with the SciPy
release.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def check_end_time(t_end: float) -> None:
    """ConfigError unless 0 <= t_end < inf (a NaN fails too)."""
    if not 0.0 <= t_end < np.inf:
        raise ConfigError(f"t_end must be finite and nonnegative, got {t_end}")


def check_steps_per_period(steps) -> None:
    """ConfigError unless steps is a whole number >= 1 (a bool or a float
    fails, a numpy integer passes)."""
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise ConfigError(f"steps_per_period must be a whole number >= 1, got {steps!r}")


def _parabola_interval(f1, f2, f3, dx):
    """Integral over [x1, x2] of the parabola through (x1, f1), (x2, f2),
    (x3, f3) on nodes dx apart; with the arguments reversed, over [x2, x3]."""
    return dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)


def simpson(y, dx: float):
    """Composite Simpson integral of samples y spaced dx apart along the first
    axis.

    An odd number of points uses the 1-4-2-...-4-1 rule. An even number uses
    it up to the third-last point and takes the last interval from the
    parabola through the last three points (Cartwright's correction, as in
    scipy.integrate.simpson): dx/12 * (5 y[-1] + 8 y[-2] - y[-3]). Two
    points use the trapezoid rule.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 2:
        return 0.5 * dx * (y[1] + y[0])
    stop = n - 2 if n % 2 else n - 3
    out = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2], axis=0)
    out *= dx / 3.0
    if n % 2 == 0:
        out += dx / 12 * (5 * y[-1] + 8 * y[-2] - y[-3])
    return out


def cumulative_simpson(y, dx: float) -> np.ndarray:
    """Running Simpson integral of samples y spaced dx apart along the first
    axis, from 0 at the first point, with the shape of y.

    Each interval is integrated over the parabola through it and one
    neighbour: intervals 0, 2, 4, ... with their right neighbour, intervals
    1, 3, 5, ... and the last one with their left neighbour. This is
    scipy.integrate.cumulative_simpson(y, dx=dx, initial=0) to the bit.
    Fewer than three points use the trapezoid rule.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    out = np.zeros_like(y)
    if n < 3:
        out[1:] = 0.5 * dx * (y[1:] + y[:-1])
        return out
    a, b, c = y[0:-2:2], y[1:-1:2], y[2::2]
    pieces = np.empty_like(y[1:])
    pieces[0:-1:2] = _parabola_interval(a, b, c, dx)
    pieces[1::2] = _parabola_interval(c, b, a, dx)
    pieces[-1] = _parabola_interval(y[-1], y[-2], y[-3], dx)
    np.cumsum(pieces, axis=0, out=out[1:])
    return out
