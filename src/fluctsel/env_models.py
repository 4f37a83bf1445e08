"""Periodic growth-rate models and hypothesis checks.

A model is a time-periodic net growth rate a(t, x) for a population structured
by a scalar trait x. The rest of the package consumes models through this
module: the time-averaged rate, the location of its maximum, and the
confinement of the rate away from it, the facts of the structural hypotheses
that the orbit bounds use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

# Sample times over one period for make_oscillating_pressure's input checks.
MEAN_NODES = 1025
# Elements per rate call in rate_blocks (20 rows at nx = 800): a whole-table
# broadcast costs memory and runs slower, larger blocks ran no faster.
RATE_BLOCK = 16384


@dataclass
class EnvironmentModel:
    """A time-periodic growth rate and the resolution it is read at.

    period : float
        Period T > 0 of the environment.
    rate : callable
        a(t, x); x is a scalar or ndarray, t a scalar or a column of times
        of shape (k, 1), and the result broadcasts to (k, len(x)).
    mean_times : int
        Number of equally spaced times on [0, T) whose plain mean is the
        time average of the rate (mean_growth); 1024 unless the maker sets it.
    trait_step : float
        Step h in x of every five-point stencil at the averaged optimum
        (_derivatives_at); 1e-3 unless the maker sets it.
    """

    period: float
    rate: Callable
    mean_times: int = 1024
    trait_step: float = 1e-3


@dataclass
class HypothesisReport:
    """The averaged optimum x_m (H2) and the confinement margin and radius
    around it (H5); None where check_hypotheses could not establish them."""

    x_m: float | None
    h5_delta: float | None
    h5_radius: float | None


def make_oscillating_optimum(r: float, g: float, c: float, b: float) -> EnvironmentModel:
    """Quadratic selection toward an optimum that oscillates sinusoidally.

    a(t, x) = r - g * (x - c * sin(b t))**2, with period 2*pi/b. Of degree 2
    in sin(b t), so its mean over 64 times is exact; the stencil step is 0.1.
    """
    for name, value in (("growth rate r", r), ("amplitude c", c)):
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if not 0 < g < np.inf:
        raise ConfigError(f"selection strength g must be positive and finite, got {g}")
    if not 0 < b < np.inf:
        raise ConfigError(f"angular frequency b must be positive and finite, got {b}")
    period = 2.0 * np.pi / b

    def rate(t, x):
        return r - g * (np.asarray(x) - c * np.sin(b * t)) ** 2

    return EnvironmentModel(period=period, rate=rate, mean_times=64, trait_step=0.1)


def make_oscillating_pressure(r: float, g_fn: Callable[[float], float]) -> EnvironmentModel:
    """Quadratic selection with a 1-periodic, time-varying strength.

    a(t, x) = r - g(t) * x**2. g_fn is called with arrays of times and must
    return an array of the same shape, or a constant that broadcasts to it.
    The pressure g must be positive, finite and 1-periodic; all three are
    checked on MEAN_NODES sample times over one period, periodicity as
    |g(t + 1) - g(t)| <= 1e-10 * max|g|. The model takes 64 mean times if
    their mean of g is that of 1024 to 1e-13 (as for a trigonometric
    polynomial of degree below 64), else 1024; the stencil step is 0.1.
    """
    if not np.isfinite(r):
        raise ConfigError(f"growth rate r must be finite, got {r}")
    ts = np.linspace(0.0, 1.0, MEAN_NODES)

    def sample(times):
        return np.broadcast_to(np.asarray(g_fn(times), dtype=float), times.shape)

    gs = sample(ts)
    if not (gs.min() > 0.0 and gs.max() < np.inf):
        raise ConfigError("selection pressure must stay positive and finite; "
                          f"sampled g in [{gs.min():.6g}, {gs.max():.6g}]")
    shift = float(np.abs(sample(ts + 1.0) - gs).max())
    if shift > 1e-10 * np.abs(gs).max():
        raise ConfigError(
            f"selection pressure must have period 1; max |g(t + 1) - g(t)| = {shift:.6g}")

    exact = abs(gs[:-1:16].mean() - gs[:-1].mean()) <= 1e-13 * gs.max()

    def rate(t, x):
        return r - g_fn(t) * np.asarray(x) ** 2

    return EnvironmentModel(period=1.0, rate=rate, mean_times=64 if exact else 1024,
                            trait_step=0.1)


def make_custom(period: float, rate: Callable) -> EnvironmentModel:
    """Wrap an arbitrary periodic rate callable as a model.

    rate(t, x) need only accept a scalar t: the model's rate calls it once
    per row of a column of times. The model takes the default resolution of
    EnvironmentModel: 1024 mean times and a stencil step of 1e-3.
    """
    if not period > 0:
        raise ConfigError(f"period must be positive, got {period}")

    def column_rate(t, x):
        if np.ndim(t) == 0:
            return rate(t, x)
        out = np.empty((np.size(t), np.size(x)))
        for row, ti in zip(out, np.ravel(t)):
            row[...] = rate(ti, x)
        return out

    return EnvironmentModel(period=float(period), rate=column_rate)


def make_tabulated(period: float, t_nodes: np.ndarray, x_nodes: np.ndarray,
                   values: np.ndarray) -> EnvironmentModel:
    """Model from sampled rate values, interpolated bilinearly in (t, x).

    t_nodes must be uniform on [0, period) without the right endpoint; time is
    wrapped modulo the period, so the interpolant is exactly periodic.
    x_nodes must be finite and strictly increasing; outside their range the
    edge value is held. The mean times are the nt rows (the mean of a table
    linear between rows is the mean of its rows), the stencil step the widest
    node spacing (a smaller step reads the kinks of the interpolant).
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    nt, nx = len(t_nodes), len(x_nodes)
    if not period > 0:
        raise ConfigError(f"period must be positive, got {period}")
    if values.shape != (nt, nx):
        raise ConfigError(
            f"value table shape {values.shape} does not match {nt} times x {nx} nodes")
    if nt < 2 or nx < 2:
        raise ConfigError("tabulated model needs at least 2 nodes in each direction")
    if not (np.isfinite(x_nodes).all() and (np.diff(x_nodes) > 0.0).all()):
        raise ConfigError("trait nodes must be finite and strictly increasing")
    if not np.isfinite(values).all():
        raise ConfigError("tabulated rate values must be finite")
    step = period / nt
    if not np.allclose(t_nodes, step * np.arange(nt), rtol=0, atol=1e-12 * period):
        raise ConfigError("time nodes must be uniform on [0, period) without the endpoint")

    def rate(t, x):
        # rows of the bilinear interpolant at each time, then np.interp's
        # formula per row: the edge value outside the nodes, the node value
        # on a node, slope * (x - x_j) + value_j inside interval j
        pos = (np.ravel(t) % period) / step
        j0 = np.floor(pos).astype(np.intp) % nt
        w = (pos - np.floor(pos))[:, None]
        rows = (1.0 - w) * values[j0] + w * values[(j0 + 1) % nt]
        xs = np.ravel(x).astype(float)
        j = np.clip(np.searchsorted(x_nodes, xs, side="right") - 1, 0, nx - 2)
        left, right = rows[:, j], rows[:, j + 1]
        slope = (right - left) / (x_nodes[j + 1] - x_nodes[j])
        out = np.where(xs == x_nodes[j], left, slope * (xs - x_nodes[j]) + left)
        out = np.where(xs < x_nodes[0], rows[:, :1], out)
        out = np.where(xs >= x_nodes[-1], rows[:, -1:], out)
        return out[0].reshape(np.shape(x))[()] if np.ndim(t) == 0 else out

    return EnvironmentModel(period=float(period), rate=rate, mean_times=nt,
                            trait_step=float(np.diff(x_nodes).max()))


def load_tabulated(path, x_lo: float, x_hi: float) -> EnvironmentModel:
    """Read a tabulated model from a plain-text file.

    The first non-comment line is a header "T nx nt"; the remaining tokens are
    the nt*nx rate values in row-major order (one row per time sample). Time
    samples are uniform on [0, T); trait nodes are uniform on [x_lo, x_hi].
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(
            f"{path}: cannot read tabulated-model file: {exc.strerror}") from exc
    tokens: list[str] = []
    header = None
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if header is None:
            header = body.split()
            continue
        tokens.extend(body.split())
    if header is None:
        raise ConfigError(f"{path}: empty tabulated-model file")
    if len(header) != 3:
        raise ConfigError(f"{path}: header must be 'T nx nt', got {' '.join(header)!r}")
    try:
        period = float(header[0])
        nx = int(header[1])
        nt = int(header[2])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad header 'T nx nt': {exc}") from exc
    if nx < 2 or nt < 2:
        raise ConfigError(f"{path}: header 'T nx nt' = {' '.join(header)!r} "
                          "needs nx and nt of at least 2")
    if len(tokens) != nt * nx:
        raise ConfigError(
            f"{path}: expected {nt * nx} values ({nt} times x {nx} nodes), found {len(tokens)}")
    try:
        values = np.array([float(tok) for tok in tokens]).reshape(nt, nx)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric value in table: {exc}") from exc
    return make_tabulated(period, period / nt * np.arange(nt), np.linspace(x_lo, x_hi, nx),
                          values)


def rate_rows(model: EnvironmentModel, times, x) -> np.ndarray:
    """a(t, x) for each t in times from one rate call with a column of
    times: a C-contiguous float array of shape (len(times), len(x))."""
    column = np.asarray(times, dtype=float)[:, None]
    block = np.broadcast_to(model.rate(column, x), (len(column), np.size(x)))
    return np.ascontiguousarray(block, dtype=float)


def rate_blocks(model: EnvironmentModel, times, x):
    """Yields (rows, a(times[rows], x)) for consecutive slices rows of times:
    one rate_rows call per block of about RATE_BLOCK elements."""
    times = np.asarray(times, dtype=float)
    rows = max(1, RATE_BLOCK // max(1, np.size(x)))
    for j in range(0, len(times), rows):
        yield slice(j, j + rows), rate_rows(model, times[j:j + rows], x)


def rate_table(model: EnvironmentModel, times, x) -> np.ndarray:
    """a(t, x) for each t in times (rate_blocks), shape (len(times), len(x))."""
    table = np.empty((np.size(times), np.size(x)))
    for rows, block in rate_blocks(model, times, x):
        table[rows] = block
    return table


def mean_growth(model: EnvironmentModel, x) -> np.ndarray:
    """Time average of the growth rate over one period at trait value(s) x:
    the plain mean of a(t, x) over the model's mean_times equally spaced
    times on [0, T), summed block by block (rate_blocks)."""
    n = model.mean_times
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    blocks = rate_blocks(model, model.period / n * np.arange(n), xs)
    total = sum(block.sum(axis=0) for _, block in blocks) / n
    return total if np.ndim(x) else float(total[0])


def _derivatives_at(x: float, h: float, values_at):
    """First, second and third derivative at x of values_at(nodes), whose last
    axis runs over the five nodes x + h (-2, ..., 2), h the model's trait_step:
    centered differences at the middle node."""
    m2, m1, mid, p1, p2 = np.moveaxis(
        np.asarray(values_at(x + h * np.arange(-2.0, 3.0)), dtype=float), -1, 0)
    d1 = (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)
    d2 = (-m2 + 16 * m1 - 30 * mid + 16 * p1 - p2) / (12 * h * h)
    d3 = (p2 - 2 * p1 + 2 * m1 - m2) / (2 * h ** 3)
    return d1, d2, d3


def averaged_optimum(model: EnvironmentModel, bracket: tuple[float, float]) -> float:
    """The averaged optimum x_m: the unique interior maximum of mean_growth
    on bracket.

    A scan of 1025 points certifies a single interior peak; from it, at most
    8 Newton steps on the five-point d1 and d2 (_derivatives_at) find the
    root of d1, stopping at a step below 1e-9 trait_step. Raises
    NumericalError("H2 violated on bracket") when the averaged rate has no
    unique interior maximum there (peak at an endpoint, several separated
    peaks, or a flat top), or when a d2 is not negative or an iterate lies
    further from the scan's peak than its spacing and trait_step (a table's
    interpolant peaks at a node, up to half a node spacing from the root).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ConfigError(f"empty bracket ({lo}, {hi})")
    xs = np.linspace(lo, hi, 1025)
    vals = mean_growth(model, xs)
    i = int(np.argmax(vals))
    if i == 0 or i == len(xs) - 1:
        raise NumericalError("H2 violated on bracket: maximum at an endpoint")
    d = np.diff(vals)
    # the signs of the rises, 0 for a rise within 1e-13 of the scale
    sgn = np.sign(d) * (np.abs(d) > 1e-13 * max(np.abs(vals).max(), 1.0))
    nonzero = sgn[sgn != 0.0]
    if nonzero.size == 0:
        raise NumericalError("H2 violated on bracket: averaged rate is flat")
    if np.count_nonzero(np.diff(nonzero)) != 1 or nonzero[0] < 0.0 or nonzero[-1] > 0.0:
        raise NumericalError("H2 violated on bracket: averaged rate is not unimodal")

    x, h = float(xs[i]), model.trait_step
    for _ in range(8):
        d1, d2, _ = _derivatives_at(x, h, lambda nodes: mean_growth(model, nodes))
        step = float(-d1 / d2) if d2 < 0.0 else np.inf
        x += step
        if not (d2 < 0.0 and abs(x - xs[i]) <= max(xs[1] - xs[0], h)):
            raise NumericalError(f"H2 violated on bracket: second derivative {d2:.6g}, Newton "
                                 f"iterate {x:.6g} from the scan's peak {xs[i]:.6g}")
        if abs(step) <= 1e-9 * h:
            break
    return x


def check_hypotheses(model: EnvironmentModel, domain: tuple[float, float],
                     lambda_hint: float = 0.0) -> HypothesisReport:
    """The averaged optimum and the confinement around it, on a trait domain.

    x_m is averaged_optimum on the domain, or None (and so are the others)
    when the averaged rate has no unique interior maximum there.
    Confinement is a radius R0 and margin delta > 0 with
    max_t a(t, x) + lambda_hint <= -delta for |x - x_m| >= R0, the max taken
    over 64 sample times on 513 nodes; both are None when the shifted rate
    is nonnegative at a domain edge or no node lies beyond R0.
    """
    lo, hi = float(domain[0]), float(domain[1])
    try:
        x_m = averaged_optimum(model, (lo, hi))
    except NumericalError:
        return HypothesisReport(x_m=None, h5_delta=None, h5_radius=None)
    xs = np.linspace(lo, hi, 513)
    times = np.linspace(0.0, model.period, 65)[:-1]
    s = rate_table(model, times, xs).max(axis=0) + lambda_hint
    dist = np.abs(xs - x_m)
    r0 = 1.1 * float(dist[s >= 0.0].max(initial=0.0))
    outside = dist >= r0
    if s[0] >= 0.0 or s[-1] >= 0.0 or not outside.any():
        return HypothesisReport(x_m=x_m, h5_delta=None, h5_radius=None)
    return HypothesisReport(x_m=x_m, h5_delta=float(-s[outside].max()), h5_radius=r0)
