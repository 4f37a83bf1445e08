"""IMEX finite-difference solver for the structured population model.

Evolves a trait density n(t, x) under diffusion (mutation, coefficient sigma),
growth at the time-periodic rate a(t, x), and saturation by the total mass
rho(t) = int n dx:

    dn/dt - sigma * d2n/dx2 = n * (a(t, x) - rho(t)).

One step treats diffusion implicitly (backward Euler) and the reaction
explicitly at the step start:

    (I - dt * sigma * L) n_next = n + dt * n * (a(t_k, .) - rho_k).

The same stepper runs the linear flow (rho = 0) for the Floquet eigenpair.
The trait interval is truncated with homogeneous Dirichlet ends; the domain
should be wide enough that the confinement tail estimate keeps the boundary
values below roughly 1e-12 of the peak, so truncation is invisible at solver
accuracy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .env_models import EnvironmentModel, averaged_optimum, rate_table
from .errors import ConfigError, ConvergenceError, ExtinctionError, NumericalError

log = logging.getLogger(__name__)

# Total size below which the population counts as extinct.
EXTINCTION_SIZE = 1e-12


@dataclass
class SimulationGrid:
    """Uniform grid on [x_lo, x_hi] with zero boundary values.

    The nx unknowns sit at the interior nodes x_i = x_lo + i * dx for
    i = 1..nx with dx = (x_hi - x_lo) / (nx + 1); the endpoint values are
    pinned to zero. sigma is the mutation (diffusion) coefficient.
    """

    x_lo: float
    x_hi: float
    nx: int
    dt: float
    sigma: float

    def __post_init__(self):
        if self.nx < 16:
            raise ConfigError(f"nx must be at least 16, got {self.nx}")
        if not self.x_hi > self.x_lo:
            raise ConfigError(f"empty trait interval [{self.x_lo}, {self.x_hi}]")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior node coordinates."""
        return self.x_lo + self.dx * np.arange(1, self.nx + 1)


@dataclass
class DensityField:
    """A nonnegative trait density sampled on the interior nodes."""

    time: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("density contains non-finite values")
        if self.values.min() < 0.0:
            raise NumericalError("density contains negative values")


@dataclass
class OrbitRecord:
    """One period of a converged periodic state.

    snapshots[k] is the density at times[k], k = 0..steps, covering [0, T];
    rho_samples are the matching total sizes. period_gap is the relative
    sup-norm distance between the first and last snapshot.
    """

    grid: SimulationGrid
    times: np.ndarray
    snapshots: np.ndarray
    rho_samples: np.ndarray
    period_gap: float
    periods_run: int


def total_mass(grid: SimulationGrid, values: np.ndarray) -> float:
    """Trapezoid mass over [x_lo, x_hi] with the zero end values included."""
    return grid.dx * float(np.sum(values))


def default_orbit_guess(grid: SimulationGrid, model: EnvironmentModel) -> np.ndarray:
    """Unit-mass Gaussian at the averaged optimum with width sqrt(eps)."""
    try:
        x_m = averaged_optimum(model, (grid.x_lo, grid.x_hi))
    except NumericalError:
        x_m = 0.5 * (grid.x_lo + grid.x_hi)
    eps = np.sqrt(grid.sigma) if grid.sigma > 0 else grid.dx
    w = np.sqrt(eps)
    x = grid.x
    return np.exp(-((x - x_m) ** 2) / (2.0 * w * w)) / (w * np.sqrt(2.0 * np.pi))


class _Stepper:
    """Precomputed machinery for repeated IMEX periods on a fixed grid.

    dt is snapped to an integer number of steps per period so that period
    boundaries are hit exactly; the rate table holds a(k * dt, x) for the
    steps of one period.
    """

    def __init__(self, grid: SimulationGrid, model: EnvironmentModel):
        T = model.period
        self.steps = max(1, int(round(T / grid.dt)))
        self.dt = T / self.steps
        if abs(self.dt - grid.dt) > 1e-9 * grid.dt:
            log.debug("dt adjusted from %g to %g to divide the period", grid.dt, self.dt)
        self.dx = grid.dx
        self.times = self.dt * np.arange(self.steps + 1)
        self.atab = rate_table(model, self.times[:-1], grid.x)
        self.d0 = float(np.max(np.abs(self.atab)))
        al = self.dt * grid.sigma * (1.0 / (self.dx * self.dx))
        self.ab = np.zeros((2, grid.nx))
        self.ab[0, 1:] = -al
        self.ab[1, :] = 1.0 + 2.0 * al
        self.clipped = 0

    def step(self, n: np.ndarray, k: int, rho: float) -> np.ndarray:
        """One IMEX step from step k of the period; negative nodes are clipped."""
        if self.dt * (self.d0 + rho) >= 1.0:
            raise NumericalError(
                f"step constraint violated: dt * (d0 + rho) = "
                f"{self.dt * (self.d0 + rho):.3g} >= 1")
        out = solveh_banded(self.ab, n + self.dt * n * (self.atab[k] - rho),
                            check_finite=False)
        if out.min() < 0.0:
            self.clipped += int(np.count_nonzero(out < 0.0))
            out[out < 0.0] = 0.0
        return out

    def run(self, n: np.ndarray, nsteps: int, saturate: bool = True,
            record: bool = False):
        """Advance nsteps <= steps steps from the period start.

        Returns (n, masses, snapshots). Saturating mode feeds the mass
        rho = int n dx back into every step and returns it at each of the
        nsteps + 1 times; linear mode (rho = 0) skips the sums and returns
        None. With record, every density is returned as well, else None.
        """
        snaps = np.empty((nsteps + 1, n.size)) if record else None
        masses = np.empty(nsteps + 1) if saturate else None
        rho = 0.0
        for k in range(nsteps + 1):
            if saturate:
                rho = masses[k] = self.dx * n.sum()
            if record:
                snaps[k] = n
            if k < nsteps:
                n = self.step(n, k, rho)
        return n, masses, snaps


def simulate(grid: SimulationGrid, model: EnvironmentModel, n0, t_end: float):
    """Run the IMEX scheme from density n0 up to t_end.

    Returns (field, (times, rho), diagnostics). Diagnostics hold the total
    size at every step, relative sup gaps between consecutive period starts,
    the worst boundary-cell mass fraction seen at period starts, the count of
    clipped negative nodes, and an extinction flag set when the size drops
    below 1e-12 (extinction is an outcome, not an error).
    """
    n = n0.values if isinstance(n0, DensityField) else np.asarray(n0, dtype=float)
    stepper = _Stepper(grid, model)
    nsteps = max(1, int(round(t_end / stepper.dt)))
    periods, rest = divmod(nsteps, stepper.steps)
    chunks = [stepper.steps] * periods + ([rest] if rest else [])
    rho = [np.array([total_mass(grid, n)])]
    period_gaps = []
    boundary_frac = 0.0
    for length in chunks:
        start = n
        n, masses, _ = stepper.run(n, length)
        rho.append(masses[1:])
        if length == stepper.steps:
            scale = max(float(np.abs(n).max()), 1e-300)
            period_gaps.append(float(np.abs(n - start).max()) / scale)
            if masses[-1] > 0.0:
                boundary_frac = max(
                    boundary_frac, grid.dx * float(n[0] + n[-1]) / masses[-1])
    rho = np.concatenate(rho)
    times = stepper.dt * np.arange(nsteps + 1)
    diagnostics = {
        "period_gaps": np.array(period_gaps),
        "boundary_mass_fraction": boundary_frac,
        "clipped": stepper.clipped,
        "extinct": bool(rho.min() < EXTINCTION_SIZE),
        "steps_per_period": stepper.steps,
    }
    field = DensityField(time=float(times[-1]), values=n)
    return field, (times, rho), diagnostics


def find_periodic_orbit(grid: SimulationGrid, model: EnvironmentModel,
                        n0_guess: np.ndarray | None = None,
                        orbit_tol: float = 1e-8, max_periods: int = 2000) -> OrbitRecord:
    """Iterate the period map to its positive fixed point.

    Periods are run until the relative sup-norm gap between consecutive
    period-start densities falls below orbit_tol, then one more period is
    recorded and returned. Raises ExtinctionError when the size decays below
    1e-12 (no positive periodic state exists) and ConvergenceError when
    max_periods pass without reaching the tolerance.
    """
    stepper = _Stepper(grid, model)
    n = (default_orbit_guess(grid, model) if n0_guess is None
         else np.asarray(n0_guess, dtype=float))
    if n.min() < 0.0 or total_mass(grid, n) <= 0.0:
        raise ConfigError("orbit guess must be nonnegative with positive mass")
    gap = prev_gap = np.inf
    for period in range(1, max_periods + 1):
        n_new, rhos, _ = stepper.run(n, stepper.steps)
        if rhos[-1] < EXTINCTION_SIZE:
            raise ExtinctionError(
                "no positive periodic orbit (lambda >= 0): size fell below "
                f"{EXTINCTION_SIZE:g} after {period} periods")
        scale = max(float(np.abs(n_new).max()), 1e-300)
        prev_gap, gap = gap, float(np.abs(n_new - n).max()) / scale
        n = n_new
        if gap < orbit_tol:
            _, rhos, snaps = stepper.run(n, stepper.steps, record=True)
            rec_scale = max(float(np.abs(snaps[-1]).max()), 1e-300)
            period_gap = float(np.abs(snaps[-1] - snaps[0]).max()) / rec_scale
            return OrbitRecord(grid=grid, times=stepper.times, snapshots=snaps,
                               rho_samples=rhos, period_gap=period_gap,
                               periods_run=period + 1)
    raise ConvergenceError(
        f"no periodic orbit within {max_periods} periods; "
        f"last two gaps {prev_gap:.3e}, {gap:.3e}")
