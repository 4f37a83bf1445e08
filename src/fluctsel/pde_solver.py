"""IMEX finite-difference solver for the structured population model.

Evolves a trait density n(t, x) under diffusion (mutation, coefficient sigma),
growth at the time-periodic rate a(t, x), and saturation by the total mass
rho(t) = int n dx:

    dn/dt - sigma * d2n/dx2 = n * (a(t, x) - rho(t)).

One step applies the growth explicitly at the step start, solves the
backward-Euler diffusion system, and divides by a scalar saturation factor:

    n_next = (I - dt * sigma * L)^-1 [(1 + dt * a(t_k, .)) n] / (1 + dt * rho_k).

The linear flow is the same step with rho = 0. As saturation is a scalar
factor, the periodic state is a rescaled principal eigenvector of the linear
period map (n = rho * P): one Krylov eigen-solve gives the FloquetPair, and
the orbit is read off it.
The trait interval is truncated with homogeneous Dirichlet ends; the domain
should be wide enough that the confinement tail estimate keeps the boundary
values below roughly 1e-12 of the peak, so truncation is invisible at solver
accuracy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .env_models import EnvironmentModel, mean_growth, rate_table
from .errors import ConfigError, ConvergenceError, ExtinctionError, NumericalError
from .quadrature import snap_steps

log = logging.getLogger(__name__)

# Total size below which the population counts as extinct.
EXTINCTION_SIZE = 1e-12

# Largest Krylov basis of an eigen-solve: one period map per basis vector; the
# Arnoldi loop restarts from its Ritz vector when the basis is full. The
# README says how 24 was chosen.
KRYLOV_RESTART = 24

# Period maps an eigen-solve may run before it raises ConvergenceError: the
# default budget max_periods of every eigen-solve.
MAX_PERIODS = 2000


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


@dataclass
class FloquetPair:
    """Principal eigenvalue and periodic eigenfunction snapshots.

    p_snapshots[k] holds p(t_k) on the grid nodes for t_k = k * T / steps,
    k = 0..steps, normalized so sup_x p(0, x) = 1; p(T) = p(0) up to the
    eigen-solve tolerance. lam is the principal exponent: solutions of the
    linear flow behave like exp(-lam * t) times a periodic profile.
    iterations counts the period maps of the eigen-solve.
    """

    lam: float
    period: float
    p_snapshots: np.ndarray
    times: np.ndarray
    iterations: int
    grid: SimulationGrid


def total_mass(grid: SimulationGrid, values: np.ndarray) -> float:
    """Trapezoid mass over [x_lo, x_hi] with the zero end values included."""
    return grid.dx * float(np.sum(values))


def _check_step_constraint(scaled: np.ndarray) -> None:
    """dt * max|a| < 1 keeps every growth factor 1 + dt * a positive."""
    margin = float(np.max(np.abs(scaled)))
    if not margin < 1.0:
        raise NumericalError(
            f"step constraint violated: dt * max|a| = {margin:.3g} >= 1")


def step_eigenpair(grid: SimulationGrid, row: np.ndarray, dt: float):
    """(log mu, v): principal eigenpair of one linear step with the rate row.

    The step D^-1 G, G = diag(1 + dt row), D = I - dt sigma L, is similar to
    the symmetric tridiagonal s D s, s = G^(-1/2): 1/mu is its smallest
    eigenvalue, solved shifted by I so that log mu keeps its relative
    accuracy, and v = |s w|. Raises
    NumericalError when dt * max|row| >= 1.
    """
    scaled = dt * np.broadcast_to(np.asarray(row, dtype=float), (grid.nx,))
    _check_step_constraint(scaled)
    s = 1.0 / np.sqrt(1.0 + scaled)
    al = dt * grid.sigma / (grid.dx * grid.dx)
    shifted = (2.0 * al - scaled) * s * s  # diagonal of s D s - I
    w, vec = eigh_tridiagonal(shifted, -al * s[:-1] * s[1:], select="i",
                              select_range=(0, 0))
    # the Perron vector has one sign; abs also lifts roundoff in the tails
    return float(-np.log1p(w[0])), np.abs(s * vec[:, 0])


def default_orbit_guess(grid: SimulationGrid, model: EnvironmentModel) -> np.ndarray:
    """Unit-mass principal eigenvector of one step with the averaged rate,
    which peaks where the periodic profile concentrates as sigma -> 0."""
    _, v = step_eigenpair(grid, mean_growth(model, grid.x),
                          snap_steps(model.period, grid.dt)[1])
    return v / total_mass(grid, v)


class _Stepper:
    """Precomputed machinery for repeated IMEX periods on a fixed grid.

    dt is snapped to an integer number of steps per period so that period
    boundaries are hit exactly. The gain table holds 1 + dt * a(k * dt, x)
    for the steps of one period; I - dt * sigma * L is factored once (LAPACK
    dpttrf). dt * max|a| < 1 keeps the gains positive, so the M-matrix solve
    keeps densities nonnegative without clipping.
    """

    def __init__(self, grid: SimulationGrid, model: EnvironmentModel):
        self.grid = grid
        self.period = model.period
        self.steps, self.dt = snap_steps(model.period, grid.dt)
        if abs(self.dt - grid.dt) > 1e-9 * grid.dt:
            log.debug("dt adjusted from %g to %g to divide the period", grid.dt, self.dt)
        self.dx = grid.dx
        self.times = self.dt * np.arange(self.steps + 1)
        self.gain = rate_table(model, self.times[:-1], grid.x)
        self.gain *= self.dt
        _check_step_constraint(self.gain)
        self.gain += 1.0
        al = self.dt * grid.sigma / (self.dx * self.dx)
        self.d, self.e, info = dpttrf(np.full(grid.nx, 1.0 + 2.0 * al),
                                      np.full(grid.nx - 1, -al))
        if info != 0:
            raise NumericalError(f"diffusion matrix factorisation failed (info {info})")

    def step(self, n: np.ndarray, k: int, rho: float = 0.0) -> np.ndarray:
        """One IMEX step from step k of the period at saturation rho."""
        out, _ = dpttrs(self.d, self.e, n * self.gain[k], overwrite_b=1)
        if rho:
            out /= 1.0 + self.dt * rho
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

    def principal(self, start: np.ndarray, tol: float, budget: int) -> FloquetPair:
        """Principal eigenpair of the linear period map (restarted Arnoldi).

        Each Arnoldi step is one period map, orthogonalized by two passes of
        Gram-Schmidt. The loop stops as soon as the largest-magnitude Ritz
        pair (mu, y) of the Hessenberg matrix H passes ARPACK's residual
        test |H[j+1, j] y[j]| <= tol * |mu|, so tol is the relative accuracy
        of the period growth factor mu, and lam = -log(mu) / T. A full basis
        of KRYLOV_RESTART vectors restarts from the Ritz vector. Raises
        ConvergenceError with the last two growth factors |Mv| / |v| past
        budget period maps.
        """
        basis = np.empty((KRYLOV_RESTART + 1, start.size))
        hess = np.zeros((KRYLOV_RESTART + 1, KRYLOV_RESTART))
        basis[0] = start / np.linalg.norm(start)
        factors = [np.nan, np.nan]
        j = 0
        while True:
            if len(factors) - 2 >= budget:
                raise ConvergenceError(
                    f"no principal eigenpair within {budget} periods; "
                    f"last two factors {factors[-2]:.12e}, {factors[-1]:.12e}")
            with np.errstate(over="ignore"):  # an overflow is reported below
                w = self.run(basis[j], self.steps, saturate=False)[0]
            factors.append(float(np.linalg.norm(w)))
            if not np.isfinite(factors[-1]):
                raise NumericalError(f"period map overflowed (factor {factors[-1]})")
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            again = basis[:j + 1] @ w
            w -= again @ basis[:j + 1]
            hess[:j + 1, j] = h + again
            hess[j + 1, j] = np.linalg.norm(w)
            vals, vecs = np.linalg.eig(hess[:j + 1, :j + 1])
            i = np.argmax(np.abs(vals))
            ritz = (vecs[:, i] @ basis[:j + 1]).real
            if hess[j + 1, j] * abs(vecs[j, i]) <= tol * abs(vals[i]):
                break  # converged, or an invariant subspace (H[j+1, j] = 0)
            if j + 1 < KRYLOV_RESTART:
                j += 1
                basis[j] = w / hess[j, j - 1]
            else:
                j = 0
                basis[0] = ritz / np.linalg.norm(ritz)
        mu, p = float(vals[i].real), ritz
        p *= np.sign(p[np.argmax(np.abs(p))])
        if not (np.isfinite(mu) and mu > 0.0) or p.min() < -1e-6 * p.max():
            raise NumericalError(f"period map lost positivity (factor {mu}, "
                                 f"eigenvector min/max {p.min() / p.max():.3g})")
        np.maximum(p, 0.0, out=p)  # roundoff negatives in the far tails
        snaps = self.run(p / p.max(), self.steps, saturate=False, record=True)[2]
        lam = -np.log(mu) / self.period
        snaps *= np.exp(lam * self.times)[:, None]
        return FloquetPair(lam=float(lam), period=self.period, p_snapshots=snaps,
                           times=self.times, iterations=len(factors) - 2,
                           grid=self.grid)


def simulate(grid: SimulationGrid, model: EnvironmentModel, n0, t_end: float):
    """Run the IMEX scheme from density n0 up to t_end.

    Returns (field, (times, rho), diagnostics). Diagnostics hold the total
    size at every step, relative sup gaps between consecutive period starts,
    the worst boundary-cell mass fraction seen at period starts, and an
    extinction flag set when the size drops below 1e-12 (extinction is an
    outcome, not an error).
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
        "extinct": bool(rho.min() < EXTINCTION_SIZE),
        "steps_per_period": stepper.steps,
    }
    field = DensityField(time=float(times[-1]), values=n)
    return field, (times, rho), diagnostics


def principal_eigenpair(grid: SimulationGrid, model: EnvironmentModel,
                        tol: float = 1e-10, max_periods: int = MAX_PERIODS,
                        guess: np.ndarray | None = None) -> FloquetPair:
    """The one Krylov eigen-solve of the linear period map at grid.dt snapped
    to divide T, started from guess (default_orbit_guess when None), to the
    relative tolerance tol of the growth factor, within max_periods period
    maps. A guess must be nonnegative with positive mass (else ConfigError).
    """
    stepper = _Stepper(grid, model)
    start = default_orbit_guess(grid, model) if guess is None else np.asarray(guess, float)
    if start.min() < 0.0 or total_mass(grid, start) <= 0.0:
        raise ConfigError("eigen-solve guess must be nonnegative with positive mass")
    return stepper.principal(start, tol, max_periods)


def orbit_from_pair(pair: FloquetPair, copy: bool = True) -> OrbitRecord:
    """The positive periodic state n = rho * P of the saturating scheme.

    With p_k = exp(-lam t_k) P_k the linear flow (factor mu = exp(-lam T))
    and m_k its masses, the scheme maps n_k = p_k / y_k onto itself for
    y_0 = dt * sum_{k<N} m_k / (mu - 1), y_{k+1} = y_k + dt * m_k: the
    discrete twin of periodic_rho_closed_form. Raises ExtinctionError when
    mu <= 1 (lambda >= 0). copy=False hands pair.p_snapshots to the orbit.
    """
    mu = np.exp(-pair.lam * pair.period)
    if mu <= 1.0:
        raise ExtinctionError("no positive periodic orbit (lambda >= 0): "
                              f"period growth factor {mu:.6g} <= 1")
    snaps = pair.p_snapshots.copy() if copy else pair.p_snapshots
    dt = pair.times[1] - pair.times[0]
    decay = np.exp(-pair.lam * pair.times)
    masses = pair.grid.dx * snaps.sum(axis=1) * decay
    gains = dt * masses[:-1]
    y = np.cumsum(np.concatenate(([gains.sum() / (mu - 1.0)], gains)))
    snaps *= (decay / y)[:, None]
    scale = max(float(snaps[-1].max()), 1e-300)
    period_gap = float(np.abs(snaps[-1] - snaps[0]).max()) / scale
    return OrbitRecord(grid=pair.grid, times=pair.times, snapshots=snaps,
                       rho_samples=masses / y, period_gap=period_gap,
                       periods_run=pair.iterations + 1)


def find_periodic_orbit(grid: SimulationGrid, model: EnvironmentModel,
                        tol: float = 1e-8, max_periods: int = MAX_PERIODS,
                        guess: np.ndarray | None = None) -> OrbitRecord:
    """orbit_from_pair of principal_eigenpair with the same arguments; the
    orbit takes over the pair's table."""
    return orbit_from_pair(principal_eigenpair(grid, model, tol, max_periods, guess),
                           copy=False)
