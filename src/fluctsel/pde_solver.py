"""IMEX finite-difference solver for the structured population model.

Evolves a trait density n(t, x) under diffusion (mutation, coefficient sigma),
growth at the time-periodic rate a(t, x), and saturation by the total mass
rho(t) = int n dx:

    dn/dt - sigma * d2n/dx2 = n * (a(t, x) - rho(t)).

The saturating scheme applies the growth explicitly at the step start, solves
the backward-Euler diffusion system, and divides by a scalar saturation
factor:

    n_next = (I - dt * sigma * L)^-1 [(1 + dt * a(t_k, .)) n] / (1 + dt * rho_k).

As saturation is a scalar factor, the scheme is the linear flow p_k (the same
step without the division) over a scalar: n_k = p_k / y_k with y_0 = 1 and
y_{k+1} = y_k + dt * m_k, m_k = int p_k dx, so rho_k = m_k / y_k, the discrete
twin of rho = M / Y with Y' = M. Only the linear step is implemented, and
it runs in place (one dpttrs solve overwrites the density times the gains):
one Krylov eigen-solve of its period map gives the FloquetPair, the periodic
state n = rho * P is read off it, and simulate runs it forward with y.
The trait interval is truncated with homogeneous Dirichlet ends; the domain
should be wide enough that the confinement tail estimate keeps the boundary
values below roughly 1e-12 of the peak, so truncation is invisible at solver
accuracy. The four LAPACK routines (dpttrf and dpttrs for the step, dstebz
and dstein for step_eigenpair) are bound with ctypes at the first solver
call, from the OpenBLAS numpy already maps (see _lapack).
"""

from __future__ import annotations

import ctypes
import operator
import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .env_models import EnvironmentModel, mean_growth, rate_blocks
from .errors import ConfigError, ConvergenceError, ExtinctionError, NumericalError
from .quadrature import check_end_time, check_whole_number
from .rho_ode import PeriodicScalarSignal

# Where numpy's wheels keep the OpenBLAS numpy itself links: numpy.libs beside
# the package on Linux and Windows, numpy/.dylibs on macOS.
_NUMPY_LIBS = (os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"),
               os.path.join(os.path.dirname(np.__file__), ".dylibs"))


class _Lapack:
    """dpttrf, dpttrs, dstebz and dstein at address(name), as functions of
    pointers (Fortran passes by reference; dstebz ends with the size_t
    lengths of its two one-character strings). int is the LAPACK integer
    type. They declare no argument types, as ctypes would convert each
    argument on every call (0.5 us of a 5.7 us dpttrs): callers pass ctypes
    objects only, made once by args."""

    def __init__(self, int_type, address):
        self.int = int_type
        for name in ("dpttrf", "dpttrs", "dstebz", "dstein"):
            setattr(self, name, ctypes.CFUNCTYPE(None)(address(name)))

    def args(self, *values) -> list:
        """values as pointers: an array by its address (the caller holds
        it), a LAPACK integer object as itself, so the caller reads what was
        written, a float (numpy's too) as a double, and an integer (numpy's
        too) as a LAPACK integer. Anything else raises TypeError rather than
        reach LAPACK as the bits of a double."""
        return [ctypes.c_void_p(v.ctypes.data) if isinstance(v, np.ndarray) else ctypes.byref(
            v if isinstance(v, self.int) else ctypes.c_double(v)
            if isinstance(v, (float, np.floating)) else self.int(operator.index(v)))
            for v in values]


@cache
def _lapack() -> _Lapack:
    """The four routines, bound at the first solver call, from the OpenBLAS
    numpy maps (symbols scipy_<name>_64_, 64-bit integers), so a process
    holds one BLAS; only where numpy ships none, from the f2py capsules of
    scipy.linalg._flapack (32-bit integers). ImportError, naming every
    place searched, when neither is there."""
    for path in sorted(os.path.join(folder, name) for folder in _NUMPY_LIBS
                       if os.path.isdir(folder) for name in os.listdir(folder)
                       if "openblas" in name):
        try:
            lib = ctypes.CDLL(path)
            return _Lapack(ctypes.c_int64, lambda name: ctypes.cast(
                getattr(lib, f"scipy_{name}_64_"), ctypes.c_void_p).value)
        except (OSError, AttributeError):
            continue
    try:
        import scipy.linalg._flapack as flapack
    except ImportError as exc:
        raise ImportError(f"no LAPACK: searched {', '.join(_NUMPY_LIBS)} for an OpenBLAS "
                          f"with scipy_dpttrf_64_, then scipy.linalg._flapack ({exc})") from exc
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return _Lapack(ctypes.c_int32, lambda name: pointer(getattr(flapack, name)._cpointer, None))


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
    pinned to zero. Every solver runs steps_per_period steps of
    dt = T / steps_per_period over a period T of its model, so period ends
    fall on steps. sigma is the mutation (diffusion) coefficient.
    """

    x_lo: float
    x_hi: float
    nx: int
    steps_per_period: int
    sigma: float

    def __post_init__(self):
        check_whole_number(self.nx, "nx", 16)
        if not -np.inf < self.x_lo < self.x_hi < np.inf:
            raise ConfigError(f"trait interval [{self.x_lo}, {self.x_hi}] is empty or not finite")
        check_whole_number(self.steps_per_period, "steps_per_period")
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and nonnegative, got {self.sigma}")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior node coordinates."""
        return self.x_lo + self.dx * np.arange(1, self.nx + 1)


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

    @cached_property
    def row_sums(self) -> np.ndarray:
        """sum_i p_k,i at every snapshot, summed once on first use (the
        table is not changed once the pair is built)."""
        return self.p_snapshots.sum(axis=1)

    def average(self, values) -> np.ndarray:
        """Mean of values over the unit-mass profile at every snapshot,
        sum_i values_i p_k,i / sum_i p_k,i, for values one row over the nodes
        or one row per snapshot."""
        p = self.p_snapshots
        weighted = p @ values if np.ndim(values) == 1 else np.einsum("ij,ij->i", p, values)
        return weighted / self.row_sums


@dataclass
class OrbitRecord:
    """One period of a converged periodic state n = rho * P.

    pair is the FloquetPair the orbit was read from and rho the size signal
    on its period, sharing its times; density(k) is the density at
    rho.times[k], and no density table is stored. period_gap is the
    relative sup-norm distance between the first and last density;
    periods_run counts the period maps of the eigen-solve plus the recorded
    period.
    """

    pair: FloquetPair
    rho: PeriodicScalarSignal

    @property
    def grid(self) -> SimulationGrid:
        return self.pair.grid

    @property
    def periods_run(self) -> int:
        return self.pair.iterations + 1

    @property
    def period_gap(self) -> float:
        first, last = self.density(0), self.density(-1)
        return float(np.abs(last - first).max()) / max(float(last.max()), 1e-300)

    def density(self, k: int) -> np.ndarray:
        """rho_k * p_k / int p_k: the density at rho.times[k]."""
        p = self.pair.p_snapshots[k]
        return (self.rho.values[k] / total_mass(self.grid, p)) * p


def total_mass(grid: SimulationGrid, values: np.ndarray) -> float:
    """Trapezoid mass over [x_lo, x_hi] with the zero end values included."""
    return grid.dx * float(np.sum(values))


def initial_density(grid: SimulationGrid, n0) -> np.ndarray:
    """n0 as a float array: the one check of every start vector (simulate,
    simulate_sigma0 and an eigen-solve guess). ConfigError, before any step,
    unless it holds one finite, nonnegative value per node of grid, not all
    zero (so its mass is positive)."""
    values = np.asarray(n0, dtype=float)
    if values.shape != (grid.nx,):
        raise ConfigError(f"start vector has shape {values.shape}, not ({grid.nx},)")
    if not np.isfinite(values).all():
        raise ConfigError("start vector contains non-finite values")
    if values.min() < 0.0:
        raise ConfigError("start vector contains negative values")
    if values.max() <= 0.0:
        raise ConfigError("start vector is identically zero")
    return values


def _check_step_constraint(scaled: np.ndarray) -> None:
    """dt * max|a| < 1 keeps every growth factor 1 + dt * a positive."""
    # max|a| without an |a| table; np.maximum keeps a NaN of either reduction
    margin = float(np.maximum(scaled.max(), -scaled.min()))
    if not margin < 1.0:
        raise NumericalError(
            f"step constraint violated: dt * max|a| = {margin:.3g} >= 1")


def step_eigenpair(grid: SimulationGrid, row: np.ndarray, dt: float):
    """(log mu, v): principal eigenpair of one linear step with the rate row.

    The step D^-1 G, G = diag(1 + dt row), D = I - dt sigma L, is similar to
    the symmetric tridiagonal s D s, s = G^(-1/2): 1/mu is its smallest
    eigenvalue, solved shifted by I so that log mu keeps its relative
    accuracy, and v = |s w|. Raises NumericalError when dt * max|row| >= 1,
    when the matrix is not finite or when LAPACK reports a failure.
    """
    scaled = dt * np.broadcast_to(np.asarray(row, dtype=float), (grid.nx,))
    _check_step_constraint(scaled)
    s = 1.0 / np.sqrt(1.0 + scaled)
    al = dt * grid.sigma / (grid.dx * grid.dx)
    shifted = (2.0 * al - scaled) * s * s  # diagonal of s D s - I
    off = -al * s[:-1] * s[1:]
    if not (np.isfinite(shifted).all() and np.isfinite(off).all()):
        raise NumericalError("step matrix has non-finite entries")
    # the smallest eigenvalue by bisection (range "I", il = iu = 1, in block
    # order "B" as dstein needs) and its vector by inverse iteration: the
    # calls of eigh_tridiagonal(select="i", select_range=(0, 0))
    lapack, nx, lengths = _lapack(), grid.nx, (ctypes.c_size_t(1),) * 2
    m, nsplit, info = lapack.int(), lapack.int(), lapack.int()
    w, vec, work = np.empty(nx), np.empty(nx), np.empty(5 * nx)
    iblock, isplit, iwork, ifail = (np.empty(k, lapack.int) for k in (nx, nx, 3 * nx, 1))
    lapack.dstebz(b"I", b"B", *lapack.args(nx, 0.0, 1.0, 1, 1, 0.0, shifted, off, m, nsplit,
                                           w, iblock, isplit, work, iwork, info), *lengths)
    if info.value != 0:
        raise NumericalError(f"step eigenvalue bisection failed (dstebz info {info.value})")
    lapack.dstein(*lapack.args(nx, shifted, off, m, w, iblock, isplit, vec, nx, work, iwork,
                               ifail, info))
    if info.value != 0:
        raise NumericalError(f"step eigenvector iteration failed (dstein info {info.value})")
    # the Perron vector has one sign; abs also lifts roundoff in the tails
    return float(-np.log1p(w[0])), np.abs(s * vec)


def default_orbit_guess(grid: SimulationGrid, model: EnvironmentModel) -> np.ndarray:
    """Unit-mass principal eigenvector of one step with the averaged rate,
    which peaks where the periodic profile concentrates as sigma -> 0."""
    _, v = step_eigenpair(grid, mean_growth(model, grid.x),
                          model.period / grid.steps_per_period)
    return v / total_mass(grid, v)


class _Stepper:
    """The linear IMEX flow on a fixed grid: step, run and record.

    One period is grid.steps_per_period steps of dt = T / steps_per_period.
    gain[k] = 1 + dt * a(k * dt, x) is row k + 1 of a table whose spare
    row 0 lets record run one period in the table.
    I - dt * sigma * L is factored once (LAPACK dpttrf), and every step is
    one in-place dpttrs solve. Its arguments are built once per buffer the
    stepper owns, where the buffer is checked: run's copy of n, and each
    table row's address in record. dt * max|a| < 1 keeps the gains
    positive, so the M-matrix solve keeps densities nonnegative without
    clipping.
    """

    def __init__(self, grid: SimulationGrid, model: EnvironmentModel):
        lapack = _lapack()
        self.grid = grid
        self.period = model.period
        self.steps = grid.steps_per_period
        self.dt = model.period / self.steps
        self.dx = grid.dx
        self.times = self.dt * np.arange(self.steps + 1)
        self.table = np.empty((self.steps + 1, grid.nx))
        self.gain = self.table[1:]
        hi = lo = 0.0  # max and min of dt * a: one pass per block of rate rows
        for rows, block in rate_blocks(model, self.times[:-1], grid.x):
            gain = np.multiply(block, self.dt, out=self.gain[rows])
            hi, lo = np.maximum(hi, gain.max()), np.minimum(lo, gain.min())
            gain += 1.0
        _check_step_constraint(np.array([hi, lo]))
        al = self.dt * grid.sigma / (self.dx * self.dx)
        self.d, self.e = np.full(grid.nx, 1.0 + 2.0 * al), np.full(grid.nx - 1, -al)
        info = lapack.int()
        n, nrhs, d, e, at_info = lapack.args(grid.nx, 1, self.d, self.e, info)
        lapack.dpttrf(n, d, e, at_info)
        if info.value != 0:
            raise NumericalError(f"diffusion matrix factorisation failed (info {info.value})")
        # dpttrs takes N, NRHS, D, E before B and LDB, INFO after it
        self.solve, self.head, self.tail = lapack.dpttrs, (n, nrhs, d, e), (n, at_info)

    def _solve_args(self, b: np.ndarray) -> tuple:
        """The dpttrs arguments that solve in place in b. LAPACK checks no
        buffer, so b is checked here: one C-contiguous float64 row of nx."""
        if b.dtype != np.float64 or b.shape != (self.grid.nx,) or not b.flags.c_contiguous:
            raise ValueError(f"dpttrs needs a contiguous float64 vector of {self.grid.nx}")
        return (*self.head, ctypes.c_void_p(b.ctypes.data), *self.tail)

    def step(self, n: np.ndarray, k: int) -> np.ndarray:
        """One linear IMEX step from step k of the period, in place on a
        contiguous float64 n (dpttrs overwrites it); returns n."""
        n *= self.gain[k]
        self.solve(*self._solve_args(n))
        return n

    def run(self, n: np.ndarray, nsteps: int) -> np.ndarray:
        """Advance nsteps <= steps linear steps from the period start, in
        place on one copy of n; returns it."""
        n = np.array(n, dtype=float)
        solve, args = self.solve, self._solve_args(n)
        for gain in self.gain[:nsteps]:
            n *= gain
            solve(*args)
        return n

    def record(self, start: np.ndarray) -> np.ndarray:
        """The densities at times from start, in the table itself: row k + 1
        is row k times gain k (which it held), solved in place at its
        address. Returns the table; the stepper keeps no gains and can run
        no further step."""
        table, head, tail, solve = self.table, self.head, self.tail, self.solve
        del self.table, self.gain
        table[0] = start
        first, size = table.ctypes.data, table.strides[0]
        for prev, row, address in zip(table[:-1], table[1:],
                                      range(first + size, first + table.nbytes, size)):
            np.multiply(prev, row, out=row)
            solve(*head, ctypes.c_void_p(address), *tail)
        return table


def simulate(grid: SimulationGrid, model: EnvironmentModel, n0, t_end: float):
    """Run the saturating IMEX scheme from density n0 up to t_end.

    The linear flow p_k runs from p_0 = n0 with y_0 = 1 and
    y_{k+1} = y_k + dt * m_k (see the module docstring); p and y are divided
    by max p at every period start, so long decays and growths stay in range.
    Returns (density, (times, rho), diagnostics): the density p_N / y_N
    after N = round(t_end / dt) steps (none for t_end = 0) and
    rho_k = m_k / y_k at every step. Diagnostics hold the
    worst boundary-cell mass fraction seen at period ends and an extinction
    flag set when the size drops below 1e-12 (extinction is an outcome, not
    an error). An n0 that fails initial_density, or a t_end that is
    negative or not finite, raises ConfigError before any step.
    """
    check_end_time(t_end)
    n = initial_density(grid, n0)
    stepper = _Stepper(grid, model)
    dt, dx = stepper.dt, stepper.dx
    nsteps = int(round(t_end / dt))
    rho = np.empty(nsteps + 1)
    y = 1.0
    boundary_frac = 0.0
    for k in range(nsteps + 1):
        phase = k % stepper.steps
        if phase == 0:
            scale = float(n.max())
            n = n / scale
            y /= scale
        mass = dx * float(n.sum())
        if phase == 0 and k:
            boundary_frac = max(boundary_frac, dx * float(n[0] + n[-1]) / mass)
        rho[k] = mass / y
        if k < nsteps:
            y += dt * mass
            n = stepper.step(n, phase)
    times = dt * np.arange(nsteps + 1)
    diagnostics = {
        "boundary_mass_fraction": boundary_frac,
        "extinct": bool(rho.min() < EXTINCTION_SIZE),
    }
    return n / y, (times, rho), diagnostics


def principal_eigenpair(grid: SimulationGrid, model: EnvironmentModel,
                        tol: float = 1e-10, max_periods: int = MAX_PERIODS,
                        guess: np.ndarray | None = None) -> FloquetPair:
    """Principal eigenpair of the linear period map of grid.steps_per_period
    steps: the one Krylov eigen-solve (restarted Arnoldi).

    The loop starts from guess (default_orbit_guess when None; a guess must
    pass initial_density, else ConfigError). Each Arnoldi step is one
    period map, orthogonalized by two passes of Gram-Schmidt. The loop stops
    as soon as the largest-magnitude Ritz pair (mu, y) of the Hessenberg
    matrix H passes ARPACK's residual test |H[j+1, j] y[j]| <= tol * |mu|,
    so tol is the relative accuracy of the period growth factor mu, and
    lam = -log(mu) / T. A full basis of KRYLOV_RESTART vectors restarts
    from the Ritz vector. FloquetPair.iterations counts the period maps.
    Raises ConvergenceError, naming the last relative Ritz residual, when
    max_periods maps do not pass the test, and NumericalError when a map
    overflows.
    """
    stepper = _Stepper(grid, model)
    start = initial_density(grid, default_orbit_guess(grid, model) if guess is None else guess)
    basis = np.empty((KRYLOV_RESTART + 1, grid.nx))
    hess = np.zeros((KRYLOV_RESTART + 1, KRYLOV_RESTART))
    basis[0] = start / np.linalg.norm(start)
    j, residual = 0, np.inf
    for maps in range(1, max_periods + 1):
        with np.errstate(over="ignore"):  # an overflow is reported below
            w = stepper.run(basis[j], stepper.steps)
        norm = np.linalg.norm(w)
        if not np.isfinite(norm):
            raise NumericalError(f"period map overflowed (|Mv| = {norm})")
        h = basis[:j + 1] @ w
        w -= h @ basis[:j + 1]
        again = basis[:j + 1] @ w
        w -= again @ basis[:j + 1]
        hess[:j + 1, j] = h + again
        hess[j + 1, j] = np.linalg.norm(w)
        vals, vecs = np.linalg.eig(hess[:j + 1, :j + 1])
        i = np.argmax(np.abs(vals))
        ritz = (vecs[:, i] @ basis[:j + 1]).real
        gap = hess[j + 1, j] * abs(vecs[j, i])  # the Ritz residual
        if gap <= tol * abs(vals[i]):
            break  # converged, or an invariant subspace (H[j+1, j] = 0)
        residual = gap / abs(vals[i])
        if j + 1 < KRYLOV_RESTART:
            j += 1
            basis[j] = w / hess[j, j - 1]
        else:
            j = 0
            basis[0] = ritz / np.linalg.norm(ritz)
    else:
        raise ConvergenceError(f"no principal eigenpair within {max_periods} periods; "
                               f"last relative Ritz residual {residual:.3e} > tol {tol:.3g}")
    mu, p = float(vals[i].real), ritz
    p *= np.sign(p[np.argmax(np.abs(p))])
    if not (np.isfinite(mu) and mu > 0.0) or p.min() < -1e-6 * p.max():
        raise NumericalError(f"period map lost positivity (factor {mu}, "
                             f"eigenvector min/max {p.min() / p.max():.3g})")
    np.maximum(p, 0.0, out=p)  # roundoff negatives in the far tails
    snaps = stepper.record(p / p.max())
    lam = -np.log(mu) / stepper.period
    snaps *= np.exp(lam * stepper.times)[:, None]
    return FloquetPair(lam=float(lam), period=stepper.period, p_snapshots=snaps,
                       times=stepper.times, iterations=maps, grid=grid)


def orbit_from_pair(pair: FloquetPair) -> OrbitRecord:
    """The positive periodic state n = rho * P of the saturating scheme.

    With p_k = exp(-lam t_k) P_k the linear flow (factor mu = exp(-lam T))
    and m_k its masses, the scheme maps n_k = p_k / y_k onto itself for
    y_0 = dt * sum_{k<N} m_k / (mu - 1), y_{k+1} = y_k + dt * m_k: the
    discrete twin of periodic_rho_closed_form. The record holds the pair and
    the signal of the sizes rho_k = m_k / y_k on the pair's period and
    times (not copied); pair is not changed. Raises ExtinctionError
    when mu <= 1 (lambda >= 0).
    """
    mu = np.exp(-pair.lam * pair.period)
    if mu <= 1.0:
        raise ExtinctionError("no positive periodic orbit (lambda >= 0): "
                              f"period growth factor {mu:.6g} <= 1")
    dt = pair.times[1] - pair.times[0]
    masses = pair.grid.dx * pair.row_sums * np.exp(-pair.lam * pair.times)
    gains = dt * masses[:-1]
    y = np.cumsum(np.concatenate(([gains.sum() / (mu - 1.0)], gains)))
    return OrbitRecord(pair=pair, rho=PeriodicScalarSignal(
        period=pair.period, times=pair.times, values=masses / y))


def find_periodic_orbit(grid: SimulationGrid, model: EnvironmentModel,
                        tol: float = 1e-8, max_periods: int = MAX_PERIODS,
                        guess: np.ndarray | None = None) -> OrbitRecord:
    """orbit_from_pair of principal_eigenpair with the same arguments."""
    return orbit_from_pair(principal_eigenpair(grid, model, tol, max_periods, guess))
