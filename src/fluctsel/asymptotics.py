"""Small-mutation asymptotics and moment predictions.

With mutation coefficient sigma = eps^2, the population concentrates as
eps -> 0 at the maximizer x_m of the time-averaged growth rate. The rescaled
log density converges to a concave limit exponent u determined by the
averaged rate alone; the next order splits into a periodic-in-time corrector
(driving oscillations of the mean trait and variance) plus a constant shift
of the mean size. This module builds those objects, turns them into moment
predictions of Gaussian type, and measures the same moments from simulated
periodic states, as averages over their eigenprofile, for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .env_models import (EnvironmentModel, _derivatives_at, averaged_optimum,
                         mean_growth, rate_table)
from .errors import ConfigError, ExtinctionError, NumericalError
from .floquet import effective_signals
from .pde_solver import (MAX_PERIODS, OrbitRecord, SimulationGrid,
                         find_periodic_orbit, step_eigenpair, total_mass)
from .quadrature import cumulative_simpson, simpson
from .rho_ode import PeriodicScalarSignal


@dataclass
class LimitProfile:
    """Concave limit exponent of the concentration asymptotics.

    u_values <= 0 on the nodes it was built on, with the single zero at x_m;
    rho_bar is the limiting mean size (averaged rate at x_m); taylor =
    (A, B) are the local expansion coefficients u ~ -A/2 w^2 + B w^3,
    w = x - x_m, A > 0.
    """

    u_values: np.ndarray
    x_m: float
    rho_bar: float
    taylor: tuple[float, float]


@dataclass
class Corrector:
    """Periodic first-order correction to the limit exponent.

    The cell solution v(t, x), anchored by v(0, x) = 0, accumulates the
    centered rate a - abar over time. D and E are the mean-free gradient and
    half the mean-free curvature of v at x_m, on the same times; they drive
    the oscillation of the mean trait and of the variance. kappa_bar is the
    constant first-order correction to the mean size.
    """

    D: PeriodicScalarSignal
    E: PeriodicScalarSignal
    kappa_bar: float


@dataclass
class MomentReport:
    """Trait moments over one period, simulated or predicted."""

    mu: PeriodicScalarSignal
    sigma2: PeriodicScalarSignal
    rho_mean: float
    notes: str = ""


def hopf_cole(values, sigma: float) -> np.ndarray:
    """Rescaled log density u = eps * (log n + log(2 pi eps) / 2), eps^2 = sigma.

    Entries are floored at 1e-300 before the log. An identically zero
    density has no exponent and raises.
    """
    values = np.asarray(values, dtype=float)
    if values.max() <= 0.0:
        raise NumericalError("cannot take the exponent of a zero density")
    if sigma <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    eps = np.sqrt(sigma)
    return eps * (np.log(np.maximum(values, 1e-300)) + 0.5 * np.log(2.0 * np.pi * eps))


def limit_profile(model: EnvironmentModel, xs: np.ndarray) -> LimitProfile:
    """Build the limit exponent on the nodes xs.

    u(x) = -|int_{x_m}^x sqrt(rho_bar - abar(s)) ds| with rho_bar = abar(x_m),
    so u(x_m) = 0 is the maximum. A radicand below -1e-12 more than two
    stencil steps from x_m raises "H2/limit inconsistency"; other negative
    values (within two steps, a table's interpolant may peak at a node off
    the stencil's x_m) are clamped to 0.
    A = sqrt(-abar_xx / 2) and B = abar_xxx / (36 A) come from the five-point
    derivatives of the averaged rate at x_m (_derivatives_at at the model's
    trait_step), for every model; an averaged rate that is not concave there
    raises "H2/limit inconsistency".
    """
    xs = np.asarray(xs, dtype=float)
    x_m = averaged_optimum(model, (xs[0], xs[-1]))
    rho_bar = mean_growth(model, x_m)
    fine, dfine = np.linspace(xs[0], xs[-1], 4 * len(xs) + 1, retstep=True)
    radicand = rho_bar - mean_growth(model, fine)
    excess = -radicand[np.abs(fine - x_m) > 2.0 * model.trait_step].min(initial=0.0)
    if excess > 1e-12:
        raise NumericalError(
            "H2/limit inconsistency: averaged rate exceeds its value at the "
            f"optimum by {excess:.3g} inside the domain")
    radicand = np.maximum(radicand, 0.0)
    anti = cumulative_simpson(np.sqrt(radicand), dfine)
    u_fine = -np.abs(anti - np.interp(x_m, fine, anti))
    u_values = np.interp(xs, fine, u_fine)

    _, d2, d3 = _derivatives_at(x_m, model.trait_step,
                                lambda nodes: mean_growth(model, nodes))
    if d2 >= 0.0:
        raise NumericalError(
            f"H2/limit inconsistency: averaged rate not concave at the optimum "
            f"(second derivative {d2:.6g})")
    A = np.sqrt(-0.5 * d2)
    return LimitProfile(u_values=u_values, x_m=x_m, rho_bar=rho_bar,
                        taylor=(float(A), float(d3 / (36.0 * A))))


def _cell_solution(model: EnvironmentModel, times: np.ndarray,
                   xs: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of a - abar over the uniform times."""
    table = rate_table(model, times, xs)
    table -= mean_growth(model, xs)
    return cumulative_simpson(table, times[1] - times[0])


def corrector(model: EnvironmentModel, profile: LimitProfile,
              nt: int = 2048) -> Corrector:
    """Solve the periodic cell problem dv/dt = a - abar with v(0, .) = 0.

    The gradient and curvature of v at x_m are its five-point derivatives
    there (_derivatives_at at the model's trait_step); their periodic means
    are removed, since only the mean-free parts are determined by the cell
    problem, yielding the signals D (gradient) and E (half curvature).
    """
    T = model.period
    times, dt = np.linspace(0.0, T, nt + 1, retstep=True)
    vx, vxx, _ = _derivatives_at(
        profile.x_m, model.trait_step, lambda nodes: _cell_solution(model, times, nodes))
    vx -= simpson(vx, dt) / T
    vxx -= simpson(vxx, dt) / T
    return Corrector(D=PeriodicScalarSignal(period=T, times=times, values=vx),
                     E=PeriodicScalarSignal(period=T, times=times, values=0.5 * vxx),
                     kappa_bar=-profile.taylor[0])


def gaussian_moment_expansion(profile: LimitProfile, corr: Corrector,
                              eps: float, k: int) -> PeriodicScalarSignal:
    """k-th moment of the Gaussian-type expansion, as a periodic signal.

    k = 1: mean trait x_m + eps * (3B/A^2 + D(t)/A).
    k = 2: variance eps/A * (1 + 2 eps E(t)/A).
    Any other order raises ConfigError.
    """
    A, B = profile.taylor
    if k == 1:
        samples = profile.x_m + eps * (3.0 * B / A ** 2 + corr.D.values / A)
    elif k == 2:
        samples = eps / A * (1.0 + 2.0 * eps * corr.E.values / A)
    else:
        raise ConfigError(f"moments of order {k} are not provided (k = 1 or 2)")
    return replace(corr.D, values=np.asarray(samples, float))


def predict_moments(model: EnvironmentModel, eps: float,
                    domain: tuple[float, float] = (-5.0, 5.0),
                    nt: int = 2048) -> MomentReport:
    """Asymptotic prediction of mean trait, variance, and mean size.

    The time-resolved first-order correction to the total size is not fixed
    by the expansion; rho_mean reports the period mean rho_bar + eps *
    kappa_bar and the omission is flagged in the notes.
    """
    xs = np.linspace(domain[0], domain[1], 801)
    profile = limit_profile(model, xs)
    corr = corrector(model, profile, nt=nt)
    mu = gaussian_moment_expansion(profile, corr, eps, 1)
    sigma2 = gaussian_moment_expansion(profile, corr, eps, 2)
    rho_mean = profile.rho_bar + eps * corr.kappa_bar
    return MomentReport(
        mu=mu, sigma2=sigma2, rho_mean=float(rho_mean),
        notes=("time-resolved first-order size correction omitted; "
               "rho_mean is the period mean"))


def measure_moments(record: OrbitRecord) -> MomentReport:
    """Trait moments of a simulated periodic state, snapshot by snapshot.

    Averages shifted by c, the mean trait of snapshot 0: m1 = <x - c>,
    var = <(x - c)^2> - m1^2 and mu = c + m1, two matrix-vector products and
    no temporary of the table's size. The shift keeps the cancellation error
    of var at about eps * (1 + m1^2 / var).
    """
    pair = record.pair
    x = record.grid.x
    c = pair.p_snapshots[0] @ x / pair.row_sums[0]
    shifted = x - c
    m1 = pair.average(shifted)
    var = pair.average(shifted * shifted) - m1 * m1
    return MomentReport(mu=replace(record.rho, values=c + m1),
                        sigma2=replace(record.rho, values=var),
                        rho_mean=record.rho.mean())


def stationary_constant_env(grid: SimulationGrid, model: EnvironmentModel):
    """Stationary size rho_c and density of a time-independent model.

    The rate is probed at five phases (ConfigError if it moves); the state of
    its row follows as in _stationary_state.
    """
    # probe incommensurate phases; a half-period check alone can be blind
    phases = np.array([0.0, 0.25, 0.5, 1.0 / 3.0, np.sqrt(0.5)]) * model.period
    table = rate_table(model, phases, grid.x)
    if np.abs(table[1:] - table[0]).max() > 1e-10 * max(np.abs(table[0]).max(), 1.0):
        raise ConfigError("stationary analysis needs a time-independent model")
    return _stationary_state(grid, table[0], model.period)


def _stationary_state(grid: SimulationGrid, row: np.ndarray, period: float):
    """Size rho_c = log(mu) / dt and density rho_c times the unit-mass v,
    from the principal step eigenpair at dt = period / grid.steps_per_period.

    Raises ExtinctionError when rho_c <= 0 and NumericalError when the
    profile leans on the domain boundary (the domain does not confine it).
    """
    dt = period / grid.steps_per_period
    log_mu, p = step_eigenpair(grid, row, dt)
    rho_c = log_mu / dt
    if rho_c <= 0.0:
        raise ExtinctionError(
            f"extinction regime: no positive stationary state (lambda = {-rho_c:.6g})")
    profile = p / total_mass(grid, p)
    edge = max(profile[0], profile[-1])
    if edge > 1e-6 * profile.max():
        raise NumericalError(
            "domain does not confine the stationary profile "
            f"(edge/peak = {edge / profile.max():.3g})")
    return rho_c, rho_c * profile


@dataclass
class FitnessComparison:
    """Fluctuation-adapted population against the frozen-environment one.

    q is the population mean growth rate of the periodic population over
    one period, q_star = q(t_star) and q_mean = q.mean(); the frozen side is
    the stationary state of the environment held fixed at t_star.
    """

    t_star: float
    q_star: float
    q_mean: float
    rho_mean_periodic: float
    sigma2_periodic_mean: float
    frozen_fitness: float
    frozen_rho: float
    sigma2_frozen: float
    q: PeriodicScalarSignal


def _default_t_star(model: EnvironmentModel, x_m: float) -> float:
    """Time of weakest selection: the earliest of 2048 times of a period whose
    five-point a_xx at x_m (_derivatives_at at the model's trait_step) lies
    within 1e-9 relative of the largest, so a tie goes to the earliest time."""
    ts = np.linspace(0.0, model.period, 2049)[:-1]
    _, a_xx, _ = _derivatives_at(x_m, model.trait_step,
                                 lambda nodes: rate_table(model, ts, nodes))
    top = a_xx.max()
    return float(ts[np.argmax(a_xx >= top - 1e-9 * abs(top))])


def fitness_comparison(grid: SimulationGrid, model: EnvironmentModel,
                       t_star: float | None = None, tol: float = 1e-8,
                       max_periods: int = MAX_PERIODS) -> FitnessComparison:
    """Compare the periodic population with the frozen-at-t_star one.

    t_star defaults to the time of weakest selection (the largest a_xx at
    the optimum). If the rate is time-independent the frozen environment
    coincides with the periodic one and all quantities agree.
    tol and max_periods go to the orbit's eigen-solve.
    """
    x_m = averaged_optimum(model, (grid.x_lo, grid.x_hi))
    if t_star is None:
        t_star = _default_t_star(model, x_m)
    record = find_periodic_orbit(grid, model, tol, max_periods)
    report = measure_moments(record)
    q = effective_signals(record.pair, model)

    x = grid.x
    row = rate_table(model, [t_star], x)[0]
    rho_c, n_c = _stationary_state(grid, row, model.period)
    m_c = total_mass(grid, n_c)
    mu_c = grid.dx * float(np.sum(x * n_c)) / m_c
    var_c = grid.dx * float(np.sum((x - mu_c) ** 2 * n_c)) / m_c
    q_c = grid.dx * float(np.sum(row * n_c)) / m_c
    return FitnessComparison(
        t_star=float(t_star), q_star=float(q(t_star)), q_mean=q.mean(),
        rho_mean_periodic=report.rho_mean, sigma2_periodic_mean=report.sigma2.mean(),
        frozen_fitness=float(q_c), frozen_rho=float(rho_c),
        sigma2_frozen=float(var_c), q=q)
