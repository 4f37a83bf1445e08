"""The grid's steps_per_period is the one time resolution: every solver runs
that many steps of T / steps_per_period per period T of its model."""

import numpy as np
import pytest

import fluctsel as fs
from fluctsel.asymptotics import _stationary_state
from fluctsel.pde_solver import _Stepper, step_eigenpair

# a period of 2 pi / 3, so that no step count divides it into a round dt
T = 2.0 * np.pi / 3.0
STEPS = 333


@pytest.fixture(scope="module")
def model():
    return fs.make_oscillating_optimum(1.0, 1.0, 1.0, 3.0)


def _grid(sigma=0.01, steps=STEPS):
    return fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=steps,
                             sigma=sigma)


def test_every_solver_steps_the_period_over_the_step_count(model):
    assert model.period == T
    dt = T / STEPS
    grid = _grid()

    stepper = _Stepper(grid, model)
    assert (stepper.steps, stepper.dt) == (STEPS, dt)
    assert stepper.times[-1] == STEPS * dt

    n0 = np.exp(-grid.x ** 2)
    _, (times, _), diagnostics = fs.simulate(grid, model, n0, T)
    assert times[1] == dt and len(times) == STEPS + 1
    assert set(diagnostics) == {"boundary_mass_fraction", "extinct"}

    _, (times, _), _ = fs.simulate_sigma0(_grid(sigma=0.0), model, n0, T)
    assert times[1] == dt and len(times) == STEPS + 1

    q = fs.PeriodicScalarSignal.from_array_callable(
        T, lambda ts: 0.5 + np.sin(3.0 * ts))
    times, _ = fs.integrate_logistic(q, 0.5, T, steps_per_period=STEPS)
    assert times[1] == dt and len(times) == STEPS + 1
    times, _ = fs.integrate_logistic(q, 0.5, T)
    assert times[1] == T / 1024

    row = model.rate(0.0, grid.x)
    rho_c, _ = _stationary_state(grid, row, model.period)
    assert rho_c == step_eigenpair(grid, row, dt)[0] / dt

    _, v = step_eigenpair(grid, fs.mean_growth(model, grid.x), dt)
    np.testing.assert_array_equal(fs.default_orbit_guess(grid, model),
                                  v / fs.total_mass(grid, v))

    pair = fs.principal_eigenpair(grid, model, tol=1e-8)
    np.testing.assert_array_equal(pair.times, dt * np.arange(STEPS + 1))


def test_a_numpy_integer_step_count_is_whole():
    assert _grid(steps=np.int64(64)).steps_per_period == 64


BAD_STEPS = [0, -1, 2.5, 64.0, True, "64", None]


@pytest.mark.parametrize("steps", BAD_STEPS)
def test_grid_rejects_a_step_count_that_is_not_a_whole_number_from_1(steps):
    with pytest.raises(fs.ConfigError, match="steps_per_period must be a whole number"):
        _grid(steps=steps)


@pytest.mark.parametrize("steps", BAD_STEPS)
def test_integrate_logistic_rejects_the_step_counts_the_grid_rejects(steps):
    # one check, quadrature.check_steps_per_period, for both
    q = fs.PeriodicScalarSignal.from_array_callable(T, lambda ts: 1.0 + np.sin(3.0 * ts))
    with pytest.raises(fs.ConfigError, match="steps_per_period must be a whole number"):
        fs.integrate_logistic(q, 0.5, T, steps_per_period=steps)


def _run_simulate(model, t_end):
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=64,
                             sigma=0.01)
    return fs.simulate(grid, model, np.exp(-grid.x ** 2), t_end)


def _run_simulate_sigma0(model, t_end):
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=64, sigma=0.0)
    return fs.simulate_sigma0(grid, model, np.exp(-grid.x ** 2), t_end)


def _run_integrate_logistic(model, t_end):
    q = fs.PeriodicScalarSignal.from_array_callable(
        model.period, lambda ts: fs.rate_table(model, ts, np.array([0.0]))[:, 0])
    return fs.integrate_logistic(q, 0.5, t_end)


RUNS = pytest.mark.parametrize(
    "run", [_run_simulate, _run_simulate_sigma0, _run_integrate_logistic],
    ids=["simulate", "simulate_sigma0", "integrate_logistic"])


@RUNS
def test_an_end_time_of_0_takes_no_step(run, ex1_model):
    # round(t_end / dt) steps: the start alone, not one step past the end
    out = run(ex1_model, 0.0)
    if run is _run_integrate_logistic:
        (times, rho), start = out, 0.5
    else:
        grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=64,
                                 sigma=0.01)
        (times, rho), start = out[1], fs.total_mass(grid, np.exp(-grid.x ** 2))
    assert times.tolist() == [0.0]
    assert rho.tolist() == pytest.approx([start], rel=1e-14)


@pytest.mark.parametrize("t_end", [-1.0, np.nan, np.inf])
@RUNS
def test_every_integrator_rejects_an_end_time_outside_0_to_inf(run, t_end, ex1_model):
    # one check, quadrature.check_end_time, before any step
    with pytest.raises(fs.ConfigError, match="t_end must be finite and nonnegative"):
        run(ex1_model, t_end)
