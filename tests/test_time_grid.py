"""One snap of dt to a whole number of steps per period, shared by every
solver."""

import logging

import numpy as np
import pytest

import fluctsel as fs
from fluctsel.asymptotics import _stationary_state
from fluctsel.pde_solver import _Stepper, step_eigenpair
from fluctsel.quadrature import snap_steps


@pytest.mark.parametrize("period,dt", [
    (1.0, 1.0 / 2048), (1.0, 0.005), (1.0, 1.0 / 500), (2.0 * np.pi / 3.0, 0.01),
    (1.0, 0.003), (2.0, 0.3), (1.0, 1e-3 / 3.0), (1.0, 5.0)])
def test_snap_steps_rounds_to_the_nearest_whole_number_of_steps(period, dt):
    steps, snapped = snap_steps(period, dt)
    expect = max(1, int(round(period / dt)))
    assert isinstance(steps, int)
    assert steps == expect
    # the same double as dividing the period by the step count
    assert snapped == period / expect


def test_every_solver_snaps_to_the_same_steps(ex1_model, caplog):
    # dt = 0.003 does not divide T = 1; every solver runs 333 steps of 1/333
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=0.003, sigma=0.01)
    steps, dt = snap_steps(ex1_model.period, grid.dt)
    assert (steps, dt) == (333, 1.0 / 333)

    stepper = _Stepper(grid, ex1_model)
    assert (stepper.steps, stepper.dt) == (steps, dt)

    with caplog.at_level(logging.WARNING, logger="fluctsel.quadrature"):
        _, (times, _), _ = fs.simulate_sigma0(grid, ex1_model,
                                              np.exp(-grid.x ** 2), 0.1)
    assert times[1] == dt

    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 0.5 + np.sin(2 * np.pi * ts))
    times, _ = fs.integrate_logistic(q, 0.5, 0.1, dt=grid.dt)
    assert times[1] == dt

    row = ex1_model.rate(0.0, grid.x)
    rho_c, _ = _stationary_state(grid, row, ex1_model.period)
    assert rho_c == step_eigenpair(grid, row, dt)[0] / dt

    _, v = step_eigenpair(grid, fs.mean_growth(ex1_model, grid.x), dt)
    np.testing.assert_array_equal(fs.default_orbit_guess(grid, ex1_model),
                                  v / fs.total_mass(grid, v))


def _run_simulate(model, t_end):
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, dt=1.0 / 64, sigma=0.01)
    return fs.simulate(grid, model, np.exp(-grid.x ** 2), t_end)


def _run_simulate_sigma0(model, t_end):
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, dt=1.0 / 64, sigma=0.0)
    return fs.simulate_sigma0(grid, model, np.exp(-grid.x ** 2), t_end)


def _run_integrate_logistic(model, t_end):
    q = fs.PeriodicScalarSignal.from_array_callable(
        model.period, lambda ts: fs.rate_table(model, ts, np.array([0.0]))[:, 0])
    return fs.integrate_logistic(q, 0.5, t_end)


@pytest.mark.parametrize("t_end", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("run", [_run_simulate, _run_simulate_sigma0,
                                 _run_integrate_logistic],
                         ids=["simulate", "simulate_sigma0", "integrate_logistic"])
def test_every_integrator_rejects_an_end_time_outside_0_to_inf(run, t_end, ex1_model):
    # one check, quadrature.check_end_time, before any step
    with pytest.raises(fs.ConfigError, match="t_end must be finite and nonnegative"):
        run(ex1_model, t_end)
