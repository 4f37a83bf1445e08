"""Shared fixtures; the expensive periodic-orbit/eigenpair runs are cached
per session so module tests and the acceptance suite reuse them."""

import numpy as np
import pytest

import fluctsel as fs

EPS = 0.05
STEPS = 2048


@pytest.fixture(scope="session")
def ex1_model():
    return fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)


@pytest.fixture(scope="session")
def ex2_model():
    return fs.make_oscillating_pressure(1.0, lambda t: 2.0 + 1.8 * np.cos(2.0 * np.pi * t))


@pytest.fixture(scope="session")
def wide_grid():
    return fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=STEPS,
                             sigma=EPS * EPS)


@pytest.fixture(scope="session")
def ex1_orbit(wide_grid, ex1_model):
    return fs.find_periodic_orbit(wide_grid, ex1_model)


@pytest.fixture(scope="session")
def ex1_eigen(wide_grid, ex1_model):
    return fs.principal_eigenpair(wide_grid, ex1_model)


@pytest.fixture(scope="session")
def ex2_eigen(wide_grid, ex2_model):
    return fs.principal_eigenpair(wide_grid, ex2_model)


@pytest.fixture(scope="session")
def ex2_orbit(wide_grid, ex2_model):
    return fs.find_periodic_orbit(wide_grid, ex2_model)
