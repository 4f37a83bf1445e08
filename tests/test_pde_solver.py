import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluctsel as fs
from fluctsel.pde_solver import _Stepper


def _const_model(value=1.0):
    return fs.make_custom(1.0, lambda t, x: np.full_like(np.asarray(x, float), value))


@pytest.mark.parametrize("kwargs", [
    dict(nx=8),
    dict(x_lo=2.0, x_hi=-2.0),
    dict(dt=0.0),
    dict(sigma=-1e-3),
])
def test_grid_validation(kwargs):
    base = dict(x_lo=-2.0, x_hi=2.0, nx=64, dt=1e-3, sigma=1e-2)
    base.update(kwargs)
    with pytest.raises(fs.ConfigError):
        fs.SimulationGrid(**base)


def test_grid_geometry():
    grid = fs.SimulationGrid(x_lo=-1.0, x_hi=1.0, nx=19, dt=1e-3, sigma=0.0)
    assert grid.dx == pytest.approx(0.1)
    assert grid.x[0] == pytest.approx(-0.9)
    assert grid.x[-1] == pytest.approx(0.9)
    assert len(grid.x) == 19


def test_density_field_rejects_bad_values():
    with pytest.raises(fs.NumericalError):
        fs.DensityField(time=0.0, values=np.array([1.0, -0.1, 1.0]))
    with pytest.raises(fs.NumericalError):
        fs.DensityField(time=0.0, values=np.array([1.0, np.nan, 1.0]))


def test_default_guess_has_unit_mass(ex1_model):
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=1000, dt=1e-3, sigma=0.0025)
    guess = fs.default_orbit_guess(grid, ex1_model)
    assert fs.total_mass(grid, guess) == pytest.approx(1.0, abs=1e-6)
    assert grid.x[np.argmax(guess)] == pytest.approx(0.0, abs=2 * grid.dx)


def test_step_without_diffusion_is_exact_reaction():
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=63, dt=1e-2, sigma=0.0)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    n0 = np.exp(-grid.x ** 2)
    out = _Stepper(grid, model).step(n0, 0, rho=0.3)
    expect = n0 * (1.0 + grid.dt * (1.0 - grid.x ** 2)) / (1.0 + grid.dt * 0.3)
    np.testing.assert_allclose(out, expect, rtol=1e-13)


def test_pure_diffusion_conserves_interior_mass():
    # zero growth in the linear (rho = 0) mode: only diffusion acts; mass
    # leaks just through the far-away ends, so it is conserved to solver
    # accuracy
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=1000, dt=1e-3, sigma=0.01)
    n0 = np.exp(-grid.x ** 2 / 0.02) / np.sqrt(0.02 * np.pi)
    n, masses, _ = _Stepper(grid, _const_model(0.0)).run(n0, 200, saturate=False)
    assert masses is None
    assert fs.total_mass(grid, n) == pytest.approx(fs.total_mass(grid, n0), rel=1e-9)
    assert n.min() >= 0.0


def test_step_rejects_oversized_reaction():
    # dt * max|a| = 0.5 * 2.5 >= 1: a growth factor 1 + dt * a would be negative
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=64, dt=0.5, sigma=0.0)
    with pytest.raises(fs.NumericalError, match="step constraint"):
        _Stepper(grid, _const_model(-2.5))


def _ex1_stepper(nx=200, steps=256):
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=nx, dt=1.0 / steps,
                             sigma=0.0025)
    return grid, _Stepper(grid, fs.make_oscillating_optimum(1.0, 1.0, 1.0,
                                                            2.0 * np.pi))


def test_period_map_is_linear_on_signed_vectors():
    grid, stepper = _ex1_stepper()
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal((2, grid.nx))

    def period_map(w):
        return stepper.run(w, stepper.steps, saturate=False)[0]

    combo = period_map(2.5 * u - 0.75 * v)
    parts = 2.5 * period_map(u) - 0.75 * period_map(v)
    assert np.abs(combo - parts).max() <= 1e-12 * np.abs(parts).max()


def test_step_keeps_nonnegative_input_nonnegative():
    # a spike next to a zero region: the diffusion solve alone must keep
    # every node >= 0 without clipping
    grid, stepper = _ex1_stepper()
    n = np.zeros(grid.nx)
    n[grid.nx // 2] = 1.0
    n[:5] = 1e-300
    for k in range(stepper.steps):
        n = stepper.step(n, k, rho=0.4)
        assert n.min() >= 0.0


def test_orbit_is_deterministic():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=150, dt=1.0 / 256,
                             sigma=0.0025)
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    first = fs.find_periodic_orbit(grid, model)
    again = fs.find_periodic_orbit(grid, model)
    assert np.array_equal(first.snapshots, again.snapshots)
    assert np.array_equal(first.rho_samples, again.rho_samples)
    assert first.periods_run == again.periods_run


def test_orbit_uses_a_small_krylov_basis(ex1_orbit, ex2_orbit):
    # the wide grid: from the averaged-operator start the Arnoldi loop passes
    # its Ritz residual test after 6 period maps on example1 and 3 on
    # example2; periods_run adds the recorded period
    assert ex1_orbit.periods_run == 7
    assert ex2_orbit.periods_run == 4


def test_eigen_solve_runs_at_most_its_budget(monkeypatch):
    # from a flat start this solve needs 16 maps at tol 1e-10: it succeeds
    # on exactly that budget and raises after exactly k maps on a smaller one
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=1.0 / 128, sigma=0.01)
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    flat = np.ones(grid.nx)
    maps = []
    run = _Stepper.run

    def counted(self, n, nsteps, saturate=True, record=False):
        if nsteps == self.steps and not saturate and not record:
            maps.append(nsteps)
        return run(self, n, nsteps, saturate, record)

    monkeypatch.setattr(_Stepper, "run", counted)
    need = fs.principal_eigenpair(grid, model, guess=flat).iterations
    assert need == len(maps) == 16
    maps.clear()
    assert fs.principal_eigenpair(grid, model, max_periods=need,
                                  guess=flat).iterations == len(maps) == need
    for budget in (1, 2, need - 1):
        maps.clear()
        with pytest.raises(fs.ConvergenceError, match=f"within {budget} periods"):
            fs.principal_eigenpair(grid, model, max_periods=budget, guess=flat)
        assert len(maps) == budget


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(16, 40), steps=st.integers(16, 64),
       sigma=st.floats(1e-3, 0.05), r=st.floats(0.0, 2.0), g=st.floats(0.2, 1.0),
       swing=st.floats(0.0, 0.9), pressure=st.booleans())
def test_eigenpair_matches_the_dense_period_map(nx, steps, sigma, r, g, swing,
                                                pressure):
    # on [-2, 2] max|a| <= r + 4 * 2.85 g < 14 < steps: the step constraint holds
    if pressure:
        model = fs.make_oscillating_pressure(
            r, lambda t: 1.5 * g * (1.0 + swing * np.cos(2.0 * np.pi * t)))
    else:
        model = fs.make_oscillating_optimum(r, g, swing, 2.0 * np.pi)
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=nx, dt=1.0 / steps,
                             sigma=sigma)
    stepper = _Stepper(grid, model)
    dense = np.column_stack([stepper.run(e, stepper.steps, saturate=False)[0]
                             for e in np.eye(nx)])
    assert dense.min() >= 0.0
    vals, vecs = np.linalg.eig(dense)
    k = np.argmax(np.abs(vals))
    perron = vecs[:, k].real / vecs[:, k].real.sum()
    assert perron.min() >= -1e-12
    tol = 1e-10
    pair = fs.principal_eigenpair(grid, model, tol=tol)
    assert abs(pair.lam * model.period + np.log(vals[k].real)) <= 10.0 * tol
    profile = pair.p_snapshots[0]
    assert profile.min() >= 0.0 and profile.max() == 1.0
    assert np.abs(profile - perron / perron.max()).max() <= 100.0 * tol


def test_eigen_solve_reports_an_overflowing_period_map():
    # a growth factor of about e^1000 per period is past the double range
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=1.0 / 2048, sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1000.0 - np.asarray(x) ** 2)
    with pytest.raises(fs.NumericalError, match="overflowed"):
        fs.principal_eigenpair(grid, model)


def test_simulate_logistic_growth_matches_ode():
    # flat rate: mass obeys rho' = rho (1 - rho) regardless of diffusion
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=500, dt=1e-3, sigma=0.01)
    n0 = np.exp(-grid.x ** 2)
    n0 *= 0.1 / fs.total_mass(grid, n0)
    field, (times, rho), diag = fs.simulate(grid, _const_model(1.0), n0, 5.0)
    exact = 0.1 * np.exp(times) / (1.0 + 0.1 * (np.exp(times) - 1.0))
    assert np.abs(rho - exact).max() < 5e-3
    assert not diag["extinct"]


def test_simulate_decay_and_extinction_flag():
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=200, dt=1e-2, sigma=0.0025)
    n0 = np.exp(-grid.x ** 2)
    field, (times, rho), diag = fs.simulate(grid, _const_model(-1.0), n0, 30.0)
    assert (rho[1:] <= rho[0] * np.exp(-times[1:] + 1e-9)).all()
    assert diag["extinct"]
    assert rho[-1] < 1e-12


def test_autonomous_steady_state():
    # frozen environment: the period map fixed point is a true steady state
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, dt=1.0 / 256, sigma=0.01)
    rec = fs.find_periodic_orbit(grid, model, tol=1e-10)
    assert rec.period_gap < 1e-9
    within = np.abs(rec.snapshots - rec.snapshots[0]).max() / rec.snapshots[0].max()
    assert within < 1e-6
    # steady total size is the principal eigenvalue's negative
    assert rec.rho_samples[0] == pytest.approx(1.0 - np.sqrt(0.01), abs=5e-3)


def test_find_periodic_orbit_detects_extinction():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=1.0 / 128, sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: -0.5 - np.asarray(x) ** 2)
    with pytest.raises(fs.ExtinctionError, match="no positive periodic orbit"):
        fs.find_periodic_orbit(grid, model)


def test_find_periodic_orbit_convergence_error():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=1.0 / 128, sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    # the default start solves this frozen environment exactly (one map), so
    # start flat: that needs 10 maps
    with pytest.raises(fs.ConvergenceError, match="no principal eigenpair within"):
        fs.find_periodic_orbit(grid, model, max_periods=2, guess=np.ones(grid.nx))


def test_orbit_shape_is_the_eigenprofile(ex1_eigen):
    orbit = fs.orbit_from_pair(ex1_eigen)
    shape = orbit.snapshots / orbit.rho_samples[:, None]
    masses = ex1_eigen.grid.dx * ex1_eigen.p_snapshots.sum(axis=1)
    profile = ex1_eigen.p_snapshots / masses[:, None]
    assert np.abs(shape - profile).max() <= 1e-12 * profile.max()


def test_orbit_is_a_trajectory_of_the_saturating_scheme():
    # n_k = p_k / y_k is exact: each recorded snapshot is one saturating step
    # of the previous one, and rho_k is its mass
    grid, stepper = _ex1_stepper()
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    rec = fs.find_periodic_orbit(grid, model)
    snaps, rho = rec.snapshots, rec.rho_samples
    np.testing.assert_allclose(grid.dx * snaps.sum(axis=1), rho, rtol=1e-12)
    for k in range(stepper.steps):
        out = stepper.step(snaps[k], k, rho=rho[k])
        assert np.abs(out - snaps[k + 1]).max() <= 1e-12 * snaps[k + 1].max()
    assert rec.period_gap < 1e-7


def test_find_periodic_orbit_rejects_bad_guess():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=1.0 / 128, sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    with pytest.raises(fs.ConfigError):
        fs.find_periodic_orbit(grid, model, guess=np.zeros(100))


@pytest.mark.parametrize("guess", [np.zeros(100), -np.ones(100)])
def test_principal_eigenpair_rejects_bad_guess(guess):
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, dt=1.0 / 128, sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    with pytest.raises(fs.ConfigError, match="nonnegative with positive mass"):
        fs.principal_eigenpair(grid, model, guess=guess)


def test_orbit_record_shape(ex1_orbit, wide_grid):
    steps = round(1.0 / wide_grid.dt)
    assert ex1_orbit.snapshots.shape == (steps + 1, wide_grid.nx)
    assert ex1_orbit.times[0] == 0.0
    assert ex1_orbit.times[-1] == pytest.approx(1.0)
    assert len(ex1_orbit.rho_samples) == steps + 1
    assert ex1_orbit.period_gap < 1e-8
