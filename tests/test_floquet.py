import tracemalloc

import numpy as np
import pytest

import fluctsel as fs


def _separable_setup(a0=0.3, sigma=0.5, nx=199, steps=512):
    # constant rate: the period map acts diagonally on the Dirichlet sine
    # modes, so everything about the discrete eigenpair is known in closed form
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=nx, steps_per_period=steps,
                             sigma=sigma)
    model = fs.make_custom(1.0, lambda t, x: np.full_like(np.asarray(x, float), a0))
    return grid, model, a0


def _discrete_mode_rate(grid):
    # smallest eigenvalue of the discrete Dirichlet Laplacian, sign flipped
    ell = grid.x_hi - grid.x_lo
    return (2.0 - 2.0 * np.cos(np.pi * grid.dx / ell)) / grid.dx ** 2


@pytest.mark.parametrize("steps", [512, 256])
def test_separable_eigenvalue_exact(steps):
    # every solve runs the grid's own steps, also below 512 per period
    grid, model, a0 = _separable_setup(steps=steps)
    pair = fs.principal_eigenpair(grid, model, tol=1e-13)
    dt = 1.0 / steps
    omega = _discrete_mode_rate(grid)
    lam_exact = -(np.log1p(dt * a0) - np.log1p(dt * grid.sigma * omega)) / dt
    assert pair.lam == pytest.approx(lam_exact, abs=1e-8)


def test_separable_eigenfunction_is_sine_mode():
    grid, model, _ = _separable_setup()
    pair = fs.principal_eigenpair(grid, model, tol=1e-13)
    ell = grid.x_hi - grid.x_lo
    mode = np.sin(np.pi * (grid.x - grid.x_lo) / ell)
    mode /= mode.max()
    assert np.abs(pair.p_snapshots[0] - mode).max() < 1e-6


def test_separable_matched_residual_closed_form():
    grid, model, _ = _separable_setup()
    pair = fs.principal_eigenpair(grid, model, tol=1e-13)
    got = fs.lambda_identity_residual(pair, fs.effective_signals(pair, model))
    dt = 1.0 / grid.steps_per_period
    expected = np.log1p(dt * grid.sigma * _discrete_mode_rate(grid)) / dt
    assert got == pytest.approx(expected, abs=1e-10)


def test_continuum_limit_of_separable_eigenvalue():
    grid, model, a0 = _separable_setup(nx=799, steps=2048)
    pair = fs.principal_eigenpair(grid, model, tol=1e-13)
    # -a0 + sigma (pi / ell)^2 up to discretization error
    lam_cont = -a0 + grid.sigma * (np.pi / 4.0) ** 2
    assert pair.lam == pytest.approx(lam_cont, abs=2e-3)


def test_snapshot_normalization_and_periodicity(ex1_eigen):
    snaps = ex1_eigen.p_snapshots
    assert snaps[0].max() == pytest.approx(1.0, abs=1e-12)
    assert (snaps > 0.0).any(axis=1).all()
    assert (snaps >= 0.0).all()
    gap = np.abs(snaps[-1] - snaps[0]).max()
    assert gap < 1e-7


def test_known_eigenvalue_oscillating_optimum(ex1_eigen):
    # independently computed reference for the standard configuration
    assert ex1_eigen.lam == pytest.approx(-0.4500351371, abs=5e-6)


def test_effective_profiles_unit_mass(ex1_eigen, ex1_model):
    dx = ex1_eigen.grid.dx
    P = ex1_eigen.p_snapshots / (dx * ex1_eigen.row_sums)[:, None]
    np.testing.assert_allclose(dx * P.sum(axis=1), 1.0, rtol=0, atol=1e-10)
    # mean effective rate balances the decay exponent to first order in dt
    q = fs.effective_signals(ex1_eigen, ex1_model)
    assert q.mean() == pytest.approx(-ex1_eigen.lam, abs=5e-3)


def test_matched_identity_beats_simpson(ex1_eigen, ex1_model):
    q = fs.effective_signals(ex1_eigen, ex1_model)
    matched = fs.lambda_identity_residual(ex1_eigen, q)
    plain = abs(ex1_eigen.lam + q.mean())
    assert matched < 1e-8
    assert matched < plain


def test_eigenpair_is_deterministic(ex1_model):
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=150, steps_per_period=512,
                             sigma=0.0025)
    first = fs.principal_eigenpair(grid, ex1_model)
    again = fs.principal_eigenpair(grid, ex1_model)
    assert first.lam == again.lam
    assert np.array_equal(first.p_snapshots, again.p_snapshots)
    assert first.iterations == again.iterations


def test_convergence_error_reports_factors(ex1_model):
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=240, steps_per_period=512,
                             sigma=0.0025)
    with pytest.raises(fs.ConvergenceError, match="last two factors"):
        fs.principal_eigenpair(grid, ex1_model, tol=1e-14, max_periods=2)


def test_radius_sweep_monotone(ex1_model):
    # walls inside the swing range of the optimum push the exponent up, so
    # these radii show real truncation error, decreasing as R grows
    rows = fs.radius_sweep(ex1_model, [0.6, 0.8, 1.0, 1.4], sigma=0.0025,
                           points_per_unit=60, steps_per_period=512, tol=1e-8)
    lams = [row["lambda"] for row in rows]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    # the identity defect measures the boundary mass flux, so it shrinks too
    resid = [row["identity_residual"] for row in rows]
    assert all(b < a for a, b in zip(resid, resid[1:]))
    assert resid[-1] < 1e-6
    assert [row["R"] for row in rows] == [0.6, 0.8, 1.0, 1.4]


def test_radius_sweep_rejects_unordered(ex1_model):
    # an input check, like every other library input check
    with pytest.raises(fs.ConfigError, match="strictly increasing"):
        fs.radius_sweep(ex1_model, [2.0, 1.0], sigma=0.0025)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_q_and_orbit_bounds_allocate_no_table(ex1_eigen, ex1_model):
    # neither builds a temporary of the 2049 x 800 table's size (13 MiB)
    orbit = fs.orbit_from_pair(ex1_eigen)
    assert _traced_peak(fs.effective_signals, ex1_eigen, ex1_model) < 2 ** 20
    assert _traced_peak(fs.orbit_bounds, orbit, ex1_model) < 2 ** 20


def test_no_unique_optimum_leaves_the_tail_unchecked():
    # the averaged rate has two peaks, near x = -1 and x = 1: check_hypotheses
    # reports no x_m and no confinement instead of raising, and orbit_bounds
    # skips the tail envelope
    model = fs.make_custom(
        1.0, lambda t, x: 1.0 - (np.asarray(x) ** 2 - 1.0) ** 2 + 0.2 * np.asarray(x))
    rep = fs.check_hypotheses(model, (-2.5, 2.5))
    assert (rep.x_m, rep.h5_delta, rep.h5_radius) == (None, None, None)
    grid = fs.SimulationGrid(x_lo=-2.5, x_hi=2.5, nx=199, steps_per_period=64,
                             sigma=0.01)
    bounds = fs.orbit_bounds(fs.find_periodic_orbit(grid, model), model)
    assert bounds["tail_ok"] is None and bounds["tail_worst_ratio"] is None
    assert bounds["rho_band_ok"]
