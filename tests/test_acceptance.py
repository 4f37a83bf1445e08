"""Acceptance gate: every numbered requirement as one pass/fail test.

Each test states its tolerance inline and measures everything it asserts;
nothing here is tuned to the implementation beyond the shared fixtures.
Run with -v to get one line per criterion.
"""

import time

import numpy as np
import pytest

import fluctsel as fs

EPS = 0.05


def _ex1_q_at_optimum(ex1_model):
    # a(t, 0) = 1 - sin(2 pi t)^2; certified against the model below
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 1.0 - np.sin(2.0 * np.pi * ts) ** 2)
    ts = np.linspace(0.0, 1.0, 101)
    worst = max(abs(q(t) - float(ex1_model.rate(t, np.array([0.0]))[0]))
                for t in ts)
    assert worst < 1e-14
    return q


def test_c01_logistic_orbit_attracts_integrations(ex1_model):
    start = time.perf_counter()
    q = _ex1_q_at_optimum(ex1_model)
    orbit = fs.periodic_rho_closed_form(q)
    for rho0 in (0.05, 5.0):
        times, rho = fs.integrate_logistic(q, rho0, 50.0)
        last = times >= 49.0 - 1e-12
        gap = np.abs(rho[last] - orbit(times[last])).max()
        assert gap < 1e-6, f"final-period gap {gap:.3e} from rho0={rho0}"
    assert time.perf_counter() - start < 1.0


def test_c02_constant_rate_collapses_to_equilibrium():
    r = 1.0
    q = fs.PeriodicScalarSignal.from_array_callable(1.0, lambda ts: np.full_like(ts, r))
    orbit = fs.periodic_rho_closed_form(q)
    assert np.abs(orbit.values - r).max() < 1e-12


def test_c03_sigma0_concentration(ex1_model):
    start = time.perf_counter()
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=200,
                             sigma=0.0)
    w0 = 0.05
    n0 = np.exp(-grid.x ** 2 / (2 * w0 * w0)) / (w0 * np.sqrt(2 * np.pi))
    state, (times, rho), diag = fs.simulate_sigma0(grid, ex1_model, n0, 200.0)
    metrics = fs.concentration_metrics(grid, state, radius=0.1)
    assert metrics.mass_outside < 1e-2
    orbit = fs.periodic_rho_closed_form(_ex1_q_at_optimum(ex1_model))
    last = times >= 199.0 - 1e-12
    rho_gap = np.abs(rho[last] - orbit(times[last])).max()
    assert rho_gap < 1e-2
    assert time.perf_counter() - start < 10.0


def test_c04_floquet_identity_and_truncation(ex1_model, ex2_model,
                                             ex1_eigen, ex2_eigen):
    for name, model, pair in (("example1", ex1_model, ex1_eigen),
                              ("example2", ex2_model, ex2_eigen)):
        resid = fs.lambda_identity_residual(pair, fs.effective_signals(pair, model))
        assert resid < 1e-6, f"identity residual {resid:.3e} ({name})"
    rows = fs.radius_sweep(ex1_model, [2.0, 3.0, 4.0, 5.0], sigma=EPS * EPS,
                           points_per_unit=100, steps_per_period=1024)
    lams = np.array([row["lambda"] for row in rows])
    assert np.all(np.diff(lams) <= 1e-9), f"lambda not nonincreasing: {lams}"
    assert abs(lams[-1] - lams[-2]) < 1e-6


def test_c05_extinction_dichotomy(ex1_model, ex1_eigen):
    shifted = fs.make_oscillating_optimum(1.0 - 10.0, 1.0, 1.0, 2.0 * np.pi)
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                             sigma=EPS * EPS)
    pair = fs.principal_eigenpair(grid, shifted)
    assert ex1_eigen.lam < 0.0 < pair.lam
    with pytest.raises(fs.ExtinctionError):
        fs.find_periodic_orbit(grid, shifted)
    n0 = fs.default_orbit_guess(grid, shifted)
    _, (times, rho), diag = fs.simulate(grid, shifted, n0, 30.0)
    assert rho[-1] < 1e-12
    assert diag["extinct"]


def test_c06_orbit_density_matches_eigenprofile(ex1_orbit, ex1_eigen,
                                                ex1_model):
    # the unit-mass eigenprofiles P = p / int p, one row per snapshot
    P = ex1_eigen.p_snapshots / (ex1_eigen.grid.dx * ex1_eigen.row_sums)[:, None]
    rho = ex1_orbit.rho.values
    shape = np.array([ex1_orbit.density(k) / rho[k] for k in range(len(rho))])
    gap = np.abs(shape - P).max()
    assert gap < 1e-3, f"sup density/eigenprofile gap {gap:.3e}"


def test_c07_hopf_cole_limit(ex1_model):
    start = time.perf_counter()
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=1024,
                                 sigma=eps * eps)
        record = fs.find_periodic_orbit(grid, ex1_model)
        u_eps = fs.hopf_cole(record.density(0), grid.sigma)
        window = np.abs(grid.x) <= 1.0
        exact = -grid.x[window] ** 2 / 2.0
        gaps.append(float(np.abs(u_eps[window] - exact).max()))
    assert gaps[0] > gaps[1] > gaps[2], f"gaps not decreasing: {gaps}"
    assert gaps[-1] < 0.1
    assert time.perf_counter() - start < 120.0


def test_c08_example1_moment_predictions(ex1_orbit):
    rep = fs.measure_moments(ex1_orbit)
    amp, phase, _ = rep.mu.first_harmonic()
    amp_theory = 2.0 * EPS * 1.0 * 1.0 / (2.0 * np.pi)
    assert abs(amp - amp_theory) / amp_theory < 0.15
    lag = -phase
    assert abs(lag - np.pi / 2.0) < 0.1
    var_theory = EPS / 1.0
    assert abs(rep.sigma2.mean() - var_theory) / var_theory < 0.10
    rho_theory = 1.0 - 0.5 - EPS
    assert abs(rep.rho_mean - rho_theory) < 5.0 * EPS ** 2


def test_c09_example2_fitness_ordering(wide_grid, ex2_model):
    comp = fs.fitness_comparison(wide_grid, ex2_model)
    assert comp.t_star == pytest.approx(0.5, abs=1e-3)
    g_low, g_bar = 0.2, 2.0
    frozen_theory = 1.0 - EPS * np.sqrt(g_low)
    assert comp.q_star > frozen_theory
    assert comp.q_star > comp.frozen_fitness
    assert comp.sigma2_periodic_mean < comp.sigma2_frozen
    assert comp.rho_mean_periodic < comp.frozen_rho
    correction = EPS * g_low / np.sqrt(g_bar)
    predicted = 1.0 - correction
    assert abs(comp.q_star - predicted) < 0.2 * correction


def test_c10_stationary_state_matches_gaussian(ex2_model):
    gamma = 0.2  # weakest pressure, at t = 1/2
    frozen = fs.make_custom(1.0, lambda t, x: ex2_model.rate(0.5, x))
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=512,
                             sigma=EPS * EPS)
    rho_c, n_c = fs.stationary_constant_env(grid, frozen)
    assert abs(rho_c - (1.0 - EPS * np.sqrt(gamma))) < 1e-3
    n_exact = rho_c * gamma ** 0.25 / np.sqrt(2 * np.pi * EPS) * np.exp(
        -np.sqrt(gamma) * grid.x ** 2 / (2 * EPS))
    rel_gap = np.abs(n_c - n_exact).max() / n_exact.max()
    assert rel_gap < 1e-3, f"sup relative profile gap {rel_gap:.3e}"


def test_c11_size_band_and_tail_bounds(wide_grid, ex1_model, ex1_orbit,
                                       ex2_model, ex2_orbit):
    for model, record in ((ex1_model, ex1_orbit), (ex2_model, ex2_orbit)):
        report = fs.orbit_bounds(record, model)
        assert report["rho_band_ok"], report
        assert report["tail_ok"], report


def test_c12_richardson_refinement(ex1_model):
    lams, rhos = [], []
    for level in range(3):
        nx = 150 * 2 ** level - 1
        steps = 500 * 4 ** level
        grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=nx, steps_per_period=steps,
                                 sigma=EPS * EPS)
        pair = fs.principal_eigenpair(grid, ex1_model)
        rep = fs.measure_moments(fs.orbit_from_pair(pair))
        lams.append(pair.lam)
        rhos.append(rep.rho_mean)
    ratio_lam = abs(lams[0] - lams[1]) / abs(lams[1] - lams[2])
    ratio_rho = abs(rhos[0] - rhos[1]) / abs(rhos[1] - rhos[2])
    assert 3.0 <= ratio_lam <= 5.0, f"lambda refinement ratio {ratio_lam:.3f}"
    assert 3.0 <= ratio_rho <= 5.0, f"rho refinement ratio {ratio_rho:.3f}"
