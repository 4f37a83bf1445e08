import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluctsel as fs
from fluctsel import cli_io
from fluctsel.asymptotics import _cell_solution, _default_t_star
from fluctsel.pde_solver import FloquetPair, OrbitRecord

EPS = 0.05


def test_hopf_cole_of_gaussian_is_parabola():
    x = np.linspace(-2.0, 2.0, 401)
    n = np.exp(-x ** 2 / (2 * EPS)) / np.sqrt(2 * np.pi * EPS)
    u = fs.hopf_cole(n, EPS ** 2)
    np.testing.assert_allclose(u, -x ** 2 / 2, rtol=0, atol=1e-12)


def test_hopf_cole_accepts_array_and_rejects_zero():
    # a flat unit density: u = eps log(2 pi eps) / 2 on every node
    u = fs.hopf_cole(np.ones(32), 0.01)
    assert u.shape == (32,)
    np.testing.assert_allclose(u, 0.05 * np.log(0.2 * np.pi), rtol=1e-15)
    with pytest.raises(fs.NumericalError):
        fs.hopf_cole(np.zeros(10), 0.01)
    with pytest.raises(fs.ConfigError):
        fs.hopf_cole(np.ones(10), 0.0)


def test_limit_profile_closed_form(ex1_model):
    # rho_bar - abar = x^2, so the exponent is exactly -x^2/2
    xs = np.linspace(-3.0, 3.0, 801)
    prof = fs.limit_profile(ex1_model, xs)
    assert abs(prof.x_m) < 1e-15
    assert prof.rho_bar == pytest.approx(0.5)
    np.testing.assert_allclose(prof.u_values, -xs ** 2 / 2, rtol=0, atol=1e-6)
    assert prof.u_values.max() == pytest.approx(0.0, abs=1e-12)
    assert prof.taylor == pytest.approx((1.0, 0.0))


def test_limit_profile_pressure_model(ex2_model):
    xs = np.linspace(-2.0, 2.0, 801)
    prof = fs.limit_profile(ex2_model, xs)
    assert prof.rho_bar == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(prof.u_values, -xs ** 2 / np.sqrt(2.0),
                               rtol=0, atol=1e-6)
    assert prof.taylor[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_limit_profile_finite_difference_fallback(ex1_model):
    bare = fs.make_custom(1.0, ex1_model.rate)
    xs = np.linspace(-3.0, 3.0, 801)
    prof = fs.limit_profile(bare, xs)
    assert prof.x_m == pytest.approx(0.0, abs=1e-7)
    assert prof.taylor == pytest.approx((1.0, 0.0), abs=1e-6)


def test_limit_profile_rejects_low_rho_bar():
    # a box of height 5 around the node 2.0012 of the 1605-point fine grid,
    # between two points of the 1025-point scan (0.0027 from the nearest):
    # the scan certifies the peak at 0, the fine grid reads abar = 1.495 there
    fine = np.linspace(-3.0, 3.0, 1605)[1337]

    def rate(t, x):
        x = np.asarray(x)
        return 0.5 - x ** 2 + np.where(np.abs(x - fine) < 1e-4, 5.0, 0.0)

    xs = np.linspace(-3.0, 3.0, 401)
    with pytest.raises(fs.NumericalError, match="H2/limit inconsistency"):
        fs.limit_profile(fs.make_custom(1.0, rate), xs)


def test_limit_profile_of_a_rate_that_is_not_polynomial():
    # a = -(e^y - 1 - y), y = x - c(t), c = sin(2 pi t) / 2: abar = -(e^x I0(1/2)
    # - 1 - x), so x_m = -log I0(1/2), abar'' = abar''' = -1 there, A = 1 /
    # sqrt 2 and B = -sqrt 2 / 36, to the stencil's truncation at a step of 1e-3
    def rate(t, x):
        y = np.asarray(x) - 0.5 * np.sin(2.0 * np.pi * t)
        return -(np.expm1(y) - y)

    prof = fs.limit_profile(fs.make_custom(1.0, rate), np.linspace(-3.0, 3.0, 601))
    assert abs(prof.x_m + np.log(np.i0(0.5))) < 1e-12
    assert abs(prof.taylor[0] - 1.0 / np.sqrt(2.0)) < 1e-9
    assert abs(prof.taylor[1] + np.sqrt(2.0) / 36.0) < 1e-6


def test_an_optimum_between_table_nodes(ex1_model):
    # example1 moved by 0.013, tabulated at a node spacing of 0.05: the
    # interpolant's mean peaks at the node 0, 3.1e-4 above its value at the
    # stencil root 0.013, the optimum of the rate that the table samples
    def rate(t, x):
        return ex1_model.rate(t, np.asarray(x) - 0.013)

    t_nodes, x_nodes = np.arange(256) / 256.0, np.linspace(-4.0, 4.0, 161)
    table = fs.make_tabulated(1.0, t_nodes, x_nodes,
                              fs.rate_table(fs.make_custom(1.0, rate), t_nodes, x_nodes))
    prof = fs.limit_profile(table, np.linspace(-4.0, 4.0, 801))
    assert prof.x_m == pytest.approx(0.013, abs=1e-12)
    assert prof.taylor == pytest.approx((1.0, 0.0), abs=1e-12)


def test_corrector_oscillating_optimum(ex1_model):
    # v = 2x(1 - cos 2 pi t)/(2 pi) + ..., so D(t) = -cos(2 pi t)/pi, E = 0
    xs = np.linspace(-3.0, 3.0, 401)
    prof = fs.limit_profile(ex1_model, xs)
    corr = fs.corrector(ex1_model, prof)
    v = _cell_solution(ex1_model, corr.D.times, xs)
    np.testing.assert_allclose(v[0], 0.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v[-1], 0.0, rtol=0, atol=1e-9)
    expect_D = -np.cos(2 * np.pi * corr.D.times) / np.pi
    np.testing.assert_allclose(corr.D.values, expect_D, rtol=0, atol=1e-8)
    np.testing.assert_allclose(corr.E.values, 0.0, rtol=0, atol=1e-10)
    assert corr.kappa_bar == pytest.approx(-1.0)
    assert abs(corr.D.mean()) < 1e-12


def test_corrector_oscillating_pressure(ex2_model):
    xs = np.linspace(-2.0, 2.0, 401)
    prof = fs.limit_profile(ex2_model, xs)
    corr = fs.corrector(ex2_model, prof)
    np.testing.assert_allclose(corr.D.values, 0.0, rtol=0, atol=1e-10)
    expect_E = -0.9 * np.sin(2 * np.pi * corr.D.times) / np.pi
    np.testing.assert_allclose(corr.E.values, expect_E, rtol=0, atol=1e-8)


def test_moment_expansion_orders(ex1_model):
    xs = np.linspace(-3.0, 3.0, 401)
    prof = fs.limit_profile(ex1_model, xs)
    corr = fs.corrector(ex1_model, prof)
    mu = fs.gaussian_moment_expansion(prof, corr, EPS, 1)
    assert np.abs(mu.values).max() == pytest.approx(EPS / np.pi, rel=1e-6)
    assert mu.mean() == pytest.approx(0.0, abs=1e-10)
    var = fs.gaussian_moment_expansion(prof, corr, EPS, 2)
    np.testing.assert_allclose(var.values, EPS, rtol=1e-9)
    for k in (0, 3, 5):
        with pytest.raises(fs.ConfigError, match="k = 1 or 2"):
            fs.gaussian_moment_expansion(prof, corr, EPS, k)


def test_predict_moments_bundles_the_pieces(ex1_model):
    rep = fs.predict_moments(ex1_model, EPS, domain=(-3.0, 3.0))
    assert rep.rho_mean == pytest.approx(0.5 - EPS)
    assert "omitted" in rep.notes
    assert np.abs(rep.mu.values).max() == pytest.approx(EPS / np.pi, rel=1e-6)


def test_predicted_moments_against_the_exact_example1(ex1_model):
    # the exact orbit of a = r - g (x - c sin bt)^2 at sigma = eps^2 is a
    # Gaussian of variance eps / sqrt(g) and mean c k (k sin bt - b cos bt) /
    # (k^2 + b^2), k = 2 sqrt(g) eps, with -lambda = r - sqrt(g) eps - g c^2
    # b^2 / (2 (k^2 + b^2)); here r = g = c = 1 and b = 2 pi
    r, g, c, b = 1.0, 1.0, 1.0, 2.0 * np.pi
    errors = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        k = 2.0 * np.sqrt(g) * eps
        rep = fs.predict_moments(ex1_model, eps, domain=(-4.0, 4.0))
        t = rep.mu.times
        mu = c * k * (k * np.sin(b * t) - b * np.cos(b * t)) / (k * k + b * b)
        errors.append(np.abs(rep.mu.values - mu).max())
        np.testing.assert_allclose(rep.sigma2.values, eps / np.sqrt(g), rtol=1e-13, atol=0.0)
        # rho_mean = abar(x_m) - eps A omits the lag of the mean behind the optimum
        minus_lam = r - np.sqrt(g) * eps - g * c * c * b * b / (2.0 * (k * k + b * b))
        lag = g * c * c * k * k / (2.0 * (k * k + b * b))
        assert abs(minus_lam - rep.rho_mean - lag) < 1e-12
    # the mean is off by O(eps^2): 4.04e-3, 1.01e-3, 2.53e-4 and 6.33e-5
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert ((3.9 <= ratios) & (ratios <= 4.1)).all(), ratios


def test_a_tabulated_rate_predicts_the_variance_as_its_closed_form(wide_grid, ex2_model,
                                                                   ex2_orbit):
    # example2's rate at 256 times x 161 trait nodes on [-4, 4] (spacing
    # 0.05); both sup relative errors are 0.102 % on the nx = 800, 2048-step
    # grid. A stencil step below the node spacing reads the interpolant's
    # kinks: 10.0 % at a step of 1e-2 (1 + |x_m|)
    t_nodes = np.arange(256) / 256.0
    x_nodes = np.linspace(-4.0, 4.0, 161)
    table = fs.make_tabulated(1.0, t_nodes, x_nodes,
                              fs.rate_table(ex2_model, t_nodes, x_nodes))

    def sup_rel_err(model, record):
        measured = fs.measure_moments(record).sigma2
        predicted = fs.predict_moments(model, EPS, domain=(-4.0, 4.0), nt=2048).sigma2
        return np.abs(predicted(measured.times) / measured.values - 1.0).max()

    analytic = sup_rel_err(ex2_model, ex2_orbit)
    assert analytic < 2e-3
    assert sup_rel_err(table, fs.find_periodic_orbit(wide_grid, table)) < 2.0 * analytic


def test_measured_moments_match_prediction(ex1_orbit):
    rep = fs.measure_moments(ex1_orbit)
    assert rep.notes == ""  # no caveat: the moments are measured, not predicted
    assert rep.rho_mean == pytest.approx(0.45, abs=2e-3)
    assert np.abs(rep.mu.values).max() == pytest.approx(EPS / np.pi, rel=0.1)
    assert rep.sigma2.mean() == pytest.approx(EPS, rel=0.05)


def test_measured_moments_allocate_no_table(ex1_orbit):
    # two matrix-vector products over the 2049 x 800 profile table (13 MiB):
    # no temporary of its size
    tracemalloc.start()
    try:
        fs.measure_moments(ex1_orbit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(400, 800), steps=st.integers(8, 64),
       centre=st.floats(1.2, 1.6), spread=st.floats(1.5, 5.0),
       drift=st.floats(-10.0, 10.0))
def test_measured_moments_match_the_two_pass_formula(nx, steps, centre, spread,
                                                     drift):
    # narrow off-centre Gaussians, a few nodes wide, whose mean moves up to 10
    # widths away from that of snapshot 0: the shifted one-pass variance
    # keeps the accuracy of the two-pass <(x - mu_k)^2>
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=nx, steps_per_period=steps,
                             sigma=0.01)
    width = spread * grid.dx
    times = np.linspace(0.0, 1.0, steps + 1)
    means = centre + drift * width * np.sin(2.0 * np.pi * times)
    p = np.exp(-0.5 * ((grid.x - means[:, None]) / width) ** 2)
    pair = FloquetPair(lam=-1.0, period=1.0, p_snapshots=p, times=times,
                       iterations=0, grid=grid)
    rho = fs.PeriodicScalarSignal(period=1.0, times=times, values=np.ones(steps + 1))
    rep = fs.measure_moments(OrbitRecord(pair=pair, rho=rho))
    mu = pair.average(grid.x)
    var = pair.average((grid.x - mu[:, None]) ** 2)
    np.testing.assert_allclose(rep.mu.values, mu, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.sigma2.values, var, rtol=1e-12, atol=0.0)


def test_mean_q_balances_mean_size(ex1_orbit, ex1_model):
    # over one period of the orbit, log rho returns to itself, so the mean
    # of the population growth rate Q equals the mean size
    q = fs.effective_signals(ex1_orbit.pair, ex1_model)
    assert q.mean() == pytest.approx(ex1_orbit.rho.mean(), abs=2e-4)


def test_stationary_constant_env():
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    rho_c, n_c = fs.stationary_constant_env(grid, model)
    assert rho_c == pytest.approx(1.0 - 0.1, abs=2e-3)
    assert fs.total_mass(grid, n_c) == pytest.approx(rho_c, rel=1e-10)


def test_stationary_direct_solve_matches_krylov(ex2_model):
    # the tridiagonal solve of one step against the Krylov eigen-solve of the
    # period map of the same frozen model at the same dt, started from a
    # Gaussian so that it does not lean on the direct solve
    frozen = fs.make_custom(1.0, lambda t, x: ex2_model.rate(0.5, x))
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=512,
                             sigma=EPS * EPS)
    rho_c, n_c = fs.stationary_constant_env(grid, frozen)
    pair = fs.principal_eigenpair(grid, frozen, tol=1e-13,
                                  guess=np.exp(-grid.x ** 2))
    assert rho_c == pytest.approx(-pair.lam, rel=1e-12, abs=0)
    p0 = pair.p_snapshots[0]
    gap = np.abs(n_c / rho_c - p0 / fs.total_mass(grid, p0)).max()
    assert gap < 1e-9


def test_fitness_comparison_reads_few_rates():
    # the frozen side takes one rate row; no frozen model steps through time
    cfg = cli_io.resolve_config(cli_io.RunConfig(experiment="example2"))
    model = cli_io.build_model(cfg.model, cfg.grid)
    grid = cli_io.build_grid(cfg)
    calls = []

    def counted(t, x):
        calls.append(t)
        return model.rate(t, x)

    fs.fitness_comparison(grid, dataclasses.replace(model, rate=counted))
    assert len(calls) < 300


def test_stationary_rejects_time_dependent(ex1_model):
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=200, steps_per_period=512,
                             sigma=0.0025)
    with pytest.raises(fs.ConfigError):
        fs.stationary_constant_env(grid, ex1_model)


def test_stationary_detects_extinction():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=200, steps_per_period=512,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: -0.5 - np.asarray(x) ** 2)
    with pytest.raises(fs.ExtinctionError):
        fs.stationary_constant_env(grid, model)


def test_stationary_detects_nonconfining_domain():
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=200, steps_per_period=512,
                             sigma=0.01)
    model = fs.make_custom(1.0,
                           lambda t, x: np.full_like(np.asarray(x, float), 1.0))
    with pytest.raises(fs.NumericalError, match="does not confine"):
        fs.stationary_constant_env(grid, model)


def test_default_t_star_takes_the_earliest_of_tied_times(ex1_model, ex2_model):
    # example1's curvature at x_m is -2g at every t: the analytic model and
    # its 161- and 801-node tables tie at all 2048 times, up to roundoff
    # that differs between them, and take the first
    t_nodes = np.arange(256) / 256.0
    models = [ex1_model] + [
        fs.make_tabulated(1.0, t_nodes, x_nodes, fs.rate_table(ex1_model, t_nodes, x_nodes))
        for x_nodes in (np.linspace(-4.0, 4.0, 161), np.linspace(-4.0, 4.0, 801))]
    stars = [_default_t_star(m, fs.averaged_optimum(m, (-4.0, 4.0))) for m in models]
    assert stars == [0.0] * 3
    # example2's weakest selection, g = 0.2 at t = 1/2, is no tie
    assert _default_t_star(ex2_model, fs.averaged_optimum(ex2_model, (-4.0, 4.0))) == 0.5


def test_fitness_comparison_degenerate_for_static_pressure():
    # constant pressure: freezing changes nothing, both sides must agree
    model = fs.make_oscillating_pressure(1.0, lambda t: 2.0)
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=300, steps_per_period=512,
                             sigma=EPS ** 2)
    cmp = fs.fitness_comparison(grid, model)
    assert cmp.q_star == pytest.approx(cmp.q_mean, abs=1e-8)
    assert cmp.frozen_fitness == pytest.approx(cmp.q_mean, abs=2e-3)
    assert cmp.frozen_rho == pytest.approx(cmp.rho_mean_periodic, abs=2e-3)
    assert cmp.sigma2_frozen == pytest.approx(cmp.sigma2_periodic_mean, rel=0.02)
