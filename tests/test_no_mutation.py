import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluctsel as fs
from fluctsel.rho_ode import _log_step_integral


def _grid(steps=1000, nx=600):
    return fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=nx, steps_per_period=steps,
                             sigma=0.0)


def test_exponent_matches_time_independent_rate():
    # a(t, x) = a(x): the growth exponent is exactly t * a(x)
    grid = _grid()
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    n0 = np.exp(-grid.x ** 2)
    state, (times, _), _ = fs.simulate_sigma0(grid, model, n0, 2.0)
    np.testing.assert_allclose(state.log_factors, 2.0 * (1.0 - grid.x ** 2),
                               rtol=0, atol=1e-10)
    assert times[-1] == pytest.approx(2.0)


def test_each_rate_block_is_one_rate_call(ex1_model):
    # a block of steps takes its start, midpoint and end times in one rate
    # call of at most 2 RATE_BLOCK elements; one pass of blocks sums L_T,
    # one makes the phase rows
    grid = _grid(steps=200, nx=800)
    columns = []

    def rate(t, x):
        columns.append(np.shape(t))
        return ex1_model.rate(t, x)

    model = fs.EnvironmentModel(ex1_model.period, rate)
    fs.simulate_sigma0(grid, model, np.exp(-grid.x ** 2), 3.0)
    steps = [(n - 1) // 2 for n, _ in columns]
    assert columns == [(2 * k + 1, 1) for k in steps]
    assert sum(steps) == 2 * 200
    assert len(columns) == 2 * -(-200 // max(steps)) == 22
    assert max(steps) * 2 + 1 <= 2 * fs.env_models.RATE_BLOCK // grid.nx


def test_mass_coupling_closes_on_logistic_ode(ex1_model):
    # the population-mean rate int n a dx / rho of the step-by-step loop
    # drives a scalar logistic equation whose solution must reproduce the
    # size of the blocked integrator
    grid = _grid(steps=5000)
    n0 = np.exp(-((grid.x - 0.2) ** 2) / 0.08)
    _, (times, rho), _ = fs.simulate_sigma0(grid, ex1_model, n0, 2.0)
    q_eff = _reference_sigma0(grid, ex1_model, n0, 2.0)[3]
    q = np.concatenate([q_eff, q_eff[1:]])
    span = 2.0 * times[-1]
    sig = fs.PeriodicScalarSignal(span, np.linspace(0.0, span, len(q)), q)
    # the grid's step: sig's period span = 4 holds 4 periods of 5000 steps
    t2, rho2 = fs.integrate_logistic(sig, rho[0], 2.0, steps_per_period=20000)
    assert np.abs(rho2 - rho).max() < 1e-6


def test_density_concentrates_at_averaged_optimum(ex1_model):
    grid = _grid()
    n0 = np.ones(grid.nx)
    state, (times, rho), diag = fs.simulate_sigma0(grid, ex1_model, n0, 60.0)
    dens = fs.reconstruct_density(state)
    assert grid.x[np.argmax(dens)] == pytest.approx(0.0, abs=2 * grid.dx)
    metrics = fs.concentration_metrics(grid, state, radius=0.5)
    assert metrics.mass_outside < 1e-2
    assert abs(metrics.mean) < 0.05
    assert not diag["extinct"]


def test_variance_decays_like_inverse_time(ex1_model):
    # concentration rate: variance of exp(-g t x^2) is 1/(2 g t)
    grid = _grid()
    n0 = np.ones(grid.nx)
    for t_end in (20.0, 40.0):
        state, _, _ = fs.simulate_sigma0(grid, ex1_model, n0, t_end)
        got = fs.concentration_metrics(grid, state, radius=1.0).variance
        assert got == pytest.approx(1.0 / (2.0 * t_end), rel=0.05)


def test_gaussian_mass_outside_three_sigma():
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=4000, steps_per_period=1000,
                             sigma=0.0)
    w = 0.25
    dens = np.exp(-grid.x ** 2 / (2 * w * w))
    got = fs.concentration_metrics(grid, dens, radius=3 * w).mass_outside
    assert got == pytest.approx(0.0026998, abs=2e-4)


def test_metrics_reject_zero_density():
    grid = _grid(nx=100)
    with pytest.raises(fs.NumericalError):
        fs.concentration_metrics(grid, np.zeros(100), radius=1.0)


def test_simulate_rejects_bad_start():
    grid = _grid(nx=100)
    with pytest.raises(fs.NumericalError):
        fs.simulate_sigma0(grid, fs.make_custom(1.0, lambda t, x: 0 * x),
                           -np.ones(100), 1.0)
    with pytest.raises(fs.NumericalError):
        fs.simulate_sigma0(grid, fs.make_custom(1.0, lambda t, x: 0 * x),
                           np.zeros(100), 1.0)


def test_simulate_rejects_a_size_beyond_the_double_range():
    grid = _grid(nx=100)
    flat = fs.make_custom(1.0, lambda t, x: 0 * x)
    # a start whose size dx * sum(n0), about 5.9e308, is past the range
    with pytest.raises(fs.NumericalError, match="double range"):
        fs.simulate_sigma0(grid, flat, np.full(100, 1e308), 1.0)
    for bad in (np.nan, np.inf):
        n0 = np.ones(100)
        n0[7] = bad
        with pytest.raises(fs.NumericalError, match="non-finite"):
            fs.simulate_sigma0(grid, flat, n0, 1.0)
    # a representable size of about 5.9e307, though exp(max log n0) * sum
    # is not; exp(log rho), log rho ~ 708, keeps about 708 eps relative
    _, (_, rho), _ = fs.simulate_sigma0(grid, flat, np.full(100, 1e307), 1.0)
    assert np.isfinite(rho).all()
    assert rho[0] == pytest.approx(grid.dx * 100 * 1e307, rel=1e-12)
    # a huge start under a rate of 5 relaxes to rho = M / Y, about
    # 5 / (1 - e^-5t) once dx * sum(n0) (e^5t - 1) / 5 >> 1
    growing = fs.make_custom(1.0, lambda t, x: 5.0 + 0 * x)
    _, (times, rho), _ = fs.simulate_sigma0(grid, growing, np.full(100, 1e305), 2.0)
    assert np.isfinite(rho).all()
    assert rho[-1] == pytest.approx(5.0 / (1.0 - np.exp(-10.0)), rel=1e-9)
    assert np.abs(rho[times >= 0.5] - 5.0).max() < 0.5


@pytest.mark.parametrize("rate", [
    lambda t, x: np.where(np.asarray(x) > 0.0, np.nan, 1.0) + 0 * t,
    lambda t, x: np.full(np.shape(x), np.nan) + 0 * t,
    lambda t, x: np.full(np.shape(x), 1e308) + 0 * t,
], ids=["nan-on-half", "nan", "overflow"])
def test_a_rate_that_is_not_finite_raises_numerical_error(rate):
    # over three periods, so the period rows are built from a NaN or
    # infinite L_T, which leaves no weight in them live
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=64, steps_per_period=10,
                             sigma=0.0)
    with np.errstate(all="ignore"), pytest.raises(fs.NumericalError):
        fs.simulate_sigma0(grid, fs.make_custom(1.0, rate), np.ones(64), 3.0)


def test_a_step_integral_beyond_the_double_range_raises():
    # a = 1e5 on the first 1 % of each period, 4 steps per period: the first
    # step's midpoint mass is e^4167 times the geometric mean of its end
    # masses, so its integral overflows, and the sizes after it would read 0
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=64, steps_per_period=4, sigma=0.0)
    model = fs.make_custom(1.0, lambda t, x: np.where(t % 1.0 < 0.01, 1e5, 0.0) + 0 * x)
    with pytest.raises(fs.NumericalError, match="step integral of the mass is not finite"):
        fs.simulate_sigma0(grid, model, np.ones(64), 3.0)


def test_extinction_flag_under_negative_rate():
    grid = _grid(nx=200)
    model = fs.make_custom(1.0, lambda t, x: -2.0 + 0 * np.asarray(x))
    n0 = np.exp(-grid.x ** 2)
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, 20.0)
    assert diag["extinct"]
    assert rho[-1] < 1e-12


def test_reconstruction_supports_vanished_traits():
    grid = _grid(nx=100)
    n0 = np.zeros(100)
    n0[40:60] = 1.0
    model = fs.make_custom(1.0, lambda t, x: 0.5 + 0 * np.asarray(x))
    state, _, _ = fs.simulate_sigma0(grid, model, n0, 1.0)
    dens = fs.reconstruct_density(state)
    assert (dens[:40] == 0.0).all()
    assert (dens[40:60] > 0.0).all()


def _reference_sigma0(grid, model, n0, t_end):
    # the one-step-at-a-time loop the blocked integrator must reproduce:
    # Y = exp(int rho) over the linear masses M, rho = M / Y, each step's
    # integral of M by rho_ode._log_step_integral (tested on its own there).
    # Y - 1 is carried, so that log Y = log1p(Y - 1) keeps its relative
    # accuracy while Y stays near 1
    x, dx, dt = grid.x, grid.dx, model.period / grid.steps_per_period
    nsteps = max(1, int(round(t_end / dt)))
    times = dt * np.arange(nsteps + 1)
    with np.errstate(divide="ignore"):
        log_n0 = np.log(np.asarray(n0, dtype=float))

    def mass(w):
        m = w.max()
        if not np.isfinite(m):
            return 0.0
        return dx * float(np.exp(m) * np.sum(np.exp(w - m)))

    L = np.zeros(grid.nx)
    y_minus_1 = 0.0
    rho = np.empty(nsteps + 1)
    q_eff = np.empty(nsteps + 1)
    m_right = rho[0] = mass(log_n0)
    extinct = rho[0] < 1e-12
    a_right = np.asarray(model.rate(0.0, x), dtype=float)
    weights = np.exp(log_n0 - log_n0.max())
    q_eff[0] = float(weights @ a_right) / float(weights.sum())
    for k in range(nsteps):
        t = times[k]
        a_left, m_left = a_right, m_right
        a_mid = np.asarray(model.rate(t + 0.5 * dt, x), dtype=float)
        a_right = np.asarray(model.rate(t + dt, x), dtype=float)
        m_mid = mass(log_n0 + L + 0.25 * dt * (a_left + a_mid))
        L = L + dt / 6.0 * (a_left + 4.0 * a_mid + a_right)
        m_right = mass(log_n0 + L)
        with np.errstate(divide="ignore"):
            log_masses = np.log([[m_left], [m_mid], [m_right]])
        y_minus_1 += float(np.exp(_log_step_integral(dt, *log_masses))[0])
        rho[k + 1] = m_right / (1.0 + y_minus_1)
        weights = np.exp(log_n0 + L - (log_n0 + L).max())
        q_eff[k + 1] = float(weights @ a_right) / float(weights.sum())
        if rho[k + 1] < 1e-12:
            extinct = True
    return L, np.log1p(y_minus_1), rho, q_eff, extinct


@pytest.mark.parametrize("r", [1.0, -30.0])
def test_blocked_steps_match_one_step_at_a_time(r):
    # 137 steps: one whole period (S = 100 steps at dt = 0.01) and 37 phase
    # steps; the density is zero on some traits and so narrow that exp
    # underflows on most others
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=64, steps_per_period=100,
                             sigma=0.0)
    model = fs.make_oscillating_optimum(r, 1.0, 1.0, 2.0 * np.pi)
    n0 = np.exp(-grid.x ** 2 / (2 * 0.02 ** 2))
    n0[:10] = 0.0
    n0[40:45] = 0.0
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, 1.37)
    L, R, rho_ref, _, extinct = _reference_sigma0(grid, model, n0, 1.37)
    assert len(times) == 138
    np.testing.assert_allclose(rho, rho_ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(state.log_factors, L, rtol=1e-13, atol=0)
    assert state.rho_integral == pytest.approx(R, rel=1e-13, abs=0)
    assert diag["extinct"] == extinct == (r < 0)


@pytest.mark.parametrize("r", [1.0, -30.0])
@pytest.mark.parametrize("t_end", [0.37, 3.37])
def test_period_boundaries_match_one_step_at_a_time(t_end, r):
    # less than one period, and three whole periods plus a partial one
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=64, steps_per_period=100,
                             sigma=0.0)
    model = fs.make_oscillating_optimum(r, 1.0, 1.0, 2.0 * np.pi)
    n0 = np.exp(-grid.x ** 2 / (2 * 0.02 ** 2))
    n0[:10] = 0.0
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, t_end)
    L, R, rho_ref, _, extinct = _reference_sigma0(grid, model, n0, t_end)
    assert len(times) == round(100 * t_end) + 1
    np.testing.assert_allclose(rho, rho_ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(state.log_factors, L, rtol=1e-13, atol=0)
    assert state.rho_integral == pytest.approx(R, rel=1e-13, abs=0)
    assert diag["extinct"] == extinct


def test_underflowed_products_are_recomputed():
    # the 400 sin(2 pi t) x term puts the maxima of the phase rows near
    # x = +-6, hundreds below the density's peak at x = 0 in the log
    # weights, so their products with the period rows underflow
    grid = fs.SimulationGrid(x_lo=-6.0, x_hi=6.0, nx=601, steps_per_period=100,
                             sigma=0.0)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2
                           + 400.0 * np.sin(2.0 * np.pi * t) * np.asarray(x))
    n0 = np.exp(-grid.x ** 2 / (2 * 0.02 ** 2))
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, 1.37)
    L, R, rho_ref, _, extinct = _reference_sigma0(grid, model, n0, 1.37)
    np.testing.assert_allclose(rho, rho_ref, rtol=1e-13, atol=0)
    assert state.rho_integral == pytest.approx(R, rel=1e-13, abs=0)


@pytest.mark.parametrize("r", [12.0, -30.0])
def test_period_blocks_match_one_step_at_a_time(r):
    # nx = 4100 puts 3 period rows (and 3 phase rows) in a block of about
    # RATE_BLOCK elements: 8 periods of 20 steps fill three period blocks,
    # the last one partly, and the last period stops after 7 of its steps.
    # With r = 12 or -30 the exponent has no zero on the grid, where a
    # relative bound would compare roundoff with 0
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=4100, steps_per_period=20,
                             sigma=0.0)
    model = fs.make_oscillating_optimum(r, 1.0, 1.0, 2.0 * np.pi)
    n0 = np.exp(-grid.x ** 2 / (2 * 0.02 ** 2))
    n0[:700] = 0.0
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, 7.35)
    L, R, rho_ref, _, extinct = _reference_sigma0(grid, model, n0, 7.35)
    assert len(times) == 7 * 20 + 7 + 1
    np.testing.assert_allclose(rho, rho_ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(state.log_factors, L, rtol=1e-13, atol=0)
    assert state.rho_integral == pytest.approx(R, rel=1e-13, abs=0)
    assert diag["extinct"] == extinct == (r < 0)


def test_underflowed_products_are_recomputed_in_later_period_blocks():
    # test_underflowed_products_are_recomputed's model over 5 periods on
    # nx = 4100 traits, 3 period rows to a block: the products of mid-period
    # steps underflow in every period, so also in the second period block
    # (periods 3 and 4)
    grid = fs.SimulationGrid(x_lo=-6.0, x_hi=6.0, nx=4100, steps_per_period=20,
                             sigma=0.0)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2
                           + 400.0 * np.sin(2.0 * np.pi * t) * np.asarray(x))
    n0 = np.exp(-grid.x ** 2 / (2 * 0.02 ** 2))
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, 4.35)
    L, R, rho_ref, _, extinct = _reference_sigma0(grid, model, n0, 4.35)
    np.testing.assert_allclose(rho, rho_ref, rtol=1e-13, atol=0)
    assert state.rho_integral == pytest.approx(R, rel=1e-13, abs=0)


def test_live_windows_follow_the_density_across_period_blocks():
    # a narrow Gaussian at x = -1.5 on a floor of 1e-190 of its peak, with
    # n0 = 0 on (-1.45, -0.5). The averaged optimum is x = 0, and the floor
    # there gains 36 per period on the Gaussian, so it is set to 0 in the
    # first period block (periods 0-2) and live from period 3 on: the
    # window of that block ends at x = -1.45, the later ones near x = 1.
    # Traits right of x = -1.4 hold 2.6e-12 of the mass at the start of the
    # last period and 4.4 % at its end, far above the tolerance. 3 period
    # rows to a block, as in test_period_blocks_match_one_step_at_a_time
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=4100, steps_per_period=20,
                             sigma=0.0)
    model = fs.make_oscillating_optimum(12.0, 4.0, 1.0, 0.5 * np.pi)
    n0 = np.exp(-(grid.x + 1.5) ** 2 / (2 * 0.02 ** 2)) + 1e-190
    n0[(grid.x > -1.45) & (grid.x < -0.5)] = 0.0
    t_end = 12.35 * model.period
    state, (times, rho), diag = fs.simulate_sigma0(grid, model, n0, t_end)
    L, R, rho_ref, _, extinct = _reference_sigma0(grid, model, n0, t_end)
    assert len(times) == 12 * 20 + 7 + 1
    np.testing.assert_allclose(rho, rho_ref, rtol=1e-13, atol=0)
    assert state.rho_integral == pytest.approx(R, rel=1e-13, abs=0)
    assert diag["extinct"] == extinct


@pytest.mark.parametrize("steps", [200, 37])
def test_two_periods_give_twice_the_one_period_exponent(ex1_model, steps):
    # after two periods the exponent is L_T + C_S, L_T from the pre-pass
    # sums and C_S from the phase loop's cumsum: the two agree to the bit
    # only if both add the increments in the same order. The c03 grid
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=steps,
                             sigma=0.0)
    n0 = np.exp(-grid.x ** 2 / (2 * 0.05 ** 2))
    one = fs.simulate_sigma0(grid, ex1_model, n0, ex1_model.period)[0]
    two = fs.simulate_sigma0(grid, ex1_model, n0, 2.0 * ex1_model.period)[0]
    np.testing.assert_array_equal(two.log_factors, 2.0 * one.log_factors)


def test_size_converges_at_third_order(ex1_model):
    # Y from masses exact at the step ends, and at the half steps up to the
    # trapezoid half-step exponent: the error of rho falls about 8x per
    # halving of dt
    n0 = np.exp(-(np.linspace(-3.0, 3.0, 202)[1:-1] - 0.3) ** 2 / 0.08)

    def rho(steps):
        grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=200, steps_per_period=steps,
                                 sigma=0.0)
        return fs.simulate_sigma0(grid, ex1_model, n0, 2.0)[1][1]

    fine = rho(1600)
    errors = [np.abs(rho(s) - fine[::1600 // s]).max() for s in (25, 50, 100, 200)]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert (ratios > 7.0).all() and (ratios < 12.0).all()
    assert errors[-1] < 1e-8


def test_memory_stays_bounded(ex1_model):
    # the c03 inputs: 200 periods of 200 steps on 800 traits. The period
    # rows of all periods are held, each block of 20 over its live window
    # (194 to 266 of the 800 traits, 0.34 MiB in all); the phase rows, a
    # table of 1.2 MiB, are made a block at a time, and the peak of traced
    # allocations stays below 4 MiB (2.4 MiB measured)
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=800, steps_per_period=200,
                             sigma=0.0)
    n0 = np.exp(-grid.x ** 2 / (2 * 0.05 ** 2))
    tracemalloc.start()
    try:
        fs.simulate_sigma0(grid, ex1_model, n0, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _size_flows(rate, period, steps, t_end, rho0):
    """(times, rho) of integrate_logistic and of simulate_sigma0 on a rate that
    does not depend on the trait, which carries the sigma = 0 size by the same
    logistic law, each from the size rho0."""
    q = fs.PeriodicScalarSignal.from_array_callable(period, rate)
    grid = fs.SimulationGrid(x_lo=-1.0, x_hi=1.0, nx=16, steps_per_period=steps, sigma=0.0)
    model = fs.make_custom(period, lambda t, x: rate(np.asarray(t)) + 0.0 * np.asarray(x))
    n0 = np.full(grid.nx, rho0 / (grid.nx * grid.dx))
    return (fs.integrate_logistic(q, rho0, t_end, steps),
            fs.simulate_sigma0(grid, model, n0, t_end)[1])


def test_a_constant_rate_of_2000_is_the_size_at_16_steps():
    # dt * q = 125: a Simpson step integral of M = e^{qt} capped rho at 6 / dt
    # = 96; the exponentially fitted one is exact for a constant rate
    for times, rho in _size_flows(lambda ts: np.full_like(ts, 2000.0), 1.0, 16, 3.0, 1.0):
        assert len(times) == 49
        assert rho[-1] == pytest.approx(2000.0, rel=1e-11, abs=0.0)


def test_a_bump_to_2000_peaks_at_the_orbit_peak_at_256_steps():
    # q = 1 + 2000 sin^2(pi t), whose orbit peaks at 2000.995 (on a 1e5-point
    # grid); at 256 steps the last period peaks at 2001.012 and 2001.030, where
    # the 6 / dt cap held both to 1420.7
    rate = lambda ts: 1.0 + 2000.0 * np.sin(np.pi * ts) ** 2
    for times, rho in _size_flows(rate, 1.0, 256, 3.0, 1.0):
        assert rho[times >= 2.0].max() == pytest.approx(2000.995, rel=1e-4, abs=0.0)


# dt * max q from 0.1 to 100: where q varies across a step of large dt * q
# the size follows the step's mean rate more than its end value, off by up to
# dt max|q'| / (2 min q) relative; with the parabola's fit of q that reached
# 0.86 dt max|q'| / min q in a sweep of 3,000 draws (S = 4, dt * max q = 88),
# and the bound is twice that scale. The transient decays like e^{-I} per
# period: ceil(40 / I) periods of burn-in leave 100 e^{-40} of a start within
# 100x of the mean rate, and the last period is compared.
@settings(max_examples=40, deadline=None)
@given(period=st.floats(0.5, 2.0), swing=st.floats(0.0, 0.9),
       phase=st.floats(-np.pi, np.pi), steps=st.integers(4, 64),
       log10_dt_q=st.floats(-1.0, 2.0), log10_start=st.floats(-2.0, 2.0))
@example(period=1.0, swing=0.0, phase=0.0, steps=4, log10_dt_q=2.0, log10_start=0.0)
@example(period=1.0, swing=0.34, phase=0.0, steps=4, log10_dt_q=np.log10(87.5),
         log10_start=0.0)
def test_both_flows_follow_the_orbit_up_to_a_dt_q_of_100(period, swing, phase, steps,
                                                        log10_dt_q, log10_start):
    dt = period / steps
    c = 10.0 ** log10_dt_q / (dt * (1.0 + swing))  # q = c (1 + swing sin(...))
    rate = lambda ts: c * (1.0 + swing * np.sin(2.0 * np.pi * ts / period + phase))
    periods = int(np.ceil(40.0 / (c * period))) + 1
    orbit = fs.periodic_rho_closed_form(fs.PeriodicScalarSignal.from_array_callable(period, rate))
    bound = 2.0 * dt * (2.0 * np.pi / period) * swing / (1.0 - swing) + 1e-10
    for times, rho in _size_flows(rate, period, steps, periods * period,
                                  c * 10.0 ** log10_start):
        assert np.isfinite(rho).all() and rho.min() > 0.0
        last = times >= (periods - 1) * period - 0.5 * dt
        assert np.abs(rho[last] / orbit(times[last]) - 1.0).max() <= bound
