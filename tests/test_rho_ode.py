import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fluctsel as fs
from fluctsel import rho_ode
from fluctsel.quadrature import cumulative_simpson
from fluctsel.rho_ode import FINE_INTERVALS, _log_step_integral


def _ex1_q():
    # per-capita rate along the optimal trait of the oscillating-optimum model
    return fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 0.5 + np.sin(2 * np.pi * ts))


def test_closed_form_satisfies_ode():
    # start a high-order integrator exactly on the orbit: it must stay there
    q = _ex1_q()
    orbit = fs.periodic_rho_closed_form(q)
    times, rho = fs.integrate_logistic(q, orbit(0.0), 1.0, steps_per_period=2048)
    assert np.abs(rho - orbit(times)).max() < 1e-7


def test_orbit_is_periodic_and_positive():
    orbit = fs.periodic_rho_closed_form(_ex1_q())
    assert orbit.values.min() > 0.0
    ts = np.linspace(0.0, 1.0, 37)
    np.testing.assert_allclose(orbit(ts + 1.0), orbit(ts),
                               rtol=0, atol=1e-12)


def test_orbit_mean_equals_rate_mean():
    # dividing the ODE by rho and averaging: mean(rho) = mean(q)
    q = _ex1_q()
    orbit = fs.periodic_rho_closed_form(q)
    assert orbit.mean() == pytest.approx(q.mean(), abs=1e-9)


def test_constant_rate_collapses_to_logistic_equilibrium():
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: np.full_like(ts, 0.7))
    orbit = fs.periodic_rho_closed_form(q)
    np.testing.assert_allclose(orbit.values, 0.7, rtol=0, atol=1e-9)


def test_extinction_when_mean_rate_nonpositive():
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: -0.1 + np.sin(2 * np.pi * ts))
    with pytest.raises(fs.ExtinctionError, match="extinction regime"):
        fs.periodic_rho_closed_form(q)


@pytest.mark.parametrize("rho0", [0.05, 5.0])
def test_integrator_attracted_to_orbit(rho0):
    # transients contract like exp(-mean(q) t) = exp(-t/2), so run long
    q = _ex1_q()
    orbit = fs.periodic_rho_closed_form(q)
    times, rho = fs.integrate_logistic(q, rho0, 40.0)
    tail = times >= 39.0
    assert np.abs(rho[tail] - orbit(times[tail])).max() < 1e-5


@pytest.mark.parametrize("swing", [-40.0, 40.0])
def test_integrator_survives_harsh_steps(swing):
    # quarter-period steps through a strongly negative or strongly positive
    # stretch; the iterate must stay positive
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 1.0 + swing * (np.sin(np.pi * ts) ** 2))
    times, rho = fs.integrate_logistic(q, 1.0, 2.0, steps_per_period=4)
    assert (rho > 0.0).all()


def test_integrator_rejects_negative_start():
    with pytest.raises(fs.NumericalError):
        fs.integrate_logistic(_ex1_q(), -1.0, 1.0)
    with pytest.raises(fs.ConfigError, match="t_end"):
        fs.integrate_logistic(_ex1_q(), 1.0, -1.0)


@pytest.mark.parametrize("rho0", [np.inf, np.nan])
def test_integrator_rejects_a_start_outside_the_double_range(rho0):
    with pytest.raises(fs.NumericalError, match="not a finite"):
        fs.integrate_logistic(_ex1_q(), rho0, 1.0)


def test_an_array_of_starts_gives_one_row_per_start():
    # one call for several starts: each row is the bits of its own call
    q = _ex1_q()
    starts = np.array([0.0, 0.05, 5.0])
    times, rows = fs.integrate_logistic(q, starts, 3.5, steps_per_period=64)
    assert rows.shape == (3, len(times))
    for start, row in zip(starts, rows):
        assert np.array_equal(row, fs.integrate_logistic(q, start, 3.5, 64)[1])
    with pytest.raises(fs.NumericalError, match="not a finite"):
        fs.integrate_logistic(q, np.array([1.0, np.nan]), 1.0)
    with pytest.raises(fs.NumericalError, match="not a finite"):
        fs.integrate_logistic(q, np.ones((2, 2)), 1.0)


def _reference_phase_maps(q, steps):
    """The step width period / steps and the step maps (log alpha_r, log
    beta_r) of one period from the half-step table: with M = exp(int q) from
    1 at the step's start, every integral of q taken on the parabola through
    q at the step's start, midpoint and end, alpha = 1 / M_end and beta =
    int_0^dt M / M_end, the integral of M by _log_step_integral (tested on
    its own below)."""
    dt = q.period / steps
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float)
    q_start, q_mid, q_end = table[0:-1:2], table[1::2], table[2::2]
    log_mid = dt / 24.0 * (5.0 * q_start + 8.0 * q_mid - q_end)
    log_end = dt / 6.0 * (q_start + 4.0 * q_mid + q_end)
    with np.errstate(over="ignore", invalid="ignore"):
        log_y = _log_step_integral(dt, 0.0, log_mid, log_end)
    return dt, list(zip(-log_end, log_y - log_end))


def _reference_logistic(q, rho0, t_end, steps):
    """integrate_logistic one step at a time, in logs: u = 1 / rho after
    step r of a period is A_r u_p + B_r, where u_p is u at the period's
    start, log A_r the running sum of log alpha with each addition's rounding
    error added back, and log B_r = log A_r + log sum_{j<r} beta_j / A_{j+1},
    the sum by a running logaddexp; rho = 1 / (exp(log A_r + log u_p) + B_r),
    and log u_p goes from period to period by the whole period's map."""
    dt, maps = _reference_phase_maps(q, steps)
    log_A, log_B = [0.0], [-np.inf]
    total, error, running = 0.0, 0.0, None
    for log_alpha, log_beta in maps:
        # Knuth's TwoSum: the rounding error of total + log_alpha
        new = total + log_alpha
        term = new - total
        error += (total - (new - term)) + (log_alpha - term)
        total = new
        log_A.append(total + error)
        x = log_beta - log_A[-1]
        running = x if running is None else np.logaddexp(running, x)
        log_B.append(log_A[-1] + running)
    n = int(round(t_end / dt))
    times = dt * np.arange(n + 1)
    rho = np.empty(n + 1)
    with np.errstate(divide="ignore"):
        log_u = -np.log(rho0)
    for k in range(n + 1):
        r = k % steps
        if r == 0 and k > 0:
            log_u = np.logaddexp(log_A[steps] + log_u, log_B[steps])
        with np.errstate(over="ignore"):  # a size below the double range reads 0
            rho[k] = 1.0 / (np.exp(log_A[r] + log_u) + np.exp(log_B[r]))
    return times, rho


def _rk4_on_rho(q, rho0, t_end, steps):
    """Classical RK4 on rho' = rho (q - rho) itself, reading q from the same
    half-step table (no positivity fallback)."""
    dt = q.period / steps
    n = int(round(t_end / dt))
    table = np.asarray(q(0.5 * dt * np.arange(2 * steps + 1)), dtype=float)
    rho = np.empty(n + 1)
    rho[0] = rho0
    for k in range(n):
        q_start, q_mid, q_end = table[2 * (k % steps):2 * (k % steps) + 3]
        r = rho[k]
        k1 = r * (q_start - r)
        r2 = r + 0.5 * dt * k1
        k2 = r2 * (q_mid - r2)
        r3 = r + 0.5 * dt * k2
        k3 = r3 * (q_mid - r3)
        r4 = r + dt * k3
        k4 = r4 * (q_end - r4)
        rho[k + 1] = r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return dt * np.arange(n + 1), rho


def _outcome(integrate, q, rho0, t_end, steps):
    try:
        return integrate(q, rho0, t_end, steps)
    except fs.NumericalError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(offset=st.floats(-5.0, 5.0), amp=st.floats(0.0, 60.0),
       phase=st.floats(-np.pi, np.pi), period=st.floats(0.2, 3.0),
       steps=st.integers(1, 48), rho0=st.floats(0.0, 10.0),
       periods=st.floats(0.0, 3.0))
def test_integrator_equals_the_step_by_step_reference(offset, amp, phase, period,
                                                      steps, rho0, periods):
    q = fs.PeriodicScalarSignal.from_array_callable(
        period, lambda ts: offset + amp * np.sin(2 * np.pi * ts / period + phase))
    got = _outcome(fs.integrate_logistic, q, rho0, periods * period, steps)
    want = _outcome(_reference_logistic, q, rho0, periods * period, steps)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# Both schemes are fourth order. When dt times each rate of the problem
# (max|q|, rho0 and the angular frequency 2 pi / period of q) is at most 0.05
# they agree within 5e-6 relative over at most 3 periods; the largest gap
# found by a sweep of these inputs is 6.9e-7 (q = -5, rho0 = 5, dt = 0.01,
# nine time units).
@settings(max_examples=60, deadline=None)
@given(offset=st.floats(-5.0, 5.0), amp=st.floats(0.0, 20.0),
       phase=st.floats(-np.pi, np.pi), period=st.floats(0.2, 3.0),
       steps=st.integers(126, 400), rho0=st.floats(1e-3, 10.0),
       periods=st.floats(0.0, 3.0))
def test_integrator_is_close_to_rk4_on_rho_for_small_steps(offset, amp, phase, period,
                                                           steps, rho0, periods):
    dt = period / steps
    assume(dt * max(abs(offset) + amp, rho0, 2 * np.pi / period) <= 0.05)
    q = fs.PeriodicScalarSignal.from_array_callable(
        period, lambda ts: offset + amp * np.sin(2 * np.pi * ts / period + phase))
    times, rho = fs.integrate_logistic(q, rho0, periods * period, steps)
    want_times, want = _rk4_on_rho(q, rho0, periods * period, steps)
    assert np.array_equal(times, want_times)
    np.testing.assert_allclose(rho, want, rtol=5e-6, atol=0.0)


# a swing of 2000 makes exp(-int q) over a period underflow to 0
@pytest.mark.parametrize("swing, steps", [(0.0, 1024), (40.0, 4), (-40.0, 4), (2000.0, 16)])
def test_a_start_of_zero_stays_exactly_zero(swing, steps):
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 1.0 + swing * np.sin(np.pi * ts) ** 2)
    times, rho = fs.integrate_logistic(q, 0.0, 3.0, steps)
    assert len(times) == len(rho) > 3 and not rho.any()


@pytest.mark.parametrize("swing", [-40.0, 0.0, 40.0])
@pytest.mark.parametrize("rho0", [1e-6, 1.0, 1e3])
def test_the_size_never_exceeds_one_over_the_least_beta(swing, rho0):
    # u after each step is at least that step's beta, whatever the start;
    # the three roundings of rho_p / (A_r + B_r rho_p) may add an ulp or two
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 1.0 + swing * np.sin(np.pi * ts) ** 2)
    _, maps = _reference_phase_maps(q, 4)
    _, rho = fs.integrate_logistic(q, rho0, 3.0, steps_per_period=4)
    assert (rho[1:] > 0.0).all()
    bound = 1.0 / min(np.exp(log_beta) for _, log_beta in maps)
    assert rho[1:].max() <= bound * (1.0 + 4.0 * np.finfo(float).eps)


def test_a_map_that_is_not_finite_raises_numerical_error():
    # the quarter-period step that ends at t = 0.5 reads a NaN rate
    nan_at_half = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: np.where(ts % 1.0 < 0.5, 1.0, np.nan))
    with pytest.raises(fs.NumericalError, match="map at t = 0.25 is not finite: a NaN rate"):
        fs.integrate_logistic(nan_at_half, 1.0, 2.0, steps_per_period=4)
    # a rate of -1e4 over a quarter period grows u by exp(2500): the maps stay
    # in logs, and the size reads 0 below the double range; a rate of +1e4
    # holds the size at the rate, up to the rounding of logs of up to 2e4
    for rate, want in ((-1e4, 0.0), (1e4, 1e4)):
        steep = fs.PeriodicScalarSignal.from_array_callable(
            1.0, lambda ts: np.full_like(ts, rate))
        _, rho = fs.integrate_logistic(steep, 1.0, 2.0, steps_per_period=4)
        assert np.isfinite(rho).all() and (rho >= 0.0).all()
        assert rho[-1] == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("z", [0.0, 1e-8, 1e-3, 0.3, 0.999, 1.0, 1.001, 3.0, 30.0, 700.0])
@pytest.mark.parametrize("log_gamma", [-3.0, -1e-3, 0.0, 0.4, 2.0])
def test_the_step_integral_is_its_integrand_integrated_by_quad(z, log_gamma):
    # the exponential through the end values of M times the parabola through
    # the ratios 1, gamma, 1, integrated by quad, for z on both sides of the
    # series switch at z = 1 and either end the larger: within 3e-14 relative.
    # 1.2e-14 is found, where M peaks at the step's end at z = 700, and both
    # orders of the ends give the same integral, so that is quad's; against
    # 40-digit values the integral is off by at most 7e-15, down to gamma = e^-30
    quad = pytest.importorskip("scipy.integrate").quad
    gamma = np.exp(log_gamma)
    for log_start, log_end in ((0.0, -z), (-z, 0.0)):
        want, _ = quad(lambda s: np.exp((1.0 - s) * log_start + s * log_end)
                       * (1.0 + (gamma - 1.0) * 4.0 * s * (1.0 - s)),
                       0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        got = _log_step_integral(0.3, np.array([log_start]),
                                 np.array([log_gamma - 0.5 * z]), np.array([log_end]))
        assert got.shape == (1,)
        assert np.exp(got[0]) == pytest.approx(0.3 * want, rel=3e-14, abs=0.0)


def test_signal_from_samples_interpolates():
    vals = np.sin(2 * np.pi * np.linspace(0.0, 1.0, 101)) + 2.0
    sig = fs.PeriodicScalarSignal(1.0, np.linspace(0.0, 1.0, 101), vals)
    assert sig(0.0) == pytest.approx(2.0)
    assert sig(1.25) == pytest.approx(3.0, abs=1e-3)
    assert sig.mean() == pytest.approx(2.0, abs=1e-9)


def test_integrator_reads_q_from_one_period_table():
    # without halving, q is evaluated once per half-step node of one period
    calls = []

    def rate(ts):
        calls.extend(ts)
        return 0.5 + np.sin(2 * np.pi * ts)

    q = fs.PeriodicScalarSignal(period=1.0, times=np.linspace(0.0, 1.0, 3),
                                values=np.zeros(3), fn=rate)
    orbit = fs.periodic_rho_closed_form(_ex1_q())
    times, rho = fs.integrate_logistic(q, orbit(0.0), 5.0, steps_per_period=256)
    assert len(times) == 5 * 256 + 1
    assert len(calls) <= 2 * 256 + 1
    assert np.abs(rho - orbit(times)).max() < 1e-7


def test_array_callable_matches_scalar_callable(ex1_model):
    # one rate_table call per array gives the bits of one rate call per time
    x_m = np.array([0.0])
    scalar = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: np.array([ex1_model.rate(t, x_m)[0] for t in ts]))
    array = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: fs.rate_table(ex1_model, ts, x_m)[:, 0])
    assert np.array_equal(array.values, scalar.values)
    for steps in (1024, 4096):
        ts = 0.5 / steps * np.arange(2 * steps + 1)
        assert np.array_equal(array(ts), scalar(ts))
    assert array(0.3) == scalar(0.3)
    assert isinstance(array(0.3), float)


@settings(max_examples=60, deadline=None)
@given(amp=st.floats(0.1, 10.0),
       phase=st.floats(-np.pi, np.pi, exclude_min=True),
       offset=st.floats(-10.0, 10.0),
       period=st.floats(0.1, 10.0),
       n=st.integers(5, 400))
def test_first_harmonic_recovers_an_exact_sinusoid(amp, phase, offset, period, n):
    times = np.linspace(0.0, period, n)
    signal = fs.PeriodicScalarSignal(
        period, times, offset + amp * np.sin(2.0 * np.pi * times / period + phase))
    got_amp, got_phase, got_offset = signal.first_harmonic()
    assert got_amp == pytest.approx(amp, rel=1e-12, abs=1e-12)
    assert got_offset == pytest.approx(offset, rel=1e-12, abs=1e-12)
    # the phase is defined modulo 2 pi; compare on the circle
    assert abs((got_phase - phase + np.pi) % (2.0 * np.pi) - np.pi) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), period=st.floats(0.1, 10.0), data=st.data())
def test_period_rules_are_exact_on_trigonometric_polynomials(n, period, data):
    # closed samples of sum_j a_j cos(j w t) + b_j sin(j w t), N = n distinct
    # ones: mean() is a_0 for any degree below N, and first_harmonic() gives
    # a_1 and b_1 for any degree up to N - 2 (degree N - 1 aliases onto the
    # first harmonic, degree N onto the mean)
    degree = data.draw(st.integers(1, n - 1))
    a, b = (np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=degree + 1,
                                        max_size=degree + 1))) for _ in range(2))
    times = np.linspace(0.0, period, n + 1)
    wt = 2.0 * np.pi / period * np.arange(degree + 1)[:, None] * times
    signal = fs.PeriodicScalarSignal(period, times, a @ np.cos(wt) + b @ np.sin(wt))
    assert signal.mean() == pytest.approx(a[0], rel=0.0, abs=1e-12)
    if degree <= n - 2:
        amp, phase, offset = signal.first_harmonic()
        # amp sin(w t + phase) = amp sin(phase) cos(w t) + amp cos(phase) sin(w t)
        assert amp * np.sin(phase) == pytest.approx(a[1], rel=0.0, abs=1e-12)
        assert amp * np.cos(phase) == pytest.approx(b[1], rel=0.0, abs=1e-12)
        assert offset == signal.mean()


def _bumpy_rate(period, base, f1, phi1, f2, phi2, height, sharpness):
    # positive: the harmonics have amplitudes f1 * base / 2 and f2 * base / 2
    # with f1, f2 < 1, and the bump is nonnegative
    w = 2.0 * np.pi / period

    def rate(ts):
        return (base * (1.0 + 0.5 * f1 * np.sin(w * ts + phi1)
                        + 0.5 * f2 * np.sin(2.0 * w * ts + phi2))
                + height * np.exp(-sharpness * np.sin(0.5 * w * ts) ** 2))

    return fs.PeriodicScalarSignal.from_array_callable(period, rate)


# The orbit carries the step rule's truncation error on each step of the
# fine grid, none for a constant q, and the rounding of the running sums in
# logs, which grows with the period integral I. These rates keep I <= 10
# (mean q <= 5 over a period of at most 2).
@settings(max_examples=40, deadline=None)
@given(period=st.floats(0.5, 2.0), base=st.floats(0.05, 2.0),
       f1=st.floats(0.0, 0.99), phi1=st.floats(-np.pi, np.pi),
       f2=st.floats(0.0, 0.99), phi2=st.floats(-np.pi, np.pi),
       height=st.floats(0.0, 3.0), sharpness=st.floats(0.0, 50.0))
@example(period=1.0, base=0.2, f1=0.0, phi1=0.0, f2=0.0, phi2=0.0,
         height=3.0, sharpness=50.0)  # 0.2 + 3 exp(-50 sin^2(pi t))
def test_closed_form_orbit_is_a_signal_of_its_formula(period, base, f1, phi1, f2, phi2,
                                                      height, sharpness):
    q = _bumpy_rate(period, base, f1, phi1, f2, phi2, height, sharpness)
    orbit = fs.periodic_rho_closed_form(q)
    # the samples are the closed form at the sample times, bit for bit
    assert np.array_equal(orbit(orbit.times), orbit.values)
    # the mean of the samples is that of the closed form on the fine grid, by
    # scipy's Simpson rule, the reference
    fine, dt = np.linspace(0.0, period, FINE_INTERVALS + 1, retstep=True)
    fine_mean = float(scipy.integrate.simpson(orbit(fine), dx=dt)) / period
    assert orbit.mean() == pytest.approx(fine_mean, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("c, period", [(8.0, 4.0), (8.0, 5.0), (4.0, 6.0),
                                       (20.0, 1.0)])
def test_closed_form_error_is_simpson_truncation(c, period):
    # a constant rate c: the exact orbit is c. The J-formula's Simpson rule
    # on int exp(c s) ds with step h = T / 8192 is off by (c h)^4 / 180
    # relative, and the bound is the J-formula's; the step maps are exact for
    # a constant rate, so the orbit is off by the rounding of the logs only
    q = fs.PeriodicScalarSignal.from_array_callable(
        period, lambda ts: np.full_like(ts, c))
    estimate = (c * period / FINE_INTERVALS) ** 4 / 180.0
    assert estimate >= 1e-13
    err = np.abs(fs.periodic_rho_closed_form(q).values / c - 1.0).max()
    assert err <= 2.0 * estimate + 1e-14


# The bump's nodes themselves are off the finer closed form by 1.3e-14 (by
# 1.1e-12 with the J-formula).
@pytest.mark.parametrize("q, rtol", [
    (_ex1_q(), 1e-12), (_bumpy_rate(1.0, 0.2, 0.0, 0.0, 0.0, 0.0, 3.0, 50.0), 2e-12)],
    ids=["ex1", "bump"])
def test_closed_form_between_nodes_is_as_accurate_as_on_them(q, rtol, monkeypatch):
    # at a quarter, half and three quarters of each fine interval, against
    # the closed form on a 16 times finer grid, which has nodes there; a
    # linear interpolation between the nodes is off by 1.2e-8 and 1.1e-7
    orbit = fs.periodic_rho_closed_form(q)
    monkeypatch.setattr(rho_ode, "FINE_INTERVALS", 16 * FINE_INTERVALS)
    reference = fs.periodic_rho_closed_form(q)
    nodes, h = np.linspace(0.0, 1.0, FINE_INTERVALS + 1, retstep=True)
    between = np.concatenate([nodes[:-1] + f * h for f in (0.25, 0.5, 0.75)])
    np.testing.assert_allclose(orbit(between), reference(between), rtol=rtol, atol=0.0)


def _j_formula(q):
    """The independent oracle: the orbit at the nodes of one period of a
    grid of twice FINE_INTERVALS intervals, rho(t) = (1 - e^{-I}) /
    (e^{-I} J(t)), where I is the period integral of q and J(t) =
    int_t^{t+T} exp(int_t^s q) ds, every integral by cumulative Simpson over
    two periods. The running integral of q is taken of q - c, c the mean of
    its samples, and c t added after, so the rounding of the running sum does
    not grow with I; on the grid of the orbit itself, and without the shift,
    the oracle is off by up to 6e-12 for I <= 10 (a constant q of I = 8, a
    sharp bump). exp(I - anti) overflows once I passes about 709."""
    T, n = q.period, 2 * FINE_INTERVALS
    ts, dt = np.linspace(0.0, 2.0 * T, 2 * n + 1, retstep=True)
    # q is periodic: evaluate one period and repeat it for the second
    qs = np.asarray(q(ts[:n + 1]), dtype=float)
    c = qs[:-1].mean()
    anti = cumulative_simpson(np.concatenate([qs, qs[1:]]) - c, dt) + c * ts
    shift = float(anti.max())
    grow = cumulative_simpson(np.exp(anti - shift), dt)
    j = np.exp(-(anti[:n + 1] - shift) - anti[n]) * (grow[n:] - grow[:n + 1])
    return ts[:n + 1], -np.expm1(-anti[n]) / j


def _orbit_tolerance(q):
    """1e-13 relative up to I = 3, then the rounding of the running sums in
    logs, which grows like I, plus twice a fourth-order truncation on one
    step, Simpson's (dt max|q|)^4 / 2880 with dt = T / FINE_INTERVALS; a
    sweep of the rates below stays within half of it."""
    period_integral = q.period * q.mean()
    x = q.period / FINE_INTERVALS * np.abs(q.values).max()
    return 1e-13 * max(1.0, period_integral / 3.0) + 2.0 * x ** 4 / 2880.0


def test_the_c01_orbit_agrees_with_the_j_formula_oracle():
    # c01's rate, 1 - sin(2 pi t)^2: the gate's orbit is checked against an
    # independent formula, not only against the integrator of the same maps
    q = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: 1.0 - np.sin(2.0 * np.pi * ts) ** 2)
    nodes, want = _j_formula(q)
    np.testing.assert_allclose(fs.periodic_rho_closed_form(q)(nodes), want,
                               rtol=1e-12, atol=0.0)


# I from 0.1 to 1e3: exp(I - anti) of the J-formula overflows above about
# 709, where the orbit of the maps stays finite.
@settings(max_examples=60, deadline=None)
@given(period=st.floats(0.5, 2.0), log10_integral=st.floats(-1.0, 3.0),
       f1=st.floats(0.0, 0.99), phi1=st.floats(-np.pi, np.pi),
       f2=st.floats(0.0, 0.99), phi2=st.floats(-np.pi, np.pi),
       height=st.floats(0.0, 3.0), sharpness=st.floats(0.0, 50.0),
       constant=st.booleans())
@example(period=1.0, log10_integral=3.0, f1=0.0, phi1=0.0, f2=0.0, phi2=0.0,
         height=0.0, sharpness=0.0, constant=True)
@example(period=1.0, log10_integral=np.log10(800.0), f1=0.0, phi1=0.0, f2=0.0,
         phi2=0.0, height=3.0, sharpness=50.0, constant=False)
def test_the_orbit_is_finite_positive_and_keeps_the_mean_of_q(
        period, log10_integral, f1, phi1, f2, phi2, height, sharpness, constant):
    shape = _bumpy_rate(period, 1.0, f1, phi1, f2, phi2, height, sharpness)
    # scaled to the drawn period integral I
    scale = 10.0 ** log10_integral / (period * shape.mean())
    q = fs.PeriodicScalarSignal.from_array_callable(
        period, (lambda ts: np.full_like(ts, scale)) if constant else
        (lambda ts: scale * shape.fn(ts)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = fs.periodic_rho_closed_form(q)
    assert np.isfinite(orbit.values).all() and orbit.values.min() > 0.0
    # dividing rho' = rho (q - rho) by rho and integrating over a period
    tol = _orbit_tolerance(q)
    assert orbit.mean() == pytest.approx(q.mean(), rel=tol, abs=0.0)
    if constant:
        np.testing.assert_allclose(orbit.values, scale, rtol=tol, atol=0.0)
    if q.period * q.mean() <= 10.0:
        nodes, want = _j_formula(q)
        np.testing.assert_allclose(orbit(nodes), want, rtol=1e-12, atol=0.0)
