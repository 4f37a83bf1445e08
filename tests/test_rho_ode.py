import numpy as np
import pytest

import fluctsel as fs


def _ex1_q():
    # per-capita rate along the optimal trait of the oscillating-optimum model
    return fs.PeriodicScalarSignal.from_callable(
        1.0, lambda t: 0.5 + np.sin(2 * np.pi * t))


def test_closed_form_satisfies_ode():
    # start a high-order integrator exactly on the orbit: it must stay there
    q = _ex1_q()
    orbit = fs.periodic_rho_closed_form(q)
    times, rho = fs.integrate_logistic(q, orbit.evaluate(0.0), 1.0, dt=1.0 / 2048)
    assert np.abs(rho - orbit.evaluate(times)).max() < 1e-7


def test_orbit_is_periodic_and_positive():
    orbit = fs.periodic_rho_closed_form(_ex1_q())
    assert orbit.samples.min() > 0.0
    ts = np.linspace(0.0, 1.0, 37)
    np.testing.assert_allclose(orbit.evaluate(ts + 1.0), orbit.evaluate(ts),
                               rtol=0, atol=1e-12)


def test_orbit_mean_equals_rate_mean():
    # dividing the ODE by rho and averaging: mean(rho) = mean(q)
    q = _ex1_q()
    orbit = fs.periodic_rho_closed_form(q)
    assert orbit.mean == pytest.approx(q.mean(), abs=1e-9)


def test_constant_rate_collapses_to_logistic_equilibrium():
    q = fs.PeriodicScalarSignal.from_callable(1.0, lambda t: 0.7)
    orbit = fs.periodic_rho_closed_form(q)
    np.testing.assert_allclose(orbit.samples, 0.7, rtol=0, atol=1e-9)


def test_extinction_when_mean_rate_nonpositive():
    q = fs.PeriodicScalarSignal.from_callable(
        1.0, lambda t: -0.1 + np.sin(2 * np.pi * t))
    with pytest.raises(fs.ExtinctionError, match="extinction regime"):
        fs.periodic_rho_closed_form(q)


@pytest.mark.parametrize("rho0", [0.05, 5.0])
def test_integrator_attracted_to_orbit(rho0):
    # transients contract like exp(-mean(q) t) = exp(-t/2), so run long
    q = _ex1_q()
    orbit = fs.periodic_rho_closed_form(q)
    times, rho = fs.integrate_logistic(q, rho0, 40.0)
    tail = times >= 39.0
    assert np.abs(rho[tail] - orbit.evaluate(times[tail])).max() < 1e-5


def test_integrator_survives_harsh_steps():
    # a large step through a strongly negative stretch would go nonpositive;
    # the halving fallback must keep the iterate positive
    q = fs.PeriodicScalarSignal.from_callable(
        1.0, lambda t: 1.0 - 40.0 * (np.sin(np.pi * t) ** 2))
    times, rho = fs.integrate_logistic(q, 1.0, 2.0, dt=0.25)
    assert (rho > 0.0).all()


def test_integrator_rejects_negative_start():
    with pytest.raises(fs.NumericalError):
        fs.integrate_logistic(_ex1_q(), -1.0, 1.0)


def test_signal_from_samples_interpolates():
    vals = np.sin(2 * np.pi * np.linspace(0.0, 1.0, 101)) + 2.0
    sig = fs.PeriodicScalarSignal.from_samples(1.0, vals)
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
    times, rho = fs.integrate_logistic(q, orbit.evaluate(0.0), 5.0, dt=1.0 / 256)
    assert len(times) == 5 * 256 + 1
    assert len(calls) <= 2 * 256 + 1
    assert np.abs(rho - orbit.evaluate(times)).max() < 1e-7


def test_integrator_snaps_dt_to_divide_the_period():
    q = fs.PeriodicScalarSignal.from_callable(2.0, lambda t: 0.5 + np.sin(np.pi * t))
    times, rho = fs.integrate_logistic(q, 0.5, 4.0, dt=0.3)
    assert times[1] == 2.0 / round(2.0 / 0.3)
    assert times[-1] == pytest.approx(4.0)


def test_array_callable_matches_scalar_callable(ex1_model):
    # one rate_table call per array gives the bits of one rate call per time
    x_m = np.array([0.0])
    scalar = fs.PeriodicScalarSignal.from_callable(
        1.0, lambda t: ex1_model.rate(t, x_m)[0])
    array = fs.PeriodicScalarSignal.from_array_callable(
        1.0, lambda ts: fs.rate_table(ex1_model, ts, x_m)[:, 0])
    assert np.array_equal(array.values, scalar.values)
    for steps in (1024, 4096):
        ts = 0.5 / steps * np.arange(2 * steps + 1)
        assert np.array_equal(array(ts), scalar(ts))
    assert array(0.3) == scalar(0.3)
    assert isinstance(array(0.3), float)
