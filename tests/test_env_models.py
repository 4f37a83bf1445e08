import numpy as np
import pytest

import fluctsel as fs


def test_oscillating_optimum_values(ex1_model):
    assert ex1_model.period == pytest.approx(1.0)
    # optimum sits at x = 1 when the forcing peaks
    assert float(ex1_model.rate(0.25, np.array([1.0]))[0]) == pytest.approx(1.0)
    assert fs.mean_growth(ex1_model, 0.0) == pytest.approx(0.5)
    got = fs.mean_growth(ex1_model, np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_allclose(got, [-0.5, 0.5, -3.5], atol=1e-14)


def test_oscillating_pressure_values(ex2_model):
    # A = sqrt(g_bar) of the averaged rate 1 - g_bar x^2, g_bar = 2
    taylor = fs.limit_profile(ex2_model, np.linspace(-2.0, 2.0, 401)).taylor
    assert taylor[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert float(ex2_model.rate(0.5, np.array([1.0]))[0]) == pytest.approx(1.0 - 0.2)
    assert fs.mean_growth(ex2_model, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_pressure_must_be_positive():
    with pytest.raises(fs.ConfigError):
        fs.make_oscillating_pressure(1.0, lambda t: np.cos(2 * np.pi * t))


def test_pressure_must_have_period_one():
    with pytest.raises(fs.ConfigError, match="period 1"):
        fs.make_oscillating_pressure(1.0, lambda t: 2.0 + np.cos(np.pi * t))


def test_pressure_checks_sample_g_with_two_array_calls():
    shapes = []

    def g_fn(t):
        shapes.append(np.shape(t))
        return 2.0 + 1.8 * np.cos(2.0 * np.pi * t)

    fs.make_oscillating_pressure(1.0, g_fn)
    assert shapes == [(fs.env_models.MEAN_NODES,)] * 2
    # a constant g broadcasts over the sample times
    model = fs.make_oscillating_pressure(1.0, lambda t: 2.0)
    taylor = fs.limit_profile(model, np.linspace(-2.0, 2.0, 401)).taylor
    assert taylor[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_pressure_means_over_64_times_only_where_they_are_exact(ex2_model):
    # a pulse of width 0.01: 64 times average g to 1.09173, 0.29 % above
    # its mean 1 + 0.05 sqrt(pi); 1024 times give it to roundoff
    pulse = fs.make_oscillating_pressure(
        1.0, lambda t: 1.0 + 5.0 * np.exp(-((np.asarray(t) % 1.0 - 0.5) / 0.01) ** 2))
    assert (ex2_model.mean_times, pulse.mean_times) == (64, 1024)
    assert fs.mean_growth(pulse, 1.0) == pytest.approx(-0.05 * np.sqrt(np.pi), abs=1e-13)


def _counting_model(rate):
    calls = [0]

    def counted(t, x):
        calls[0] += 1
        return rate(t, x)

    return fs.make_custom(1.0, counted), calls


def test_averaged_optimum_stays_within_its_rate_call_budget():
    # a zero top: the averaged rate -(x - c)^2 is resolved down to roundoff in
    # x, so the optimum is well defined to 1e-9 (golden-section search, one
    # average per probe, gave 0.12345678900091198 with 44,075 rate calls)
    c = 0.123456789
    model, calls = _counting_model(
        lambda t, x: -(np.asarray(x) - c) ** 2 * (1.0 + 0.5 * np.sin(2 * np.pi * t)))
    x_m = fs.averaged_optimum(model, (-4.0, 4.0))
    assert calls[0] <= 10_000
    assert abs(x_m - 0.12345678900091198) < 1e-9
    # 1 - x^2 averages to exactly 1.0 for |x| below about 7.5e-9 (x^2 under
    # half an ulp of 1), so any point of that flat top is a maximizer
    model, calls = _counting_model(lambda t, x: 1.0 - np.asarray(x) ** 2)
    x_m = fs.averaged_optimum(model, (-4.0, 4.0))
    assert calls[0] <= 10_000
    assert abs(x_m) <= 1e-8


def test_mean_growth_matches_the_closed_forms(ex1_model, ex2_model):
    # example1 (r, g, c) = (1, 1, 1) averages to r - g (x^2 + c^2 / 2) and
    # example2 to r - g_bar x^2 with g_bar = 2, at the models' 64 times and at
    # make_custom's 1024
    xs = np.linspace(-3.0, 3.0, 13)
    for model, closed in ((ex1_model, 1.0 - (xs ** 2 + 0.5)), (ex2_model, 1.0 - 2.0 * xs ** 2)):
        for m in (model, fs.make_custom(model.period, model.rate)):
            assert np.abs(fs.mean_growth(m, xs) - closed).max() < 1e-10


def test_averaged_optimum_and_shift_invariance(ex1_model):
    x_m = fs.averaged_optimum(ex1_model, (-3.0, 3.0))
    assert abs(x_m) < 1e-6
    shifted = fs.make_custom(1.0, lambda t, x: ex1_model.rate(t, x) + 7.5)
    assert abs(fs.averaged_optimum(shifted, (-3.0, 3.0)) - x_m) < 1e-6


def test_averaged_optimum_rejects_double_peak():
    model = fs.make_custom(1.0, lambda t, x: 1.0 - (np.asarray(x) ** 2 - 1.0) ** 2)
    with pytest.raises(fs.NumericalError, match="H2 violated on bracket"):
        fs.averaged_optimum(model, (-2.0, 2.0))


def test_averaged_optimum_rejects_boundary_max():
    model = fs.make_custom(1.0, lambda t, x: np.asarray(x, dtype=float))
    with pytest.raises(fs.NumericalError, match="H2 violated on bracket"):
        fs.averaged_optimum(model, (-1.0, 1.0))


@pytest.mark.parametrize("rate", [
    lambda t, x: -np.asarray(x) ** 4,
    lambda t, x: np.minimum(100.0 * np.asarray(x), -np.asarray(x)),
], ids=["flat-curvature", "skewed-kink"])
def test_averaged_optimum_rejects_a_peak_that_newton_cannot_resolve(rate):
    # the scan certifies one peak at 0 in both; -x^4 has no curvature there,
    # and the stencil derivative of the kink turns convex 9.4e-4 from it
    with pytest.raises(fs.NumericalError, match="H2 violated on bracket: second derivative"):
        fs.averaged_optimum(fs.make_custom(1.0, rate), (-0.5, 0.5))


def test_check_hypotheses_confinement(ex1_model):
    rep = fs.check_hypotheses(ex1_model, (-5.0, 5.0))
    assert rep.x_m is not None and abs(rep.x_m) < 1e-6
    # sup_t a = 1 - (|x| - 1)^2 crosses zero at |x| = 2, padded by 10%
    assert rep.h5_radius == pytest.approx(2.2, abs=0.05)
    assert rep.h5_delta > 0.3


def test_check_hypotheses_confinement_is_shift_invariant():
    # the radius and margin are measured from x_m, so moving the model and
    # its domain together leaves them unchanged
    def model(shift):
        def rate(t, x):
            return 0.5 - (np.asarray(x) - shift - 0.5 * np.sin(2 * np.pi * t)) ** 2
        return fs.make_custom(1.0, rate)

    centred = fs.check_hypotheses(model(0.0), (-3.0, 3.0))
    shifted = fs.check_hypotheses(model(2.0), (-1.0, 5.0))
    assert shifted.x_m == pytest.approx(centred.x_m + 2.0, abs=1e-6)
    assert centred.h5_radius == pytest.approx(1.328, abs=1e-3)
    assert shifted.h5_radius == pytest.approx(centred.h5_radius, rel=1e-6)
    assert shifted.h5_delta == pytest.approx(centred.h5_delta, rel=1e-6)


def test_check_hypotheses_flags_nonconfining():
    # a unique optimum, but the rate is still positive (0.6) at the domain edge
    model = fs.make_custom(1.0, lambda t, x: 1.0 - 0.1 * np.asarray(x) ** 2)
    rep = fs.check_hypotheses(model, (-2.0, 2.0))
    assert rep.x_m == pytest.approx(0.0, abs=1e-6)
    assert rep.h5_delta is None and rep.h5_radius is None


def test_tabulated_interpolation_and_wrap(ex1_model):
    t_nodes = np.arange(128) / 128.0
    x_nodes = np.linspace(-3.0, 3.0, 241)
    values = np.array([ex1_model.rate(t, x_nodes) for t in t_nodes])
    tab = fs.make_tabulated(1.0, t_nodes, x_nodes, values)
    xs = np.linspace(-2.5, 2.5, 41)
    worst = max(float(np.abs(tab.rate(t, xs) - ex1_model.rate(t, xs)).max())
                for t in np.linspace(0.0, 1.0, 17))
    assert worst < 2e-3
    # 1.3 % 1.0 is not bitwise 0.3, so allow rounding in the wrap
    np.testing.assert_allclose(tab.rate(0.3, xs), tab.rate(1.3, xs), atol=1e-12)
    np.testing.assert_array_equal(tab.rate(0.0, xs), tab.rate(1.0, xs))


@pytest.mark.parametrize("x_nodes", [[1.0, 0.0, -1.0], [-1.0, 0.0, 0.0],
                                     [-1.0, np.nan, 1.0], [-np.inf, 0.0, 1.0]])
def test_tabulated_rejects_trait_nodes_that_are_not_increasing(x_nodes):
    # the interpolant searches sorted nodes: [1, 0, -1] would read
    # a(0, x) = 3 on all of [-1, 1], where the table spans 1 to 3
    with pytest.raises(fs.ConfigError, match="finite and strictly increasing"):
        fs.make_tabulated(1.0, [0.0, 0.5], x_nodes, [[1.0, 2.0, 3.0]] * 2)


def test_rate_table_matches_rate_per_time(ex1_model):
    t_nodes = np.arange(16) / 16.0
    x_nodes = np.linspace(-2.0, 2.0, 33)
    tab = fs.make_tabulated(1.0, t_nodes, x_nodes,
                            np.array([ex1_model.rate(t, x_nodes) for t in t_nodes]))
    times = np.linspace(0.0, 1.0, 23)
    xs = np.linspace(-2.5, 2.5, 41)
    expect = np.array([tab.rate(t, xs) for t in times])
    np.testing.assert_array_equal(fs.rate_table(tab, times, xs), expect)


def test_tabulated_file_roundtrip(tmp_path, ex1_model):
    t_nodes = np.arange(64) / 64.0
    x_nodes = np.linspace(-2.0, 2.0, 33)
    values = np.array([ex1_model.rate(t, x_nodes) for t in t_nodes])
    path = tmp_path / "rates.txt"
    lines = ["# tabulated growth rate", "1.0 33 64"]
    lines += [" ".join(f"{v:.17e}" for v in row) for row in values]
    path.write_text("\n".join(lines), encoding="utf-8")
    tab = fs.load_tabulated(path, -2.0, 2.0)
    xs = np.linspace(-1.5, 1.5, 11)
    assert np.abs(tab.rate(0.25, xs) - ex1_model.rate(0.25, xs)).max() < 1e-2


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("1.0 33\n0 0", "header"),
    ("1.0 -2 -3\n1 2 3 4 5 6", "header 'T nx nt' = '1.0 -2 -3' needs nx and nt"),
    ("1.0 1 4\n1 2 3 4", "header 'T nx nt' = '1.0 1 4' needs nx and nt"),
    ("1.0 4 2\n1 2 3", "expected 8 values"),
    ("1.0 2 2\n1 2 3 oops", "non-numeric"),
    ("1.0 2 2\n1 2 nan 4", "finite"),
])
def test_tabulated_file_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(fs.ConfigError, match=fragment):
        fs.load_tabulated(path, -1.0, 1.0)
