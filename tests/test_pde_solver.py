import ctypes
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import fluctsel as fs
from fluctsel import pde_solver
from fluctsel.pde_solver import _check_step_constraint, _Stepper, step_eigenpair


def _const_model(value=1.0):
    return fs.make_custom(1.0, lambda t, x: np.full_like(np.asarray(x, float), value))


def _densities(record):
    return np.array([record.density(k) for k in range(len(record.rho.times))])


@pytest.mark.parametrize("kwargs", [
    dict(nx=8),
    dict(x_lo=2.0, x_hi=-2.0),
    dict(steps_per_period=0),
    dict(sigma=-1e-3),
])
def test_grid_validation(kwargs):
    base = dict(x_lo=-2.0, x_hi=2.0, nx=64, steps_per_period=1000, sigma=1e-2)
    base.update(kwargs)
    with pytest.raises(fs.ConfigError):
        fs.SimulationGrid(**base)


def test_grid_geometry():
    grid = fs.SimulationGrid(x_lo=-1.0, x_hi=1.0, nx=19, steps_per_period=1000,
                             sigma=0.0)
    assert grid.dx == pytest.approx(0.1)
    assert grid.x[0] == pytest.approx(-0.9)
    assert grid.x[-1] == pytest.approx(0.9)
    assert len(grid.x) == 19


def test_simulate_rejects_bad_start_before_any_step(monkeypatch):
    # a start that is not finite, negative somewhere or identically zero is
    # rejected before the stepper runs
    def no_step(self, n, k):
        raise AssertionError("stepped a rejected start")

    monkeypatch.setattr(_Stepper, "step", no_step)
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=128,
                             sigma=0.01)
    ones = np.ones(100)
    for value, at, match in [(-1.0, slice(None), "negative"),
                             (-0.1, 50, "negative"),
                             (np.nan, 50, "non-finite"),
                             (np.inf, 50, "non-finite"),
                             (0.0, slice(None), "identically zero")]:
        bad = ones.copy()
        bad[at] = value
        with pytest.raises(fs.NumericalError, match=match):
            fs.simulate(grid, _const_model(1.0), bad, 3.0)


def test_default_guess_has_unit_mass(ex1_model):
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=1000, steps_per_period=1000,
                             sigma=0.0025)
    guess = fs.default_orbit_guess(grid, ex1_model)
    assert fs.total_mass(grid, guess) == pytest.approx(1.0, abs=1e-6)
    assert grid.x[np.argmax(guess)] == pytest.approx(0.0, abs=2 * grid.dx)


def test_step_without_diffusion_is_exact_reaction():
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=63, steps_per_period=100,
                             sigma=0.0)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    n0 = np.exp(-grid.x ** 2)
    # the step runs in place, so it gets a copy of n0
    stepper = _Stepper(grid, model)
    out = stepper.step(n0.copy(), 0) / (1.0 + stepper.dt * 0.3)
    expect = n0 * (1.0 + stepper.dt * (1.0 - grid.x ** 2)) / (1.0 + stepper.dt * 0.3)
    np.testing.assert_allclose(out, expect, rtol=1e-13)


def test_pure_diffusion_conserves_interior_mass():
    # zero growth in the linear flow: only diffusion acts; mass leaks just
    # through the far-away ends, so it is conserved to solver accuracy
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=1000, steps_per_period=1000,
                             sigma=0.01)
    n0 = np.exp(-grid.x ** 2 / 0.02) / np.sqrt(0.02 * np.pi)
    n = _Stepper(grid, _const_model(0.0)).run(n0, 200)
    assert fs.total_mass(grid, n) == pytest.approx(fs.total_mass(grid, n0), rel=1e-9)
    assert n.min() >= 0.0


def test_step_rejects_oversized_reaction():
    # dt * max|a| = 0.5 * 2.5 >= 1: a growth factor 1 + dt * a would be negative
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=64, steps_per_period=2, sigma=0.0)
    with pytest.raises(fs.NumericalError, match="step constraint"):
        _Stepper(grid, _const_model(-2.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_constraint_rejects_non_finite_rates(bad):
    scaled = np.full(64, 0.25)
    scaled[17] = bad
    with pytest.raises(fs.NumericalError, match="step constraint"):
        _check_step_constraint(scaled)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 300.0])
def test_stepper_margin_is_the_worst_block(bad):
    # one rate row far from the first block (20 rows a block at nx = 800)
    # breaks the step constraint; a NaN there is not lost between blocks
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=800, steps_per_period=256,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: np.where(
        np.asarray(t) == 0.75, bad, 0.5) + 0.0 * np.asarray(x))
    with pytest.raises(fs.NumericalError, match="step constraint"):
        _Stepper(grid, model)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(16, 200), seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(0.0, 0.1), steps=st.integers(10, 10000))
def test_step_eigenpair_matches_eigh_tridiagonal_bit_for_bit(nx, seed, sigma, steps):
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=nx, steps_per_period=steps,
                             sigma=sigma)
    dt = 1.0 / steps
    row = np.random.default_rng(seed).uniform(-0.95, 0.95, nx) / dt
    log_mu, v = step_eigenpair(grid, row, dt)
    # the reference: the same matrix through scipy.linalg.eigh_tridiagonal
    scaled = dt * row
    s = 1.0 / np.sqrt(1.0 + scaled)
    al = dt * sigma / (grid.dx * grid.dx)
    w, vec = eigh_tridiagonal((2.0 * al - scaled) * s * s, -al * s[:-1] * s[1:],
                              select="i", select_range=(0, 0))
    assert log_mu == float(-np.log1p(w[0]))
    assert np.array_equal(v, np.abs(s * vec[:, 0]))


def test_each_bound_lapack_routine_gives_scipys_bytes():
    # a random symmetric positive definite tridiagonal (diagonally dominant):
    # each routine of the binding against scipy.linalg.lapack on the same input
    rng = np.random.default_rng(5)
    nx = 40
    d, e, b = rng.uniform(2.5, 3.5, nx), rng.uniform(-1.0, 1.0, nx - 1), rng.uniform(size=nx)
    lapack = pde_solver._lapack()
    ints = lambda size: np.zeros(size, np.dtype(lapack.int))  # noqa: E731
    df, ef, x, info = d.copy(), e.copy(), b.copy(), ints(1)
    lapack.dpttrf(*lapack.args(nx, df, ef, info))
    ref_d, ref_e, ref_info = scipy.linalg.lapack.dpttrf(d, e)
    assert info[0] == ref_info == 0
    assert np.array_equal(df, ref_d) and np.array_equal(ef, ref_e)
    lapack.dpttrs(*lapack.args(nx, 1, df, ef, x, nx, info))
    assert np.array_equal(x, scipy.linalg.lapack.dpttrs(ref_d, ref_e, b)[0])

    m, nsplit, w, iblock, isplit = ints(1), ints(1), np.empty(nx), ints(nx), ints(nx)
    work, iwork, ifail = np.empty(5 * nx), ints(3 * nx), ints(3)  # held over the calls
    lapack.dstebz(b"I", b"B", *lapack.args(nx, 0.0, 0.0, 1, 3, 0.0, d, e, m, nsplit,
                                           w, iblock, isplit, work, iwork, info),
                  ctypes.c_size_t(1), ctypes.c_size_t(1))
    ref = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 3, 0.0, "B")
    assert [m[0], info[0]] == [ref[0], ref[-1]] == [3, 0]
    for mine, theirs in zip((w, iblock, isplit), ref[1:4]):
        assert np.array_equal(mine[:3], theirs[:3])
    z = np.empty((3, nx))  # column-major nx x 3
    lapack.dstein(*lapack.args(nx, d, e, 3, w, iblock, isplit, z, nx, work, iwork, ifail,
                               info))
    ref_z, ref_info = scipy.linalg.lapack.dstein(d, e, ref[1][:3], ref[2], ref[3])
    assert info[0] == ref_info == 0 and np.array_equal(z.T, ref_z)


@pytest.mark.parametrize("nx", [np.int64(32), np.int32(32), np.uint16(32)])
def test_a_numpy_integer_nx_gives_the_bytes_of_an_int_nx(nx):
    # the routines take N by reference: a numpy integer must reach them as
    # a LAPACK integer, not as the bits of a double
    def solves(size):
        grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=size, steps_per_period=64,
                                 sigma=0.01)
        model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 1.0)
        stepper = _Stepper(grid, model)
        v = np.exp(-grid.x ** 2)
        log_mu, vec = step_eigenpair(grid, stepper.gain[5] - 1.0, 1.0 / 64)
        return stepper.run(v, stepper.steps), log_mu, vec, stepper.record(v)

    for mine, theirs in zip(solves(nx), solves(32), strict=True):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("value", ["32", None, 32 + 0j, ctypes.c_double(32.0), [32]])
def test_a_lapack_argument_of_another_type_is_refused(value):
    lapack = pde_solver._lapack()
    with pytest.raises(TypeError):
        lapack.args(value)


def test_missing_lapack_names_every_place_searched(monkeypatch, tmp_path):
    # no OpenBLAS in numpy's library folders and no scipy.linalg._flapack
    folders = (str(tmp_path / "numpy.libs"), str(tmp_path / ".dylibs"))
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_text("not a library")
    monkeypatch.setattr(pde_solver, "_NUMPY_LIBS", folders)
    monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", None)
    with pytest.raises(ImportError) as raised:
        pde_solver._lapack.__wrapped__()
    for place in (*folders, "scipy.linalg._flapack"):
        assert place in str(raised.value)


def test_the_scipy_fallback_runs_a_period_map_bit_for_bit(monkeypatch):
    # where numpy ships no OpenBLAS the routines come from the capsules of
    # scipy.linalg._flapack, with 32-bit integers; same bytes either way
    def period_map():
        grid, stepper = _ex1_stepper(nx=64, steps=128)
        v = np.exp(-grid.x ** 2)
        return stepper.run(v, stepper.steps), step_eigenpair(grid, stepper.gain[5] - 1.0, 1.0)

    mapped, (log_mu, vec) = period_map()
    monkeypatch.setattr(pde_solver, "_NUMPY_LIBS", ())
    fallback = pde_solver._lapack.__wrapped__()
    assert fallback.int is ctypes.c_int32
    monkeypatch.setattr(pde_solver, "_lapack", lambda: fallback)
    again, (log_mu_again, vec_again) = period_map()
    assert np.array_equal(again, mapped)
    assert log_mu_again == log_mu and np.array_equal(vec_again, vec)


def test_an_indefinite_diffusion_matrix_fails_its_factorisation():
    # a negative sigma (which the grid rejects, set here after it) makes the
    # first pivot 1 - 2 dt |sigma| / dx^2 negative
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=64, sigma=0.01)
    grid.sigma = -1.0
    with pytest.raises(fs.NumericalError,
                       match=r"^diffusion matrix factorisation failed \(info 1\)$"):
        _Stepper(grid, _const_model(0.0))


def _failing(lapack, routine):
    """The routine, reporting info 1 after it ran (info is the last pointer
    before dstebz's two string lengths)."""
    real, at = getattr(lapack, routine), -3 if routine == "dstebz" else -1

    def run(*args):
        real(*args)
        args[at]._obj.value = 1

    return run


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_step_eigenpair_reports_a_lapack_failure(monkeypatch, routine):
    lapack = pde_solver._lapack()
    monkeypatch.setattr(lapack, routine, _failing(lapack, routine))
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=100,
                             sigma=0.01)
    with pytest.raises(fs.NumericalError, match=f"{routine} info 1"):
        step_eigenpair(grid, np.zeros(grid.nx), 0.01)


def test_step_eigenpair_rejects_a_non_finite_matrix():
    # dt * sigma / dx^2 overflows to inf
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=10,
                             sigma=1e308)
    with pytest.raises(fs.NumericalError, match="non-finite"):
        step_eigenpair(grid, np.zeros(grid.nx), 0.1)


def _ex1_stepper(nx=200, steps=256):
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=nx, steps_per_period=steps,
                             sigma=0.0025)
    return grid, _Stepper(grid, fs.make_oscillating_optimum(1.0, 1.0, 1.0,
                                                            2.0 * np.pi))


def test_period_map_is_linear_on_signed_vectors():
    grid, stepper = _ex1_stepper()
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal((2, grid.nx))

    def period_map(w):
        return stepper.run(w, stepper.steps)

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
        n = stepper.step(n, k) / (1.0 + stepper.dt * 0.4)
        assert n.min() >= 0.0


def test_orbit_is_deterministic():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=150, steps_per_period=256,
                             sigma=0.0025)
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    first = fs.find_periodic_orbit(grid, model)
    again = fs.find_periodic_orbit(grid, model)
    assert np.array_equal(first.pair.p_snapshots, again.pair.p_snapshots)
    assert np.array_equal(first.rho.values, again.rho.values)
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
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=128,
                             sigma=0.01)
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    flat = np.ones(grid.nx)
    maps = []
    run = _Stepper.run

    def counted(self, n, nsteps):
        if nsteps == self.steps:
            maps.append(nsteps)
        return run(self, n, nsteps)

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


def test_a_restarted_eigen_solve_finds_the_same_pair(monkeypatch):
    # a basis of 3 vectors fills before the Ritz test passes (9 maps with
    # the full basis), so the solve restarts from its Ritz vector
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=160, steps_per_period=256,
                             sigma=0.05 ** 2)
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    full = fs.principal_eigenpair(grid, model)
    monkeypatch.setattr(pde_solver, "KRYLOV_RESTART", 3)
    restarted = fs.principal_eigenpair(grid, model)
    assert restarted.iterations > 3
    assert restarted.lam == pytest.approx(full.lam, rel=0.0, abs=1e-10)
    np.testing.assert_allclose(restarted.p_snapshots, full.p_snapshots, rtol=0.0, atol=1e-8)


# small grids and both model families; on [-2, 2] max|a| <= r + 4 * 2.85 g
# < 14 < steps, so the step constraint holds
_SMALL_CASES = dict(
    nx=st.integers(16, 40), steps=st.integers(16, 64), sigma=st.floats(1e-3, 0.05),
    r=st.floats(0.0, 2.0), g=st.floats(0.2, 1.0), swing=st.floats(0.0, 0.9),
    pressure=st.booleans())


def _small_case(nx, steps, sigma, r, g, swing, pressure):
    if pressure:
        model = fs.make_oscillating_pressure(
            r, lambda t: 1.5 * g * (1.0 + swing * np.cos(2.0 * np.pi * t)))
    else:
        model = fs.make_oscillating_optimum(r, g, swing, 2.0 * np.pi)
    grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=nx, steps_per_period=steps,
                             sigma=sigma)
    return grid, model


@settings(max_examples=40, deadline=None)
@given(**_SMALL_CASES)
def test_eigenpair_matches_the_dense_period_map(nx, steps, sigma, r, g, swing,
                                                pressure):
    grid, model = _small_case(nx, steps, sigma, r, g, swing, pressure)
    stepper = _Stepper(grid, model)
    dense = np.column_stack([stepper.run(e, stepper.steps)
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


# nx = 300 and 257 fill the tables in blocks of 54 and 63 rate rows that do
# not divide the steps
_BLOCKED = dict(sigma=0.01, r=1.0, g=0.5, swing=0.5, pressure=False)


@settings(max_examples=40, deadline=None)
@given(**_SMALL_CASES, seed=st.integers(0, 2**32 - 1), part=st.floats(0.0, 1.0))
@example(nx=300, steps=64, seed=3, part=0.5, **_BLOCKED)
@example(nx=257, steps=63, seed=4, part=1.0, **_BLOCKED)
def test_run_is_the_step_loop_bit_for_bit(nx, steps, sigma, r, g, swing,
                                          pressure, seed, part):
    # the gains are 1 + dt a to the bit; the in-place run and the recorded
    # period, which overwrites the gains, against a loop that makes a fresh
    # array at every step. Neither changes its input, and recording spends
    # the stepper
    grid, model = _small_case(nx, steps, sigma, r, g, swing, pressure)
    stepper = _Stepper(grid, model)
    gain = stepper.gain.copy()
    rates = fs.rate_table(model, stepper.times[:-1], grid.x)
    assert np.array_equal(gain, 1.0 + stepper.dt * rates)
    nsteps = round(part * stepper.steps)
    v = np.random.default_rng(seed).uniform(0.0, 1.0, nx)
    before = v.copy()
    ref = [v]
    for k in range(stepper.steps):
        ref.append(scipy.linalg.lapack.dpttrs(stepper.d, stepper.e,
                                              ref[-1] * gain[k])[0])
    assert np.array_equal(stepper.run(v, nsteps), ref[nsteps])
    assert np.array_equal(stepper.record(v), np.array(ref))
    assert np.array_equal(v, before)
    with pytest.raises(AttributeError):
        stepper.run(v, 1)


def test_eigen_solve_holds_one_period_table(wide_grid, ex1_model):
    # the recorded period runs in the stepper's gain table: at the example1
    # grid the solve peaks at that one 2049 x 800 table (13 MiB) plus less
    # than 1 MiB
    tracemalloc.start()
    try:
        pair = fs.principal_eigenpair(wide_grid, ex1_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.p_snapshots.shape == (2049, 800)
    assert peak < pair.p_snapshots.nbytes + 2 ** 20


@settings(max_examples=40, deadline=None)
@given(**_SMALL_CASES)
def test_lambda_identity_holds_up_to_the_boundary_flux(nx, steps, sigma, r, g,
                                                       swing, pressure):
    # one linear step scales the mass by (1 + dt Q_k)(1 - f_k), f_k the share
    # of G_k p_k that D^-1 loses through the Dirichlet ends, so the "matched"
    # residual is this case's boundary term -(1/T) sum_k log(1 - f_k)
    grid, model = _small_case(nx, steps, sigma, r, g, swing, pressure)
    tol = 1e-10
    pair = fs.principal_eigenpair(grid, model, tol=tol)
    residual = fs.lambda_identity_residual(pair, fs.effective_signals(pair, model))
    stepper = _Stepper(grid, model)
    al = stepper.dt * sigma / grid.dx ** 2
    dense = ((1.0 + 2.0 * al) * np.eye(nx) - al * np.eye(nx, k=1)
             - al * np.eye(nx, k=-1))
    leak = 1.0 - np.linalg.solve(dense, np.ones(nx))
    grown = stepper.gain * pair.p_snapshots[:-1]
    f = (grown @ leak) / grown.sum(axis=1)
    boundary = -float(np.sum(np.log1p(-f))) / model.period
    assert abs(residual - boundary) <= 10.0 * tol


@settings(max_examples=40, deadline=None)
@given(**_SMALL_CASES)
@example(nx=300, steps=64, **_BLOCKED)
@example(nx=257, steps=63, **_BLOCKED)
def test_blocked_q_is_the_average_of_the_rate_table(nx, steps, sigma, r, g,
                                                    swing, pressure):
    # effective_signals reduces Q block by block, with no rate table
    grid, model = _small_case(nx, steps, sigma, r, g, swing, pressure)
    pair = fs.principal_eigenpair(grid, model, tol=1e-10)
    q = fs.effective_signals(pair, model)
    assert np.array_equal(q.values,
                          pair.average(fs.rate_table(model, pair.times, grid.x)))


def test_eigen_solve_reports_an_overflowing_period_map():
    # a growth factor of about e^1000 per period is past the double range
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=2048,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1000.0 - np.asarray(x) ** 2)
    with pytest.raises(fs.NumericalError, match="overflowed"):
        fs.principal_eigenpair(grid, model)


def test_simulate_logistic_growth_matches_ode():
    # flat rate: mass obeys rho' = rho (1 - rho) regardless of diffusion
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=500, steps_per_period=1000,
                             sigma=0.01)
    n0 = np.exp(-grid.x ** 2)
    n0 *= 0.1 / fs.total_mass(grid, n0)
    n, (times, rho), diag = fs.simulate(grid, _const_model(1.0), n0, 5.0)
    exact = 0.1 * np.exp(times) / (1.0 + 0.1 * (np.exp(times) - 1.0))
    assert np.abs(rho - exact).max() < 5e-3
    assert not diag["extinct"]


def test_simulate_decay_and_extinction_flag():
    grid = fs.SimulationGrid(x_lo=-5.0, x_hi=5.0, nx=200, steps_per_period=100,
                             sigma=0.0025)
    n0 = np.exp(-grid.x ** 2)
    n, (times, rho), diag = fs.simulate(grid, _const_model(-1.0), n0, 30.0)
    assert (rho[1:] <= rho[0] * np.exp(-times[1:] + 1e-9)).all()
    assert diag["extinct"]
    assert rho[-1] < 1e-12


@settings(max_examples=40, deadline=None)
@given(**_SMALL_CASES, periods=st.floats(0.3, 3.7))
def test_simulate_is_the_saturating_scheme(nx, steps, sigma, r, g, swing,
                                           pressure, periods):
    # rho = m / y over the linear flow against the saturating step itself,
    # n_{k+1} = step(n_k) / (1 + dt rho_k), run one step at a time
    grid, model = _small_case(nx, steps, sigma, r, g, swing, pressure)
    n0 = np.exp(-(grid.x - 0.5) ** 2)
    n, (times, rho), diag = fs.simulate(grid, model, n0, periods)
    stepper = _Stepper(grid, model)
    ref = n0
    for k in range(len(times)):
        ref_rho = grid.dx * ref.sum()
        assert rho[k] == pytest.approx(ref_rho, rel=1e-13, abs=0.0)
        if k < len(times) - 1:
            ref = stepper.step(ref, k % steps) / (1.0 + stepper.dt * ref_rho)
    np.testing.assert_allclose(n, ref, rtol=1e-13, atol=0.0)


def test_autonomous_steady_state():
    # frozen environment: the period map fixed point is a true steady state
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    grid = fs.SimulationGrid(x_lo=-4.0, x_hi=4.0, nx=400, steps_per_period=256,
                             sigma=0.01)
    rec = fs.find_periodic_orbit(grid, model, tol=1e-10)
    assert rec.period_gap < 1e-9
    snaps = _densities(rec)
    within = np.abs(snaps - snaps[0]).max() / snaps[0].max()
    assert within < 1e-6
    # steady total size is the principal eigenvalue's negative
    assert rec.rho.values[0] == pytest.approx(1.0 - np.sqrt(0.01), abs=5e-3)


def test_find_periodic_orbit_detects_extinction():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=128,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: -0.5 - np.asarray(x) ** 2)
    with pytest.raises(fs.ExtinctionError, match="no positive periodic orbit"):
        fs.find_periodic_orbit(grid, model)


def test_find_periodic_orbit_convergence_error():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=128,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    # the default start solves this frozen environment exactly (one map), so
    # start flat: that needs 10 maps
    with pytest.raises(fs.ConvergenceError, match="no principal eigenpair within"):
        fs.find_periodic_orbit(grid, model, max_periods=2, guess=np.ones(grid.nx))


def test_orbit_shape_is_the_eigenprofile(ex1_eigen):
    orbit = fs.orbit_from_pair(ex1_eigen)
    shape = _densities(orbit) / orbit.rho.values[:, None]
    masses = ex1_eigen.grid.dx * ex1_eigen.p_snapshots.sum(axis=1)
    profile = ex1_eigen.p_snapshots / masses[:, None]
    assert np.abs(shape - profile).max() <= 1e-12 * profile.max()


def test_orbit_is_a_trajectory_of_the_saturating_scheme():
    # n_k = p_k / y_k is exact: each recorded snapshot is one saturating step
    # of the previous one, and rho_k is its mass
    grid, stepper = _ex1_stepper()
    model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)
    rec = fs.find_periodic_orbit(grid, model)
    snaps, rho = _densities(rec), rec.rho.values
    np.testing.assert_allclose(grid.dx * snaps.sum(axis=1), rho, rtol=1e-12)
    for k in range(stepper.steps):
        out = stepper.step(snaps[k], k) / (1.0 + stepper.dt * rho[k])
        assert np.abs(out - snaps[k + 1]).max() <= 1e-12 * snaps[k + 1].max()
    assert rec.period_gap < 1e-7


@settings(max_examples=40, deadline=None)
@given(**_SMALL_CASES)
def test_orbit_is_positive_and_a_saturating_trajectory(nx, steps, sigma, r, g,
                                                        swing, pressure):
    grid, model = _small_case(nx, steps, sigma, r, g, swing, pressure)
    pair = fs.principal_eigenpair(grid, model, tol=1e-10)
    if pair.lam >= 0.0:
        with pytest.raises(fs.ExtinctionError):
            fs.orbit_from_pair(pair)
        return
    orbit = fs.orbit_from_pair(pair)
    stepper = _Stepper(grid, model)
    for k, rho in enumerate(orbit.rho.values):
        n = orbit.density(k)
        assert n.min() >= 0.0
        assert grid.dx * n.sum() == pytest.approx(rho, rel=1e-12, abs=0.0)
        if k < stepper.steps:
            after = orbit.density(k + 1)
            out = stepper.step(n, k) / (1.0 + stepper.dt * rho)
            assert np.abs(out - after).max() <= 1e-12 * after.max()


def test_orbit_owns_no_density_table(ex1_eigen):
    # the record is the pair plus the sizes: no copy of the 2049 x 800 table
    # (13 MiB), and the pair's table is left as it was
    before = ex1_eigen.p_snapshots.copy()
    tracemalloc.start()
    try:
        orbit = fs.orbit_from_pair(ex1_eigen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert orbit.pair is ex1_eigen
    assert orbit.rho.times is ex1_eigen.times
    assert orbit.rho.period == ex1_eigen.period
    assert np.array_equal(ex1_eigen.p_snapshots, before)


def test_find_periodic_orbit_rejects_bad_guess():
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=128,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    with pytest.raises(fs.ConfigError):
        fs.find_periodic_orbit(grid, model, guess=np.zeros(100))


@pytest.mark.parametrize("guess", [np.zeros(100), -np.ones(100)])
def test_principal_eigenpair_rejects_bad_guess(guess):
    grid = fs.SimulationGrid(x_lo=-3.0, x_hi=3.0, nx=100, steps_per_period=128,
                             sigma=0.01)
    model = fs.make_custom(1.0, lambda t, x: 1.0 - np.asarray(x) ** 2)
    with pytest.raises(fs.ConfigError, match="nonnegative with positive mass"):
        fs.principal_eigenpair(grid, model, guess=guess)


def test_orbit_record_shape(ex1_orbit, wide_grid):
    steps = wide_grid.steps_per_period
    assert ex1_orbit.pair.p_snapshots.shape == (steps + 1, wide_grid.nx)
    assert ex1_orbit.rho.times[0] == 0.0
    assert ex1_orbit.rho.times[-1] == pytest.approx(1.0)
    assert len(ex1_orbit.rho.values) == steps + 1
    assert ex1_orbit.period_gap < 1e-8
