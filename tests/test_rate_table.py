"""rate_table fills blocks of rows with one broadcast rate call each; the
table must be bit for bit the row-by-row evaluation of the model's rate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluctsel as fs
from fluctsel.env_models import RATE_BLOCK


def _ex1():
    return fs.make_oscillating_optimum(1.0, 1.0, 1.0, 2.0 * np.pi)


def _tabulated():
    t_nodes = np.arange(16) / 16.0
    x_nodes = np.linspace(-3.0, 3.0, 33)
    ex1 = _ex1()
    return fs.make_tabulated(1.0, t_nodes, x_nodes,
                             np.array([ex1.rate(t, x_nodes) for t in t_nodes]))


MODELS = {
    "oscillating_optimum": fs.make_oscillating_optimum(0.5, 2.0, 0.7, 3.0),
    "oscillating_pressure": fs.make_oscillating_pressure(
        1.0, lambda t: 2.0 + 1.8 * np.cos(2.0 * np.pi * t)),
    "constant_pressure": fs.make_oscillating_pressure(1.0, lambda t: 2.0),
    "tabulated": _tabulated(),
    # a rate that only takes a scalar t
    "custom_math_sin": fs.make_custom(
        1.0, lambda t, x: 1.0 - (np.asarray(x) - math.sin(2.0 * math.pi * t)) ** 2),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=20, deadline=None)
@given(times=st.lists(st.floats(-3.5, 4.5), min_size=1, max_size=45),
       nx=st.sampled_from([0, 33, 801, 5000, RATE_BLOCK + 100]))
@example(times=[0.05 * k - 1.0 for k in range(41)], nx=801)  # blocks of 20, 20, 1
@example(times=[-0.7, 0.0, 1.0, 1.3], nx=RATE_BLOCK + 100)  # one row per block
def test_rate_table_is_row_by_row_bitwise(name, times, nx):
    model = MODELS[name]
    x = np.linspace(-3.5, 3.5, nx) if nx else 0.3  # nx = 0: a scalar trait
    table = fs.rate_table(model, times, x)
    expect = np.stack([np.broadcast_to(model.rate(t, x), (np.size(x),))
                       for t in times])
    assert table.shape == expect.shape
    assert table.tobytes() == expect.tobytes()


@settings(max_examples=30, deadline=None)
@given(times=st.lists(st.floats(-3.5, 4.5), min_size=1, max_size=30))
def test_tabulated_rows_are_np_interp_bitwise(times):
    # the broadcast interpolant against np.interp of the bilinear time row,
    # on points outside the nodes, on the nodes and between them
    tab = MODELS["tabulated"]
    x_nodes = np.linspace(-3.0, 3.0, 33)
    values = np.array([_ex1().rate(t, x_nodes) for t in np.arange(16) / 16.0])
    xs = np.concatenate((np.linspace(-3.5, 3.5, 71), x_nodes))
    expect = []
    for t in times:
        pos = (t % 1.0) / (1.0 / 16)
        j0 = int(np.floor(pos)) % 16
        w = pos - np.floor(pos)
        row = (1.0 - w) * values[j0] + w * values[(j0 + 1) % 16]
        expect.append(np.interp(xs, x_nodes, row))
    assert fs.rate_table(tab, times, xs).tobytes() == np.array(expect).tobytes()


def _counted(rate):
    shapes = []

    def counted(t, x):
        shapes.append(np.shape(t))
        return rate(t, x)

    return counted, shapes


def test_rate_table_makes_one_call_per_block():
    ex1 = _ex1()
    rate, shapes = _counted(ex1.rate)
    model = fs.EnvironmentModel(period=ex1.period, rate=rate)
    times = np.linspace(0.0, 1.0, 2048)
    x = np.linspace(-4.0, 4.0, 800)
    table = fs.rate_table(model, times, x)
    rows = RATE_BLOCK // 800
    assert len(shapes) == math.ceil(2048 / rows)
    assert shapes[:-1] == [(rows, 1)] * (len(shapes) - 1)
    assert shapes[-1] == (2048 % rows or rows, 1)
    assert table.tobytes() == fs.rate_table(ex1, times, x).tobytes()


def test_custom_rate_is_called_once_per_time():
    rate, shapes = _counted(lambda t, x: 1.0 - (np.asarray(x) - math.sin(t)) ** 2)
    fs.rate_table(fs.make_custom(1.0, rate), np.linspace(0.0, 1.0, 2048),
                  np.linspace(-4.0, 4.0, 800))
    assert shapes == [()] * 2048
