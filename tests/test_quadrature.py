"""fluctsel.quadrature.cumulative_simpson against scipy.integrate, its
reference, bit for bit, on samples and down the columns of a table."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctsel.quadrature import cumulative_simpson

LENGTHS = (2, 3, 4, 5, 2048, 2049)


def _samples(n, columns=None):
    """Positive, non-polynomial samples on a uniform grid."""
    t = np.linspace(0.0, 1.0, n)
    if columns is not None:
        t = t[:, None] + np.arange(columns)
    return 2.0 + np.sin(7.0 * t) + 0.5 * np.exp(-t)


@pytest.mark.parametrize("n", LENGTHS)
def test_matches_scipy_on_one_axis(n):
    y, dx = _samples(n), 1.0 / max(n - 1, 1)
    want = scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0)
    assert np.array_equal(cumulative_simpson(y, dx), want)


@pytest.mark.parametrize("n", (2048, 2049))
def test_matches_scipy_down_the_columns(n):
    # the shape of the cell solution: nt + 1 times against a 5-point stencil
    y, dx = _samples(n, columns=5), 1.0 / (n - 1)
    got = cumulative_simpson(y, dx)
    assert got.shape == y.shape
    assert np.array_equal(
        got, scipy.integrate.cumulative_simpson(y, dx=dx, axis=0, initial=0.0))


@pytest.mark.parametrize("n", (3, 5, 2049))
def test_exact_on_polynomials(n):
    t, dx = np.linspace(0.0, 2.0, n, retstep=True)
    assert np.allclose(cumulative_simpson(3.0 * t * t, dx), t ** 3,
                       rtol=1e-14, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(y=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=80),
       dx=st.floats(1e-3, 10.0))
def test_property_matches_scipy(y, dx):
    y = np.array(y)
    assert np.array_equal(cumulative_simpson(y, dx),
                          scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0))
