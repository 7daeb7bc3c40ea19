"""cumulative_uniform: fourth-order prefix integrals, summed in place.

The Simpson pairs and the 3/8 tails are summed in preallocated work arrays
and the prefix sum is taken straight into the output; the reference here
is the same rule written as whole-array expressions, which must give the
same bits, signed zeros included.
"""

import numpy as np
import pytest

from freqlab.quadrature import cumulative_uniform


def reference(g, h):
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    out = np.zeros_like(g)
    pair = (h / 3.0) * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    out[0::2] = np.concatenate([np.zeros((1,) + g.shape[1:]),
                                np.cumsum(pair, axis=0)])
    out[1] = (h / 24.0) * (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3])
    out[3] = (3.0 * h / 8.0) * (g[0] + 3.0 * g[1] + 3.0 * g[2] + g[3])
    m = 2 * ((n - 4) // 2)
    tail = (3.0 * h / 8.0) * (g[2:2 + m:2] + 3.0 * g[3:3 + m:2]
                              + 3.0 * g[4:4 + m:2] + g[5::2])
    out[5::2] = out[2:2 + m:2] + tail
    return out


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 100, 101, 60001, 60002])
@pytest.mark.parametrize("columns", [(), (1,), (3,)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_in_place_sums_keep_the_bits(n, columns, order):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n,) + columns)
    g[rng.random(g.shape) < 0.1] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    for samples in (g, -np.zeros_like(g)):
        samples = np.asarray(samples, order=order)
        got, ref = cumulative_uniform(samples, 0.01), reference(samples, 0.01)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 101])
def test_prefixes_are_exact_on_cubics(n):
    x = np.linspace(0.0, 1.3, n)
    g = 1.0 - 2.0 * x + 0.5 * x ** 2 + 3.0 * x ** 3
    exact = x - x ** 2 + x ** 3 / 6.0 + 0.75 * x ** 4
    np.testing.assert_allclose(cumulative_uniform(g, x[1] - x[0]), exact,
                               rtol=0, atol=1e-13)


def test_too_few_samples():
    with pytest.raises(ValueError):
        cumulative_uniform(np.ones(3), 0.1)
