"""Composite quadrature and differentiation helpers on uniform grids.

Everything here is fourth-order accurate: cumulative Simpson (with 3/8 and
short-prefix closures for odd prefixes), spectral angular derivatives, and
five-point radial stencils.
"""

import numpy as np

__all__ = [
    "cumulative_uniform",
    "unit_sphere_area",
    "deriv_uniform",
    "deriv_periodic_fft",
    "radial_laplacian",
]


def cumulative_uniform(g, h):
    """Prefix integrals \\int_0^{x_i} of samples g on a uniform grid, 4th order.

    Integrates along the first axis.  Even prefixes use composite Simpson;
    odd prefixes close with a 3/8 rule; the one- and three-interval prefixes
    use cubic Newton-Cotes weights.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    out = np.zeros_like(g)
    if n < 4:
        raise ValueError("need at least 4 samples for 4th-order prefixes")
    # Simpson pairs: S[i] = S[i-2] + h/3 (g[i-2] + 4 g[i-1] + g[i]), even i
    pair = (h / 3.0) * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    even = np.concatenate([np.zeros((1,) + g.shape[1:]), np.cumsum(pair, axis=0)])
    out[0::2] = even
    # i = 1: integral of the cubic through nodes 0..3 over [0, h]
    out[1] = (h / 24.0) * (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3])
    # i = 3: 3/8 rule on [0, 3h]
    out[3] = (3.0 * h / 8.0) * (g[0] + 3.0 * g[1] + 3.0 * g[2] + g[3])
    # odd i >= 5 (none when n <= 5): Simpson through i-3 plus a 3/8 tail
    m = 2 * ((n - 4) // 2)  # span of the odd i >= 5
    tail = (3.0 * h / 8.0) * (g[2:2 + m:2] + 3.0 * g[3:3 + m:2] + 3.0 * g[4:4 + m:2]
                              + g[5::2])
    out[5::2] = out[2:2 + m:2] + tail
    return out


def unit_sphere_area(dim):
    """Surface measure of the unit sphere in R^dim."""
    from math import gamma, pi

    return 2.0 * pi ** (dim / 2.0) / gamma(dim / 2.0)


def deriv_uniform(g, h):
    """Five-point first derivative of samples g on a uniform grid of step h,
    one-sided at the edges."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples")
    d = np.empty_like(g)
    d[2:-2] = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * h)
    # one-sided 5-point stencils at the boundary rows
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = np.tensordot(c0, g[:5], axes=(0, 0)) / h
    d[1] = np.tensordot(c1, g[:5], axes=(0, 0)) / h
    d[-1] = -np.tensordot(c0, g[-5:][::-1], axes=(0, 0)) / h
    d[-2] = -np.tensordot(c1, g[-5:][::-1], axes=(0, 0)) / h
    return d


def deriv_periodic_fft(g):
    """Spectral derivative along the last axis of periodic samples over
    [0, 2pi)."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers
    gh = np.fft.rfft(g) * (1j * k)
    if n % 2 == 0:
        # zero the unmatched Nyquist mode for a real, antisymmetric derivative
        gh[..., -1] = 0.0
    return np.fft.irfft(gh, n=n)


def radial_laplacian(u, r, dim):
    """u'' + (dim - 1) u' / r of a radial profile u on the uniform nodes r.

    Both derivatives are five-point differences (`deriv_uniform`) with
    step h = r[1] - r[0]; at r = 0 the damping term is dropped.
    """
    h = float(r[1] - r[0])
    up = deriv_uniform(u, h)
    upp = deriv_uniform(up, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        return upp + (dim - 1) * up / np.where(r > 0, r, np.inf)
