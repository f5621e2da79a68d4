"""Helpers shared by the test modules: a field is its coefficient array, and
a principal symbol's roots at one sample come from one stacked solve."""

import numpy as np

from spdolab.catalog import from_roots_principal
from spdolab.symbols import as_coords, solve_roots


def band_coefficients(grid, rng, max_frequency=None):
    """Coefficients, in `grid.shape`, of a random smooth field: Gaussian draws
    damped by (1+|xi|^2)^(-1/2), zero above `max_frequency` (default: the
    whole retained band)."""
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs *= (1.0 + grid.frequency_magnitude() ** 2) ** -0.5
    if max_frequency is not None:
        coeffs[grid.frequency_magnitude() > max_frequency] = 0.0
    return coeffs


def values(coefficients):
    """Grid values of a coefficient array in grid shape."""
    return np.fft.ifftn(coefficients, norm="forward")


def l2_norm(coefficients):
    """L2 norm under the normalized measure, by Parseval."""
    return float(np.sqrt(np.sum(np.abs(coefficients) ** 2)))


def roots_at(ps, t, slc, x, xi, residual_tol=None):
    """The sorted, polished roots of `ps` at one sample point: `solve_roots`
    on one sample. Raises RootSolveError when the residual misses its target."""
    x, xi = (tuple(c.reshape(1) for c in as_coords(v)) for v in (x, xi))
    return solve_roots(ps, [(t, slc)], x, xi, residual_tol).checked().roots[0]


def random_principal(m, rng, *, min_separation=0.6, trig=False):
    """Random catalog-style principal symbol with well-separated unit-scale roots."""
    while True:
        mu = rng.uniform(-2.0, 2.0, m) + 1j * rng.uniform(-2.0, 2.0, m)
        d = [abs(a - b) for i, a in enumerate(mu) for b in mu[i + 1:]]
        if not d or min(d) >= min_separation:
            break
    eps = rng.uniform(-0.2, 0.2, m) if trig else None
    return from_roots_principal(mu, name=f"random[m={m}]", trig_eps=eps)
