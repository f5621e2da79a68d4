"""Array helpers shared by the test modules: a field is its coefficient array."""

import numpy as np


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
