"""Helpers shared by the test modules: a field is its coefficient array, and
a principal symbol's roots at one sample come from one stacked solve."""

import numpy as np

from spdolab.symbols import PrincipalSymbol, Symbol, magnitude, solve_roots


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


def as_coords(v):
    """A scalar, an array, or a tuple of them, as a tuple of float arrays, one
    per axis."""
    if isinstance(v, tuple):
        return tuple(np.asarray(c, dtype=float) for c in v)
    return (np.asarray(v, dtype=float),)


def roots_at(ps, t, slc, x, xi, residual_tol=None):
    """The sorted, polished roots of `ps` at one sample point: `solve_roots`
    on one sample. Raises RootSolveError when the residual misses its target."""
    x, xi = (tuple(c.reshape(1) for c in as_coords(v)) for v in (x, xi))
    return solve_roots(ps, [(t, slc)], x, xi, residual_tol).checked().roots[0]


def trig_roots_principal(unit_roots, trig_eps, name):
    """Monic principal symbol whose coefficient c_k is that of the roots
    mu_k |xi| times (1 + eps_k sin x): x-dependent where an eps_k is non-zero,
    with roots kept apart for small eps."""
    mu = np.asarray(list(unit_roots), dtype=complex)
    m = len(mu)
    minus_c = -np.poly(mu)[1:][::-1]  # c_0, ..., c_{m-1}

    def term(k):
        ck, ek = complex(minus_c[k]), float(trig_eps[k])
        if ek:
            return (lambda t, slc, x: ck * (1.0 + ek * np.sin(x[0])),
                    lambda t, slc, xi: magnitude(xi) ** (m - k))
        return (None, lambda t, slc, xi: ck * magnitude(xi) ** (m - k))

    return PrincipalSymbol(name, m, tuple(Symbol(f"c{k}[{name}]", float(m - k), (term(k),))
                                          for k in range(m)))


def random_principal(m, rng, *, min_separation=0.6, trig=False):
    """Random catalog-style principal symbol with well-separated unit-scale roots."""
    while True:
        mu = rng.uniform(-2.0, 2.0, m) + 1j * rng.uniform(-2.0, 2.0, m)
        d = [abs(a - b) for i, a in enumerate(mu) for b in mu[i + 1:]]
        if not d or min(d) >= min_separation:
            break
    eps = rng.uniform(-0.2, 0.2, m) if trig else np.zeros(m)
    return trig_roots_principal(mu, eps, f"random[m={m}]")
