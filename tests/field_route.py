"""The field route: the six Carleman terms of a path from its fields, the
tests' oracle for the scalar route of `spdolab.carleman`.

A path of the windowed additive-noise process z = eta (Y_0 + g w) is held as
the coordinates of z and its images under A1, B1 and B1* at every node, and
each term pairs those fields node by node. `carleman.run_cells` never builds
these arrays: it takes each term as a polynomial in the path's scalars
v_k = eta_k w_k and dv_k = v_{k+1} - v_k. The field route is the independent
check that the polynomials hold the same terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spdolab.carleman import time_weights
from spdolab.paths import BrownianPath, TimeGrid


@dataclass
class Semimartingale:
    """A simulated L2-valued process along one path. `coefficients` stacks its
    coordinates at every time node as one (K+1, S) array, or as (J, K+1, S)
    for J processes driven by one path. The S columns are coordinates in an
    orthonormal system, so the L2 pairing of two snapshots is the sum of
    f conj(g) over them (Parseval)."""

    time_grid: TimeGrid
    coefficients: np.ndarray
    path: BrownianPath

    def __post_init__(self):
        if self.coefficients.ndim < 2 or \
                self.coefficients.shape[-2] != self.time_grid.steps + 1:
            raise ValueError(
                f"coefficient array shape {self.coefficients.shape} does not hold "
                f"{self.time_grid.steps + 1} time nodes")


def additive_paths(initial: np.ndarray, noise: np.ndarray, eta: np.ndarray,
                   values: np.ndarray) -> np.ndarray:
    """The windowed additive-noise process z_k = eta_k Y_k with dY = g dw from
    Y_0 along B paths at once: the (B, J, K+1, S) array whose [b, j] is the
    process of (Y_0[j], g[j]) along path b, given (J, S) stacks of the
    coordinates of Y_0 (`initial`) and g (`noise`), a window from
    `pinned_window` and the paths' (B, K+1) node values. Stacking (A Y_0, A g)
    for a linear A gives A z without applying A.

    Y_k = Y_0 + sum_{j<k} dw_j g is one cumulative sum along the node axis,
    which adds in the order of the Ito steps Y_{k+1} = Y_k + dw_k g, and z is
    then one multiply by eta. Each path's entries are computed as they are
    for that path alone, so a path's bytes do not depend on its block."""
    dw = values[:, 1:] - values[:, :-1]
    coeffs = np.empty((len(values), len(initial), values.shape[-1], initial.shape[-1]),
                      dtype=np.complex128)
    coeffs[:, :, 0] = initial
    np.multiply(dw[:, None, :, None], noise[:, None], out=coeffs[:, :, 1:])
    np.add.accumulate(coeffs, axis=2, out=coeffs)
    coeffs *= eta[:, None]
    return coeffs


def additive_process(initial: np.ndarray, noise: np.ndarray, eta: np.ndarray,
                     path: BrownianPath) -> Semimartingale:
    """`additive_paths` along one path. `initial` and `noise` are the (S,)
    coordinates of Y_0 and g, or (J, S) stacks of generators; row j of the
    result is then the process of (Y_0[j], g[j]). The process holds exactly
    those S columns."""
    single = initial.ndim == 1
    coeffs = additive_paths(np.atleast_2d(initial), np.atleast_2d(noise), eta,
                            path.values[None])[0]
    return Semimartingale(path.time_grid, coeffs[0] if single else coeffs, path)


def block_terms(coefficients: np.ndarray, time_grid: TimeGrid, mu: float,
                weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Six inequality terms along each path of a block, (B, 6) = (term1, term2,
    r1..r4) per path, with the weight scaled by e^{-mu T^2}.

    `coefficients` is the (B, J, K+1, S) array of `additive_paths`: per path,
    z, A1 z, B1 z and, unless B1 is self-adjoint (J = 3), B1* z, as
    coordinates in an orthonormal system: Fourier coefficients, or the at most
    2J of `image_coordinates`. Every spatial pairing is the sum of f conj(g)
    over the S columns, and S = 0 gives six terms of +0.0. Each path goes
    through the same elementwise operations, last-axis pairings and last-axis
    node sums whatever else the block holds, so its terms have the same bytes
    in any block. `weights` is `time_weights(time_grid, mu)`."""
    dt, ks = time_grid.dt, slice(0, time_grid.steps)
    shift, weight, trap = weights if weights is not None else time_weights(time_grid, mu)
    coeffs, a1_z, b1_z = coefficients[:, 0], coefficients[:, 1], coefficients[:, 2]
    work = np.empty((2,) + coeffs.shape, dtype=coeffs.dtype)

    def pair(f, g):
        # spatial L2 pairing per node: the grid mean of f conj(g), by Parseval
        # (vecdot conjugates its first argument)
        return np.vecdot(g, f)

    def total(x):  # each path's sum over the nodes
        return np.sum(x, axis=-1)

    def mixed(rows):  # mu (t-T) z - B1 z at the nodes `rows`, in work[0]
        out = np.multiply(mu * shift[rows, None], coeffs[:, rows], out=work[0][:, rows])
        out -= b1_z[:, rows]
        return out

    norm2 = pair(coeffs, coeffs).real
    term1 = total(trap * weight * norm2)
    m = mixed(slice(None))
    term2 = total(trap * weight * pair(m, m).real) / mu

    dz = np.subtract(coeffs[:, 1:], coeffs[:, :-1], out=work[1][:, ks])
    qv = pair(dz, dz).real
    r3 = -2.0 * total(shift[ks] * weight[ks] * qv)
    b1_dz = np.subtract(b1_z[:, 1:], b1_z[:, :-1], out=work[0][:, ks])
    r4 = -2.0 / mu * total(weight[ks] * pair(dz, b1_dz).real)

    # bracket = -i dz - dt A1 z - i dt B1 z, in dz's place
    bracket = np.multiply(-1j, dz, out=dz)
    bracket -= np.multiply(a1_z[:, ks], dt, out=work[0][:, ks])
    bracket -= np.multiply(b1_z[:, ks], 1j * dt, out=work[0][:, ks])
    # the comparison field is i * mixed, and Re (f, i g) = Im (f, g)
    r1 = 4.0 / mu * total(weight[ks] * pair(bracket, mixed(ks)).imag)
    if coefficients.shape[1] == 3:
        r2 = np.zeros_like(r1)  # self-adjoint: the skew part B1 - B1* vanishes identically
    else:
        skew = np.subtract(b1_z[:, ks], coefficients[:, 3, ks], out=work[0][:, ks])
        r2 = -2.0 / mu * total(weight[ks] * pair(bracket, skew).imag)
    # + 0.0 turns the -0.0 of a negative factor times an empty or zero sum
    # into +0.0, and leaves every other value's bytes as they are
    return np.stack([term1, term2, r1, r2, r3, r4], axis=-1) + 0.0


def path_terms(z: Semimartingale, mu: float,
               weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The (6,) terms of one path: `block_terms` of the block that holds only
    z, whose `coefficients` are one path's (J, K+1, S) stack."""
    return block_terms(z.coefficients[None], z.time_grid, mu, weights)[0]
