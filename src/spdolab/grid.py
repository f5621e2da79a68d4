"""Spatial discretization on the periodic torus: grids, pure-mode coefficients, Sobolev norms.

Conventions, fixed once for the whole package:

* The domain is the torus [0, 2pi)^n with n in {1, 2}; nodes are x_j = 2pi j / M.
* Fourier coefficients use the forward-normalized pair

      u_hat(xi) = M^{-n} sum_j e^{-i x_j . xi} u(x_j),
      u(x_j)    = sum_xi e^{i x_j . xi} u_hat(xi),

  with integer frequencies xi in [-M/2, M/2 - 1] per axis (FFT layout).
* The L2 inner product carries the normalized measure dx / (2pi)^n, i.e. a grid
  mean, so that Parseval reads  mean_j |u_j|^2 = sum_xi |u_hat(xi)|^2  exactly
  and a pure mode e^{i k x} has unit norm.
* D_x denotes (1/i) d/dx, so differentiation is multiplication by xi with no
  extra imaginary factors.
* A field is the array of its Fourier coefficients, in `grid.shape` or
  flattened to `grid.size`; stacks of fields (time nodes, columns) add a
  leading axis. `SpectralField` only pairs one such array with its grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, 2pi)^dim with a power-of-two point count per axis."""

    dim: int = 1
    points_per_axis: int = 128

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.points_per_axis):
            raise ValueError(f"points_per_axis must be a power of two >= 2, got {self.points_per_axis}")

    @property
    def frequency_cutoff(self) -> int:
        """N = M/2; retained integer frequencies per axis run over [-N, N-1]."""
        return self.points_per_axis // 2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    def axis_nodes(self) -> np.ndarray:
        m = self.points_per_axis
        return 2.0 * np.pi * np.arange(m) / m

    def axis_frequencies(self) -> np.ndarray:
        m = self.points_per_axis
        return np.fft.fftfreq(m, d=1.0 / m)

    def node_grids(self) -> tuple[np.ndarray, ...]:
        """Physical coordinates per axis, broadcastable to `shape`."""
        x = self.axis_nodes()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def frequency_grids(self) -> tuple[np.ndarray, ...]:
        """Integer frequencies per axis in FFT layout, broadcastable to `shape`."""
        xi = self.axis_frequencies()
        if self.dim == 1:
            return (xi,)
        return tuple(np.meshgrid(xi, xi, indexing="ij"))

    def frequency_magnitude(self) -> np.ndarray:
        grids = self.frequency_grids()
        return np.sqrt(sum(g**2 for g in grids))


def mode_coefficients(grid: TorusGrid, mode: int | tuple[int, ...],
                      amplitude: complex = 1.0) -> np.ndarray:
    """Coefficients, in `grid.shape`, of amplitude * e^{i mode . x}; `mode`
    must be retained."""
    if isinstance(mode, int):
        mode = (mode,)
    if len(mode) != grid.dim:
        raise ValueError(f"mode {mode} does not match grid dim {grid.dim}")
    n = grid.frequency_cutoff
    idx = []
    for k in mode:
        if not (-n <= k <= n - 1):
            raise ValueError(f"mode {k} outside retained band [{-n}, {n - 1}]")
        idx.append(k % grid.points_per_axis)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[tuple(idx)] = amplitude
    return coeffs


def sobolev_norm(grid: TorusGrid, coefficients: np.ndarray, s: float) -> float:
    """Spectral Sobolev norm  sqrt(sum_xi (1+|xi|^2)^s |u_hat(xi)|^2)  of a
    coefficient array in `grid.shape` or flattened."""
    w = (1.0 + grid.frequency_magnitude() ** 2) ** s
    c = np.reshape(coefficients, grid.shape)
    return float(np.sqrt(np.sum(w * np.abs(c) ** 2)))


@dataclass(frozen=True)
class SpectralField:
    """A (grid, coefficients) pair with its grid values on demand. No module
    of the package builds one; perfbench's 2-D study takes its modes from
    `pure_mode` and counts constructions."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != self.grid.shape:
            raise ValueError(f"array shape {self.coefficients.shape} does not match "
                             f"grid shape {self.grid.shape}")

    @classmethod
    def pure_mode(cls, grid: TorusGrid, mode: int | tuple[int, ...],
                  amplitude: complex = 1.0) -> "SpectralField":
        return cls(grid, mode_coefficients(grid, mode, amplitude))

    @property
    def values(self) -> np.ndarray:
        return np.fft.ifftn(self.coefficients, norm="forward")
