"""Spatial discretization on the periodic torus: grids, spectral fields, Sobolev norms.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class SpectralField:
    """A complex field on a TorusGrid, kept in physical and/or frequency form.

    Either representation may be supplied; the other is computed on demand and
    cached. Instances are treated as immutable: arrays are marked read-only and
    all operations return new fields.
    """

    grid: TorusGrid
    _values: np.ndarray | None = field(default=None, repr=False)
    _coefficients: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._values is None and self._coefficients is None:
            raise ValueError("SpectralField needs values or coefficients")
        for arr in (self._values, self._coefficients):
            if arr is not None and arr.shape != self.grid.shape:
                raise ValueError(f"array shape {arr.shape} does not match grid shape {self.grid.shape}")

    @classmethod
    def from_values(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        v = np.ascontiguousarray(values, dtype=np.complex128)
        v.setflags(write=False)
        return cls(grid, _values=v)

    @classmethod
    def from_coefficients(cls, grid: TorusGrid, coefficients: np.ndarray) -> "SpectralField":
        c = np.ascontiguousarray(coefficients, dtype=np.complex128)
        c.setflags(write=False)
        return cls(grid, _coefficients=c)

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        return cls.from_coefficients(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def pure_mode(cls, grid: TorusGrid, mode: int | tuple[int, ...], amplitude: complex = 1.0) -> "SpectralField":
        """The field amplitude * e^{i mode . x}; `mode` must be retained."""
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
        return cls.from_coefficients(grid, coeffs)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            v = np.fft.ifftn(self._coefficients, norm="forward")
            v.setflags(write=False)
            self._values = v
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        if self._coefficients is None:
            c = np.fft.fftn(self._values, norm="forward")
            c.setflags(write=False)
            self._coefficients = c
        return self._coefficients

    def coefficient_at(self, mode: int | tuple[int, ...]) -> complex:
        if isinstance(mode, int):
            mode = (mode,)
        idx = tuple(k % self.grid.points_per_axis for k in mode)
        return complex(self.coefficients[idx])

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField.from_coefficients(self.grid, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField.from_coefficients(self.grid, self.coefficients - other.coefficients)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField.from_coefficients(self.grid, self.coefficients * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)


def _check_same_grid(a, b) -> None:
    from .errors import GridMismatchError

    ga = a.grid if hasattr(a, "grid") else a
    gb = b.grid if hasattr(b, "grid") else b
    if ga != gb:
        raise GridMismatchError(f"grids differ: {ga} vs {gb}")


def l2_norm(f: SpectralField) -> float:
    """L2 norm under the normalized measure: sqrt(mean_j |u_j|^2)."""
    v = f.values
    return float(np.sqrt(np.mean(np.abs(v) ** 2)))


def inner(f: SpectralField, g: SpectralField) -> complex:
    """L2 pairing  mean_j f_j conj(g_j), linear in the first argument."""
    _check_same_grid(f, g)
    return complex(np.mean(f.values * np.conj(g.values)))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Spectral Sobolev norm  sqrt(sum_xi (1+|xi|^2)^s |u_hat(xi)|^2)."""
    w = (1.0 + f.grid.frequency_magnitude() ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coefficients) ** 2)))


def differentiate(f: SpectralField, axis: int = 0, order: int = 1) -> SpectralField:
    """Apply D_{x_axis}^order = ((1/i) d/dx_axis)^order, i.e. multiply by xi_axis^order."""
    if not (0 <= axis < f.grid.dim):
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    xi = f.grid.frequency_grids()[axis]
    return SpectralField.from_coefficients(f.grid, f.coefficients * xi**order)


def random_band_limited_field(grid: TorusGrid, rng: np.random.Generator, max_frequency: int | None = None,
                              decay: float = 1.0) -> SpectralField:
    """Random smooth test field: Gaussian coefficients damped by (1+|xi|^2)^{-decay/2}.

    Frequencies above `max_frequency` (default: the full retained band) are zeroed.
    """
    shape = grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs *= (1.0 + grid.frequency_magnitude() ** 2) ** (-decay / 2.0)
    if max_frequency is not None:
        coeffs[grid.frequency_magnitude() > max_frequency] = 0.0
    return SpectralField.from_coefficients(grid, coeffs)
