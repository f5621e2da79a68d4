"""Driving Brownian motion, adapted path access, and windowed additive-noise
processes.

Randomness discipline: every stream is derived from a single 64-bit seed and a
tuple of integer keys via numpy's SeedSequence spawn keys, so Monte Carlo
results do not depend on scheduling order. Every simulated process is additive
noise, dY = g dw from Y_0, windowed by eta(t): z = eta (Y_0 + g w), held on the
Fourier columns where Y_0 or g is non-zero. A linear map A takes z to
eta (A Y_0 + w A g), so stacked generators build z and its images under
frozen operators in one cumulative sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdaptednessError, WindowError
from .grid import TorusGrid

# Stream tags keeping per-purpose randomness disjoint under one global seed.
STREAM_BROWNIAN = 1
STREAM_TRIAL_FIELDS = 2


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, *key); stable across platforms."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_k = k T / K on [0, T]."""

    horizon: float = 0.25
    steps: int = 512

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def node(self, k: int) -> float:
        return k * self.dt


@dataclass(frozen=True)
class BrownianPath:
    """One sampled trajectory of the driving 1-d Brownian motion."""

    time_grid: TimeGrid
    values: np.ndarray
    seed: int
    path_index: int

    def slice_at(self, cutoff_index: int) -> "PathSlice":
        if not (0 <= cutoff_index <= self.time_grid.steps):
            raise ValueError(f"cutoff index {cutoff_index} outside [0, {self.time_grid.steps}]")
        return PathSlice(self, cutoff_index)

    def full_slice(self) -> "PathSlice":
        return PathSlice(self, self.time_grid.steps)


@dataclass(frozen=True)
class PathSlice:
    """Causally truncated view of a BrownianPath: values visible only up to the cutoff.

    Evaluation rules receive a PathSlice whose cutoff equals their own time node,
    which makes adaptedness a structural property rather than a convention.
    """

    underlying: BrownianPath
    cutoff_index: int

    @property
    def cutoff_time(self) -> float:
        return self.underlying.time_grid.node(self.cutoff_index)

    def value_at_index(self, k: int) -> float:
        if k > self.cutoff_index:
            raise AdaptednessError(
                f"requested node {k} beyond adapted cutoff {self.cutoff_index}")
        return float(self.underlying.values[k])

    def value(self, t: float) -> float:
        """Piecewise-linear interpolant of the path, defined for t <= cutoff_time."""
        tg = self.underlying.time_grid
        if t < -1e-12 * tg.horizon or t > self.cutoff_time + 1e-12 * tg.horizon:
            raise AdaptednessError(
                f"requested time {t} beyond adapted cutoff {self.cutoff_time}")
        pos = min(max(t, 0.0), self.cutoff_time) / tg.dt
        k = min(int(math.floor(pos)), self.cutoff_index - 1) if self.cutoff_index > 0 else 0
        frac = pos - k
        w = self.underlying.values
        if self.cutoff_index == 0:
            return float(w[0])
        return float((1.0 - frac) * w[k] + frac * w[k + 1])


def sample_brownian(seed: int, path_index: int, time_grid: TimeGrid) -> BrownianPath:
    """Standard Brownian motion at the grid nodes, w(0) = 0, keyed by (seed, path_index)."""
    rng = derive_rng(seed, STREAM_BROWNIAN, path_index)
    increments = rng.normal(0.0, math.sqrt(time_grid.dt), size=time_grid.steps)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    values.setflags(write=False)
    return BrownianPath(time_grid, values, int(seed), int(path_index))


@dataclass
class Semimartingale:
    """A simulated L2-valued process along one path, held on its support: the
    flat Fourier coefficient indices it can occupy. `coefficients` stacks the
    support columns of every time-node snapshot as one (K+1, len(support))
    array, or as (J, K+1, len(support)) for J processes driven by one path;
    every other column is zero at every node."""

    time_grid: TimeGrid
    grid: TorusGrid
    coefficients: np.ndarray
    path: BrownianPath
    support: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape[-2:] != (self.time_grid.steps + 1, self.support.size):
            raise ValueError(
                f"coefficient array shape {self.coefficients.shape} does not hold "
                f"{self.support.size} support columns per time node")


def sine_window(time_grid: TimeGrid) -> np.ndarray:
    return np.sin(np.pi * time_grid.nodes() / time_grid.horizon)


def parabolic_window(time_grid: TimeGrid) -> np.ndarray:
    t = time_grid.nodes()
    return 4.0 * t * (time_grid.horizon - t) / time_grid.horizon**2


def pinned_window(eta: np.ndarray, time_grid: TimeGrid) -> np.ndarray:
    """A window eta for `additive_process`: one value per node, vanishing at both
    endpoints (tolerance 1e-14). The endpoint values are clamped to exactly
    zero, so that z(0) = z(T) = 0 holds exactly."""
    eta = np.array(eta, dtype=float)
    if eta.shape != (time_grid.steps + 1,):
        raise WindowError(f"window shape {eta.shape} does not match node count "
                          f"{time_grid.steps + 1}")
    scale = max(1.0, float(np.max(np.abs(eta))))
    if abs(eta[0]) > 1e-14 * scale or abs(eta[-1]) > 1e-14 * scale:
        raise WindowError(f"window endpoints must vanish, got {eta[0]} and {eta[-1]}")
    eta[0] = eta[-1] = 0.0
    return eta


def additive_process(initial: np.ndarray, noise: np.ndarray, eta: np.ndarray,
                     path: BrownianPath, grid: TorusGrid,
                     out: np.ndarray | None = None) -> Semimartingale:
    """The windowed additive-noise process z_k = eta_k Y_k with dY = g dw from
    Y_0, given the coefficients of Y_0 (`initial`) and g (`noise`) on the grid
    and a window from `pinned_window`.

    `initial` and `noise` may also be (J, M^n) stacks of generators. Row j of
    the result is then the process of (Y_0[j], g[j]) along the same path, so
    stacking (A Y_0, A g) for a linear A gives A z without applying A.

    The support is the columns where any Y_0 or g is non-zero. There Y_k =
    Y_0 + sum_{j<k} dw_j g is one cumulative sum, which adds in the order of
    the Ito steps Y_{k+1} = Y_k + dw_k g, and z is then one multiply by eta.
    The result is written into `out` when it is given, an array of its shape
    such as the previous path's coefficients from the same generators.
    """
    tg = path.time_grid
    single = initial.shape in (grid.shape, (grid.size,))
    initial, noise = initial.reshape(-1, grid.size), noise.reshape(-1, grid.size)
    support = np.flatnonzero(((initial != 0) | (noise != 0)).any(axis=0))
    shape = (len(initial), tg.steps + 1, support.size)
    coeffs = np.empty(shape, dtype=np.complex128) if out is None else out.reshape(shape)
    coeffs[:, 0] = initial[:, support]
    dw = path.values[1:] - path.values[:-1]
    np.multiply(dw[:, None], noise[:, None, support], out=coeffs[:, 1:])
    np.add.accumulate(coeffs, axis=1, out=coeffs)
    coeffs *= eta[:, None]
    return Semimartingale(tg, grid, coeffs[0] if single else coeffs, path, support)
