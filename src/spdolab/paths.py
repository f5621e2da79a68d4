"""Driving Brownian motion, adapted path access, and Ito-process semimartingales.

Randomness discipline: every stream is derived from a single 64-bit seed and a
tuple of integer keys via numpy's SeedSequence spawn keys, so Monte Carlo
results do not depend on scheduling order. Time stepping is Euler-Maruyama in
the Ito convention (integrands at left endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AdaptednessError, WindowError
from .grid import SpectralField, TorusGrid

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


# Drift/diffusion evaluation rules: (t, PathSlice, current state coefficients)
# -> coefficient array of the grid's shape.
FieldRule = Callable[[float, PathSlice, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ConstantRule:
    """A FieldRule that ignores (t, path, state) and returns fixed coefficients.

    A declared type rather than a lambda, so that `ito_process` can see that
    dY = g dw is additive noise."""

    coefficients: np.ndarray

    def __call__(self, t: float, slc: PathSlice, y: np.ndarray) -> np.ndarray:
        return self.coefficients


@dataclass
class Semimartingale:
    """A simulated L2-valued process along one path: the Fourier coefficients of
    every time-node snapshot, stacked as one (K+1, *grid.shape) array.

    `support`, when set, holds the flat coefficient indices the process can
    occupy; every other column is zero at every node. None means full width."""

    time_grid: TimeGrid
    grid: TorusGrid
    coefficients: np.ndarray
    path: BrownianPath
    drift: FieldRule | None = field(default=None, repr=False)
    diffusion: FieldRule | None = field(default=None, repr=False)
    support: np.ndarray | None = None

    def __post_init__(self):
        if self.coefficients.shape != (self.time_grid.steps + 1,) + self.grid.shape:
            raise ValueError(
                f"coefficient array shape {self.coefficients.shape} does not hold one "
                f"snapshot of shape {self.grid.shape} per time node")

    def snapshot(self, k: int) -> SpectralField:
        return SpectralField.from_coefficients(self.grid, self.coefficients[k])


def ito_process(drift: FieldRule | None, diffusion: FieldRule | None, path: BrownianPath,
                grid: TorusGrid, initial: SpectralField | None = None) -> Semimartingale:
    """Euler-Maruyama simulation of dY = f dt + g dw along the given path.

    Additive noise (no drift, and g absent or a ConstantRule) has the closed
    form Y_k = Y_0 + sum_{j<k} dw_j g: one cumulative sum over the columns
    where Y_0 or g is non-zero, which become the process's `support`. cumsum
    adds in the order of the step loop, so every value is the loop's to the
    last bit. Any other pair of rules is stepped node by node, each call
    seeing the path only up to its own node.
    """
    tg = path.time_grid
    coeffs = np.zeros((tg.steps + 1,) + grid.shape, dtype=np.complex128)
    if initial is not None:
        coeffs[0] = initial.coefficients
    dw = np.diff(path.values)
    if drift is None and (diffusion is None or isinstance(diffusion, ConstantRule)):
        flat = coeffs.reshape(tg.steps + 1, -1)
        g = (np.zeros(flat.shape[1], dtype=np.complex128) if diffusion is None
             else diffusion.coefficients.reshape(-1))
        support = np.flatnonzero((flat[0] != 0) | (g != 0))
        increments = np.empty((tg.steps + 1, support.size), dtype=np.complex128)
        increments[0] = flat[0, support]
        np.multiply(dw[:, None], g[support], out=increments[1:])
        flat[:, support] = np.cumsum(increments, axis=0)
        return Semimartingale(tg, grid, coeffs, path, drift, diffusion, support)
    times = tg.nodes().tolist()
    dw = dw.tolist()
    for k in range(tg.steps):
        slc = path.slice_at(k)
        y = coeffs[k]
        step = y
        if drift is not None:
            step = step + tg.dt * drift(times[k], slc, y)
        if diffusion is not None:
            step = step + dw[k] * diffusion(times[k], slc, y)
        coeffs[k + 1] = step
    return Semimartingale(tg, grid, coeffs, path, drift, diffusion)


def sine_window(time_grid: TimeGrid) -> np.ndarray:
    return np.sin(np.pi * time_grid.nodes() / time_grid.horizon)


def parabolic_window(time_grid: TimeGrid) -> np.ndarray:
    t = time_grid.nodes()
    return 4.0 * t * (time_grid.horizon - t) / time_grid.horizon**2


def windowed_ito_process(drift: FieldRule | None, diffusion: FieldRule | None,
                         window: Callable[[TimeGrid], np.ndarray] | np.ndarray | None,
                         path: BrownianPath, grid: TorusGrid,
                         initial: SpectralField | None = None) -> Semimartingale:
    """Admissible endpoint-pinned process z(t) = eta(t) Y(t) with dY = f dt + g dw.

    The window eta must vanish at both endpoints (tolerance 1e-14); its endpoint
    values are then clamped to exactly zero so that z(0) = z(T) = 0 holds exactly.
    Default window: eta(t) = sin(pi t / T).
    """
    tg = path.time_grid
    if window is None:
        eta = sine_window(tg)
    elif callable(window):
        eta = np.asarray(window(tg), dtype=float)
    else:
        eta = np.asarray(window, dtype=float)
    if eta.shape != (tg.steps + 1,):
        raise WindowError(f"window shape {eta.shape} does not match node count {tg.steps + 1}")
    scale = max(1.0, float(np.max(np.abs(eta))))
    if abs(eta[0]) > 1e-14 * scale or abs(eta[-1]) > 1e-14 * scale:
        raise WindowError(f"window endpoints must vanish, got {eta[0]} and {eta[-1]}")
    eta = eta.copy()
    eta[0] = 0.0
    eta[-1] = 0.0

    z = ito_process(drift, diffusion, path, grid, initial)
    columns = slice(None) if z.support is None else z.support
    z.coefficients.reshape(tg.steps + 1, -1)[:, columns] *= eta[:, None]
    return z


def realized_quadratic_variation(z: Semimartingale) -> np.ndarray:
    """Per-step spatially integrated squared increments  ||z_{k+1} - z_k||_{L2}^2,
    summed over frequencies by Parseval."""
    dz = np.diff(z.coefficients, axis=0)
    return np.sum(np.abs(dz) ** 2, axis=tuple(range(1, dz.ndim)))


def constant_field_rule(value: SpectralField) -> ConstantRule:
    """Evaluation rule that ignores (t, path, state) and returns a fixed field."""
    return ConstantRule(value.coefficients)
