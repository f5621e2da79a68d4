"""Driving Brownian motion, adapted path access, and the windows of the
windowed additive-noise processes z = eta (Y_0 + g w).

Randomness discipline: every stream is derived from a single 64-bit seed and a
tuple of integer keys via numpy's SeedSequence spawn keys, so Monte Carlo
results do not depend on scheduling order. Path p draws its K standard
normals once (`brownian_normals`); `brownian_values` scales them to the
Brownian values on any grid of K steps, for one path or a stack of paths.
A process itself is never built here: a linear map A takes z to
eta (A Y_0 + w A g), so every Carleman pairing is a polynomial in the path
scalars eta w with path-free coefficients (`carleman.node_coefficients`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdaptednessError, WindowError

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


def brownian_normals(seed: int, path_index: int, steps: int) -> np.ndarray:
    """The K standard normals of path `path_index`, drawn from its own stream
    (seed, STREAM_BROWNIAN, path_index). Path p draws the same normals on every
    time grid of K steps; `brownian_values` scales them to one."""
    return derive_rng(seed, STREAM_BROWNIAN, path_index).standard_normal(steps)


def brownian_values(normals: np.ndarray, dt: float) -> np.ndarray:
    """Brownian motion at the nodes, (..., K+1), from (..., K) standard normals:
    w(0) = 0 and increments 0 + sqrt(dt) z, the bytes `Generator.normal(0,
    sqrt(dt))` gives, summed in node order along the last axis."""
    values = np.zeros(normals.shape[:-1] + (normals.shape[-1] + 1,))
    np.cumsum(0.0 + math.sqrt(dt) * normals, axis=-1, out=values[..., 1:])
    return values


def sample_brownian(seed: int, path_index: int, time_grid: TimeGrid) -> BrownianPath:
    """Standard Brownian motion at the grid nodes, w(0) = 0, keyed by (seed, path_index)."""
    values = brownian_values(brownian_normals(seed, path_index, time_grid.steps), time_grid.dt)
    values.setflags(write=False)
    return BrownianPath(time_grid, values, int(seed), int(path_index))


def sine_window(time_grid: TimeGrid) -> np.ndarray:
    return np.sin(np.pi * time_grid.nodes() / time_grid.horizon)


def parabolic_window(time_grid: TimeGrid) -> np.ndarray:
    t = time_grid.nodes()
    return 4.0 * t * (time_grid.horizon - t) / time_grid.horizon**2


def pinned_window(eta: np.ndarray, time_grid: TimeGrid) -> np.ndarray:
    """A window eta for z = eta (Y_0 + g w): one value per node, vanishing at both
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
