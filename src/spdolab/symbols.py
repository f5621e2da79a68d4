"""Symbol layer: symbol objects, empirical class verification, ellipticity,
principal symbols, characteristic roots, and root-structure hypothesis checks.

A symbol is a short sum of separated terms f_r(t, path, x) g_r(t, path, xi)
with a declared frequency growth order l. Membership in the declared class
is verified empirically: finite-difference derivatives up to combined
order two, sampled over (t, path, x) and log-spaced frequency magnitudes, with
a least-squares log-log slope fitted over the asymptotic (upper) half of the
frequency range. Spatial and frequency arguments are passed as tuples of
arrays, one entry per axis, broadcastable against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, OrderFitError, RootSolveError
from .paths import PathSlice, TimeGrid, derive_rng, sample_brownian, STREAM_SAMPLING

ArrayLike = np.ndarray | float
Coords = tuple[np.ndarray, ...]
SymbolFn = Callable[[float, PathSlice | None, Coords, Coords], np.ndarray]
# a factor of a separated symbol: (t, slc, x) or (t, slc, xi) -> values
FactorFn = Callable[[float, PathSlice | None, Coords], np.ndarray]
# one term f_r(t, w, x) g_r(t, w, xi); f_r = None means 1
SeparatedTerm = tuple[FactorFn | None, FactorFn]

# A root counts as complex when its imaginary part clears this relative floor.
COMPLEX_ROOT_REL_TOL = 1e-8


def as_coords(v) -> Coords:
    """Normalize a scalar/array or tuple of them to the tuple-per-axis form."""
    if isinstance(v, tuple):
        return tuple(np.asarray(c, dtype=float) for c in v)
    return (np.asarray(v, dtype=float),)


def abs2(xi: Coords) -> np.ndarray:
    return sum(c**2 for c in xi)


def magnitude(xi: Coords) -> np.ndarray:
    return np.sqrt(abs2(xi))


def _separated_rule(terms: tuple[SeparatedTerm, ...]) -> SymbolFn:
    """The evaluation rule sum_r f_r(t, w, x) g_r(t, w, xi) of a separated form."""

    def fn(t, slc, x, xi):
        total = None
        for f, g in terms:
            term = np.asarray(g(t, slc, xi), dtype=complex)
            if f is not None:
                term = f(t, slc, x) * term
            total = term if total is None else total + term
        shape = np.broadcast(*x, *xi).shape
        if total.shape == shape:
            return total
        out = np.empty(shape, dtype=complex)
        out[...] = total
        return out

    return fn


@dataclass
class Symbol:
    """A symbol as a short sum of separated terms f_r(t, w, x) g_r(t, w, xi)
    (f_r = None meaning 1), with a declared order.

    The evaluation rule `fn` is derived from the terms, so the two cannot
    disagree, and `x_dependent` says whether any f_r is present. A symbol
    carries no derivatives: order verification differentiates `fn`
    numerically, and asymptotic composition differentiates the factors.
    """

    name: str
    order: float
    separated: tuple[SeparatedTerm, ...]
    requires_path: bool = False
    fn: SymbolFn = field(init=False, repr=False, compare=False)
    x_dependent: bool = field(init=False)

    def __post_init__(self):
        self.fn = _separated_rule(self.separated)
        self.x_dependent = any(f is not None for f, _ in self.separated)

    def evaluate(self, t: float, slc: PathSlice | None, x, xi) -> np.ndarray:
        return np.asarray(self.fn(t, slc, as_coords(x), as_coords(xi)), dtype=complex)


# ---------------------------------------------------------------------------
# sampling helpers


def sample_contexts(seed: int, num_times: int = 3, num_paths: int = 2,
                    time_grid: TimeGrid | None = None) -> list[tuple[float, PathSlice]]:
    """(t, adapted slice) pairs spread over the horizon for a few sampled paths."""
    tg = time_grid if time_grid is not None else TimeGrid(horizon=0.25, steps=16)
    ks = np.unique(np.linspace(0, tg.steps, num_times).astype(int))
    out = []
    for p in range(num_paths):
        path = sample_brownian(seed, p, tg)
        for k in ks:
            out.append((tg.node(int(k)), path.slice_at(int(k))))
    return out


def sample_positions(dim: int, num_x: int = 8) -> list[Coords]:
    base = 2.0 * np.pi * np.arange(num_x) / num_x
    if dim == 1:
        return [(np.array(v),) for v in base]
    shifted = 2.0 * np.pi * ((3 * np.arange(num_x) + 1) % num_x) / num_x
    return [(np.array(a), np.array(b)) for a, b in zip(base, shifted)]


def sample_directions(dim: int, num_angles: int = 64) -> list[np.ndarray]:
    """Unit-sphere sample: exact {-1, +1} for dim 1, equispaced angles for dim 2."""
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    ang = 2.0 * np.pi * np.arange(num_angles) / num_angles
    return [np.array([math.cos(a), math.sin(a)]) for a in ang]


def sample_grid(positions: Sequence[Coords],
                directions: Sequence[np.ndarray]) -> tuple[Coords, Coords]:
    """Every (position, direction) pair as (N,) arrays per axis, position-major:
    sample ix * len(directions) + ia pairs positions[ix] with directions[ia]."""
    dim = len(directions[0])
    x = tuple(np.repeat([float(p[ax]) for p in positions], len(directions)) for ax in range(dim))
    xi = tuple(np.tile([d[ax] for d in directions], len(positions)) for ax in range(dim))
    return x, xi


def one_sample(v) -> Coords:
    """One sample point as (1,) arrays per axis."""
    return tuple(c.reshape(1) for c in as_coords(v))


def _direction_rays(dim: int, num_angles: int, radii: np.ndarray) -> Coords:
    """xi = r * direction for every sampled direction and radius at once, as
    (direction, 1, radius) arrays that broadcast against (num_x, 1) positions."""
    directions = np.array(sample_directions(dim, num_angles))
    return tuple((radii * directions[:, ax:ax + 1]).reshape(len(directions), 1, -1)
                 for ax in range(dim))



# ---------------------------------------------------------------------------
# symbol-class verification


def _nested_fd(symbol: Symbol, t: float, slc: PathSlice | None, x: Coords, xi: Coords,
               alpha: tuple[int, ...], beta: tuple[int, ...],
               h_xi: np.ndarray, h_x: float) -> np.ndarray:
    """Nested central differences for d^alpha_xi d^beta_x a at (x, xi)."""
    for axis, order in enumerate(alpha):
        if order > 0:
            a_minus = tuple(order - 1 if ax == axis else o for ax, o in enumerate(alpha))

            def shift(sign, axis=axis, a_minus=a_minus):
                xs = tuple(xi[ax] + sign * h_xi if ax == axis else xi[ax] for ax in range(len(xi)))
                return _nested_fd(symbol, t, slc, x, xs, a_minus, beta, h_xi, h_x)

            return (shift(+1.0) - shift(-1.0)) / (2.0 * h_xi)
    for axis, order in enumerate(beta):
        if order > 0:
            b_minus = tuple(order - 1 if ax == axis else o for ax, o in enumerate(beta))

            def shift(sign, axis=axis, b_minus=b_minus):
                xs = tuple(x[ax] + sign * h_x if ax == axis else x[ax] for ax in range(len(x)))
                return _nested_fd(symbol, t, slc, xs, xi, alpha, b_minus, h_xi, h_x)

            return (shift(+1.0) - shift(-1.0)) / (2.0 * h_x)
    return symbol.evaluate(t, slc, x, xi)


def _multi_indices(dim: int, max_total: int = 2):
    """All (alpha, beta) multi-index pairs with |alpha| + |beta| <= max_total."""
    singles = [idx for idx in itertools.product(range(max_total + 1), repeat=dim)
               if sum(idx) <= max_total]
    return [(a, b) for a in singles for b in singles if sum(a) + sum(b) <= max_total]


@dataclass
class SymbolOrderEntry:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    fitted_exponent: float
    bound: float
    max_magnitude: float
    passed: bool


@dataclass
class SymbolOrderReport:
    symbol_name: str
    declared_order: float
    tolerance: float
    entries: list[SymbolOrderEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def offending(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(e.alpha, e.beta) for e in self.entries if not e.passed]

    def fitted_order(self) -> float:
        """The |alpha| = |beta| = 0 exponent, the empirical order of the symbol."""
        for e in self.entries:
            if sum(e.alpha) == 0 and sum(e.beta) == 0:
                return e.fitted_exponent
        raise KeyError("no zeroth entry")


def verify_symbol_order(symbol: Symbol, dim: int = 1, *, xi_max: float = 1024.0,
                        num_xi: int = 17, num_x: int = 8, seed: int = 0,
                        tolerance: float = 0.05,
                        time_grid: TimeGrid | None = None) -> SymbolOrderReport:
    """Empirically check  |d^a_xi d^b_x a| <= M (1+|xi|)^{l-|a|}  for |a|+|b| <= 2.

    The growth exponent per index pair is a least-squares log-log slope against
    (1 + |xi|) over the upper half of `num_xi` log-spaced magnitudes in
    [1, xi_max]; the pass criterion is  fitted <= l - |a| + tolerance.
    Derivative magnitudes below a relative floor are reported as -inf and pass.
    A non-finite sampled value raises NonFiniteError, and magnitudes that clear
    the floor at fewer than two radii raise OrderFitError.
    """
    if xi_max < 8:
        raise ValueError("xi_max must be at least 8")
    radii = np.geomspace(1.0, xi_max, num_xi)
    positions = sample_positions(dim, num_x)
    contexts = sample_contexts(seed, time_grid=time_grid)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))
    xi = _direction_rays(dim, 8, radii)

    pairs = _multi_indices(dim)
    curves: dict[tuple, np.ndarray] = {p: np.zeros(num_xi) for p in pairs}
    base_scale = 0.0
    for t, slc in contexts:
        for alpha, beta in pairs:
            total = sum(alpha) + sum(beta)
            h_rel = 1e-3 if total <= 1 else 5e-3
            h_xi = h_rel * (1.0 + radii.reshape(1, -1))
            vals = _nested_fd(symbol, t, slc, xs, xi, alpha, beta, h_xi, 5e-3)
            mags = np.max(np.abs(vals), axis=1)  # (direction, radius)
            np.maximum(curves[(alpha, beta)], mags.max(axis=0), out=curves[(alpha, beta)])
            # np.maximum keeps a NaN, which Python's max would drop
            if total == 0:
                base_scale = float(np.maximum(base_scale, mags.max()))

    floor = 1e-10 * (1.0 + base_scale)
    upper = radii >= math.sqrt(xi_max)
    entries = []
    for alpha, beta in pairs:
        mags = curves[(alpha, beta)]
        if not np.all(np.isfinite(mags)):
            raise NonFiniteError(
                f"symbol {symbol.name}: non-finite d^{alpha}_xi d^{beta}_x sampled up to "
                f"|xi| = {xi_max:g}")
        bound = symbol.order - sum(alpha)
        if np.max(mags) <= floor:
            entries.append(SymbolOrderEntry(alpha, beta, -math.inf, bound, float(np.max(mags)), True))
            continue
        sel = upper & (mags > floor)
        if np.count_nonzero(sel) < 2:
            sel = mags > floor
        if np.count_nonzero(sel) < 2:
            raise OrderFitError(
                f"symbol {symbol.name}: d^{alpha}_xi d^{beta}_x clears the floor {floor:.3e} "
                f"at one sampled radius only, too few to fit a growth order")
        slope = float(np.polyfit(np.log1p(radii[sel]), np.log(mags[sel]), 1)[0])
        entries.append(SymbolOrderEntry(alpha, beta, slope, bound, float(np.max(mags)),
                                        slope <= bound + tolerance))
    return SymbolOrderReport(symbol.name, symbol.order, tolerance, entries)


# ---------------------------------------------------------------------------
# ellipticity


@dataclass
class EllipticityReport:
    symbol_name: str
    order: float
    lower_frequency_bound: float
    constant_estimate: float
    floor: float
    num_samples: int

    @property
    def is_elliptic(self) -> bool:
        return self.constant_estimate > self.floor


def check_elliptic(symbol: Symbol, lower_frequency_bound: float = 1.0, dim: int = 1, *,
                   xi_max: float = 1024.0, num_xi: int = 17, num_x: int = 16,
                   seed: int = 0, floor: float = 1e-8,
                   time_grid: TimeGrid | None = None) -> EllipticityReport:
    """Estimate C = min |a| / (1+|xi|)^l over samples with |xi| >= the lower bound."""
    radii = np.geomspace(lower_frequency_bound, xi_max, num_xi)
    positions = sample_positions(dim, num_x)
    contexts = sample_contexts(seed, time_grid=time_grid)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))
    xi = _direction_rays(dim, 16, radii)

    c_est = math.inf
    count = 0
    for t, slc in contexts:
        vals = symbol.evaluate(t, slc, xs, xi)
        ratios = np.abs(vals) / (1.0 + radii.reshape(1, -1)) ** symbol.order
        c_est = float(np.minimum(c_est, ratios.min()))  # a NaN stays: not elliptic
        count += ratios.size
    return EllipticityReport(symbol.name, symbol.order, lower_frequency_bound,
                             c_est, floor, count)


# ---------------------------------------------------------------------------
# principal symbols and characteristic roots

# A polished root must leave |p(root)| below this times (1 + max|root|)^m.
ROOT_RESIDUAL_TOL = 1e-10


@dataclass
class PrincipalSymbol:
    """Monic degree-m polynomial in tau:  p(tau) = tau^m - sum_k c_k tau^k.

    `tau_coefficients[k]` is the symbol c_k, frequency dependence included,
    in the separated form every symbol has. `x_dependent` and `requires_path`
    are derived from the coefficients. `homogeneous` marks principal parts
    whose c_k are xi-homogeneous of degree m - k, so roots scale linearly in
    |xi|.
    """

    name: str
    m: int
    tau_coefficients: tuple[Symbol, ...]
    homogeneous: bool = True
    requires_path: bool = field(init=False)
    x_dependent: bool = field(init=False)

    def __post_init__(self):
        if len(self.tau_coefficients) != self.m:
            raise ValueError("need exactly m tau-coefficients")
        self.requires_path = any(c.requires_path for c in self.tau_coefficients)
        self.x_dependent = any(c.x_dependent for c in self.tau_coefficients)

    def coefficients(self, t: float, slc: PathSlice | None, x: Coords, xi: Coords) -> np.ndarray:
        """(..., m) array of c_k over the broadcast shape of the sample arrays."""
        shape = np.broadcast_shapes(*(np.shape(c) for c in x + xi))
        out = np.empty(shape + (self.m,), dtype=complex)
        for k, c in enumerate(self.tau_coefficients):
            out[..., k] = c.fn(t, slc, x, xi)
        return out


# Root solving works on stacks of N samples, and gives bit for bit the roots
# that np.roots and a Newton polish in numpy scalars give one sample at a time
# (tests/test_root_stack.py holds that per-sample oracle). So its complex
# products and powers round as numpy's complex scalars round them: numpy's
# vectorized complex multiply may fuse a multiply and an add and then rounds
# differently. Real powers use np.float_power, which rounds as a Python float
# power does; numpy's ** on a float array may not. The modulus of a single
# complex number is np.hypot of its parts, as abs() of a scalar computes it;
# np.abs of a complex array (kept where the scalar code had it) may differ.


def _cmul(a, b) -> np.ndarray:
    """a * b from four real products, without fused multiply-adds."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cpow(a: np.ndarray, k: int) -> np.ndarray:
    """a**k for an integer k >= 0."""
    if k == 0:
        return np.ones_like(a)
    if k == 1:
        return a
    if k == 2:
        return _cmul(a, a)
    return a**k  # numpy's complex power multiplies without fusing


def _poly(c: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """p(tau) = tau^m - sum_k c_k tau^k; c is (N, m), tau (N, j)."""
    m = c.shape[-1]
    return _cpow(tau, m) - sum(_cmul(c[:, k:k + 1], _cpow(tau, k)) for k in range(m))


def _dpoly(c: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """p'(tau) = m tau^(m-1) - sum_k k c_k tau^(k-1)."""
    m = c.shape[-1]
    return _cmul(m, _cpow(tau, m - 1)) - sum(_cmul(_cmul(k, c[:, k:k + 1]), _cpow(tau, k - 1))
                                             for k in range(1, m))


def _poly_roots_monic(minus_c: np.ndarray) -> np.ndarray:
    """Roots of tau^m - sum c_k tau^k at N samples, given minus_c[:, k] = c_k.

    m <= 2 in closed form. For m >= 3, the eigenvalues of the companion
    matrices np.roots builds, in one stacked solve per count z of vanishing
    low coefficients: like np.roots, a sample with c_0 = ... = c_{z-1} = 0
    gets the roots of its (m - z) x (m - z) companion matrix and z exact zeros.
    """
    n, m = minus_c.shape
    if m == 1:
        return minus_c.copy()
    if m == 2:
        c0, c1 = minus_c[:, 0], minus_c[:, 1]
        disc = np.sqrt(_cmul(c1, c1) + _cmul(4.0, c0))
        return np.stack([(c1 + disc) / 2.0, (c1 - disc) / 2.0], axis=1)
    # highest-to-lowest coefficient rows, as numpy's companion solver takes them
    poly = np.concatenate([np.ones((n, 1), dtype=complex), -minus_c[:, ::-1]], axis=1)
    nonzero = minus_c != 0
    zeros = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), m)
    roots = np.zeros((n, m), dtype=complex)
    for z in np.unique(zeros[zeros < m]):
        rows = np.flatnonzero(zeros == z)
        size = m - z
        p = poly[rows, :size + 1]
        companion = np.zeros((rows.size, size, size), dtype=complex)
        companion[:, np.arange(1, size), np.arange(size - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots[rows, :size] = np.linalg.eigvals(companion)
    return roots


@dataclass
class RootStack:
    """Characteristic roots at N samples that share one (t, path slice)."""

    name: str  # of the principal symbol
    xi: Coords  # (N,) per axis
    coefficients: np.ndarray  # (N, m)
    roots: np.ndarray  # (N, m), each row sorted by real part, then imaginary part
    residual: np.ndarray  # (N,) max |p(root)| after the polish
    limit: np.ndarray  # (N,) the largest residual accepted

    @property
    def failed(self) -> np.ndarray:
        """Samples whose residual misses the target; a NaN residual misses it."""
        return ~(self.residual <= self.limit)

    def sample_xi(self, i: int) -> Coords:
        return tuple(np.array(c[i]) for c in self.xi)

    def error(self, i: int) -> RootSolveError:
        return RootSolveError(
            f"root refinement for {self.name} did not converge at xi={self.sample_xi(i)}: "
            f"residual {self.residual[i]:.3e} exceeds {self.limit[i]:.3e}",
            float(self.residual[i]))

    def checked(self) -> "RootStack":
        """This stack, or the RootSolveError of its first failed sample."""
        failed = np.flatnonzero(self.failed)
        if failed.size:
            raise self.error(int(failed[0]))
        return self


def solve_roots(ps: PrincipalSymbol, t: float, slc: PathSlice | None, x: Coords, xi: Coords,
                residual_tol: float | None = None) -> RootStack:
    """All m roots of p(tau) = 0 at N samples that share (t, slc); x and xi
    hold (N,) arrays per axis.

    Two Newton steps polish every root whose derivative clears
    1e-12 (1 + |root|)^(m-1). A sample fails when its final residual exceeds
    residual_tol (default ROOT_RESIDUAL_TOL) times (1 + max|root|)^m.
    Failures are recorded, not raised: `RootStack.checked` raises for the first.
    """
    if residual_tol is None:
        residual_tol = ROOT_RESIDUAL_TOL
    c = ps.coefficients(t, slc, x, xi)
    m = ps.m
    roots = _poly_roots_monic(c)
    for _ in range(2):
        d = _dpoly(c, roots)
        size = np.float_power(1.0 + np.hypot(roots.real, roots.imag), m - 1)
        step = np.hypot(d.real, d.imag) > 1e-12 * size
        roots[step] = roots[step] - _poly(c, roots)[step] / d[step]
    residual = np.abs(_poly(c, roots)).max(axis=1)
    limit = residual_tol * np.float_power(1.0 + np.abs(roots).max(axis=1), m)
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return RootStack(ps.name, xi, c, np.take_along_axis(roots, order, axis=-1), residual, limit)


def characteristic_roots(ps: PrincipalSymbol, t: float, slc: PathSlice | None, x, xi,
                         residual_tol: float | None = None) -> np.ndarray:
    """All m roots of p(tau) = 0 at one sample point, Newton-polished and
    sorted: `solve_roots` on one sample. Raises RootSolveError when the final
    residual misses its target."""
    stack = solve_roots(ps, t, slc, one_sample(x), one_sample(xi), residual_tol)
    return stack.checked().roots[0]


def pairwise_distances(roots: np.ndarray) -> np.ndarray:
    """|lambda_i - lambda_j| for i < j along the last axis."""
    i, j = np.triu_indices(roots.shape[-1], k=1)
    diff = roots[..., i] - roots[..., j]
    return np.hypot(diff.real, diff.imag)


def is_complex_root(lam) -> np.ndarray:
    """Whether each root's imaginary part clears the relative floor."""
    return np.abs(lam.imag) > COMPLEX_ROOT_REL_TOL * (1.0 + np.hypot(lam.real, lam.imag))


@dataclass
class HypothesisReport:
    """Margins for the three root-structure hypotheses on the unit sphere.

    h1: all roots simple (min pairwise distance); h2: every complex root keeps
    |Im| above the margin; h3: distinct roots stay separated. Vacuous margins
    are +inf; pass flags compare each margin against the configured epsilon.
    """

    h1_margin: float
    h2_margin: float
    h3_margin: float
    epsilon: float
    num_samples: int

    @property
    def h1_pass(self) -> bool:
        return self.h1_margin >= self.epsilon

    @property
    def h2_pass(self) -> bool:
        return self.h2_margin >= self.epsilon

    @property
    def h3_pass(self) -> bool:
        return self.h3_margin >= self.epsilon

    @property
    def all_pass(self) -> bool:
        return self.h1_pass and self.h2_pass and self.h3_pass

    def as_dict(self) -> dict:
        return {
            "h1_margin": float(self.h1_margin), "h2_margin": float(self.h2_margin),
            "h3_margin": float(self.h3_margin), "epsilon": float(self.epsilon),
            "num_samples": int(self.num_samples), "h1_pass": bool(self.h1_pass),
            "h2_pass": bool(self.h2_pass), "h3_pass": bool(self.h3_pass),
            "all_pass": bool(self.all_pass),
        }


def check_hypotheses(ps: PrincipalSymbol, dim: int = 1, *, epsilon: float = 0.1,
                     num_angles: int = 64, num_x: int = 8, seed: int = 0,
                     time_grid: TimeGrid | None = None) -> HypothesisReport:
    """Sample roots over the unit sphere x time x path x position and report margins."""
    x, xi = sample_grid(sample_positions(dim, num_x), sample_directions(dim, num_angles))
    h1 = h2 = h3 = math.inf
    count = 0
    for t, slc in sample_contexts(seed, time_grid=time_grid):
        roots = solve_roots(ps, t, slc, x, xi).checked().roots
        count += len(roots)
        dists = pairwise_distances(roots)
        if dists.size:
            h1 = min(h1, float(dists.min()))
            distinct_tol = COMPLEX_ROOT_REL_TOL * (1.0 + np.abs(roots).max(axis=1, keepdims=True))
            distinct = dists[dists > distinct_tol]
            if distinct.size:
                h3 = min(h3, float(distinct.min()))
        complex_roots = is_complex_root(roots)
        if complex_roots.any():
            h2 = min(h2, float(np.abs(roots.imag[complex_roots]).min()))
    return HypothesisReport(h1, h2, h3, epsilon, count)
