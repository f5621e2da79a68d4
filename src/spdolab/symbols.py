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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, OrderFitError, RootSolveError
from .paths import PathSlice, TimeGrid, sample_brownian

Coords = tuple[np.ndarray, ...]
SymbolFn = Callable[[float, PathSlice | None, Coords, Coords], np.ndarray]
# a factor of a separated symbol: (t, slc, x) or (t, slc, xi) -> values
FactorFn = Callable[[float, PathSlice | None, Coords], np.ndarray]
# one term f_r(t, w, x) g_r(t, w, xi); f_r = None means 1
SeparatedTerm = tuple[FactorFn | None, FactorFn]
# a (t, path slice) at which a symbol is evaluated; no slice for a path-free one
Context = tuple[float, PathSlice | None]

# A root counts as complex when its imaginary part clears this relative floor.
COMPLEX_ROOT_REL_TOL = 1e-8

# Sampled (t, path) contexts: SAMPLE_TIMES nodes of SAMPLE_TIME_GRID on each of
# SAMPLE_PATHS Brownian paths.
SAMPLE_TIME_GRID = TimeGrid(horizon=0.25, steps=16)
SAMPLE_TIMES = 3
SAMPLE_PATHS = 2

# Audits sample NUM_XI log-spaced frequency radii up to XI_MAX.
XI_MAX = 1024.0
NUM_XI = 17
ORDER_NUM_X = 8  # positions in an order audit
ORDER_TOLERANCE = 0.05  # a fitted exponent may exceed its bound by this much
ELLIPTIC_NUM_X = 16  # positions in an ellipticity estimate
ELLIPTICITY_FLOOR = 1e-8  # a symbol is elliptic when its constant clears this


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


def _sample_nodes() -> list[int]:
    """The distinct sampled nodes of SAMPLE_TIME_GRID, in increasing order."""
    spread = np.linspace(0, SAMPLE_TIME_GRID.steps, SAMPLE_TIMES).astype(int).tolist()
    return sorted(set(spread))


def sample_contexts(seed: int) -> list[tuple[float, PathSlice]]:
    """(t, adapted slice) pairs spread over the horizon for a few sampled paths."""
    tg = SAMPLE_TIME_GRID
    ks = _sample_nodes()
    out = []
    for p in range(SAMPLE_PATHS):
        path = sample_brownian(seed, p, tg)
        for k in ks:
            out.append((tg.node(k), path.slice_at(k)))
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


def audit_positions(dim: int, num_x: int, x_dependent: bool) -> list[Coords]:
    """num_x sampled positions for a subject that depends on x; the origin
    alone for one that does not, since every position gives its values."""
    if x_dependent:
        return sample_positions(dim, num_x)
    return [tuple(np.array(0.0) for _ in range(dim))]


def audit_samples(subject: Symbol | PrincipalSymbol, dim: int, num_x: int,
                  seed: int) -> tuple[list[Context], list[Coords]]:
    """The distinct (t, path) contexts and positions an audit evaluates.

    The audit grid is every sampled (t, path) context x num_x positions. A
    subject that does not read the path takes each distinct time once, with
    no slice, and one that does not depend on x takes one position, since the
    other points of the grid repeat those values."""
    contexts = (sample_contexts(seed) if subject.requires_path
                else [(SAMPLE_TIME_GRID.node(k), None) for k in _sample_nodes()])
    return contexts, audit_positions(dim, num_x, subject.x_dependent)


# ---------------------------------------------------------------------------
# symbol-class verification

ORDER_H_X = 5e-3  # the spatial difference step


def _multi_indices(dim: int, max_total: int = 2):
    """All (alpha, beta) multi-index pairs with |alpha| + |beta| <= max_total."""
    singles = [idx for idx in itertools.product(range(max_total + 1), repeat=dim)
               if sum(idx) <= max_total]
    return [(a, b) for a in singles for b in singles if sum(a) + sum(b) <= max_total]


@dataclass(frozen=True)
class _OrderStencil:
    """The central-difference points of every (alpha, beta) pair of an order
    audit, stacked on one leading leaf axis, and the divisors that fold them.

    d^alpha_xi d^beta_x takes k = |alpha| + |beta| nested differences: the xi
    axes in order, then the x axes, each step shifting one coordinate by +-h
    and dividing the difference by 2h. A pair's 2^k leaves are the
    coordinates with those shifts added one at a time, outermost first; the
    innermost shift is the fastest-varying bit, + before -. `x` holds
    (leaf, 1, position, 1) and `xi` (leaf, direction, 1, radius) arrays per
    axis. Each group holds the pairs with one k: their leaves, contiguous, and
    per shift (outermost first) a (pair, 1, 1, 1, radius) array of 2h.
    """

    x: Coords
    xi: Coords
    groups: tuple[tuple[list[tuple], slice, tuple[np.ndarray, ...]], ...]


@functools.cache
def _order_stencil(dim: int, x_dependent: bool) -> _OrderStencil:
    radii = np.geomspace(1.0, XI_MAX, NUM_XI)
    positions = audit_positions(dim, ORDER_NUM_X, x_dependent)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))
    xi = _direction_rays(dim, 8, radii)
    leaves: list[tuple[list, list]] = []
    groups = []
    pairs = _multi_indices(dim)
    for k in range(3):
        group = [(a, b) for a, b in pairs if sum(a) + sum(b) == k]
        h_xi = (1e-3 if k <= 1 else 5e-3) * (1.0 + radii.reshape(1, -1))
        start, divisors = len(leaves), []
        for alpha, beta in group:
            shifts = ([(True, ax) for ax, order in enumerate(alpha) for _ in range(order)]
                      + [(False, ax) for ax, order in enumerate(beta) for _ in range(order)])
            for signs in itertools.product((1.0, -1.0), repeat=k):
                x, z = list(xs), list(xi)
                for (on_xi, ax), sign in zip(shifts, signs):
                    if on_xi:
                        z[ax] = z[ax] + sign * h_xi
                    else:
                        x[ax] = x[ax] + sign * ORDER_H_X
                leaves.append((x, z))
            divisors.append([2.0 * h_xi if on_xi else np.full_like(h_xi, 2.0 * ORDER_H_X)
                             for on_xi, _ in shifts])
        per_shift = tuple(np.stack(d).reshape(len(group), 1, 1, 1, -1) for d in zip(*divisors))
        groups.append((group, slice(start, len(leaves)), per_shift))
    x = tuple(np.stack([leaf[0][ax] for leaf in leaves])[:, None] for ax in range(dim))
    xi = tuple(np.stack([leaf[1][ax] for leaf in leaves]) for ax in range(dim))
    for c in x + xi:
        c.flags.writeable = False  # shared by every audit of this (dim, x_dependent)
    return _OrderStencil(x, xi, tuple(groups))


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
    symbol_points: int  # (x, xi) points at which the symbol was evaluated

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def fitted_order(self) -> float:
        """The |alpha| = |beta| = 0 exponent, the empirical order of the symbol."""
        for e in self.entries:
            if sum(e.alpha) == 0 and sum(e.beta) == 0:
                return e.fitted_exponent
        raise KeyError("no zeroth entry")


def verify_symbol_order(symbol: Symbol, dim: int = 1, *, seed: int = 0) -> SymbolOrderReport:
    """Empirically check  |d^a_xi d^b_x a| <= M (1+|xi|)^{l-|a|}  for |a|+|b| <= 2.

    The growth exponent per index pair is a least-squares log-log slope against
    (1 + |xi|) over the upper half of NUM_XI log-spaced magnitudes in
    [1, XI_MAX]; the pass criterion is  fitted <= l - |a| + ORDER_TOLERANCE.
    Derivative magnitudes below a relative floor are reported as -inf and pass.
    A non-finite sampled value raises NonFiniteError, and magnitudes that clear
    the floor at fewer than two radii raise OrderFitError.

    The symbol is evaluated once per sampled context, on every difference
    point of every pair at once (`_order_stencil`).
    """
    radii = np.geomspace(1.0, XI_MAX, NUM_XI)
    contexts, _ = audit_samples(symbol, dim, ORDER_NUM_X, seed)
    stencil = _order_stencil(dim, symbol.x_dependent)
    maxima = [np.zeros((len(group), NUM_XI)) for group, _, _ in stencil.groups]
    points = 0
    for t, slc in contexts:
        vals = symbol.evaluate(t, slc, stencil.x, stencil.xi)  # (leaf, direction, position, radius)
        points += vals.size
        for (group, leaves, divisors), curve in zip(stencil.groups, maxima):
            d = vals[leaves].reshape(len(group), -1, *vals.shape[1:])
            for divisor in reversed(divisors):  # the innermost difference first
                d = d.reshape(len(group), -1, 2, *vals.shape[1:])
                d = (d[:, :, 0] - d[:, :, 1]) / divisor
            # np.maximum keeps a NaN, which Python's max would drop
            np.maximum(curve, np.abs(d).max(axis=(1, 2, 3)), out=curve)
    curves = {pair: row for (group, _, _), curve in zip(stencil.groups, maxima)
              for pair, row in zip(group, curve)}

    zeroth = (0,) * dim
    floor = 1e-10 * (1.0 + float(np.max(curves[(zeroth, zeroth)])))
    upper = radii >= math.sqrt(XI_MAX)
    entries = []
    for alpha, beta in _multi_indices(dim):
        mags = curves[(alpha, beta)]
        if not np.all(np.isfinite(mags)):
            raise NonFiniteError(
                f"symbol {symbol.name}: non-finite d^{alpha}_xi d^{beta}_x sampled up to "
                f"|xi| = {XI_MAX:g}")
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
                                        slope <= bound + ORDER_TOLERANCE))
    return SymbolOrderReport(symbol.name, symbol.order, ORDER_TOLERANCE, entries, points)


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
                   seed: int = 0) -> EllipticityReport:
    """Estimate C = min |a| / (1+|xi|)^l over samples with |xi| >= the lower bound."""
    radii = np.geomspace(lower_frequency_bound, XI_MAX, NUM_XI)
    contexts, positions = audit_samples(symbol, dim, ELLIPTIC_NUM_X, seed)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))
    xi = _direction_rays(dim, 16, radii)

    c_est = math.inf
    for t, slc in contexts:
        vals = symbol.evaluate(t, slc, xs, xi)
        ratios = np.abs(vals) / (1.0 + radii.reshape(1, -1)) ** symbol.order
        c_est = float(np.minimum(c_est, ratios.min()))  # a NaN stays: not elliptic
    num_samples = (SAMPLE_PATHS * len(_sample_nodes()) * ELLIPTIC_NUM_X
                   * len(sample_directions(dim, 16)) * NUM_XI)
    return EllipticityReport(symbol.name, symbol.order, lower_frequency_bound,
                             c_est, ELLIPTICITY_FLOOR, num_samples)


# ---------------------------------------------------------------------------
# principal symbols and characteristic roots

# A polished root must leave |p(root)| below this times (1 + max|root|)^m.
ROOT_RESIDUAL_TOL = 1e-10


@dataclass
class PrincipalSymbol:
    """Monic degree-m polynomial in tau:  p(tau) = tau^m - sum_k c_k tau^k.

    `tau_coefficients[k]` is the symbol c_k, frequency dependence included,
    in the separated form every symbol has. `x_dependent` and `requires_path`
    are derived from the coefficients.
    """

    name: str
    m: int
    tau_coefficients: tuple[Symbol, ...]
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
    for z in sorted(set(zeros[zeros < m].tolist())):
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
    """Characteristic roots at the S samples of one stacked solve. They are
    context-major: with N samples per (t, path slice), sample c * N + i is
    sample i in context c."""

    name: str  # of the principal symbol
    xi: Coords  # (S,) per axis
    coefficients: np.ndarray  # (S, m)
    roots: np.ndarray  # (S, m), each row sorted by real part, then imaginary part
    residual: np.ndarray  # (S,) max |p(root)| after the polish
    limit: np.ndarray  # (S,) the largest residual accepted

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


def solve_roots(ps: PrincipalSymbol, contexts: Sequence[Context], x: Coords, xi: Coords,
                residual_tol: float | None = None) -> RootStack:
    """All m roots of p(tau) = 0 at N samples in each (t, slc) context, in
    one stack; x and xi hold (N,) arrays per axis. The coefficients are
    evaluated once per context.

    Two Newton steps polish every root whose derivative clears
    1e-12 (1 + |root|)^(m-1). A sample fails when its final residual exceeds
    residual_tol (default ROOT_RESIDUAL_TOL) times (1 + max|root|)^m.
    Failures are recorded, not raised: `RootStack.checked` raises for the first.
    """
    if residual_tol is None:
        residual_tol = ROOT_RESIDUAL_TOL
    c = np.concatenate([ps.coefficients(t, slc, x, xi) for t, slc in contexts])
    xi = tuple(np.tile(a, len(contexts)) for a in xi)
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
    stack = solve_roots(ps, [(t, slc)], one_sample(x), one_sample(xi), residual_tol)
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
    num_samples: int  # points of the audit grid
    root_samples_solved: int  # distinct points, each solved once

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


def audit_roots(ps: PrincipalSymbol, dim: int, num_angles: int, num_x: int,
                seed: int) -> tuple[list[Context], list[Coords], list[np.ndarray], RootStack]:
    """The distinct samples of a root audit (`audit_samples` x the unit
    directions) and their one stacked solve. Returns (contexts, positions,
    directions, solve), the solve over sample_grid(positions, directions) in
    each context.
    """
    contexts, positions = audit_samples(ps, dim, num_x, seed)
    directions = sample_directions(dim, num_angles)
    x, xi = sample_grid(positions, directions)
    return contexts, positions, directions, solve_roots(ps, contexts, x, xi)


def check_hypotheses(ps: PrincipalSymbol, dim: int = 1, *, epsilon: float = 0.1,
                     num_angles: int = 64, num_x: int = 8, seed: int = 0) -> HypothesisReport:
    """Sample roots over the unit sphere x time x path x position and report
    margins. The margins are minima, so solving each distinct sample once
    (`audit_roots`) gives those of the whole grid, whose size is num_samples."""
    _, _, directions, solve = audit_roots(ps, dim, num_angles, num_x, seed)
    roots = solve.checked().roots
    h1 = h2 = h3 = math.inf
    dists = pairwise_distances(roots)
    if dists.size:
        h1 = float(dists.min())
        distinct_tol = COMPLEX_ROOT_REL_TOL * (1.0 + np.abs(roots).max(axis=1, keepdims=True))
        distinct = dists[dists > distinct_tol]
        if distinct.size:
            h3 = float(distinct.min())
    complex_roots = is_complex_root(roots)
    if complex_roots.any():
        h2 = float(np.abs(roots.imag[complex_roots]).min())
    num_samples = SAMPLE_PATHS * len(_sample_nodes()) * num_x * len(directions)
    return HypothesisReport(h1, h2, h3, epsilon, num_samples, len(roots))
