"""Symbol layer: symbol objects, empirical class verification, ellipticity,
principal symbols, characteristic roots, and root-structure hypothesis checks.

A symbol is an evaluation rule a(t, path, x, xi) with a declared frequency
growth order l and time-integrability index p. Membership in the declared
class is verified empirically: finite-difference derivatives up to combined
order two, sampled over (t, path, x) and log-spaced frequency magnitudes, with
a least-squares log-log slope fitted over the asymptotic (upper) half of the
frequency range. Spatial and frequency arguments are passed as tuples of
arrays, one entry per axis, broadcastable against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RootSolveError
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
    """Evaluation rule with declared order and integrability index.

    A symbol carries no derivatives: order verification and asymptotic
    composition differentiate its rule numerically.

    `separated`, when set, is the symbol as a short sum of terms
    f_r(t, w, x) g_r(t, w, xi) (f_r = None meaning 1). The rule `fn` is then
    derived from it, so the two cannot disagree, and `x_dependent` says
    whether any f_r is present. Without it the rule is all there is;
    `x_dependent = False` declares that its value does not change with x,
    which makes it the one-term form (1, a(t, w, 0, xi)).
    """

    name: str
    order: float
    fn: SymbolFn | None = None
    integrability: float = math.inf
    requires_path: bool = False
    x_dependent: bool = True
    separated: tuple[SeparatedTerm, ...] | None = None

    def __post_init__(self):
        if self.separated is not None:
            self.fn = _separated_rule(self.separated)
            self.x_dependent = any(f is not None for f, _ in self.separated)
        elif self.fn is None:
            raise ValueError(f"symbol {self.name!r} needs a rule or a separated form")
        elif not self.x_dependent:
            rule = self.fn

            def at_origin(t, slc, xi):
                return rule(t, slc, tuple(np.zeros(()) for _ in xi), xi)

            self.separated = ((None, at_origin),)

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
    integrability: float
    integrable_on_sample: bool

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
    """
    if xi_max < 8:
        raise ValueError("xi_max must be at least 8")
    radii = np.geomspace(1.0, xi_max, num_xi)
    directions = sample_directions(dim, num_angles=8)
    positions = sample_positions(dim, num_x)
    contexts = sample_contexts(seed, time_grid=time_grid)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))

    pairs = _multi_indices(dim)
    curves: dict[tuple, np.ndarray] = {p: np.zeros(num_xi) for p in pairs}
    base_scale = 0.0
    m_time: dict[float, float] = {}
    for t, slc in contexts:
        ctx_max = 0.0
        for direction in directions:
            xi = tuple((radii * direction[ax]).reshape(1, -1) for ax in range(dim))
            for alpha, beta in pairs:
                total = sum(alpha) + sum(beta)
                h_rel = 1e-3 if total <= 1 else 5e-3
                h_xi = h_rel * (1.0 + radii.reshape(1, -1))
                vals = _nested_fd(symbol, t, slc, xs, xi, alpha, beta, h_xi, 5e-3)
                mags = np.max(np.abs(vals), axis=0)
                np.maximum(curves[(alpha, beta)], mags, out=curves[(alpha, beta)])
                if total == 0:
                    base_scale = max(base_scale, float(np.max(mags)))
                bound = symbol.order - sum(alpha)
                ctx_max = max(ctx_max, float(np.max(mags / (1.0 + radii) ** bound)))
        m_time[t] = max(m_time.get(t, 0.0), ctx_max)

    floor = 1e-10 * (1.0 + base_scale)
    upper = radii >= math.sqrt(xi_max)
    entries = []
    for alpha, beta in pairs:
        mags = curves[(alpha, beta)]
        bound = symbol.order - sum(alpha)
        if np.max(mags) <= floor:
            entries.append(SymbolOrderEntry(alpha, beta, -math.inf, bound, float(np.max(mags)), True))
            continue
        sel = upper & (mags > floor)
        if np.count_nonzero(sel) < 2:
            sel = mags > floor
        slope = float(np.polyfit(np.log1p(radii[sel]), np.log(mags[sel]), 1)[0])
        entries.append(SymbolOrderEntry(alpha, beta, slope, bound, float(np.max(mags)),
                                        slope <= bound + tolerance))

    # Definitional time integrability, sampled: int_0^T M(t)^p dt over the
    # sampled contexts must be finite (always true unless evaluation blew up).
    if math.isinf(symbol.integrability):
        integ_ok = all(math.isfinite(v) for v in m_time.values())
    else:
        p = symbol.integrability
        integ_ok = math.isfinite(sum(v**p for v in m_time.values()))
    return SymbolOrderReport(symbol.name, symbol.order, tolerance, entries,
                             symbol.integrability, integ_ok)


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
    directions = sample_directions(dim, num_angles=16)
    positions = sample_positions(dim, num_x)
    contexts = sample_contexts(seed, time_grid=time_grid)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))

    c_est = math.inf
    count = 0
    for t, slc in contexts:
        for direction in directions:
            xi = tuple((radii * direction[ax]).reshape(1, -1) for ax in range(dim))
            vals = symbol.evaluate(t, slc, xs, xi)
            ratios = np.abs(vals) / (1.0 + radii.reshape(1, -1)) ** symbol.order
            c_est = min(c_est, float(np.min(ratios)))
            count += ratios.size
    return EllipticityReport(symbol.name, symbol.order, lower_frequency_bound,
                             c_est, floor, count)


# ---------------------------------------------------------------------------
# principal symbols and characteristic roots

# tau-coefficient rule: (t, slc, x, xi) -> complex, with x, xi tuple-per-axis.
CoeffRule = Callable[[float, PathSlice | None, Coords, Coords], complex]


@dataclass
class PrincipalSymbol:
    """Monic degree-m polynomial in tau:  p(tau) = tau^m - sum_k c_k tau^k.

    `tau_coefficients[k]` evaluates the aggregated coefficient of tau^k,
    frequency dependence included. `homogeneous` marks principal parts whose
    c_k are xi-homogeneous of degree m - k, so roots scale linearly in |xi|.
    """

    name: str
    m: int
    tau_coefficients: tuple[CoeffRule, ...]
    homogeneous: bool = True
    requires_path: bool = False
    x_dependent: bool = False

    def __post_init__(self):
        if len(self.tau_coefficients) != self.m:
            raise ValueError("need exactly m tau-coefficients")

    def coefficients_at(self, t: float, slc: PathSlice | None, x, xi) -> np.ndarray:
        xt, xit = as_coords(x), as_coords(xi)
        return np.array([complex(np.asarray(c(t, slc, xt, xit)).reshape(()))
                         for c in self.tau_coefficients])

    def value(self, t: float, slc: PathSlice | None, x, tau: complex, xi) -> complex:
        c = self.coefficients_at(t, slc, x, xi)
        return tau**self.m - sum(c[k] * tau**k for k in range(self.m))


def _poly_roots_monic(minus_c: np.ndarray) -> np.ndarray:
    """Roots of tau^m - sum c_k tau^k given c as minus_c[k] = c_k."""
    m = len(minus_c)
    if m == 1:
        return np.array([minus_c[0]])
    if m == 2:
        c0, c1 = minus_c
        disc = np.lib.scimath.sqrt(c1 * c1 + 4.0 * c0)
        return np.array([(c1 + disc) / 2.0, (c1 - disc) / 2.0])
    # highest-to-lowest coefficient vector for numpy's companion solver
    poly = np.concatenate([[1.0], -minus_c[::-1]])
    return np.roots(poly)


def characteristic_roots(ps: PrincipalSymbol, t: float, slc: PathSlice | None, x, xi,
                         residual_tol: float = 1e-10) -> np.ndarray:
    """All m roots of p(tau) = 0 at one sample point, Newton-polished and sorted.

    Raises RootSolveError when the final residual exceeds
    residual_tol * (1 + max|root|)^m.
    """
    c = ps.coefficients_at(t, slc, x, xi)
    roots = _poly_roots_monic(c)
    m = ps.m

    def p(tau):
        return tau**m - sum(c[k] * tau**k for k in range(m))

    def dp(tau):
        return m * tau ** (m - 1) - sum(k * c[k] * tau ** (k - 1) for k in range(1, m))

    for _ in range(2):
        for i, lam in enumerate(roots):
            d = dp(lam)
            if abs(d) > 1e-12 * (1.0 + abs(lam)) ** (m - 1):
                roots[i] = lam - p(lam) / d
    scale = (1.0 + float(np.max(np.abs(roots)))) ** m
    residual = float(np.max(np.abs([p(lam) for lam in roots])))
    if residual > residual_tol * scale:
        raise RootSolveError(
            f"root refinement for {ps.name} did not converge at xi={xi}: "
            f"residual {residual:.3e} exceeds {residual_tol * scale:.3e}", residual)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def pairwise_distances(roots: np.ndarray) -> np.ndarray:
    m = len(roots)
    return np.array([abs(roots[i] - roots[j]) for i in range(m) for j in range(i + 1, m)])


def is_complex_root(lam: complex) -> bool:
    return abs(lam.imag) > COMPLEX_ROOT_REL_TOL * (1.0 + abs(lam))


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
    directions = sample_directions(dim, num_angles)
    positions = sample_positions(dim, num_x)
    contexts = sample_contexts(seed, time_grid=time_grid)

    h1 = math.inf
    h2 = math.inf
    h3 = math.inf
    count = 0
    for t, slc in contexts:
        for x in positions:
            for direction in directions:
                xi = tuple(np.array(direction[ax]) for ax in range(dim))
                roots = characteristic_roots(ps, t, slc, x, xi)
                count += 1
                dists = pairwise_distances(roots)
                if dists.size:
                    h1 = min(h1, float(np.min(dists)))
                    distinct_tol = COMPLEX_ROOT_REL_TOL * (1.0 + float(np.max(np.abs(roots))))
                    distinct = dists[dists > distinct_tol]
                    if distinct.size:
                        h3 = min(h3, float(np.min(distinct)))
                for lam in roots:
                    if is_complex_root(complex(lam)):
                        h2 = min(h2, float(abs(lam.imag)))
    return HypothesisReport(h1, h2, h3, epsilon, count)
