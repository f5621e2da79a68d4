"""Quantization of symbols into grid operators.

An operator acts on spectral fields by the left-quantization sum
(Au)(x) = sum_xi e^{i x.xi} a(t, w, x, xi) u_hat(xi) over all retained
frequencies, frozen at a (t, path-slice) context. Every symbol is a short sum
a = sum_r f_r(x) g_r(xi) (`Symbol.separated`), so the operator applies as
sum_r f_r * IFFT(g_r * FFT u), at O(R S log S) on S grid points, and its
adjoint as sum_r conj(g_r)(D)[conj(f_r) v]. The factors are evaluated once,
over S points each. With every f_r = 1 the operator is a Fourier multiplier
m = sum_r g_r: one diagonal multiply in coefficients.

An adjoint is the same operator with a flag, never a dense matrix. The dense
value-basis matrix evaluates e^{i x.xi} a(x, xi) pointwise from the symbol's
rule, so it stays an oracle independent of the FFT route, for tests and for
exact composition; it is refused above DENSE_CAP points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ContextMismatchError, DenseCapError, EllipticityError, GridMismatchError
from .grid import SpectralField, TorusGrid, sobolev_norm
from .paths import PathSlice, derive_rng, STREAM_TRIAL_FIELDS
from .symbols import EllipticityReport, Symbol, check_elliptic, magnitude
from . import catalog

DENSE_CAP = 4096


def _flat_nodes(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    return tuple(g.ravel() for g in grid.node_grids())


def _flat_frequencies(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    return tuple(g.ravel() for g in grid.frequency_grids())


def _same_context(a, b) -> bool:
    if a.t != b.t:
        return False
    if a.slc is None and b.slc is None:
        return True
    if a.slc is None or b.slc is None:
        return False
    return (a.slc.underlying is b.slc.underlying
            and a.slc.cutoff_index == b.slc.cutoff_index)


def _check_grid(grid: TorusGrid, u: SpectralField) -> None:
    if u.grid != grid:
        raise GridMismatchError(f"field on {u.grid} does not match operator grid {grid}")


def _check_dense_cap(grid: TorusGrid) -> None:
    if grid.size > DENSE_CAP:
        raise DenseCapError(f"grid size {grid.size} exceeds dense cap {DENSE_CAP}")


def _transform(grid: TorusGrid, rows: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Forward-normalized analysis of every row of a C-contiguous complex
    (n, size) array of grid values, or with `inverse` the synthesis of
    coefficient rows, in place; returns `rows`."""
    if not rows.flags.c_contiguous:
        raise ValueError("an in-place transform needs a C-contiguous array")
    cube = rows.reshape((-1,) + grid.shape)
    fft = np.fft.ifftn if inverse else np.fft.fftn
    fft(cube, axes=tuple(range(1, grid.dim + 1)), norm="forward", out=cube)
    return rows


@dataclass
class SpdoOperator:
    """Symbol frozen at a (t, path-slice) context, acting on one grid.

    With `adjointed` set it is the L2 adjoint of that quantization. An
    operator and its adjoint share one cache: the evaluated factors and the
    dense oracle.
    """

    symbol: Symbol
    grid: TorusGrid
    t: float = 0.0
    slc: PathSlice | None = None
    adjointed: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def order(self) -> float:
        return self.symbol.order

    def _terms(self) -> list[tuple[np.ndarray | None, np.ndarray]]:
        """(f_r over the flattened nodes or None, g_r over the flattened
        frequencies), evaluated once. With every f_r = 1 the terms collapse to
        one multiplier sum_r g_r, stored real when it is real."""
        if "terms" not in self._cache:
            size = self.grid.size
            xs, qs = _flat_nodes(self.grid), _flat_frequencies(self.grid)

            def over(rule, coords):
                vals = np.asarray(rule(self.t, self.slc, coords), dtype=complex)
                return np.broadcast_to(vals, (size,))

            terms = [(None if f is None else over(f, xs), over(g, qs))
                     for f, g in self.symbol.separated]
            if all(f is None for f, _ in terms):
                m = terms[0][1]
                for _, g in terms[1:]:
                    m = m + g
                terms = [(None, m.real.copy() if not np.any(m.imag) else m)]
            self._cache["terms"] = terms
        return self._cache["terms"]

    def multiplier(self) -> np.ndarray | None:
        """m(xi) (conj m for the adjoint) when the operator is a Fourier multiplier."""
        terms = self._terms()
        if len(terms) > 1 or terms[0][0] is not None:
            return None
        m = terms[0][1]
        return np.conj(m) if self.adjointed else m

    def _forward(self, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values of Op(a) applied to every row of an (n, size) coefficient
        array, written to `out` when it is given."""
        for r, (f, g) in enumerate(self._terms()):
            term = _transform(self.grid, np.multiply(hat, g, out=out if r == 0 else None),
                              inverse=True)
            if f is not None:
                term *= f
            if r == 0:
                out = term
            else:
                out += term
        return out

    def _backward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of Op(a)* applied to every row of a C-contiguous complex
        (n, size) value array, sum_r conj(g_r) FFT(conj(f_r) v). `values` is
        overwritten, and holds the result for one term."""
        out = None
        terms = self._terms()
        for r, (f, g) in enumerate(terms):
            # the last term may overwrite the input, which no caller reads again
            term = values if r == len(terms) - 1 else values.copy()
            if f is not None:
                term *= np.conj(f)
            term = _transform(self.grid, term)
            term *= np.conj(g)
            if out is None:
                out = term
            else:
                out += term
        return out

    def apply(self, u: SpectralField) -> SpectralField:
        _check_grid(self.grid, u)
        m = self.multiplier()
        if m is not None:
            return SpectralField.from_coefficients(
                self.grid, u.coefficients * m.reshape(self.grid.shape))
        out = self.apply_many(u.values.reshape(-1, 1))
        return SpectralField.from_values(self.grid, out.reshape(self.grid.shape))

    def apply_many(self, values: np.ndarray) -> np.ndarray:
        """Apply to every column of a (size, n) array of grid values."""
        rows = np.array(values.T, dtype=complex, order="C")
        if self.adjointed:
            return _transform(self.grid, self._backward(rows), inverse=True).T
        return self._forward(_transform(self.grid, rows)).T

    def apply_coefficients(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply to every row of an (n, size) array of flattened Fourier
        coefficients, writing to `out` (C-contiguous complex) when it is given."""
        m = self.multiplier()
        if m is not None:
            return np.multiply(rows, m, out=out)
        if not self.adjointed:
            return _transform(self.grid, self._forward(rows, out))
        values = np.empty(rows.shape, dtype=complex) if out is None else out
        values[...] = rows
        result = self._backward(_transform(self.grid, values, inverse=True))
        if out is not None and result is not out:
            out[...] = result  # several terms accumulate outside `out`
            return out
        return result

    def adjoint(self) -> "SpdoOperator":
        m = self.multiplier()
        if m is not None and not np.iscomplexobj(m):
            return self  # a real multiplier is exactly self-adjoint in the discrete pairing
        return replace(self, adjointed=not self.adjointed)

    def dense_matrix(self) -> np.ndarray:
        """Value-basis matrix, the test oracle: the modulation table
        e^{i x.xi} a(x, xi), evaluated pointwise from the symbol's rule, times
        the analysis."""
        if "dense" not in self._cache:
            _check_dense_cap(self.grid)
            size = self.grid.size
            xs = tuple(c.reshape(-1, 1) for c in _flat_nodes(self.grid))
            qs = _flat_frequencies(self.grid)
            dense = np.zeros((size, size), dtype=complex)
            block = 512  # frequencies per slab, so a table is at most (size, 512)
            for start in range(0, size, block):
                q = tuple(c[start:start + block].reshape(1, -1) for c in qs)
                phase = sum(a * b for a, b in zip(xs, q))
                table = np.exp(1j * phase) * self.symbol.fn(self.t, self.slc, xs, q)
                dense += table @ (np.exp(-1j * phase.T) / size)
            self._cache["dense"] = dense
        dense = self._cache["dense"]
        return dense.conj().T if self.adjointed else dense


@dataclass
class MatrixOperator:
    """Explicit value-basis matrix: the result of exact composition, a test oracle."""

    grid: TorusGrid
    matrix: np.ndarray
    name: str = "matrix"
    t: float = 0.0
    slc: PathSlice | None = None
    order: float = 0.0

    def __post_init__(self):
        if self.matrix.shape != (self.grid.size, self.grid.size):
            raise GridMismatchError(
                f"matrix shape {self.matrix.shape} does not fit grid size {self.grid.size}")

    def apply(self, u: SpectralField) -> SpectralField:
        _check_grid(self.grid, u)
        return SpectralField.from_values(
            self.grid, (self.matrix @ u.values.ravel()).reshape(self.grid.shape))

    def dense_matrix(self) -> np.ndarray:
        return self.matrix


def quantize(symbol: Symbol, grid: TorusGrid, t: float = 0.0,
             slc: PathSlice | None = None) -> SpdoOperator:
    return SpdoOperator(symbol, grid, t, slc)


# ---------------------------------------------------------------------------
# composition


def _stencil(p, axis: int, kind: str):
    """First derivative of the factor rule p(t, slc, coords) along one xi or x
    axis, by the fourth-order central stencil
    (8 (p(+h) - p(-h)) - (p(+2h) - p(-2h))) / 12h, with h = 1e-3 (1 + |xi|)
    in xi and h = 1e-3 in x."""

    def dp(t, slc, c):
        h = 1e-3 * (1.0 + magnitude(c)) if kind == "xi" else 1e-3

        def at(step):
            return p(t, slc, tuple(v + step if ax == axis else v for ax, v in enumerate(c)))

        return (8.0 * (at(h) - at(-h)) - (at(2.0 * h) - at(-2.0 * h))) / (12.0 * h)

    return dp


def composition_symbol(a: Symbol, b: Symbol, dim: int) -> Symbol:
    """One-term asymptotic composition: a.b + sum_axis d_xi a . D_x b, with
    D_x = -i d_x. The derivatives fall on the factors,
    d_xi (f g) = f d_xi g and D_x (f g) = (D_x f) g, so the result stays
    separated; a term of b with no x-factor adds nothing to D_x b."""
    total = catalog.symbol_product(a, b)
    for axis in range(dim):
        dx_b = tuple((_stencil(f, axis, "x"), g) for f, g in b.separated if f is not None)
        if not dx_b:
            continue
        dxi_a = Symbol(f"dxi{axis}[{a.name}]", a.order - 1.0,
                       tuple((f, _stencil(g, axis, "xi")) for f, g in a.separated),
                       a.requires_path)
        d_x_b = catalog.symbol_scale(-1j, Symbol(f"dx{axis}[{b.name}]", b.order, dx_b,
                                                 b.requires_path))
        total = catalog.symbol_sum(total, catalog.symbol_product(dxi_a, d_x_b))
    total.name = f"comp1[{a.name};{b.name}]"
    total.order = a.order + b.order
    return total


@dataclass
class CompositionResult:
    operator: SpdoOperator | MatrixOperator
    mode: str
    symbol: Symbol | None = None


def compose(a: SpdoOperator, b: SpdoOperator, mode: str = "exact") -> CompositionResult:
    if a.grid != b.grid:
        raise GridMismatchError("operators live on different grids")
    if not _same_context(a, b):
        raise ContextMismatchError("operators frozen at different (t, path) contexts")
    if mode == "exact":
        product = a.dense_matrix() @ b.dense_matrix()
        return CompositionResult(
            MatrixOperator(a.grid, product, "compose-exact", a.t, a.slc,
                           order=a.order + b.order), mode)
    if mode == "asymptotic-1":
        if not all(isinstance(op, SpdoOperator) and not op.adjointed for op in (a, b)):
            raise ValueError("asymptotic composition needs quantized symbols, not adjoints")
        sigma = composition_symbol(a.symbol, b.symbol, a.grid.dim)
        return CompositionResult(SpdoOperator(sigma, a.grid, a.t, a.slc), mode, sigma)
    raise ValueError(f"unknown composition mode {mode!r}")


# ---------------------------------------------------------------------------
# boundedness harness


@dataclass
class BoundednessRow:
    cutoff: int
    max_ratio: float


@dataclass
class BoundednessReport:
    symbol_name: str
    order: float
    s: float
    rows: list[BoundednessRow]

    @property
    def variation(self) -> float:
        ratios = [r.max_ratio for r in self.rows]
        lo, hi = min(ratios), max(ratios)
        return (hi - lo) / lo if lo > 0 else math.inf

    @property
    def max_ratio(self) -> float:
        return max(r.max_ratio for r in self.rows)


def boundedness_harness(symbol: Symbol, s: float, *, cutoffs: Sequence[int] = (32, 64, 128),
                        trials: int = 10, seed: int = 0, t: float = 0.0,
                        slc: PathSlice | None = None) -> BoundednessReport:
    """Max ratio of output (s - l)-norm to input s-norm across grid cutoffs.

    Trial fields share one master band-limited spectrum (modes up to half the
    smallest cutoff) so every grid resolves the same functions; top pure modes
    per grid are added to probe the retained-frequency edge.
    """
    l = symbol.order
    band = min(cutoffs) // 2
    rng = derive_rng(seed, STREAM_TRIAL_FIELDS)
    # master spectra on the integer band [-band, band]
    master = rng.normal(size=(trials, 2 * band + 1)) + 1j * rng.normal(size=(trials, 2 * band + 1))
    decay = (1.0 + np.arange(-band, band + 1) ** 2) ** (-(abs(s) + 1.0) / 2.0)
    master *= decay

    rows = []
    for cutoff in cutoffs:
        grid = TorusGrid(1, 2 * cutoff)
        op = SpdoOperator(symbol, grid, t, slc)
        fields = []
        for spectrum in master:
            coeffs = np.zeros(grid.size, dtype=complex)
            for offset, c in zip(range(-band, band + 1), spectrum):
                coeffs[offset % grid.size] = c
            fields.append(SpectralField.from_coefficients(grid, coeffs))
        fields.append(SpectralField.pure_mode(grid, cutoff - 1))
        fields.append(SpectralField.pure_mode(grid, -cutoff))
        best = 0.0
        for u in fields:
            denom = sobolev_norm(u, s)
            if denom == 0:
                continue
            best = max(best, sobolev_norm(op.apply(u), s - l) / denom)
        rows.append(BoundednessRow(int(cutoff), float(best)))
    return BoundednessReport(symbol.name, l, s, rows)


# ---------------------------------------------------------------------------
# parametrix


def frequency_taper(r: np.ndarray, lower: float) -> np.ndarray:
    """Smooth cutoff: 0 below `lower`, cosine ramp on [lower, 2 lower], 1 above."""
    r = np.asarray(r, dtype=float)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (r - lower) / lower))
    return np.where(r <= lower, 0.0, np.where(r >= 2.0 * lower, 1.0, ramp))


def _tapered_reciprocal(vals: np.ndarray, xi, lower: float) -> np.ndarray:
    r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in xi))
    chi, vals = np.broadcast_arrays(frequency_taper(r, lower), np.asarray(vals, dtype=complex))
    live = chi > 0
    safe = np.where(live, vals, 1.0)
    return np.where(live, chi / safe, 0.0)


def parametrix_symbol(a: Symbol, lower: float) -> Symbol:
    """One-term approximate-inverse symbol: tapered reciprocal chi / a of `a`.

    A one-term symbol f(x) g(xi) gives (1/f, chi/g), and an x-free symbol
    first sums its g_r into one term. A multi-term x-dependent symbol has no
    one-term reciprocal and is rejected."""
    name = f"parametrix[{a.name}]"
    if len(a.separated) == 1:
        (f, g), = a.separated
    elif not a.x_dependent:
        f, g = None, lambda t, slc, xi: sum(g_r(t, slc, xi) for _, g_r in a.separated)
    else:
        raise ValueError(f"symbol {a.name} has {len(a.separated)} x-dependent terms; "
                         "the parametrix needs one term or an x-free symbol")

    def inv_g(t, slc, xi):
        return _tapered_reciprocal(g(t, slc, xi), xi, lower)

    inv_f = None if f is None else (lambda t, slc, x: 1.0 / f(t, slc, x))
    return Symbol(name, -a.order, ((inv_f, inv_g),), a.requires_path)


@dataclass
class ParametrixResult:
    left: SpdoOperator
    right: SpdoOperator
    ellipticity: EllipticityReport
    lower_frequency_bound: float

    @property
    def taper_top(self) -> float:
        """Residuals are exactly multiplier-free only above twice the lower bound."""
        return 2.0 * self.lower_frequency_bound


def parametrix(op: SpdoOperator, lower_frequency_bound: float = 1.0, *,
               seed: int = 0, floor: float = 1e-8) -> ParametrixResult:
    report = check_elliptic(op.symbol, lower_frequency_bound, op.grid.dim,
                            seed=seed, floor=floor)
    if not report.is_elliptic:
        raise EllipticityError(
            f"symbol {op.symbol.name} is not elliptic above |xi| = "
            f"{lower_frequency_bound}: constant estimate {report.constant_estimate:.3e} "
            f"<= floor {floor:.1e}")
    b0 = parametrix_symbol(op.symbol, lower_frequency_bound)
    left = SpdoOperator(b0, op.grid, op.t, op.slc)
    # right approximate inverse: left construction on the adjoint symbol, adjointed back
    conj_b0 = parametrix_symbol(catalog.symbol_conjugate(op.symbol), lower_frequency_bound)
    right = SpdoOperator(conj_b0, op.grid, op.t, op.slc).adjoint()
    return ParametrixResult(left, right, report, lower_frequency_bound)


@dataclass
class ResidualRow:
    frequency: int
    residual_norm: float


@dataclass
class ParametrixScan:
    rows: list[ResidualRow]
    fitted_slope: float
    side: str


def parametrix_residual_scan(result: ParametrixResult, op: SpdoOperator,
                             frequencies: Sequence[int] | None = None,
                             side: str = "left") -> ParametrixScan:
    """Residual norms of the approximate inverse on pure modes, with log-log slope.

    Left side measures (B A - I) e^{ikx}; right side (A B - I) e^{ikx}. Slope is
    least squares over rows whose residual clears 1e-13 (exact-multiplier cases
    leave nothing to fit; the slope reports -inf).
    """
    grid = op.grid
    if frequencies is None:
        top = grid.frequency_cutoff // 2
        frequencies = sorted(set(np.geomspace(8, top, 7).astype(int))) if top >= 8 else [top]
    modes = np.stack([SpectralField.pure_mode(grid, (int(k),) + (0,) * (grid.dim - 1))
                      .values.ravel() for k in frequencies], axis=1)
    if side == "left":
        out = result.left.apply_many(op.apply_many(modes)) - modes
    else:
        out = op.apply_many(result.right.apply_many(modes)) - modes
    norms = np.sqrt(np.mean(np.abs(out) ** 2, axis=0))
    rows = [ResidualRow(int(k), float(r)) for k, r in zip(frequencies, norms)]
    ks = np.array([r.frequency for r in rows], dtype=float)
    rs = np.array([r.residual_norm for r in rows])
    live = rs > 1e-13
    if np.count_nonzero(live) >= 2:
        slope = float(np.polyfit(np.log(ks[live]), np.log(rs[live]), 1)[0])
    else:
        slope = -math.inf
    return ParametrixScan(rows, slope, side)
