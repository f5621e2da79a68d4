"""Quantization of symbols into grid operators.

An operator acts on spectral fields by the left-quantization sum
(Au)(x) = sum_xi e^{i x.xi} a(t, w, x, xi) u_hat(xi) over all retained
frequencies. Operators are frozen at a (t, path-slice) context; dense
matrices realize the same sum exactly in the value basis and serve as the
oracle for adjoints and exact composition. Cost is O(size^2) per
application, accepted at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ContextMismatchError, DenseCapError, EllipticityError, GridMismatchError
from .grid import SpectralField, TorusGrid, l2_norm, sobolev_norm
from .paths import PathSlice, derive_rng, STREAM_TRIAL_FIELDS
from .symbols import EllipticityReport, Symbol, check_elliptic
from . import catalog

DENSE_CAP = 4096
# full modulation tables above this size are streamed in frequency blocks
_MOD_CACHE_MAX = 2048
_BLOCK = 512


def _flat_nodes(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    return tuple(g.ravel() for g in grid.node_grids())


def _flat_frequencies(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    return tuple(g.ravel() for g in grid.frequency_grids())


def _same_context(a: "SpdoOperator", b: "SpdoOperator") -> bool:
    if a.t != b.t:
        return False
    if a.slc is None and b.slc is None:
        return True
    if a.slc is None or b.slc is None:
        return False
    return (a.slc.underlying is b.slc.underlying
            and a.slc.cutoff_index == b.slc.cutoff_index)


class _OperatorBase:
    """Shared field/array plumbing; concrete classes define apply_many."""

    grid: TorusGrid

    def _check_grid(self, u: SpectralField) -> None:
        if u.grid != self.grid:
            raise GridMismatchError(
                f"field on {u.grid} does not match operator grid {self.grid}")

    def apply(self, u: SpectralField) -> SpectralField:
        self._check_grid(u)
        out = self.apply_many(u.values.reshape(-1, 1))[:, 0]
        return SpectralField.from_values(self.grid, out.reshape(self.grid.shape))

    def apply_many(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _coeff_columns(self, values: np.ndarray) -> np.ndarray:
        """Forward-normalized transform of each column, flattened back."""
        cols = values.reshape(self.grid.shape + (values.shape[-1],))
        axes = tuple(range(self.grid.dim))
        hat = np.fft.fftn(cols, axes=axes, norm="forward")
        return hat.reshape(self.grid.size, values.shape[-1])

    def coefficient_matrix(self) -> np.ndarray:
        """The operator in the Fourier-coefficient basis: column j holds the
        coefficients of its image of the j-th pure mode (FFT layout, flattened)."""
        size = self.grid.size
        if size > DENSE_CAP:
            raise DenseCapError(f"grid size {size} exceeds dense cap {DENSE_CAP}")
        axes = tuple(range(self.grid.dim))
        modes = np.fft.ifftn(np.eye(size).reshape(self.grid.shape + (size,)),
                             axes=axes, norm="forward")
        return self._coeff_columns(self.apply_many(modes.reshape(size, size)))


@dataclass
class SpdoOperator(_OperatorBase):
    """Symbol frozen at a (t, path-slice) context, acting on one grid."""

    symbol: Symbol
    grid: TorusGrid
    t: float = 0.0
    slc: PathSlice | None = None
    dense_cap: int = DENSE_CAP
    _mod: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> float:
        return self.symbol.order

    def _mod_blocks(self) -> Iterable[tuple[slice, np.ndarray]]:
        """Modulation-table blocks  e^{i x.xi} a(x, xi)  over frequency slabs."""
        xs = _flat_nodes(self.grid)
        qs = _flat_frequencies(self.grid)
        size = self.grid.size
        for start in range(0, size, _BLOCK):
            sel = slice(start, min(start + _BLOCK, size))
            x_t = tuple(c.reshape(-1, 1) for c in xs)
            q_t = tuple(c[sel].reshape(1, -1) for c in qs)
            phase = sum(a * b for a, b in zip(x_t, q_t))
            vals = np.broadcast_to(
                np.asarray(self.symbol.fn(self.t, self.slc, x_t, q_t), dtype=complex),
                phase.shape)
            yield sel, np.exp(1j * phase) * vals

    def _modulation_table(self) -> np.ndarray:
        if self._mod is None:
            table = np.empty((self.grid.size, self.grid.size), dtype=complex)
            for sel, block in self._mod_blocks():
                table[:, sel] = block
            self._mod = table
        return self._mod

    def apply_many(self, values: np.ndarray) -> np.ndarray:
        hat = self._coeff_columns(values)
        if self.grid.size <= _MOD_CACHE_MAX:
            return self._modulation_table() @ hat
        out = np.zeros_like(hat)
        for sel, block in self._mod_blocks():
            out += block @ hat[sel]
        return out

    def dense_matrix(self) -> np.ndarray:
        """Value-basis matrix: modulation table times the analysis transform."""
        if self._dense is None:
            size = self.grid.size
            if size > self.dense_cap:
                raise DenseCapError(
                    f"grid size {size} exceeds dense cap {self.dense_cap}")
            xs = _flat_nodes(self.grid)
            qs = _flat_frequencies(self.grid)
            phase = sum(np.outer(q, x) for q, x in zip(qs, xs))
            analysis = np.exp(-1j * phase) / size
            if size <= _MOD_CACHE_MAX:
                self._dense = self._modulation_table() @ analysis
            else:
                dense = np.zeros((size, size), dtype=complex)
                for sel, block in self._mod_blocks():
                    dense += block @ analysis[sel]
                self._dense = dense
        return self._dense

    def adjoint(self) -> "MatrixOperator":
        return MatrixOperator(self.grid, self.dense_matrix().conj().T,
                              name=f"adj[{self.symbol.name}]", t=self.t, slc=self.slc,
                              order=self.symbol.order)


@dataclass
class MatrixOperator(_OperatorBase):
    """Explicit value-basis matrix; closed under adjoint and product."""

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

    def apply_many(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def dense_matrix(self) -> np.ndarray:
        return self.matrix

    def adjoint(self) -> "MatrixOperator":
        return MatrixOperator(self.grid, self.matrix.conj().T, f"adj[{self.name}]",
                              self.t, self.slc, self.order)


@dataclass
class LambdaOperator(_OperatorBase):
    """Diagonal regularity shift: multiplier (1 + |xi|^2)^(s/2) in frequency."""

    s: float
    grid: TorusGrid
    t: float = 0.0
    slc: PathSlice | None = None

    @property
    def symbol(self) -> Symbol:
        return catalog.lambda_symbol(self.s)

    @property
    def order(self) -> float:
        return self.s

    def multiplier(self) -> np.ndarray:
        return (1.0 + self.grid.frequency_magnitude() ** 2) ** (self.s / 2.0)

    def apply(self, u: SpectralField) -> SpectralField:
        self._check_grid(u)
        return SpectralField.from_coefficients(self.grid, u.coefficients * self.multiplier())

    def apply_many(self, values: np.ndarray) -> np.ndarray:
        hat = self._coeff_columns(values)
        m = self.multiplier().ravel()
        shaped = (m[:, None] * hat).reshape(self.grid.shape + (values.shape[-1],))
        axes = tuple(range(self.grid.dim))
        return np.fft.ifftn(shaped, axes=axes, norm="forward").reshape(values.shape)

    def dense_matrix(self) -> np.ndarray:
        size = self.grid.size
        if size > DENSE_CAP:
            raise DenseCapError(f"grid size {size} exceeds dense cap {DENSE_CAP}")
        xs = _flat_nodes(self.grid)
        qs = _flat_frequencies(self.grid)
        phase = sum(np.outer(x, q) for x, q in zip(xs, qs))
        m = self.multiplier().ravel()
        synthesis = np.exp(1j * phase) * m[None, :]
        analysis = np.exp(-1j * phase.T) / size
        return synthesis @ analysis

    def adjoint(self) -> "LambdaOperator":
        # real even multiplier: exactly self-adjoint in the discrete pairing
        return self


LinearOperator = Union[SpdoOperator, MatrixOperator, LambdaOperator]


def quantize(symbol: Symbol, grid: TorusGrid, t: float = 0.0,
             slc: PathSlice | None = None) -> SpdoOperator:
    return SpdoOperator(symbol, grid, t, slc)


# ---------------------------------------------------------------------------
# composition


def _fd_partial(sym: Symbol, kind: str, axis: int, rel_step: float = 1e-5) -> Symbol:
    """Central-difference fallback derivative for symbols without closed forms."""

    def dfn(t, slc, x, xi):
        if kind == "xi":
            h = rel_step * (1.0 + np.sqrt(sum(np.asarray(c) ** 2 for c in xi)))
            up = tuple(c + h if ax == axis else c for ax, c in enumerate(xi))
            dn = tuple(c - h if ax == axis else c for ax, c in enumerate(xi))
            return (sym.fn(t, slc, x, up) - sym.fn(t, slc, x, dn)) / (2.0 * h)
        h = rel_step
        up = tuple(c + h if ax == axis else c for ax, c in enumerate(x))
        dn = tuple(c - h if ax == axis else c for ax, c in enumerate(x))
        return (sym.fn(t, slc, up, xi) - sym.fn(t, slc, dn, xi)) / (2.0 * h)

    drop = 1.0 if kind == "xi" else 0.0
    return Symbol(f"fd-d{kind}{axis}[{sym.name}]", sym.order - drop, dfn,
                  requires_path=sym.requires_path)


def composition_symbol(a: Symbol, b: Symbol, dim: int) -> Symbol:
    """One-term asymptotic composition: a.b + sum_axis d_xi a . D_x b."""
    total = catalog.symbol_product(a, b)
    for axis in range(dim):
        da = a.xi_partial(axis) or _fd_partial(a, "xi", axis)
        db = b.x_partial(axis) or _fd_partial(b, "x", axis)
        term = catalog.symbol_product(da, catalog.symbol_scale(-1j, db))
        total = catalog.symbol_sum(total, term)
    total.name = f"comp1[{a.name};{b.name}]"
    total.order = a.order + b.order
    return total


@dataclass
class CompositionResult:
    operator: LinearOperator
    mode: str
    symbol: Symbol | None = None


def compose(a: LinearOperator, b: LinearOperator, mode: str = "exact") -> CompositionResult:
    if a.grid != b.grid:
        raise GridMismatchError("operators live on different grids")
    if isinstance(a, SpdoOperator) and isinstance(b, SpdoOperator) and not _same_context(a, b):
        raise ContextMismatchError("operators frozen at different (t, path) contexts")
    if mode == "exact":
        product = a.dense_matrix() @ b.dense_matrix()
        t = getattr(a, "t", 0.0)
        slc = getattr(a, "slc", None)
        return CompositionResult(
            MatrixOperator(a.grid, product, "compose-exact", t, slc,
                           order=a.order + b.order), mode)
    if mode == "asymptotic-1":
        sa = getattr(a, "symbol", None)
        sb = getattr(b, "symbol", None)
        if sa is None or sb is None:
            raise ValueError("asymptotic composition needs symbol-backed operators")
        sigma = composition_symbol(sa, sb, a.grid.dim)
        t = getattr(a, "t", 0.0)
        slc = getattr(a, "slc", None)
        return CompositionResult(SpdoOperator(sigma, a.grid, t, slc), mode, sigma)
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


def parametrix_symbol(a: Symbol, lower: float) -> Symbol:
    """One-term approximate-inverse symbol: tapered reciprocal of `a`."""

    def fn(t, slc, x, xi):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in xi))
        chi, vals = np.broadcast_arrays(
            frequency_taper(r, lower), np.asarray(a.fn(t, slc, x, xi), dtype=complex))
        live = chi > 0
        safe = np.where(live, vals, 1.0)
        return np.where(live, chi / safe, 0.0)

    return Symbol(f"parametrix[{a.name}]", -a.order, fn, requires_path=a.requires_path)


@dataclass
class ParametrixResult:
    left: SpdoOperator
    right: MatrixOperator
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
    rows = []
    for k in frequencies:
        mode = SpectralField.pure_mode(grid, (int(k),) + (0,) * (grid.dim - 1))
        if side == "left":
            out = result.left.apply(op.apply(mode)) - mode
        else:
            out = op.apply(result.right.apply(mode)) - mode
        rows.append(ResidualRow(int(k), l2_norm(out)))
    ks = np.array([r.frequency for r in rows], dtype=float)
    rs = np.array([r.residual_norm for r in rows])
    live = rs > 1e-13
    if np.count_nonzero(live) >= 2:
        slope = float(np.polyfit(np.log(ks[live]), np.log(rs[live]), 1)[0])
    else:
        slope = -math.inf
    return ParametrixScan(rows, slope, side)
