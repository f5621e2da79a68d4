"""First-order companion reduction of an order-m evolution equation.

The scalar equation  D_t^m u = sum_k A_k D_t^k u + (lower order)  with
D_t = (1/i) d/dt is rewritten in the stacked state
M = (L^{m-1}u, D_t L^{m-2}u, ..., D_t^{m-1}u)^T, where L^s is the bracket
multiplier of order s. The system matrix carries L on the superdiagonal and
A_{j-1} L^{j-m} along the last row; its frequency-normalized principal symbol
replaces L by |xi| and has the characteristic roots as exact eigenvalues.
Root branches are tracked by nearest-neighbor continuation, split into real
and imaginary parts, and extended homogeneously into operator symbols.

Everything is stacked: a field over time is a (K+1, *grid.shape) array of
Fourier coefficients, the companion state an (m, K+1, *grid.shape) array, and
companion symbols and diagonalizations carry a leading sample axis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BranchCrossingError, DegenerateDiagonalizationError
from .grid import TorusGrid
from .paths import PathSlice, TimeGrid
from .symbols import (COMPLEX_ROOT_REL_TOL, Coords, PrincipalSymbol, RootStack, Symbol,
                      _cmul, _cpow, audit_roots, is_complex_root, pairwise_distances)
from .catalog import lambda_symbol, symbol_product
from .operators import SpdoOperator

# continuation is ambiguous when distinct roots approach closer than this
BRANCH_AMBIGUITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# manufactured solutions with closed-form time derivatives

# A scalar time profile phi is given by its derivative rule (j, t) -> d^j phi/dt^j.
ProfileRule = Callable[[int, float], complex]


def sine_profile(omega: float, phase: float = 0.0, amplitude: float = 1.0) -> ProfileRule:
    def rule(j, t):
        return amplitude * omega**j * math.sin(omega * t + phase + j * math.pi / 2.0)
    return rule


def exponential_profile(rate: complex, amplitude: complex = 1.0) -> ProfileRule:
    def rule(j, t):
        return amplitude * rate**j * np.exp(rate * t)
    return rule


@dataclass(frozen=True)
class ManufacturedSolution:
    """Finite mode sum  u(t, x) = sum_r phi_r(t) e^{i k_r . x}, every k_r in
    the grid's retained band."""

    grid: TorusGrid
    terms: tuple[tuple[ProfileRule, tuple[int, ...], complex], ...]

    def __post_init__(self):
        n = self.grid.frequency_cutoff
        for _, mode, _ in self.terms:
            if len(mode) != self.grid.dim or not all(-n <= k <= n - 1 for k in mode):
                raise ValueError(f"mode {mode} is not in the retained band [{-n}, {n - 1}] "
                                 f"of a {self.grid.dim}-D grid")

    @classmethod
    def single(cls, grid: TorusGrid, profile: ProfileRule, mode: int | tuple[int, ...],
               amplitude: complex = 1.0) -> "ManufacturedSolution":
        m = (mode,) if isinstance(mode, int) else tuple(mode)
        return cls(grid, ((profile, m, amplitude),))

    def dt(self, j: int, times) -> np.ndarray:
        """Closed-form D_t^j u = (1/i)^j d^j u/dt^j at every time, as a
        (len(times), *grid.shape) coefficient stack."""
        out = np.zeros((len(times),) + self.grid.shape, dtype=complex)
        for rule, mode, amp in self.terms:
            out[(slice(None),) + mode] += [amp * (-1j) ** j * rule(j, float(t)) for t in times]
        return out


# ---------------------------------------------------------------------------
# companion state: component j-1 holds D_t^{j-1} L^{m-j} u, an
# (m, K+1, *grid.shape) coefficient array


def _bracket_multiplier(grid: TorusGrid, s: float) -> np.ndarray:
    return (1.0 + grid.frequency_magnitude() ** 2) ** (s / 2.0)


def exact_companion_state(man: ManufacturedSolution, m: int,
                          time_grid: TimeGrid) -> np.ndarray:
    """Companion state with closed-form time derivatives (no stencil error)."""
    nodes = time_grid.nodes()
    return np.stack([man.dt(j - 1, nodes) * _bracket_multiplier(man.grid, m - j)
                     for j in range(1, m + 1)])


# ---------------------------------------------------------------------------
# companion symbol and diagonalization


def _radius(xi: Coords) -> np.ndarray:
    """|xi| per sample. Real powers in this module use np.float_power, for the
    reason in the rounding note of `symbols`."""
    return np.sqrt(sum(np.float_power(c, 2) for c in xi))


def _companion_stack(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(N, m, m) companion symbols from (N, m) tau-coefficients and (N,) |xi|."""
    if np.any(r <= 0.0):
        raise ValueError("frequency-zero sample rejected; |xi| must be positive")
    n, m = c.shape
    out = np.zeros((n, m, m), dtype=complex)
    out[:, np.arange(m - 1), np.arange(1, m)] = r[:, None]
    for j in range(1, m + 1):
        out[:, m - 1, j - 1] = _cmul(c[:, j - 1], np.float_power(r, j - m))
    return out


def companion_symbol(ps: PrincipalSymbol, t: float, slc: PathSlice | None,
                     x: Coords, xi: Coords) -> np.ndarray:
    """(N, m, m) frequency-normalized companion symbols at N samples that share
    (t, slc), x and xi holding (N,) arrays per axis: |xi| on the superdiagonal,
    the tau-coefficients c_{j-1} |xi|^{j-m} along the last row. Their
    eigenvalues are exactly the characteristic roots."""
    return _companion_stack(ps.coefficients(t, slc, x, xi), _radius(xi))


def _norm(z: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis. Its dot products are those of
    np.linalg.norm on one vector, so each norm rounds as that call does."""
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


@dataclass
class Diagonalization:
    """Eigendecomposition of the companion symbol at N samples; every field
    carries a leading sample axis."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: np.ndarray
    condition_number: np.ndarray


def diagonalize(solved: RootStack) -> Diagonalization:
    """Closed-form eigendecomposition at every sample of a root solve: column k
    is the Vandermonde-type vector (|xi|^{m-1}, lambda_k |xi|^{m-2}, ...,
    lambda_k^{m-1}), unit-normalized. The leading entry is positive, which
    fixes every column phase. Raises for the first sample with a repeated root."""
    roots = solved.roots
    n, m = roots.shape
    if m > 1:
        scale = 1.0 + np.abs(roots).max(axis=1)
        gap = pairwise_distances(roots).min(axis=1)
        degenerate = np.flatnonzero(gap < 1e-8 * scale)
        if degenerate.size:
            i = int(degenerate[0])
            raise DegenerateDiagonalizationError(
                f"repeated root (gap {gap[i]:.3e}) at xi={solved.sample_xi(i)}: "
                "companion symbol is not diagonalizable")
    r = _radius(solved.xi)
    mat = _companion_stack(solved.coefficients, r)
    # cols[:, k] is column k of V
    cols = np.stack([_cmul(_cpow(roots, j), np.float_power(r, m - 1 - j)[:, None])
                     for j in range(m)], axis=-1)
    vectors = np.ascontiguousarray((cols / _norm(cols)[..., None]).transpose(0, 2, 1))
    eig = np.zeros((n, m, m), dtype=complex)
    eig[:, np.arange(m), np.arange(m)] = roots
    residual = (_norm((mat @ vectors - vectors @ eig).reshape(n, -1))
                / np.maximum(_norm(mat.reshape(n, -1)), 1e-300))
    return Diagonalization(roots, vectors, residual, np.linalg.cond(vectors))


# ---------------------------------------------------------------------------
# branch tracking and root splitting


def _permutations(m: int) -> np.ndarray:
    """(m!, m) array of every ordering of m roots, the identity first."""
    if m > 6:
        raise BranchCrossingError("branch matching supported for m <= 6 only")
    return np.array(list(itertools.permutations(range(m))))


def _best_permutation(roots: np.ndarray, reference: np.ndarray,
                      perms: np.ndarray) -> np.ndarray:
    """Index into `perms` of the reordering of each row of `roots` (..., m)
    nearest the matching row of `reference` in summed distance. Every
    permutation is scored at once; a tie goes to the earliest."""
    diff = roots[..., perms] - reference[..., None, :]
    dist = np.hypot(diff.real, diff.imag)
    cost = sum(dist[..., i] for i in range(roots.shape[-1]))
    return np.argmin(cost, axis=-1)


@functools.cache
def _composition(m: int) -> np.ndarray:
    """(m!, m!) table whose entry [a, b] indexes perms[a][perms[b]] in
    `_permutations(m)`: reordering by b, then by a."""
    perms = _permutations(m)
    digits = m ** np.arange(m - 1, -1, -1)
    # itertools.permutations is lexicographic, so the codes ascend
    table = np.searchsorted(perms @ digits, perms[:, perms] @ digits)
    table.flags.writeable = False  # shared by every caller
    return table


def _chain(choice: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Running composition along `axis` of orderings relative to the previous
    entry: entry k becomes choice[k] o ... o choice[0], in log2(n) steps."""
    compose = _composition(m)
    out = np.moveaxis(choice, axis, -1).copy()
    step = 1
    while step < out.shape[-1]:
        out[..., step:] = compose[out[..., step:], out[..., :-step]]
        step *= 2
    return np.moveaxis(out, -1, axis)


def _min_distinct_gap(roots: np.ndarray) -> np.ndarray:
    """Smallest gap between distinct roots along the last axis (inf if none).
    Roots closer than COMPLEX_ROOT_REL_TOL (1 + max|root|) count as one."""
    scale = 1.0 + np.abs(roots).max(axis=-1, keepdims=True)
    gaps = pairwise_distances(roots)
    return np.where(gaps > COMPLEX_ROOT_REL_TOL * scale, gaps, np.inf).min(axis=-1)


@dataclass
class SplitRootSet:
    ps: PrincipalSymbol
    times: list[float]
    positions: list[tuple[np.ndarray, ...]]
    directions: list[np.ndarray]
    table: np.ndarray  # (num_t, num_x, num_angles, m) branch-consistent roots
    solve: RootStack  # over sample_grid(positions, directions) in each context, sorted


def split_roots(ps: PrincipalSymbol, dim: int = 1, *, num_angles: int = 64,
                num_x: int = 8, seed: int = 0) -> SplitRootSet:
    """Track root branches over (t, x, angle) samples on the unit sphere.

    The samples are the distinct ones of `audit_roots`. Branches are labeled
    by sorting at the first sample and continued by minimum-distance matching
    along angle, then position, then time. A sample whose distinct roots
    approach within 1e-6 makes continuation ambiguous.
    """
    contexts, positions, directions, solve = audit_roots(ps, dim, num_angles, num_x, seed)
    nt, nx, na, m = len(contexts), len(positions), len(directions), ps.m
    perms = _permutations(m)

    roots = solve.roots.reshape(nt, nx, na, m)
    failed = solve.failed.reshape(nt, nx, na)
    ambiguous = (_min_distinct_gap(roots) < BRANCH_AMBIGUITY_TOL if m > 1
                 else np.zeros_like(failed))
    bad = np.argwhere(failed | ambiguous)
    if len(bad):  # the first in (t, x, angle) order
        it, ix, ia = (int(i) for i in bad[0])
        if failed[it, ix, ia]:
            raise solve.error((it * nx + ix) * na + ia)
        raise BranchCrossingError(
            f"distinct roots within {BRANCH_AMBIGUITY_TOL:g} at "
            f"t={contexts[it][0]}, x={positions[ix]}, direction={directions[ia]}: "
            "matching ambiguous")

    # choice[it, ix, ia] indexes the permutation that orders that sample's
    # sorted roots by branch. Each sample is matched once against its
    # predecessor's sorted roots: along angle within each (t, x) row, and the
    # first direction of each row against the row before it, along x, then
    # t. Matching against the predecessor's branch order scores the same
    # distances, so its best ordering is the relative one composed with the
    # predecessor's, and the orderings are the relative ones composed along
    # the chain. A tie goes to the earliest relative ordering.
    choice = np.zeros((nt, nx, na), dtype=np.intp)
    choice[:, :, 1:] = _best_permutation(roots[:, :, 1:], roots[:, :, :-1], perms)
    first = roots[:, :, 0]
    previous = first.copy()
    previous[:, 1:], previous[1:, 0] = first[:, :-1], first[:-1, 0]
    choice[:, :, 0] = _best_permutation(first, previous, perms)
    choice[:, 0, 0] = _chain(choice[:, 0, 0], m, axis=0)
    choice[:, :, 0] = _chain(choice[:, :, 0], m, axis=1)
    choice = _chain(choice, m, axis=2)
    table = np.take_along_axis(roots, perms[choice], axis=-1)

    return SplitRootSet(ps, [t for t, _ in contexts], positions, directions, table, solve)


def branch_flags(table: np.ndarray) -> list[str]:
    """Per branch of a (..., m) root table: "zero" when every root is real,
    "elliptic" when every root is complex (`is_complex_root`), else "mixed"."""
    complex_roots = is_complex_root(table).reshape(-1, table.shape[-1])
    return ["elliptic" if c.all() else "mixed" if c.any() else "zero" for c in complex_roots.T]


def branch_symbol(split: SplitRootSet, branch: int, part: str = "im") -> Symbol:
    """Order-1 operator symbol from a tracked branch by homogeneous extension:
    value at xi is |xi| times the branch root at the nearest sampled direction
    (exact for the two directions of dim 1), read from the split's table at
    its first sample time. The zero frequency is routed to 0.

    Requires x- and path-independent tau-coefficients; the extension would
    misrepresent anything else.
    """
    ps = split.ps
    if ps.x_dependent or ps.requires_path:
        raise ValueError("branch symbols need x- and path-independent tau-coefficients")
    if part not in ("re", "im", "full"):
        raise ValueError("part must be 're', 'im', or 'full'")
    unit_dirs = np.array(split.directions)
    roots = split.table[0, 0, :, branch]

    def g(t, slc, xi):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in xi))
        shape = np.broadcast_shapes(*(np.shape(c) for c in xi))
        r = np.broadcast_to(r, shape).ravel()
        flat_xi = [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in xi]
        out = np.zeros(r.shape, dtype=complex)
        dirs = np.stack([np.where(r > 0, c / np.where(r > 0, r, 1.0), 0.0)
                         for c in flat_xi], axis=-1)
        live = r > 0
        uniq, inv = np.unique(np.round(dirs[live], 12), axis=0, return_inverse=True)
        # the nearest sampled direction of each distinct direction
        diff = uniq[:, None, :] - unit_dirs[None, :, :]
        nearest = np.argmin(np.sqrt(np.vecdot(diff, diff)), axis=1)
        out[live] = roots[nearest][inv] * r[live]
        if part == "re":
            out = out.real.astype(complex)
        elif part == "im":
            out = out.imag.astype(complex)
        return out.reshape(shape)

    label = {"re": "Re", "im": "Im", "full": ""}[part]
    return Symbol(f"branch{branch}-{label}[{ps.name}]", 1.0, ((None, g),))


# ---------------------------------------------------------------------------
# residual consistency of the companion system


@dataclass
class ConsistencyReport:
    """Closed-form residual agreement plus Euler-step convergence order.

    scalar_residual: max-over-nodes L2 norm of the order-m scalar defect.
    system_residual: same defect recovered through the companion rows.
    row_defects: closed-form residual of every non-final companion row.
    euler_gaps: per refinement level, max L2 gap between the forward-difference
    system defect and the scalar defect at the step's left endpoint.
    fitted_order: log-log slope of euler_gaps against dt.
    """

    scalar_residual: float
    system_residual: float
    row_defects: list[float]
    euler_gaps: dict[int, float]
    fitted_order: float


@dataclass
class _Defects:
    """Stacks over the nodes of one time grid, each (K+1, *grid.shape), with
    every operator frozen once per node, at (t_k, slc)."""

    time_grid: TimeGrid
    dts: dict[int, np.ndarray]  # k -> closed-form D_t^k u
    state: np.ndarray  # (m, K+1, *grid.shape) exact companion state
    last_row: np.ndarray  # companion last row applied to the state
    forcing: np.ndarray  # lower-order terms, sum of b D_t^k u
    scalar: np.ndarray  # D_t^m u - sum_k A_k D_t^k u - forcing


def _frozen(sym: Symbol, grid: TorusGrid, t: float, slc: PathSlice | None,
            coefficients: np.ndarray) -> np.ndarray:
    """Op(sym) frozen at (t, slc), applied to one coefficient array."""
    op = SpdoOperator(sym, grid, t, slc)
    return op.apply_coefficients(coefficients.reshape(1, -1)).reshape(grid.shape)


def _defects(man: ManufacturedSolution, ps: PrincipalSymbol, tg: TimeGrid,
             slc: PathSlice | None, lower_order: Sequence[tuple[int, Symbol]]) -> _Defects:
    grid, m = man.grid, ps.m
    nodes = tg.nodes()
    dts = {k: man.dt(k, nodes) for k in set(range(m + 1)) | {k for k, _ in lower_order}}
    state = exact_companion_state(man, m, tg)
    # entry j of the last row: the quantization of c_{j-1} L^{j-m}
    row_symbols = [symbol_product(c, lambda_symbol(j - m))
                   for j, c in enumerate(ps.tau_coefficients, start=1)]
    principal, last_row, forcing = (np.zeros_like(dts[m]) for _ in range(3))
    for i, t in enumerate(nodes.tolist()):
        principal[i] = sum(_frozen(c, grid, t, slc, dts[k][i])
                           for k, c in enumerate(ps.tau_coefficients))
        last_row[i] = sum(_frozen(r, grid, t, slc, state[j][i])
                          for j, r in enumerate(row_symbols))
        forcing[i] = sum(_frozen(b, grid, t, slc, dts[k][i]) for k, b in lower_order)
    return _Defects(tg, dts, state, last_row, forcing, dts[m] - principal - forcing)


def reduction_consistency_check(man: ManufacturedSolution, ps: PrincipalSymbol,
                                time_grid: TimeGrid, *,
                                slc: PathSlice | None = None,
                                lower_order: Sequence[tuple[int, Symbol]] = (),
                                refinements: Sequence[int] = (1, 2, 4)) -> ConsistencyReport:
    """Compare the order-m scalar defect with the companion-system defect.

    With closed-form time derivatives the last system row reproduces the
    scalar defect exactly (the bracket weights cancel), and the other rows
    vanish; the forward-difference system defect converges to the scalar one
    at first order in dt, which is the measured quantity. Norms are Parseval
    sums over the coefficients, maximized over the nodes.
    """
    grid, m = man.grid, ps.m
    axes = tuple(range(1, grid.dim + 1))

    def max_norm(stack: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(stack) ** 2, axis=axes)).max())

    coarse = _defects(man, ps, time_grid, slc, lower_order)
    lam1 = _bracket_multiplier(grid, 1.0)
    # D_t of component j is D_t^j L^{m-j} u; row j < m equals L times component j + 1
    row_defects = [max_norm(coarse.dts[j] * _bracket_multiplier(grid, m - j)
                            - coarse.state[j] * lam1) for j in range(1, m)]
    system = max_norm(coarse.dts[m] - coarse.last_row - coarse.forcing)

    # forward-difference defect vs the scalar defect, refined in dt
    euler_gaps: dict[int, float] = {}
    for factor in refinements:
        d = coarse if factor == 1 else _defects(
            man, ps, TimeGrid(time_grid.horizon, time_grid.steps * factor), slc, lower_order)
        dM = np.diff(d.state[m - 1], axis=0) / d.time_grid.dt
        gap = -1j * dM - d.last_row[:-1] - d.forcing[:-1] - d.scalar[:-1]
        euler_gaps[d.time_grid.steps] = max_norm(gap)

    ks = np.array(sorted(euler_gaps))
    gs = np.array([euler_gaps[k] for k in ks])
    live = gs > 1e-14
    if np.count_nonzero(live) >= 2:
        order = float(np.polyfit(np.log(1.0 / ks[live]), np.log(gs[live]), 1)[0])
    else:
        order = math.inf
    return ConsistencyReport(max_norm(coarse.scalar), system, row_defects, euler_gaps, order)


# ---------------------------------------------------------------------------
# sampled eigentable for report emission


@dataclass
class ReductionTable:
    """Per-sample columns of the tracked branches. Sample s is the s-th
    (t, x, angle) of itertools.product(times, xs, angles); roots[s, k] is
    its branch-k root."""

    times: list[float]
    xs: list[float]
    angles: list[float]
    roots: np.ndarray  # (S, m) branch-consistent roots
    resid: np.ndarray  # (S,) relative residual of the diagonalization
    cond: np.ndarray  # (S,) condition number of the eigenvector matrix
    root_samples_solved: int  # samples of the one stacked root solve


def reduction_table(ps: PrincipalSymbol, dim: int = 1, *, num_angles: int = 64,
                    num_x: int = 8, seed: int = 0) -> ReductionTable:
    """Per-sample eigenvalue/diagonalization columns for the tracked branches,
    from one diagonalization of the split's root stack."""
    split = split_roots(ps, dim, num_angles=num_angles, num_x=num_x, seed=seed)
    diag = diagonalize(split.solve)
    xs = [float(np.asarray(x[0])) for x in split.positions]
    angles = [float(math.atan2(d[1] if dim == 2 else 0.0, d[0])) for d in split.directions]
    return ReductionTable([float(t) for t in split.times], xs, angles,
                          split.table.reshape(-1, ps.m), diag.residual, diag.condition_number,
                          len(diag.residual))
