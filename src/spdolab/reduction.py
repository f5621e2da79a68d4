"""First-order companion reduction of an order-m evolution equation.

The scalar equation  D_t^m u = sum_k A_k D_t^k u + (lower order)  with
D_t = (1/i) d/dt is rewritten in the stacked state
M = (L^{m-1}u, D_t L^{m-2}u, ..., D_t^{m-1}u)^T, where L^s is the bracket
multiplier of order s. The system matrix carries L on the superdiagonal and
A_{j-1} L^{j-m} along the last row; its frequency-normalized principal symbol
replaces L by |xi| and has the characteristic roots as exact eigenvalues.
Root branches are tracked by nearest-neighbor continuation, split into real
and imaginary parts, and extended homogeneously into operator symbols.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (BranchCrossingError, DegenerateDiagonalizationError, StencilError)
from .grid import SpectralField, TorusGrid, l2_norm
from .paths import PathSlice, TimeGrid
from .symbols import (COMPLEX_ROOT_REL_TOL, Coords, PrincipalSymbol, RootStack, Symbol,
                      _cmul, _cpow, one_sample, pairwise_distances, sample_contexts,
                      sample_directions, sample_grid, sample_positions, solve_roots)
from .operators import SpdoOperator

# continuation is ambiguous when distinct roots approach closer than this
BRANCH_AMBIGUITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# manufactured solutions with closed-form time derivatives


@dataclass(frozen=True)
class TimeProfile:
    """Scalar profile phi(t) with exact derivatives of every order."""

    label: str
    derivative_rule: Callable[[int, float], complex]

    def derivative(self, j: int, t: float) -> complex:
        return self.derivative_rule(j, t)

    def __call__(self, t: float) -> complex:
        return self.derivative_rule(0, t)


def sine_profile(omega: float, phase: float = 0.0, amplitude: float = 1.0) -> TimeProfile:
    def rule(j, t):
        return amplitude * omega**j * math.sin(omega * t + phase + j * math.pi / 2.0)
    return TimeProfile(f"sin[{omega}t+{phase}]", rule)


def exponential_profile(rate: complex, amplitude: complex = 1.0) -> TimeProfile:
    def rule(j, t):
        return amplitude * rate**j * np.exp(rate * t)
    return TimeProfile(f"exp[{rate}t]", rule)


@dataclass(frozen=True)
class ManufacturedSolution:
    """Finite mode sum  u(t, x) = sum_r phi_r(t) e^{i k_r . x}."""

    grid: TorusGrid
    terms: tuple[tuple[TimeProfile, tuple[int, ...], complex], ...]

    @classmethod
    def single(cls, grid: TorusGrid, profile: TimeProfile, mode: int | tuple[int, ...],
               amplitude: complex = 1.0) -> "ManufacturedSolution":
        m = (mode,) if isinstance(mode, int) else tuple(mode)
        return cls(grid, ((profile, m, amplitude),))

    def dt_field(self, j: int, t: float) -> SpectralField:
        """Closed-form D_t^j u(t) = (1/i)^j d^j/dt^j u(t)."""
        out = SpectralField.zero(self.grid)
        for profile, mode, amp in self.terms:
            coeff = amp * (-1j) ** j * profile.derivative(j, t)
            out = out + SpectralField.pure_mode(self.grid, mode, coeff)
        return out

    def field_at(self, t: float) -> SpectralField:
        return self.dt_field(0, t)

    def snapshots(self, time_grid: TimeGrid) -> list[SpectralField]:
        return [self.field_at(t) for t in time_grid.nodes()]


# ---------------------------------------------------------------------------
# companion state


def _bracket_multiplier(grid: TorusGrid, s: float) -> np.ndarray:
    return (1.0 + grid.frequency_magnitude() ** 2) ** (s / 2.0)


@dataclass
class CompanionState:
    """Stacked state on the time grid: component j-1 holds D_t^{j-1} L^{m-j} u."""

    m: int
    grid: TorusGrid
    time_grid: TimeGrid
    stacks: tuple[np.ndarray, ...]  # each (K+1, *grid.shape) coefficient array

    def __post_init__(self):
        if len(self.stacks) != self.m:
            raise ValueError("stack count must equal m")

    def field(self, component: int, node: int) -> SpectralField:
        return SpectralField.from_coefficients(self.grid, self.stacks[component][node])


def build_companion_state(snapshots: Sequence[SpectralField], m: int,
                          time_grid: TimeGrid) -> CompanionState:
    """Companion state from time snapshots; D_t realized by second-order
    finite differences (central inside, one-sided at the ends)."""
    if len(snapshots) != time_grid.steps + 1:
        raise ValueError("snapshot count must be steps + 1")
    if m >= 2 and len(snapshots) < 2 * m + 1:
        raise StencilError(
            f"need at least {2 * m + 1} time nodes for {m - 1} derivatives, "
            f"got {len(snapshots)}")
    grid = snapshots[0].grid
    base = np.stack([s.coefficients for s in snapshots])
    dt = time_grid.dt
    stacks = []
    for j in range(1, m + 1):
        comp = base * _bracket_multiplier(grid, m - j)
        for _ in range(j - 1):
            comp = -1j * np.gradient(comp, dt, axis=0, edge_order=2)
        stacks.append(comp)
    return CompanionState(m, grid, time_grid, tuple(stacks))


def exact_companion_state(man: ManufacturedSolution, m: int,
                          time_grid: TimeGrid) -> CompanionState:
    """Companion state with closed-form time derivatives (no stencil error)."""
    grid = man.grid
    stacks = []
    for j in range(1, m + 1):
        mult = _bracket_multiplier(grid, m - j)
        rows = [(man.dt_field(j - 1, t).coefficients * mult) for t in time_grid.nodes()]
        stacks.append(np.stack(rows))
    return CompanionState(m, grid, time_grid, tuple(stacks))


# ---------------------------------------------------------------------------
# principal matrix symbol and diagonalization


def _radius(xi: Coords) -> np.ndarray:
    """|xi| per sample. Real powers in this module use np.float_power, for the
    reason in the rounding note of `symbols`."""
    return np.sqrt(sum(np.float_power(c, 2) for c in xi))


def _companion_stack(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(N, m, m) companion symbols from (N, m) tau-coefficients and (N,) |xi|."""
    n, m = c.shape
    out = np.zeros((n, m, m), dtype=complex)
    out[:, np.arange(m - 1), np.arange(1, m)] = r[:, None]
    for j in range(1, m + 1):
        out[:, m - 1, j - 1] = _cmul(c[:, j - 1], np.float_power(r, j - m))
    return out


def _norm(z: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis. Its dot products are those of
    np.linalg.norm on one vector, so each norm rounds as that call does."""
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


@dataclass
class PrincipalMatrixSymbol:
    """Frequency-normalized companion symbol: |xi| on the superdiagonal, the
    tau-coefficients c_{j-1} |xi|^{j-m} along the last row. Its eigenvalues
    are exactly the characteristic roots."""

    ps: PrincipalSymbol

    @property
    def m(self) -> int:
        return self.ps.m

    def matrix_at(self, t: float, slc: PathSlice | None, x, xi) -> np.ndarray:
        x, xi = one_sample(x), one_sample(xi)
        r = _radius(xi)
        if r[0] <= 0.0:
            raise ValueError("frequency-zero sample rejected; |xi| must be positive")
        return _companion_stack(self.ps.coefficients(t, slc, x, xi), r)[0]


def principal_matrix_symbol(ps: PrincipalSymbol) -> PrincipalMatrixSymbol:
    return PrincipalMatrixSymbol(ps)


@dataclass
class Diagonalization:
    """Eigendecomposition of the companion symbol. In a stack over N samples
    every field carries a leading sample axis."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    vectors_inverse: np.ndarray
    residual: float | np.ndarray
    condition_number: float | np.ndarray


def _diagonalize_stack(solved: RootStack) -> Diagonalization:
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
    if np.any(r <= 0.0):
        raise ValueError("frequency-zero sample rejected; |xi| must be positive")
    # cols[:, k] is column k of V
    cols = np.stack([_cmul(_cpow(roots, j), np.float_power(r, m - 1 - j)[:, None])
                     for j in range(m)], axis=-1)
    vectors = np.ascontiguousarray((cols / _norm(cols)[..., None]).transpose(0, 2, 1))
    mat = _companion_stack(solved.coefficients, r)
    eig = np.zeros((n, m, m), dtype=complex)
    eig[:, np.arange(m), np.arange(m)] = roots
    residual = (_norm((mat @ vectors - vectors @ eig).reshape(n, -1))
                / np.maximum(_norm(mat.reshape(n, -1)), 1e-300))
    return Diagonalization(roots, vectors, np.linalg.inv(vectors), residual,
                           np.linalg.cond(vectors))


def diagonalize(sigma: PrincipalMatrixSymbol, t: float, slc: PathSlice | None,
                x, xi) -> Diagonalization:
    """The eigendecomposition of `_diagonalize_stack` at one sample."""
    solved = solve_roots(sigma.ps, t, slc, one_sample(x), one_sample(xi)).checked()
    d = _diagonalize_stack(solved)
    return Diagonalization(d.eigenvalues[0], d.vectors[0], d.vectors_inverse[0],
                           float(d.residual[0]), float(d.condition_number[0]))


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


def _min_distinct_gap(roots: np.ndarray) -> np.ndarray:
    """Smallest gap between distinct roots along the last axis (inf if none).
    Roots closer than COMPLEX_ROOT_REL_TOL (1 + max|root|) count as one."""
    scale = 1.0 + np.abs(roots).max(axis=-1, keepdims=True)
    gaps = pairwise_distances(roots)
    return np.where(gaps > COMPLEX_ROOT_REL_TOL * scale, gaps, np.inf).min(axis=-1)


@dataclass
class SplitRoot:
    """One tracked root branch split as lambda = a1 + i b1 over the samples."""

    branch: int
    values: np.ndarray  # (num_t, num_x, num_angles) complex
    flag: str  # "zero" | "elliptic" | "mixed"


@dataclass
class SplitRootSet:
    ps: PrincipalSymbol
    dim: int
    times: list[float]
    slices: list[PathSlice | None]
    positions: list[tuple[np.ndarray, ...]]
    directions: list[np.ndarray]
    table: np.ndarray  # (num_t, num_x, num_angles, m) branch-consistent roots
    branches: list[SplitRoot]
    solves: list[RootStack]  # per time, over sample_grid(positions, directions), sorted


def split_roots(ps: PrincipalSymbol, dim: int = 1, *, num_angles: int = 64,
                num_x: int = 8, seed: int = 0,
                time_grid: TimeGrid | None = None) -> SplitRootSet:
    """Track root branches over (t, x, angle) samples on the unit sphere and
    split each branch into real and imaginary symbol parts.

    Branches are labeled by sorting at the first sample and continued by
    minimum-distance matching along angle, then position, then time. A sample
    whose distinct roots approach within 1e-6 makes continuation ambiguous.
    """
    contexts = (sample_contexts(seed, time_grid=time_grid) if ps.requires_path
                else [(t, None) for t in (0.0, 0.125, 0.25)])
    positions = sample_positions(dim, num_x) if ps.x_dependent else [
        tuple(np.array(0.0) for _ in range(dim))]
    directions = sample_directions(dim, num_angles)
    nt, nx, na, m = len(contexts), len(positions), len(directions), ps.m
    perms = _permutations(m)

    x, xi = sample_grid(positions, directions)
    solves = [solve_roots(ps, t, slc, x, xi) for t, slc in contexts]
    roots = np.stack([s.roots for s in solves]).reshape(nt, nx, na, m)
    failed = np.stack([s.failed for s in solves]).reshape(nt, nx, na)
    ambiguous = (_min_distinct_gap(roots) < BRANCH_AMBIGUITY_TOL if m > 1
                 else np.zeros_like(failed))
    bad = np.argwhere(failed | ambiguous)
    if len(bad):  # the first in (t, x, angle) order
        it, ix, ia = (int(i) for i in bad[0])
        if failed[it, ix, ia]:
            raise solves[it].error(ix * na + ia)
        raise BranchCrossingError(
            f"distinct roots within {BRANCH_AMBIGUITY_TOL:g} at "
            f"t={contexts[it][0]}, x={positions[ix]}, direction={directions[ia]}: "
            "matching ambiguous")

    # choice[it, ix, ia] indexes the permutation that orders that sample's
    # roots by branch. The first direction of each (t, x) row continues from
    # the row before it, along x, then t; each row then continues along angle,
    # all rows in step.
    choice = np.zeros((nt, nx, na), dtype=int)
    for it in range(nt):
        for ix in range(nx):
            if it or ix:
                prev = (it, ix - 1, 0) if ix else (it - 1, 0, 0)
                reference = roots[prev][perms[choice[prev]]]
                choice[it, ix, 0] = _best_permutation(roots[it, ix, 0], reference, perms)
    for ia in range(1, na):
        reference = np.take_along_axis(roots[:, :, ia - 1], perms[choice[:, :, ia - 1]], axis=-1)
        choice[:, :, ia] = _best_permutation(roots[:, :, ia], reference, perms)
    table = np.take_along_axis(roots, perms[choice], axis=-1)

    branches = []
    for k in range(m):
        vals = table[..., k]
        scale = 1.0 + np.abs(vals)
        im = np.abs(vals.imag)
        if np.all(im <= COMPLEX_ROOT_REL_TOL * scale):
            flag = "zero"
        elif np.all(im > COMPLEX_ROOT_REL_TOL * scale):
            flag = "elliptic"
        else:
            flag = "mixed"
        branches.append(SplitRoot(k, vals, flag))
    return SplitRootSet(ps, dim, [t for t, _ in contexts], [s for _, s in contexts],
                        positions, directions, table, branches, solves)


def branch_symbol(split: SplitRootSet, branch: int, part: str = "im") -> Symbol:
    """Order-1 operator symbol from a tracked branch by homogeneous extension:
    value at xi is |xi| times the branch root at the nearest sampled direction
    (exact for the two directions of dim 1). The zero frequency is routed to 0.

    Requires a homogeneous, x-independent, path-independent principal part; the
    extension would misrepresent anything else.
    """
    ps = split.ps
    if not ps.homogeneous or ps.x_dependent or ps.requires_path:
        raise ValueError(
            "branch symbols need a homogeneous principal part with x- and "
            "path-independent coefficients")
    if part not in ("re", "im", "full"):
        raise ValueError("part must be 're', 'im', or 'full'")
    unit_dirs = np.array(split.directions)
    perms = _permutations(ps.m)

    def fn(t, slc, x, xi):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in xi))
        shape = np.broadcast_shapes(*(np.shape(c) for c in (x + xi))) if (x + xi) else ()
        r = np.broadcast_to(r, shape).ravel()
        flat_xi = [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in xi]
        out = np.zeros(r.shape, dtype=complex)
        dirs = np.stack([np.where(r > 0, c / np.where(r > 0, r, 1.0), 0.0)
                         for c in flat_xi], axis=-1)
        live = r > 0
        uniq, inv = np.unique(np.round(dirs[live], 12), axis=0, return_inverse=True)
        # one root solve over the distinct directions, each at its nearest sampled one
        diff = uniq[:, None, :] - unit_dirs[None, :, :]
        nearest = np.argmin(np.sqrt(np.vecdot(diff, diff)), axis=1)
        x0 = tuple(np.zeros(len(uniq)) for _ in range(split.dim))
        xi_unit = tuple(unit_dirs[nearest, ax] for ax in range(split.dim))
        roots = solve_roots(ps, t, slc, x0, xi_unit).checked().roots
        reference = split.table[0, 0, nearest]
        matched = np.take_along_axis(
            roots, perms[_best_permutation(roots, reference, perms)], axis=-1)
        out[live] = matched[inv, branch] * r[live]
        if part == "re":
            out = out.real.astype(complex)
        elif part == "im":
            out = out.imag.astype(complex)
        return out.reshape(shape)

    label = {"re": "Re", "im": "Im", "full": ""}[part]
    return Symbol(f"branch{branch}-{label}[{ps.name}]", 1.0, fn, x_dependent=False)


# ---------------------------------------------------------------------------
# system operator matrix and residual consistency


def _last_row_operators(ps: PrincipalSymbol, grid: TorusGrid, t: float,
                        slc: PathSlice | None) -> list[SpdoOperator]:
    """Entry j of the companion last row: quantization of c_{j-1} L^{j-m}."""
    m = ps.m
    ops = []
    for j in range(1, m + 1):
        rule = ps.tau_coefficients[j - 1]

        def sym_fn(tt, ss, x, xi, rule=rule, j=j):
            val = np.asarray(rule(tt, ss, x, xi), dtype=complex)
            lam = (1.0 + sum(np.asarray(c, dtype=float) ** 2 for c in xi)) ** ((j - m) / 2.0)
            return val * lam

        # c_{j-1} has frequency degree m - j + 1, the bracket adds j - m
        sym = Symbol(f"row[{ps.name};{j}]", 1.0, sym_fn, x_dependent=ps.x_dependent)
        ops.append(SpdoOperator(sym, grid, t, slc))
    return ops


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


def _scalar_defect(man: ManufacturedSolution, ps: PrincipalSymbol, grid: TorusGrid,
                   t: float, slc: PathSlice | None,
                   lower_order: Sequence[tuple[int, Symbol]]) -> SpectralField:
    """D_t^m u - sum_k A_k D_t^k u - sum b_beta D_t^k u at one time."""
    m = ps.m
    out = man.dt_field(m, t)
    for k in range(m):
        rule = ps.tau_coefficients[k]

        def sym_fn(tt, ss, x, xi, rule=rule):
            return np.asarray(rule(tt, ss, x, xi), dtype=complex)

        sym = Symbol(f"coef{k}", float(m - k), sym_fn, x_dependent=ps.x_dependent)
        op = SpdoOperator(sym, grid, t, slc)
        out = out - op.apply(man.dt_field(k, t))
    for k, sym in lower_order:
        op = SpdoOperator(sym, grid, t, slc)
        out = out - op.apply(man.dt_field(k, t))
    return out


def reduction_consistency_check(man: ManufacturedSolution, ps: PrincipalSymbol,
                                time_grid: TimeGrid, *,
                                slc: PathSlice | None = None,
                                lower_order: Sequence[tuple[int, Symbol]] = (),
                                refinements: Sequence[int] = (1, 2, 4)) -> ConsistencyReport:
    """Compare the order-m scalar defect with the companion-system defect.

    With closed-form time derivatives the last system row reproduces the
    scalar defect exactly (the bracket weights cancel), and the other rows
    vanish; the forward-difference system defect converges to the scalar one
    at first order in dt, which is the measured quantity.
    """
    grid = man.grid
    m = ps.m
    nodes = time_grid.nodes()

    scalar_fields = [_scalar_defect(man, ps, grid, float(t), slc, lower_order)
                     for t in nodes]
    scalar_norm = max(l2_norm(f) for f in scalar_fields)

    lam1 = _bracket_multiplier(grid, 1.0)
    state = exact_companion_state(man, m, time_grid)

    # closed-form system defect rows at every node
    row_defect_norms = [0.0] * (m - 1)
    system_norm = 0.0
    for k in range(len(nodes)):
        t = float(nodes[k])
        for j in range(1, m):
            lhs = man_component_derivative(man, m, j, t)
            rhs = state.field(j, k).coefficients * lam1
            gap = SpectralField.from_coefficients(grid, lhs - rhs)
            row_defect_norms[j - 1] = max(row_defect_norms[j - 1], l2_norm(gap))
        lhs_m = man_component_derivative(man, m, m, t)
        defect = (lhs_m - _last_row_apply(ps, state, k, t, slc)
                  - _f_stack_at(man, grid, t, slc, lower_order))
        system_norm = max(system_norm,
                          l2_norm(SpectralField.from_coefficients(grid, defect)))

    # forward-difference defect vs the scalar defect, refined in dt
    euler_gaps: dict[int, float] = {}
    for factor in refinements:
        tg = TimeGrid(time_grid.horizon, time_grid.steps * factor)
        fine = exact_companion_state(man, m, tg)
        fine_nodes = tg.nodes()
        gap = 0.0
        for k in range(tg.steps):
            t = float(fine_nodes[k])
            dM = (fine.stacks[m - 1][k + 1] - fine.stacks[m - 1][k]) / tg.dt
            rhs = _last_row_apply(ps, fine, k, t, slc)
            defect = -1j * dM - rhs - _f_stack_at(man, grid, t, slc, lower_order)
            scalar_here = _scalar_defect(man, ps, grid, t, slc, lower_order)
            diff = SpectralField.from_coefficients(grid, defect) - scalar_here
            gap = max(gap, l2_norm(diff))
        euler_gaps[tg.steps] = gap

    ks = np.array(sorted(euler_gaps))
    gs = np.array([euler_gaps[k] for k in ks])
    live = gs > 1e-14
    if np.count_nonzero(live) >= 2:
        order = float(np.polyfit(np.log(1.0 / ks[live]), np.log(gs[live]), 1)[0])
    else:
        order = math.inf
    return ConsistencyReport(scalar_norm, system_norm, row_defect_norms,
                             euler_gaps, order)


def man_component_derivative(man: ManufacturedSolution, m: int, j: int,
                             t: float) -> np.ndarray:
    """Closed-form D_t of companion component j (1-based) as coefficients."""
    grid = man.grid
    mult = _bracket_multiplier(grid, m - j)
    return man.dt_field(j, t).coefficients * mult


def _last_row_apply(ps: PrincipalSymbol, state: CompanionState, k: int, t: float,
                    slc: PathSlice | None) -> np.ndarray:
    """Companion last row frozen at (t, slc), applied to the state at node k."""
    total = np.zeros(state.grid.shape, dtype=complex)
    for j, op in enumerate(_last_row_operators(ps, state.grid, t, slc), start=1):
        total = total + op.apply(state.field(j - 1, k)).coefficients
    return total


def _f_stack_at(man: ManufacturedSolution, grid: TorusGrid, t: float,
                slc: PathSlice | None,
                lower_order: Sequence[tuple[int, Symbol]]) -> np.ndarray:
    total = np.zeros(grid.shape, dtype=complex)
    for k, sym in lower_order:
        op = SpdoOperator(sym, grid, t, slc)
        total = total + op.apply(man.dt_field(k, t)).coefficients
    return total


# ---------------------------------------------------------------------------
# sampled eigentable for report emission


@dataclass
class ReductionRow:
    t: float
    x: float
    angle: float
    branch: int
    re_lambda: float
    im_lambda: float
    resid: float
    cond: float  # condition number of the sample's eigenvector matrix


def reduction_table(ps: PrincipalSymbol, dim: int = 1, *, num_angles: int = 64,
                    num_x: int = 8, seed: int = 0,
                    time_grid: TimeGrid | None = None) -> list[ReductionRow]:
    """Per-sample eigenvalue/diagonalization rows for the tracked branches."""
    split = split_roots(ps, dim, num_angles=num_angles, num_x=num_x, seed=seed,
                        time_grid=time_grid)
    xs = [float(np.asarray(x[0])) for x in split.positions]
    angles = [float(math.atan2(d[1] if dim == 2 else 0.0, d[0])) for d in split.directions]
    samples = list(itertools.product(range(len(xs)), range(len(angles))))
    rows = []
    for t, solved, lam in zip(split.times, split.solves, split.table):
        diag = _diagonalize_stack(solved)
        re, im = lam.real.tolist(), lam.imag.tolist()
        resid, cond = diag.residual.tolist(), diag.condition_number.tolist()
        rows += [ReductionRow(float(t), xs[ix], angles[ia], k, re[ix][ia][k], im[ix][ia][k],
                              resid[s], cond[s])
                 for s, (ix, ia) in enumerate(samples) for k in range(ps.m)]
    return rows
