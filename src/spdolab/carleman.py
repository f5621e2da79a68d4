"""Monte Carlo verification of a weighted energy inequality.

For endpoint-pinned semimartingales z and frozen order-one operator families
A1, B1, both sides of the estimate

    int e^{mu(t-T)^2} |z|^2 dt
      + (1/mu) int e^{mu(t-T)^2} |mu(t-T)z - B1 z|^2 dt
    <=  (4/mu) Re int e [ (1/i)dz - A1 z dt - i B1 z dt ] . conj(i mu(t-T)z - i B1 z)
      - (2/mu) Im int e [ same bracket ] . conj((B1 - B1*) z)
      - 2      int (t-T) e |dz|^2
      - (2/mu) Re int e (dz, B1 dz)

are assembled per simulated path and averaged. Stochastic integrals use
left-endpoint (Ito) evaluation against realized increments; |dz|^2 and
(dz, B1 dz) are realized squared increments. Deterministic time integrals
use the trapezoidal rule. The verdict compares the gap rhs - lhs against
-3 standard errors; a scan maps the (mu, T) validity region empirically.

Every process is windowed additive noise z = eta (Y_0 + g w), and A1, B1, B1*
are linear and frozen, so A z = eta (A Y_0 + w A g). A scan applies each
family once, to the generators (Y_0, g). Every spatial pairing the terms take
is an inner product among those at most 2J generator images (J = 3 or 4
images per generator), so the scan also takes, once, their coordinates in an
orthonormal basis of their span (`image_coordinates`). By Parseval and
Q^H Q = I these coordinates pair as the Fourier coefficients do, exactly up
to rounding, on at most 2J columns, and on one column for Fourier multipliers
on a one-mode process.

Image j of z at node k is then u_k a_j + v_k b_j, with u = eta, a_j and b_j
the coordinates of the images of Y_0 and g, and v_k = eta_k w_k one real
scalar per path and node. Each pairing the six terms take is a quadratic
polynomial in the path scalars v_k and dv_k = v_{k+1} - v_k, whose per-node
coefficients are inner products of path-free vectors (`node_coefficients`):
each such vector, mu (t-T) a_0 - a_2 for one, is formed first and then
paired, as a field would be. The Monte Carlo substitutes sampled scalars into
these polynomials; expected ones (E v_k^2 = eta_k^2 t_k, ...) would give the
exact expected terms from the same coefficients.

Path p uses the same K standard normals in every cell, so a scan draws them
once (`paths.brownian_normals`), a block of paths at a time. The coefficients
of every mu of a horizon are taken once per scan. Per block and horizon the
block's Brownian values and its scalars v and dv are built once
(`path_scalars`); each cell's terms are then elementwise products and
last-axis sums along the block's leading path axis (`monomial_terms`), and
one `aggregate` reduces the stacked terms of every cell. No per-path field
array is built, and no pairing runs through BLAS. A block holds at most
`BLOCK_ENTRIES` normals, so memory is bounded whatever P is, but for the
(P, 6) terms of each cell. Each path goes through the same operations in any
block, so no result depends on the blocking, and `verify_inequality` is the
one-cell scan.

The weight is reported scaled by e^{-mu T^2}, i.e. as e^{mu((t-T)^2 - T^2)}
<= 1: the unscaled maximum e^{mu T^2} overflows once mu T^2 exceeds about
709. The verdict is unchanged by a common positive factor;
`log_weight_scale` = mu T^2 recovers absolute values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError
from .grid import TorusGrid, mode_coefficients
from .paths import (TimeGrid, brownian_normals, brownian_values, parabolic_window,
                    pinned_window, sine_window)
from .operators import SpdoOperator, quantize
from . import catalog, reduction

TERM_LABELS = ("term1", "term2", "term3", "term4", "term5", "term6")

# standard normals of one block of paths, (B, K): with them each (B, K+1)
# array of the block is bounded, so a scan's memory is bounded whatever P is,
# and no result changes. 2^13 holds 16 paths at K = 512 whatever the families;
# 2^14 raised the traced peak of an x-dependent scan above that of the field
# route it replaced.
BLOCK_ENTRIES = 1 << 13

# the path scalars the six terms are polynomials in, the monomials of those
# the terms read, and each term's monomials as indices into MONOMIALS
SCALARS = ("1", "v", "dv")
MONOMIALS = ("v", "v*v", "v*dv", "dv", "dv*dv")
TERM_MONOMIALS = ((0, 1),) * 2 + ((0, 1, 2, 3),) * 2 + ((3, 4),) * 2
MONOMIAL_OF = {(m, n): "*".join(s for s in sorted((m, n), key=SCALARS.index) if s != "1") or "1"
               for m in SCALARS for n in SCALARS}


# ---------------------------------------------------------------------------
# operator families


def resolve_operator_family(selector: str, grid: TorusGrid) -> SpdoOperator:
    """Family selectors: any catalog symbol (`zero` and `lambda:s` among them),
    or `reduction-re:<principal>:<branch>` / `reduction-im:<principal>:<branch>`
    for the real/imaginary part of a tracked root branch.

    Catalog symbols and deterministic reduction branches carry no explicit
    time or path dependence, so one frozen operator serves every time node.
    """
    selector = selector.strip()
    if selector.startswith("reduction-re:") or selector.startswith("reduction-im:"):
        head, _, rest = selector.partition(":")
        principal_sel, _, branch_txt = rest.rpartition(":")
        if not principal_sel:
            raise ValueError(
                f"selector {selector!r} needs the form reduction-re:<principal>:<branch>")
        try:
            branch = int(branch_txt)
        except ValueError as exc:
            raise ValueError(f"branch index {branch_txt!r} is not an integer") from exc
        ps = catalog.make_principal(principal_sel)
        split = reduction.split_roots(ps, grid.dim)
        if not 0 <= branch < ps.m:
            raise ValueError(f"branch {branch} out of range for m = {ps.m}")
        part = "re" if head.endswith("re") else "im"
        return quantize(reduction.branch_symbol(split, branch, part), grid)
    sym = catalog.make_symbol(selector)
    if sym.requires_path:
        raise ValueError(
            f"operator family {selector!r} depends on the driving path and "
            "cannot be frozen across simulated paths")
    return quantize(sym, grid)


# ---------------------------------------------------------------------------
# process families


def resolve_window(selector: str) -> Callable[[TimeGrid], np.ndarray]:
    if selector == "sine":
        return sine_window
    if selector == "parabolic":
        return parabolic_window
    raise ValueError(f"unknown window {selector!r}; choose sine or parabolic")


def resolve_process(selector: str, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Process selectors, as the coefficients of (Y_0, g) of z = eta (Y_0 + g w):
    `deterministic-mode:k[,amp]` for z = eta(t) amp e^{ikx}, and
    `brownian-mode:amp,k` for the windowed process with dY = amp e^{ikx} dw.
    In two dimensions the mode runs along the first axis, e^{ikx_1}."""
    name, _, argstr = selector.strip().partition(":")
    args = [float(a) for a in argstr.split(",")] if argstr.strip() else []

    def mode(k, amp):
        return mode_coefficients(grid, (int(k),) + (0,) * (grid.dim - 1), amp)

    if name == "deterministic-mode":
        k = args[0] if args else 1
        amp = args[1] if len(args) > 1 else 1.0
        initial = mode(k, amp)
        return initial, np.zeros_like(initial)
    if name == "brownian-mode":
        if len(args) < 2:
            raise ValueError("brownian-mode needs amplitude and mode: brownian-mode:amp,k")
        amp, k = args[0], args[1]
        noise = mode(k, amp)
        return np.zeros_like(noise), noise
    raise ValueError(
        f"unknown process family {name!r}; choose deterministic-mode or brownian-mode")


# ---------------------------------------------------------------------------
# configuration and report


@dataclass
class CarlemanConfig:
    mu: float
    horizon: float = 0.25
    steps: int = 512
    paths: int = 256
    grid_points: int = 128
    dim: int = 1
    a1: str = "zero"
    b1: str = "zero"
    process: str = "brownian-mode:0.1,1"
    window: str = "sine"
    seed: int = 0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 16:
            raise ValueError(f"need at least 16 time steps, got {self.steps}")
        if self.paths < 1:
            raise ValueError(f"need at least one path, got {self.paths}")

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)

    def torus(self) -> TorusGrid:
        return TorusGrid(self.dim, self.grid_points)


@dataclass
class CarlemanReport:
    mu: float
    horizon: float
    steps: int
    paths: int
    log_weight_scale: float  # mu T^2: terms are reported times e^{-mu T^2}
    term_means: np.ndarray  # (6,) = lhs terms 1..2, rhs terms 3..6
    term_ses: np.ndarray
    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    gap: float
    gap_se: float
    verdict: bool
    borderline: bool
    labels: dict = dataclass_field(default_factory=dict)

    @property
    def cancellation_ratio(self) -> float:
        """sum_i |term_i| / |gap|, the condition number of the gap as a sum of
        the six term means: at least 1, and large when the gap is a small
        difference of large terms, so that rounding noise can decide it."""
        total = float(np.sum(np.abs(self.term_means)))
        return total / abs(self.gap) if self.gap != 0.0 else math.inf

    def as_dict(self) -> dict:
        out = {
            "mu": self.mu, "T": self.horizon, "K": self.steps, "P": self.paths,
            "log_weight_scale": self.log_weight_scale,
            "lhs": self.lhs_mean, "lhs_se": self.lhs_se,
            "rhs": self.rhs_mean, "rhs_se": self.rhs_se,
            "gap": self.gap, "se": self.gap_se,
            "verdict": bool(self.verdict), "borderline": bool(self.borderline),
            "cancellation_ratio": self.cancellation_ratio,
        }
        for name, mean, se in zip(TERM_LABELS, self.term_means, self.term_ses):
            out[name] = float(mean)
            out[name + "_se"] = float(se)
        out.update(self.labels)
        return out


# ---------------------------------------------------------------------------
# per-path evaluation


def generator_images(generators: Sequence[np.ndarray], a1: SpdoOperator,
                     b1: SpdoOperator) -> np.ndarray:
    """The (R, J, M^n) stack whose row r holds G_r, A1 G_r, B1 G_r and B1* G_r
    for R coefficient rows G_r. For the process generators (Y_0, g) its two
    rows hold the images a_j of Y_0 and b_j of g, so that image j of z is
    eta (a_j + w b_j). B1* is left out (J = 3) when B1 is self-adjoint."""
    rows = np.stack([np.reshape(c, -1) for c in generators])
    b1_adj = b1.adjoint()
    families = (a1, b1) if b1_adj is b1 else (a1, b1, b1_adj)
    return np.stack([rows] + [op.apply_coefficients(rows) for op in families], axis=1)


def image_coordinates(images: np.ndarray) -> np.ndarray:
    """The generator images as coordinates in an orthonormal basis of their span.

    `images` is the stack of `generator_images`. Every pairing the six terms
    take is an inner product among its rows, and coordinates in an
    orthonormal basis Q of their span give the same inner products, since
    Q^H Q = I. Q is that of the QR factorization of the non-zero rows,
    restricted to the Fourier columns where any row is non-zero, so row i is
    Q times column i of the triangular factor. The result has the stack's
    shape with r columns, r at most the number of non-zero rows; an all-zero
    row stays out of the factorization and gets zero coordinates. On a
    one-column support (Fourier multipliers on a one-mode process) r = 1, and
    the coordinates are the coefficients themselves when the first non-zero
    one is real."""
    flat = images.reshape(-1, images.shape[-1])
    non_zero = flat != 0
    rows, columns = np.flatnonzero(non_zero.any(axis=1)), np.flatnonzero(non_zero.any(axis=0))
    tri = np.linalg.qr(flat[np.ix_(rows, columns)].T, mode="r")
    coords = np.zeros((len(flat), len(tri)), dtype=np.complex128)
    coords[rows] = tri.T
    return coords.reshape(images.shape[:-1] + (len(tri),))


def time_weights(time_grid: TimeGrid, mu: float | np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node weights of a cell: the shift t - T, the weight e^{mu (t-T)^2}
    scaled by e^{-mu T^2}, and the trapezoid weights. For a (G,) array of mu
    the weight is (G, K+1), one row per mu."""
    horizon, dt = time_grid.horizon, time_grid.dt
    shift = time_grid.nodes() - horizon
    trap = np.full(time_grid.steps + 1, dt)
    trap[0] = trap[-1] = dt / 2.0
    return shift, np.exp(np.multiply.outer(mu, shift**2 - horizon**2)), trap


def pairings(f: dict, g: dict) -> dict:
    """(f, g) at each node, the sum of f conj(g) over the coordinates, as the
    coefficients of the path monomials. f and g are fields affine in the path
    scalars: they map "1", "v" or "dv" to the (r, ...) coordinates of that
    scalar's factor, coordinates first, and the result maps each product of
    two scalars ("1", "v", "v*v", "v*dv", ...) to its coefficient."""
    out = {}
    for (m, x), (n, y) in itertools.product(f.items(), g.items()):
        value = np.add.reduce(x * np.conj(y), axis=0)
        key = MONOMIAL_OF[m, n]
        out[key] = out[key] + value if key in out else value
    return out


def node_coefficients(initial: np.ndarray, noise: np.ndarray, eta: np.ndarray,
                      time_grid: TimeGrid, mus: np.ndarray) -> tuple[np.ndarray, list]:
    """The six terms of the cells of one horizon, one per entry of the (G,)
    array `mus`, as polynomials in each path's scalars, the weight scaled by
    e^{-mu T^2}: the (G, 6) path-free constants, and per term the (G, n, K+1)
    coefficients at each node of its n monomials `TERM_MONOMIALS[i]` (zero
    past the term's last node).

    `initial` and `noise` are the (J, r) coordinates of the images of Y_0 and
    g (`image_coordinates`), so image j of z at node k is u_k a_j + v_k b_j
    with u = eta and v_k = eta_k w_k. Every field the terms pair is then
    affine in v_k and dv_k = v_{k+1} - v_k with path-free vector factors,
    which are formed first and then paired, as the fields themselves are.
    A factor is held as (r, G or 1, nodes or 1) coordinates, so each pairing
    sums over the leading axis and each mu's coefficients have the same
    bytes whatever other mu are given."""
    dt, ks = time_grid.dt, slice(0, time_grid.steps)
    shift, weight, trap = time_weights(time_grid, mus)
    mus = mus[:, None]
    (a0, a1, a2), (b0, b1, b2) = initial[:3, :, None, None], noise[:3, :, None, None]
    u, du = eta, eta[1:] - eta[:-1]
    const = np.zeros((len(mus), 6))
    table = [np.zeros((len(mus), len(m), time_grid.steps + 1)) for m in TERM_MONOMIALS]

    def fold(i, node_weight, part, f, g):  # term i's share of part((f, g))
        for key, value in pairings(f, g).items():
            if key == "1":
                const[:, i] += np.add.reduce(node_weight * part(value), axis=-1)
            else:
                row = table[i][:, TERM_MONOMIALS[i].index(MONOMIALS.index(key))]
                np.multiply(node_weight, part(value), out=row[:, :node_weight.shape[-1]])

    z = {"1": u * a0, "v": b0}
    fold(0, trap * weight, np.real, z, z)
    dz = {"1": du * a0, "dv": b0}
    fold(4, -2.0 * shift[ks] * weight[:, ks], np.real, dz, dz)
    fold(5, -2.0 / mus * weight[:, ks], np.real, dz, {"1": du * a2, "dv": b2})  # (dz, B1 dz)
    # bracket = -i dz - dt A1 z - i dt B1 z; the comparison field is i * mixed,
    # and Re (f, i g) = Im (f, g)
    bracket = {"1": -1j * dz["1"] - u[ks] * (dt * a1 + 1j * dt * a2),
               "dv": -1j * b0, "v": -(dt * b1 + 1j * dt * b2)}
    if len(initial) == 4:  # else B1 is self-adjoint and the skew part B1 - B1* vanishes
        fold(3, -2.0 / mus * weight[:, ks], np.imag, bracket,
             {"1": u[ks] * (a2 - initial[3, :, None, None]), "v": b2 - noise[3, :, None, None]})
    del z, dz  # before the (r, G, K+1) fields: an x-dependent cell's peak memory is here
    ms = mus * shift
    mixed = {"1": u * (ms * a0 - a2), "v": ms * b0 - b2}  # mu (t-T) z - B1 z
    fold(1, trap * weight / mus, np.real, mixed, mixed)
    fold(2, 4.0 / mus * weight[:, ks], np.imag, bracket, {k: x[..., ks] for k, x in mixed.items()})
    return const, table


def path_scalars(eta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (2, B, K+1) scalars v = eta w and dv (dv_k = v_{k+1} - v_k, zero at
    node K) of B paths, from the window and the paths' (B, K+1) Brownian
    values."""
    scalars = np.empty((2,) + values.shape)
    v, dv = scalars
    np.multiply(eta, values, out=v)
    np.subtract(v[:, 1:], v[:, :-1], out=dv[:, :-1])
    dv[:, -1] = 0.0
    return scalars


def monomial_terms(scalars: np.ndarray, const: np.ndarray, table: Sequence[np.ndarray]
                   ) -> np.ndarray:
    """The (B, 6) terms of B paths from their `path_scalars` and one cell's
    constants and coefficients (`node_coefficients` at one mu): per path and
    term, the constant plus the sum over the nodes of the term's monomials
    times their coefficients, in Horner form: v (c_v + c_vv v) for term1 and
    term2, v (c_v + c_vv v + c_vdv dv) + c_dv dv for r1 and r2, and
    dv (c_dv + c_dvdv dv) for r3 and r4. Each path goes through the same
    elementwise operations and last-axis sums whatever else the block holds,
    so its terms have the same bytes in any block."""
    v, dv = scalars
    terms = np.empty((len(v), 6))
    node_sum, product = np.empty_like(v), np.empty_like(v)  # reused: no allocation per term
    for i, c in enumerate(table):
        lead = dv if MONOMIALS[TERM_MONOMIALS[i][0]] == "dv" else v
        np.multiply(c[1], lead, out=node_sum)
        if len(c) == 4:
            node_sum += np.multiply(c[2], dv, out=product)
        node_sum += c[0]
        node_sum *= lead
        if len(c) == 4:
            node_sum += np.multiply(c[3], dv, out=product)
        terms[:, i] = np.add.reduce(node_sum, axis=-1)
    terms += const
    # + 0.0 turns the -0.0 of a negative factor times an empty or zero sum
    # into +0.0, and leaves every other value's bytes as they are
    return terms + 0.0


def horizon_terms(coefficients: tuple[np.ndarray, list], eta: np.ndarray,
                  time_grid: TimeGrid, normals: np.ndarray) -> np.ndarray:
    """The (G, B, 6) terms of the cells of one horizon, from their
    `node_coefficients`, along the B paths of (B, K) standard `normals`: the
    paths' scalars once, then each cell's terms. The scalars do not outlive
    the call, so horizons do not add to a block's memory."""
    const, table = coefficients
    scalars = path_scalars(eta, brownian_values(normals, time_grid.dt))
    return np.stack([monomial_terms(scalars, const[g], [t[g] for t in table])
                     for g in range(len(const))])


def aggregate(cells: Sequence[CarlemanConfig], terms: np.ndarray) -> list[CarlemanReport]:
    """The reports of `cells` from their (C, P, 6) per-path terms: term means
    and standard errors, the two sides, the gap and the verdict. Every
    reduction runs along the path axis of the whole stack, and gives each
    cell the bytes it would give that cell's (P, 6) terms alone. Raises for
    the first cell with a non-finite figure."""
    paths = terms.shape[1]
    lhs = terms[..., 0] + terms[..., 1]
    rhs = terms[..., 2:].sum(axis=-1)
    sides = np.stack([lhs, rhs, rhs - lhs])  # (3, C, P)
    means, side_means = terms.mean(axis=1), sides.mean(axis=-1)
    if paths > 1:
        ses = terms.std(axis=1, ddof=1) / math.sqrt(paths)
        side_ses = sides.std(axis=-1, ddof=1) / math.sqrt(paths)
    else:
        ses, side_ses = np.zeros_like(means), np.zeros_like(side_means)
    finite = (np.isfinite(means).all(axis=1) & np.isfinite(ses).all(axis=1)
              & np.isfinite(side_means).all(axis=0) & np.isfinite(side_ses).all(axis=0))
    reports = []
    for config, c_means, c_ses, (lhs_mean, rhs_mean, gap_mean), (lhs_se, rhs_se, gap_se), ok \
            in zip(cells, means, ses, side_means.T.tolist(), side_ses.T.tolist(), finite.tolist()):
        if not ok:
            raise NonFiniteError(
                f"non-finite Carleman term or gap at mu = {config.mu:g}, T = {config.horizon:g}")
        labels = {"a1": config.a1, "b1": config.b1, "process": config.process,
                  "window": config.window, "seed": config.seed,
                  "grid_points": config.grid_points, "dim": config.dim}
        reports.append(CarlemanReport(
            config.mu, config.horizon, config.steps, config.paths,
            config.mu * config.horizon**2, c_means, c_ses, lhs_mean, lhs_se, rhs_mean, rhs_se,
            gap_mean, gap_se, verdict=bool(gap_mean >= -3.0 * gap_se),
            borderline=bool(abs(gap_mean) <= 3.0 * gap_se), labels=labels))
    return reports


def run_cells(cells: Sequence[CarlemanConfig]) -> tuple[list[CarlemanReport], dict]:
    """The reports of `cells`, in order, and the work they took. The cells
    share every key but mu and the horizon; consecutive cells of one horizon
    share its paths.

    Once for all cells: A1, B1 and B1* apply to the generators (Y_0, g), the
    images become coordinates in an orthonormal basis of their span, and the
    coefficients of every mu of each horizon are taken. Then for each block
    of at most `BLOCK_ENTRIES` normals: each path draws its K standard
    normals, and once per horizon the block's scalars v and dv are built and
    each cell's terms taken from them. A path's terms do not depend on the
    block it is in, and memory on P only through the terms."""
    base = cells[0]
    grid = base.torus()
    a1 = resolve_operator_family(base.a1, grid)
    b1 = resolve_operator_family(base.b1, grid)
    initial, noise = image_coordinates(
        generator_images(resolve_process(base.process, grid), a1, b1))
    window = resolve_window(base.window)
    horizons = []  # (time grid, window, cell indices, coefficients) per run of one horizon
    for _, group in itertools.groupby(range(len(cells)), key=lambda i: cells[i].horizon):
        group = list(group)
        tg = cells[group[0]].time_grid()
        eta = pinned_window(window(tg), tg)
        mus = np.array([cells[i].mu for i in group])
        horizons.append((tg, eta, group, node_coefficients(initial, noise, eta, tg, mus)))
    block = max(1, BLOCK_ENTRIES // base.steps)
    work = {"paths": 0, "path_builds": 0, "brownian_draws": 0,
            "operator_applies": len(initial) - 1, "path_blocks": 0}

    terms = np.empty((len(cells), base.paths, 6))
    for start in range(0, base.paths, block):
        rows = range(start, min(start + block, base.paths))
        normals = np.stack([brownian_normals(base.seed, p, base.steps) for p in rows])
        work["brownian_draws"] += len(rows)
        for tg, eta, group, coefficients in horizons:
            terms[group, start:rows.stop] = horizon_terms(coefficients, eta, tg, normals)
            work["path_blocks"] += 1
            work["path_builds"] += len(rows)
            work["paths"] += len(rows) * len(group)
    return aggregate(cells, terms), work


def verify_inequality(config: CarlemanConfig) -> CarlemanReport:
    """Assemble the estimate over `paths` simulated paths and aggregate: the
    one-cell case of `run_cells`."""
    return run_cells([config])[0][0]


# ---------------------------------------------------------------------------
# (mu, T) scan


@dataclass
class ScanResult:
    rows: list[CarlemanReport]
    summary: dict
    work: dict  # counts of run_cells

    def all_pass(self) -> bool:
        return all(r.verdict for r in self.rows)


def scan(base: CarlemanConfig, mu_list: Sequence[float] | None = None,
         T_list: Sequence[float] | None = None,
         kappa_list: Sequence[float] = (16.0, 64.0, 256.0)) -> ScanResult:
    """One report per (mu, T) pair; mu defaults to kappa/T^2 so that the
    large-weight and short-horizon limits move together."""
    horizons = list(T_list) if T_list is not None else [base.horizon]
    cells = [replace(base, mu=float(mu), horizon=float(T)) for T in horizons
             for mu in (list(mu_list) if mu_list is not None
                        else [k / (T * T) for k in kappa_list])]
    rows, work = run_cells(cells) if cells else ([], {})

    passes = [r for r in rows if r.verdict]
    summary = {
        "rows": len(rows),
        "passes": len(passes),
        "largest_pass_T": max((r.horizon for r in passes), default=None),
        "smallest_pass_mu": min((r.mu for r in passes), default=None),
        "borderline_rows": sum(1 for r in rows if r.borderline),
    }
    # reported, not asserted: is the gap monotone along mu at fixed T?
    trends = {}
    for T in horizons:
        gaps = [r.gap for r in rows if r.horizon == T]
        if len(gaps) >= 2:
            diffs = np.diff(gaps)
            trends[f"gap_vs_mu@T={T:g}"] = (
                "increasing" if np.all(diffs > 0) else
                "decreasing" if np.all(diffs < 0) else "mixed")
    summary["trends"] = trends
    return ScanResult(rows, summary, work)
