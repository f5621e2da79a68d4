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
are linear and frozen, so A z = eta (A Y_0 + w A g). A cell applies each
family once, to the generators (Y_0, g), and every path builds z and its
images in one cumulative sum (`paths.additive_process`), held on the Fourier
columns where any of them can be non-zero. Every spatial pairing is taken in
Fourier coefficients by Parseval over those columns.

The weight is reported scaled by e^{-mu T^2}, i.e. as e^{mu((t-T)^2 - T^2)}
<= 1: the unscaled maximum e^{mu T^2} overflows once mu T^2 exceeds about
709. The verdict is unchanged by a common positive factor;
`log_weight_scale` = mu T^2 recovers absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError
from .grid import SpectralField, TorusGrid
from .paths import (Semimartingale, TimeGrid, additive_process, parabolic_window,
                    pinned_window, sample_brownian, sine_window)
from .operators import SpdoOperator, quantize
from . import catalog, reduction

TERM_LABELS = ("term1", "term2", "term3", "term4", "term5", "term6")


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
    """Process selectors, as the coefficients of (Y_0, g) for `additive_process`:
    `deterministic-mode:k[,amp]` for z = eta(t) amp e^{ikx}, and
    `brownian-mode:amp,k` for the windowed process with dY = amp e^{ikx} dw.
    In two dimensions the mode runs along the first axis, e^{ikx_1}."""
    name, _, argstr = selector.strip().partition(":")
    args = [float(a) for a in argstr.split(",")] if argstr.strip() else []

    def mode(k, amp):
        return SpectralField.pure_mode(grid, (int(k),) + (0,) * (grid.dim - 1),
                                       amp).coefficients

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
    rows are the `initial` and `noise` stacks of `additive_process`, whose
    row j is then z's j-th image. B1* is left out (J = 3) when B1 is
    self-adjoint."""
    rows = np.stack([np.reshape(c, -1) for c in generators])
    b1_adj = b1.adjoint()
    families = (a1, b1) if b1_adj is b1 else (a1, b1, b1_adj)
    return np.stack([rows] + [op.apply_coefficients(rows) for op in families], axis=1)


def time_weights(time_grid: TimeGrid, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node weights of a cell: the shift t - T, the weight e^{mu (t-T)^2}
    scaled by e^{-mu T^2}, and the trapezoid weights."""
    horizon, dt = time_grid.horizon, time_grid.dt
    shift = time_grid.nodes() - horizon
    trap = np.full(time_grid.steps + 1, dt)
    trap[0] = trap[-1] = dt / 2.0
    return shift, np.exp(mu * (shift**2 - horizon**2)), trap


def path_terms(z: Semimartingale, mu: float,
               weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """Six inequality terms along one realized path, (term1, term2, r1..r4),
    with the weight scaled by e^{-mu T^2}.

    `z.coefficients` is the (J, K+1, S) stack of z, A1 z, B1 z and, unless B1
    is self-adjoint (J = 3), B1* z, held on the S columns where any of them
    can be non-zero; every other column would add exact zeros to each sum.
    `weights` is `time_weights(z.time_grid, mu)` and `work` a complex
    (2, K+1, S) array; a cell passes one of each to all its paths."""
    tg = z.time_grid
    dt, ks = tg.dt, slice(0, tg.steps)
    shift, weight, trap = weights if weights is not None else time_weights(tg, mu)
    work = np.empty_like(z.coefficients[:2]) if work is None else work
    coeffs, a1_z, b1_z = z.coefficients[:3]

    def pair(f, g):
        # spatial L2 pairing per node: the grid mean of f conj(g), by Parseval
        # (vecdot conjugates its first argument)
        return np.vecdot(g, f)

    def mixed(rows):  # mu (t-T) z - B1 z at the nodes `rows`, in work[0]
        out = np.multiply(mu * shift[rows, None], coeffs[rows], out=work[0, rows])
        out -= b1_z[rows]
        return out

    norm2 = pair(coeffs, coeffs).real
    term1 = float(np.sum(trap * weight * norm2))
    m = mixed(slice(None))
    term2 = float(np.sum(trap * weight * pair(m, m).real) / mu)

    dz = np.subtract(coeffs[1:], coeffs[:-1], out=work[1, ks])
    qv = pair(dz, dz).real
    r3 = float(-2.0 * np.sum(shift[ks] * weight[ks] * qv))
    b1_dz = np.subtract(b1_z[1:], b1_z[:-1], out=work[0, ks])
    r4 = float(-2.0 / mu * np.sum(weight[ks] * pair(dz, b1_dz).real))

    # bracket = -i dz - dt A1 z - i dt B1 z, in dz's place
    bracket = np.multiply(-1j, dz, out=dz)
    bracket -= np.multiply(a1_z[ks], dt, out=work[0, ks])
    bracket -= np.multiply(b1_z[ks], 1j * dt, out=work[0, ks])
    # the comparison field is i * mixed, and Re (f, i g) = Im (f, g)
    r1 = float(4.0 / mu * np.sum(weight[ks] * pair(bracket, mixed(ks)).imag))
    if len(z.coefficients) == 3:
        r2 = 0.0  # self-adjoint: the skew part B1 - B1* vanishes identically
    else:
        skew = np.subtract(b1_z[ks], z.coefficients[3, ks], out=work[0, ks])
        r2 = float(-2.0 / mu * np.sum(weight[ks] * pair(bracket, skew).imag))
    return np.array([term1, term2, r1, r2, r3, r4])


def verify_inequality(config: CarlemanConfig) -> CarlemanReport:
    """Assemble the estimate over `paths` simulated paths and aggregate.

    A1, B1 and B1* apply once per cell, to the generators (Y_0, g) of the
    process; each path then builds z and its images in one cumulative sum."""
    grid = config.torus()
    tg = config.time_grid()
    a1 = resolve_operator_family(config.a1, grid)
    b1 = resolve_operator_family(config.b1, grid)
    initial, noise = generator_images(resolve_process(config.process, grid), a1, b1)
    eta = pinned_window(resolve_window(config.window)(tg), tg)
    weights = time_weights(tg, config.mu)

    terms = np.zeros((config.paths, 6))
    z = work = None
    for p in range(config.paths):
        z = additive_process(initial, noise, eta, sample_brownian(config.seed, p, tg), grid,
                             out=None if z is None else z.coefficients)
        work = np.empty_like(z.coefficients[:2]) if work is None else work
        terms[p] = path_terms(z, config.mu, weights, work)

    means = terms.mean(axis=0)
    if config.paths > 1:
        ses = terms.std(axis=0, ddof=1) / math.sqrt(config.paths)
    else:
        ses = np.zeros(6)
    lhs = terms[:, 0] + terms[:, 1]
    rhs = terms[:, 2:].sum(axis=1)
    gap = rhs - lhs

    def mean_se(x):
        if config.paths > 1:
            return float(x.mean()), float(x.std(ddof=1) / math.sqrt(config.paths))
        return float(x.mean()), 0.0

    lhs_mean, lhs_se = mean_se(lhs)
    rhs_mean, rhs_se = mean_se(rhs)
    gap_mean, gap_se = mean_se(gap)
    aggregates = [*means, *ses, lhs_mean, lhs_se, rhs_mean, rhs_se, gap_mean, gap_se]
    if not np.all(np.isfinite(aggregates)):
        raise NonFiniteError(
            f"non-finite Carleman term or gap at mu = {config.mu:g}, T = {config.horizon:g}")
    labels = {"a1": config.a1, "b1": config.b1, "process": config.process,
              "window": config.window, "seed": config.seed,
              "grid_points": config.grid_points, "dim": config.dim}
    return CarlemanReport(config.mu, config.horizon, config.steps, config.paths,
                          config.mu * config.horizon**2,
                          means, ses, lhs_mean, lhs_se, rhs_mean, rhs_se,
                          gap_mean, gap_se,
                          verdict=bool(gap_mean >= -3.0 * gap_se),
                          borderline=bool(abs(gap_mean) <= 3.0 * gap_se),
                          labels=labels)


# ---------------------------------------------------------------------------
# (mu, T) scan


@dataclass
class ScanResult:
    rows: list[CarlemanReport]
    summary: dict

    def all_pass(self) -> bool:
        return all(r.verdict for r in self.rows)

    def any_pass(self) -> bool:
        return any(r.verdict for r in self.rows)


def scan(base: CarlemanConfig, mu_list: Sequence[float] | None = None,
         T_list: Sequence[float] | None = None,
         kappa_list: Sequence[float] = (16.0, 64.0, 256.0)) -> ScanResult:
    """One report per (mu, T) pair; mu defaults to kappa/T^2 so that the
    large-weight and short-horizon limits move together."""
    horizons = list(T_list) if T_list is not None else [base.horizon]
    rows = []
    for T in horizons:
        mus = list(mu_list) if mu_list is not None else [k / (T * T) for k in kappa_list]
        for mu in mus:
            rows.append(verify_inequality(replace(base, mu=float(mu), horizon=float(T))))

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
    return ScanResult(rows, summary)
