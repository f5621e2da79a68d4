"""Stacked root solves, diagonalizations and symbol audits against per-sample oracles.

Each oracle below is the one-sample-at-a-time algorithm: np.roots (or the
closed form for m <= 2), two scalar Newton steps and a lexsort for the roots;
a loop over permutations for branch matching; one eigenvector matrix at a
time for the diagonalization; one direction at a time for the symbol
audits. Every comparison is bitwise.
"""

import itertools
import math

import numpy as np
import pytest

from spdolab import (BranchCrossingError, DegenerateDiagonalizationError, RootSolveError,
                     branch_symbol, check_elliptic, check_hypotheses, reduction_table,
                     split_roots, verify_symbol_order)
from spdolab import symbols
from spdolab.catalog import make_principal, make_symbol, random_principal
from spdolab.reduction import BRANCH_AMBIGUITY_TOL
from spdolab.symbols import (COMPLEX_ROOT_REL_TOL, _multi_indices, _nested_fd,
                             characteristic_roots, sample_contexts, sample_directions,
                             sample_grid, sample_positions, solve_roots)

ROOT_GALLERY = ["wave:1", "wave:2", "laplace", "mixed-cubic", "variable-wave:2,0.5,0",
                "double-root", "from-roots:1,-1,2"]
AUDITED_SYMBOLS = ["lambda:1", "xi", "c-dx", "abs-xi", "trig-lambda:2,1,0,1", "mod-xi:1"]


def gallery():
    """(label, principal, dims) for every principal compared with the oracle."""
    out = [(sel, make_principal(sel), (1, 2)) for sel in ROOT_GALLERY]
    out.append(("from-roots:0,0.5,2", make_principal("from-roots:0,0.5,2"), (2,)))
    out.append(("from-roots:1,-1,2,0.5", make_principal("from-roots:1,-1,2,0.5"), (1, 2)))
    out.append(("random-trig-3", random_principal(3, np.random.default_rng(7), trig=True), (1, 2)))
    return out


# ---------------------------------------------------------------------------
# per-sample oracles


def oracle_roots(ps, t, slc, x, xi, residual_tol=1e-10):
    """(sorted roots, residual, limit) at one sample."""
    c = np.array([complex(np.asarray(coef.fn(t, slc, x, xi)).reshape(()))
                  for coef in ps.tau_coefficients])
    m = ps.m
    if m == 1:
        roots = np.array([c[0]])
    elif m == 2:
        disc = np.lib.scimath.sqrt(c[1] * c[1] + 4.0 * c[0])
        roots = np.array([(c[1] + disc) / 2.0, (c[1] - disc) / 2.0])
    else:
        roots = np.roots(np.concatenate([[1.0], -c[::-1]]))

    def p(tau):
        return tau**m - sum(c[k] * tau**k for k in range(m))

    def dp(tau):
        return m * tau ** (m - 1) - sum(k * c[k] * tau ** (k - 1) for k in range(1, m))

    for _ in range(2):
        for i, lam in enumerate(roots):
            d = dp(lam)
            if abs(d) > 1e-12 * (1.0 + abs(lam)) ** (m - 1):
                roots[i] = lam - p(lam) / d
    limit = residual_tol * (1.0 + float(np.max(np.abs(roots)))) ** m
    residual = float(np.max(np.abs([p(lam) for lam in roots])))
    return roots[np.lexsort((roots.imag, roots.real))], residual, limit


def oracle_match(roots, reference):
    m = len(roots)
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(m)):
        cost = sum(abs(roots[p] - reference[i]) for i, p in enumerate(perm))
        if cost < best_cost:
            best, best_cost = perm, cost
    return roots[list(best)]


def oracle_min_distinct_gap(roots):
    scale = 1.0 + float(np.max(np.abs(roots)))
    gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    distinct = [g for g in gaps if g > COMPLEX_ROOT_REL_TOL * scale]
    return min(distinct) if distinct else math.inf


def sample_loop(ps, dim, num_angles, num_x, seed, path_contexts):
    """(it, t, slc, ix, x, ia, direction, xi) in (t, x, angle) order."""
    contexts = (sample_contexts(seed) if path_contexts
                else [(t, None) for t in (0.0, 0.125, 0.25)])
    positions = (sample_positions(dim, num_x) if ps.x_dependent
                 else [tuple(np.array(0.0) for _ in range(dim))])
    for it, (t, slc) in enumerate(contexts):
        for ix, x in enumerate(positions):
            for ia, direction in enumerate(sample_directions(dim, num_angles)):
                yield it, t, slc, ix, x, ia, direction, tuple(np.array(d) for d in direction)


def oracle_split_table(ps, dim, num_angles=32, num_x=8, seed=0, residual_tol=1e-10):
    """Branch table, or the error the per-sample loop raises first."""
    table = {}
    for it, t, slc, ix, x, ia, direction, xi in sample_loop(
            ps, dim, num_angles, num_x, seed, ps.requires_path):
        roots, residual, limit = oracle_roots(ps, t, slc, x, xi, residual_tol)
        if residual > limit:
            return RootSolveError(
                f"root refinement for {ps.name} did not converge at xi={xi}: "
                f"residual {residual:.3e} exceeds {limit:.3e}")
        if ps.m > 1 and oracle_min_distinct_gap(roots) < BRANCH_AMBIGUITY_TOL:
            return BranchCrossingError(
                f"distinct roots within {BRANCH_AMBIGUITY_TOL:g} at "
                f"t={t}, x={x}, direction={direction}: matching ambiguous")
        if it == ix == ia == 0:
            table[it, ix, ia] = roots
        elif ia > 0:
            table[it, ix, ia] = oracle_match(roots, table[it, ix, ia - 1])
        elif ix > 0:
            table[it, ix, ia] = oracle_match(roots, table[it, ix - 1, ia])
        else:
            table[it, ix, ia] = oracle_match(roots, table[it - 1, ix, ia])
    shape = tuple(k + 1 for k in max(table)) + (ps.m,)
    return np.array([table[k] for k in sorted(table)]).reshape(shape)


def oracle_diagonalization(ps, t, slc, x, xi):
    """(residual, condition number) of one sample's eigenvector matrix."""
    roots = oracle_roots(ps, t, slc, x, xi)[0]
    m = ps.m
    scale = 1.0 + float(np.max(np.abs(roots)))
    if m > 1:
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        if min(gaps) < 1e-8 * scale:
            raise DegenerateDiagonalizationError(
                f"repeated root (gap {min(gaps):.3e}) at xi={xi}: "
                "companion symbol is not diagonalizable")
    r = float(np.sqrt(sum(float(c) ** 2 for c in xi)))
    c = np.array([complex(np.asarray(coef.fn(t, slc, x, xi)).reshape(()))
                  for coef in ps.tau_coefficients])
    mat = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        mat[j, j + 1] = r
    for j in range(1, m + 1):
        mat[m - 1, j - 1] = c[j - 1] * r ** (j - m)
    V = np.zeros((m, m), dtype=complex)
    for k, lam in enumerate(roots):
        col = np.array([lam**j * r ** (m - 1 - j) for j in range(m)])
        V[:, k] = col / np.linalg.norm(col)
    residual = (np.linalg.norm(mat @ V - V @ np.diag(roots))
                / max(np.linalg.norm(mat), 1e-300))
    return float(residual), float(np.linalg.cond(V))


def oracle_reduction_rows(ps, dim, num_angles=32, num_x=8, seed=0):
    split = oracle_split_table(ps, dim, num_angles, num_x, seed)
    if isinstance(split, Exception):
        return split
    rows = []
    for it, t, slc, ix, x, ia, direction, xi in sample_loop(
            ps, dim, num_angles, num_x, seed, ps.requires_path):
        try:
            resid, cond = oracle_diagonalization(ps, t, slc, x, xi)
        except DegenerateDiagonalizationError as exc:
            return exc
        angle = float(math.atan2(direction[1] if dim == 2 else 0.0, direction[0]))
        for k in range(ps.m):
            lam = split[it, ix, ia, k]
            rows.append((float(t), float(np.asarray(x[0])), angle, k, float(lam.real),
                         float(lam.imag), resid, cond))
    return rows


def oracle_order_entries(symbol, dim, seed=0, num_xi=17, num_x=8, xi_max=1024.0,
                         tolerance=0.05):
    """verify_symbol_order one direction at a time."""
    radii = np.geomspace(1.0, xi_max, num_xi)
    positions = sample_positions(dim, num_x)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))
    pairs = _multi_indices(dim)
    curves = {p: np.zeros(num_xi) for p in pairs}
    base_scale = 0.0
    for t, slc in sample_contexts(seed):
        for direction in sample_directions(dim, num_angles=8):
            xi = tuple((radii * direction[ax]).reshape(1, -1) for ax in range(dim))
            for alpha, beta in pairs:
                total = sum(alpha) + sum(beta)
                h_xi = (1e-3 if total <= 1 else 5e-3) * (1.0 + radii.reshape(1, -1))
                vals = _nested_fd(symbol, t, slc, xs, xi, alpha, beta, h_xi, 5e-3)
                mags = np.max(np.abs(vals), axis=0)
                np.maximum(curves[(alpha, beta)], mags, out=curves[(alpha, beta)])
                if total == 0:
                    base_scale = max(base_scale, float(np.max(mags)))
    floor = 1e-10 * (1.0 + base_scale)
    upper = radii >= math.sqrt(xi_max)
    entries = []
    for alpha, beta in pairs:
        mags = curves[(alpha, beta)]
        bound = symbol.order - sum(alpha)
        if np.max(mags) <= floor:
            entries.append((alpha, beta, -math.inf, bound, float(np.max(mags)), True))
            continue
        sel = upper & (mags > floor)
        if np.count_nonzero(sel) < 2:
            sel = mags > floor
        slope = float(np.polyfit(np.log1p(radii[sel]), np.log(mags[sel]), 1)[0])
        entries.append((alpha, beta, slope, bound, float(np.max(mags)),
                        slope <= bound + tolerance))
    return entries


def raised(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return exc


def same_error(a, b):
    return type(a) is type(b) and str(a) == str(b)


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# roots


@pytest.mark.parametrize("label,ps,dims", gallery(), ids=[g[0] for g in gallery()])
def test_stacked_roots_match_oracle(label, ps, dims):
    for dim in dims:
        positions = sample_positions(dim, 8)
        directions = sample_directions(dim, 32)
        x, xi = sample_grid(positions, directions)
        for t, slc in sample_contexts(0):
            stack = solve_roots(ps, t, slc, x, xi)
            expected = [oracle_roots(ps, t, slc, p, tuple(np.array(d) for d in direction))
                        for p in positions for direction in directions]
            assert bitwise(stack.roots, np.array([e[0] for e in expected])), (label, dim, t)
            assert bitwise(stack.residual, np.array([e[1] for e in expected])), (label, dim, t)
            assert not stack.failed.any()


def test_zero_coefficient_samples_deflate():
    # c_0 = 0: the zero root is exact, the others come from a 2x2 companion
    ps = make_principal("from-roots:0,0.5,2")
    x, xi = sample_grid(sample_positions(2, 8), sample_directions(2, 32))
    roots = solve_roots(ps, 0.0, None, x, xi).roots
    assert np.count_nonzero(roots == 0) == len(roots)


def test_one_sample_view_matches_oracle():
    ps = random_principal(3, np.random.default_rng(3), trig=True)
    x, xi = (np.array(0.7),), (np.array(-1.0),)
    assert bitwise(characteristic_roots(ps, 0.0, None, x, xi),
                   oracle_roots(ps, 0.0, None, x, xi)[0])


def test_first_failed_sample_named():
    # a residual target below rounding fails wherever the residual is not 0
    ps = random_principal(3, np.random.default_rng(5))
    positions, directions = sample_positions(2, 8), sample_directions(2, 32)
    x, xi = sample_grid(positions, directions)
    stack = solve_roots(ps, 0.0, None, x, xi, residual_tol=1e-18)
    expected = [oracle_roots(ps, 0.0, None, p, tuple(np.array(d) for d in direction), 1e-18)
                for p in positions for direction in directions]
    assert stack.failed.tolist() == [res > lim for _, res, lim in expected]
    first = next(i for i, (_, res, lim) in enumerate(expected) if res > lim)
    xi_first = tuple(np.array(d) for d in directions[first % len(directions)])
    _, res, lim = expected[first]
    message = (f"root refinement for {ps.name} did not converge at xi={xi_first}: "
               f"residual {res:.3e} exceeds {lim:.3e}")
    with pytest.raises(RootSolveError) as info:
        stack.checked()
    assert str(info.value) == message
    assert info.value.residual == res
    with pytest.raises(RootSolveError) as info:
        characteristic_roots(ps, 0.0, None, positions[0], xi_first, residual_tol=-1.0)
    assert f"at xi={xi_first}:" in str(info.value)


# ---------------------------------------------------------------------------
# hypotheses, branches, reduction


def oracle_hypotheses(ps, dim, num_angles, num_x, seed):
    h1 = h2 = h3 = math.inf
    count = 0
    for t, slc in sample_contexts(seed):
        for x in sample_positions(dim, num_x):
            for direction in sample_directions(dim, num_angles):
                roots = oracle_roots(ps, t, slc, x, tuple(np.array(d) for d in direction))[0]
                count += 1
                dists = np.array([abs(roots[i] - roots[j]) for i in range(ps.m)
                                  for j in range(i + 1, ps.m)])
                if dists.size:
                    h1 = min(h1, float(np.min(dists)))
                    tol = COMPLEX_ROOT_REL_TOL * (1.0 + float(np.max(np.abs(roots))))
                    distinct = dists[dists > tol]
                    if distinct.size:
                        h3 = min(h3, float(np.min(distinct)))
                for lam in roots:
                    lam = complex(lam)
                    if abs(lam.imag) > COMPLEX_ROOT_REL_TOL * (1.0 + abs(lam)):
                        h2 = min(h2, abs(lam.imag))
    return h1, h2, h3, count


@pytest.mark.parametrize("label,ps,dims", gallery(), ids=[g[0] for g in gallery()])
def test_hypotheses_split_and_reduction_match_oracle(label, ps, dims):
    for dim in dims:
        report = check_hypotheses(ps, dim, num_angles=32, seed=1)
        assert (report.h1_margin, report.h2_margin, report.h3_margin,
                report.num_samples) == oracle_hypotheses(ps, dim, 32, 8, 1)

        expected = oracle_split_table(ps, dim, seed=2)
        got = raised(split_roots, ps, dim, num_angles=32, seed=2)
        if isinstance(expected, Exception):
            assert same_error(got, expected)
        else:
            assert bitwise(got.table, expected), (label, dim)

        expected = oracle_reduction_rows(ps, dim, seed=2)
        got = raised(reduction_table, ps, dim, num_angles=32, seed=2)
        if isinstance(expected, Exception):
            assert same_error(got, expected), (got, expected)
        else:
            assert [tuple(vars(r).values()) for r in got] == expected


@pytest.mark.parametrize("selector,error", [
    ("variable-wave:0.7071068311865476,1,0", BranchCrossingError),
    ("variable-wave:0,1,0", DegenerateDiagonalizationError),
    ("double-root", DegenerateDiagonalizationError),
])
@pytest.mark.parametrize("dim", [1, 2])
def test_error_names_first_offending_sample(selector, error, dim):
    ps = make_principal(selector)
    expected = oracle_reduction_rows(ps, dim, num_angles=16)
    assert isinstance(expected, error)
    assert same_error(raised(reduction_table, ps, dim, num_angles=16), expected)


@pytest.mark.parametrize("dim,error", [(1, BranchCrossingError), (2, RootSolveError)])
def test_first_offending_sample_under_tight_residual_target(monkeypatch, dim, error):
    # with a residual target below rounding, root-solve failures and the
    # ambiguous crossing compete: in 2-D a failure comes first, in 1-D the
    # crossing does
    ps = make_principal("variable-wave:0.7071068311865476,1,0")
    monkeypatch.setattr(symbols, "ROOT_RESIDUAL_TOL", 1e-18)
    expected = oracle_split_table(ps, dim, num_angles=16, residual_tol=1e-18)
    assert isinstance(expected, error)
    assert same_error(raised(split_roots, ps, dim, num_angles=16), expected)


@pytest.mark.parametrize("selector", ["laplace", "wave:2", "mixed-cubic", "from-roots:0,0.5,2"])
@pytest.mark.parametrize("dim", [1, 2])
def test_branch_symbol_matches_oracle(selector, dim):
    ps = make_principal(selector)
    split = split_roots(ps, dim, num_angles=16)
    if dim == 1:
        xi = (np.arange(-20.0, 21.0),)
    else:
        k = np.fft.fftfreq(24, 1.0 / 24)
        xi = tuple(np.meshgrid(k, k, indexing="ij"))
    x = tuple(np.zeros_like(c) for c in xi)
    r = np.sqrt(sum(c**2 for c in xi)).ravel()
    flat = np.stack([c.ravel() for c in xi], axis=-1)
    for branch in range(ps.m):
        got = branch_symbol(split, branch, "full").fn(0.0, None, x, xi).ravel()
        for i in range(len(r)):
            if r[i] == 0:
                assert got[i] == 0
                continue
            d = np.round(flat[i] / r[i], 12)
            nearest = int(np.argmin([np.linalg.norm(d - u) for u in split.directions]))
            unit = tuple(np.array(v) for v in split.directions[nearest])
            roots = oracle_roots(ps, 0.0, None, tuple(np.array(0.0) for _ in range(dim)), unit)[0]
            want = oracle_match(roots, split.table[0, 0, nearest])[branch] * r[i]
            assert bitwise(got[i], want), (selector, dim, branch, i)


# ---------------------------------------------------------------------------
# symbol audits over every direction at once


@pytest.mark.parametrize("selector", AUDITED_SYMBOLS)
@pytest.mark.parametrize("dim", [1, 2])
def test_order_audit_matches_direction_loop(selector, dim):
    sym = make_symbol(selector)
    report = verify_symbol_order(sym, dim, seed=1)
    got = [(e.alpha, e.beta, e.fitted_exponent, e.bound, e.max_magnitude, e.passed)
           for e in report.entries]
    assert got == oracle_order_entries(sym, dim, seed=1)


@pytest.mark.parametrize("selector", AUDITED_SYMBOLS + ["trig:1,1,0", "one"])
@pytest.mark.parametrize("dim", [1, 2])
def test_ellipticity_matches_direction_loop(selector, dim):
    sym = make_symbol(selector)
    radii = np.geomspace(1.0, 1024.0, 17)
    positions = sample_positions(dim, 16)
    xs = tuple(np.array([p[ax] for p in positions]).reshape(-1, 1) for ax in range(dim))
    c_est, count = math.inf, 0
    for t, slc in sample_contexts(0):
        for direction in sample_directions(dim, num_angles=16):
            xi = tuple((radii * direction[ax]).reshape(1, -1) for ax in range(dim))
            ratios = np.abs(sym.evaluate(t, slc, xs, xi)) / (1.0 + radii.reshape(1, -1)) ** sym.order
            c_est = min(c_est, float(np.min(ratios)))
            count += ratios.size
    report = check_elliptic(sym, 1.0, dim)
    assert (report.constant_estimate, report.num_samples) == (c_est, count)
