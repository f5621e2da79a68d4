"""Weighted energy inequality: per-term assembly, aggregation, and the scan.

`run_cells` takes each path's six terms as polynomials in its scalars
v = eta w and dv (the scalar route). The field route of `field_route`, which
builds z and its images per path and pairs them, is the oracle it is checked
against path by path; the tests of the field route's own layout stay on it.
"""

import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import band_coefficients
from field_route import Semimartingale, additive_paths, additive_process, block_terms, path_terms
from spdolab import (CarlemanConfig, NonFiniteError, TorusGrid, mode_coefficients, scan,
                     verify_inequality)
from spdolab import carleman, catalog, reduction, symbols
from spdolab.cli import main
from spdolab.carleman import (generator_images, image_coordinates, resolve_operator_family,
                              resolve_process, resolve_window)
from spdolab.operators import SpdoOperator, quantize
from spdolab.paths import TimeGrid, pinned_window, sample_brownian, sine_window

T = 0.25
MU = 64.0 / T**2

BASE = dict(mu=MU, horizon=T, steps=256, paths=8, grid_points=32,
            a1="c-dx", b1="lambda:1", process="brownian-mode:0.1,1", seed=0)


def cfg(**overrides):
    merged = {**BASE, **overrides}
    return CarlemanConfig(**merged)


def fourier_process(selector, window, grid, seed, path_index, tg, a1=None, b1=None):
    """Path `path_index` of a cell's process in Fourier coefficients on every
    column: z alone, or given the families the (J, K+1, M^n) stack of z and
    its images."""
    generators = [np.reshape(c, -1) for c in resolve_process(selector, grid)]
    if a1 is not None:
        generators = generator_images(generators, a1, b1)
    eta = pinned_window(resolve_window(window)(tg), tg)
    return additive_process(*generators, eta, sample_brownian(seed, path_index, tg))


def process(selector, window, grid, seed, path_index, tg, a1, b1):
    """Path `path_index` of a cell's process as `verify_inequality` builds it:
    the (J, K+1, r) stack of z and its images in the basis of
    `image_coordinates`."""
    generators = image_coordinates(generator_images(resolve_process(selector, grid), a1, b1))
    eta = pinned_window(resolve_window(window)(tg), tg)
    return additive_process(*generators, eta, sample_brownian(seed, path_index, tg))


def scalar_terms(initial, noise, eta, tg, mu, values):
    """The (B, 6) terms of the paths of (B, K+1) Brownian `values` on the
    scalar route, for the (J, r) image coordinates `initial` and `noise`."""
    const, table = carleman.node_coefficients(initial, noise, eta, tg, np.array([mu]))
    scalars = carleman.path_scalars(eta, values)
    return carleman.monomial_terms(scalars, const[0], [t[0] for t in table])


def scalar_path_terms(selector, window, grid, seed, path_index, tg, a1, b1, mu):
    """Path `path_index`'s six terms as `verify_inequality` takes them."""
    initial, noise = image_coordinates(generator_images(resolve_process(selector, grid), a1, b1))
    eta = pinned_window(resolve_window(window)(tg), tg)
    return scalar_terms(initial, noise, eta, tg, mu,
                        sample_brownian(seed, path_index, tg).values[None])[0]


def with_images(z, a1, b1):
    """A full-width z stacked with its images, each applied at every node."""
    stack = np.ascontiguousarray(generator_images(z.coefficients, a1, b1).transpose(1, 0, 2))
    return Semimartingale(z.time_grid, stack, z.path)


def quadrature_oracle(mu, horizon, a1_mode, b1_shift, nodes=100001):
    """Continuum terms for z = sin(pi t/T) e^{ix}: trapezoid at fine resolution,
    with the weight scaled by e^{-mu T^2} as the program reports it."""
    t = np.linspace(0.0, horizon, nodes)
    eta = np.sin(np.pi * t / horizon)
    deta = (np.pi / horizon) * np.cos(np.pi * t / horizon)
    s = t - horizon
    e = np.exp(mu * (s**2 - horizon**2))
    lam = np.sqrt(1.0 + 1.0) ** b1_shift  # B1 = Lambda^shift on mode 1
    a1 = float(a1_mode)                   # A1 = multiplier xi on mode 1
    term1 = np.trapezoid(e * eta**2, t)
    term2 = np.trapezoid(e * (mu * s * eta - lam * eta) ** 2, t) / mu
    bracket = -1j * deta - a1 * eta - 1j * lam * eta
    cmp_ = 1j * (mu * s * eta - lam * eta)
    term3 = 4.0 / mu * np.trapezoid(e * (bracket * np.conj(cmp_)).real, t)
    return term1, term2, term3


def value_space_terms(z, grid, a1_selector, b1_selector, mu, weight_scaled=True):
    """The six terms of one path evaluated as on the value grid: snapshot
    values, value-basis dense matrices and grid-mean pairings. z holds
    Fourier coefficients on every column of `grid`, alone or stacked with its
    images (only z is read)."""

    def dense(selector):
        return resolve_operator_family(selector, grid).dense_matrix()

    a1, b1 = dense(a1_selector), dense(b1_selector)
    tg = z.time_grid
    coeffs = z.coefficients
    coeffs = (coeffs[0] if coeffs.ndim == 3 else coeffs).reshape((-1,) + grid.shape)
    values = np.fft.ifftn(coeffs, axes=tuple(range(1, grid.dim + 1)), norm="forward")
    values = values.reshape(tg.steps + 1, -1)
    shift = tg.nodes() - tg.horizon
    weight = np.exp(mu * shift**2)
    if weight_scaled:
        weight = weight * np.exp(-mu * tg.horizon**2)
    trap = np.full(tg.steps + 1, tg.dt)
    trap[0] = trap[-1] = tg.dt / 2.0

    def pair(f, g):
        return np.mean(f * np.conj(g), axis=1)

    b1_z, a1_z, badj_z = values @ b1.T, values @ a1.T, values @ b1.conj()
    mixed = mu * shift[:, None] * values - b1_z
    dz, w = np.diff(values, axis=0), weight[:-1]
    bracket = -1j * dz - tg.dt * a1_z[:-1] - 1j * tg.dt * b1_z[:-1]
    comparison = 1j * (mu * shift[:-1, None] * values[:-1] - b1_z[:-1])
    return np.array([
        np.sum(trap * weight * pair(values, values).real),
        np.sum(trap * weight * pair(mixed, mixed).real) / mu,
        4.0 / mu * np.sum(w * pair(bracket, comparison).real),
        -2.0 / mu * np.sum(w * pair(bracket, b1_z[:-1] - badj_z[:-1]).imag),
        -2.0 * np.sum(shift[:-1] * w * pair(dz, dz).real),
        -2.0 / mu * np.sum(w * pair(dz, dz @ b1.T).real),
    ])


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [dict(mu=0.0), dict(mu=-1.0), dict(horizon=0.0),
                                     dict(steps=8), dict(paths=0)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cfg(**bad)


class TestFamilies:
    def test_zero_family(self):
        fam = resolve_operator_family("zero", TorusGrid(1, 16))
        assert not fam.symbol.x_dependent
        out = fam.apply_coefficients(np.ones((3, 16), dtype=complex))
        assert np.all(out == 0.0)

    def test_catalog_family(self):
        grid = TorusGrid(1, 16)
        fam = resolve_operator_family("c-dx:2", grid)
        rows = mode_coefficients(grid, 3).reshape(1, -1)
        out = fam.apply_coefficients(rows)
        assert np.allclose(out, 6.0 * rows, atol=1e-12)

    def test_lambda_family_self_adjoint(self):
        grid = TorusGrid(1, 16)
        fam = resolve_operator_family("lambda:1", grid)
        assert fam.adjoint() is fam

    def test_reduction_branch_family(self):
        # imaginary part of the upper branch of tau^2 = -|xi|^2 multiplies
        # mode k by |k|
        grid = TorusGrid(1, 16)
        fam = resolve_operator_family("reduction-im:laplace:1", grid)
        k = -5
        rows = mode_coefficients(grid, k).reshape(1, -1)
        out = fam.apply_coefficients(rows)
        ratio = out[0, k % 16] / rows[0, k % 16]
        assert abs(abs(ratio) - abs(k)) <= 1e-9 or abs(ratio) <= 1e-9

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reduction_branch_family_solves_no_roots(self, monkeypatch, dim):
        # the branch symbol reads its roots from the split's table: once the
        # split is taken, evaluating the family solves no roots
        def no_solve(c):
            raise AssertionError("root solve after split_roots")

        split_roots = reduction.split_roots

        def split_then_forbid(*args, **kwargs):
            split = split_roots(*args, **kwargs)
            monkeypatch.setattr(symbols, "_poly_roots_monic", no_solve)
            return split

        monkeypatch.setattr(reduction, "split_roots", split_then_forbid)
        grid = TorusGrid(dim, 16)
        fam = resolve_operator_family("reduction-im:mixed-cubic:1", grid)
        rows = mode_coefficients(grid, (3,) + (1,) * (dim - 1)).reshape(1, -1)
        assert np.all(np.isfinite(fam.apply_coefficients(rows)))

    def test_path_dependent_family_rejected(self):
        with pytest.raises(ValueError):
            resolve_operator_family("affine-w:0.5", TorusGrid(1, 16))

    def test_bad_branch_index(self):
        with pytest.raises(ValueError):
            resolve_operator_family("reduction-im:laplace:7", TorusGrid(1, 16))

    def test_window_selectors(self):
        assert resolve_window("sine") is not None
        assert resolve_window("parabolic") is not None
        with pytest.raises(ValueError):
            resolve_window("boxcar")

    def test_process_selectors(self):
        grid = TorusGrid(1, 16)
        tg = TimeGrid(T, 32)
        z = fourier_process("deterministic-mode:2,0.5", "sine", grid, 0, 0, tg)
        assert abs(z.coefficients[16, 2]) > 0.0
        z2 = fourier_process("brownian-mode:0.1,1", "parabolic", grid, 0, 0, tg)
        assert len(z2.coefficients) == 33
        with pytest.raises(ValueError):
            resolve_process("levy-mode:1", grid)


class TestEqualityAndStructure:
    def test_zero_process_every_term_vanishes(self):
        # no image is non-zero, so the basis is empty: each path holds
        # (J, K+1, 0) coordinates and every term is an exact +0.0
        for b1 in ("lambda:1", "mod:1"):
            report = verify_inequality(cfg(process="deterministic-mode:1,0.0", b1=b1, paths=2))
            assert report.lhs_mean == 0.0 and report.rhs_mean == 0.0
            assert np.all(report.term_means == 0.0) and not np.any(np.signbit(report.term_means))
            assert not np.any(np.signbit(report.term_ses))
            assert report.verdict and report.borderline

    @pytest.mark.parametrize("images", [3, 4])
    def test_zero_width_path_terms_are_positive_zeros(self, images):
        tg = TimeGrid(T, 64)
        z = Semimartingale(tg, np.zeros((images, tg.steps + 1, 0), complex),
                           sample_brownian(0, 0, tg))
        terms = path_terms(z, MU)
        assert np.all(terms == 0.0) and not np.any(np.signbit(terms))

    @pytest.mark.parametrize("images", [3, 4])
    def test_zero_width_scalar_terms_are_positive_zeros(self, images):
        # the zero process has no basis column: (J, 0) image coordinates give
        # zero coefficients, and every path's six terms are +0.0
        tg = TimeGrid(T, 64)
        empty = np.zeros((images, 0), complex)
        values = np.stack([sample_brownian(0, p, tg).values for p in range(3)])
        terms = scalar_terms(empty, empty, pinned_window(sine_window(tg), tg), tg, MU, values)
        assert terms.shape == (3, 6)
        assert np.all(terms == 0.0) and not np.any(np.signbit(terms))

    def test_self_adjoint_family_kills_skew_term(self):
        det = verify_inequality(cfg(process="deterministic-mode:1", paths=1))
        assert abs(det.term_means[3]) <= 1e-12
        sto = verify_inequality(cfg(paths=4))
        assert abs(sto.term_means[3]) <= 1e-12

    def test_non_self_adjoint_family_excites_skew_term(self):
        report = verify_inequality(cfg(b1="mod:1", paths=2))
        assert abs(report.term_means[3]) > 0.0

    def test_deterministic_process_has_zero_se_with_one_path(self):
        report = verify_inequality(cfg(process="deterministic-mode:1", paths=1))
        assert report.gap_se == 0.0
        assert report.verdict


class TestDeterministicBaseline:
    def test_terms_match_quadrature_oracle(self):
        o1, o2, o3 = quadrature_oracle(MU, T, a1_mode=1, b1_shift=1)
        for steps in (512, 1024):
            r = verify_inequality(cfg(process="deterministic-mode:1", paths=1,
                                      steps=steps, grid_points=32))
            assert abs(r.term_means[0] - o1) <= 0.01 * o1
            assert abs(r.term_means[1] - o2) <= 0.01 * o2
            assert abs(r.term_means[2] - o3) <= 0.01 * abs(o3)

    def test_increment_terms_vanish_with_resolution(self):
        # |dz|^2 sums are O(dt) for smooth paths: term5, term6 -> 0 linearly
        r1 = verify_inequality(cfg(process="deterministic-mode:1", paths=1, steps=256))
        r2 = verify_inequality(cfg(process="deterministic-mode:1", paths=1, steps=512))
        assert abs(r2.term_means[4]) < 0.6 * abs(r1.term_means[4])
        assert abs(r2.term_means[5]) < 0.6 * abs(r1.term_means[5])


class TestStochasticAggregation:
    def test_rerun_identical(self):
        a = verify_inequality(cfg(paths=16))
        b = verify_inequality(cfg(paths=16))
        assert a.gap == b.gap and a.gap_se == b.gap_se
        assert np.array_equal(a.term_means, b.term_means)

    def test_seed_changes_results(self):
        a = verify_inequality(cfg(paths=16, seed=0))
        b = verify_inequality(cfg(paths=16, seed=1))
        assert a.gap != b.gap

    def test_path_terms_do_not_depend_on_path_count(self, monkeypatch):
        # path p's six terms are the same bytes whether the run has 1, 8 or 16
        # paths and whether a block holds 16 paths, 3 (boundaries after paths
        # 2, 5, 8, ...) or 1, and the aggregated means repeat bitwise
        recorded = []
        real = carleman.aggregate

        def record(cells, terms):
            recorded.append(terms[0].tobytes())
            return real(cells, terms)

        monkeypatch.setattr(carleman, "aggregate", record)
        rows = []
        for paths, block in ((1, 16), (8, 16), (16, 16), (16, 16), (16, 3), (16, 1)):
            # a block holds BLOCK_ENTRIES // K paths
            monkeypatch.setattr(carleman, "BLOCK_ENTRIES", block * BASE["steps"])
            result = scan(cfg(b1="mod:1", paths=paths), mu_list=(MU,), T_list=(T,))
            assert result.work["path_blocks"] == -(-paths // block)
            rows.append(result.rows[0])
        one, eight, sixteen, again, threes, singles = recorded
        row = 6 * 8  # bytes of one path's terms
        assert one == sixteen[:row] and eight == sixteen[:8 * row]
        assert again == sixteen and threes == sixteen and singles == sixteen
        for other in rows[3:]:
            assert np.array_equal(rows[2].term_means, other.term_means)
            assert rows[2].gap == other.gap and rows[2].gap_se == other.gap_se

    @pytest.mark.parametrize("b1, applies", [("lambda:1", 2), ("mod:1", 3)])
    def test_set_up_once_per_scan_and_paths_once_per_horizon(self, monkeypatch, b1, applies):
        # the selector is parsed, each family applied (to the two generators),
        # the images' basis taken and each path's normals drawn once for the
        # scan; the window is checked, the paths' scalars built and the
        # coefficients taken once per horizon, for every mu of it
        names = ("resolve_process", "image_coordinates", "brownian_normals", "pinned_window",
                 "path_scalars", "node_coefficients")
        for paths in (6, 12):
            monkeypatch.setattr(carleman, "BLOCK_ENTRIES", 1 << 20)  # one block per horizon
            calls = dict.fromkeys(names + ("apply_coefficients",), 0)
            built = []
            for name in names:
                real = getattr(carleman, name)

                def counted(*args, _real=real, _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(carleman, name, counted)
            real_apply = SpdoOperator.apply_coefficients
            real_build = carleman.path_scalars

            def counted_apply(self, rows, _real=real_apply):
                calls["apply_coefficients"] += 1
                assert rows.shape == (2, 32)  # (Y_0, g), never a path
                return _real(self, rows)

            def build(eta, values, _real=real_build):
                built.append(values.shape)
                return _real(eta, values)

            monkeypatch.setattr(SpdoOperator, "apply_coefficients", counted_apply)
            monkeypatch.setattr(carleman, "path_scalars", build)
            result = scan(cfg(b1=b1, paths=paths), T_list=(0.125, 0.25),
                          kappa_list=(16.0, 64.0, 256.0))
            monkeypatch.undo()
            assert calls == {"resolve_process": 1, "image_coordinates": 1,
                             "brownian_normals": paths, "pinned_window": 2,
                             "path_scalars": 2, "node_coefficients": 2,
                             "apply_coefficients": applies}
            assert built == [(paths, BASE["steps"] + 1)] * 2
            assert len(result.rows) == 6

    def test_coefficients_once_per_horizon_across_blocks(self, monkeypatch):
        # three blocks of two paths: each horizon's coefficients are built once
        # for the scan, the block's scalars once per block and horizon
        calls = {"node_coefficients": 0, "path_scalars": 0}
        for name in calls:
            def counted(*args, _real=getattr(carleman, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(carleman, name, counted)
        monkeypatch.setattr(carleman, "BLOCK_ENTRIES", 2 * 64)
        result = scan(cfg(paths=5, steps=64, grid_points=16), T_list=(0.125, 0.25),
                      kappa_list=(16.0, 64.0, 256.0))
        assert calls == {"node_coefficients": 2, "path_scalars": 6}
        assert result.work["path_blocks"] == 6

    @pytest.mark.parametrize("paths", [1, 2, 3, 8, 9, 17, 128, 129, 1000])
    def test_stacked_aggregate_matches_each_cell_alone(self, paths):
        # one aggregate over the (C, P, 6) stack gives each cell the bytes of
        # its (P, 6) terms reduced alone, one figure at a time
        rng = np.random.default_rng(paths)
        terms = rng.standard_normal((9, paths, 6)) * np.logspace(-3, 3, 6) + 0.5
        cells = [cfg(paths=paths, mu=float(2**c)) for c in range(9)]
        for cell, alone, report in zip(cells, terms, carleman.aggregate(cells, terms)):
            lhs = alone[:, 0] + alone[:, 1]
            rhs = alone[:, 2:].sum(axis=1)
            if paths > 1:
                root = math.sqrt(paths)
                ses = alone.std(axis=0, ddof=1) / root
                sides = [(float(x.mean()), float(x.std(ddof=1) / root))
                         for x in (lhs, rhs, rhs - lhs)]
            else:
                ses, sides = np.zeros(6), [(float(x.mean()), 0.0) for x in (lhs, rhs, rhs - lhs)]
            means = alone.mean(axis=0)
            assert report.term_means.tobytes() == means.tobytes()
            assert report.term_ses.tobytes() == ses.tobytes()
            got = [(report.lhs_mean, report.lhs_se), (report.rhs_mean, report.rhs_se),
                   (report.gap, report.gap_se)]
            assert repr(got) == repr(sides)
            assert (report.mu, report.paths) == (cell.mu, paths)

    def test_aggregate_names_the_first_non_finite_cell(self):
        terms = np.ones((3, 4, 6))
        terms[1, 2, 3] = terms[2, 0, 0] = np.inf
        cells = [cfg(paths=4, mu=mu) for mu in (1.0, 2.0, 3.0)]
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="mu = 2,"):
            carleman.aggregate(cells, terms)

    @pytest.mark.parametrize("budget_paths, blocks", [(None, 1), (2, 3)])
    def test_scan_work_counts(self, monkeypatch, budget_paths, blocks):
        # closed forms: paths = P x cells, path_builds = P x horizons,
        # brownian_draws = P, operator_applies = J - 1 (B1 self-adjoint: 2),
        # path_blocks = horizons x ceil(P / B), B = BLOCK_ENTRIES // K paths:
        # 128 at K = 64 by default
        base = cfg(paths=5, steps=64, grid_points=16)
        if budget_paths is not None:
            monkeypatch.setattr(carleman, "BLOCK_ENTRIES", budget_paths * 64)
        result = scan(base, T_list=(0.125, 0.25), kappa_list=(16.0, 64.0, 256.0))
        assert result.work == {"paths": 30, "path_builds": 10, "brownian_draws": 5,
                               "operator_applies": 2, "path_blocks": 2 * blocks}
        again = scan(base, T_list=(0.125, 0.25), kappa_list=(16.0, 64.0, 256.0))
        assert again.work == result.work
        assert [r.as_dict() for r in again.rows] == [r.as_dict() for r in result.rows]

    @pytest.mark.parametrize("b1", ["lambda:1", "mod:1"])
    def test_verify_inequality_equals_its_scan_row(self, b1):
        base = cfg(b1=b1, paths=6, steps=128)
        result = scan(base, T_list=(0.125, 0.25), kappa_list=(16.0, 256.0))
        for row in result.rows:
            alone = verify_inequality(replace(base, mu=row.mu, horizon=row.horizon))
            assert alone.term_means.tobytes() == row.term_means.tobytes()
            assert alone.term_ses.tobytes() == row.term_ses.tobytes()
            assert repr(alone.as_dict()) == repr(row.as_dict())

    def test_scan_paths_are_the_sampled_brownian_paths(self, monkeypatch):
        # row b of a block built at horizon T is sample_brownian(seed, p, tg)
        # for the block's p-th path, byte for byte, across block boundaries
        seen = []
        real = carleman.path_scalars

        def build(eta, values):
            seen.append(values.copy())
            return real(eta, values)

        monkeypatch.setattr(carleman, "path_scalars", build)
        monkeypatch.setattr(carleman, "BLOCK_ENTRIES", 3 * 64)
        base = cfg(paths=7, steps=64, seed=11)
        scan(base, T_list=(0.0625, 0.25), kappa_list=(16.0,))
        # block by block, each built at both horizons
        assert [len(v) for v in seen] == [3, 3, 3, 3, 1, 1]
        for horizon, blocks in ((0.0625, seen[0::2]), (0.25, seen[1::2])):
            tg = TimeGrid(horizon, 64)
            rows = np.concatenate(blocks)
            for p in range(7):
                assert rows[p].tobytes() == sample_brownian(11, p, tg).values.tobytes()

    def test_se_positive_for_stochastic_runs(self):
        report = verify_inequality(cfg(paths=16))
        assert report.gap_se > 0.0
        assert report.lhs_se > 0.0

    def test_path_terms_direct_row(self):
        grid = TorusGrid(1, 16)
        tg = TimeGrid(T, 64)
        zero = resolve_operator_family("zero", grid)
        z = process("deterministic-mode:1", "sine", grid, 0, 0, tg, zero, zero)
        assert z.coefficients.shape == (3, tg.steps + 1, 1)
        terms = path_terms(z, MU)
        assert terms.shape == (6,)
        assert terms[0] > 0.0 and terms[3] == 0.0


class TestCoefficientSpace:
    @pytest.mark.parametrize("a1, b1, dim, m", [("c-dx", "lambda:1", 1, 32),
                                                ("trig-lambda:2,1,0,1", "mod:1", 1, 32),
                                                ("trig-lambda:2,1,0,1", "mod:1", 2, 8)])
    def test_path_terms_match_value_space_dense_evaluation(self, a1, b1, dim, m):
        grid = TorusGrid(dim, m)
        tg = TimeGrid(T, 128)
        fam_a1 = resolve_operator_family(a1, grid)
        fam_b1 = resolve_operator_family(b1, grid)
        z = process("brownian-mode:0.1,1", "sine", grid, 0, 1, tg, fam_a1, fam_b1)
        fourier = fourier_process("brownian-mode:0.1,1", "sine", grid, 0, 1, tg)
        # a state on every mode, pinned at both ends, reaches every matrix entry
        rng = np.random.default_rng(5)
        shape = (tg.steps + 1, grid.size)
        spread = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spread[0] = spread[-1] = 0.0
        spread = Semimartingale(tg, 0.01 * spread, z.path)
        for z, fourier in ((z, fourier), (with_images(spread, fam_a1, fam_b1), spread)):
            got = path_terms(z, MU)
            ref = value_space_terms(fourier, grid, a1, b1, MU)
            scale = np.max(np.abs(ref))
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1e-3 * scale))
            if b1 == "mod:1":
                assert abs(ref[3]) > 1e-6 * scale  # the skew term is exercised

    def test_kappa_1024_rows_are_finite(self):
        base = cfg(paths=8, steps=256, grid_points=32)
        result = scan(base, T_list=(0.25,), kappa_list=(1024.0,))
        row = result.rows[0].as_dict()
        assert row["log_weight_scale"] == pytest.approx(1024.0, rel=1e-15)
        values = [row[k] for k in ("lhs", "rhs", "gap", "se", "lhs_se", "rhs_se")]
        values += [row[f"term{i}"] for i in range(1, 7)]
        assert np.all(np.isfinite(values)) and row["se"] > 0.0

    def test_verdicts_unchanged_by_weight_scaling(self):
        # unscaled weights e^{mu (t-T)^2} on the 3 x 3 baseline grid give the same
        # verdict and borderline flags, and terms equal to the reported ones
        # times e^{mu T^2}
        base = cfg(paths=16, steps=128, grid_points=32)
        result = scan(base, T_list=(0.0625, 0.125, 0.25), kappa_list=(16.0, 64.0, 256.0))
        assert len({row.borderline for row in result.rows}) == 2  # both flags occur
        for row in result.rows:
            tg = TimeGrid(row.horizon, base.steps)
            terms = np.array([
                value_space_terms(fourier_process(base.process, base.window, base.torus(),
                                                  base.seed, p, tg),
                                  base.torus(), base.a1, base.b1, row.mu, weight_scaled=False)
                for p in range(base.paths)])
            gap = terms[:, 2:].sum(axis=1) - terms[:, :2].sum(axis=1)
            gap_mean, gap_se = gap.mean(), gap.std(ddof=1) / np.sqrt(base.paths)
            assert row.verdict == bool(gap_mean >= -3.0 * gap_se)
            assert row.borderline == bool(abs(gap_mean) <= 3.0 * gap_se)
            unscaled = row.term_means * np.exp(row.log_weight_scale)
            scale = np.max(np.abs(terms.mean(axis=0)))
            assert np.allclose(unscaled, terms.mean(axis=0), rtol=1e-11, atol=1e-11 * scale)

    def test_non_finite_terms_raise(self):
        # |z|^2 overflows on purpose; the warning is asserted, not let through
        with pytest.raises(NonFiniteError), pytest.warns(RuntimeWarning):
            verify_inequality(cfg(process="brownian-mode:1e200,1", paths=2))


def skew_multiplier(grid):
    """<xi> + i xi: a complex Fourier multiplier, so B1 != B1* and r2 != 0.
    No catalog selector gives one; every catalog multiplier is real."""
    sym = catalog.symbol_sum(catalog.lambda_symbol(1.0),
                             catalog.symbol_scale(1j, catalog.xi_symbol()))
    return quantize(sym, grid)


class TestSupportRoute:
    """A cell applies A1, B1 and B1* to the generators (Y_0, g) once, finds the
    Fourier columns where any image is non-zero and takes the images'
    coordinates in an orthonormal basis of their span; each path builds z and
    its images on those at most 2J coordinates and sums the six terms over
    them."""

    FAMILIES = [
        ("c-dx", "lambda:1", 1, 64.0),
        ("c-dx", "lambda:1", 1, 1024.0),
        ("xi", "lambda:0.5", 1, 16.0),
        ("zero", "skew", 1, 256.0),
        ("c-dx", "lambda:1", 2, 64.0),
        ("lambda:1", "skew", 2, 1024.0),
        ("trig-lambda:2,1,0,1", "mod:1", 1, 64.0),
        ("c-dx", "trig-lambda:1,0,0.5,1", 1, 1024.0),
        ("trig-lambda:2,1,0,1", "mod-xi:1", 2, 64.0),
    ]

    @staticmethod
    def families(a1, b1, grid):
        fam_b1 = skew_multiplier(grid) if b1 == "skew" else resolve_operator_family(b1, grid)
        return resolve_operator_family(a1, grid), fam_b1

    @pytest.mark.parametrize("a1, b1, dim, kappa", FAMILIES)
    @pytest.mark.parametrize("selector", ["brownian-mode:0.1,1", "deterministic-mode:1"])
    def test_basis_coordinates_match_full_width_terms(self, a1, b1, dim, kappa, selector):
        # against the same path held as Fourier coefficients on every column:
        # the same bytes on a multiplier's one column, rounding otherwise
        grid = TorusGrid(dim, 32 if dim == 1 else 8)
        tg = TimeGrid(T, 128)
        fam_a1, fam_b1 = self.families(a1, b1, grid)
        self_adjoint = fam_b1.adjoint() is fam_b1
        assert self_adjoint == (b1 in ("lambda:1", "lambda:0.5"))
        x_dependent = fam_a1.multiplier() is None or fam_b1.multiplier() is None
        images = 3 if self_adjoint else 4
        mu = kappa / T**2
        for p in range(3):
            z = process(selector, "sine", grid, 0, p, tg, fam_a1, fam_b1)
            full = fourier_process(selector, "sine", grid, 0, p, tg, fam_a1, fam_b1)
            assert len(z.coefficients) == images
            # one generator is non-zero, so at most J images span the basis
            width = z.coefficients.shape[-1]
            assert (1 < width <= images) if x_dependent else width == 1
            got, ref = path_terms(z, mu), path_terms(full, mu)
            assert np.all(np.isfinite(got))
            assert (got[3] != 0.0) == (not self_adjoint)
            if x_dependent:
                scale = np.max(np.abs(ref))
                assert np.all(np.abs(got - ref) <= 1e-15 * scale)
            else:
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a1, b1", [("c-dx", "lambda:1"), ("lambda:1", "skew"),
                                        ("trig-lambda:2,1,0,1", "mod-xi:1")])
    @pytest.mark.parametrize("dim, m", [(1, 128), (2, 32)])
    def test_basis_coordinates_reproduce_fourier_gram(self, a1, b1, dim, m):
        # every pairing the terms take is an entry of the images' Gram matrix
        grid = TorusGrid(dim, m)
        fam_a1, fam_b1 = self.families(a1, b1, grid)

        def mode(k, amp):
            return mode_coefficients(grid, (k,) + (0,) * (dim - 1), amp)

        for generators in (resolve_process("brownian-mode:0.1,1", grid),
                           resolve_process("deterministic-mode:2,0.5", grid),
                           (mode(1, 1.0), mode(-2, 0.3) + mode(3, 0.2j))):
            images = generator_images(generators, fam_a1, fam_b1)
            flat = images.reshape(-1, grid.size)
            coords = image_coordinates(images)
            basis = coords.reshape(len(flat), -1)
            assert coords.shape[:-1] == images.shape[:-1] and basis.shape[1] <= len(flat)
            gram = flat @ flat.conj().T
            assert np.all(np.abs(basis @ basis.conj().T - gram) <= 1e-13 * np.max(np.abs(gram)))

    def test_zero_image_gets_zero_coordinates(self):
        # A1 = zero and Y_0 = 0: those images stay out of the factorization,
        # so the basis holds three columns, for g, B1 g and B1* g, and the
        # zero images get exact zero coordinates
        grid = TorusGrid(1, 128)
        fam_a1, fam_b1 = self.families("zero", "trig-lambda:1,0,0.5,1", grid)
        images = generator_images(resolve_process("brownian-mode:0.1,1", grid), fam_a1, fam_b1)
        assert not np.any(images[0]) and not np.any(images[1, 1]) and len(images[1]) == 4
        coords = image_coordinates(images)
        assert coords.shape == (2, 4, 3)
        assert not np.any(coords[0]) and not np.any(coords[1, 1])
        assert np.all(np.any(coords[1, [0, 2, 3]], axis=-1))
        report = verify_inequality(cfg(a1="zero", b1="trig-lambda:1,0,0.5,1", grid_points=128,
                                       paths=4))
        assert np.all(np.isfinite(report.term_means))

    @pytest.mark.parametrize("a1, b1, width", [
        ("trig-lambda:2,1,0,1", "trig-lambda:1,0,0.5,1", 4),
        ("trig-lambda:2,1,0,1", "mod-xi:1", 4),
        ("c-dx", "mod:1", 4),
        ("trig-lambda:2,1,0,1", "lambda:1", 3),  # self-adjoint B1: J = 3
    ])
    def test_paths_hold_at_most_the_non_zero_images(self, monkeypatch, a1, b1, width):
        # M = 128: an x-dependent cell's coefficients are formed from the J
        # non-zero generator images, not the 128 columns they touch
        # (multipliers: one column, `test_multiplier_cell_holds_its_support_column`),
        # and a path holds its two scalars per node whatever the width
        shapes = []
        real_coefficients, real_scalars = carleman.node_coefficients, carleman.path_scalars

        def coefficients(initial, noise, *args):
            shapes.extend([initial.shape, noise.shape])
            return real_coefficients(initial, noise, *args)

        def scalars(eta, values):
            out = real_scalars(eta, values)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(carleman, "node_coefficients", coefficients)
        monkeypatch.setattr(carleman, "path_scalars", scalars)
        verify_inequality(cfg(a1=a1, b1=b1, grid_points=128, steps=16, paths=2))
        images = 3 if b1 == "lambda:1" else 4
        assert shapes == [(images, width), (images, width), (2, 2, 17)]

    @pytest.mark.parametrize("a1, b1, dim, m", [
        ("trig-lambda:2,1,0,1", "trig-lambda:1,0,0.5,1", 1, 32),
        ("trig-lambda:2,1,0,1", "trig-lambda:1,0,0.5,1", 2, 8),
        ("c-dx", "mod:1", 1, 32),               # only B1 moves the mode
        ("trig-lambda:2,1,0,1", "lambda:1", 1, 32),  # only A1 does
    ])
    def test_x_dependent_families_match_dense_oracle(self, a1, b1, dim, m):
        # an x-dependent family moves mass off the mode, so the images span
        # more than z; the terms on the basis must still agree with the
        # dense value-space oracle
        grid = TorusGrid(dim, m)
        tg = TimeGrid(T, 128)
        fam_a1 = resolve_operator_family(a1, grid)
        fam_b1 = resolve_operator_family(b1, grid)
        z = process("brownian-mode:0.1,1", "sine", grid, 0, 1, tg, fam_a1, fam_b1)
        assert np.count_nonzero(np.any(z.coefficients[0], axis=0)) == 1
        assert z.coefficients.shape[-1] > 1
        ref = value_space_terms(fourier_process("brownian-mode:0.1,1", "sine", grid, 0, 1, tg),
                                grid, a1, b1, MU)
        scale = np.max(np.abs(ref))
        # the scalar route, as the scan takes it, and the field route
        for got in (scalar_path_terms("brownian-mode:0.1,1", "sine", grid, 0, 1, tg,
                                      fam_a1, fam_b1, MU),
                    path_terms(z, MU)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1e-3 * scale))

    def test_multiplier_cell_holds_its_support_column(self, monkeypatch):
        # an n = 2, M = 128 multiplier cell: its coefficients come from (3, 1)
        # image coordinates, not (K+1, 128^2) arrays with one column written.
        # On the field route a path on that column has the bytes of the sums
        # over every Fourier column; the scan's terms match them to rounding
        shapes, recorded = [], []
        real_coefficients, real_aggregate = carleman.node_coefficients, carleman.aggregate
        base = cfg(dim=2, grid_points=128, steps=16, paths=2)
        grid, tg = base.torus(), base.time_grid()
        fam_a1, fam_b1 = self.families(base.a1, base.b1, grid)

        def coefficients(initial, noise, *args):
            shapes.extend([initial.shape, noise.shape])
            return real_coefficients(initial, noise, *args)

        def record(cells, terms):
            recorded.append(terms[0].copy())
            return real_aggregate(cells, terms)

        monkeypatch.setattr(carleman, "node_coefficients", coefficients)
        monkeypatch.setattr(carleman, "aggregate", record)
        verify_inequality(base)
        assert shapes == [(3, 1), (3, 1)]
        for p in range(2):
            support = process(base.process, base.window, grid, base.seed, p, tg, fam_a1, fam_b1)
            full = fourier_process(base.process, base.window, grid, base.seed, p, tg,
                                   fam_a1, fam_b1)
            alone = path_terms(full, base.mu)
            assert path_terms(support, base.mu).tobytes() == alone.tobytes()
            assert np.all(np.abs(recorded[0][p] - alone) <= 1e-13 * np.max(np.abs(alone)))

    def test_self_adjoint_skew_term_is_positive_zero(self, tmp_path):
        # B1 = B1*: r2 is +0.0 on every path, never -0.0 from B1 z - B1 z, and
        # scan.csv prints 0 (the path mean alone would hide a -0.0: numpy's
        # mean adds to +0.0)
        grid = TorusGrid(1, 32)
        tg = TimeGrid(T, 64)
        a1, b1 = resolve_operator_family("c-dx", grid), resolve_operator_family("lambda:1", grid)
        for process_selector in ("brownian-mode:0.1,1", "deterministic-mode:1"):
            z = process(process_selector, "sine", grid, 0, 0, tg, a1, b1)
            for terms in (scalar_path_terms(process_selector, "sine", grid, 0, 0, tg, a1, b1, MU),
                          path_terms(z, MU)):
                assert terms[3] == 0.0 and not np.signbit(terms[3])
            report = verify_inequality(cfg(process=process_selector, paths=4))
            assert report.term_means[3] == 0.0 and not np.signbit(report.term_means[3])
            assert not np.signbit(report.term_ses[3])
        text = ("command = carleman-scan\nK = 64\nP = 4\nM = 16\nb1 = lambda:1\n"
                "T-list = 0.25\nkappa-list = 16,64\n")
        (tmp_path / "scan.cfg").write_text(text)
        out = tmp_path / "out"
        assert main(["carleman-scan", "--config", str(tmp_path / "scan.cfg"),
                     "--out", str(out)]) == 0
        with open(out / "scan.csv") as fh:
            assert [row["term4"] for row in csv.DictReader(fh)] == ["0", "0"]


class TestScalarRoute:
    """`run_cells` takes each term as a polynomial in the path scalars
    v = eta w and dv, with per-node coefficients from the image coordinates;
    the field route is its oracle, path by path."""

    @pytest.mark.parametrize("a1, b1", [("trig-lambda:2,1,0,1", "mod-xi:1"), ("c-dx", "mod:1"),
                                        ("trig-lambda:0,50,0,1", "zero")])
    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 8)])
    def test_matches_field_route_on_generic_processes(self, monkeypatch, a1, b1, dim, m):
        # Y_0 and g are both non-zero band-limited profiles, so every monomial
        # of every term is exercised; each path's terms agree with the field
        # route's on the same image coordinates to 1e-13 of its largest |term|
        grid = TorusGrid(dim, m)
        rng = np.random.default_rng(7)
        generators = (band_coefficients(grid, rng, 3), 0.3 * band_coefficients(grid, rng, 3))
        monkeypatch.setattr(carleman, "resolve_process", lambda selector, grid: generators)
        recorded = []
        real = carleman.aggregate

        def record(cells, terms):
            recorded.extend(terms.copy())
            return real(cells, terms)

        monkeypatch.setattr(carleman, "aggregate", record)
        base = cfg(a1=a1, b1=b1, dim=dim, grid_points=m, steps=128, paths=3)
        result = scan(base, T_list=(T,), kappa_list=(0.01, 1.0, 16.0, 256.0, 1024.0))
        fam_a1, fam_b1 = resolve_operator_family(a1, grid), resolve_operator_family(b1, grid)
        initial, noise = image_coordinates(generator_images(generators, fam_a1, fam_b1))
        tg = base.time_grid()
        values = np.stack([sample_brownian(base.seed, p, tg).values for p in range(base.paths)])
        fields = additive_paths(initial, noise, pinned_window(sine_window(tg), tg), values)
        assert len(recorded) == len(result.rows) == 5
        for row, got in zip(result.rows, recorded):
            ref = block_terms(fields, tg, row.mu)
            assert np.all(ref[:, 3] != 0.0) == (b1 != "zero")  # the skew term where B1 != B1*
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_block_scalars_match_single_paths(self):
        # v = eta w and dv_k = v_{k+1} - v_k, zero at node K; a block's rows
        # have the bytes of each path alone
        tg = TimeGrid(T, 64)
        eta = pinned_window(sine_window(tg), tg)
        values = np.stack([sample_brownian(3, p, tg).values for p in range(5)])
        block = carleman.path_scalars(eta, values)
        assert block.shape == (2, 5, tg.steps + 1)
        for p in range(5):
            v, dv = carleman.path_scalars(eta, values[p:p + 1])[:, 0]
            assert block[:, p].tobytes() == np.stack([v, dv]).tobytes()
            assert v.tobytes() == (eta * values[p]).tobytes()
            assert dv[:-1].tobytes() == np.diff(v).tobytes() and dv[-1] == 0.0

    def test_x_dependent_scan_blocks_like_a_multiplier_scan(self):
        # a block holds BLOCK_ENTRIES // K paths whatever the families' width,
        # so at K = 512, M = 128 an x-dependent scan takes the blocks a
        # multiplier scan of the same P takes
        blocks = [scan(cfg(a1=a1, b1=b1, steps=512, grid_points=128, paths=20),
                       T_list=(T,), kappa_list=(16.0,)).work["path_blocks"]
                  for a1, b1 in (("c-dx", "lambda:1"), ("trig-lambda:2,1,0,1", "mod-xi:1"))]
        assert blocks == [-(-20 // (carleman.BLOCK_ENTRIES // 512))] * 2 == [2, 2]

    def test_traced_peak_grows_only_by_the_terms(self):
        # one x-dependent cell: the peak traced allocation at P = 2048 is at
        # most that at P = 64 plus the (P, 6) terms it adds, within 8 KiB
        peaks = {}
        for paths in (64, 2048):
            cell = cfg(a1="trig-lambda:2,1,0,1", b1="mod-xi:1", steps=128, paths=paths)
            carleman.run_cells([cell])  # warm the families' caches
            tracemalloc.start()
            try:
                carleman.run_cells([cell])
                peaks[paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] <= peaks[64] + (2048 - 64) * 6 * 8 + 8192


class TestScan:
    def test_default_grid_is_kappa_over_t_squared(self):
        base = cfg(paths=2, steps=64, grid_points=16)
        result = scan(base, T_list=(0.125, 0.25), kappa_list=(16.0, 64.0))
        assert len(result.rows) == 4
        mus = {(r.horizon, r.mu) for r in result.rows}
        assert (0.125, 16.0 / 0.125**2) in mus
        assert (0.25, 64.0 / 0.25**2) in mus

    def test_explicit_mu_list_overrides(self):
        base = cfg(paths=2, steps=64, grid_points=16)
        result = scan(base, mu_list=(100.0, 400.0), T_list=(0.25,))
        assert [r.mu for r in result.rows] == [100.0, 400.0]

    def test_cancellation_ratio_on_baseline_grid(self):
        base = cfg(paths=16, steps=128, grid_points=32)
        result = scan(base, T_list=(0.0625, 0.125, 0.25), kappa_list=(16.0, 64.0, 256.0))
        assert len(result.rows) == 9
        for row in result.rows:
            ratio = row.as_dict()["cancellation_ratio"]
            assert np.isfinite(ratio) and ratio >= 1.0
            assert ratio == np.sum(np.abs(row.term_means)) / abs(row.gap)

    def test_summary_fields(self):
        base = cfg(paths=4, steps=64, grid_points=16)
        result = scan(base, T_list=(0.25,), kappa_list=(16.0, 64.0))
        assert result.summary["rows"] == 2
        assert 0 <= result.summary["passes"] <= 2
        assert "gap_vs_mu@T=0.25" in result.summary["trends"]
        assert result.all_pass() == (result.summary["passes"] == 2)
