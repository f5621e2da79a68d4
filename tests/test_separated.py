"""Separated symbols applied by FFT, against the dense oracle."""

import numpy as np
import pytest

from conftest import band_coefficients, values
from spdolab import SpdoOperator, TorusGrid, composition_symbol, parametrix, quantize
from spdolab.catalog import (make_symbol, symbol_conjugate, symbol_product, symbol_scale,
                             symbol_sum)
from spdolab.operators import frequency_taper, parametrix_symbol
from spdolab.cli import main

GRIDS = [(1, 128), (2, 32)]
CATALOG = ["trig:2,1,0.5", "trig-lambda:2,1,0,1", "mod:3", "mod-xi:2"]


def combined():
    """Symbols built by the combinators, so each way of propagating the form is covered."""
    return [symbol_scale(2.0 - 1.0j, make_symbol("trig-lambda:2,1,0,1")),
            symbol_sum(make_symbol("trig:1,0,1"), make_symbol("mod-xi:1")),
            symbol_conjugate(make_symbol("mod-xi:1"))]


def parametrix_sides(selector, grid):
    built = parametrix(quantize(make_symbol(selector), grid), lower_frequency_bound=4.0)
    return [built.left, built.right]


def operators_under_test(grid):
    ops = [quantize(make_symbol(sel), grid) for sel in CATALOG]
    ops += [quantize(sym, grid) for sym in combined()]
    # e^{ix} xi_1 vanishes on the xi_2 axis, so it is elliptic only in one dimension
    for sel in ("trig-lambda:2,1,0,1",) + (("mod-xi:1",) if grid.dim == 1 else ()):
        ops += parametrix_sides(sel, grid)
    return ops


def transform(grid, rows, inverse=False):
    """Forward-normalized FFT of every row of an (n, size) array, or its inverse."""
    cube = rows.reshape((-1,) + grid.shape)
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return fft(cube, axes=tuple(range(1, grid.dim + 1)), norm="forward").reshape(rows.shape)


def random_columns(grid, n, seed):
    rng = np.random.default_rng(seed)
    fields = [band_coefficients(grid, rng) for _ in range(n)]
    return np.stack([values(u).ravel() for u in fields], axis=1)


def assert_close(got, expect, what):
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(got - expect)) <= 1e-12 * scale, what


def check_against_dense(op, grid, values):
    """apply_many, apply_coefficients and adjoint() of `op` against its dense matrix."""
    rows = transform(grid, values.T.copy())
    for side in (op, op.adjoint()):
        dense = side.dense_matrix()
        name = f"{side.symbol.name} adjointed={side.adjointed}"
        assert_close(side.apply_many(values), dense @ values, name)
        expect_rows = transform(grid, (dense @ transform(grid, rows, inverse=True).T).T.copy())
        assert_close(side.apply_coefficients(rows), expect_rows, name + " (rows)")


class TestSeparatedRoute:
    def test_catalog_builders_give_separated_forms(self):
        for sel in CATALOG:
            assert make_symbol(sel).x_dependent, sel

    def test_combinators_and_parametrix_keep_values(self):
        rng = np.random.default_rng(3)
        x = (rng.uniform(0, 2 * np.pi, (6, 1)),)
        xi = (rng.normal(scale=20.0, size=(1, 9)),)
        a, b = make_symbol("trig-lambda:2,1,0,1"), make_symbol("mod-xi:1")
        poly = make_symbol("xi-poly:1,0,1")

        def ev(sym):
            return sym.evaluate(0.0, None, x, xi)

        chi = frequency_taper(np.abs(xi[0]), 4.0)
        cases = [(symbol_scale(2.0 - 1.0j, a), (2.0 - 1.0j) * ev(a)),
                 (symbol_sum(a, b), ev(a) + ev(b)),
                 (symbol_product(a, b), ev(a) * ev(b)),
                 (symbol_conjugate(b), np.conj(ev(b))),
                 (parametrix_symbol(a, 4.0), np.where(chi > 0, chi / ev(a), 0.0)),
                 (parametrix_symbol(poly, 4.0), np.where(chi > 0, chi / ev(poly), 0.0))]
        for sym, expect in cases:
            assert np.allclose(ev(sym), expect, rtol=1e-13, atol=0.0), sym.name

    def test_parametrix_keeps_a_one_term_form(self):
        for side in parametrix_sides("trig-lambda:2,1,0,1", TorusGrid(1, 32)):
            assert len(side.symbol.separated) == 1
        # an x-free sum collapses to one term; an x-dependent sum has no one-term inverse
        assert len(parametrix_symbol(make_symbol("xi-poly:1,0,1"), 4.0).separated) == 1
        with pytest.raises(ValueError):
            parametrix_symbol(combined()[1], 4.0)

    @pytest.mark.parametrize("dim, m", GRIDS)
    def test_matches_dense_oracle(self, dim, m):
        grid = TorusGrid(dim, m)
        values = random_columns(grid, 3, dim)
        for op in operators_under_test(grid):
            check_against_dense(op, grid, values)

    def test_writes_into_out(self):
        grid = TorusGrid(1, 64)
        rows = transform(grid, random_columns(grid, 5, 4).T.copy())
        ops = [quantize(make_symbol(sel), grid) for sel in ("lambda:1", "trig-lambda:2,1,0,1")]
        ops += [quantize(combined()[1], grid)]
        for op in ops:
            for side in (op, op.adjoint()):
                out = np.empty_like(rows)
                got = side.apply_coefficients(rows, out=out)
                assert np.shares_memory(got, out)
                assert np.array_equal(out, side.apply_coefficients(rows)), side.symbol.name

    def test_no_table_work_at_64_squared(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("a separated symbol must not build its dense matrix")

        monkeypatch.setattr(SpdoOperator, "dense_matrix", no_dense)
        grid = TorusGrid(2, 64)
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), grid)
        built = parametrix(op, lower_frequency_bound=8.0)
        cols = random_columns(grid, 2, 7)
        a_cols = op.apply_many(cols)
        left = built.left.apply_many(a_cols) - cols
        right = op.apply_many(built.right.apply_many(cols)) - cols
        assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))
        rows = transform(grid, cols.T.copy())
        assert np.all(np.isfinite(op.adjoint().apply_coefficients(rows)))
        sigma = composition_symbol(op.symbol, make_symbol("trig-lambda:1,0,0.5,1"), grid.dim)
        # a.b plus one derivative term per axis
        assert len(sigma.separated) == 3
        assert np.all(np.isfinite(quantize(sigma, grid).apply_many(cols)))

    def test_zero_derivative_term_dropped(self):
        # the x-factor of trig-lambda:1,0,0.5,1 does not vary along axis 1, so
        # that derivative term of the composition is 0 at every node
        grid = TorusGrid(2, 16)
        sigma = composition_symbol(make_symbol("trig-lambda:2,1,0,1"),
                                   make_symbol("trig-lambda:1,0,0.5,1"), grid.dim)
        op = quantize(sigma, grid)
        assert len(sigma.separated) == 3
        assert len(op._terms()) == 2
        check_against_dense(op, grid, random_columns(grid, 3, 8))


def test_xdep_scan_runs_at_16384_points(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("command = carleman-scan\na1 = trig-lambda:2,1,0,1\n"
                   "b1 = trig-lambda:1,0,0.5,1\nn = 2\nM = 128\nK = 16\nP = 2\n"
                   "T-list = 0.25\nkappa-list = 16\n")
    assert main(["carleman-scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
