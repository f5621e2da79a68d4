"""Quantization, adjoints, composition, boundedness, and parametrix checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import band_coefficients, l2_norm, values
from spdolab import (DenseCapError, EllipticityError, SpdoOperator, TimeGrid, TorusGrid,
                     boundedness_harness, composition_symbol, mode_coefficients, parametrix,
                     parametrix_residual_scan, quantize, sample_brownian)
from spdolab import operators
from spdolab.catalog import CATALOG_SYMBOLS, make_principal, make_symbol, symbol_scale
from spdolab.reduction import branch_symbol, split_roots

GRID = TorusGrid(1, 32)
N = GRID.frequency_cutoff

seeds = st.integers(0, 2**32 - 1)


def band_field(grid, seed):
    rng = np.random.default_rng(seed)
    return band_coefficients(grid, rng, grid.frequency_cutoff // 2)


def apply(op, u):
    """`op` on the coefficients u of one field, through apply_coefficients."""
    return op.apply_coefficients(u.reshape(1, -1)).reshape(u.shape)


def apply_values(op, u):
    """Grid values of `op` on the coefficients u of one field, through apply_many."""
    return op.apply_many(values(u).reshape(-1, 1)).reshape(u.shape)


class TestQuantization:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_identity_symbol(self, seed):
        op = quantize(make_symbol("one"), GRID)
        u = band_field(GRID, seed)
        assert l2_norm(apply(op, u) - u) <= 1e-12

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_frequency_multiplier(self, seed):
        # a(xi) = xi acts as exact spectral differentiation
        op = quantize(make_symbol("xi"), GRID)
        u = band_field(GRID, seed)
        expected = GRID.frequency_grids()[0] * u
        assert l2_norm(apply(op, u) - expected) <= 1e-12

    def test_single_modulation_shifts_modes(self):
        # a(x) = e^{i3x} sends e^{ikx} to e^{i(k+3)x} inside the band
        op = quantize(make_symbol("mod:3"), GRID)
        out = apply(op, mode_coefficients(GRID, 5))
        assert abs(out[8] - 1.0) <= 1e-12
        assert abs(l2_norm(out) - 1.0) <= 1e-12

    def test_mixed_symbol_closed_form(self):
        # (2 + sin x)(1+xi^2)^(1/2) on a pure mode is a pointwise product
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), GRID)
        k = 4
        u = mode_coefficients(GRID, k)
        x = GRID.axis_nodes()
        expected = (2.0 + np.sin(x)) * np.sqrt(1.0 + k**2) * np.exp(1j * k * x)
        assert np.max(np.abs(apply_values(op, u) - expected)) <= 1e-12
        assert np.max(np.abs(values(apply(op, u)) - expected)) <= 1e-12

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_dense_matrix_agrees_with_apply(self, seed):
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), GRID)
        u = band_field(GRID, seed)
        via_dense = op.dense_matrix() @ values(u)
        assert np.max(np.abs(via_dense - apply_values(op, u))) <= 1e-12
        assert np.max(np.abs(via_dense - values(apply(op, u)))) <= 1e-12

    def test_dense_cap(self):
        op = quantize(make_symbol("one"), TorusGrid(1, 8192))
        with pytest.raises(DenseCapError):
            op.dense_matrix()


def lambda_operator(s, grid):
    return quantize(make_symbol(f"lambda:{s}"), grid)


class TestLambdaOperator:
    def test_inverse_pair(self):
        up = lambda_operator(1.0, GRID)
        down = lambda_operator(-1.0, GRID)
        u = band_field(GRID, 3)
        assert l2_norm(apply(down, apply(up, u)) - u) <= 1e-12

    def test_matches_quantized_symbol(self):
        op = quantize(make_symbol("lambda:2"), GRID)
        lam = lambda_operator(2.0, GRID)
        u = band_field(GRID, 5)
        assert l2_norm(apply(op, u) - apply(lam, u)) <= 1e-11

    def test_self_adjoint(self):
        lam = lambda_operator(1.0, GRID)
        u, v = band_field(GRID, 1), band_field(GRID, 2)
        # <f, g> = sum f_hat conj(g_hat) = np.vdot(g, f), by Parseval
        assert abs(np.vdot(v, apply(lam, u)) - np.vdot(apply(lam, v), u)) <= 1e-12


class TestAdjoint:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_pairing_identity(self, seed):
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), GRID)
        adj = op.adjoint()
        u, v = band_field(GRID, seed), band_field(GRID, seed + 13)
        assert abs(np.vdot(v, apply(op, u)) - np.vdot(apply(adj, v), u)) <= 1e-11

    def test_double_adjoint(self):
        op = quantize(make_symbol("mod-xi:1"), GRID)
        u = band_field(GRID, 9)
        back = op.adjoint().adjoint()
        assert l2_norm(apply(back, u) - apply(op, u)) <= 1e-11


class TestStreamedAdjoint:
    """At 2-D 64^2 the adjoint applies by FFT, never through a dense matrix."""

    def test_pairing_and_double_adjoint(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("the adjoint must not build a dense matrix")

        monkeypatch.setattr(SpdoOperator, "dense_matrix", no_dense)
        grid = TorusGrid(2, 64)
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), grid)
        u, v = band_field(grid, 21), band_field(grid, 22)
        # the pairing on grid values, through apply_many
        au, a_star_v = apply_values(op, u), apply_values(op.adjoint(), v)
        pairs = np.mean(au * np.conj(values(v))), np.mean(values(u) * np.conj(a_star_v))
        assert abs(pairs[0] - pairs[1]) <= 1e-11
        back = op.adjoint().adjoint()
        assert l2_norm(apply(back, u) - apply(op, u)) <= 1e-11


# one argument list per catalog entry; reduction branches are added per grid
CATALOG_SAMPLES = {
    "one": "one", "zero": "zero", "const": "const:2.5", "lambda": "lambda:1",
    "xi": "xi", "c-dx": "c-dx:2", "xi2": "xi2", "xi-poly": "xi-poly:1,2,3",
    "abs-xi": "abs-xi", "trig": "trig:2,1,0.5", "trig-lambda": "trig-lambda:2,1,0,1",
    "mod": "mod:3", "mod-xi": "mod-xi:2", "affine-w": "affine-w:0.5",
    "brownian-lambda": "brownian-lambda:0.5,1",
}
X_FREE = {"one", "zero", "const", "lambda", "xi", "c-dx", "xi2", "xi-poly", "abs-xi",
          "affine-w", "brownian-lambda"}


def x_free_symbols(dim):
    syms = [make_symbol(sel) for sel in CATALOG_SAMPLES.values()]
    syms.append(branch_symbol(split_roots(make_principal("laplace"), dim), 1, "im"))
    syms.append(symbol_scale(1j, make_symbol("xi")))  # a complex multiplier
    return [sym for sym in syms if not sym.x_dependent]


class TestXFreeDeclarations:
    """A symbol declared free of x quantizes to a multiplier: a wrong flag
    would silently give a wrong operator."""

    tg = TimeGrid(0.25, 16)
    t, slc = tg.node(8), sample_brownian(3, 0, tg).slice_at(8)

    def test_samples_cover_the_catalog(self):
        assert set(CATALOG_SAMPLES) == set(CATALOG_SYMBOLS)
        declared = {name for name, sel in CATALOG_SAMPLES.items()
                    if not make_symbol(sel).x_dependent}
        assert declared == X_FREE

    @pytest.mark.parametrize("dim, m", [(1, 128), (2, 32)])
    def test_values_do_not_change_with_x(self, dim, m):
        grid = TorusGrid(dim, m)
        xi = tuple(g.reshape(1, -1) for g in grid.frequency_grids())
        rng = np.random.default_rng(8)
        for sym in x_free_symbols(dim):
            vals = []
            for x in rng.uniform(0.0, 2.0 * np.pi, size=(8, dim)):
                x_t = tuple(np.full((1, 1), c) for c in x)
                out = np.asarray(sym.fn(self.t, self.slc, x_t, xi), dtype=complex)
                vals.append(np.broadcast_to(out, (1, grid.size)))
            assert all(np.array_equal(v, vals[0]) for v in vals), sym.name

    @pytest.mark.parametrize("dim, m", [(1, 128), (2, 32)])
    def test_multiplier_matches_dense_oracle(self, dim, m):
        grid = TorusGrid(dim, m)
        u = values(band_coefficients(grid, np.random.default_rng(dim))).reshape(-1, 1)
        rows = np.fft.fftn(u.reshape(grid.shape), norm="forward").reshape(1, -1)
        for sym in x_free_symbols(dim):
            op = quantize(sym, grid, self.t, self.slc)
            assert op.multiplier() is not None, sym.name
            for side in (op, op.adjoint()):
                ref_values = side.dense_matrix() @ u
                ref_rows = np.fft.fftn(ref_values.reshape(grid.shape),
                                       norm="forward").reshape(1, -1)
                scale = max(1.0, np.max(np.abs(ref_values)))
                assert np.max(np.abs(side.apply_many(u) - ref_values)) <= 1e-12 * scale, sym.name
                assert np.max(np.abs(side.apply_coefficients(rows) - ref_rows)) <= 1e-12 * scale


def asymptotic(a, b):
    """One-term asymptotic composition, quantized at a's context."""
    return quantize(composition_symbol(a.symbol, b.symbol, a.grid.dim), a.grid, a.t, a.slc)


def composition_gap(exact, op, u):
    """L2 norm of (exact - op) u for a dense value-basis matrix `exact`."""
    diff = exact @ values(u).ravel() - apply_values(op, u).ravel()
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


class TestComposition:
    """Asymptotic composition against the exact one, the product of the dense oracles."""

    def test_multiplier_after_profile_exact(self):
        # first-order symbol against x-profile: the one-term expansion is exact
        # away from the band edge (products alias in the top mode pair)
        f = quantize(make_symbol("trig:2,1,0"), GRID)
        d = quantize(make_symbol("xi"), GRID)
        exact = d.dense_matrix() @ f.dense_matrix()
        asym = asymptotic(d, f)
        for k in range(-N // 2, N // 2 + 1):
            assert composition_gap(exact, asym, mode_coefficients(GRID, k)) <= 1e-10

    def test_profile_after_multiplier_exact(self):
        f = quantize(make_symbol("trig:2,1,0"), GRID)
        d = quantize(make_symbol("xi"), GRID)
        exact = f.dense_matrix() @ d.dense_matrix()
        asym = asymptotic(f, d)
        for k in range(-N // 2, N // 2 + 1):
            assert composition_gap(exact, asym, mode_coefficients(GRID, k)) <= 1e-10

    def test_first_order_remainder_decays(self):
        # remainder order l1 + l2 - 2: relative error shrinks ~ (1+k)^-2
        grid = TorusGrid(1, 64)
        a = quantize(make_symbol("trig-lambda:2,1,0,1"), grid)
        b = quantize(make_symbol("trig-lambda:3,0,1,1"), grid)
        exact = a.dense_matrix() @ b.dense_matrix()
        asym = asymptotic(a, b)
        rels = []
        for k in (4, 8, 16):
            u = mode_coefficients(grid, k)
            ref = exact @ values(u)
            rels.append(composition_gap(exact, asym, u) / np.sqrt(np.mean(np.abs(ref) ** 2)))
        assert rels[0] < 1e-3
        assert rels[0] > 3.0 * rels[1] > 9.0 * rels[2]

    def test_composed_order_metadata(self):
        sigma = composition_symbol(make_symbol("lambda:1"), make_symbol("xi"), 1)
        assert sigma.order == 2.0


class TestCompositionSymbol:
    """The one-term symbol a.b - i sum_j d_xi_j a . d_x_j b against closed-form
    derivatives, in 1-D and 2-D, with a path-dependent factor under a real slice."""

    tg = TimeGrid(0.25, 16)
    t, slc = tg.node(8), sample_brownian(5, 0, tg).slice_at(8)
    w = slc.value(tg.node(8))

    @staticmethod
    def closed_forms(w):
        # selector -> (a, [d_xi_j a], [d_x_j a]) as functions of (x, xi, j)
        def bracket(xi, p):
            return (1.0 + sum(c**2 for c in xi)) ** p

        def mag(xi):
            return np.sqrt(sum(c**2 for c in xi))

        def e(x):
            return np.exp(2j * x[0])

        def zero(x, xi, j):
            return 0.0 * x[0] * xi[0]

        def axis0(f):
            return lambda x, xi, j: f(x, xi) if j == 0 else 0.0 * x[0] * xi[0]

        return {
            "lambda:1.5": (lambda x, xi: bracket(xi, 0.75),
                           lambda x, xi, j: 1.5 * xi[j] * bracket(xi, -0.25), zero),
            "xi-poly:1,-2,0.5": (lambda x, xi: 1.0 - 2.0 * xi[0] + 0.5 * xi[0] ** 2,
                                 axis0(lambda x, xi: -2.0 + xi[0]), zero),
            "abs-xi": (lambda x, xi: mag(xi), lambda x, xi, j: xi[j] / mag(xi), zero),
            "trig:2,1,-0.5": (lambda x, xi: 2.0 + np.sin(x[0]) - 0.5 * np.cos(x[0]), zero,
                              axis0(lambda x, xi: np.cos(x[0]) + 0.5 * np.sin(x[0]))),
            "mod-xi:2": (lambda x, xi: e(x) * xi[0], axis0(lambda x, xi: e(x)),
                         axis0(lambda x, xi: 2j * e(x) * xi[0])),
            "brownian-lambda:0.5,1": (lambda x, xi: (1.0 + 0.5 * w) * bracket(xi, 0.5),
                                      lambda x, xi, j: (1.0 + 0.5 * w) * xi[j] * bracket(xi, -0.5),
                                      zero),
        }

    @staticmethod
    def samples(dim):
        rng = np.random.default_rng(dim)
        xi = rng.uniform(-64.0, 64.0, size=(dim, 24))
        if dim == 1:
            xi = np.concatenate([xi, [[1.0, -1.0, 37.0, -500.0]]], axis=1)
        else:
            # frequencies on each axis, where one component vanishes
            on_axes = [[3.0, -40.0, 0.0, 0.0, 1.0], [0.0, 0.0, 7.0, -0.5, 1.0]]
            xi = np.concatenate([xi, on_axes], axis=1)
        x = rng.uniform(0.0, 2.0 * np.pi, size=(dim, xi.shape[1]))
        return tuple(x), tuple(xi)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_closed_form_derivatives(self, dim):
        forms = self.closed_forms(self.w)
        x, xi = self.samples(dim)
        assert self.w != 0.0
        for (sel_a, (a, dxi_a, _)), (sel_b, (b, _, dx_b)) in itertools.product(
                forms.items(), repeat=2):
            expected = a(x, xi) * b(x, xi) - 1j * sum(
                dxi_a(x, xi, j) * dx_b(x, xi, j) for j in range(dim))
            sigma = operators.composition_symbol(make_symbol(sel_a), make_symbol(sel_b), dim)
            got = sigma.evaluate(self.t, self.slc, x, xi)
            err = np.max(np.abs(got - expected))
            assert err <= 1e-10 * np.max(np.abs(expected)), (sel_a, sel_b, err)


class TestBoundedness:
    def test_pure_multiplier_ratio_at_most_one(self):
        # |xi| <= (1+xi^2)^(1/2) pointwise, so the H^1 -> L2 ratio never exceeds 1
        report = boundedness_harness(make_symbol("xi"), s=1.0)
        assert report.max_ratio <= 1.0 + 1e-12

    def test_variable_symbol_uniform_across_cutoffs(self):
        report = boundedness_harness(make_symbol("trig-lambda:2,1,0,1"), s=1.0)
        assert len(report.rows) == 3
        assert report.variation < 0.10


class TestParametrix:
    def test_variable_elliptic_residual_slope(self):
        grid = TorusGrid(1, 128)
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), grid)
        built = parametrix(op, lower_frequency_bound=8.0)
        scan = parametrix_residual_scan(built, op, side="left")
        assert scan.fitted_slope <= -0.9
        assert scan.rows[0].frequency == 8

    def test_right_parametrix_slope(self):
        grid = TorusGrid(1, 128)
        op = quantize(make_symbol("trig-lambda:2,1,0,1"), grid)
        built = parametrix(op, lower_frequency_bound=8.0)
        scan = parametrix_residual_scan(built, op, side="right")
        assert scan.fitted_slope <= -0.9

    def test_exact_multiplier_residual_above_taper(self):
        # for a pure frequency multiplier the truncated reciprocal is exact
        # wherever the taper is 1, i.e. above twice the cutoff
        grid = TorusGrid(1, 128)
        op = quantize(make_symbol("lambda:1"), grid)
        built = parametrix(op, lower_frequency_bound=8.0)
        for k in (16, 24, 40, 63):
            u = mode_coefficients(grid, k)
            resid = apply(built.left, apply(op, u)) - u
            assert l2_norm(resid) <= 1e-12

    def test_non_elliptic_rejected(self):
        op = quantize(make_symbol("trig:1,1,0"), GRID)
        with pytest.raises(EllipticityError):
            parametrix(op)
