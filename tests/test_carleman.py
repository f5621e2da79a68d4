"""Weighted energy inequality: per-term assembly, aggregation, and the scan."""

import numpy as np
import pytest

from spdolab import (CarlemanConfig, NonFiniteError, SpectralField, TorusGrid, scan,
                     verify_inequality)
from spdolab import carleman, catalog
from spdolab.carleman import (path_terms, resolve_operator_family, resolve_process,
                              resolve_window)
from spdolab.operators import quantize
from spdolab.paths import (Semimartingale, TimeGrid, additive_process, pinned_window,
                           sample_brownian)

T = 0.25
MU = 64.0 / T**2

BASE = dict(mu=MU, horizon=T, steps=256, paths=8, grid_points=32,
            a1="c-dx", b1="lambda:1", process="brownian-mode:0.1,1", seed=0)


def cfg(**overrides):
    merged = {**BASE, **overrides}
    return CarlemanConfig(**merged)


def process(selector, window, grid, seed, path_index, tg):
    """Path `path_index` of a cell's process, as `verify_inequality` builds it."""
    initial, noise = resolve_process(selector, grid)
    eta = pinned_window(resolve_window(window)(tg), tg)
    return additive_process(initial, noise, eta, sample_brownian(seed, path_index, tg), grid)


def full_width(z):
    """z written into a zeroed (K+1, M^n) array: a process whose support is
    every column."""
    full = np.zeros((z.time_grid.steps + 1, z.grid.size), dtype=complex)
    full[:, z.support] = z.coefficients
    return Semimartingale(z.time_grid, z.grid, full, z.path, np.arange(z.grid.size))


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


def value_space_terms(z, a1_selector, b1_selector, mu, weight_scaled=True):
    """The six terms of one path evaluated as on the value grid: snapshot
    values, value-basis dense matrices and grid-mean pairings."""
    grid = z.grid

    def dense(selector):
        return resolve_operator_family(selector, grid).dense_matrix()

    a1, b1 = dense(a1_selector), dense(b1_selector)
    tg = z.time_grid
    coeffs = full_width(z).coefficients.reshape((-1,) + grid.shape)
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
        rows = SpectralField.pure_mode(grid, 3).coefficients.reshape(1, -1)
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
        rows = SpectralField.pure_mode(grid, k).coefficients.reshape(1, -1)
        out = fam.apply_coefficients(rows)
        ratio = out[0, k % 16] / rows[0, k % 16]
        assert abs(abs(ratio) - abs(k)) <= 1e-9 or abs(ratio) <= 1e-9

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
        z = process("deterministic-mode:2,0.5", "sine", grid, 0, 0, tg)
        assert abs(full_width(z).coefficients[16, 2]) > 0.0
        z2 = process("brownian-mode:0.1,1", "parabolic", grid, 0, 0, tg)
        assert len(z2.coefficients) == 33
        with pytest.raises(ValueError):
            resolve_process("levy-mode:1", grid)


class TestEqualityAndStructure:
    def test_zero_process_every_term_vanishes(self):
        report = verify_inequality(cfg(process="deterministic-mode:1,0.0", paths=2))
        assert report.lhs_mean == 0.0 and report.rhs_mean == 0.0
        assert np.all(report.term_means == 0.0)
        assert report.verdict and report.borderline

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
        # path p's six terms are the same bytes whether the run has 8 or 16
        # paths, and the aggregated means repeat bitwise on rerun
        recorded = {}
        real = carleman.path_terms

        def record(z, *args):
            terms = real(z, *args)
            recorded.setdefault(z.path.path_index, []).append(terms.tobytes())
            return terms

        monkeypatch.setattr(carleman, "path_terms", record)
        verify_inequality(cfg(b1="mod:1", paths=8))
        a = verify_inequality(cfg(b1="mod:1", paths=16))
        b = verify_inequality(cfg(b1="mod:1", paths=16))
        assert sorted(recorded) == list(range(16))
        for p in range(8):
            assert len(set(recorded[p])) == 1 and len(recorded[p]) == 3
        assert np.array_equal(a.term_means, b.term_means)
        assert a.gap == b.gap and a.gap_se == b.gap_se

    def test_process_and_window_built_once_per_cell(self, monkeypatch):
        # the selector is parsed and the window checked once for the cell,
        # while every path gets its own process
        calls = {"resolve_process": 0, "pinned_window": 0, "additive_process": 0}
        for name in calls:
            real = getattr(carleman, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(carleman, name, counted)
        verify_inequality(cfg(paths=8))
        assert calls == {"resolve_process": 1, "pinned_window": 1, "additive_process": 8}

    def test_se_positive_for_stochastic_runs(self):
        report = verify_inequality(cfg(paths=16))
        assert report.gap_se > 0.0
        assert report.lhs_se > 0.0

    def test_path_terms_direct_row(self):
        grid = TorusGrid(1, 16)
        tg = TimeGrid(T, 64)
        a1 = resolve_operator_family("zero", grid)
        b1 = resolve_operator_family("zero", grid)
        z = process("deterministic-mode:1", "sine", grid, 0, 0, tg)
        terms = path_terms(z, a1, b1, b1, MU)
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
        z = process("brownian-mode:0.1,1", "sine", grid, 0, 1, tg)
        # a state on every mode, pinned at both ends, reaches every matrix entry
        rng = np.random.default_rng(5)
        shape = (tg.steps + 1, grid.size)
        spread = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spread[0] = spread[-1] = 0.0
        for z in (z, Semimartingale(tg, grid, 0.01 * spread, z.path, np.arange(grid.size))):
            got = path_terms(z, fam_a1, fam_b1, fam_b1.adjoint(), MU)
            ref = value_space_terms(z, a1, b1, MU)
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
                value_space_terms(process(base.process, base.window, base.torus(),
                                          base.seed, p, tg),
                                  base.a1, base.b1, row.mu, weight_scaled=False)
                for p in range(base.paths)])
            gap = terms[:, 2:].sum(axis=1) - terms[:, :2].sum(axis=1)
            gap_mean, gap_se = gap.mean(), gap.std(ddof=1) / np.sqrt(base.paths)
            assert row.verdict == bool(gap_mean >= -3.0 * gap_se)
            assert row.borderline == bool(abs(gap_mean) <= 3.0 * gap_se)
            unscaled = row.term_means * np.exp(row.log_weight_scale)
            scale = np.max(np.abs(terms.mean(axis=0)))
            assert np.allclose(unscaled, terms.mean(axis=0), rtol=1e-11, atol=1e-11 * scale)

    def test_non_finite_terms_raise(self):
        with pytest.raises(NonFiniteError):
            verify_inequality(cfg(process="brownian-mode:1e200,1", paths=2))


def skew_multiplier(grid):
    """<xi> + i xi: a complex Fourier multiplier, so B1 != B1* and r2 != 0.
    No catalog selector gives one; every catalog multiplier is real."""
    sym = catalog.symbol_sum(catalog.lambda_symbol(1.0),
                             catalog.symbol_scale(1j, catalog.xi_symbol()))
    return quantize(sym, grid)


class TestSupportRoute:
    """Multiplier families sum the six terms over the process's support
    columns only; the bytes are those of the full-width sums."""

    @pytest.mark.parametrize("a1, b1, dim, kappa", [
        ("c-dx", "lambda:1", 1, 64.0),
        ("c-dx", "lambda:1", 1, 1024.0),
        ("xi", "lambda:0.5", 1, 16.0),
        ("zero", "skew", 1, 256.0),
        ("c-dx", "lambda:1", 2, 64.0),
        ("lambda:1", "skew", 2, 1024.0),
    ])
    @pytest.mark.parametrize("selector", ["brownian-mode:0.1,1", "deterministic-mode:1"])
    def test_support_columns_match_full_width_bytes(self, a1, b1, dim, kappa, selector):
        grid = TorusGrid(dim, 32 if dim == 1 else 8)
        tg = TimeGrid(T, 128)
        fam_a1 = resolve_operator_family(a1, grid)
        fam_b1 = skew_multiplier(grid) if b1 == "skew" else resolve_operator_family(b1, grid)
        fam_adj = fam_b1.adjoint()
        assert (fam_adj is fam_b1) == (b1 != "skew")
        mu = kappa / T**2
        for p in range(3):
            z = process(selector, "sine", grid, 0, p, tg)
            assert z.support.size == 1
            got = path_terms(z, fam_a1, fam_b1, fam_adj, mu)
            full = path_terms(full_width(z), fam_a1, fam_b1, fam_adj, mu)
            assert got.tobytes() == full.tobytes()
            assert np.all(np.isfinite(got))
            assert (got[3] != 0.0) == (b1 == "skew")

    def test_cell_path_arrays_follow_the_width(self):
        # one set of arrays serves a supported and a full-width process in turn
        grid = TorusGrid(1, 32)
        tg = TimeGrid(T, 64)
        a1 = resolve_operator_family("c-dx", grid)
        b1 = resolve_operator_family("lambda:1", grid)
        z = process("brownian-mode:0.1,1", "sine", grid, 0, 0, tg)
        arrays = carleman._PathArrays()
        first = path_terms(z, a1, b1, b1, MU, arrays)
        assert arrays.shape == (tg.steps, 1)
        wide = path_terms(full_width(z), a1, b1, b1, MU, arrays)
        assert arrays.shape == (tg.steps, 32)
        again = path_terms(z, a1, b1, b1, MU, arrays)
        assert first.tobytes() == wide.tobytes() == again.tobytes()

    def test_multiplier_cell_holds_its_support_column(self, monkeypatch):
        # an n = 2, M = 128 multiplier cell: each path holds (K+1, 1)
        # coefficients, not a (K+1, 128^2) array with one column written,
        # and its terms are the bytes of the sums over every column
        recorded = []
        real = carleman.path_terms

        def record(z, *args):
            terms = real(z, *args)
            recorded.append((z, args[:4], terms))
            return terms

        monkeypatch.setattr(carleman, "path_terms", record)
        verify_inequality(cfg(dim=2, grid_points=128, steps=16, paths=2))
        assert len(recorded) == 2
        for z, families, terms in recorded:
            assert z.coefficients.shape == (17, 1)
            assert terms.tobytes() == real(full_width(z), *families).tobytes()

    def test_full_width_array_follows_the_support(self):
        # an x-dependent cell writes each process into one full-width array;
        # the columns a process on another support left there must read zero
        grid = TorusGrid(1, 32)
        tg = TimeGrid(T, 64)
        a1 = resolve_operator_family("trig-lambda:2,1,0,1", grid)
        b1 = resolve_operator_family("mod:1", grid)
        b1_adj = b1.adjoint()
        arrays = carleman._PathArrays()
        for selector in ("brownian-mode:0.1,1", "deterministic-mode:3", "brownian-mode:0.1,2"):
            z = process(selector, "sine", grid, 0, 0, tg)
            got = path_terms(z, a1, b1, b1_adj, MU, arrays)
            assert got.tobytes() == path_terms(z, a1, b1, b1_adj, MU).tobytes()

    @pytest.mark.parametrize("a1, b1, dim, m", [
        ("trig-lambda:2,1,0,1", "trig-lambda:1,0,0.5,1", 1, 32),
        ("trig-lambda:2,1,0,1", "trig-lambda:1,0,0.5,1", 2, 8),
        ("c-dx", "mod:1", 1, 32),               # only B1 moves the mode
        ("trig-lambda:2,1,0,1", "lambda:1", 1, 32),  # only A1 does
    ])
    def test_x_dependent_families_keep_full_width(self, a1, b1, dim, m):
        # an x-dependent family moves mass off the support, so the terms of a
        # supported process must still agree with the dense value-space oracle
        grid = TorusGrid(dim, m)
        tg = TimeGrid(T, 128)
        fam_a1 = resolve_operator_family(a1, grid)
        fam_b1 = resolve_operator_family(b1, grid)
        z = process("brownian-mode:0.1,1", "sine", grid, 0, 1, tg)
        assert z.support.size == 1
        got = path_terms(z, fam_a1, fam_b1, fam_b1.adjoint(), MU)
        ref = value_space_terms(z, a1, b1, MU)
        scale = np.max(np.abs(ref))
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1e-3 * scale))


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
