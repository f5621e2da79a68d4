"""Brownian paths, adapted access, pinned Ito processes, quadratic variation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdolab import (AdaptednessError, ConstantRule, SpectralField, TimeGrid, TorusGrid,
                     WindowError, constant_field_rule, derive_rng, ito_process,
                     l2_norm, parabolic_window, realized_quadratic_variation,
                     sample_brownian, sine_window, windowed_ito_process)
from spdolab.paths import Semimartingale

GRID = TorusGrid(1, 16)
TG = TimeGrid(0.25, 128)


class TestTimeGrid:
    def test_nodes(self):
        nodes = TG.nodes()
        assert nodes[0] == 0.0 and nodes[-1] == TG.horizon
        assert len(nodes) == TG.steps + 1
        assert np.allclose(np.diff(nodes), TG.dt)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(0.25, 0)


class TestRngStreams:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_keyed_determinism(self, seed):
        a = derive_rng(seed, 1, 5).standard_normal(4)
        b = derive_rng(seed, 1, 5).standard_normal(4)
        assert np.array_equal(a, b)

    def test_stream_independence(self):
        a = derive_rng(0, 1, 0).standard_normal(8)
        b = derive_rng(0, 2, 0).standard_normal(8)
        c = derive_rng(0, 1, 1).standard_normal(8)
        assert not np.allclose(a, b) and not np.allclose(a, c)


class TestBrownianPath:
    def test_determinism_and_distinct_paths(self):
        w0 = sample_brownian(3, 0, TG).values
        w0_again = sample_brownian(3, 0, TG).values
        w1 = sample_brownian(3, 1, TG).values
        assert np.array_equal(w0, w0_again)
        assert not np.allclose(w0, w1)
        assert w0[0] == 0.0

    def test_realized_quadratic_variation_near_horizon(self):
        # sum of squared increments concentrates at T; 5 sigma band at K = 512
        tg = TimeGrid(0.25, 512)
        w = sample_brownian(0, 0, tg).values
        qv = np.sum(np.diff(w) ** 2)
        sd = np.sqrt(2.0 * tg.steps) * tg.dt
        assert abs(qv - tg.horizon) < 5 * sd

    def test_adapted_access_guard(self):
        path = sample_brownian(0, 0, TG)
        slc = path.slice_at(10)
        assert slc.value_at_index(10) == path.values[10]
        with pytest.raises(AdaptednessError):
            slc.value_at_index(11)
        with pytest.raises(AdaptednessError):
            slc.value(TG.node(10) + 2 * TG.dt)

    def test_slice_interpolant(self):
        path = sample_brownian(0, 0, TG)
        slc = path.full_slice()
        t = 0.5 * (TG.node(3) + TG.node(4))
        expected = 0.5 * (path.values[3] + path.values[4])
        assert np.isclose(slc.value(t), expected)


class TestItoProcess:
    def test_constant_diffusion_is_exact(self):
        # dY = g dw with constant g integrates exactly: Y_k = g w_k
        g = SpectralField.pure_mode(GRID, 2, 0.5)
        path = sample_brownian(1, 0, TG)
        z = ito_process(None, constant_field_rule(g), path, GRID)
        for k in (0, 7, TG.steps):
            expected = float(path.values[k]) * g.values
            assert np.allclose(z.snapshot(k).values, expected, atol=1e-13)

    def test_quadratic_variation_identity(self):
        # for Y = g w the realized QV equals ||g||^2 sum (dw)^2 exactly
        g = SpectralField.pure_mode(GRID, 1, 2.0)
        path = sample_brownian(4, 0, TG)
        z = ito_process(None, constant_field_rule(g), path, GRID)
        qv = realized_quadratic_variation(z)
        expected = l2_norm(g) ** 2 * np.diff(path.values) ** 2
        assert np.allclose(qv, expected, atol=1e-12)

    def test_drift_only_reproduces_euler(self):
        drift = constant_field_rule(SpectralField.pure_mode(GRID, 0, 1.0))
        path = sample_brownian(0, 0, TG)
        z = ito_process(drift, None, path, GRID)
        final = z.coefficients[-1, 0]
        assert np.isclose(final, TG.horizon, atol=1e-12)

    def test_state_dependent_drift(self):
        # dY = -Y dt: Euler-Maruyama gives Y_k = (1 - dt)^k Y_0 on every mode
        path = sample_brownian(0, 0, TG)
        z = ito_process(lambda t, slc, y: -y, None, path, GRID,
                        SpectralField.pure_mode(GRID, 3, 2.0))
        expected = 2.0 * (1.0 - TG.dt) ** np.arange(TG.steps + 1)
        assert np.allclose(z.coefficients[:, 3], expected, rtol=1e-13, atol=0)
        assert np.all(np.delete(z.coefficients, 3, axis=1) == 0.0)

    def test_snapshot_count_guard(self):
        path = sample_brownian(0, 0, TG)
        with pytest.raises(ValueError):
            Semimartingale(TG, GRID, np.zeros((3,) + GRID.shape, dtype=complex), path)


class TestAdditiveNoiseRoute:
    """No drift and a constant (or no) diffusion: one cumulative sum on the
    support instead of the step loop, with the loop's bytes."""

    CASES = [(GRID, 1, 0.0), (GRID, 0, 0.1), (TorusGrid(2, 8), 0, 0.1), (TorusGrid(2, 8), 1, 0.0)]
    IDS = ["deterministic-mode", "brownian-mode", "brownian-mode-2d", "deterministic-mode-2d"]

    @staticmethod
    def rules(grid, initial_amp, noise_amp):
        mode = (1,) + (0,) * (grid.dim - 1)
        initial = SpectralField.pure_mode(grid, mode, initial_amp) if initial_amp else None
        g = SpectralField.pure_mode(grid, mode, noise_amp).coefficients
        declared = ConstantRule(g) if noise_amp else None
        return initial, declared, (lambda t, slc, y: g)

    @pytest.mark.parametrize("grid, initial_amp, noise_amp", CASES, ids=IDS)
    def test_constant_rule_reproduces_loop_bytes(self, grid, initial_amp, noise_amp):
        initial, declared, plain = self.rules(grid, initial_amp, noise_amp)
        for p in range(3):
            path = sample_brownian(7, p, TG)
            fast = ito_process(None, declared, path, grid, initial)
            loop = ito_process(None, plain, path, grid, initial)
            assert loop.support is None and fast.support is not None
            assert fast.coefficients.tobytes() == loop.coefficients.tobytes()
            fast_w = windowed_ito_process(None, declared, sine_window, path, grid, initial)
            loop_w = windowed_ito_process(None, plain, sine_window, path, grid, initial)
            assert fast_w.coefficients.tobytes() == loop_w.coefficients.tobytes()

    @pytest.mark.parametrize("grid, initial_amp, noise_amp", CASES, ids=IDS)
    def test_support_is_the_non_zero_columns(self, grid, initial_amp, noise_amp):
        initial, declared, _ = self.rules(grid, initial_amp, noise_amp)
        path = sample_brownian(7, 0, TG)
        for z in (ito_process(None, declared, path, grid, initial),
                  windowed_ito_process(None, declared, parabolic_window, path, grid, initial)):
            flat = z.coefficients.reshape(TG.steps + 1, -1)
            assert np.array_equal(z.support, np.flatnonzero(np.any(flat != 0, axis=0)))
            assert z.support.tolist() == [np.ravel_multi_index((1,) + (0,) * (grid.dim - 1),
                                                               grid.shape)]

    def test_union_of_initial_and_noise_columns(self):
        path = sample_brownian(7, 0, TG)
        g = ConstantRule(SpectralField.pure_mode(GRID, 3, 0.2).coefficients)
        z = ito_process(None, g, path, GRID, SpectralField.pure_mode(GRID, -2, 1.0))
        assert z.support.tolist() == [3, 14]
        loop = ito_process(None, lambda t, slc, y: g.coefficients, path, GRID,
                           SpectralField.pure_mode(GRID, -2, 1.0))
        assert z.coefficients.tobytes() == loop.coefficients.tobytes()

    def test_constant_rule_is_a_field_rule(self):
        g = SpectralField.pure_mode(GRID, 1, 0.5).coefficients
        rule = constant_field_rule(SpectralField.pure_mode(GRID, 1, 0.5))
        assert isinstance(rule, ConstantRule)
        path = sample_brownian(0, 0, TG)
        assert np.array_equal(rule(0.0, path.slice_at(0), np.zeros(GRID.shape)), g)

    def test_other_rules_keep_the_loop_and_full_width(self):
        path = sample_brownian(0, 0, TG)
        initial = SpectralField.pure_mode(GRID, 1, 1.0)
        f = ConstantRule(SpectralField.pure_mode(GRID, 0, 1.0).coefficients)
        g = ConstantRule(SpectralField.pure_mode(GRID, 2, 0.1).coefficients)
        state_dependent = ito_process(None, lambda t, slc, y: 0.1 * y, path, GRID, initial)
        drift_and_noise = ito_process(f, g, path, GRID, initial)
        drift_only = ito_process(f, None, path, GRID, initial)
        for z in (state_dependent, drift_and_noise, drift_only):
            assert z.support is None
        # (y + dt f) + dw g, stepped in that order
        y = initial.coefficients.copy()
        dw = np.diff(path.values)
        for k in range(TG.steps):
            y = y + TG.dt * f.coefficients + dw[k] * g.coefficients
        assert drift_and_noise.coefficients[-1].tobytes() == y.tobytes()


class TestWindows:
    @given(window=st.sampled_from([sine_window, parabolic_window]))
    @settings(max_examples=4, deadline=None)
    def test_endpoints_vanish(self, window):
        eta = window(TG)
        assert eta[0] == 0.0 and abs(eta[-1]) < 1e-12
        assert np.max(eta) > 0.5

    def test_pinned_process_endpoints_exact(self):
        g = SpectralField.pure_mode(GRID, 1, 0.3)
        path = sample_brownian(2, 0, TG)
        z = windowed_ito_process(None, constant_field_rule(g), sine_window, path, GRID)
        assert l2_norm(z.snapshot(0)) == 0.0
        assert l2_norm(z.snapshot(TG.steps)) == 0.0

    def test_non_vanishing_window_rejected(self):
        path = sample_brownian(0, 0, TG)
        with pytest.raises(WindowError):
            windowed_ito_process(None, None, np.ones(TG.steps + 1), path, GRID,
                                 SpectralField.pure_mode(GRID, 1))

    def test_wrong_window_shape_rejected(self):
        path = sample_brownian(0, 0, TG)
        with pytest.raises(WindowError):
            windowed_ito_process(None, None, np.zeros(5), path, GRID)
