"""Brownian paths, adapted access, pinned Ito processes, quadratic variation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdolab import (AdaptednessError, SpectralField, TimeGrid, TorusGrid,
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
