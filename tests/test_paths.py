"""Brownian paths, adapted access, windowed additive-noise processes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdolab import (AdaptednessError, SpectralField, TimeGrid, TorusGrid, WindowError,
                     additive_process, derive_rng, l2_norm, parabolic_window,
                     pinned_window, sample_brownian, sine_window)
from spdolab.paths import Semimartingale

GRID = TorusGrid(1, 16)
TG = TimeGrid(0.25, 128)
UNWINDOWED = np.ones(TG.steps + 1)  # eta = 1: the process Y itself


def full_width(z):
    """z's coefficients at every node, written into a zeroed (K+1, *grid.shape) array."""
    full = np.zeros((z.time_grid.steps + 1, z.grid.size), dtype=complex)
    full[:, z.support] = z.coefficients
    return full.reshape((-1,) + z.grid.shape)


def snapshot(z, k):
    return SpectralField.from_coefficients(z.grid, full_width(z)[k])


def stepped(initial, noise, path, eta):
    """The Ito steps y_{k+1} = y_k + dw_k g at full width, then times eta."""
    ys = [initial]
    for dw in np.diff(path.values):
        ys.append(ys[-1] + dw * noise)
    return np.array(ys) * eta.reshape((-1,) + (1,) * initial.ndim)


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


class TestAdditiveProcess:
    def test_constant_diffusion_is_exact(self):
        # dY = g dw with constant g integrates exactly: Y_k = g w_k
        g = SpectralField.pure_mode(GRID, 2, 0.5)
        path = sample_brownian(1, 0, TG)
        z = additive_process(np.zeros(GRID.shape, complex), g.coefficients, UNWINDOWED,
                             path, GRID)
        for k in (0, 7, TG.steps):
            expected = float(path.values[k]) * g.values
            assert np.allclose(snapshot(z, k).values, expected, atol=1e-13)

    def test_quadratic_variation_identity(self):
        # for Y = g w the realized QV equals ||g||^2 sum (dw)^2 exactly; by
        # Parseval it is the sum of |dz|^2 over the support columns
        g = SpectralField.pure_mode(GRID, 1, 2.0)
        path = sample_brownian(4, 0, TG)
        z = additive_process(np.zeros(GRID.shape, complex), g.coefficients, UNWINDOWED,
                             path, GRID)
        qv = np.sum(np.abs(np.diff(z.coefficients, axis=0)) ** 2, axis=1)
        expected = l2_norm(g) ** 2 * np.diff(path.values) ** 2
        assert np.allclose(qv, expected, atol=1e-12)

    def test_snapshot_count_guard(self):
        path = sample_brownian(0, 0, TG)
        with pytest.raises(ValueError):
            Semimartingale(TG, GRID, np.zeros((3, 1), dtype=complex), path, np.array([1]))


class TestAdditiveNoiseRoute:
    """One cumulative sum on the support, with the bytes of the Ito steps
    taken at full width."""

    CASES = [(GRID, 1, 0.0), (GRID, 0, 0.1), (TorusGrid(2, 8), 0, 0.1), (TorusGrid(2, 8), 1, 0.0)]
    IDS = ["deterministic-mode", "brownian-mode", "brownian-mode-2d", "deterministic-mode-2d"]

    @staticmethod
    def fields(grid, initial_amp, noise_amp):
        mode = (1,) + (0,) * (grid.dim - 1)
        return (SpectralField.pure_mode(grid, mode, initial_amp).coefficients,
                SpectralField.pure_mode(grid, mode, noise_amp).coefficients)

    @pytest.mark.parametrize("grid, initial_amp, noise_amp", CASES, ids=IDS)
    def test_cumulative_sum_reproduces_step_bytes(self, grid, initial_amp, noise_amp):
        initial, noise = self.fields(grid, initial_amp, noise_amp)
        eta = pinned_window(sine_window(TG), TG)
        for p in range(3):
            path = sample_brownian(7, p, TG)
            fast = additive_process(initial, noise, UNWINDOWED, path, grid)
            assert fast.coefficients.shape == (TG.steps + 1, 1)
            loop = stepped(initial, noise, path, UNWINDOWED)
            assert full_width(fast).tobytes() == loop.tobytes()
            fast_w = additive_process(initial, noise, eta, path, grid)
            loop_w = stepped(initial, noise, path, eta)
            assert full_width(fast_w).tobytes() == loop_w.tobytes()

    @pytest.mark.parametrize("grid, initial_amp, noise_amp", CASES, ids=IDS)
    def test_support_is_the_non_zero_columns(self, grid, initial_amp, noise_amp):
        initial, noise = self.fields(grid, initial_amp, noise_amp)
        path = sample_brownian(7, 0, TG)
        for eta in (UNWINDOWED, pinned_window(parabolic_window(TG), TG)):
            z = additive_process(initial, noise, eta, path, grid)
            flat = full_width(z).reshape(TG.steps + 1, -1)
            assert np.array_equal(z.support, np.flatnonzero(np.any(flat != 0, axis=0)))
            assert z.support.tolist() == [np.ravel_multi_index((1,) + (0,) * (grid.dim - 1),
                                                               grid.shape)]

    def test_union_of_initial_and_noise_columns(self):
        path = sample_brownian(7, 0, TG)
        initial = SpectralField.pure_mode(GRID, -2, 1.0).coefficients
        noise = SpectralField.pure_mode(GRID, 3, 0.2).coefficients
        z = additive_process(initial, noise, UNWINDOWED, path, GRID)
        assert z.support.tolist() == [3, 14]
        loop = stepped(initial, noise, path, UNWINDOWED)
        assert full_width(z).tobytes() == loop.tobytes()

    def test_zero_fields_hold_no_columns(self):
        # Y_0 = g = 0: no column can leave zero, so the process holds none
        path = sample_brownian(7, 0, TG)
        zero = np.zeros(GRID.shape, complex)
        z = additive_process(zero, zero, pinned_window(sine_window(TG), TG), path, GRID)
        assert z.support.size == 0
        assert z.coefficients.shape == (TG.steps + 1, 0)
        assert not np.any(full_width(z))


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
        z = additive_process(np.zeros(GRID.shape, complex), g.coefficients,
                             pinned_window(sine_window(TG), TG), path, GRID)
        assert l2_norm(snapshot(z, 0)) == 0.0
        assert l2_norm(snapshot(z, TG.steps)) == 0.0

    def test_pinned_window_clamps_a_copy(self):
        # sin(pi) is 1.2e-16, inside the tolerance: the pinned window ends at
        # exactly zero, and the caller's array keeps its value
        raw = sine_window(TG)
        last = raw[-1]
        eta = pinned_window(raw, TG)
        assert last != 0.0 and raw[-1] == last
        assert eta[0] == 0.0 and eta[-1] == 0.0
        assert np.array_equal(eta[1:-1], raw[1:-1])

    def test_non_vanishing_window_rejected(self):
        with pytest.raises(WindowError):
            pinned_window(np.ones(TG.steps + 1), TG)

    def test_wrong_window_shape_rejected(self):
        with pytest.raises(WindowError):
            pinned_window(np.zeros(5), TG)
