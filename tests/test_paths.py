"""Brownian paths, adapted access, and the windowed additive-noise processes
of the field route (`field_route`), the Carleman terms' oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import l2_norm, values
from field_route import Semimartingale, additive_paths, additive_process
from spdolab import (AdaptednessError, TimeGrid, TorusGrid, WindowError, derive_rng,
                     mode_coefficients, parabolic_window, pinned_window, sample_brownian,
                     sine_window)
from spdolab.paths import STREAM_BROWNIAN, brownian_normals, brownian_values

GRID = TorusGrid(1, 16)
TG = TimeGrid(0.25, 128)
UNWINDOWED = np.ones(TG.steps + 1)  # eta = 1: the process Y itself


def snapshot(z, k, grid=GRID):
    """Node k of a process built from a grid's flat Fourier coefficients."""
    return z.coefficients[k].reshape(grid.shape)


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

    @pytest.mark.parametrize("horizon", [0.0625, 0.25, 1.7])
    def test_one_draw_of_normals_serves_every_horizon(self, horizon):
        # the path's increments are the bytes of Generator.normal(0, sqrt(dt))
        # on its own stream, whose normals are drawn once and scaled per grid;
        # a stack of paths sums each row as that path alone
        tg = TimeGrid(horizon, 64)
        normals = np.stack([brownian_normals(3, p, 64) for p in range(4)])
        stacked = brownian_values(normals, tg.dt)
        for p in range(4):
            increments = derive_rng(3, STREAM_BROWNIAN, p).normal(0.0, np.sqrt(tg.dt), size=64)
            reference = np.concatenate([[0.0], np.cumsum(increments)])
            assert sample_brownian(3, p, tg).values.tobytes() == reference.tobytes()
            assert stacked[p].tobytes() == reference.tobytes()

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
        assert np.isclose(slc.value(TG.node(10)), path.values[10], rtol=0, atol=1e-15)
        with pytest.raises(AdaptednessError):
            slc.value(TG.node(10) + 2 * TG.dt)

    def test_slice_interpolant(self):
        path = sample_brownian(0, 0, TG)
        slc = path.slice_at(TG.steps)
        t = 0.5 * (TG.node(3) + TG.node(4))
        expected = 0.5 * (path.values[3] + path.values[4])
        assert np.isclose(slc.value(t), expected)


class TestAdditiveProcess:
    def test_constant_diffusion_is_exact(self):
        # dY = g dw with constant g integrates exactly: Y_k = g w_k
        g = mode_coefficients(GRID, 2, 0.5)
        path = sample_brownian(1, 0, TG)
        z = additive_process(np.zeros(GRID.size, complex), g, UNWINDOWED, path)
        for k in (0, 7, TG.steps):
            expected = float(path.values[k]) * values(g)
            assert np.allclose(values(snapshot(z, k)), expected, atol=1e-13)

    def test_quadratic_variation_identity(self):
        # for Y = g w the realized QV equals ||g||^2 sum (dw)^2 exactly; by
        # Parseval it is the sum of |dz|^2 over the Fourier columns
        g = mode_coefficients(GRID, 1, 2.0)
        path = sample_brownian(4, 0, TG)
        z = additive_process(np.zeros(GRID.size, complex), g, UNWINDOWED, path)
        qv = np.sum(np.abs(np.diff(z.coefficients, axis=0)) ** 2, axis=1)
        expected = l2_norm(g) ** 2 * np.diff(path.values) ** 2
        assert np.allclose(qv, expected, atol=1e-12)

    def test_snapshot_count_guard(self):
        path = sample_brownian(0, 0, TG)
        with pytest.raises(ValueError):
            Semimartingale(TG, np.zeros((3, 1), dtype=complex), path)
        with pytest.raises(ValueError):
            Semimartingale(TG, np.zeros(TG.steps + 1, dtype=complex), path)


class TestAdditiveNoiseRoute:
    """One cumulative sum on exactly the columns given, with the bytes of the
    Ito steps taken at full width."""

    CASES = [(GRID, 1, 0.0), (GRID, 0, 0.1), (TorusGrid(2, 8), 0, 0.1), (TorusGrid(2, 8), 1, 0.0)]
    IDS = ["deterministic-mode", "brownian-mode", "brownian-mode-2d", "deterministic-mode-2d"]

    @staticmethod
    def fields(grid, initial_amp, noise_amp):
        """Flat coefficients of Y_0 and g on one mode, and that mode's column."""
        mode = (1,) + (0,) * (grid.dim - 1)
        return (mode_coefficients(grid, mode, initial_amp).reshape(-1),
                mode_coefficients(grid, mode, noise_amp).reshape(-1),
                np.ravel_multi_index(mode, grid.shape))

    @pytest.mark.parametrize("grid, initial_amp, noise_amp", CASES, ids=IDS)
    def test_cumulative_sum_reproduces_step_bytes(self, grid, initial_amp, noise_amp):
        # given the mode's column alone, the process is that column of the
        # Ito steps at full width, byte for byte, and the steps leave every
        # other column zero
        initial, noise, col = self.fields(grid, initial_amp, noise_amp)
        eta = pinned_window(sine_window(TG), TG)
        for p in range(3):
            path = sample_brownian(7, p, TG)
            for window in (UNWINDOWED, eta):
                fast = additive_process(initial[[col]], noise[[col]], window, path)
                assert fast.coefficients.shape == (TG.steps + 1, 1)
                loop = stepped(initial, noise, path, window)
                assert fast.coefficients.tobytes() == loop[:, [col]].tobytes()
                assert not np.any(np.delete(loop, col, axis=1))

    @pytest.mark.parametrize("grid, initial_amp, noise_amp", CASES, ids=IDS)
    def test_holds_every_given_column(self, grid, initial_amp, noise_amp):
        # full-width fields give a full-width process, zero columns included:
        # finding the non-zero columns is the caller's, once per cell
        initial, noise, _ = self.fields(grid, initial_amp, noise_amp)
        path = sample_brownian(7, 0, TG)
        for eta in (UNWINDOWED, pinned_window(parabolic_window(TG), TG)):
            z = additive_process(initial, noise, eta, path)
            assert z.coefficients.shape == (TG.steps + 1, grid.size)
            assert np.array_equal(z.coefficients, stepped(initial, noise, path, eta))

    def test_initial_and_noise_share_the_given_columns(self):
        # columns 3 and 14 (modes 3 and -2): Y_0 sits on one and g on the other
        path = sample_brownian(7, 0, TG)
        initial = mode_coefficients(GRID, -2, 1.0)
        noise = mode_coefficients(GRID, 3, 0.2)
        z = additive_process(initial[[3, 14]], noise[[3, 14]], UNWINDOWED, path)
        assert z.coefficients.shape == (TG.steps + 1, 2)
        loop = stepped(initial, noise, path, UNWINDOWED)
        assert z.coefficients.tobytes() == loop[:, [3, 14]].tobytes()

    @pytest.mark.parametrize("grid", [GRID, TorusGrid(2, 8)], ids=["1d", "2d"])
    def test_generator_stack_rows_match_single_calls(self, grid):
        # row j of a stacked call is the single call on (Y_0[j], g[j]); row 0
        # is the Ito steps of (Y_0, g)
        def mode(k, amp):
            return mode_coefficients(grid, (k,) + (0,) * (grid.dim - 1), amp).reshape(-1)

        initial = np.stack([mode(1, 0.5), 2.0 * mode(1, 0.5), np.zeros(grid.size), mode(-3, 1.0)])
        noise = np.stack([mode(1, 0.1), mode(1, 0.2) - 1j * mode(2, 0.3), mode(2, 0.1),
                          np.zeros(grid.size)])
        cols = sorted(np.flatnonzero(mode(k, 1.0))[0] for k in (1, 2, -3))
        eta = pinned_window(sine_window(TG), TG)
        for p in range(3):
            path = sample_brownian(7, p, TG)
            z = additive_process(initial[:, cols], noise[:, cols], eta, path)
            assert z.coefficients.shape == (4, TG.steps + 1, 3)
            for j in range(4):
                single = additive_process(initial[j, cols], noise[j, cols], eta, path)
                assert single.coefficients.ndim == 2
                assert single.coefficients.tobytes() == z.coefficients[j].tobytes()
            loop = stepped(initial[0], noise[0], path, eta)
            assert loop[:, cols].tobytes() == z.coefficients[0].tobytes()
            assert not np.any(np.delete(loop, cols, axis=1))

    def test_block_rows_match_single_paths(self):
        # additive_paths builds B paths at once; row b holds the bytes that
        # additive_process gives along path b alone
        initial = np.stack([mode_coefficients(GRID, k, 0.3) for k in (1, 2, 3)])
        noise = np.stack([mode_coefficients(GRID, k, 0.1j) for k in (1, 2, 3)])
        eta = pinned_window(sine_window(TG), TG)
        paths = [sample_brownian(7, p, TG) for p in range(5)]
        block = additive_paths(initial, noise, eta, np.stack([w.values for w in paths]))
        assert block.shape == (5, 3, TG.steps + 1, GRID.size)
        for row, path in zip(block, paths):
            alone = additive_process(initial, noise, eta, path).coefficients
            assert row.tobytes() == alone.tobytes()

    def test_zero_width_stack_holds_no_columns(self):
        # the zero process has no basis vector: (J, 0) stacks, (J, K+1, 0) paths
        empty = np.zeros((3, 0), complex)
        z = additive_process(empty, empty, pinned_window(sine_window(TG), TG),
                             sample_brownian(7, 0, TG))
        assert z.coefficients.shape == (3, TG.steps + 1, 0)
        block = additive_paths(empty, empty, pinned_window(sine_window(TG), TG),
                               np.zeros((2, TG.steps + 1)))
        assert block.shape == (2, 3, TG.steps + 1, 0)

    def test_zero_fields_keep_their_columns(self):
        # Y_0 = g = 0 on 16 columns: the process holds all 16, zero at every node
        path = sample_brownian(7, 0, TG)
        zero = np.zeros(GRID.size, complex)
        z = additive_process(zero, zero, pinned_window(sine_window(TG), TG), path)
        assert z.coefficients.shape == (TG.steps + 1, GRID.size)
        assert not np.any(z.coefficients)
        empty = additive_process(zero[:0], zero[:0], UNWINDOWED, path)
        assert empty.coefficients.shape == (TG.steps + 1, 0)


class TestWindows:
    @given(window=st.sampled_from([sine_window, parabolic_window]))
    @settings(max_examples=4, deadline=None)
    def test_endpoints_vanish(self, window):
        eta = window(TG)
        assert eta[0] == 0.0 and abs(eta[-1]) < 1e-12
        assert np.max(eta) > 0.5

    def test_pinned_process_endpoints_exact(self):
        g = mode_coefficients(GRID, 1, 0.3)
        path = sample_brownian(2, 0, TG)
        z = additive_process(np.zeros(GRID.size, complex), g,
                             pinned_window(sine_window(TG), TG), path)
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
