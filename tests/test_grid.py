"""Torus grids, pure-mode coefficients, Parseval and Sobolev norms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import band_coefficients, l2_norm, values
from spdolab import TorusGrid, mode_coefficients, sobolev_norm
from spdolab.grid import SpectralField

G32 = TorusGrid(1, 32)
G2D = TorusGrid(2, 16)

modes = st.integers(min_value=-16, max_value=15)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def band_field(grid, seed):
    return band_coefficients(grid, np.random.default_rng(seed), grid.frequency_cutoff // 2)


class TestTorusGrid:
    def test_axis_layout(self):
        assert G32.frequency_cutoff == 16
        assert G32.shape == (32,)
        assert G32.size == 32
        freqs = G32.axis_frequencies()
        assert freqs.min() == -16 and freqs.max() == 15
        nodes = G32.axis_nodes()
        assert nodes[0] == 0.0
        assert np.isclose(nodes[1] - nodes[0], 2 * np.pi / 32)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TorusGrid(1, 48)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            TorusGrid(3, 16)

    def test_2d_shapes(self):
        assert G2D.shape == (16, 16)
        assert G2D.size == 256
        assert G2D.frequency_magnitude().shape == (16, 16)


class TestModeCoefficients:
    def test_pure_mode_coefficient(self):
        c = mode_coefficients(G32, 5, 2.0 + 1.0j)
        assert c.shape == G32.shape
        assert c[5] == 2.0 + 1.0j
        # no spectral leakage anywhere else
        assert np.count_nonzero(c) == 1

    def test_pure_mode_values(self):
        x = G32.axis_nodes()
        assert np.allclose(values(mode_coefficients(G32, 3)), np.exp(3j * x), atol=1e-13)
        assert np.allclose(values(mode_coefficients(G32, -16)), np.exp(-16j * x), atol=1e-13)

    def test_pure_mode_values_2d(self):
        x0, x1 = G2D.node_grids()
        expected = np.exp(1j * (3 * x0 - 2 * x1))
        assert np.allclose(values(mode_coefficients(G2D, (3, -2))), expected, atol=1e-13)

    @pytest.mark.parametrize("grid, mode, message", [
        (G32, 16, "mode 16 outside retained band [-16, 15]"),
        (G32, -17, "mode -17 outside retained band [-16, 15]"),
        (G2D, (0, 8), "mode 8 outside retained band [-8, 7]"),
        (G2D, 3, "mode (3,) does not match grid dim 2"),
    ])
    def test_rejects_modes_outside_the_grid(self, grid, mode, message):
        with pytest.raises(ValueError) as info:
            mode_coefficients(grid, mode)
        assert str(info.value) == message

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        c = band_field(G32, seed)
        assert np.allclose(np.fft.fftn(values(c), norm="forward"), c, atol=1e-12)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        # L2 norm under the normalized measure equals the coefficient norm
        c = band_field(G32, seed)
        rms = np.sqrt(np.mean(np.abs(values(c)) ** 2))
        assert np.isclose(l2_norm(c), rms, atol=1e-12)


class TestSpectralField:
    def test_pure_mode_pairs_grid_and_coefficients(self):
        u = SpectralField.pure_mode(G2D, (3, -2), 0.5)
        assert u.grid == G2D
        assert np.array_equal(u.coefficients, mode_coefficients(G2D, (3, -2), 0.5))
        assert np.array_equal(u.values, values(u.coefficients))
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.grid = G32

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SpectralField(G2D, mode_coefficients(G32, 1))


class TestSobolev:
    @given(k=modes, s=st.sampled_from([-1.0, 0.0, 1.0, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_sobolev_pure_mode(self, k, s):
        # closed form: ||e^{ikx}||_{H^s} = (1 + k^2)^{s/2}
        c = mode_coefficients(G32, k)
        assert np.isclose(sobolev_norm(G32, c, s), (1 + k**2) ** (s / 2), rtol=1e-12)

    @pytest.mark.parametrize("s", [-1.0, 0.5, 2.0])
    def test_sobolev_pure_mode_2d_flattened(self, s):
        c = mode_coefficients(G2D, (3, -2), 2.0)
        expected = 2.0 * (1 + 9 + 4) ** (s / 2)
        assert np.isclose(sobolev_norm(G2D, c, s), expected, rtol=1e-12)
        assert sobolev_norm(G2D, c.ravel(), s) == sobolev_norm(G2D, c, s)

    def test_sobolev_zero_is_l2(self):
        c = band_field(G32, seed=11)
        rms = np.sqrt(np.mean(np.abs(values(c)) ** 2))
        assert np.isclose(sobolev_norm(G32, c, 0.0), rms, rtol=1e-12)
