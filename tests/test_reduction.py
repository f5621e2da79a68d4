"""Companion reduction, symbol diagonalization, branch splitting, consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdolab import (BranchCrossingError, DegenerateDiagonalizationError,
                     ManufacturedSolution, StencilError, TimeGrid, TorusGrid,
                     branch_symbol, build_companion_state, companion_symbol, diagonalize,
                     exact_companion_state, reduction_consistency_check, reduction_table,
                     sample_brownian, solve_roots, split_roots, verify_symbol_order)
from spdolab.catalog import (from_roots_principal, make_principal, make_symbol,
                             random_principal)
from spdolab.reduction import sine_profile
from spdolab.symbols import characteristic_roots

GRID = TorusGrid(1, 16)


def detuned_solution(grid=GRID, omega=3.0, mode=2):
    # omega away from every characteristic speed: a manufactured non-solution
    return ManufacturedSolution.single(grid, sine_profile(omega), mode)


def samples(*values):
    """One (N,) array per axis."""
    return tuple(np.array(v, dtype=float) for v in values)


class TestCompanionState:
    def test_exact_components_closed_form(self):
        # component j stores D_t^{j-1} (1+|xi|^2)^{(m-j)/2} u at every node;
        # u = sin(3t) e^{2ix}, so D_t u = -3i cos(3t) e^{2ix}
        man = detuned_solution()
        tg = TimeGrid(0.25, 32)
        state = exact_companion_state(man, 2, tg)
        assert state.shape == (2, 33) + GRID.shape
        k, t = 2, tg.node(7)
        lam = np.sqrt(1.0 + k**2)
        assert abs(state[0, 7, k] - lam * math.sin(3.0 * t)) <= 1e-12
        assert abs(state[1, 7, k] - (-3j) * math.cos(3.0 * t)) <= 1e-12
        others = np.delete(state, k, axis=-1)
        assert not np.any(others)

    def test_finite_difference_second_order(self):
        man = detuned_solution()
        gaps = []
        for steps in (64, 128, 256):
            tg = TimeGrid(0.25, steps)
            fd = build_companion_state(man.dt(0, tg.nodes()), GRID, 2, tg)
            ex = exact_companion_state(man, 2, tg)
            gaps.append(np.max(np.abs(fd[1] - ex[1])))
        rates = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(rates > 1.8)

    def test_stencil_guard(self):
        man = detuned_solution()
        tg = TimeGrid(0.25, 4)
        with pytest.raises(StencilError):
            build_companion_state(man.dt(0, tg.nodes()), GRID, 3, tg)

    def test_snapshot_count_guard(self):
        man = detuned_solution()
        tg = TimeGrid(0.25, 16)
        with pytest.raises(ValueError):
            build_companion_state(man.dt(0, tg.nodes()[:-1]), GRID, 2, tg)

    @pytest.mark.parametrize("mode", [8, -9, (2, 1)], ids=["above", "below", "wrong-dim"])
    def test_out_of_band_mode_rejected(self, mode):
        # the retained band of a 16-point axis is [-8, 7]; (2, 1) has the wrong dim
        with pytest.raises(ValueError):
            ManufacturedSolution.single(GRID, sine_profile(3.0), mode)


class TestPrincipalMatrix:
    def test_wave_matrix_entries(self):
        # superdiagonal |xi|, last row (c0 |xi|^{1-m}, ...): closed form at xi = 3 and 2
        mat = companion_symbol(make_principal("wave:2"), 0.0, None,
                               samples([0.0, 1.0]), samples([3.0, -2.0]))
        assert mat.shape == (2, 2, 2)
        assert np.allclose(mat, [[[0.0, 3.0], [12.0, 0.0]], [[0.0, 2.0], [8.0, 0.0]]],
                           atol=1e-12)

    def test_mixed_cubic_matrix_entries(self):
        mat = companion_symbol(make_principal("mixed-cubic"), 0.0, None,
                               samples([0.0]), samples([2.0]))
        expected = [[0, 2, 0], [0, 0, 2], [2, -4 / 2, 2]]
        assert np.allclose(mat[0], expected, atol=1e-12)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            companion_symbol(make_principal("wave:1"), 0.0, None,
                             samples([0.0, 0.0]), samples([1.0, 0.0]))

    def test_eigenvalues_equal_roots(self):
        # the normalized companion matrix has exactly the characteristic roots
        ps = make_principal("mixed-cubic")
        x, xi = samples([0.4, 0.4, 2.0]), samples([5.0, -3.0, 0.5])
        mats = companion_symbol(ps, 0.0, None, x, xi)
        for i, mat in enumerate(mats):
            roots = characteristic_roots(ps, 0.0, None, (x[0][i],), (xi[0][i],))
            for e in np.linalg.eigvals(mat):
                assert min(abs(e - r) for r in roots) <= 1e-10


class TestDiagonalization:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_residual_and_conditioning(self, seed):
        rng = np.random.default_rng(seed)
        ps = random_principal(int(rng.integers(2, 5)), rng, min_separation=0.6)
        x = samples([0.1])
        xi = samples([float(rng.uniform(1.0, 12.0)) * rng.choice([-1.0, 1.0])])
        diag = diagonalize(solve_roots(ps, [(0.0, None)], x, xi).checked())
        assert diag.residual[0] <= 1e-10
        assert np.isfinite(diag.condition_number[0])
        recon = diag.vectors[0] @ np.diag(diag.eigenvalues[0]) @ diag.vectors_inverse[0]
        mat = companion_symbol(ps, 0.0, None, x, xi)[0]
        assert np.max(np.abs(recon - mat)) <= 1e-8 * max(1.0, np.max(np.abs(mat)))

    def test_repeated_root_rejected(self):
        solved = solve_roots(make_principal("double-root"), [(0.0, None)],
                             samples([0.0]), samples([2.0])).checked()
        with pytest.raises(DegenerateDiagonalizationError):
            diagonalize(solved)


class TestBranchSplitting:
    def test_mixed_cubic_flags(self):
        split = split_roots(make_principal("mixed-cubic"), 1)
        flags = sorted(b.flag for b in split.branches)
        assert flags == ["elliptic", "elliptic", "zero"]

    def test_wave_flags_real(self):
        split = split_roots(make_principal("wave:2"), 1)
        assert all(b.flag == "zero" for b in split.branches)
        assert np.allclose(split.table.imag, 0.0, atol=1e-12)

    def test_near_crossing_detected(self):
        # q(x) = c0 + sin x passes within 5e-8 of zero on the sample circle:
        # distinct roots closer than the ambiguity margin stop continuation
        ps = make_principal("variable-wave:0.7071068311865476,1,0")
        with pytest.raises(BranchCrossingError):
            split_roots(ps, 1)

    def test_exact_collision_tolerated(self):
        # exactly coincident roots match under any permutation; no ambiguity
        split = split_roots(make_principal("variable-wave:0,1,0"), 1)
        assert all(b.flag == "zero" for b in split.branches)

    def test_branch_symbol_matches_closed_form(self):
        # imaginary part of the upper branch of tau^2 = -|xi|^2 is |xi|
        split = split_roots(make_principal("laplace"), 1)
        upper = max(range(2), key=lambda b: split.branches[b].values.imag.max())
        sym = branch_symbol(split, upper, part="im")
        xi = np.linspace(-12.0, 12.0, 49)
        vals = sym.fn(0.0, None, (np.zeros_like(xi),), (xi,))
        assert np.max(np.abs(vals - np.abs(xi))) <= 1e-10
        assert sym.order == 1.0

    def test_branch_symbol_order_audit(self):
        split = split_roots(make_principal("laplace"), 1)
        upper = max(range(2), key=lambda b: split.branches[b].values.imag.max())
        assert verify_symbol_order(branch_symbol(split, upper, "im")).passed

    def test_x_dependent_principal_rejected(self):
        for ps in (make_principal("variable-wave:2,0.5,0"),
                   from_roots_principal([1, -1], trig_eps=[0.1, 0])):
            split = split_roots(ps, 1)
            with pytest.raises(ValueError):
                branch_symbol(split, 0)


class TestConsistency:
    def test_exact_solution_residual_vanishes(self):
        # d/dt u = i xi u is solved exactly by exp(i k t) e^{ikx}: m = 1 with
        # c0 = xi, so the defect must vanish to rounding
        from spdolab.reduction import exponential_profile
        grid = TorusGrid(1, 16)
        k = 2
        man = ManufacturedSolution.single(grid, exponential_profile(1j * k), k)
        ps = make_principal("from-roots:1")
        report = reduction_consistency_check(man, ps, TimeGrid(0.25, 64))
        assert report.scalar_residual <= 1e-12
        assert report.system_residual <= 1e-12

    # (principal, dim, under a real path slice, with lower-order terms)
    @pytest.mark.parametrize("principal, dim, path, forced", [
        ("wave:1", 1, False, False),
        ("variable-wave:2,0.5,0", 1, False, False),
        ("variable-wave:2,0.5,0.3", 1, True, False),
        ("wave:1", 1, True, True),
        ("mixed-cubic", 1, True, True),
        ("wave:1", 2, False, False),
        ("variable-wave:2,0.5,0.3", 2, True, True),
    ], ids=["wave:1", "variable-wave:2,0.5,0", "path", "forced", "forced-cubic", "2d",
            "path-forced-2d"])
    def test_manufactured_rows_and_order(self, principal, dim, path, forced):
        tg = TimeGrid(0.25, 64)
        man = detuned_solution(TorusGrid(dim, 16), omega=3.0, mode=2 if dim == 1 else (2, 1))
        slc = sample_brownian(3, 0, tg).slice_at(tg.steps) if path else None
        lower = ((0, make_symbol("brownian-lambda:0.5,0")), (1, make_symbol("trig:1,0.3,0")))
        report = reduction_consistency_check(man, make_principal(principal), tg, slc=slc,
                                             lower_order=lower if forced else ())
        # non-final rows are identities in the exact state
        assert all(d <= 1e-10 for d in report.row_defects)
        # the last system row reproduces the scalar defect identically
        assert abs(report.system_residual - report.scalar_residual) <= \
            1e-10 * report.scalar_residual
        assert report.scalar_residual > 1.0  # genuinely not a solution
        assert report.fitted_order >= 0.9


class TestReductionTable:
    def test_row_inventory_and_residuals(self):
        table = reduction_table(make_principal("mixed-cubic"), 1, num_angles=2)
        # 3 times x 1 position x 2 directions, 3 branches each
        assert (len(table.times), len(table.xs), len(table.angles)) == (3, 1, 2)
        assert table.roots.shape == (6, 3)
        assert table.resid.shape == table.cond.shape == (6,)
        assert table.root_samples_solved == 6
        # direction -1 is reported as the angle pi
        assert table.angles == [0.0, np.pi]
        assert table.resid.max() <= 1e-10
