"""Companion reduction, symbol diagonalization, branch splitting, consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdolab import (BranchCrossingError, DegenerateDiagonalizationError,
                     ManufacturedSolution, StencilError, TimeGrid, TorusGrid,
                     branch_symbol, build_companion_state, diagonalize,
                     exact_companion_state, principal_matrix_symbol,
                     reduction_consistency_check, reduction_table, split_roots,
                     verify_symbol_order)
from spdolab.catalog import make_principal, random_principal
from spdolab.reduction import sine_profile
from spdolab.symbols import characteristic_roots

GRID = TorusGrid(1, 16)


def detuned_solution(grid=GRID, omega=3.0, mode=2):
    # omega away from every characteristic speed: a manufactured non-solution
    return ManufacturedSolution.single(grid, sine_profile(omega), mode)


class TestCompanionState:
    def test_exact_components_closed_form(self):
        # component j stores D_t^{j-1} (1+|xi|^2)^{(m-j)/2} u at every node
        man = detuned_solution()
        tg = TimeGrid(0.25, 32)
        state = exact_companion_state(man, 2, tg)
        k, t = 2, tg.node(7)
        lam = np.sqrt(1.0 + k**2)
        u7 = man.field_at(t).coefficient_at((k,))
        d7 = man.dt_field(1, t).coefficient_at((k,))
        assert abs(state.field(0, 7).coefficient_at((k,)) - lam * u7) <= 1e-12
        assert abs(state.field(1, 7).coefficient_at((k,)) - d7) <= 1e-12

    def test_finite_difference_second_order(self):
        man = detuned_solution()
        gaps = []
        for steps in (64, 128, 256):
            tg = TimeGrid(0.25, steps)
            snaps = [man.field_at(t) for t in tg.nodes()]
            fd = build_companion_state(snaps, 2, tg)
            ex = exact_companion_state(man, 2, tg)
            gaps.append(np.max(np.abs(fd.stacks[1] - ex.stacks[1])))
        rates = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(rates > 1.8)

    def test_stencil_guard(self):
        man = detuned_solution()
        tg = TimeGrid(0.25, 4)
        snaps = [man.field_at(t) for t in tg.nodes()]
        with pytest.raises(StencilError):
            build_companion_state(snaps, 3, tg)


class TestPrincipalMatrix:
    def test_wave_matrix_entries(self):
        # superdiagonal |xi|, last row (c0 |xi|^{1-m}, ...): closed form at xi=3
        sigma = principal_matrix_symbol(make_principal("wave:2"))
        mat = sigma.matrix_at(0.0, None, (np.array(0.0),), (np.array(3.0),))
        assert np.allclose(mat, [[0.0, 3.0], [12.0, 0.0]], atol=1e-12)

    def test_mixed_cubic_matrix_entries(self):
        sigma = principal_matrix_symbol(make_principal("mixed-cubic"))
        mat = sigma.matrix_at(0.0, None, (np.array(0.0),), (np.array(2.0),))
        expected = [[0, 2, 0], [0, 0, 2], [2, -4 / 2, 2]]
        assert np.allclose(mat, expected, atol=1e-12)

    def test_zero_frequency_rejected(self):
        sigma = principal_matrix_symbol(make_principal("wave:1"))
        with pytest.raises(ValueError):
            sigma.matrix_at(0.0, None, (np.array(0.0),), (np.array(0.0),))

    def test_eigenvalues_equal_roots(self):
        # the normalized companion matrix has exactly the characteristic roots
        ps = make_principal("mixed-cubic")
        sigma = principal_matrix_symbol(ps)
        x, xi = (np.array(0.4),), (np.array(5.0),)
        mat = sigma.matrix_at(0.0, None, x, xi)
        eigs = np.linalg.eigvals(mat)
        roots = characteristic_roots(ps, 0.0, None, x, xi)
        for e in eigs:
            assert min(abs(e - r) for r in roots) <= 1e-10


class TestDiagonalization:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_residual_and_conditioning(self, seed):
        rng = np.random.default_rng(seed)
        ps = random_principal(int(rng.integers(2, 5)), rng, min_separation=0.6)
        xi = (np.array(float(rng.uniform(1.0, 12.0)) * rng.choice([-1.0, 1.0])),)
        diag = diagonalize(principal_matrix_symbol(ps), 0.0, None, (np.array(0.1),), xi)
        assert diag.residual <= 1e-10
        assert np.isfinite(diag.condition_number)
        recon = diag.vectors @ np.diag(diag.eigenvalues) @ diag.vectors_inverse
        mat = principal_matrix_symbol(ps).matrix_at(0.0, None, (np.array(0.1),), xi)
        assert np.max(np.abs(recon - mat)) <= 1e-8 * max(1.0, np.max(np.abs(mat)))

    def test_repeated_root_rejected(self):
        sigma = principal_matrix_symbol(make_principal("double-root"))
        with pytest.raises(DegenerateDiagonalizationError):
            diagonalize(sigma, 0.0, None, (np.array(0.0),), (np.array(2.0),))


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
        split = split_roots(make_principal("variable-wave:2,0.5,0"), 1)
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

    @pytest.mark.parametrize("principal", ["wave:1", "variable-wave:2,0.5,0"])
    def test_manufactured_rows_and_order(self, principal):
        man = detuned_solution(omega=3.0, mode=2)
        ps = make_principal(principal)
        report = reduction_consistency_check(man, ps, TimeGrid(0.25, 64))
        # non-final rows are identities in the exact state
        assert all(d <= 1e-10 for d in report.row_defects)
        # the last system row reproduces the scalar defect identically
        assert abs(report.system_residual - report.scalar_residual) <= \
            1e-10 * report.scalar_residual
        assert report.scalar_residual > 1.0  # genuinely not a solution
        assert report.fitted_order >= 0.9


class TestReductionTable:
    def test_row_inventory_and_residuals(self):
        rows = reduction_table(make_principal("mixed-cubic"), 1, num_angles=2)
        # 3 times x 1 position x 2 directions x 3 branches
        assert len(rows) == 18
        assert {r.branch for r in rows} == {0, 1, 2}
        # direction -1 is reported as the angle pi
        assert {r.angle for r in rows} == {0.0, np.pi}
        assert max(r.resid for r in rows) <= 1e-10
