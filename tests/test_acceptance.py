"""Acceptance gate: one test per headline criterion, at its stated tolerance.

Run with -v to get one pass/fail line per criterion. Each test also prints a
short `criterion <n>: pass (...)` note with the measured quantity; the
stochastic cells reuse the frozen baseline families (transport drift A1,
self-adjoint regularity shift B1, windowed single-mode Brownian forcing).
"""

import json
import math

import numpy as np
import pytest

from conftest import band_coefficients, l2_norm, random_principal, roots_at
from spdolab import (CarlemanConfig, ManufacturedSolution, TimeGrid, TorusGrid,
                     boundedness_harness, check_hypotheses, diagonalize,
                     mode_coefficients, parametrix, parametrix_residual_scan,
                     quantize, reduction_consistency_check, scan, solve_roots,
                     verify_inequality, verify_symbol_order)
from spdolab.catalog import lambda_symbol, make_principal, make_symbol, with_declared_order
from spdolab.cli import main
from spdolab.reduction import sine_profile
from spdolab.symbols import pairwise_distances

HORIZON = 0.25


def note(tag, detail):
    print(f"criterion {tag}: pass ({detail})")


def baseline(**overrides):
    merged = dict(mu=64.0 / HORIZON**2, horizon=HORIZON, steps=512, paths=256,
                  grid_points=128, a1="c-dx", b1="lambda:1",
                  process="brownian-mode:0.1,1", window="sine", seed=0)
    merged.update(overrides)
    return CarlemanConfig(**merged)


def test_criterion_01_quantization_exactness():
    grid = TorusGrid(1, 64)
    rng = np.random.default_rng(0)
    u = band_coefficients(grid, rng, grid.frequency_cutoff // 2).reshape(1, -1)
    worst = l2_norm(quantize(make_symbol("one"), grid).apply_coefficients(u) - u)
    multiplied = grid.frequency_grids()[0] * u
    worst = max(worst, l2_norm(quantize(make_symbol("xi"), grid).apply_coefficients(u)
                               - multiplied))
    shifted = quantize(make_symbol("mod:3"), grid).apply_coefficients(
        mode_coefficients(grid, 5).reshape(1, -1))
    worst = max(worst, abs(shifted[0, 8] - 1.0), abs(l2_norm(shifted) - 1.0))
    assert worst <= 1e-12
    note(1, f"identity/multiplier/modulation worst error {worst:.2e}")


def test_criterion_02_symbol_order_fit():
    worst = 0.0
    for s in (-1.0, 0.0, 1.0, 2.0):
        report = verify_symbol_order(lambda_symbol(s))
        assert report.passed
        worst = max(worst, abs(report.fitted_order() - s))
    assert worst <= 0.05
    misdeclared = verify_symbol_order(with_declared_order(make_symbol("xi2"), 1.0))
    assert not misdeclared.passed
    note(2, f"regularity-shift fits within {worst:.3f} of declared order; "
            "quadratic symbol declared at order 1 rejected")


def test_criterion_03_boundedness_uniform_in_cutoff():
    variable = boundedness_harness(make_symbol("trig-lambda:2,1,0,1"), s=1.0)
    assert tuple(r.cutoff for r in variable.rows) == (32, 64, 128)
    assert variable.variation < 0.10
    multiplier = boundedness_harness(make_symbol("xi"), s=1.0)
    assert multiplier.max_ratio <= 1.0 + 1e-12
    note(3, f"ratio variation {variable.variation:.4f} across cutoffs; "
            f"pure-multiplier ratio {multiplier.max_ratio:.12f}")


def test_criterion_04_parametrix_residual_decay():
    grid = TorusGrid(1, 128)
    op = quantize(make_symbol("trig-lambda:2,1,0,1"), grid)
    built = parametrix(op, lower_frequency_bound=8.0)
    left = parametrix_residual_scan(built, op, side="left")
    assert left.rows[0].frequency == 8
    assert left.rows[-1].frequency == grid.frequency_cutoff // 2
    assert left.fitted_slope <= -0.9
    exact = quantize(make_symbol("lambda:1"), grid)
    inverse = parametrix(exact, lower_frequency_bound=8.0)
    worst = 0.0
    for k in (16, 24, 40, 63):
        mode = mode_coefficients(grid, k).reshape(1, -1)
        residual = inverse.left.apply_coefficients(exact.apply_coefficients(mode)) - mode
        worst = max(worst, l2_norm(residual))
    assert worst <= 1e-12
    note(4, f"residual slope {left.fitted_slope:.2f} over modes 8..64; "
            f"exact-multiplier residual {worst:.2e} above the taper")


def test_criterion_05_characteristic_hypotheses():
    wave = check_hypotheses(make_principal("wave:2"), epsilon=1.0)
    assert abs(wave.h1_margin - 4.0) <= 1e-10
    assert abs(wave.h3_margin - 4.0) <= 1e-10
    assert wave.h2_margin == math.inf and wave.all_pass
    laplace = check_hypotheses(make_principal("laplace"), epsilon=0.5)
    assert abs(laplace.h2_margin - 1.0) <= 1e-10 and laplace.all_pass
    degenerate = check_hypotheses(make_principal("double-root"), epsilon=0.1)
    assert degenerate.h1_margin <= 1e-10 and not degenerate.h1_pass
    note(5, "real-root margins 4/vacuous/4; complex-pair margin 1; "
            "double root fails the simple-root hypothesis")


def test_criterion_06_diagonalization_on_random_samples():
    rng = np.random.default_rng(2026)
    worst_resid = 0.0
    worst_match = 0.0
    min_margin = math.inf
    for _ in range(100):
        ps = random_principal(int(rng.integers(2, 5)), rng, min_separation=0.6)
        x = (np.array([rng.uniform(0.0, 2.0 * np.pi)]),)
        xi = (np.array([rng.uniform(1.0, 12.0) * rng.choice([-1.0, 1.0])]),)
        unit = (np.sign(xi[0]),)
        margin = float(pairwise_distances(
            roots_at(ps, 0.0, None, x, unit)).min())
        min_margin = min(min_margin, margin)
        diag = diagonalize(solve_roots(ps, [(0.0, None)], x, xi).checked())
        worst_resid = max(worst_resid, float(diag.residual[0]))
        roots = roots_at(ps, 0.0, None, x, xi)
        for lam in diag.eigenvalues[0]:
            worst_match = max(worst_match, min(abs(lam - r) for r in roots))
    assert min_margin >= 0.1
    assert worst_resid <= 1e-10
    assert worst_match <= 1e-10
    note(6, f"100 samples, sphere margin >= {min_margin:.2f}: residual "
            f"{worst_resid:.2e}, eigenvalue-root gap {worst_match:.2e}")


def test_criterion_07_reduction_consistency_order():
    solution = ManufacturedSolution.single(TorusGrid(1, 16), sine_profile(3.0), 2)
    report = reduction_consistency_check(solution, make_principal("wave:1"),
                                         TimeGrid(HORIZON, 64))
    assert report.fitted_order >= 0.9
    note(7, f"defect convergence order {report.fitted_order:.3f} under halving")


def test_criterion_08a_zero_process_equality():
    report = verify_inequality(baseline(process="deterministic-mode:1,0.0",
                                        paths=2, grid_points=32, steps=256))
    assert report.lhs_mean == 0.0 and report.rhs_mean == 0.0
    assert np.all(report.term_means == 0.0) and not np.any(np.signbit(report.term_means))
    assert report.verdict
    note("8a", "zero process gives exact equality, all six terms +0.0")


def test_criterion_08b_self_adjoint_kills_skew_term():
    worst = 0.0
    for overrides in (dict(process="deterministic-mode:1", paths=1),
                      dict(paths=4)):
        report = verify_inequality(baseline(grid_points=32, steps=256, **overrides))
        worst = max(worst, abs(report.term_means[3]))
    assert worst <= 1e-12
    note("8b", f"adjoint-difference term magnitude {worst:.2e}")


def quadrature_oracle(mu, horizon, nodes):
    """Continuum lhs/rhs for z = sin(pi t/T) e^{ix} under the baseline
    families, by trapezoid at `nodes` points, with the weight scaled by
    e^{-mu T^2} as the program reports it."""
    t = np.linspace(0.0, horizon, nodes)
    eta = np.sin(np.pi * t / horizon)
    deta = (np.pi / horizon) * np.cos(np.pi * t / horizon)
    s = t - horizon
    weight = np.exp(mu * (s**2 - horizon**2))
    lam = np.sqrt(2.0)                       # regularity shift on mode 1
    bracket = -1j * deta - eta - 1j * lam * eta
    comparison = 1j * (mu * s * eta - lam * eta)
    lhs = (np.trapezoid(weight * eta**2, t)
           + np.trapezoid(weight * (mu * s * eta - lam * eta) ** 2, t) / mu)
    rhs = 4.0 / mu * np.trapezoid(weight * (bracket * np.conj(comparison)).real, t)
    return lhs, rhs


def test_criterion_08c_deterministic_baseline_matches_oracle():
    # gentle weight: at mu = 64 the increment sums in the discrete rhs sit
    # below the tolerance, so the continuum values are the honest comparator
    mu = 4.0 / HORIZON**2
    measured = {}
    for steps in (512, 1024):
        report = verify_inequality(baseline(mu=mu, steps=steps, paths=1,
                                            grid_points=32,
                                            process="deterministic-mode:1"))
        lhs_ref, rhs_ref = quadrature_oracle(mu, HORIZON, 10 * steps + 1)
        assert abs(report.lhs_mean - lhs_ref) <= 0.01 * abs(lhs_ref)
        assert abs(report.rhs_mean - rhs_ref) <= 0.01 * abs(rhs_ref)
        measured[steps] = (report.lhs_mean, report.rhs_mean)
    lhs_drift = abs(measured[1024][0] - measured[512][0]) / abs(measured[512][0])
    rhs_drift = abs(measured[1024][1] - measured[512][1]) / abs(measured[512][1])
    assert lhs_drift <= 0.01 and rhs_drift <= 0.01
    note("8c", f"quadrature-oracle agreement at both resolutions; "
               f"refinement drift lhs {lhs_drift:.1e}, rhs {rhs_drift:.1e}")


def test_criterion_08d_verdict_deterministic_under_fixed_seed():
    first = verify_inequality(baseline())
    second = verify_inequality(baseline())
    assert first.verdict == second.verdict
    assert first.gap == second.gap and first.gap_se == second.gap_se
    assert np.array_equal(first.term_means, second.term_means)
    assert first.verdict
    note("8d", f"P=256 verdict stable across reruns (gap {first.gap:.3e}, "
               f"se {first.gap_se:.3e})")


def test_criterion_08d_standard_error_scales_with_paths():
    # pre-registered design: mu = 16/T^2, seeds 0..2, quadrupling the paths
    # should halve the standard error of the gap
    mu = 16.0 / HORIZON**2
    ratios = []
    for seed in (0, 1, 2):
        small = verify_inequality(baseline(mu=mu, paths=256, seed=seed))
        large = verify_inequality(baseline(mu=mu, paths=1024, seed=seed))
        ratios.append(small.gap_se / large.gap_se)
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 2.0) <= 0.4
    note("8d", f"se ratio P=256 vs P=1024 averages {mean_ratio:.3f} "
               f"(per-seed {['%.2f' % r for r in ratios]})")


def test_criterion_08d_scan_reports_pass_region():
    result = scan(baseline(), T_list=(0.0625, 0.125, 0.25),
                  kappa_list=(64.0, 256.0))
    assert all(len(row.term_means) == 6 for row in result.rows)
    if not any(row.verdict for row in result.rows):
        header = "mu,T,gap,se,verdict," + ",".join(f"term{i}" for i in range(1, 7))
        lines = [header] + [
            f"{row.mu:g},{row.horizon:g},{row.gap:.6e},{row.gap_se:.6e},"
            + ("pass" if row.verdict else "fail") + ","
            + ",".join(f"{v:.6e}" for v in row.term_means)
            for row in result.rows]
        pytest.fail("empty pass region; per-term table:\n" + "\n".join(lines))
    note("8d", f"pass region nonempty: {result.summary['passes']} of "
               f"{result.summary['rows']} cells pass")


def test_criterion_09_cli_reproducibility(tmp_path):
    experiments = {
        "roots-check": ("roots-check",
                        "command = roots-check\nprincipal = wave:2\nepsilon = 1.0\n"),
        "carleman-scan": ("carleman-scan",
                          "command = carleman-scan\nM = 32\nK = 64\nP = 8\n"
                          "T-list = 0.25\nkappa-list = 16\n"),
        # x-dependent families: each cell factorizes its generator images
        "carleman-scan-xdep": ("carleman-scan",
                               "command = carleman-scan\na1 = trig-lambda:2,1,0,1\n"
                               "b1 = trig-lambda:1,0,0.5,1\nM = 128\nK = 64\nP = 8\n"
                               "T-list = 0.25\nkappa-list = 16,64\n"),
    }
    for label, (subcommand, text) in experiments.items():
        config = tmp_path / f"{label}.cfg"
        config.write_text(text)
        outs, codes = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}-{tag}"
            codes.append(main([subcommand, "--config", str(config),
                               "--out", str(out)]))
            outs.append(out)
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name == "manifest.json":
                first = json.loads((outs[0] / name).read_text())
                second = json.loads((outs[1] / name).read_text())
                first.pop("timestamp"), second.pop("timestamp")
                assert first == second
            else:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    note(9, "reruns byte-identical apart from the manifest timestamp")
