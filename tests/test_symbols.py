"""Symbol-class audits, ellipticity estimates, characteristic roots, hypotheses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import roots_at
from spdolab import check_elliptic, check_hypotheses, verify_symbol_order
from spdolab.catalog import (lambda_symbol, make_principal, make_symbol,
                             with_declared_order)
from spdolab.symbols import _poly_roots_monic, is_complex_root, pairwise_distances


class TestOrderVerification:
    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.0])
    def test_regularity_shift_orders(self, s):
        # (1+|xi|^2)^(s/2) has exact growth exponent s in every derivative slot
        report = verify_symbol_order(lambda_symbol(s))
        assert report.passed
        assert abs(report.fitted_order() - s) <= 0.05

    def test_misdeclared_quadratic_rejected(self):
        sym = with_declared_order(make_symbol("xi2"), 1.0)
        report = verify_symbol_order(sym)
        assert not report.passed
        assert report.fitted_order() > 1.5

    def test_correctly_declared_quadratic(self):
        assert verify_symbol_order(make_symbol("xi2")).passed

    def test_zero_order_profiles(self):
        assert verify_symbol_order(make_symbol("trig:2,1,0")).passed
        assert verify_symbol_order(make_symbol("mod:3")).passed

    def test_path_dependent_symbol(self):
        report = verify_symbol_order(make_symbol("affine-w:0.5"))
        assert report.passed
        assert abs(report.fitted_order()) <= 0.05

    def test_two_dimensional_sampling(self):
        assert verify_symbol_order(lambda_symbol(1.0), dim=2).passed


class TestEllipticity:
    def test_variable_coefficient_constant(self):
        # min over x of (2 + sin x) / sqrt(2) at the (1+xi^2)/(1+|xi|)^2 floor
        report = check_elliptic(make_symbol("trig-lambda:2,1,0,1"))
        assert report.is_elliptic
        assert abs(report.constant_estimate - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_identity_symbol(self):
        report = check_elliptic(make_symbol("one"))
        assert report.is_elliptic
        assert abs(report.constant_estimate - 1.0) < 1e-12

    def test_vanishing_profile_not_elliptic(self):
        # 1 + sin x hits zero on the sampled circle
        report = check_elliptic(make_symbol("trig:1,1,0"))
        assert not report.is_elliptic


class TestCharacteristicRoots:
    def test_wave_closed_form(self):
        ps = make_principal("wave:2")
        xi = (np.array(3.0),)
        roots = roots_at(ps, 0.0, None, (np.array(0.0),), xi)
        assert np.allclose(sorted(r.real for r in roots), [-6.0, 6.0], atol=1e-12)
        assert np.allclose([r.imag for r in roots], 0.0, atol=1e-12)

    def test_laplace_closed_form(self):
        ps = make_principal("laplace")
        roots = roots_at(ps, 0.0, None, (np.array(0.0),), (np.array(2.0),))
        assert np.allclose(sorted(r.imag for r in roots), [-2.0, 2.0], atol=1e-12)
        assert all(is_complex_root(r) for r in roots)

    def test_mixed_cubic_closed_form(self):
        # (tau - xi)(tau^2 + |xi|^2): one real root xi, conjugate pair +-i|xi|
        ps = make_principal("mixed-cubic")
        roots = roots_at(ps, 0.0, None, (np.array(0.0),), (np.array(2.0),))
        expected = {2.0 + 0j, 2j, -2j}
        for r in roots:
            assert min(abs(r - e) for e in expected) < 1e-10

    @pytest.mark.parametrize("name", ["wave:2", "laplace", "mixed-cubic"])
    @pytest.mark.parametrize("scale", [2.0, 5.0])
    def test_homogeneity(self, name, scale):
        # lambda(s xi) = s lambda(xi) for degree-one roots, matched as multisets
        ps = make_principal(name)
        x = (np.array(0.0),)
        base = roots_at(ps, 0.0, None, x, (np.array(1.5),))
        scaled = roots_at(ps, 0.0, None, x, (np.array(1.5 * scale),))
        for r in scaled:
            assert min(abs(r - scale * b) for b in base) < 1e-10

    @given(coeffs=st.lists(st.floats(-3, 3), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_real_coefficients_conjugate_closed(self, coeffs):
        roots = _poly_roots_monic(np.array([coeffs], dtype=complex))[0]
        for r in roots:
            assert min(abs(np.conj(r) - q) for q in roots) < 1e-7

    @given(delta=st.floats(1e-10, 1e-6), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_root_continuity_under_perturbation(self, delta, seed):
        # separation >= 0.6 keeps sensitivity |droot| <= |dc| / prod gaps
        rng = np.random.default_rng(seed)
        base = np.array([-1.5, -0.3, 1.1]) + 0.1 * rng.standard_normal(3)
        minus_c = -np.polynomial.polynomial.polyfromroots(base)[:3]
        before = np.sort_complex(_poly_roots_monic(minus_c[None])[0])
        after = np.sort_complex(_poly_roots_monic(minus_c[None] + delta)[0])
        assert np.max(np.abs(after - before)) <= 100.0 * delta


class TestHypotheses:
    def test_wave_margins(self):
        report = check_hypotheses(make_principal("wave:2"), epsilon=1.0)
        assert abs(report.h1_margin - 4.0) <= 1e-10
        assert abs(report.h3_margin - 4.0) <= 1e-10
        assert report.h2_margin == math.inf  # no complex roots: vacuous
        assert report.all_pass

    def test_laplace_margins(self):
        report = check_hypotheses(make_principal("laplace"), epsilon=0.5)
        assert abs(report.h2_margin - 1.0) <= 1e-10
        assert report.all_pass

    def test_double_root_fails_first_hypothesis(self):
        report = check_hypotheses(make_principal("double-root"), epsilon=0.1)
        assert report.h1_margin <= 1e-10
        assert not report.h1_pass
        assert not report.all_pass

    def test_report_serialization_plain_types(self):
        d = check_hypotheses(make_principal("wave:1")).as_dict()
        assert all(isinstance(v, (float, bool, int)) for v in d.values())

    def test_pairwise_distances(self):
        d = pairwise_distances(np.array([0.0, 3.0, 4.0j]))
        assert np.allclose(sorted(d), [3.0, 4.0, 5.0])
