import math
import re

import numpy as np
import pytest

from quadplate import (
    NumericalError,
    PlateMaterial,
    QuadGeometry,
    ValidationError,
    build_scheme,
    element_matrices,
    gauss_rule,
    polygon_section_properties,
    section_properties,
)
from quadplate.mapping import SCHEME_KINDS, det2, lattice_points

from conftest import convex_quads

# Worked cross-section values: A, I_x1, I_x2, I_x1x2 about the global axes.
SECTION_EXACT = (22.0, 99.6667, 250.6667, 84.6667)
#: Vertex 3 is reflex, so the bilinear map folds inside the element.
CHEVRON = [[0, 0], [1, 0], [0.05, 0.05], [0, 1]]
MAT = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)


class TestGaussRule:
    def test_order_one_is_midpoint(self):
        rule = gauss_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [2.0])

    def test_order_two_nodes(self):
        rule = gauss_rule(2)
        np.testing.assert_allclose(np.abs(rule.nodes), 1.0 / np.sqrt(3.0))
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    def test_order_three_nodes(self):
        rule = gauss_rule(3)
        np.testing.assert_allclose(rule.nodes,
                                   [-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
        np.testing.assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9])

    @pytest.mark.parametrize("order", range(1, 7))
    def test_weights_sum_to_two(self, order):
        assert gauss_rule(order).weights.sum() == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_exact_for_monomials_up_to_degree(self, order):
        rule = gauss_rule(order)
        for degree in range(2 * order):
            quad_value = float(np.sum(rule.weights * rule.nodes ** degree))
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert quad_value == pytest.approx(exact, abs=1e-13), degree

    @pytest.mark.parametrize("order", range(1, 7))
    def test_tensor_rule_built_once_read_only(self, order):
        rule = gauss_rule(order)
        assert gauss_rule(order) is rule
        points, weights = rule.tensor_points, rule.tensor_weights
        assert gauss_rule(order).tensor_points is points
        np.testing.assert_array_equal(
            points, lattice_points(rule.nodes, rule.nodes))
        np.testing.assert_array_equal(
            weights, np.outer(rule.weights, rule.weights).ravel())
        for table in (rule.nodes, rule.weights, points, weights):
            assert not table.flags.writeable

    @pytest.mark.parametrize("order", [0, 7, -1])
    def test_out_of_range_rejected(self, order):
        with pytest.raises(ValidationError):
            gauss_rule(order)


class TestIntegrateElement:
    """``section_properties`` integrates over the mapped element."""

    def test_unit_square_area(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        value = section_properties(scheme, gauss_rule(3)).area
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_section_quad_area(self, section_quad):
        scheme = build_scheme(section_quad, "bilinear")
        value = section_properties(scheme, gauss_rule(3)).area
        assert value == pytest.approx(22.0, abs=1e-12)

    def test_unit_square_x_squared(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        value = section_properties(scheme, gauss_rule(3)).i_x2
        assert value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_folded_element_rejected(self):
        scheme = build_scheme(QuadGeometry(CHEVRON), "bilinear")
        with pytest.raises(NumericalError):
            section_properties(scheme, gauss_rule(3))

    @pytest.mark.parametrize("integrate", [
        section_properties,
        lambda scheme, rule: element_matrices(scheme, MAT, rule)],
        ids=["section_properties", "element_matrices"])
    def test_folded_error_names_point_and_det(self, integrate):
        # det J of the chevron is first non-positive at the fifth point
        # of the Gauss 3 rule, (0, sqrt(3/5))
        scheme = build_scheme(QuadGeometry(CHEVRON), "bilinear")
        theta = (0.0, math.sqrt(0.6))
        det = float(det2(scheme.params.gradient(theta)))
        assert det < 0.0
        message = (f"non-positive Jacobian at quadrature point {theta}: "
                   f"det J = {det:.3e}")
        with pytest.raises(NumericalError, match=re.escape(message)):
            integrate(scheme, gauss_rule(3))


class TestSectionProperties:
    def test_section_quad_benchmark_values(self, section_quad):
        scheme = build_scheme(section_quad, "bilinear")
        props = section_properties(scheme, gauss_rule(3))
        area, i_x1, i_x2, i_x1x2 = SECTION_EXACT
        assert props.area == pytest.approx(area, abs=1e-9)
        assert props.i_x1 == pytest.approx(i_x1, abs=5e-5)
        assert props.i_x2 == pytest.approx(i_x2, abs=5e-5)
        assert props.i_x1x2 == pytest.approx(i_x1x2, abs=5e-5)

    def test_unit_square_analytic(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        props = section_properties(scheme, gauss_rule(3))
        assert props.area == pytest.approx(1.0, abs=1e-14)
        assert props.i_x1 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert props.i_x2 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert props.i_x1x2 == pytest.approx(0.25, abs=1e-14)

    def test_identical_under_all_schemes(self, section_quad):
        rule = gauss_rule(3)
        results = [section_properties(build_scheme(section_quad, k), rule)
                   for k in SCHEME_KINDS]
        for other in results[1:]:
            assert abs(other.area - results[0].area) <= 1e-9
            assert abs(other.i_x1 - results[0].i_x1) <= 1e-9
            assert abs(other.i_x2 - results[0].i_x2) <= 1e-9
            assert abs(other.i_x1x2 - results[0].i_x1x2) <= 1e-9

    def test_polygon_formula_matches_benchmark_values(self, section_quad):
        props = polygon_section_properties(section_quad.vertices)
        assert props.area == pytest.approx(22.0, abs=1e-12)
        assert props.i_x1 == pytest.approx(99.6667, abs=5e-5)
        assert props.i_x2 == pytest.approx(250.6667, abs=5e-5)
        assert props.i_x1x2 == pytest.approx(84.6667, abs=5e-5)

    def test_order_three_is_converged(self, section_quad):
        # integrands are polynomials of per-variable degree <= 5
        base = section_properties(build_scheme(section_quad, "pascal6"),
                                  gauss_rule(3))
        for order in (4, 5, 6):
            probe = section_properties(build_scheme(section_quad, "pascal6"),
                                       gauss_rule(order))
            for key, value in base.as_dict().items():
                assert abs(probe.as_dict()[key] - value) <= 1e-11 * abs(value)

    def test_additivity_under_split(self):
        rng = np.random.default_rng(17)
        rule = gauss_rule(3)
        for quad in convex_quads(10, seed=23, scale=2.0):
            v = quad.vertices
            s = rng.uniform(-0.5, 0.5)
            bottom = 0.5 * (1 - s) * v[0] + 0.5 * (1 + s) * v[1]
            top = 0.5 * (1 - s) * v[3] + 0.5 * (1 + s) * v[2]
            left = QuadGeometry([v[0], bottom, top, v[3]])
            right = QuadGeometry([bottom, v[1], v[2], top])
            whole = section_properties(build_scheme(quad, "bilinear"), rule)
            parts = [section_properties(build_scheme(q, "bilinear"), rule)
                     for q in (left, right)]
            for key, value in whole.as_dict().items():
                total = sum(p.as_dict()[key] for p in parts)
                assert abs(total - value) <= 1e-10 * max(1.0, abs(value))

    def test_scaling_laws(self):
        rule = gauss_rule(3)
        for quad in convex_quads(10, seed=29):
            s = 3.7
            scaled = QuadGeometry(s * quad.vertices)
            base = section_properties(build_scheme(quad, "bilinear"), rule)
            big = section_properties(build_scheme(scaled, "bilinear"), rule)
            assert big.area == pytest.approx(s ** 2 * base.area, rel=1e-10)
            assert big.i_x1 == pytest.approx(s ** 4 * base.i_x1, rel=1e-10)
            assert big.i_x2 == pytest.approx(s ** 4 * base.i_x2, rel=1e-10)
            assert big.i_x1x2 == pytest.approx(s ** 4 * base.i_x1x2, rel=1e-10)
