import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quadplate import (
    DegenerateGeometryError,
    NumericalError,
    PoleSet,
    QuadGeometry,
    ValidationError,
    build_scheme,
    compute_poles_cartesian,
    pascal_shape_set,
    solve_pole_natural,
)
import quadplate.cases
import quadplate.mapping
import quadplate.modal
import quadplate.plate_element
from quadplate.mapping import (
    BILINEAR_MONOMIALS,
    CORNER_NATURAL,
    PASCAL_MONOMIALS,
    SCHEME_KINDS,
    SERENDIPITY_MONOMIALS,
    _SERENDIPITY_SHAPES,
    bilinear_coefficients,
    bilinear_jacobians,
    corner_jacobians,
    det2,
    monomial_gradients,
    monomial_values,
    pair_distances,
    twice_signed_area,
)
from quadplate.cases import (case_meshes, load_case, run_mapcheck, run_modal,
                             run_sectprops)
from quadplate.quadrature import (GaussRule, gauss_rule,
                                  polygon_section_properties)

from conftest import (SECTION_QUAD, convex_quads, corner_jacobians_by_mask,
                      fd_jacobian)
from oracles import contravariant


class TestQuadGeometry:
    def test_clockwise_input_reordered_with_warning(self):
        with pytest.warns(UserWarning, match="clockwise"):
            quad = QuadGeometry([[0, 0], [0, 5], [4, 3], [8, 0]])
        assert quad.signed_area > 0
        np.testing.assert_allclose(quad.vertices[0], [0, 0])
        assert quad.signed_area == pytest.approx(22.0)

    def test_clockwise_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="clockwise") as record:
            QuadGeometry([[0, 0], [0, 5], [4, 3], [8, 0]])
        assert record[0].filename == __file__

    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            QuadGeometry([[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_coincident_vertices_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            QuadGeometry([[0, 0], [1, 0], [1, 0], [0, 1]])

    def test_collapsed_edge_allowed_only_when_requested(self):
        collapsed = [[0, 0], [1, 0.5], [1, 0.5], [0, 1]]
        with pytest.raises(DegenerateGeometryError):
            QuadGeometry(collapsed)
        quad = QuadGeometry(collapsed, allow_collapsed=True)
        assert quad.signed_area == pytest.approx(0.5)
        # a diagonal coincidence is a bowtie, never allowed
        with pytest.raises(DegenerateGeometryError):
            QuadGeometry([[0, 0], [1, 0], [0, 0], [0, 1]],
                         allow_collapsed=True)

    @pytest.mark.parametrize("scale, range_fault", [
        (1e160, True), (1e-170, True), (1e150, False), (1e-150, False)])
    def test_coordinates_beyond_squared_range_rejected(self, scale,
                                                       range_fault):
        # squared distances overflow above ~1e154 and vanish below ~1e-162;
        # that is an input range fault, not a coincidence, and no numpy
        # warning escapes (this suite turns warnings into errors)
        vertices = scale * np.array(SECTION_QUAD)
        if not range_fault:
            assert QuadGeometry(vertices).diameter == pytest.approx(
                scale * math.sqrt(89.0))
            return
        message = re.escape(f"span {8 * scale:.3e}, outside the range")
        with pytest.raises(DegenerateGeometryError, match=message):
            QuadGeometry(vertices)

    def test_centroid_and_diameter(self, section_quad):
        np.testing.assert_allclose(section_quad.centroid, [3.0, 2.0])
        assert section_quad.diameter == pytest.approx(np.sqrt(89.0))


class TestBilinearParams:
    def test_section_quad_constants(self, section_quad):
        # x1 = 3 + 3 t1 - t2 - t1 t2 ; x2 = 2 - 0.5 t1 + 2 t2 - 0.5 t1 t2
        params = build_scheme(section_quad, "bilinear").params
        np.testing.assert_allclose(params.coeffs[:, 0], [3.0, 3.0, -1.0, -1.0])
        np.testing.assert_allclose(params.coeffs[:, 1], [2.0, -0.5, 2.0, -0.5])

    def test_unit_square(self, unit_square):
        params = build_scheme(unit_square, "bilinear").params
        np.testing.assert_allclose(params.coeffs[:, 0], [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(params.coeffs[:, 1], [0.5, 0.0, 0.5, 0.0])

    def test_constant_row_is_vertex_centroid(self):
        for quad in convex_quads(20, seed=7):
            params = build_scheme(quad, "bilinear").params
            np.testing.assert_allclose(params.coeffs[0], quad.centroid,
                                       atol=1e-14)


class TestMapPoint:
    def test_section_quad_center(self, section_quad):
        scheme = build_scheme(section_quad, "bilinear")
        np.testing.assert_allclose(scheme.params.point((0.0, 0.0)), [3.0, 2.0])

    def test_section_quad_pole_image(self, section_quad):
        # x1 = 3 + 12 - 1 - 4 = 10 at theta = (4, 1), outside the square
        scheme = build_scheme(section_quad, "bilinear")
        np.testing.assert_allclose(scheme.params.point((4.0, 1.0)),
                                   [10.0, 0.0], atol=1e-12)

    def test_corners_map_to_vertices_all_schemes(self, section_quad):
        for kind in SCHEME_KINDS:
            scheme = build_scheme(section_quad, kind)
            for corner, vertex in zip(CORNER_NATURAL, section_quad.vertices):
                np.testing.assert_allclose(scheme.params.point(corner), vertex,
                                           atol=1e-10, err_msg=kind)


class TestJacobian:
    def test_section_quad_center(self, section_quad):
        # rows are [dx/dt1, dx/dt2] of the worked transformation
        scheme = build_scheme(section_quad, "bilinear")
        jac = scheme.params.gradient((0.0, 0.0))
        np.testing.assert_allclose(jac, [[3.0, -0.5], [-1.0, 2.0]])
        assert det2(jac) == pytest.approx(5.5)
        np.testing.assert_allclose(jac, fd_jacobian(scheme, (0.0, 0.0)),
                                   rtol=1e-7)

    def test_unit_square_affine(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        for theta in [(0.0, 0.0), (0.3, -0.7), (1.0, 1.0)]:
            jac = scheme.params.gradient(theta)
            np.testing.assert_allclose(jac, 0.5 * np.eye(2), atol=1e-15)
            assert det2(jac) == pytest.approx(0.25)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for quad in convex_quads(10, seed=99):
            scheme = build_scheme(quad, "bilinear")
            for _ in range(10):
                theta = rng.uniform(-0.95, 0.95, 2)
                jac = scheme.params.gradient(theta)
                fd = fd_jacobian(scheme, theta)
                assert np.abs(jac - fd).max() <= 1e-6 * max(
                    1.0, np.abs(jac).max())

    def test_contravariant_is_inverse(self, section_quad):
        scheme = build_scheme(section_quad, "pascal6")
        jac = scheme.params.gradient((0.2, -0.4))
        # g^a . g_b = delta
        prod = contravariant(jac) @ jac.T
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-13)


class TestSerendipity:
    def test_midpoint_node_value(self):
        values = _SERENDIPITY_SHAPES.evaluate((0.0, -1.0))
        expected = np.zeros(8)
        expected[4] = 1.0
        np.testing.assert_allclose(values, expected, atol=1e-15)

    def test_partition_of_unity_pointwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = rng.uniform(-1.5, 1.5, 2)
            assert _SERENDIPITY_SHAPES.evaluate(theta).sum() == \
                pytest.approx(1.0, abs=1e-12)

    def test_map_equals_bilinear_on_section_quad(self, section_quad):
        # quadratic and cubic terms cancel for straight edges and true
        # edge midpoints
        ser = build_scheme(section_quad, "serendipity8")
        bil = build_scheme(section_quad, "bilinear")
        for theta in [(-0.3, 0.8), (0.5, 0.5), (1.0, -1.0), (0.0, 0.0)]:
            np.testing.assert_allclose(
                ser.params.point(theta), bil.params.point(theta), atol=1e-12)
        # the extra monomial rows of the serendipity parameters vanish
        np.testing.assert_allclose(ser.params.coeffs[3], 0.0, atol=1e-12)
        np.testing.assert_allclose(ser.params.coeffs[5:], 0.0, atol=1e-12)


class TestPoles:
    def test_section_quad_poles(self, section_quad):
        poles = compute_poles_cartesian(section_quad)
        assert poles.parallel_flags == (False, False)
        np.testing.assert_allclose(poles.p5_xy, [10.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(poles.p6_xy, [0.0, 6.0], atol=1e-12)

    def test_parallelogram_has_both_flags(self, unit_square):
        poles = compute_poles_cartesian(unit_square)
        assert poles.parallel_flags == (True, True)
        assert poles.p5_xy is None and poles.p6_xy is None

    def test_trapezoid_against_linear_solve_oracle(self):
        v = np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [0.5, 1.0]])
        poles = compute_poles_cartesian(QuadGeometry(v))
        # horizontal edges (1)(2) and (3)(4) are parallel
        assert poles.parallel_flags == (True, False)
        # oracle: solve a + s u = c + t w for edges (2)(3) and (4)(1)
        u = v[2] - v[1]
        w = v[0] - v[3]
        st = np.linalg.solve(np.column_stack([u, -w]), v[3] - v[1])
        oracle = v[1] + st[0] * u
        np.testing.assert_allclose(poles.p6_xy, oracle, atol=1e-12)

    def test_newton_default_guess_round_trip(self, section_quad):
        bil = build_scheme(section_quad, "bilinear")
        for pole in ([10.0, 0.0], [0.0, 6.0]):
            theta = solve_pole_natural(section_quad, pole)
            np.testing.assert_allclose(bil.params.point(theta), pole,
                                       atol=1e-10)

    def test_newton_reaches_both_published_root_sets(self, section_quad):
        # both natural coordinate sets solve the pole equations; the root
        # reached depends on the starting point
        roots_p5 = [(4.0, 1.0), (1.5, -1.0)]
        roots_p6 = [(1.0, 3.0), (-1.0, 1.4)]
        for guess, root in zip(roots_p5, roots_p5):
            theta = solve_pole_natural(section_quad, [10.0, 0.0], guess)
            np.testing.assert_allclose(theta, root, atol=1e-9)
        for guess, root in zip(roots_p6, roots_p6):
            theta = solve_pole_natural(section_quad, [0.0, 6.0], guess)
            np.testing.assert_allclose(theta, root, atol=1e-9)

    def test_parallel_pole_rejected(self, unit_square):
        poles = compute_poles_cartesian(unit_square)
        with pytest.raises(ValidationError):
            solve_pole_natural(unit_square, poles.p5_xy)
        with pytest.raises(ValidationError, match="neither pole"):
            solve_pole_natural(QuadGeometry(SECTION_QUAD), [10.0, 1e-6])

    @pytest.mark.parametrize("guess", [(-1e300, 1e300), (1e300, 1e300),
                                       (math.inf, 0.0)])
    def test_guess_beyond_float_range_is_nonconvergence(self, section_quad,
                                                        guess):
        # the squared distances to the roots overflow or are not finite
        # (warnings are errors in this suite): invalid input
        with pytest.raises(ValidationError, match="pole guess"):
            solve_pole_natural(section_quad, [10.0, 0.0], guess)

    def test_roots_match_exact_arithmetic(self, section_quad):
        # oracle: the edge-line parameters t and s solved in rationals
        # from the float vertices; the seed-2532 quad has p6 about 1.3e5
        # diameters away
        far = QuadGeometry(load_case("random-quad", seed=2532)
                           .geometry["quad"]["vertices"])
        quads = [section_quad, far] + convex_quads(60, seed=17)
        checked = 0
        for quad in quads:
            v = [[Fraction(c) for c in row] for row in quad.vertices.tolist()]
            poles = compute_poles_cartesian(quad)
            for pole, (a, b, c, d) in zip((poles.p5_xy, poles.p6_xy),
                                          ((0, 1, 2, 3), (1, 2, 3, 0))):
                if pole is None:
                    continue
                u = [v[b][k] - v[a][k] for k in range(2)]
                w = [v[d][k] - v[c][k] for k in range(2)]
                r = [v[c][k] - v[a][k] for k in range(2)]
                cross = u[0] * w[1] - u[1] * w[0]
                t = (r[0] * w[1] - r[1] * w[0]) / cross
                s = (r[0] * u[1] - r[1] * u[0]) / cross
                roots = ([(2 * t - 1, -1), (1 - 2 * s, 1)] if a == 0 else
                         [(1, 2 * t - 1), (-1, 1 - 2 * s)])
                for root in roots:
                    guess = [float(x) for x in root]
                    got = solve_pole_natural(quad, pole, guess)
                    error = max(abs(Fraction(float(g)) - x)
                                for g, x in zip(got, root))
                    assert error <= 1e-12 * max(map(abs, root)), (quad, root)
                    checked += 1
        assert checked >= 4 * 50


def other_root_params(quad, guesses):
    """pascal6 parameters of the quad built from the pole roots nearest
    ``guesses`` (one natural point per pole)."""
    poles = compute_poles_cartesian(quad)
    p5_nat, p6_nat = (solve_pole_natural(quad, xy, guess) for xy, guess
                      in zip((poles.p5_xy, poles.p6_xy), guesses))
    _, params, _ = pascal_shape_set(
        quad, dataclasses.replace(poles, p5_nat=p5_nat, p6_nat=p6_nat))
    return params


class TestPascalScheme:
    def test_interpolation_matrix_rows(self):
        # the interpolation matrix is the complete quadratic basis at the
        # corners and the poles
        nodes = np.vstack([CORNER_NATURAL, (4.0, 1.0), (1.0, 3.0)])
        a = monomial_values(PASCAL_MONOMIALS, nodes)
        assert a.shape == (6, 6)
        np.testing.assert_allclose(a[0], [1, -1, -1, 1, 1, 1])
        np.testing.assert_allclose(a[2], np.ones(6))
        np.testing.assert_allclose(a[4], [1, 4, 1, 16, 4, 1])

    @pytest.mark.parametrize("pole_set", [
        ((4.0, 1.0), (1.0, 3.0)),
        ((1.5, -1.0), (-1.0, 1.4)),
    ])
    def test_both_pole_sets_give_same_transformation(self, section_quad,
                                                     pole_set):
        params = other_root_params(section_quad, pole_set)
        np.testing.assert_allclose(
            params.coeffs[:, 0], [3.0, 3.0, -1.0, 0.0, -1.0, 0.0],
            atol=1e-9)
        np.testing.assert_allclose(
            params.coeffs[:, 1], [2.0, -0.5, 2.0, 0.0, -0.5, 0.0],
            atol=1e-9)

    def test_kronecker_delta_at_all_six_nodes(self, section_quad):
        scheme = build_scheme(section_quad, "pascal6")
        nodes = scheme.shapes.nodes
        values = np.vstack([scheme.shapes.evaluate(row) for row in nodes])
        np.testing.assert_allclose(values, np.eye(6), atol=1e-12)

    def test_stable_rows_independent_of_pole_set(self, section_quad):
        # t1, t2 and t1*t2 coefficient rows do not depend on which pole
        # roots were used
        first = other_root_params(section_quad, ((4.0, 1.0), (1.0, 3.0)))
        second = other_root_params(section_quad, ((1.5, -1.0), (-1.0, 1.4)))
        for row in (1, 2, 4):
            np.testing.assert_allclose(first.coeffs[row],
                                       second.coeffs[row], atol=1e-10)

    def test_degenerate_pole_configuration_rejected(self, section_quad):
        poles = PoleSet(
            p5_xy=np.array([10.0, 0.0]),
            p6_xy=np.array([0.0, 6.0]),
            p5_nat=np.array([4.0, 1.0]),
            p6_nat=np.array([4.0, 1.0 + 1e-11]),
            parallel_flags=(False, False),
        )
        with pytest.raises(NumericalError):
            pascal_shape_set(section_quad, poles)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11])
    def test_near_parallel_edges_fall_back_to_bilinear(self, eps):
        # edge (3)(4) is eps off parallel to edge (1)(2): p5 is finite but
        # so far out that the interpolation matrix is rejected
        quad = QuadGeometry([[0, 0], [2, 0], [1.5, 1], [0.5, 1 + eps]])
        poles = compute_poles_cartesian(quad)
        assert poles.parallel_flags == (False, False)
        with pytest.raises(NumericalError, match="degenerate pole"):
            pascal_shape_set(quad, poles)
        with pytest.warns(UserWarning, match="falls back") as record:
            scheme = build_scheme(quad, "pascal6")
        assert record[0].filename == __file__
        assert scheme.fallback and scheme.kind == "pascal6"
        bil = build_scheme(quad, "bilinear")
        grid = np.array([(0.1, 0.9), (-1.0, 0.3), (1.0, 1.0)])
        np.testing.assert_allclose(scheme.params.point(grid),
                                   bil.params.point(grid), atol=1e-14)

    def test_pole_on_vertex_warning_names_the_vertex(self):
        # the edges at vertex 2 are collinear: p5 = (2, 0) and p6 = (0, 0)
        # lie on vertices 3 and 1, and no edge pair is parallel
        quad = QuadGeometry([[0, 0], [1, 0], [2, 0], [1, 1]])
        poles = compute_poles_cartesian(quad)
        assert poles.parallel_flags == (False, False)
        np.testing.assert_array_equal(poles.p5_xy, [2.0, 0.0])
        np.testing.assert_array_equal(poles.p6_xy, [0.0, 0.0])
        message = ("collinear adjacent edges (pole p5 on vertex 3): pascal6 "
                   "falls back to the bilinear transformation")
        with pytest.warns(UserWarning) as record:
            scheme = build_scheme(quad, "pascal6")
        assert [str(w.message) for w in record] == [message]
        assert record[0].filename == __file__
        assert scheme.fallback

    def test_parallelogram_falls_back_to_bilinear(self, unit_square):
        with pytest.warns(UserWarning, match="falls back"):
            scheme = build_scheme(unit_square, "pascal6")
        assert scheme.fallback
        assert scheme.kind == "pascal6"
        bil = build_scheme(unit_square, "bilinear")
        for theta in [(0.1, 0.9), (-1.0, 0.3)]:
            np.testing.assert_allclose(scheme.params.point(theta),
                                       bil.params.point(theta), atol=1e-14)


class TestOnePolePath:
    """pascal6 takes its poles from ``compute_poles_cartesian``, once."""

    def quads(self, section_quad):
        far = QuadGeometry(load_case("random-quad", seed=2532)
                           .geometry["quad"]["vertices"])
        return [section_quad, far] + convex_quads(60, seed=17)

    def test_scheme_poles_are_the_computed_poles(self, section_quad):
        for quad in self.quads(section_quad):
            built = build_scheme(quad, "pascal6").poles
            computed = compute_poles_cartesian(quad)
            assert built.parallel_flags == computed.parallel_flags
            for name in ("p5_xy", "p6_xy", "p5_nat", "p6_nat"):
                got, want = getattr(built, name), getattr(computed, name)
                assert (got is None) == (want is None), (quad, name)
                if want is not None:
                    assert got.dtype == want.dtype == float
                    assert got.tobytes() == want.tobytes(), (quad, name)

    def test_one_pole_computation_per_pascal6_build(self, section_quad,
                                                    monkeypatch):
        calls = []
        original = quadplate.mapping.compute_poles_cartesian
        monkeypatch.setattr(quadplate.mapping, "compute_poles_cartesian",
                            lambda quad: calls.append(quad) or original(quad))
        quads = self.quads(section_quad)
        for quad in quads:
            for kind in SCHEME_KINDS:
                build_scheme(quad, kind)
        assert calls == quads
        with pytest.warns(UserWarning, match="falls back"):
            build_scheme(QuadGeometry([[0, 0], [2, 0], [3, 1], [1, 1]]),
                         "pascal6")
        assert len(calls) == len(quads) + 1


class TestSchemeInvariants:
    def test_partition_of_unity_at_coefficient_level(self, section_quad):
        for kind in SCHEME_KINDS:
            coeffs = build_scheme(section_quad, kind).shapes.coeffs
            sums = coeffs.sum(axis=0)
            assert abs(sums[0] - 1.0) <= 1e-12, kind
            np.testing.assert_allclose(sums[1:], 0.0, atol=1e-12,
                                       err_msg=kind)

    def test_kronecker_delta_every_scheme(self, section_quad):
        for kind in SCHEME_KINDS:
            shapes = build_scheme(section_quad, kind).shapes
            values = np.vstack([shapes.evaluate(r) for r in shapes.nodes])
            np.testing.assert_allclose(values, np.eye(len(shapes.coeffs)),
                                       atol=1e-12, err_msg=kind)

    @pytest.mark.parametrize("kind,count", [
        ("bilinear", 4), ("serendipity8", 8), ("pascal6", 6)])
    def test_nodes_are_a_read_only_array(self, section_quad, kind, count):
        nodes = build_scheme(section_quad, kind).shapes.nodes
        assert nodes.shape == (count, 2)
        np.testing.assert_array_equal(nodes[:4], CORNER_NATURAL)
        with pytest.raises(ValueError, match="read-only"):
            nodes[0, 0] = 0.0

    def test_scheme_equivalence_on_random_quads(self):
        grid = np.linspace(-1.0, 1.0, 9)
        for quad in convex_quads(30, seed=51):
            bil = build_scheme(quad, "bilinear")
            others = [build_scheme(quad, k) for k in
                      ("serendipity8", "pascal6")]
            for t1 in grid:
                for t2 in grid:
                    ref = bil.params.point((t1, t2))
                    for scheme in others:
                        dev = np.linalg.norm(
                            scheme.params.point((t1, t2)) - ref)
                        assert dev <= 1e-9 * quad.diameter

    def test_pole_round_trip_on_random_quads(self):
        for quad in convex_quads(20, seed=77):
            scheme = build_scheme(quad, "pascal6")
            if scheme.fallback:
                continue
            bil = build_scheme(quad, "bilinear")
            for nat, xy in ((scheme.poles.p5_nat, scheme.poles.p5_xy),
                            (scheme.poles.p6_nat, scheme.poles.p6_xy)):
                residual = np.linalg.norm(bil.params.point(nat) - xy)
                assert residual <= 1e-9 * quad.diameter

    def test_center_criterion(self):
        for quad in convex_quads(10, seed=5):
            for kind in SCHEME_KINDS:
                scheme = build_scheme(quad, kind)
                np.testing.assert_allclose(
                    scheme.params.point((0.0, 0.0)), quad.centroid, atol=1e-12)


class TestArrayEvaluation:
    """Calls on a point stack equal the stacked one-point results bit for
    bit, and a one-point call equals the scalar formula it replaced."""

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_point_stack_matches_one_point_calls(self, kind):
        rng = np.random.default_rng(5)
        for quad in convex_quads(20, seed=21):
            scheme = build_scheme(quad, kind)
            exponents, coeffs = scheme.params.exponents, scheme.params.coeffs
            shapes = scheme.shapes
            points = rng.uniform(-1.5, 1.5, (7, 2))
            cases = [
                (lambda t: monomial_values(exponents, t), (len(exponents),),
                 lambda t: np.array([t[0] ** e1 * t[1] ** e2
                                     for e1, e2 in exponents])),
                (lambda t: monomial_gradients(exponents, t),
                 (len(exponents), 2),
                 lambda t: np.array([
                     [0.0 if e1 == 0 else e1 * t[0] ** (e1 - 1) * t[1] ** e2,
                      0.0 if e2 == 0 else e2 * t[0] ** e1 * t[1] ** (e2 - 1)]
                     for e1, e2 in exponents])),
                (lambda t: scheme.params.point(t), (2,),
                 lambda t: monomial_values(exponents, t) @ coeffs),
                (scheme.params.gradient, (2, 2),
                 lambda t: monomial_gradients(exponents, t).T @ coeffs),
                (shapes.evaluate, (len(shapes.coeffs),),
                 lambda t: shapes.coeffs
                 @ monomial_values(shapes.exponents, t)),
            ]
            for func, shape, scalar in cases:
                one = [func(tuple(map(float, p))) for p in points]
                assert one[0].shape == shape
                assert np.array_equal(func(points), np.stack(one))
                assert all(np.array_equal(value, scalar(tuple(map(float, p))))
                           for value, p in zip(one, points))

    def test_area_and_distances_match_one_polygon_calls(self):
        stack = np.stack([quad.vertices
                          for quad in convex_quads(20, seed=21)])
        areas = twice_signed_area(stack)
        distances = pair_distances(stack)
        assert areas.shape == (20,) and distances.shape == (20, 6)
        for v, area, dist in zip(stack, areas, distances):
            x, y = v[:, 0], v[:, 1]
            assert area == twice_signed_area(v) == float(
                np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
            assert np.array_equal(dist, pair_distances(v))
            assert dist.tolist() == [float(np.linalg.norm(v[p] - v[q]))
                                     for p in range(4)
                                     for q in range(p + 1, 4)]


def _seeded_polygons(k, count=60, seed=26):
    """Random k-gons (count, k, 2) over six decades of size, every fourth
    quad with one edge collapsed (a triangle tip) at a varying corner."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, k, 2)) \
        * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1, 1))
    if k == 4:
        for i in range(0, count, 4):
            corner = i // 4 % 4
            v[i, (corner + 1) % 4] = v[i, corner]
    return v


class TestIndexShiftsAndNorms:
    """The helpers that shift by the fixed next-vertex index and compute
    norms from the dot product give the bits of the ``np.roll`` and
    ``np.linalg.norm`` formulas they replaced."""

    @staticmethod
    def rolled_area(v):
        x, y = v[..., 0], v[..., 1]
        return np.sum(x * np.roll(y, -1, axis=-1)
                      - np.roll(x, -1, axis=-1) * y, axis=-1)

    @pytest.mark.parametrize("k", [3, 4])
    def test_twice_signed_area_matches_roll(self, k):
        polygons = _seeded_polygons(k)
        want = self.rolled_area(polygons)
        assert twice_signed_area(polygons).tobytes() == want.tobytes()
        for v, area in zip(polygons, want):
            assert twice_signed_area(v).tobytes() == area.tobytes()

    @pytest.mark.parametrize("k", [3, 4])
    def test_polygon_section_properties_match_roll(self, k):
        for v in _seeded_polygons(k):
            x, y = v[:, 0], v[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            want = [
                0.5 * float(np.sum(cross)),
                float(np.sum(cross * (y * y + y * yn + yn * yn))) / 12.0,
                float(np.sum(cross * (x * x + x * xn + xn * xn))) / 12.0,
                float(np.sum(cross * (x * yn + 2.0 * x * y + 2.0 * xn * yn
                                      + xn * y))) / 24.0]
            got = dataclasses.astuple(polygon_section_properties(v))
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_corner_jacobians_match_roll_tip_rule(self):
        # each quad alone, so every one reaches the accept/reject decision
        polygons = _seeded_polygons(4, count=200)
        outcomes = {"accepted": 0, "tip": 0, "rejected": 0}
        for v in polygons:
            coeffs = bilinear_coefficients(v)[None]
            diam = pair_distances(v[None]).max(axis=1)
            tol = 1e-12 * diam * diam
            _, cdet = bilinear_jacobians(coeffs, CORNER_NATURAL)
            flat = np.abs(cdet) <= tol[:, None]
            tip = (np.count_nonzero(flat, axis=1) == 2) \
                & (flat & np.roll(flat, 1, axis=1)).any(axis=1)
            bad = (cdet <= tol[:, None]) & ~(flat & tip[:, None])
            if bad.any():
                outcomes["rejected"] += 1
                with pytest.raises((NumericalError, DegenerateGeometryError)):
                    corner_jacobians(coeffs, diam)
            else:
                outcomes["tip" if tip[0] else "accepted"] += 1
                _, got = corner_jacobians(coeffs, diam)
                assert np.array_equal(got, flat)
        assert min(outcomes.values()) >= 10, outcomes

    def test_poles_match_numpy_forms(self):
        # the pole point in Python floats and both poles' roots from one
        # distance call give the bits of the array forms they replaced;
        # t and s are the exact line parameters, correctly rounded
        quads = convex_quads(100, seed=30) + [
            QuadGeometry([[0, 0], [2, 0], [1.5, 1], [0.5, 1 + eps]])
            for eps in (1e-3, 1e-6, 1e-9, 1e-12)]
        for quad in quads:
            v = quad.vertices
            lines = quadplate.mapping._pole_lines(quad)
            for pole, (a, b, c, d) in enumerate(((v[0], v[1], v[2], v[3]),
                                                 (v[1], v[2], v[3], v[0]))):
                (ax, ay), (bx, by), (cx, cy), (dx, dy) = (
                    map(Fraction, p.tolist()) for p in (a, b, c, d))
                cross = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
                t = float(((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx))
                          / cross)
                s = float(((cx - ax) * (by - ay) - (cy - ay) * (bx - ax))
                          / cross)
                point, roots = lines[pole]
                assert point.tobytes() == (a + t * (b - a)).tobytes()
                want = ([[2.0 * t - 1.0, -1.0], [1.0 - 2.0 * s, 1.0]]
                        if pole == 0 else
                        [[1.0, 2.0 * t - 1.0], [-1.0, 1.0 - 2.0 * s]])
                assert roots.tobytes() == np.array(want).tobytes()
            poles = compute_poles_cartesian(quad)
            lines = quadplate.mapping._pole_lines(quad)
            for nat, (_, roots) in zip((poles.p5_nat, poles.p6_nat), lines):
                nearest = np.argmin([np.linalg.norm(r) for r in roots])
                assert nat.tobytes() == roots[nearest].tobytes()

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9,
                                     1e-10, 1e-11, 1e-12, 1e-13])
    def test_near_parallel_trapezoid_falls_back_as_before(self, eps):
        # edge (3)(4) is eps off parallel to edge (1)(2); from 1e-6 on the
        # interpolation matrix is rejected, from 1e-13 on p5 is parallel
        quad = QuadGeometry([[0, 0], [2, 0], [1.5, 1], [0.5, 1 + eps]])
        v = quad.vertices
        lines = quadplate.mapping._pole_lines(quad)
        for line, (a, b, c, d) in zip(lines, ((v[0], v[1], v[2], v[3]),
                                              (v[1], v[2], v[3], v[0]))):
            u, w = b - a, d - c
            parallel = abs(det2(np.array([u, w]))) \
                <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(w)
            assert (line is None) == parallel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scheme = build_scheme(quad, "pascal6")
        assert scheme.poles.parallel_flags == (eps <= 1e-13, False)
        assert scheme.fallback == (eps <= 1e-6)
        if not scheme.fallback:
            assert scheme.cond_a == self.norm_condition(scheme)

    @staticmethod
    def norm_condition(scheme) -> float:
        a_mat = monomial_values(PASCAL_MONOMIALS, scheme.shapes.nodes)
        return float(np.linalg.norm(a_mat, 1)
                     * np.linalg.norm(np.linalg.inv(a_mat), 1))

    def test_condition_estimate_matches_matrix_norms(self):
        quads = convex_quads(40, seed=26) + [QuadGeometry(SECTION_QUAD)]
        for quad in quads:
            scheme = build_scheme(quad, "pascal6")
            if not scheme.fallback:
                assert scheme.cond_a == self.norm_condition(scheme)


class TestCornerJacobians:
    """``corner_jacobians`` returns early when every corner det J clears
    its tolerance; it agrees with the full mask rule
    (``corner_jacobians_by_mask``) on every input."""

    @staticmethod
    def assert_corners_match_mask_rule(v):
        """``corner_jacobians`` of the quads ``v`` (m, 4, 2) gives the
        oracle's Jacobian bits and flat mask, or its error and message."""
        coeffs = bilinear_coefficients(v)
        diam = pair_distances(v).max(axis=1)
        try:
            want = corner_jacobians_by_mask(coeffs, diam)
        except (NumericalError, DegenerateGeometryError) as exc:
            with pytest.raises(type(exc)) as got:
                corner_jacobians(coeffs, diam)
            assert str(got.value) == str(exc)
            return None
        cjac, flat = corner_jacobians(coeffs, diam)
        assert cjac.tobytes() == want[0].tobytes()
        assert cjac.shape == want[0].shape
        assert flat.dtype == bool and np.array_equal(flat, want[1])
        return flat

    @pytest.mark.parametrize("name", [
        name for name in quadplate.cases.builtin_case_names()
        if name in quadplate.cases._PLATES])
    def test_corner_jacobians_match_mask_rule_on_builtin_meshes(self, name):
        meshes = case_meshes(load_case(name))
        tips = 0
        for _, mesh in meshes:
            flat = self.assert_corners_match_mask_rule(
                mesh.nodes[mesh.elements])
            tips += int(flat.any())
        # the triangle meshes reach the masks through their tip elements
        assert tips == (len(meshes) if "isosceles" in name
                        or "equilateral" in name else 0)

    def test_corner_jacobians_match_mask_rule_on_random_quads(self):
        rng = np.random.default_rng(30)
        for count in (1, 2, 7, 64):
            v = np.stack([quadplate.mapping.random_convex_quad(
                rng, center=rng.uniform(-5.0, 5.0, 2),
                scale=10.0 ** rng.uniform(-2.0, 2.0)).vertices
                for _ in range(count)])
            assert not self.assert_corners_match_mask_rule(v).any()

    @pytest.mark.parametrize("fault,error", [
        ("folded", NumericalError), ("flat", DegenerateGeometryError)])
    def test_corner_jacobians_errors_match_mask_rule(self, fault, error):
        good = np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.5], [0.0, 1.0]])
        bad = good.copy()
        if fault == "folded":
            bad[2] = [-1.0, 3.0]  # det J < 0 at the third corner
        else:
            bad[1] = [1.25, 0.75]  # second corner on its neighbours' line
        for v in (bad[None], np.stack([good, bad, bad])):
            with pytest.raises(error, match=f"element {len(v) // 2}"):
                corner_jacobians(bilinear_coefficients(v),
                                 pair_distances(v).max(axis=1))
            self.assert_corners_match_mask_rule(v)


# The evaluators as they were built from ``np.stack``: the oracle that the
# preallocated versions must match bit for bit.

def _stacked_values(exponents, theta):
    t = np.asarray(theta, dtype=float)
    return np.stack([t[..., 0] ** e1 * t[..., 1] ** e2
                     for e1, e2 in exponents], axis=-1)


def _stacked_gradients(exponents, theta):
    t = np.asarray(theta, dtype=float)
    t1, t2 = t[..., 0], t[..., 1]
    zero = np.zeros_like(t1)
    return np.stack([
        np.stack([zero if e1 == 0 else e1 * t1 ** (e1 - 1) * t2 ** e2,
                  zero if e2 == 0 else e2 * t1 ** e1 * t2 ** (e2 - 1)],
                 axis=-1)
        for e1, e2 in exponents], axis=-2)


class TestPreallocatedEvaluators:
    """The filled evaluators equal the stacked ones bit for bit."""

    @pytest.mark.parametrize("exponents", [
        BILINEAR_MONOMIALS, PASCAL_MONOMIALS, SERENDIPITY_MONOMIALS])
    @pytest.mark.parametrize("shape", [(2,), (9, 2), (3, 5, 2)])
    def test_monomials_match_stacked(self, exponents, shape):
        rng = np.random.default_rng(len(exponents) * 10 + len(shape))
        theta = rng.uniform(-6.0, 6.0, shape)
        theta.flat[0] = 0.0
        for new, old in ((monomial_values, _stacked_values),
                         (monomial_gradients, _stacked_gradients)):
            got, want = new(exponents, theta), old(exponents, theta)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(new(exponents, theta.tolist()), want)


def _fixed_sets():
    """Every point set the package declares fixed, by name."""
    sets = {
        "CORNER_NATURAL": CORNER_NATURAL,
        "serendipity nodes": quadplate.mapping._SERENDIPITY_SHAPES.nodes,
        "mapcheck grid": quadplate.cases._MAPCHECK_GRID,
        "mode-shape samples": quadplate.modal._SAMPLE_POINTS,
        "quadrant centers": quadplate.plate_element.QUADRANT_CENTERS,
    }
    sets.update({f"gauss {order}": gauss_rule(order).tensor_points
                 for order in range(1, 7)})
    return sets


def _table_count():
    return sum(len(tables)
               for _, tables in quadplate.mapping._FIXED_TABLES.values())


class TestFixedPointTables:
    """The monomial tables of the declared constant point sets are
    computed once, equal a fresh computation bit for bit, and never
    extend to input-dependent points."""

    def test_registry_holds_exactly_the_declared_sets(self):
        registered = [t for t, _ in quadplate.mapping._FIXED_TABLES.values()]
        assert quadplate.mapping._BILINEAR_SHAPES.nodes is CORNER_NATURAL
        declared = list(_fixed_sets().values())
        assert len(registered) == len(declared)
        assert all(any(t is d for d in declared) for t in registered)
        assert not any(t.flags.writeable for t in registered)

    @pytest.mark.parametrize("name", list(_fixed_sets()))
    @pytest.mark.parametrize("exponents", [
        BILINEAR_MONOMIALS, PASCAL_MONOMIALS, SERENDIPITY_MONOMIALS])
    def test_table_is_the_fresh_computation(self, name, exponents):
        points = _fixed_sets()[name]
        for evaluate in (monomial_values, monomial_gradients):
            table = evaluate(exponents, points)
            fresh = evaluate(exponents, np.array(points))
            assert fresh.flags.writeable and not table.flags.writeable
            assert table.shape == fresh.shape
            assert np.array_equal(table.view(np.uint64),
                                  fresh.view(np.uint64))
            assert evaluate(exponents, points) is table
            assert evaluate(list(map(list, exponents)), points) is table

    @pytest.mark.parametrize("exponents", [
        BILINEAR_MONOMIALS, PASCAL_MONOMIALS, SERENDIPITY_MONOMIALS])
    def test_tables_are_c_contiguous_float64(self, exponents):
        # the same values in another memory order send the ``@`` of
        # ``GeneralizedParams.point`` down another BLAS path, whose
        # products differ in the last bits
        rng = np.random.default_rng(len(exponents))
        free = [rng.uniform(-2.0, 2.0, shape)
                for shape in [(2,), (6, 2), (81, 2), (3, 5, 2)]]
        free += [np.asfortranarray(free[1]), free[2][::-1],
                 rng.uniform(-2.0, 2.0, (2, 9)).T, free[1].tolist(),
                 build_scheme(QuadGeometry(SECTION_QUAD), "pascal6")
                 .shapes.nodes]
        for points in [*_fixed_sets().values(), *free]:
            for evaluate in (monomial_values, monomial_gradients):
                table = evaluate(exponents, points)
                assert table.dtype == np.float64
                assert table.flags.c_contiguous

    def test_size_fixed_after_warm_up(self):
        def single_quads(seeds):
            for seed in seeds:
                case = load_case("random-quad", seed=seed)
                run_sectprops(case)
                run_mapcheck(case)

        modal_case = load_case("cantilever-isosceles",
                               overrides={"mode_shapes": True})
        single_quads([0])
        run_modal(modal_case)
        sets, tables = len(quadplate.mapping._FIXED_TABLES), _table_count()
        single_quads(range(1, 51))
        run_modal(modal_case)
        assert len(quadplate.mapping._FIXED_TABLES) == sets
        assert _table_count() == tables

    def test_built_rules_stay_out_of_the_registry(self):
        # only the rules gauss_rule serves are declared; a rule built by a
        # caller has read-only points of the same values, untabulated
        shared = [gauss_rule(order) for order in range(1, 7)]
        for rule in shared:
            monomial_values(PASCAL_MONOMIALS, rule.tensor_points)
        sets, tables = len(quadplate.mapping._FIXED_TABLES), _table_count()
        for rule in shared:
            points = GaussRule(rule.order, rule.nodes.copy(),
                               rule.weights.copy()).tensor_points
            assert not points.flags.writeable
            assert points.flags.c_contiguous and points.dtype == float
            assert np.array_equal(points.view(np.uint64),
                                  rule.tensor_points.view(np.uint64))
            assert monomial_values(PASCAL_MONOMIALS, points).flags.writeable
            assert monomial_values(PASCAL_MONOMIALS, rule.tensor_points) \
                is monomial_values(PASCAL_MONOMIALS, rule.tensor_points)
        assert len(quadplate.mapping._FIXED_TABLES) == sets
        assert _table_count() == tables

    def test_undeclared_read_only_points_not_tabulated(self):
        nodes = build_scheme(QuadGeometry(SECTION_QUAD), "pascal6") \
            .shapes.nodes
        assert not nodes.flags.writeable
        sets, tables = len(quadplate.mapping._FIXED_TABLES), _table_count()
        for evaluate in (monomial_values, monomial_gradients):
            first = evaluate(PASCAL_MONOMIALS, nodes)
            assert first.flags.writeable
            assert evaluate(PASCAL_MONOMIALS, nodes) is not first
        assert len(quadplate.mapping._FIXED_TABLES) == sets
        assert _table_count() == tables
