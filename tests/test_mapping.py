import math
import re

import numpy as np
import pytest

from quadplate import (
    DegenerateGeometryError,
    NaturalNodeTable,
    NumericalError,
    PoleSet,
    QuadGeometry,
    ValidationError,
    bilinear_params,
    build_scheme,
    compute_poles_cartesian,
    jacobian,
    map_point,
    pascal_interpolation_matrix,
    pascal_shape_set,
    serendipity_shapes,
    solve_pole_natural,
)
from quadplate.errors import NonconvergenceError
from quadplate.mapping import (
    BILINEAR_MONOMIALS,
    CORNER_NATURAL,
    PASCAL_MONOMIALS,
    SCHEME_KINDS,
    SERENDIPITY_MONOMIALS,
    _NEWTON_PERTURBATIONS,
    default_pole_guess,
    det2,
    monomial_gradients,
    monomial_values,
    pair_distances,
    twice_signed_area,
)

from conftest import SECTION_QUAD, convex_quads, fd_jacobian


class TestQuadGeometry:
    def test_clockwise_input_reordered_with_warning(self):
        with pytest.warns(UserWarning, match="clockwise"):
            quad = QuadGeometry([[0, 0], [0, 5], [4, 3], [8, 0]])
        assert quad.signed_area > 0
        np.testing.assert_allclose(quad.vertices[0], [0, 0])
        assert quad.signed_area == pytest.approx(22.0)

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
        params = bilinear_params(section_quad)
        np.testing.assert_allclose(params.coeffs[:, 0], [3.0, 3.0, -1.0, -1.0])
        np.testing.assert_allclose(params.coeffs[:, 1], [2.0, -0.5, 2.0, -0.5])

    def test_unit_square(self, unit_square):
        params = bilinear_params(unit_square)
        np.testing.assert_allclose(params.coeffs[:, 0], [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(params.coeffs[:, 1], [0.5, 0.0, 0.5, 0.0])

    def test_constant_row_is_vertex_centroid(self):
        for quad in convex_quads(20, seed=7):
            params = bilinear_params(quad)
            np.testing.assert_allclose(params.coeffs[0], quad.centroid,
                                       atol=1e-14)


class TestMapPoint:
    def test_section_quad_center(self, section_quad):
        scheme = build_scheme(section_quad, "bilinear")
        np.testing.assert_allclose(map_point(scheme, (0.0, 0.0)), [3.0, 2.0])

    def test_section_quad_pole_image(self, section_quad):
        # x1 = 3 + 12 - 1 - 4 = 10 at theta = (4, 1), outside the square
        scheme = build_scheme(section_quad, "bilinear")
        np.testing.assert_allclose(map_point(scheme, (4.0, 1.0)), [10.0, 0.0],
                                   atol=1e-12)

    def test_corners_map_to_vertices_all_schemes(self, section_quad):
        for kind in SCHEME_KINDS:
            scheme = build_scheme(section_quad, kind)
            for corner, vertex in zip(CORNER_NATURAL, section_quad.vertices):
                np.testing.assert_allclose(map_point(scheme, corner), vertex,
                                           atol=1e-10, err_msg=kind)


class TestJacobian:
    def test_section_quad_center(self, section_quad):
        # rows are [dx/dt1, dx/dt2] of the worked transformation
        scheme = build_scheme(section_quad, "bilinear")
        jac = jacobian(scheme, (0.0, 0.0))
        np.testing.assert_allclose(jac.matrix, [[3.0, -0.5], [-1.0, 2.0]])
        assert jac.det == pytest.approx(5.5)
        np.testing.assert_allclose(jac.matrix, fd_jacobian(scheme, (0.0, 0.0)),
                                   rtol=1e-7)

    def test_unit_square_affine(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        for theta in [(0.0, 0.0), (0.3, -0.7), (1.0, 1.0)]:
            jac = jacobian(scheme, theta)
            np.testing.assert_allclose(jac.matrix, 0.5 * np.eye(2), atol=1e-15)
            assert jac.det == pytest.approx(0.25)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for quad in convex_quads(10, seed=99):
            scheme = build_scheme(quad, "bilinear")
            for _ in range(10):
                theta = rng.uniform(-0.95, 0.95, 2)
                jac = jacobian(scheme, theta)
                fd = fd_jacobian(scheme, theta)
                assert np.abs(jac.matrix - fd).max() <= 1e-6 * max(
                    1.0, np.abs(jac.matrix).max())

    def test_singular_jacobian_raises(self, section_quad):
        # det = 5.5 - 2 t1 - 2.5 t2 vanishes on a line outside the square
        scheme = build_scheme(section_quad, "bilinear")
        with pytest.raises(NumericalError):
            jacobian(scheme, (2.75, 0.0))

    def test_singular_jacobian_message_prints_plain_floats(self, section_quad):
        scheme = build_scheme(section_quad, "bilinear")
        with pytest.raises(NumericalError) as exc:
            jacobian(scheme, np.array([2.75, 0.0]))
        assert "singular Jacobian at theta=(2.75, 0.0): det=" in str(exc.value)

    def test_contravariant_is_inverse(self, section_quad):
        scheme = build_scheme(section_quad, "pascal6")
        jac = jacobian(scheme, (0.2, -0.4))
        # g^a . g_b = delta
        prod = jac.contravariant @ jac.matrix.T
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-13)


class TestSerendipity:
    def test_midpoint_node_value(self):
        values = serendipity_shapes((0.0, -1.0))
        expected = np.zeros(8)
        expected[4] = 1.0
        np.testing.assert_allclose(values, expected, atol=1e-15)

    def test_partition_of_unity_pointwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = rng.uniform(-1.5, 1.5, 2)
            assert serendipity_shapes(theta).sum() == pytest.approx(1.0,
                                                                    abs=1e-12)

    def test_map_equals_bilinear_on_section_quad(self, section_quad):
        # quadratic and cubic terms cancel for straight edges and true
        # edge midpoints
        ser = build_scheme(section_quad, "serendipity8")
        bil = build_scheme(section_quad, "bilinear")
        for theta in [(-0.3, 0.8), (0.5, 0.5), (1.0, -1.0), (0.0, 0.0)]:
            np.testing.assert_allclose(
                map_point(ser, theta), map_point(bil, theta), atol=1e-12)
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
            np.testing.assert_allclose(map_point(bil, theta), pole,
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


class TestPascalScheme:
    def test_interpolation_matrix_rows(self):
        nodes = NaturalNodeTable.with_poles((4.0, 1.0), (1.0, 3.0))
        a = pascal_interpolation_matrix(nodes)
        np.testing.assert_allclose(a[0], [1, -1, -1, 1, 1, 1])
        np.testing.assert_allclose(a[2], np.ones(6))
        np.testing.assert_allclose(a[4], [1, 4, 1, 16, 4, 1])

    @pytest.mark.parametrize("pole_set", [
        ((4.0, 1.0), (1.0, 3.0)),
        ((1.5, -1.0), (-1.0, 1.4)),
    ])
    def test_both_pole_sets_give_same_transformation(self, section_quad,
                                                     pole_set):
        scheme = build_scheme(section_quad, "pascal6", pole_guesses=pole_set)
        np.testing.assert_allclose(
            scheme.params.coeffs[:, 0], [3.0, 3.0, -1.0, 0.0, -1.0, 0.0],
            atol=1e-9)
        np.testing.assert_allclose(
            scheme.params.coeffs[:, 1], [2.0, -0.5, 2.0, 0.0, -0.5, 0.0],
            atol=1e-9)

    def test_kronecker_delta_at_all_six_nodes(self, section_quad):
        scheme = build_scheme(section_quad, "pascal6")
        nodes = scheme.shapes.nodes.rows
        values = np.vstack([scheme.shapes.evaluate(row) for row in nodes])
        np.testing.assert_allclose(values, np.eye(6), atol=1e-12)

    def test_stable_rows_independent_of_pole_set(self, section_quad):
        # t1, t2 and t1*t2 coefficient rows do not depend on which pole
        # roots were used
        first = build_scheme(section_quad, "pascal6",
                             pole_guesses=((4.0, 1.0), (1.0, 3.0)))
        second = build_scheme(section_quad, "pascal6",
                              pole_guesses=((1.5, -1.0), (-1.0, 1.4)))
        for row in (1, 2, 4):
            np.testing.assert_allclose(first.params.coeffs[row],
                                       second.params.coeffs[row], atol=1e-10)

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

    def test_parallelogram_falls_back_to_bilinear(self, unit_square):
        with pytest.warns(UserWarning, match="falls back"):
            scheme = build_scheme(unit_square, "pascal6")
        assert scheme.fallback
        assert scheme.kind == "pascal6"
        bil = build_scheme(unit_square, "bilinear")
        for theta in [(0.1, 0.9), (-1.0, 0.3)]:
            np.testing.assert_allclose(map_point(scheme, theta),
                                       map_point(bil, theta), atol=1e-14)


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
            values = np.vstack([shapes.evaluate(r) for r in shapes.nodes.rows])
            np.testing.assert_allclose(values, np.eye(len(shapes.coeffs)),
                                       atol=1e-12, err_msg=kind)

    def test_scheme_equivalence_on_random_quads(self):
        grid = np.linspace(-1.0, 1.0, 9)
        for quad in convex_quads(30, seed=51):
            bil = build_scheme(quad, "bilinear")
            others = [build_scheme(quad, k) for k in
                      ("serendipity8", "pascal6")]
            for t1 in grid:
                for t2 in grid:
                    ref = map_point(bil, (t1, t2))
                    for scheme in others:
                        dev = np.linalg.norm(map_point(scheme, (t1, t2)) - ref)
                        assert dev <= 1e-9 * quad.diameter

    def test_pole_round_trip_on_random_quads(self):
        for quad in convex_quads(20, seed=77):
            scheme = build_scheme(quad, "pascal6")
            if scheme.fallback:
                continue
            bil = build_scheme(quad, "bilinear")
            for nat, xy in ((scheme.poles.p5_nat, scheme.poles.p5_xy),
                            (scheme.poles.p6_nat, scheme.poles.p6_xy)):
                residual = np.linalg.norm(map_point(bil, nat) - xy)
                assert residual <= 1e-9 * quad.diameter

    def test_center_criterion(self):
        for quad in convex_quads(10, seed=5):
            for kind in SCHEME_KINDS:
                scheme = build_scheme(quad, kind)
                np.testing.assert_allclose(
                    map_point(scheme, (0.0, 0.0)), quad.centroid, atol=1e-12)


class TestNodeTable:
    def test_corner_rows_enforced(self):
        with pytest.raises(ValidationError):
            NaturalNodeTable([[0, 0], [1, -1], [1, 1], [-1, 1]])

    def test_serendipity_midpoints_enforced(self):
        bad = np.vstack([CORNER_NATURAL,
                         [[0, -1], [1, 0], [0, 1], [-1, 0.5]]])
        with pytest.raises(ValidationError):
            NaturalNodeTable(bad)

    def test_factories(self):
        assert NaturalNodeTable.corners().rows.shape == (4, 2)
        assert NaturalNodeTable.serendipity().rows.shape == (8, 2)
        table = NaturalNodeTable.with_poles((4, 1), (1, 3))
        np.testing.assert_allclose(table.rows[4], [4, 1])


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
                (lambda t: map_point(scheme, t), (2,),
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


# The evaluators and the pole Newton as they were built from ``np.stack``
# and ``GeneralizedParams.point``/``.gradient``: the oracle that the
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


def _stacked_newton(quad, pole_xy, guess=None):
    """``solve_pole_natural`` on the stacked evaluators; returns the root
    or the ``NonconvergenceError`` raised."""
    target = np.asarray(pole_xy, dtype=float)
    coeffs = bilinear_params(quad).coeffs
    diam = quad.diameter
    if guess is None:
        guess = default_pole_guess(quad, target)
    guess = np.asarray(guess, dtype=float)
    last_residual, last_theta = math.inf, guess
    for shift in _NEWTON_PERTURBATIONS:
        theta = guess + shift
        singular = False
        for _ in range(50):
            values = _stacked_values(BILINEAR_MONOMIALS, theta)[..., None, :]
            residual = (values @ coeffs)[..., 0, :] - target
            norm = float(np.linalg.norm(residual))
            last_residual, last_theta = norm, theta
            if norm <= 1e-12 * diam:
                return theta
            grads = _stacked_gradients(BILINEAR_MONOMIALS, theta)
            tangent = (np.swapaxes(grads, -1, -2) @ coeffs).T
            if abs(det2(tangent)) < 1e-13 * diam * diam:
                singular = True
                break
            theta = theta - np.linalg.solve(tangent, residual)
        if not singular:
            return NonconvergenceError(
                f"pole iteration did not converge in 50 steps "
                f"(last residual {last_residual:.3e})",
                residual=last_residual, theta=last_theta)
    return NonconvergenceError(
        "singular Jacobian at an iterate for every restart",
        residual=last_residual, theta=last_theta)


def _newton_outcome(solve, *args):
    try:
        return solve(*args)
    except NonconvergenceError as exc:
        return exc


def _same_outcome(got, want):
    if isinstance(want, NonconvergenceError):
        return (type(got) is type(want) and str(got) == str(want)
                and np.array_equal(got.theta, want.theta, equal_nan=True)
                and np.array_equal(got.residual, want.residual,
                                   equal_nan=True))
    return got.dtype == want.dtype and np.array_equal(got, want)


class TestPreallocatedEvaluators:
    """The filled evaluators and the pole Newton equal the stacked ones bit
    for bit."""

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

    def test_newton_matches_stacked_on_random_quads(self, section_quad):
        quads = [section_quad] + convex_quads(50, seed=13)
        solved = 0
        for quad in quads:
            poles = compute_poles_cartesian(quad)
            for pole in (poles.p5_xy, poles.p6_xy):
                if pole is None:
                    continue
                want = _newton_outcome(_stacked_newton, quad, pole)
                got = _newton_outcome(solve_pole_natural, quad, pole)
                assert _same_outcome(got, want)
                solved += 1
        assert solved >= 90

    @pytest.mark.parametrize("pole, guess", [
        ([10.0, 0.0], (4.0, 1.0)), ([10.0, 0.0], (1.5, -1.0)),
        ([0.0, 6.0], (1.0, 3.0)), ([0.0, 6.0], (-1.0, 1.4)),
        # on the singular line det J = 5.5 - 2 t1 - 2.5 t2: a restart
        ([10.0, 0.0], (2.75, 0.0)),
        ([0.0, 6.0], (1e8, 1e8)),
        ([10.0, 0.0], (math.nan, 0.0)),
    ])
    def test_newton_matches_stacked_on_explicit_guesses(self, section_quad,
                                                        pole, guess):
        want = _newton_outcome(_stacked_newton, section_quad, pole, guess)
        got = _newton_outcome(solve_pole_natural, section_quad, pole, guess)
        assert _same_outcome(got, want)
