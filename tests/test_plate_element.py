import numpy as np
import pytest

from quadplate import (
    PlateMaterial,
    QuadGeometry,
    ValidationError,
    boundary_rotation_matrix,
    build_scheme,
    curvature_operator,
    deflection_row,
    element_load,
    element_mass,
    element_matrices,
    element_stiffness,
    gauss_rule,
    hermite_basis,
    jacobian,
    natural_rigidity,
    rotation_field,
    subarea_weights,
)
from quadplate import mapping
from quadplate.plate_element import PHI1_DOFS, PHI2_DOFS, U_DOFS

from conftest import BIUNIT_SQUARE, convex_quads

MAT = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)
RULE = gauss_rule(3)


def nodal_vector(u, phi1, phi2):
    """Assemble a 12-entry DOF vector from per-node values."""
    v = np.zeros(12)
    v[U_DOFS] = u
    v[PHI1_DOFS] = phi1
    v[PHI2_DOFS] = phi2
    return v


class TestMaterial:
    def test_benchmark_constants_give_unit_rigidity(self):
        assert MAT.rigidity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(E=-1.0, nu=0.3, t=0.2, rho=5.0),
        dict(E=1.0, nu=0.5, t=0.2, rho=5.0),
        dict(E=1.0, nu=0.3, t=0.0, rho=5.0),
        dict(E=1.0, nu=0.3, t=0.2, rho=0.0),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            PlateMaterial(**bad)


class TestHermiteBasis:
    def test_end_values_direction_one(self):
        h, _ = hermite_basis(-1.0, 1)
        np.testing.assert_allclose(h, [1, 0, 0, 0], atol=1e-15)
        h, _ = hermite_basis(1.0, 1)
        np.testing.assert_allclose(h, [0, 0, 1, 0], atol=1e-15)

    def test_value_functions_sum_to_one(self):
        for t in np.linspace(-1, 1, 9):
            for direction in (1, 2):
                h, _ = hermite_basis(t, direction)
                assert h[0] + h[2] == pytest.approx(1.0, abs=1e-14)

    def test_derivatives_against_finite_differences(self):
        step = 1e-6
        for t in np.linspace(-0.9, 0.9, 7):
            for direction in (1, 2):
                _, dh = hermite_basis(t, direction)
                hp, _ = hermite_basis(t + step, direction)
                hm, _ = hermite_basis(t - step, direction)
                np.testing.assert_allclose(dh, (hp - hm) / (2 * step),
                                           atol=1e-8)

    def test_slope_dofs_have_unit_end_derivative(self):
        # direction 1 pairs with phi2 = -du/dt: -h2' = +1 at the left end,
        # -h4' = +1 at the right end; direction 2 pairs with phi1 = +du/dt
        _, d1 = hermite_basis(-1.0, 1)
        assert -d1[1] == pytest.approx(1.0)
        _, d1 = hermite_basis(1.0, 1)
        assert -d1[3] == pytest.approx(1.0)
        _, d2 = hermite_basis(-1.0, 2)
        assert d2[1] == pytest.approx(1.0)
        _, d2 = hermite_basis(1.0, 2)
        assert d2[3] == pytest.approx(1.0)


class TestBoundaryRotations:
    def test_nodal_consistency(self):
        # each boundary rotation row evaluated at an end node picks that
        # node's matching rotation DOF with coefficient one
        cases = [
            (0, (-1.0, -1.0), 2), (0, (1.0, -1.0), 5),    # phi2 on (i)(j)
            (1, (1.0, -1.0), 4), (1, (1.0, 1.0), 7),      # phi1 on (j)(k)
            (2, (-1.0, 1.0), 11), (2, (1.0, 1.0), 8),     # phi2 on (l)(k)
            (3, (-1.0, -1.0), 1), (3, (-1.0, 1.0), 10),   # phi1 on (i)(l)
        ]
        for row, theta, dof in cases:
            picked = boundary_rotation_matrix(theta)[row]
            expected = np.zeros(12)
            expected[dof] = 1.0
            np.testing.assert_allclose(picked, expected, atol=1e-14,
                                       err_msg=f"row {row} at {theta}")

    def test_rows_restricted_to_edge_dofs(self):
        edge_dofs = [
            {0, 2, 3, 5}, {3, 4, 6, 7}, {6, 8, 9, 11}, {0, 1, 9, 10},
        ]
        rows = boundary_rotation_matrix((0.37, -0.58))
        for row, dofs in enumerate(edge_dofs):
            outside = [c for c in range(12) if c not in dofs]
            np.testing.assert_allclose(rows[row, outside], 0.0, atol=1e-15)

    def test_zero_dofs_give_zero_rotations(self):
        rows = boundary_rotation_matrix((0.2, 0.9))
        np.testing.assert_allclose(rows @ np.zeros(12), 0.0)


class TestRotationField:
    def test_edge_restriction_equals_boundary_row(self):
        for t2 in np.linspace(-1, 1, 5):
            field = rotation_field((1.0, t2))
            boundary = boundary_rotation_matrix((1.0, t2))
            np.testing.assert_allclose(field[0], boundary[1], atol=1e-14)

    def test_center_is_average_of_opposite_boundaries(self):
        field = rotation_field((0.0, 0.0))
        boundary = boundary_rotation_matrix((0.0, 0.0))
        np.testing.assert_allclose(field[0],
                                   0.5 * (boundary[1] + boundary[3]),
                                   atol=1e-14)
        np.testing.assert_allclose(field[1],
                                   0.5 * (boundary[0] + boundary[2]),
                                   atol=1e-14)

    def test_edge_trace_uses_only_shared_nodes(self):
        # on theta1 = +1 both rotation rows involve only DOFs of nodes j, k
        shared = {3, 4, 5, 6, 7, 8}
        for t2 in np.linspace(-1, 1, 11):
            field = rotation_field((1.0, t2))
            outside = [c for c in range(12) if c not in shared]
            np.testing.assert_allclose(field[:, outside], 0.0, atol=1e-14)

    def test_c1_trace_between_elements(self):
        # two elements of a structured mesh of a general quad: Cartesian
        # rotations along the shared edge coincide pointwise
        from quadplate import mesh_quad
        from quadplate.modal import _element_transform

        mesh = mesh_quad([[0, 0], [2.3, 0.1], [2.0, 1.9], [-0.4, 1.6]], 2, 1)
        conn_a, conn_b = mesh.elements
        shared = sorted(set(conn_a) & set(conn_b))
        assert len(shared) == 2
        rng = np.random.default_rng(8)
        u_cart = rng.standard_normal(3 * mesh.n_nodes)

        def edge_rotation(conn, theta):
            quad = QuadGeometry(mesh.nodes[conn])
            scheme = build_scheme(quad, "pascal6")
            transform = _element_transform(scheme)
            dofs = np.concatenate([[3 * n, 3 * n + 1, 3 * n + 2]
                                   for n in conn])
            local = transform @ u_cart[dofs]
            nat = rotation_field(theta) @ local
            jm = jacobian(scheme, theta).matrix
            t_point = np.array([[jm[1, 1], -jm[1, 0]], [-jm[0, 1], jm[0, 0]]])
            return np.linalg.solve(t_point, nat), scheme.params.point(theta)

        for s in np.linspace(-1, 1, 11):
            rot_a, x_a = edge_rotation(conn_a, (1.0, s))
            rot_b, x_b = edge_rotation(conn_b, (-1.0, s))
            np.testing.assert_allclose(x_a, x_b, atol=1e-12)
            np.testing.assert_allclose(rot_a, rot_b, atol=1e-12)


class TestCurvatureOperator:
    def test_rigid_translation_has_zero_curvature(self):
        v = nodal_vector(np.ones(4), np.zeros(4), np.zeros(4))
        for theta in [(0.0, 0.0), (0.5, -0.5), (-1.0, 1.0)]:
            np.testing.assert_allclose(curvature_operator(theta) @ v, 0.0,
                                       atol=1e-14)

    def test_quadratic_field_center_curvature(self):
        # w = t1^2 sampled at the corners: u = 1, phi2 = -2 t1
        v = nodal_vector(np.ones(4), np.zeros(4),
                         np.array([2.0, -2.0, -2.0, 2.0]))
        chi = curvature_operator((0.0, 0.0)) @ v
        np.testing.assert_allclose(chi, [-2.0, 0.0, 0.0], atol=1e-13)

    def test_matches_finite_differences_of_rotation_field(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(12)
        step = 1e-6
        for theta in rng.uniform(-0.9, 0.9, (10, 2)):
            t1, t2 = theta

            def phi(a, b):
                return rotation_field((a, b)) @ v

            d_phi1_d1 = (phi(t1 + step, t2)[0] - phi(t1 - step, t2)[0]) / (2 * step)
            d_phi1_d2 = (phi(t1, t2 + step)[0] - phi(t1, t2 - step)[0]) / (2 * step)
            d_phi2_d1 = (phi(t1 + step, t2)[1] - phi(t1 - step, t2)[1]) / (2 * step)
            d_phi2_d2 = (phi(t1, t2 + step)[1] - phi(t1, t2 - step)[1]) / (2 * step)
            chi = curvature_operator(theta) @ v
            assert chi[0] == pytest.approx(d_phi2_d1, abs=1e-7)
            assert chi[1] == pytest.approx(-d_phi1_d2, abs=1e-7)
            assert chi[2] == pytest.approx(d_phi2_d2 - d_phi1_d1, abs=1e-7)


class TestNaturalRigidity:
    def test_identity_jacobian_gives_voigt_matrix(self):
        jac = jacobian(build_scheme(QuadGeometry(BIUNIT_SQUARE), "bilinear"),
                       (0.0, 0.0))
        np.testing.assert_allclose(jac.matrix, np.eye(2), atol=1e-15)
        d = MAT.rigidity
        nu = MAT.nu
        expected = d * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
        np.testing.assert_allclose(natural_rigidity(MAT, jac), expected,
                                   atol=1e-14)

    def test_uniform_scaling_pulls_four_contravariant_factors(self):
        s = 2.5
        square = QuadGeometry(s * np.asarray(BIUNIT_SQUARE))
        jac = jacobian(build_scheme(square, "bilinear"), (0.0, 0.0))
        base = jacobian(build_scheme(QuadGeometry(BIUNIT_SQUARE), "bilinear"),
                        (0.0, 0.0))
        np.testing.assert_allclose(
            natural_rigidity(MAT, jac),
            natural_rigidity(MAT, base) * s ** -4 * 1.0, atol=1e-14)

    def test_energy_invariance_oracle(self):
        # push curvature covariantly, rigidity contravariantly: the energy
        # density is frame invariant
        rng = np.random.default_rng(31)
        for quad in convex_quads(10, seed=31):
            scheme = build_scheme(quad, "bilinear")
            theta = rng.uniform(-0.9, 0.9, 2)
            jac = jacobian(scheme, theta)
            chi_cart = rng.standard_normal((2, 2))
            chi_cart = 0.5 * (chi_cart + chi_cart.T)
            chi_nat = np.einsum("ai,bj,ij->ab", jac.matrix, jac.matrix,
                                chi_cart)
            v_cart = np.array([chi_cart[0, 0], chi_cart[1, 1],
                               2 * chi_cart[0, 1]])
            v_nat = np.array([chi_nat[0, 0], chi_nat[1, 1], 2 * chi_nat[0, 1]])
            d = MAT.rigidity
            nu = MAT.nu
            e_cart = d * np.array([[1, nu, 0], [nu, 1, 0],
                                   [0, 0, (1 - nu) / 2]])
            energy_cart = v_cart @ e_cart @ v_cart
            energy_nat = v_nat @ natural_rigidity(MAT, jac) @ v_nat
            assert energy_nat == pytest.approx(energy_cart, rel=1e-10)


class TestSubareaWeights:
    def test_square_quarters(self, unit_square):
        weights = subarea_weights(build_scheme(unit_square, "bilinear"))
        np.testing.assert_allclose(weights.fractions, 0.25, atol=1e-14)

    def test_sum_to_one_random(self):
        for quad in convex_quads(10, seed=45):
            weights = subarea_weights(build_scheme(quad, "bilinear"))
            assert weights.fractions.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(weights.fractions > 0)

    def test_section_quad_against_fine_grid_oracle(self, section_quad):
        scheme = build_scheme(section_quad, "bilinear")
        weights = subarea_weights(scheme)
        # midpoint Riemann sums per quadrant; det J is affine so the
        # midpoint rule is exact up to roundoff
        n = 50
        areas = []
        for c1, c2 in ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)):
            ticks = np.linspace(-0.5, 0.5, n, endpoint=False) + 0.5 / n
            total = 0.0
            for a in ticks:
                for b in ticks:
                    total += jacobian(scheme, (c1 + a, c2 + b)).det / (n * n)
            areas.append(total)
        areas = np.asarray(areas)
        np.testing.assert_allclose(weights.fractions, areas / areas.sum(),
                                   atol=1e-12)


class TestDeflectionRow:
    def test_center_is_weighted_average_row(self, section_quad):
        weights = subarea_weights(build_scheme(section_quad, "bilinear"))
        row = deflection_row((0.0, 0.0), weights)
        expected = np.zeros(12)
        expected[U_DOFS] = weights.fractions
        np.testing.assert_allclose(row, expected, atol=1e-14)

    def test_constant_deflection_reproduced(self, section_quad):
        weights = subarea_weights(build_scheme(section_quad, "bilinear"))
        v = nodal_vector(3.7 * np.ones(4), np.zeros(4), np.zeros(4))
        for theta in [(-1, -1), (0.3, 0.6), (1, 0)]:
            assert deflection_row(theta, weights) @ v == pytest.approx(
                3.7, abs=1e-13)

    def test_affine_in_theta(self, section_quad):
        weights = subarea_weights(build_scheme(section_quad, "bilinear"))
        rng = np.random.default_rng(2)
        v = rng.standard_normal(12)
        values = [deflection_row((t, 0.25), weights) @ v
                  for t in (-0.5, 0.0, 0.5)]
        second_difference = values[0] - 2 * values[1] + values[2]
        assert second_difference == pytest.approx(0.0, abs=1e-13)


def fd_energy_hessian(scheme, material, step=1e-5):
    """Stiffness oracle: second differences of the bending energy with
    curvatures from finite differences of the rotation field."""
    rule = gauss_rule(6)

    def energy(v):
        total = 0.0
        for t1, w1 in zip(rule.nodes, rule.weights):
            for t2, w2 in zip(rule.nodes, rule.weights):
                jac = jacobian(scheme, (t1, t2))

                def phi(a, b):
                    return rotation_field((a, b)) @ v

                chi = np.array([
                    (phi(t1 + step, t2)[1] - phi(t1 - step, t2)[1]) / (2 * step),
                    -(phi(t1, t2 + step)[0] - phi(t1, t2 - step)[0]) / (2 * step),
                    (phi(t1, t2 + step)[1] - phi(t1, t2 - step)[1]) / (2 * step)
                    - (phi(t1 + step, t2)[0] - phi(t1 - step, t2)[0]) / (2 * step),
                ])
                e = natural_rigidity(material, jac)
                total += 0.5 * w1 * w2 * jac.det * (chi @ e @ chi)
        return total

    k = np.empty((12, 12))
    single = [energy(np.eye(12)[i]) for i in range(12)]
    for i in range(12):
        for j in range(i, 12):
            pair = energy(np.eye(12)[i] + np.eye(12)[j])
            k[i, j] = k[j, i] = pair - single[i] - single[j]
    return k


class TestElementStiffness:
    def test_symmetry_and_translation_nullvector(self):
        translation = nodal_vector(np.ones(4), np.zeros(4), np.zeros(4))
        for quad in convex_quads(10, seed=61):
            k = element_stiffness(build_scheme(quad, "pascal6"), MAT, RULE)
            assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()
            assert np.abs(k @ translation).max() <= \
                1e-9 * np.linalg.norm(k) * np.linalg.norm(translation)

    def test_unit_square_matches_energy_hessian_oracle(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        k = element_stiffness(scheme, MAT, RULE)
        oracle = fd_energy_hessian(scheme, MAT)
        assert np.abs(k - oracle).max() <= 1e-6 * np.abs(k).max()

    def test_rectangle_rigid_rotations_in_nullspace(self):
        rect = QuadGeometry([[0, 0], [2, 0], [2, 1], [0, 1]])
        k = element_stiffness(build_scheme(rect, "bilinear"), MAT, RULE)
        corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        # w = theta2: phi1 = 1; w = theta1: phi2 = -1
        rot1 = nodal_vector(corners[:, 1], np.ones(4), np.zeros(4))
        rot2 = nodal_vector(corners[:, 0], np.zeros(4), -np.ones(4))
        for v in (rot1, rot2):
            assert np.linalg.norm(k @ v) <= \
                1e-9 * np.linalg.norm(k) * np.linalg.norm(v)

    def test_relabel_equivariance(self, section_quad):
        # cycling the vertex list by one rotates the natural frame by 90
        # degrees; stiffness must permute with the matching DOF map
        cycled = QuadGeometry(section_quad.vertices[[1, 2, 3, 0]])
        k1 = element_stiffness(build_scheme(section_quad, "pascal6"), MAT, RULE)
        k2 = element_stiffness(build_scheme(cycled, "pascal6"), MAT, RULE)
        q = np.zeros((12, 12))
        for p in range(4):
            s = (p + 1) % 4
            q[3 * p, 3 * s] = 1.0       # u_new(p) = u_old(p+1)
            q[3 * p + 1, 3 * s + 2] = 1.0   # phi1_new = phi2_old
            q[3 * p + 2, 3 * s + 1] = -1.0  # phi2_new = -phi1_old
        np.testing.assert_allclose(k2, q @ k1 @ q.T,
                                   atol=1e-10 * np.abs(k1).max())

    def test_translation_invariance(self, section_quad):
        shifted = QuadGeometry(section_quad.vertices + np.array([10.0, -7.0]))
        k1 = element_stiffness(build_scheme(section_quad, "pascal6"), MAT, RULE)
        k2 = element_stiffness(build_scheme(shifted, "pascal6"), MAT, RULE)
        np.testing.assert_allclose(k2, k1, atol=1e-10 * np.abs(k1).max())
        m1 = element_mass(build_scheme(section_quad, "pascal6"), MAT, RULE)
        m2 = element_mass(build_scheme(shifted, "pascal6"), MAT, RULE)
        np.testing.assert_allclose(m2, m1, atol=1e-12 * np.abs(m1).max())

    def test_low_order_rule_rejected(self, unit_square):
        with pytest.raises(ValidationError):
            element_stiffness(build_scheme(unit_square, "bilinear"), MAT,
                              gauss_rule(2))

    def test_quadrature_convergence(self):
        # mildly distorted quads: 4x4 Gauss changes the matrices by little
        rng = np.random.default_rng(3)
        base = np.asarray([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        for _ in range(5):
            quad = QuadGeometry(base + rng.uniform(-0.08, 0.08, (4, 2)))
            scheme = build_scheme(quad, "pascal6")
            k3 = element_stiffness(scheme, MAT, gauss_rule(3))
            k4 = element_stiffness(scheme, MAT, gauss_rule(4))
            m3 = element_mass(scheme, MAT, gauss_rule(3))
            m4 = element_mass(scheme, MAT, gauss_rule(4))
            assert np.linalg.norm(k4 - k3) <= 1e-3 * np.linalg.norm(k3)
            assert np.linalg.norm(m4 - m3) <= 1e-3 * np.linalg.norm(m3)


def fine_grid_mass_oracle(scheme, material, rotary=False, cells=32):
    """Composite two-point Gauss over a fine cell grid, independent of the
    production 3x3 tensor rule."""
    weights = subarea_weights(scheme)
    r = material.rho * material.t ** 3 / 12.0 if rotary else 0.0
    density = np.diag([material.rho * material.t, r, r])
    offset = 1.0 / np.sqrt(3.0)
    m = np.zeros((12, 12))
    h = 2.0 / cells
    for i in range(cells):
        for j in range(cells):
            c1 = -1.0 + (i + 0.5) * h
            c2 = -1.0 + (j + 0.5) * h
            for a in (-offset, offset):
                for b in (-offset, offset):
                    theta = (c1 + 0.5 * h * a, c2 + 0.5 * h * b)
                    n = np.vstack([deflection_row(theta, weights),
                                   rotation_field(theta)])
                    m += (0.25 * h * h * jacobian(scheme, theta).det) * \
                        (n.T @ density @ n)
    return m


class TestElementMass:
    def test_total_translational_mass(self):
        translation = nodal_vector(np.ones(4), np.zeros(4), np.zeros(4))
        for quad in convex_quads(10, seed=83):
            m = element_mass(build_scheme(quad, "pascal6"), MAT, RULE)
            expected = MAT.rho * MAT.t * quad.signed_area
            assert translation @ m @ translation == pytest.approx(
                expected, rel=1e-10)

    def test_symmetric_positive_semidefinite(self):
        for quad in convex_quads(5, seed=91):
            m = element_mass(build_scheme(quad, "bilinear"), MAT, RULE)
            assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
            eigenvalues = np.linalg.eigvalsh(m)
            assert eigenvalues.min() >= -1e-12 * eigenvalues.max()

    def test_square_against_fine_grid_oracle(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        m = element_mass(scheme, MAT, RULE)
        oracle = fine_grid_mass_oracle(scheme, MAT)
        assert np.abs(m - oracle).max() <= 1e-8 * np.abs(m).max()

    def test_rotary_inertia_adds_rotation_mass(self, unit_square):
        scheme = build_scheme(unit_square, "bilinear")
        m_off = element_mass(scheme, MAT, RULE, rotary=False)
        m_on = element_mass(scheme, MAT, RULE, rotary=True)
        delta = m_on - m_off
        assert np.linalg.eigvalsh(delta).min() >= -1e-14
        assert np.abs(delta).max() > 0.0


class TestElementLoad:
    def test_zero_pressure(self, section_quad):
        f = element_load(build_scheme(section_quad, "bilinear"), RULE, 0.0)
        np.testing.assert_allclose(f, 0.0)

    def test_uniform_pressure_on_square(self, unit_square):
        # slope rows are odd over the square, so only the weighted-average
        # row survives: u components carry q A / 4, rotations nothing
        q = 2.5
        f = element_load(build_scheme(unit_square, "bilinear"), RULE, q)
        np.testing.assert_allclose(f[U_DOFS], q * 1.0 / 4.0, atol=1e-13)
        np.testing.assert_allclose(f[PHI1_DOFS], 0.0, atol=1e-13)
        np.testing.assert_allclose(f[PHI2_DOFS], 0.0, atol=1e-13)
        # cross-check with an independent (higher) rule: integrand is
        # polynomial, both rules are exact
        f6 = element_load(build_scheme(unit_square, "bilinear"),
                          gauss_rule(6), q)
        np.testing.assert_allclose(f, f6, atol=1e-13)

    def test_load_conservation(self):
        q = 1.7
        for quad in convex_quads(10, seed=13):
            f = element_load(build_scheme(quad, "pascal6"), RULE, q)
            assert f[U_DOFS].sum() == pytest.approx(q * quad.signed_area,
                                                    rel=1e-12)


class TestElementMatrices:
    def test_geometry_diameter_computed_once(self, section_quad, monkeypatch):
        # the diameter is stored at construction; Jacobians at the Gauss
        # and subarea points read it instead of recomputing it
        calls = []
        diameter = mapping._diameter

        def counting(v):
            calls.append(1)
            return diameter(v)

        monkeypatch.setattr(mapping, "_diameter", counting)
        quad = QuadGeometry(section_quad.vertices)
        assert len(calls) == 1
        assert quad.diameter == section_quad.diameter == pytest.approx(
            np.sqrt(89.0))
        scheme = build_scheme(quad, "bilinear")
        calls.clear()
        element_matrices(scheme, MAT, RULE, rotary=True)
        assert calls == []
