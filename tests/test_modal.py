import contextlib
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_array

from quadplate import (
    BoundarySet,
    DegenerateGeometryError,
    GlobalSystem,
    Mesh,
    NumericalError,
    PlateMaterial,
    QuadGeometry,
    ValidationError,
    apply_bcs,
    assemble,
    build_scheme,
    element_matrices,
    frequency_parameter,
    gauss_rule,
    mesh_quad,
    mesh_triangle,
    modal_analysis,
    nodes_on_segment,
    solve_modes,
)
from quadplate import modal
from quadplate.modal import _CsrPattern, _element_batch, _element_transform
from quadplate.plate_element import (
    batch_element_matrices,
    element_mass,
    element_stiffness,
)

from conftest import BIUNIT_SQUARE, SECTION_QUAD, UNIT_SQUARE, convex_quads

MAT = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)
RULE = gauss_rule(3)
TIP = [[0, 0], [1, 0.25], [1, 0.25], [0, 0.5]]
#: SHA-256 digests of structured mesh arrays, recorded from the
#: coordinate-merging mesh generator that the lattice one replaced.
RECORDED_MESHES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "mesh_arrays.json").read_text())


def scalar_assemble(mesh, material, rule=RULE, rotary=False):
    """Reference assembly: one scalar element at a time, scattered with an
    accumulating add (collapsed-edge elements repeat a node)."""
    ndof = 3 * mesh.n_nodes
    k = np.zeros((ndof, ndof))
    m = np.zeros((ndof, ndof))
    for conn in mesh.elements:
        quad = QuadGeometry(mesh.nodes[conn], allow_collapsed=True)
        scheme = build_scheme(quad, "bilinear")
        em = element_matrices(scheme, material, rule, rotary=rotary)
        t = _element_transform(scheme)
        dofs = np.concatenate([[3 * n, 3 * n + 1, 3 * n + 2] for n in conn])
        np.add.at(k, np.ix_(dofs, dofs), t.T @ em.k @ t)
        np.add.at(m, np.ix_(dofs, dofs), t.T @ em.m @ t)
    return k, m


def shuffled_quad_mesh(seed=5):
    """An explicit 3x4 mesh of a skew quad, its nodes numbered at random."""
    mesh = mesh_quad(SECTION_QUAD, 3, 4)
    order = np.random.default_rng(seed).permutation(mesh.n_nodes)
    number = np.argsort(order)  # old node index -> new
    return Mesh(nodes=mesh.nodes[order], elements=number[mesh.elements])


PATTERN_MESHES = [
    mesh_quad([[0, 0], [1, 0], [0.7929, 0.7727], [0.2394, 0.6577]], 5, 7),
    mesh_triangle([[0, 0], [1, 0.25], [0, 0.5]], 3),
    shuffled_quad_mesh(),
]
PATTERN_IDS = ["clamped-quad-5x7", "cantilever-isosceles-level-3",
               "explicit-shuffled"]


def assert_relative(got, want, rtol, label=None):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max(), label


def clamp_polygon_boundary(mesh, vertices):
    v = np.asarray(vertices, dtype=float)
    for e in range(len(v)):
        nodes = nodes_on_segment(mesh, v[e], v[(e + 1) % len(v)])
        mesh.boundary_sets[f"edge{e}"] = BoundarySet("clamped", nodes)


class TestAssemble:
    def test_single_biunit_element_is_identity_transform(self):
        # J = I for the bi-unit square, so the global matrices equal the
        # element matrices (gathered through the mesh connectivity)
        mesh = mesh_quad(BIUNIT_SQUARE, 1, 1)
        system = assemble(mesh, MAT, rule=RULE)
        em = element_matrices(build_scheme(QuadGeometry(BIUNIT_SQUARE),
                                           "bilinear"), MAT, RULE)
        dofs = np.concatenate([[3 * n, 3 * n + 1, 3 * n + 2]
                               for n in mesh.elements[0]])
        ix = np.ix_(dofs, dofs)
        np.testing.assert_allclose(system.k.toarray()[ix], em.k, atol=1e-12)
        np.testing.assert_allclose(system.m.toarray()[ix], em.m, atol=1e-14)

    def test_two_element_strip_scatter_oracle(self):
        mesh = mesh_quad(SECTION_QUAD, 2, 1)
        k = assemble(mesh, MAT, rule=RULE).k.toarray()
        k_oracle, _ = scalar_assemble(mesh, MAT)
        np.testing.assert_allclose(k, k_oracle, atol=1e-12)
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()

    @pytest.mark.parametrize("rotary", [False, True])
    @pytest.mark.parametrize("mesh", [
        mesh_quad([[0, 0], [1, 0], [0.7929, 0.7727], [0.2394, 0.6577]], 4, 4),
        mesh_triangle([[0, 0], [1, 0.25], [0, 0.5]], 2),
    ], ids=["clamped-quad-4x4", "cantilever-isosceles-level-2"])
    def test_matches_scalar_assembly(self, mesh, rotary):
        system = assemble(mesh, MAT, rule=RULE, rotary=rotary)
        k, m = scalar_assemble(mesh, MAT, rotary=rotary)
        assert_relative(system.k, k, 1e-12)
        assert_relative(system.m, m, 1e-12)

    @pytest.mark.parametrize("mesh", PATTERN_MESHES, ids=PATTERN_IDS)
    def test_node_pattern_matches_dof_pattern(self, mesh):
        # the CSR layout from the sorted unique DOF entries of every
        # element, and each element entry's slot in it
        ndof = 3 * mesh.n_nodes
        dofs = (3 * mesh.elements[:, :, None] + np.arange(3)).reshape(-1, 12)
        index = (dofs[:, :, None] * ndof + dofs[:, None, :]).ravel()
        flat, slot = np.unique(index, return_inverse=True)
        rows, cols = np.divmod(flat, ndof)
        pattern = _CsrPattern.of(mesh.elements, mesh.n_nodes)
        assert np.array_equal(pattern.indptr,
                              np.searchsorted(rows, np.arange(ndof + 1)))
        assert np.array_equal(pattern.indices, cols)
        assert np.array_equal(pattern.slots().ravel(), slot.ravel())

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    @pytest.mark.parametrize("mesh", PATTERN_MESHES, ids=PATTERN_IDS)
    def test_chunked_assembly_matches_scalar(self, monkeypatch, mesh, chunk):
        monkeypatch.setattr(modal, "_ASSEMBLY_CHUNK", chunk)
        system = assemble(mesh, MAT, rule=RULE, rotary=True)
        k, m = scalar_assemble(mesh, MAT, rotary=True)
        assert_relative(system.k.toarray(), k, 1e-12)
        assert_relative(system.m.toarray(), m, 1e-12)

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_batched_elements_match_scalar_elements(self, order):
        # disjoint elements: 50 random convex quads and a collapsed-edge tip
        rule = gauss_rule(order)
        quads = convex_quads(50, seed=11) + [
            QuadGeometry(TIP, allow_collapsed=True)]
        mesh = Mesh(nodes=np.vstack([q.vertices for q in quads]),
                    elements=np.arange(4 * len(quads)).reshape(-1, 4))
        batch = _element_batch(mesh, rule)
        for rotary in (False, True):
            k, m = batch_element_matrices(batch.jac, batch.det,
                                          batch.fractions, MAT, rule,
                                          rotary=rotary)
            t = batch.transform
            k = np.swapaxes(t, 1, 2) @ k @ t
            m = np.swapaxes(t, 1, 2) @ m @ t
            for index, quad in enumerate(quads):
                scheme = build_scheme(quad, "bilinear")
                ts = _element_transform(scheme)
                assert_relative(t[index], ts, 1e-12, index)
                ks = ts.T @ element_stiffness(scheme, MAT, rule) @ ts
                ms = ts.T @ element_mass(scheme, MAT, rule, rotary) @ ts
                assert_relative(k[index], ks, 1e-12, (index, rotary))
                assert_relative(m[index], ms, 1e-12, (index, rotary))

    def test_free_mesh_annihilates_uniform_translation(self):
        mesh = mesh_quad(SECTION_QUAD, 2, 2)
        k = assemble(mesh, MAT, rule=RULE).k.toarray()
        v = np.zeros(k.shape[0])
        v[0::3] = 1.0
        assert np.abs(k @ v).max() <= \
            1e-9 * np.linalg.norm(k) * np.linalg.norm(v)

    def test_bad_node_index_rejected(self):
        mesh = Mesh(nodes=np.zeros((3, 2)), elements=[[0, 1, 2, 5]])
        with pytest.raises(DegenerateGeometryError):
            assemble(mesh, MAT)

    def test_clockwise_element_rejected(self):
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        mesh = Mesh(nodes=nodes, elements=[[0, 3, 2, 1]])
        with pytest.raises(DegenerateGeometryError):
            assemble(mesh, MAT)

    @pytest.mark.parametrize("elements,message", [
        ([[0, 1, 4, 3], [1, 1, 5, 5]], "element 1 repeats nodes"),
        ([[0, 1, 4, 3], [1, 2, 1, 5]],
         "element 1 repeats a non-adjacent node"),
        ([[0, 1, 4, 3], [1, 4, 5, 2], [1, 1, 5, 5]],
         "element 1 is degenerate or clockwise"),
        ([[0, 1, 4, 3], [1, 2, 5, 4], [4, 3, 6, 7]],
         "elements 0 and 2 traverse edge (4, 3) in the same direction"),
        ([[0, 1, 4, 3], [1, 2, 5, 4], [1, 2, 5, 4]],
         "elements 1 and 2 traverse edge (1, 2) in the same direction"),
        ([[0, 1, 4, 3], [1, 2, 5, 4]], "node 6 belongs to no element"),
    ], ids=["repeats", "non-adjacent", "clockwise-first", "edge", "copy",
            "unused-node"])
    def test_mesh_fault_names_first_element(self, elements, message):
        # a 2x1 strip of unit squares plus two points inside the first;
        # the spare points are reported only when every element passes
        nodes = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1],
                 [0.2, 0.4], [0.8, 0.4]]
        mesh = Mesh(nodes=nodes, elements=elements)
        with pytest.raises(DegenerateGeometryError) as exc:
            assemble(mesh, MAT)
        assert str(exc.value) == message

    def test_same_direction_shared_edge_rejected(self):
        # both elements are counterclockwise but traverse edge 1->2 in the
        # same direction (the second overlaps the first)
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                          [0.5, 0.8], [0.5, 0.2]], dtype=float)
        mesh = Mesh(nodes=nodes, elements=[[0, 1, 2, 3], [1, 2, 4, 5]])
        with pytest.raises(DegenerateGeometryError):
            assemble(mesh, MAT)


class TestApplyBcs:
    def test_fully_clamped_two_by_two_leaves_center(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        clamp_polygon_boundary(mesh, UNIT_SQUARE)
        system = assemble(mesh, MAT)
        reduced = apply_bcs(system, mesh)
        assert reduced.n_dofs == 3
        kept_nodes = np.flatnonzero((reduced.dof_map >= 0).any(axis=1))
        np.testing.assert_allclose(mesh.nodes[kept_nodes][0], [0.5, 0.5])

    def test_free_plate_unchanged(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        system = assemble(mesh, MAT)
        reduced = apply_bcs(system, mesh)
        assert reduced.n_dofs == system.n_dofs
        np.testing.assert_allclose(reduced.k.toarray(), system.k.toarray())

    def test_cantilever_dof_count(self):
        mesh = mesh_quad(UNIT_SQUARE, 3, 3)
        clamped = nodes_on_segment(mesh, [0, 0], [1, 0])
        mesh.boundary_sets["root"] = BoundarySet("clamped", clamped)
        reduced = apply_bcs(assemble(mesh, MAT), mesh)
        assert reduced.n_dofs == 3 * (mesh.n_nodes - len(clamped))

    def test_simply_supported_removes_deflection_only(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        edge = nodes_on_segment(mesh, [0, 0], [1, 0])
        mesh.boundary_sets["edge"] = BoundarySet("simply_supported", edge)
        reduced = apply_bcs(assemble(mesh, MAT), mesh)
        assert reduced.n_dofs == 3 * mesh.n_nodes - len(edge)

    def test_conflicting_sets_rejected(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        mesh.boundary_sets["a"] = BoundarySet("clamped", (0,))
        mesh.boundary_sets["b"] = BoundarySet("free", (0,))
        with pytest.raises(ValidationError):
            apply_bcs(assemble(mesh, MAT), mesh)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValidationError):
            BoundarySet("pinned", (0,))


class TestSolveModes:
    def test_diagonal_oracle(self):
        system = GlobalSystem(
            k=csr_array(np.diag([1.0, 4.0])), m=csr_array(np.eye(2)),
            dof_map=np.array([[0, -1, -1], [1, -1, -1]]), scale=1.0,
        )
        spectrum = solve_modes(system, 2)
        np.testing.assert_allclose(spectrum.omega, [1.0, 2.0], rtol=1e-12)

    def test_mass_orthonormal_modes(self):
        mesh = mesh_quad(SECTION_QUAD, 2, 2)
        clamp_polygon_boundary(mesh, SECTION_QUAD)
        reduced = apply_bcs(assemble(mesh, MAT), mesh)
        spectrum = solve_modes(reduced, 3)
        gram = spectrum.modes.T @ reduced.m @ spectrum.modes
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)
        assert np.all(spectrum.residuals <= 1e-8)

    def test_free_plate_has_rigid_mode_first(self):
        mesh = mesh_quad(UNIT_SQUARE, 4, 4)
        spectrum = modal_analysis(mesh, MAT, count=4)
        params = frequency_parameter(spectrum.omega, 1.0, MAT, "plain")
        assert params[0] < 1e-4
        assert params[-1] > 1.0

    def test_count_exceeding_dimension_rejected(self):
        system = GlobalSystem(k=csr_array(np.eye(2)), m=csr_array(np.eye(2)),
                              dof_map=np.array([[0, 1, -1]]), scale=1.0)
        with pytest.raises(ValidationError):
            solve_modes(system, 3)

    def test_count_exceeding_finite_modes_rejected(self):
        # deflection-only mass of one free element has rank 3
        mesh = mesh_quad(UNIT_SQUARE, 1, 1)
        system = assemble(mesh, MAT)
        with pytest.raises(NumericalError):
            solve_modes(system, 6)

    def test_zero_count_gives_empty_spectrum(self):
        mesh = mesh_quad(UNIT_SQUARE, 1, 1)
        system = assemble(mesh, MAT)
        spectrum = solve_modes(system, 0)
        assert spectrum.omega.size == 0
        assert spectrum.modes.shape == (system.n_dofs, 0)

    def test_deterministic_mode_signs(self):
        mesh = mesh_quad(SECTION_QUAD, 2, 2)
        clamp_polygon_boundary(mesh, SECTION_QUAD)
        reduced = apply_bcs(assemble(mesh, MAT), mesh)
        first = solve_modes(reduced, 3)
        second = solve_modes(reduced, 3)
        assert np.array_equal(first.modes, second.modes)
        for j in range(3):
            size = np.abs(first.modes[:, j])
            lead = np.flatnonzero(size >= (1.0 - 1e-6) * size.max())[0]
            assert first.modes[lead, j] > 0

    @pytest.mark.parametrize("entry", [0, 1])
    def test_mode_sign_survives_round_off(self, entry):
        # the lowest mode is (1, -1)/sqrt(2); a 1e-12 change in K makes
        # either entry the larger one but leaves the sign alone
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        dof_map = np.array([[0, 1, -1]])
        def first_mode():
            system = GlobalSystem(k=csr_array(k), m=csr_array(np.eye(2)),
                                  dof_map=dof_map, scale=1.0)
            return solve_modes(system, 1).modes[:, 0]

        plain = first_mode()
        k[entry, entry] += 1e-12
        perturbed = first_mode()
        assert plain[0] > 0 > plain[1]
        np.testing.assert_allclose(perturbed, plain, atol=1e-9)


class TestFrequencyParameter:
    def test_normalized_material_is_identity(self):
        # rho t a^4 = D = 1, so the parameter equals omega itself
        value = frequency_parameter(7.589261, 1.0, MAT, "plain")
        assert value == pytest.approx(7.589261, rel=1e-12)

    def test_pi_squared_normalization(self):
        assert frequency_parameter(np.pi ** 2, 1.0, MAT, "per_pi2") == \
            pytest.approx(1.0, rel=1e-12)

    def test_plain_equals_per_pi2_times_pi2(self):
        omega = np.array([1.3, 8.8, 17.0])
        plain = frequency_parameter(omega, 2.0, MAT, "plain")
        per = frequency_parameter(omega, 2.0, MAT, "per_pi2")
        np.testing.assert_allclose(plain, per * np.pi ** 2, rtol=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            frequency_parameter(1.0, 0.0, MAT)
        with pytest.raises(ValidationError):
            frequency_parameter(1.0, 1.0, MAT, "per_pi")


class TestMeshGenerators:
    def test_triangle_level_one_counts(self):
        mesh = mesh_triangle([[0, 0], [1, 0], [0, 1]], 1)
        assert mesh.n_elements == 3
        assert mesh.n_nodes == 7

    @pytest.mark.parametrize("level,expected", [(1, 3), (2, 12), (3, 27)])
    def test_triangle_element_counts(self, level, expected):
        mesh = mesh_triangle([[0, 0], [2, 0], [1, 1.5]], level)
        assert mesh.n_elements == expected

    def test_triangle_elements_counterclockwise(self):
        mesh = mesh_triangle([[0, 0], [2, 0], [0.4, 1.7]], 3)
        for conn in mesh.elements:
            v = mesh.nodes[conn]
            area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                           - np.roll(v[:, 0], -1) * v[:, 1])
            assert area2 > 0

    def test_triangle_tip_row_is_collapsed(self):
        # the level elements touching the apex are triangles sharing the
        # apex node; all other elements are proper quads
        vertices = np.array([[0, 0], [2, 0.5], [0, 1]], dtype=float)
        for level in (1, 2, 3):
            mesh = mesh_triangle(vertices, level)
            collapsed = [conn for conn in mesh.elements
                         if len(set(int(c) for c in conn)) == 3]
            assert len(collapsed) == level
            apex = {int(c) for conn in collapsed for c in conn
                    if list(conn).count(c) == 2}
            assert len(apex) == 1
            np.testing.assert_allclose(mesh.nodes[apex.pop()], vertices[1],
                                       atol=1e-12)

    def test_triangle_mesh_assembles_and_solves(self):
        vertices = np.array([[0, 0], [1, 0.25], [0, 0.5]], dtype=float)
        mesh = mesh_triangle(vertices, 2)
        clamped = nodes_on_segment(mesh, vertices[2], vertices[0])
        mesh.boundary_sets["root"] = BoundarySet("clamped", clamped)
        spectrum = modal_analysis(mesh, MAT, count=2)
        assert np.all(spectrum.omega > 0)
        assert np.all(spectrum.residuals <= 1e-8)
        # total mass is preserved through collapsed elements
        system = assemble(mesh, MAT)
        v = np.zeros(system.n_dofs)
        v[0::3] = 1.0
        area = 0.5 * 0.5 * 1.0  # triangle area: base 0.5, span 1
        assert v @ system.m @ v == pytest.approx(MAT.rho * MAT.t * area,
                                                 rel=1e-10)

    def test_triangle_clockwise_input_reordered(self):
        with pytest.warns(UserWarning, match="clockwise"):
            mesh = mesh_triangle([[0, 0], [0, 1], [1, 0]], 1)
        assert mesh.n_elements == 3

    def test_quad_one_by_one_is_the_quad(self):
        mesh = mesh_quad(SECTION_QUAD, 1, 1)
        assert mesh.n_elements == 1
        np.testing.assert_allclose(mesh.nodes[mesh.elements[0]],
                                   SECTION_QUAD, atol=1e-12)

    def test_quad_two_by_two_counts(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        assert mesh.n_nodes == 9
        assert mesh.n_elements == 4

    def test_quad_eight_by_eight_positive_jacobians(self):
        vertices = [[0, 0], [1, 0], [0.7929, 0.7727], [0.2394, 0.6577]]
        mesh = mesh_quad(vertices, 8, 8)
        assert mesh.n_nodes == 81
        assert mesh.n_elements == 64
        rng = np.random.default_rng(4)
        for conn in mesh.elements:
            scheme = build_scheme(QuadGeometry(mesh.nodes[conn]), "bilinear")
            for theta in rng.uniform(-1, 1, (3, 2)):
                matrix = scheme.params.gradient(theta)
                det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
                assert det > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            mesh_quad(UNIT_SQUARE, 0, 2)
        with pytest.raises(ValidationError):
            mesh_triangle([[0, 0], [1, 0], [0, 1]], 0)
        with pytest.raises(DegenerateGeometryError):
            mesh_triangle([[0, 0], [1, 1], [2, 2]], 1)

    @pytest.mark.parametrize("entry", RECORDED_MESHES,
                             ids=[e["id"] for e in RECORDED_MESHES])
    def test_matches_recorded_arrays(self, entry):
        clockwise = entry["id"].startswith("clockwise")
        with (pytest.warns(UserWarning, match="clockwise") if clockwise
              else contextlib.nullcontext()):
            if entry["kind"] == "quad":
                mesh = mesh_quad(entry["vertices"], *entry["size"])
            else:
                mesh = mesh_triangle(entry["vertices"], entry["size"])
        assert (mesh.n_nodes, mesh.n_elements) == (entry["n_nodes"],
                                                   entry["n_elements"])
        assert hashlib.sha256(mesh.nodes.tobytes()).hexdigest() \
            == entry["nodes_sha256"]
        assert hashlib.sha256(mesh.elements.astype(np.int64).tobytes()) \
            .hexdigest() == entry["elements_sha256"]

    def test_folded_quad_keeps_every_lattice_node(self):
        # a non-convex quad folds its grid: distinct lattice points land
        # close together but stay distinct nodes, and validation names the
        # first inverted element
        mesh = mesh_quad([[0, 0], [4, 0], [1, 1], [0, 4]], 9, 9)
        assert mesh.n_nodes == 100
        with pytest.raises(DegenerateGeometryError) as exc:
            assemble(mesh, MAT)
        assert str(exc.value) == "element 35 is degenerate or clockwise"

    @pytest.mark.parametrize("width, size, thin", [
        (1e-10, 2, True), (1e-8, 2, False), (1e-8, 8, False),
        (1e-8, 16, True)])
    def test_thin_quad_rejected_against_boundary_tolerance(self, width, size,
                                                           thin):
        # grid lines width / size apart fall inside the boundary-set
        # tolerance of the unit-length long edges (1e-9) when thin
        vertices = [[0, 0], [1, 0], [1, width], [0, width]]
        if thin:
            with pytest.raises(DegenerateGeometryError, match="too thin"):
                mesh_quad(vertices, size, size)
        else:
            mesh = mesh_quad(vertices, size, size)
            on_edge = nodes_on_segment(mesh, [0, 0], [1, 0])
            assert len(on_edge) == size + 1

    def test_thin_triangle_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="too thin"):
            mesh_triangle([[0, 0], [1, 1e-10], [0, 2e-10]], 1)

    def test_large_quad_mesh_memory(self):
        tracemalloc.start()
        try:
            mesh = mesh_quad(UNIT_SQUARE, 128, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mesh.n_nodes == 129 * 129
        assert peak < 16 * 2 ** 20

    def test_large_quad_mesh_assembly_memory(self):
        # elements are integrated in chunks of _ASSEMBLY_CHUNK, so only
        # the CSR system and its pattern grow with the mesh
        mesh = mesh_quad(UNIT_SQUARE, 64, 64)
        tracemalloc.start()
        try:
            assemble(mesh, MAT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2 ** 20

    def test_cli_import_skips_scipy_spatial(self):
        code = ("import sys, quadplate.cli; "
                "assert 'scipy.spatial' not in sys.modules")
        src = str(pathlib.Path(__file__).parents[1] / "src")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_nodes_on_segment(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        bottom = nodes_on_segment(mesh, [0, 0], [1, 0])
        assert len(bottom) == 3
        np.testing.assert_allclose(mesh.nodes[list(bottom)][:, 1], 0.0)


class TestSchemeComparison:
    def test_element_matrices_agree_across_schemes(self):
        # straight edges: every scheme yields the bilinear transformation,
        # which is why assemble builds only the bilinear one
        parallelogram = QuadGeometry([[0, 0], [2, 0], [3, 1], [1, 1]])
        with pytest.warns(UserWarning, match="falls back"):
            assert build_scheme(parallelogram, "pascal6").fallback
        tip = QuadGeometry([[0, 0], [1, 0.25], [1, 0.25], [0, 0.5]],
                           allow_collapsed=True)
        quads = convex_quads(50, seed=7) + [parallelogram, tip]
        for index, quad in enumerate(quads):
            ref = element_matrices(build_scheme(quad, "bilinear"), MAT, RULE)
            for kind in ("serendipity8", "pascal6"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    scheme = build_scheme(quad, kind)
                em = element_matrices(scheme, MAT, RULE)
                for got, want in ((em.k, ref.k), (em.m, ref.m)):
                    assert np.abs(got - want).max() <= \
                        1e-9 * np.abs(want).max(), (index, kind)


class TestMeshConvergence:
    def test_clamped_square_converges_to_leissa(self):
        # omega a^2 sqrt(rho t / D) with a = D = rho t = 1, three nested
        # meshes: values derived from the program, and Leissa's reference
        # (NASA SP-160, 1969) within the Richardson extrapolation
        omega = []
        for size in (16, 32, 64):
            mesh = mesh_quad(UNIT_SQUARE, size, size)
            clamp_polygon_boundary(mesh, UNIT_SQUARE)
            omega.append(float(modal_analysis(mesh, MAT, RULE, count=1)
                               .omega[0]))
        np.testing.assert_allclose(
            omega, [36.062863, 36.004953, 35.990152], rtol=0, atol=5e-7)
        coarse, middle, fine = omega
        order = np.log2((coarse - middle) / (middle - fine))
        assert 1.8 <= order <= 2.2
        richardson = fine - (middle - fine) / (2.0 ** order - 1.0)
        assert richardson == pytest.approx(35.98507, abs=5e-6)
        assert richardson == pytest.approx(35.985, rel=1e-4)
