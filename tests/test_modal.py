import contextlib
import functools
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import bsr_array, csr_array

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
    frequency_parameter,
    gauss_rule,
    mesh_quad,
    mesh_triangle,
    modal_analysis,
    nodes_on_segment,
    solve_modes,
)
from quadplate import modal
from quadplate.cases import (
    builtin_case_names,
    case_meshes,
    load_case,
    parse_case,
    run_modal,
)
from quadplate.mapping import bilinear_jacobians
from quadplate.modal import _BlockPattern, _element_geometry, _transforms
from quadplate.plate_element import batch_element_matrices

from conftest import (
    BIUNIT_SQUARE,
    SECTION_QUAD,
    UNIT_SQUARE,
    apply_bcs_by_slicing,
    convex_quads,
    csr_on_pattern,
    element_transform,
)
from oracles import element_mass, element_matrices, element_stiffness

MAT = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)
RULE = gauss_rule(3)
TIP = [[0, 0], [1, 0.25], [1, 0.25], [0, 0.5]]
#: SHA-256 digests of structured mesh arrays, recorded from the
#: coordinate-merging mesh generator that the lattice one replaced.
RECORDED_MESHES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "mesh_arrays.json").read_text())
#: SHA-256 digests of the raw CSR arrays (``indptr`` and ``indices`` as
#: int64, ``data``) of K and M from ``assemble``, and of the JSON of four
#: modes' ``mode_shape_samples``, recorded with BLAS on one thread from
#: the assembly that built each chunk's geometry in an ``_ElementBatch``.
RECORDED_ASSEMBLY = json.loads(
    (pathlib.Path(__file__).parent / "data" / "assembly_digests.json")
    .read_text())

#: Prints the digests of ``RECORDED_ASSEMBLY``: the clamped-quad built-in
#: at 16x16 and 40x40 (two assembly chunks) and the cantilever-isosceles
#: one at level 7, Gauss 3 and 5, default and rotary; mode shapes at
#: Gauss 3 on the 16x16 and level-7 meshes, solved on the splu path.
ASSEMBLY_DIGEST_CODE = """
import hashlib, json
import numpy as np
from quadplate import modal
from quadplate.cases import case_meshes, load_case
from quadplate.modal import apply_bcs, assemble, mode_shape_samples, solve_modes
from quadplate.quadrature import gauss_rule

# recorded on the splu path, which the band Cholesky path matches only to
# round-off in the mode bits
modal.BAND_MAX_KD = -1

def sha(data):
    return hashlib.sha256(data).hexdigest()

digests = {}
for name, source, key, sizes in (
        ("clamped-quad", "quad", "meshes", [[16, 16], [40, 40]]),
        ("cantilever-isosceles", "triangle", "levels", [7])):
    case = load_case(name)
    case.geometry[source][key] = sizes
    for label, mesh in case_meshes(case):
        entry = digests.setdefault(f"{name} {label}", {})
        for order in (3, 5):
            for rotary in (False, True):
                system = assemble(mesh, case.material, gauss_rule(order),
                                  rotary)
                tag = entry.setdefault(
                    f"gauss{order}-{'rotary' if rotary else 'default'}", {})
                for matrix in ("k", "m"):
                    csr = getattr(system, matrix)
                    for array in ("indptr", "indices"):
                        tag[f"{matrix}.{array}"] = sha(
                            getattr(csr, array).astype(np.int64).tobytes())
                    tag[f"{matrix}.data"] = sha(csr.data.tobytes())
                if order == 3 and label != "40x40":
                    reduced = apply_bcs(system, mesh)
                    modes = solve_modes(reduced, 4).modes
                    tag["shapes"] = sha(json.dumps(
                        mode_shape_samples(reduced, modes).tolist())
                        .encode())
print(json.dumps(digests, indent=1, sort_keys=True))
"""


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
        t = element_transform(scheme)
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


@pytest.fixture(scope="module")
def assembly_digests():
    """``ASSEMBLY_DIGEST_CODE`` run in a child process with BLAS on one
    thread, as recorded: the mode vectors follow the BLAS thread count to
    the last bit."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    one_thread = dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    done = subprocess.run(
        [sys.executable, "-c", ASSEMBLY_DIGEST_CODE], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, **one_thread})
    return json.loads(done.stdout)


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
        # element, and each element entry's slot in it: a BSR array whose
        # data are the block slot numbers, converted to CSR, holds at each
        # entry's CSR slot that entry's block slot
        ndof = 3 * mesh.n_nodes
        dofs = (3 * mesh.elements[:, :, None] + np.arange(3)).reshape(-1, 12)
        index = (dofs[:, :, None] * ndof + dofs[:, None, :]).ravel()
        flat, slot = np.unique(index, return_inverse=True)
        rows, cols = np.divmod(flat, ndof)
        pattern = _BlockPattern.of(mesh.elements, mesh.n_nodes)
        numbers = bsr_array(
            (np.arange(flat.size, dtype=float).reshape(-1, 3, 3),
             pattern.indices, pattern.indptr), shape=(ndof, ndof)).tocsr()
        assert np.array_equal(numbers.indptr,
                              np.searchsorted(rows, np.arange(ndof + 1)))
        assert np.array_equal(numbers.indices, cols)
        assert np.array_equal(np.sort(numbers.data), np.arange(flat.size))
        assert np.array_equal(numbers.data[slot.ravel()],
                              pattern.slots().ravel())
        system = assemble(mesh, MAT, rule=RULE)
        assert np.shares_memory(system.k.indices, system.m.indices)
        assert np.shares_memory(system.k.indptr, system.m.indptr)

    @pytest.mark.parametrize("chunk", [modal._ASSEMBLY_CHUNK, 5])
    @pytest.mark.parametrize("mesh", [
        mesh_quad([[0, 0], [1, 0], [0.7929, 0.7727], [0.2394, 0.6577]], 9, 7),
        mesh_triangle([[0, 0], [1, 0.25], [0, 0.5]], 3),
    ], ids=["clamped-quad-9x7", "cantilever-isosceles-level-3"])
    def test_renumbered_nodes_assemble_to_the_same_bits(self, monkeypatch,
                                                        mesh, chunk):
        # every entry sums the same contributions in the same element
        # order under any node numbering; the triangle's collapsed tips
        # take the long-double kernel
        monkeypatch.setattr(modal, "_ASSEMBLY_CHUNK", chunk)
        order = np.random.default_rng(chunk).permutation(mesh.n_nodes)
        renumbered = Mesh(nodes=mesh.nodes[order],
                          elements=np.argsort(order)[mesh.elements])
        want = assemble(mesh, MAT, rule=RULE, rotary=True)
        got = assemble(renumbered, MAT, rule=RULE, rotary=True)
        # DOF 3 * order[a] + i of the mesh is DOF 3 * a + i renumbered
        back = np.argsort((3 * order[:, None] + np.arange(3)).ravel())
        for a, b in ((got.k, want.k), (got.m, want.m)):
            a = a[back][:, back]
            a.sort_indices()
            assert a.nnz == b.nnz
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data.view(np.uint64),
                                  b.data.view(np.uint64))

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
        _, coeffs, fractions, blocks, _ = _element_geometry(mesh.nodes,
                                                            mesh.elements)
        jac, det = bilinear_jacobians(coeffs, rule.tensor_points)
        t = _transforms(blocks)
        for rotary in (False, True):
            k, m = batch_element_matrices(jac, det, fractions, MAT, rule,
                                          rotary=rotary)
            k = np.swapaxes(t, 1, 2) @ k @ t
            m = np.swapaxes(t, 1, 2) @ m @ t
            for index, quad in enumerate(quads):
                scheme = build_scheme(quad, "bilinear")
                ts = element_transform(scheme)
                assert_relative(t[index], ts, 1e-12, index)
                ks = ts.T @ element_stiffness(scheme, MAT, rule) @ ts
                ms = ts.T @ element_mass(scheme, MAT, rule, rotary) @ ts
                assert_relative(k[index], ks, 1e-12, (index, rotary))
                assert_relative(m[index], ms, 1e-12, (index, rotary))

    @pytest.mark.parametrize("mesh, tag", [
        (mesh, tag) for mesh in sorted(RECORDED_ASSEMBLY)
        for tag in sorted(RECORDED_ASSEMBLY[mesh])])
    def test_matches_recorded_digests(self, assembly_digests, mesh, tag):
        assert assembly_digests[mesh][tag] == RECORDED_ASSEMBLY[mesh][tag]

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
        ([[0, 1, 4, 3], [1, 2, 5, 8]], "element references a missing node"),
        ([[0, 1, 4, 3], [1, 2, 5, 4], [6, 1, 4, 7]],
         "elements 0 and 2 traverse edge (1, 4) in the same direction"),
    ], ids=["repeats", "non-adjacent", "clockwise-first", "edge", "copy",
            "unused-node", "missing-node", "edge-later-corner"])
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

    def test_conditions_on_one_node_combine_to_strongest(self):
        # a corner node lies on two edges; whatever the order of the sets,
        # the node loses the DOFs of its strongest condition
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        system = assemble(mesh, MAT)
        for strong, removed in (("clamped", 3), ("simply_supported", 1)):
            for order in ((strong, "free"), ("free", strong)):
                mesh.boundary_sets = {name: BoundarySet(condition, (0,))
                                      for name, condition in zip("ab", order)}
                reduced = apply_bcs(system, mesh)
                assert reduced.n_dofs == system.n_dofs - removed
                np.testing.assert_array_equal(
                    reduced.dof_map[0] < 0, np.arange(3) < removed)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValidationError):
            BoundarySet("pinned", (0,))


def assert_same_csr(got, want):
    """Same shape, index arrays of the same dtype and values, and data of
    the same bits."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def assert_constrains_as_slicing(system, mesh):
    got = apply_bcs(system, mesh)
    want = apply_bcs_by_slicing(system, mesh)
    assert_same_csr(got.k, want.k)
    assert_same_csr(got.m, want.m)
    np.testing.assert_array_equal(got.dof_map, want.dof_map)
    assert got.scale == want.scale and got.geometry is want.geometry
    return got


class TestApplyBcsMatchesSlicing:
    """``apply_bcs`` against ``k[kept][:, kept]`` (``apply_bcs_by_slicing``)."""

    @pytest.mark.parametrize("rotary", [False, True],
                             ids=["default", "rotary"])
    @pytest.mark.parametrize("name", builtin_case_names())
    def test_builtin_meshes(self, name, rotary):
        case = load_case(name)
        for _, mesh in case_meshes(case):
            assert_constrains_as_slicing(
                assemble(mesh, case.material, rotary=rotary), mesh)

    def test_free_mesh_keeps_every_entry(self):
        mesh = mesh_quad(SECTION_QUAD, 3, 3)
        system = assemble(mesh, MAT)
        reduced = assert_constrains_as_slicing(system, mesh)
        assert_same_csr(reduced.k, system.k)

    def test_all_clamped_mesh_keeps_nothing(self):
        mesh = mesh_quad(UNIT_SQUARE, 2, 2)
        mesh.boundary_sets["all"] = BoundarySet("clamped",
                                                range(mesh.n_nodes))
        reduced = assert_constrains_as_slicing(assemble(mesh, MAT), mesh)
        assert reduced.k.shape == (0, 0) and reduced.k.nnz == 0

    def test_node_under_two_conditions(self):
        mesh = mesh_quad(UNIT_SQUARE, 3, 3)
        bottom = nodes_on_segment(mesh, [0, 0], [1, 0])
        left = nodes_on_segment(mesh, [0, 0], [0, 1])
        mesh.boundary_sets = {"bottom": BoundarySet("simply_supported",
                                                    bottom),
                              "left": BoundarySet("clamped", left)}
        assert set(bottom) & set(left) == {0}
        assert_constrains_as_slicing(assemble(mesh, MAT), mesh)

    def test_stored_zeros_are_kept(self):
        case = load_case("cantilever-isosceles")
        case.geometry["triangle"]["levels"] = [3]
        [(_, mesh)] = case_meshes(case)
        system = assemble(mesh, case.material)
        reduced = assert_constrains_as_slicing(system, mesh)
        assert np.count_nonzero(reduced.k.data == 0.0) == 1

    def test_int32_indices_and_empty_rows(self):
        # int32 indices, rows that store nothing, one of them last, and
        # M's off-diagonal entries stored as 0.0
        mesh = mesh_quad(UNIT_SQUARE, 1, 1)
        mesh.boundary_sets = {"a": BoundarySet("clamped", (0,)),
                              "b": BoundarySet("simply_supported", (2,))}
        rng = np.random.default_rng(28)
        k = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.4)
        stored = (k != 0.0) | np.eye(12, dtype=bool)
        stored[[5, 11]] = False
        k, m = csr_on_pattern(stored, k, np.diag(np.arange(1.0, 13.0)))
        system = GlobalSystem(k=k, m=m, dof_map=np.arange(12).reshape(4, 3),
                              scale=1.0)
        assert system.k.indices.dtype == np.int32
        assert np.array_equal(np.diff(system.k.indptr)[[5, 11]], [0, 0])
        assert_constrains_as_slicing(system, mesh)


@pytest.mark.parametrize("k,m", [
    (csr_array(np.eye(2)), csr_array(np.ones((2, 2)))),
    (csr_array(np.eye(2)), csr_array(np.eye(2)[::-1])),
    (csr_array(np.eye(2)), csr_array(np.eye(3))),
    (csr_array(np.eye(2)).tocsc(), csr_array(np.eye(2)).tocsc()),
    (np.eye(2), np.eye(2)),
    *[(csr_array((np.ones(3), np.array(indices), np.array([0, 2, 3])),
                 shape=(2, 2)),) * 2 for indices in ([1, 0, 1], [0, 0, 1])],
], ids=["different-rows", "different-columns", "different-shapes", "csc",
        "dense",
        "unsorted-columns", "duplicate-entries"])
def test_global_system_needs_k_and_m_on_one_canonical_pattern(k, m):
    with pytest.raises(ValidationError, match="one canonical pattern"):
        GlobalSystem(k=k, m=m, dof_map=np.arange(3).reshape(1, 3), scale=1.0)


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
            system = GlobalSystem(
                *csr_on_pattern(np.ones((2, 2), dtype=bool), k, np.eye(2)),
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

    @pytest.mark.parametrize("a", [1e154, 1e-160, 1e-170])
    def test_parameter_beyond_normal_range_names_reference_length(self, a):
        # overflow, a subnormal and a parameter rounded to 0
        for normalization in ("plain", "per_pi2"):
            with pytest.raises(ValidationError, match="reference_length"):
                frequency_parameter([0.0, 3.0], a, MAT, normalization)

    def test_rigid_mode_keeps_a_zero_parameter(self):
        # omega = 0 is in range whatever the reference length
        for a in (1e154, 1e-170):
            assert frequency_parameter([0.0], a, MAT).tolist() == [0.0]
        value = frequency_parameter([0.0, 3.0], 1e-100, MAT)
        assert value[0] == 0.0
        assert value[1] == pytest.approx(3e-200, rel=1e-12)


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

    @pytest.mark.parametrize("width, size", [
        (1e-10, 2), (1e-8, 2), (1e-8, 8), (1e-8, 16)])
    def test_thin_quad_edges_are_lattice_sides(self, width, size):
        # on the first and last grid, lines width / size apart fall within
        # 1e-9 of the unit-length long edges; each edge still holds just
        # its lattice side
        mesh = mesh_quad([[0, 0], [1, 0], [1, width], [0, width]], size,
                         size)
        assert [len(edge) for edge in mesh.edges] == [size + 1] * 4
        np.testing.assert_array_equal(mesh.nodes[list(mesh.edges[0]), 1], 0)
        assemble(mesh, MAT)

    def test_thin_triangle_edges_are_lattice_sides(self):
        mesh = mesh_triangle([[0, 0], [1, 1e-10], [0, 2e-10]], 1)
        assert [len(edge) for edge in mesh.edges] == [4, 4, 2]
        assemble(mesh, MAT)

    @pytest.mark.parametrize("clockwise", [False, True])
    def test_edges_are_the_nodes_on_each_polygon_edge(self, clockwise):
        # the geometric search within 1e-9 of an edge's length, which
        # boundary sets used before, as the oracle
        def given(vertices):
            v = np.asarray(vertices, dtype=float)
            return v[::-1] if clockwise else v

        def check(mesh, v):
            assert len(mesh.edges) == len(v)
            for e, edge in enumerate(mesh.edges):
                assert edge == nodes_on_segment(mesh, v[e],
                                                v[(e + 1) % len(v)])

        def reorder():
            return pytest.warns(UserWarning, match="clockwise") \
                if clockwise else contextlib.nullcontext()

        for quad in convex_quads(8, seed=21):
            v = given(quad.vertices)
            for size in range(1, 13):
                for m, n in ((size, size), (size, 13 - size)):
                    with reorder():
                        check(mesh_quad(v, m, n), v)
        for quad in convex_quads(8, seed=22):
            v = given(quad.vertices[:3])
            for level in range(1, 5):
                with reorder():
                    check(mesh_triangle(v, level), v)
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


def levy_csc_roots(count, top=140.0):
    """The lowest frequency parameters omega a^2 sqrt(rho t / D) of the
    square clamped on two opposite edges, simply supported on the others
    (Levy solution; Leissa, NASA SP-160, 1969: 28.951 ... 129.096).

    With w = sin(m pi x) Y(y), r1,2 = sqrt(lambda +- (m pi)^2); the
    symmetric and antisymmetric frequency equations
    r2 tan(r2/2) + r1 tanh(r1/2) = 0 and r1 tan(r2/2) - r2 tanh(r1/2) = 0
    are multiplied through by cos(r2/2), so they have no poles.
    """
    def r(lam, m):
        return np.sqrt(lam + (m * np.pi) ** 2), np.sqrt(lam - (m * np.pi) ** 2)

    def symmetric(lam, m):
        r1, r2 = r(lam, m)
        return r2 * np.sin(r2 / 2) + r1 * np.tanh(r1 / 2) * np.cos(r2 / 2)

    def antisymmetric(lam, m):
        r1, r2 = r(lam, m)
        return r1 * np.sin(r2 / 2) - r2 * np.tanh(r1 / 2) * np.cos(r2 / 2)

    roots = []
    for m in range(1, int(np.sqrt(top) / np.pi) + 1):
        grid = np.linspace((m * np.pi) ** 2 + 1e-9, top, 20001)
        for equation in (symmetric, antisymmetric):
            values = equation(grid, m)
            for i in np.flatnonzero(np.sign(values[:-1])
                                    != np.sign(values[1:])):
                roots.append(brentq(equation, grid[i], grid[i + 1],
                                    args=(m,), xtol=1e-12))
    return np.sort(roots)[:count]


def navier_omega(a, b, count):
    """The lowest ``count`` omega of the simply supported a x b rectangle
    with D = rho t = 1 (Navier): pi^2 (m^2 / a^2 + n^2 / b^2)."""
    omega = sorted(np.pi ** 2 * ((m / a) ** 2 + (n / b) ** 2)
                   for m in range(1, count + 1) for n in range(1, count + 1))
    return np.array(omega[:count])


def simply_supported_case(vertices, meshes):
    """A quad simply supported on every edge, six modes per mesh, as a
    case document with the benchmark material (D = rho t = 1)."""
    return parse_case({
        "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
        "geometry": {"quad": {"vertices": vertices, "meshes": meshes,
                              "ss_edges": [0, 1, 2, 3]}},
        "analysis": {"modes": 6}})


def simply_supported_omega(vertices, meshes):
    """Six omega per mesh of ``simply_supported_case``."""
    return np.array([row["omega"] for row in run_modal(
        simply_supported_case(vertices, meshes)).tables["rows"]]) \
        .reshape(len(meshes), 6)


def largest_principal_sine(u, v, m):
    """sin of the largest principal angle between the spans of the
    M-orthonormal columns of ``u`` and ``v``: the M-norm of what of u lies
    outside span(v), accurate also for angles near round-off."""
    outside = u - v @ (v.T @ (m @ u))
    return float(np.sqrt(np.linalg.eigvalsh(outside.T @ (m @ outside))
                         .max()))


RECTANGLE = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.6], [0.0, 0.6]]


class TestMeshConvergence:
    @pytest.mark.parametrize("vertices, bound", [
        (UNIT_SQUARE, [5.6e-8, 7.8e-6, 7.8e-6, 3.6e-6, 6.8e-5, 6.8e-5]),
        (RECTANGLE, [1.94e-7, 1.3e-5, 8.6e-5, 5.4e-6, 7e-6, 3.6e-4]),
    ], ids=["square", "rectangle-1x0.6"])
    def test_simply_supported_rectangle_matches_navier(self, vertices,
                                                       bound):
        # the double pairs (1,2)/(2,1) and (1,3)/(3,1) of the square among
        # the six modes; bounds twice the measured 16x16/32x32 Richardson
        # errors (square 2.8e-8 ... 3.4e-5, rectangle 9.7e-8 ... 1.8e-4)
        a, b = np.ptp(vertices, axis=0)
        exact = navier_omega(a, b, 6)
        coarse, fine = simply_supported_omega(vertices, [[16, 16], [32, 32]])
        richardson = (4.0 * fine - coarse) / 3.0
        error = np.abs(richardson - exact) / exact
        assert np.all(error <= bound), error
        # second order: the mode-1 error ratio measured 4.00
        assert 3.9 <= (coarse[0] - exact[0]) / (fine[0] - exact[0]) <= 4.1

    def test_navier_rectangle_on_both_solve_paths(self, monkeypatch):
        monkeypatch.setattr(modal, "BAND_MAX_KD", -1)
        omega = []
        for dense in (True, False):
            monkeypatch.setattr(modal, "_solves_densely",
                                lambda n, count, dense=dense: dense)
            omega.append(simply_supported_omega(RECTANGLE, [[16, 16]]))
        np.testing.assert_allclose(*omega, rtol=1e-10, atol=0)

    def test_navier_square_on_both_solve_paths(self, monkeypatch):
        # the square's double pairs, modes 2-3 and 5-6, are each fixed only
        # as a subspace: single vectors of a pair differ between the paths
        # (by 4.6e-3 rad for modes 2-3), their spans by a largest principal
        # angle of 1.0e-14 ... 3.4e-14 (OpenBLAS kernels Prescott to
        # SkylakeX, 1-4 threads); bounded at twice the largest
        monkeypatch.setattr(modal, "BAND_MAX_KD", -1)
        case = simply_supported_case(UNIT_SQUARE, [[16, 16]])
        (_, mesh), = case_meshes(case)
        reduced = apply_bcs(assemble(mesh, case.material, RULE), mesh)
        spectra = []
        for dense in (True, False):
            monkeypatch.setattr(modal, "_solves_densely",
                                lambda n, count, dense=dense: dense)
            spectra.append(solve_modes(reduced, 6))
        dense, sparse = spectra
        np.testing.assert_allclose(dense.omega, sparse.omega, rtol=1e-10,
                                   atol=0)
        for pair in ([1, 2], [4, 5]):
            assert largest_principal_sine(
                dense.modes[:, pair], sparse.modes[:, pair], reduced.m) \
                <= 7e-14, pair

    def test_navier_square_error_constant_at_64x64(self, monkeypatch):
        # omega_1 error times N^2: 0.89443183 at 32x32 and 0.89443315 at
        # 64x64, which differ by 1.47e-6 ... 1.51e-6 relative (OpenBLAS
        # kernels Prescott, Haswell and SkylakeX, 1 and 2 threads); bounded
        # at about twice.  The 64x64 system (12,419 DOFs, half-bandwidth
        # 198) takes the band path, and splu gives the same omega_1 to
        # within 2.2e-15
        exact = 2.0 * np.pi ** 2
        (coarse, *_), = simply_supported_omega(UNIT_SQUARE, [[32, 32]])
        (fine, *_), = simply_supported_omega(UNIT_SQUARE, [[64, 64]])
        monkeypatch.setattr(modal, "BAND_MAX_KD", -1)
        (splu, *_), = simply_supported_omega(UNIT_SQUARE, [[64, 64]])
        constants = [(omega - exact) / exact * size ** 2
                     for omega, size in ((coarse, 32), (fine, 64))]
        assert constants[1] == pytest.approx(constants[0], rel=3e-6)
        assert fine == pytest.approx(splu, rel=1e-12, abs=0)

    def test_navier_square_error_constant_at_128x128(self, monkeypatch):
        # omega_1 error times N^2: 0.89443315 at 64x64 (band path) and
        # 0.89444799 ... 0.89445049 at 128x128 (49,411 DOFs, half-bandwidth
        # 390: splu), which differ by 1.66e-5 ... 1.93e-5 relative (OpenBLAS
        # kernels Prescott, Haswell and SkylakeX, 1 and 2 threads); bounded
        # at about twice.  The only lattice here that takes splu unforced
        exact = 2.0 * np.pi ** 2
        real = modal._shift_invert_pairs
        factored = []

        def recording(pencil, *args):
            factored.append(pencil.shape[0])
            return real(pencil, *args)

        monkeypatch.setattr(modal, "_shift_invert_pairs", recording)
        (coarse, *_), = simply_supported_omega(UNIT_SQUARE, [[64, 64]])
        (fine, *_), = simply_supported_omega(UNIT_SQUARE, [[128, 128]])
        assert factored == [49411]
        constants = [(omega - exact) / exact * size ** 2
                     for omega, size in ((coarse, 64), (fine, 128))]
        assert constants[1] == pytest.approx(constants[0], rel=4e-5)

    def test_navier_rectangle_independent_of_frame(self):
        # rotated by 30 degrees and moved by (2, -1): measured 1.1e-13
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        moved = np.array(RECTANGLE) @ [[c, s], [-s, c]] + [2.0, -1.0]
        np.testing.assert_allclose(
            simply_supported_omega(moved.tolist(), [[16, 16]]),
            simply_supported_omega(RECTANGLE, [[16, 16]]), rtol=1e-11, atol=0)

    def test_clamped_simply_supported_square_matches_levy(self):
        # C-S-C-S unit square from a case file: the corners lie on a
        # clamped and a simply supported edge and end up clamped
        reference = levy_csc_roots(6)
        np.testing.assert_allclose(
            reference, [28.950850, 54.743071, 69.327014, 94.585278,
                        102.216191, 129.095537], rtol=0, atol=5e-7)
        case = parse_case({
            "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
            "geometry": {"quad": {"vertices": UNIT_SQUARE,
                                  "meshes": [[16, 16], [32, 32]],
                                  "clamped_edges": [0, 2],
                                  "ss_edges": [1, 3]}},
            "analysis": {"modes": 6}})
        omega = np.array([row["omega"] for row in run_modal(case)
                          .tables["rows"]]).reshape(2, 6)
        coarse, fine = omega
        richardson = fine + (fine - coarse) / 3.0
        # 16x16/32x32, second order: errors 1.1e-5 ... 2.6e-4 measured
        error = np.abs(richardson - reference) / reference
        assert np.all(error <= [2e-5, 1.6e-5, 1.5e-4, 1.1e-4, 6e-5, 5e-4]), \
            error

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

    def test_clamped_skew_quad_converges(self):
        # the clamped-quad built-in plate, omega per pi^2 with a = 1, on
        # three nested meshes that all take the sparse eigensolve
        skew = [[0.0, 0.0], [1.0, 0.0], [0.7929, 0.7727], [0.2394, 0.6577]]
        omega = []
        for size in (16, 32, 64):
            mesh = mesh_quad(skew, size, size)
            clamp_polygon_boundary(mesh, skew)
            omega.append(float(frequency_parameter(
                modal_analysis(mesh, MAT, RULE, count=1).omega[0], 1.0, MAT,
                "per_pi2")))
        np.testing.assert_allclose(
            omega, [6.891966, 6.877550, 6.873887], rtol=0, atol=5e-7)
        coarse, middle, fine = omega
        order = np.log2((coarse - middle) / (middle - fine))
        assert 1.8 <= order <= 2.2
        richardson = fine - (middle - fine) / (2.0 ** order - 1.0)
        assert richardson == pytest.approx(6.87266, rel=1e-5)

    def test_cantilever_quad_converges(self):
        # the cantilever-quad built-in plate, clamped along its first edge,
        # omega per pi^2 with a = 1: values derived from the program, which
        # decrease monotonically towards their Richardson extrapolation
        skew = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.433, 0.75]]
        omega = []
        for size in (16, 32, 64):
            mesh = mesh_quad(skew, size, size)
            mesh.boundary_sets["edge0"] = BoundarySet(
                "clamped", nodes_on_segment(mesh, skew[0], skew[1]))
            omega.append(float(frequency_parameter(
                modal_analysis(mesh, MAT, RULE, count=1).omega[0], 1.0, MAT,
                "per_pi2")))
        np.testing.assert_allclose(
            omega, [0.5200706, 0.5200207, 0.5200115], rtol=0, atol=5e-7)
        coarse, middle, fine = omega
        assert coarse > middle > fine
        order = np.log2((coarse - middle) / (middle - fine))
        assert 2.2 <= order <= 2.7
        richardson = fine - (middle - fine) / (2.0 ** order - 1.0)
        assert richardson == pytest.approx(0.5200094, abs=1e-7)


#: Material of the invariance test: E = 1, nu = 0.3, t = rho = 1.
UNIT_MAT = PlateMaterial(E=1.0, nu=0.3, t=1.0, rho=1.0)


def clamp_edges(mesh, edges):
    mesh.boundary_sets.update(
        (f"clamped-edge-{edge}", BoundarySet("clamped", mesh.edges[edge]))
        for edge in edges)
    return mesh


def invariance_omega(mesh, material=UNIT_MAT):
    """Six omegas of ``mesh`` on the dense path."""
    reduced = apply_bcs(assemble(mesh, material, rule=RULE), mesh)
    assert reduced.n_dofs <= modal.DENSE_MAX_DOFS
    return solve_modes(reduced, 6).omega


def remade(mesh, nodes=None, elements=None, order=None):
    """``mesh`` with new node coordinates or corner lists; with ``order``,
    its node ``order[b]`` renumbered to ``b``."""
    nodes = mesh.nodes if nodes is None else nodes
    elements = mesh.elements if elements is None else elements
    sets = dict(mesh.boundary_sets)
    if order is not None:
        new = np.argsort(order)
        nodes, elements = nodes[order], new[elements]
        sets = {name: BoundarySet(entry.condition,
                                  new[list(entry.nodes)].tolist())
                for name, entry in sets.items()}
    return Mesh(nodes=nodes, elements=elements, boundary_sets=sets)


def same_plate(move):
    """A transform that moves ``mesh`` alone: (its result, the unit
    material, 1), whose omegas equal the mesh's."""
    return lambda mesh, rng: (move(mesh, rng), UNIT_MAT, 1.0)


def rotated(angle):
    c, s = np.cos(angle), np.sin(angle)
    return same_plate(lambda mesh, rng: remade(
        mesh, nodes=mesh.nodes @ np.array([[c, s], [-s, c]])))


def rolled_corners(mesh, rng):
    # element e's corner list starts 1 + e % 3 corners later, so that
    # neighbours roll by different amounts
    shift = 1 + np.arange(mesh.n_elements) % 3
    return remade(mesh, elements=mesh.elements[
        np.arange(mesh.n_elements)[:, None],
        (np.arange(4) + shift[:, None]) % 4])


def mirrored(mesh, rng):
    # x -> -x, each corner list reversed to stay counterclockwise
    return remade(mesh, nodes=mesh.nodes * [-1.0, 1.0],
                  elements=mesh.elements[:, ::-1])


def scaled(factor):
    # omega scales with 1 / length^2
    return lambda mesh, rng: (remade(mesh, nodes=factor * mesh.nodes),
                              UNIT_MAT, factor * factor)


def stiffened(factor):
    # omega scales with sqrt(E)
    return lambda mesh, rng: (remade(mesh), replace(UNIT_MAT, E=factor),
                              1.0 / np.sqrt(factor))


#: Each transform gives the moved mesh, its material and the factor that
#: takes the moved plate's omegas back to the original's; each belongs to
#: one relation, which sets its bound on each mesh.
INVARIANCE_TRANSFORMS = {
    "rotate-0.3": ("rigid", rotated(0.3)),
    "rotate-1.0": ("rigid", rotated(1.0)),
    "rotate-pi/2": ("rigid", rotated(np.pi / 2)),
    "rotate-2.5": ("rigid", rotated(2.5)),
    "translate": ("rigid", same_plate(lambda mesh, rng: remade(
        mesh, nodes=mesh.nodes + [1e3, -2e3]))),
    "renumber": ("rigid", same_plate(lambda mesh, rng: remade(
        mesh, order=rng.permutation(mesh.n_nodes)))),
    "roll-corners": ("rigid", same_plate(rolled_corners)),
    "mirror": ("mirror", same_plate(mirrored)),
    "scale-1e-3": ("scale", scaled(1e-3)),
    "scale-7": ("scale", scaled(7.0)),
    "scale-1e3": ("scale", scaled(1e3)),
    "E-1e-6": ("E", stiffened(1e-6)),
    "E-1e6": ("E", stiffened(1e6)),
}

#: Per relation, the largest relative change of the omegas that its
#: transforms may cause: ten times the largest measured, with BLAS on one
#: thread and on two.  On the quads that was 1.20e-12 (rigid, the
#: cantilever quad rotated by pi/2), 7.91e-13 (mirror), 1.31e-12 (scale,
#: by 7) and 8.20e-13 (E, times 1e-6); the clamped quad's changes all
#: stay below 5e-15.
QUAD_BOUNDS = {"rigid": 1.2e-11, "mirror": 8.0e-12, "scale": 1.4e-11,
               "E": 8.3e-12}
#: The free-tip triangle's: 4.08e-9 (rigid, rotated by 0.3), 2.00e-9
#: (mirror), 2.82e-9 (scale, by 1e3) and 2.15e-9 (E, times 1e-6).  With
#: an edge through the tip clamped instead, its largest rigid change was
#: 4.8e-13.
TRIANGLE_BOUNDS = {"rigid": 4.1e-8, "mirror": 2.1e-8, "scale": 2.9e-8,
                   "E": 2.2e-8}

#: Each mesh, and its bounds per relation.
INVARIANCE_MESHES = {
    "clamped-skew-quad-8x8": (lambda: clamp_edges(mesh_quad(
        [[0, 0], [1, 0], [0.7929, 0.7727], [0.2394, 0.6577]], 8, 8),
        [0, 1, 2, 3]), QUAD_BOUNDS),
    "cantilever-quad-8x8": (lambda: clamp_edges(mesh_quad(
        [[0, 0], [1, 0], [1, 1], [0.433, 0.75]], 8, 8), [0]), QUAD_BOUNDS),
    "cantilever-isosceles-level-3": (lambda: clamp_edges(mesh_triangle(
        [[0, 0], [1, 0.25], [0, 0.5]], 3), [2]), TRIANGLE_BOUNDS),
}


class TestMetamorphicInvariance:
    """Moving a plate rigidly, mirroring it, renumbering its nodes or
    starting each element's corner list elsewhere leaves its frequencies
    unchanged, and scaling its lengths or E scales them as the plate
    equation says, up to rounding (dense path)."""

    @staticmethod
    @functools.cache
    def base_omega(name):
        make, _ = INVARIANCE_MESHES[name]
        return invariance_omega(make())

    @pytest.mark.parametrize("transform", INVARIANCE_TRANSFORMS)
    @pytest.mark.parametrize("name", INVARIANCE_MESHES)
    def test_omega_unchanged(self, name, transform):
        make, bounds = INVARIANCE_MESHES[name]
        relation, move = INVARIANCE_TRANSFORMS[transform]
        moved, material, factor = move(make(), np.random.default_rng(18))
        base = self.base_omega(name)
        change = np.abs(invariance_omega(moved, material) * factor - base) \
            / base
        assert change.max() <= bounds[relation], change

    def test_tip_corner_rolls_assemble_to_the_generated_bits(self):
        # a collapsed element is read with its tip at corners 1 and 2, as
        # generated, whatever corner its list starts at: each of the 64
        # corner rolls of the free tip's three elements gives the same K,
        # M and omegas, and the caller's corner lists stay as given
        mesh = INVARIANCE_MESHES["cantilever-isosceles-level-3"][0]()
        want = assemble(mesh, UNIT_MAT, rule=RULE)
        assert want.geometry[0] is mesh.elements
        omega = solve_modes(apply_bcs(want, mesh), 6).omega
        tips = np.flatnonzero(mesh.elements[:, 1] == mesh.elements[:, 2])
        assert tips.size == 3
        for shifts in itertools.product(range(4), repeat=3):
            elements = mesh.elements.copy()
            elements[tips] = mesh.elements[
                tips[:, None], (np.arange(4) + np.array(shifts)[:, None]) % 4]
            rolled = remade(mesh, elements=elements.copy())
            got = assemble(rolled, UNIT_MAT, rule=RULE)
            assert np.array_equal(rolled.elements, elements)
            assert np.array_equal(got.geometry[0], mesh.elements)
            for a, b in ((got.k, want.k), (got.m, want.m)):
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.indices, b.indices)
                assert np.array_equal(a.data.view(np.uint64),
                                      b.data.view(np.uint64)), shifts
            assert np.array_equal(
                solve_modes(apply_bcs(got, rolled), 6).omega, omega)
