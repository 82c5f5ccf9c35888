"""The sparse eigensolve paths against the dense ``eigh`` path, which stays
the oracle, and their failures as exit code 3.

A system that is not solved densely takes Lanczos in standard mode on the
band Cholesky factor of K + sM (``modal._band_pairs``) when its
half-bandwidth is within ``BAND_MAX_KD``, else shift-invert Lanczos on its
sparse LU factor (``modal._shift_invert_pairs``).  The ``sparse_path``
fixture sends every such system to splu, or, in the tests parametrized
over both paths (``BOTH_SPARSE_PATHS``), to the one the test runs on.
"""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg

from quadplate import (
    BoundarySet,
    GlobalSystem,
    Mesh,
    NumericalError,
    PlateMaterial,
    apply_bcs,
    assemble,
    mesh_quad,
    modal,
    nodes_on_segment,
    solve_modes,
)
from quadplate.cases import (
    builtin_case_names,
    case_meshes,
    load_case,
    run_modal,
)
from quadplate.cli import main
from quadplate.modal import mode_shape_samples
from quadplate.quadrature import gauss_rule

from conftest import UNIT_SQUARE, csr_on_pattern
from test_modal import (
    RULE,
    assert_same_csr,
    largest_principal_sine,
    simply_supported_case,
)

MAT = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)
CLAMPED_QUAD = [[0.0, 0.0], [1.0, 0.0], [0.7929, 0.7727], [0.2394, 0.6577]]
CANTILEVER_QUAD = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.433, 0.75]]


def constrained(mesh, rotary=False, material=MAT):
    return apply_bcs(assemble(mesh, material, rotary=rotary), mesh)


MODAL_BUILTINS = [name for name in builtin_case_names()
                  if name not in ("paper-quad", "random-quad")]
BUILTIN_MESHES = [(name, label, mesh) for name in MODAL_BUILTINS
                  for label, mesh in case_meshes(load_case(name))]
#: Built-in meshes with a mode to solve for (ARPACK needs count < DOFs).
SOLVABLE_MESHES = [entry for entry in BUILTIN_MESHES
                   if constrained(entry[2]).n_dofs >= 2]


def quad_mesh(vertices, size, clamped_edges):
    case = load_case("clamped-quad")
    case.geometry["quad"].update(vertices=vertices, meshes=[[size, size]],
                                 clamped_edges=clamped_edges)
    (_, mesh), = case_meshes(case)
    return mesh


#: The band limit of ``solve_modes``, before ``sparse_path`` pins it.
BAND_MAX_KD = modal.BAND_MAX_KD

#: Runs a test once on each sparse path.
BOTH_SPARSE_PATHS = pytest.mark.parametrize("sparse_path", ["band", "splu"],
                                            indirect=True)


@pytest.fixture(autouse=True)
def sparse_path(request, monkeypatch):
    """Sends every system that is not solved densely to ``splu``, or, with
    the parameter "band", each of half-bandwidth within ``BAND_MAX_KD`` to
    the band path, and counts per ``eigsh`` call of that path its operator
    applications: ``OPinv`` solves on splu, products with C = L^-1 M L^-T
    on the band path, whose every call must be a standard-mode one.  Calls
    of the other path run uncounted."""
    splu = getattr(request, "param", "splu") == "splu"
    if splu:
        monkeypatch.setattr(modal, "BAND_MAX_KD", -1)
    real = scipy.sparse.linalg.eigsh
    counts = []

    def counted(op):
        def apply(x):
            counts[-1] += 1
            return op.matvec(x)
        return scipy.sparse.linalg.LinearOperator(op.shape, matvec=apply,
                                                  dtype=float)

    def counting_eigsh(a, count, *args, **kwargs):
        if ("OPinv" in kwargs) != splu:
            return real(a, count, *args, **kwargs)
        counts.append(0)
        if splu:
            return real(a, count, *args,
                        **{**kwargs, "OPinv": counted(kwargs["OPinv"])})
        assert not args and set(kwargs) == {"which", "v0"} \
            and kwargs["which"] == "LA"
        return real(counted(a), count, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    return counts


def solve_both(monkeypatch, system, count):
    """(dense, sparse) spectra of one system, each path forced."""
    spectra = []
    for dense in (True, False):
        monkeypatch.setattr(modal, "_solves_densely",
                            lambda n, k, dense=dense: dense)
        spectra.append(solve_modes(system, count))
    return spectra


def rayleigh_omega(system, modes):
    """Square roots of the modes' Rayleigh quotients, every product and
    sum in long double."""
    v = modes.astype(np.longdouble)
    k, m = (a.toarray().astype(np.longdouble) for a in (system.k, system.m))
    return np.sqrt(np.einsum("ij,ij->j", v, k @ v)
                   / np.einsum("ij,ij->j", v, m @ v)).astype(float)


def assert_sparse_matches_dense(monkeypatch, counts, system, count):
    dense, sparse = solve_both(monkeypatch, system, count)
    assert len(counts) == 1
    np.testing.assert_allclose(sparse.omega, dense.omega, rtol=1e-10)
    assert np.all(sparse.residuals <= 1e-8)
    gram = sparse.modes.T @ (system.m @ sparse.modes)
    np.testing.assert_allclose(gram, np.eye(count), rtol=0.0, atol=1e-10)
    again = solve_modes(system, count)
    assert np.array_equal(again.omega, sparse.omega)
    assert np.array_equal(again.modes, sparse.modes)
    assert np.array_equal(again.residuals, sparse.residuals)


def record_paths(monkeypatch):
    """Restores the band limit and records, in order, which sparse pair
    function each ``solve_modes`` call runs."""
    monkeypatch.setattr(modal, "BAND_MAX_KD", BAND_MAX_KD)
    taken = []
    for name, path in (("_band_pairs", "band"),
                       ("_shift_invert_pairs", "splu")):
        def recording(*args, real=getattr(modal, name), path=path):
            taken.append(path)
            return real(*args)
        monkeypatch.setattr(modal, name, recording)
    return taken


def banded_system(kd, n=402):
    """A diagonal pencil with one symmetric pair of entries kd apart, which
    M stores as 0.0."""
    k = np.diag(np.arange(1.0, n + 1))
    k[0, kd] = k[kd, 0] = 0.5
    k, m = csr_on_pattern(k != 0.0, k, np.eye(n))
    return GlobalSystem(k=k, m=m, dof_map=np.arange(n).reshape(-1, 3),
                        scale=1.0)


def test_dispatch_rule(monkeypatch):
    assert modal._solves_densely(modal.DENSE_MAX_DOFS, 6)
    assert not modal._solves_densely(modal.DENSE_MAX_DOFS + 1, 6)
    assert modal._solves_densely(400, 81)
    assert not modal._solves_densely(400, 80)
    # past the dense rule, K + sM of half-bandwidth BAND_MAX_KD takes the
    # band Cholesky path and one more splu
    taken = record_paths(monkeypatch)
    for kd in (BAND_MAX_KD, BAND_MAX_KD + 1):
        system = banded_system(kd)
        assert modal._half_bandwidth(system.k) == kd
        solve_modes(system, 6)
    assert taken == ["band", "splu"]
    # the 16x16 lattice meshes of modal-medium take the band path
    for vertices, edges in ((CLAMPED_QUAD, [0, 1, 2, 3]),
                            (CANTILEVER_QUAD, [0])):
        system = constrained(quad_mesh(vertices, 16, edges))
        assert modal._half_bandwidth(system.k) <= BAND_MAX_KD


@pytest.mark.parametrize("rotary", [False, True], ids=["default", "rotary"])
def test_builtin_meshes_solve_densely(monkeypatch, rotary):
    # the dense limit is the largest built-in mesh, so every built-in
    # output comes from the dense path
    assert max(constrained(mesh).n_dofs for _, _, mesh in BUILTIN_MESHES) \
        == modal.DENSE_MAX_DOFS
    taken = record_paths(monkeypatch)
    for name in MODAL_BUILTINS:
        run_modal(load_case(name, overrides={"rotary": rotary}))
    assert taken == []


def test_scattered_numbering_takes_splu(monkeypatch):
    # an explicit 12x12 mesh of the clamped skew quad with its nodes
    # numbered at random: K + sM spans nearly the whole matrix, so the
    # sparse path factors it by splu and never allocates a band
    lattice = mesh_quad(CLAMPED_QUAD, 12, 12)
    order = np.random.default_rng(5).permutation(lattice.n_nodes)
    mesh = Mesh(nodes=lattice.nodes[order],
                elements=np.argsort(order)[lattice.elements])
    for e in range(4):
        nodes = nodes_on_segment(mesh, CLAMPED_QUAD[e],
                                 CLAMPED_QUAD[(e + 1) % 4])
        mesh.boundary_sets[f"edge{e}"] = BoundarySet("clamped", nodes)
    system = constrained(mesh)
    n = system.n_dofs
    kd = modal._half_bandwidth(system.k)
    assert n > modal.DENSE_MAX_DOFS and kd > BAND_MAX_KD
    taken = record_paths(monkeypatch)
    sparse = solve_modes(system, 6)
    tracemalloc.start()
    try:
        solve_modes(system, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taken == ["splu", "splu"]
    # measured 0.49 MB; the band storage alone would take 0.98 MB
    assert peak < 8 * (kd + 1) * n
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: True)
    np.testing.assert_allclose(sparse.omega, solve_modes(system, 6).omega,
                               rtol=1e-10)


@pytest.fixture
def dense_pencils(monkeypatch):
    """Forces the dense path and records the (M, K + sM) of each ``eigh``
    call."""
    real = scipy.linalg.eigh
    pencils = []

    def recording_eigh(a, b, **kwargs):
        pencils.append((a.copy(), b.copy()))
        return real(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: True)
    return pencils


def assert_dense_pencil_is_sparse_sum(dense_pencils, system, count):
    solve_modes(system, count)
    (a, b), = dense_pencils
    k, m, s = system.k, system.m, system.scale
    for got, want in ((a, m.toarray()), (b, (k + s * m).toarray())):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
@pytest.mark.parametrize("name,label,mesh", SOLVABLE_MESHES,
                         ids=[f"{n}-{l}" for n, l, _ in SOLVABLE_MESHES])
def test_dense_pencil_is_the_sparse_sum(dense_pencils, name, label, mesh,
                                        rotary):
    system = constrained(mesh, rotary)
    assert_dense_pencil_is_sparse_sum(dense_pencils, system,
                                      min(6, system.n_dofs))


def test_dense_pencil_keeps_signed_zeros_of_sparse_sum(monkeypatch,
                                                      dense_pencils):
    # stored 0.0 and -0.0 in K, M or both, and a sum that cancels exactly
    # (0.5 + 2 * -0.25), which the sparse sum drops; the splu path factors
    # the arrays of the sparse sum
    stored = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1]], dtype=bool)
    k, m = csr_on_pattern(
        stored, np.array([[2.0, 0.5, -0.0], [0.5, 3.0, -0.0], [0, -0.0, 1.0]]),
        np.array([[1.0, -0.25, -0.0], [-0.25, 1.0, 0.0], [0, 0.0, 2.0]]))
    system = GlobalSystem(k=k, m=m, dof_map=np.array([[0, 1, 2]]), scale=2.0)
    shifted = k + 2.0 * m
    assert shifted.nnz < 8 and np.signbit(shifted.toarray()).sum() == 0
    assert_dense_pencil_is_sparse_sum(dense_pencils, system, 2)
    real = scipy.sparse.linalg.splu
    factored = []

    def recording_splu(a, **kwargs):
        factored.append(a)
        return real(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: False)
    solve_modes(system, 2)
    (got,) = factored
    assert_same_csr(got, shifted.tocsc())


@BOTH_SPARSE_PATHS
@pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
@pytest.mark.parametrize("name,label,mesh", SOLVABLE_MESHES,
                         ids=[f"{n}-{l}" for n, l, _ in SOLVABLE_MESHES])
def test_sparse_path_matches_dense_on_builtin_meshes(monkeypatch,
                                                     sparse_path, name, label,
                                                     mesh, rotary):
    system = constrained(mesh, rotary)
    assert_sparse_matches_dense(monkeypatch, sparse_path, system,
                                min(6, system.n_dofs - 1))


def cantilever_isosceles_level_3():
    (mesh,) = [mesh for name, label, mesh in BUILTIN_MESHES
               if (name, label) == ("cantilever-isosceles", "27-elements")]
    return mesh


def test_dense_omega_is_the_rayleigh_quotient_of_its_mode(monkeypatch):
    # the collapsed-tip elements are stiff, and the dense eigenvalue
    # 1/nu - s lands up to 1e-10 off the quotient here (rotary inertia)
    system = constrained(cantilever_isosceles_level_3(), rotary=True)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: True)
    spectrum = solve_modes(system, 6)
    np.testing.assert_allclose(spectrum.omega,
                               rayleigh_omega(system, spectrum.modes),
                               rtol=1e-12)


@BOTH_SPARSE_PATHS
@pytest.mark.parametrize("vertices,edges", [
    (CLAMPED_QUAD, [0, 1, 2, 3]), (CANTILEVER_QUAD, [0]),
    # D4-symmetric: the (2, 2) mode and its kin share no symmetry class
    # with a constant start vector
    (UNIT_SQUARE, [0, 1, 2, 3])],
    ids=["clamped-quad-16x16", "cantilever-quad-16x16",
         "clamped-square-16x16"])
def test_sparse_path_matches_dense_on_16x16(monkeypatch, sparse_path,
                                            vertices, edges):
    system = constrained(quad_mesh(vertices, 16, edges))
    assert not modal._solves_densely(system.n_dofs, 6)
    assert_sparse_matches_dense(monkeypatch, sparse_path, system, 6)


@pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
@pytest.mark.parametrize("vertices,edges", [
    (CLAMPED_QUAD, [0, 1, 2, 3]), (CANTILEVER_QUAD, [0]),
    (UNIT_SQUARE, [0, 1, 2, 3])],
    ids=["clamped-quad-16x16", "cantilever-quad-16x16",
         "clamped-square-16x16"])
def test_mass_operator_matches_sparse_mass(monkeypatch, vertices, edges,
                                           rotary):
    # the solver hands eigsh M as a bare matvec; the sparse M itself must
    # give the same bits
    system = constrained(quad_mesh(vertices, 16, edges), rotary)
    assert not modal._solves_densely(system.n_dofs, 6)
    real = scipy.sparse.linalg.eigsh
    pairs = []

    def both(k, count, m, **kwargs):
        assert isinstance(m, scipy.sparse.linalg.LinearOperator)
        got = real(k, count, m, **kwargs)
        pairs.append((got, real(k, count, system.m, **kwargs)))
        return got

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", both)
    solve_modes(system, 6)
    (got, want), = pairs
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("build,rotary,sparse,rigid", [
    (lambda: quad_mesh(CLAMPED_QUAD, 16, [0, 1, 2, 3]), False, True, 0),
    (cantilever_isosceles_level_3, False, False, 0),
    (cantilever_isosceles_level_3, True, False, 0),
    (lambda: mesh_quad(UNIT_SQUARE, 16, 16), False, True, 3)],
    ids=["clamped-quad-16x16", "cantilever-isosceles-level-3",
         "cantilever-isosceles-level-3-rotary", "free-square-16x16"])
def test_rayleigh_quotient_bits(build, rotary, sparse, rigid):
    # solve_modes' long-double K and M share the index arrays of K and M
    # and multiply one mode at a time; omega and the residuals are those
    # of a.astype(np.longdouble) @ modes, bit for bit, on either path
    system = constrained(build(), rotary)
    assert modal._solves_densely(system.n_dofs, 6) != sparse
    spectrum = solve_modes(system, 6)
    v = spectrum.modes
    wide = v.astype(np.longdouble)
    kv, mv = (a.astype(np.longdouble) @ wide for a in (system.k, system.m))
    omega_sq = (np.einsum("ij,ij->j", wide, kv)
                / np.einsum("ij,ij->j", wide, mv)).astype(float)
    assert np.all(np.diff(omega_sq) >= 0.0)
    assert np.count_nonzero(omega_sq <= 1e-10 * omega_sq[-1]) == rigid
    omega_sq = np.clip(omega_sq, 0.0, None)
    kv, mv = kv.astype(float), mv.astype(float)
    scale_k = float(np.linalg.norm(system.k.data))
    residuals = np.array([
        float(np.linalg.norm(kv[:, j] - omega_sq[j] * mv[:, j]))
        / max(float(np.linalg.norm(kv[:, j])),
              1e-8 * scale_k * float(np.linalg.norm(v[:, j])))
        for j in range(6)])
    for got, want in ((spectrum.omega, np.sqrt(omega_sq)),
                      (spectrum.residuals, residuals)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@BOTH_SPARSE_PATHS
def test_free_square_rigid_modes(monkeypatch, sparse_path):
    system = constrained(mesh_quad(UNIT_SQUARE, 16, 16))
    dense, sparse = solve_both(monkeypatch, system, 6)
    assert len(sparse_path) == 1
    for spectrum in (dense, sparse):
        assert np.all(spectrum.omega[:3] ** 2
                      <= 1e-10 * spectrum.omega[3] ** 2)
        assert spectrum.omega[3] > 1.0
    np.testing.assert_allclose(sparse.omega[3:], dense.omega[3:], rtol=1e-10)
    gram = sparse.modes.T @ (system.m @ sparse.modes)
    np.testing.assert_allclose(gram, np.eye(6), rtol=0.0, atol=1e-10)
    # the same rigid subspace: the dense rigid modes lie in the sparse span
    rigid = sparse.modes[:, :3]
    projected = rigid @ (rigid.T @ (system.m @ dense.modes[:, :3]))
    np.testing.assert_allclose(projected, dense.modes[:, :3], atol=1e-8)


@BOTH_SPARSE_PATHS
def test_free_square_double_modes(monkeypatch, sparse_path):
    # 12 modes of the free 12x12 square (507 DOFs): three rigid ones and
    # the double pairs at 35.059656 and 62.657263, both copies of each; with
    # tol=1e-10 eigsh on splu returned one copy of the second pair and
    # 79.245949 in place of the other, each residual within 7.1e-10
    system = constrained(mesh_quad(UNIT_SQUARE, 12, 12))
    assert system.n_dofs == 507
    dense, sparse = solve_both(monkeypatch, system, 12)
    assert len(sparse_path) == 1
    for spectrum in (dense, sparse):
        assert np.all(spectrum.omega[:3] <= 1e-5 * spectrum.omega[3])
    np.testing.assert_allclose(sparse.omega[3:], dense.omega[3:], rtol=1e-10)
    for pair, value in ((slice(6, 8), 35.059656), (slice(8, 10), 62.657263)):
        for spectrum in (dense, sparse):
            np.testing.assert_allclose(spectrum.omega[pair], value, rtol=1e-7)


@BOTH_SPARSE_PATHS
@pytest.mark.parametrize("size", [2, 4])
def test_semidefinite_mass(monkeypatch, sparse_path, size):
    # consistent mass without rotary inertia has element rank 3, so M of a
    # free size x size square has 3 size^2 finite modes; one more is an
    # infinite-frequency mode (nu = 0; on splu at 2x2, one without mass),
    # which the dense path and each sparse one reject
    system = constrained(mesh_quad(UNIT_SQUARE, size, size))
    finite = 3 * size * size
    assert np.linalg.matrix_rank(system.m.toarray()) == finite
    for dense in (True, False):
        monkeypatch.setattr(modal, "_solves_densely",
                            lambda n, k, dense=dense: dense)
        with pytest.raises(NumericalError, match="semidefinite mass"):
            solve_modes(system, finite + 1)
    assert len(sparse_path) == 1


@pytest.mark.parametrize("size,count", [(1, 3), (2, 12)])
def test_inaccurate_modes_raise(monkeypatch, size, count):
    # every finite mode of a free square: Lanczos returns residuals of 1.5
    # (one element) and 8.8e-4 (2x2), the dense path 7e-9 and 1.3e-9
    system = constrained(mesh_quad(UNIT_SQUARE, size, size))
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: False)
    with pytest.raises(NumericalError, match="eigen-residual"):
        solve_modes(system, count)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: True)
    spectrum = solve_modes(system, count)
    assert spectrum.residuals.max() <= 1e-8


@BOTH_SPARSE_PATHS
@pytest.mark.parametrize("factor", [1e6, 1e-6])
def test_stiffness_scale_leaves_iterations_unchanged(sparse_path, factor):
    # the shift follows D / (rho t L^4), so scaling E scales the whole
    # shifted spectrum, K + sM by factor and C = L^-1 M L^-T by 1 / factor:
    # Lanczos takes the same steps
    mesh = quad_mesh(CLAMPED_QUAD, 12, [0, 1, 2, 3])
    scaled_material = PlateMaterial(E=MAT.E * factor, nu=MAT.nu, t=MAT.t,
                                    rho=MAT.rho)
    base = solve_modes(constrained(mesh), 6)
    scaled = solve_modes(constrained(mesh, material=scaled_material), 6)
    assert len(sparse_path) == 2 and sparse_path[0] == sparse_path[1]
    np.testing.assert_allclose(scaled.omega, np.sqrt(factor) * base.omega,
                               rtol=1e-12)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "band"])
def test_indefinite_pencil_on_both_paths(monkeypatch, dense):
    # a shift past -omega_1^2 leaves K + sM indefinite: dpbtrf stops at a
    # non-positive pivot, with the dense path's message
    monkeypatch.setattr(modal, "BAND_MAX_KD", BAND_MAX_KD)
    system = constrained(quad_mesh(CLAMPED_QUAD, 12, [0, 1, 2, 3]))
    shifted = GlobalSystem(k=system.k, m=system.m, dof_map=system.dof_map,
                           scale=-2.0 * solve_modes(system, 1).omega[0] ** 2)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: dense)
    with pytest.raises(NumericalError,
                       match="K \\+ sM is not positive definite at s = -"):
        solve_modes(shifted, 6)


@pytest.mark.parametrize("name,source,key,size,bound", [
    ("clamped-quad", "quad", "meshes", [16, 16], 5e-13),
    ("cantilever-isosceles", "triangle", "levels", 7, 3e-8)],
    ids=["clamped-quad-16x16", "cantilever-isosceles-level-7"])
@pytest.mark.parametrize("rotary", [False, True], ids=["default", "rotary"])
def test_mode_shapes_match_splu_path(monkeypatch, name, source, key, size,
                                     bound, rotary):
    # the four modes of the recorded shape digests: largest difference
    # over the largest sample, measured at most 2.5e-13 (16x16) and
    # 1.33e-8 (level 7) over OpenBLAS kernels Prescott to SkylakeX and
    # 1, 2 and 4 threads; bounded at about twice.  The collapsed-tip
    # level-7 mesh fixes its mode vectors only to about 1e-8: the true
    # relative residual |K phi - omega^2 M phi| / |K phi| of mode 1 is
    # 4e-7 on the band path, 1.2e-6 on splu and 5.4e-7 dense
    case = load_case(name)
    case.geometry[source][key] = [size]
    (_, mesh), = case_meshes(case)
    system = apply_bcs(assemble(mesh, case.material, gauss_rule(3), rotary),
                       mesh)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: False)
    samples = []
    for limit in (BAND_MAX_KD, -1):
        monkeypatch.setattr(modal, "BAND_MAX_KD", limit)
        modes = solve_modes(system, 4).modes
        samples.append(mode_shape_samples(system, modes))
    got, want = samples
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("sparse_path", ["band"], indirect=True)
def test_navier_square_pair_subspaces(monkeypatch, sparse_path):
    # the square's double pairs, modes 2-3 and 5-6, span the dense pairs'
    # subspaces to a largest principal angle of 5.6e-14 ... 1.32e-13
    # (OpenBLAS kernels Prescott to SkylakeX, 1, 2 and 4 threads);
    # bounded at about twice the largest
    case = simply_supported_case(UNIT_SQUARE, [[16, 16]])
    (_, mesh), = case_meshes(case)
    reduced = apply_bcs(assemble(mesh, case.material, RULE), mesh)
    dense, sparse = solve_both(monkeypatch, reduced, 6)
    assert len(sparse_path) == 1
    np.testing.assert_allclose(dense.omega, sparse.omega, rtol=1e-10,
                               atol=0)
    for pair in ([1, 2], [4, 5]):
        assert largest_principal_sine(
            dense.modes[:, pair], sparse.modes[:, pair], reduced.m) \
            <= 2.7e-13, pair


@pytest.fixture
def sparse_case(tmp_path):
    """A clamped skew quad on 12x12 elements (363 DOFs, half-bandwidth
    38: the band path unless ``sparse_path`` sends it to splu)."""
    doc = {
        "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
        "geometry": {"quad": {"vertices": CLAMPED_QUAD, "meshes": [[12, 12]],
                              "clamped_edges": [0, 1, 2, 3]}},
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    return str(path)


def no_convergence(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence(
        "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))


def singular_factor(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def not_positive_definite(ab, **kwargs):
    return ab, 7


def fake_eigenvalues(values):
    """An ``eigsh`` that returns ``values``: omega^2 on splu, nu on the band
    path."""
    def eigsh(a, count, *args, **kwargs):
        return np.array(values, dtype=float), np.ones((a.shape[0], count))
    return eigsh


@pytest.mark.parametrize("sparse_path,module,target,replacement,message", [
    ("band", scipy.linalg.lapack, "dpbtrf", not_positive_definite,
     "K + sM is not positive definite"),
    ("band", scipy.sparse.linalg, "eigsh", no_convergence,
     "band Lanczos failed"),
    ("band", scipy.sparse.linalg, "eigsh",
     fake_eigenvalues([1.0, np.nan, 3.0, 4.0, 5.0, 6.0]),
     "non-finite eigenvalue"),
    ("band", scipy.sparse.linalg, "eigsh",
     fake_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0, 0.0]), "infinite-frequency"),
    ("splu", scipy.sparse.linalg, "eigsh", no_convergence,
     "shift-invert Lanczos failed"),
    ("splu", scipy.sparse.linalg, "splu", singular_factor,
     "K - sigma M is singular"),
    ("splu", scipy.sparse.linalg, "eigsh",
     fake_eigenvalues([1.0, np.nan, 3.0, 4.0, 5.0, 6.0]),
     "non-finite eigenvalue"),
    ("splu", scipy.sparse.linalg, "eigsh",
     fake_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0, 1e20]), "infinite-frequency"),
], indirect=["sparse_path"], ids=[
    "band-not-positive-definite", "band-no-convergence", "band-non-finite",
    "band-infinite-mode", "splu-no-convergence", "splu-singular-factor",
    "splu-non-finite", "splu-infinite-mode"])
def test_sparse_failure_exit_three(monkeypatch, capsys, sparse_case,
                                   sparse_path, module, target, replacement,
                                   message):
    monkeypatch.setattr(module, target, replacement)
    assert main(["modal", "--case", sparse_case]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quadplate: numerical failure: ")
    assert message in captured.err


def test_single_quad_verbs_load_no_scipy():
    # the dense eigensolve imports scipy.linalg on its first call
    code = "\n".join([
        "import sys, quadplate",
        "from quadplate.cli import main",
        "def scipy():",
        "    return [m for m in sys.modules if m.startswith('scipy')]",
        "assert scipy() == [], scipy()",
        "assert main(['sectprops', '--case', 'paper-quad']) == 0",
        "assert main(['mapcheck', '--case', 'paper-quad']) == 0",
        "assert scipy() == [], scipy()",
        "assert main(['modal', '--case', 'clamped-quad']) == 0",
        "assert 'scipy.linalg' in sys.modules"])
    src = str(pathlib.Path(__file__).parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": src})


def test_single_quad_verbs_skip_scipy_sparse():
    code = ("import sys; from quadplate.cli import main; "
            "assert main(['sectprops', '--case', 'paper-quad']) == 0; "
            "assert main(['mapcheck', '--case', 'paper-quad']) == 0; "
            "assert 'scipy.sparse' not in sys.modules")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": src})
