"""The sparse eigensolve (shift-invert Lanczos) against the dense ``eigh``
path, which stays the oracle, and its failures as exit code 3."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse import csr_array

from quadplate import (
    GlobalSystem,
    NumericalError,
    PlateMaterial,
    apply_bcs,
    assemble,
    mesh_quad,
    modal,
    solve_modes,
)
from quadplate.cases import builtin_case_names, case_meshes, load_case
from quadplate.cli import main

from conftest import UNIT_SQUARE

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


@pytest.fixture
def lanczos(monkeypatch):
    """Counts ``eigsh`` calls and the ``OPinv`` solves of each."""
    real = scipy.sparse.linalg.eigsh
    solves = []

    def counting_eigsh(*args, OPinv, **kwargs):
        solves.append(0)

        def solve(x):
            solves[-1] += 1
            return OPinv.matvec(x)

        op = scipy.sparse.linalg.LinearOperator(OPinv.shape, matvec=solve,
                                                dtype=float)
        return real(*args, OPinv=op, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    return solves


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


def assert_sparse_matches_dense(monkeypatch, lanczos, system, count):
    dense, sparse = solve_both(monkeypatch, system, count)
    assert len(lanczos) == 1
    np.testing.assert_allclose(sparse.omega, dense.omega, rtol=1e-10)
    assert np.all(sparse.residuals <= 1e-8)
    gram = sparse.modes.T @ (system.m @ sparse.modes)
    np.testing.assert_allclose(gram, np.eye(count), rtol=0.0, atol=1e-10)
    again = solve_modes(system, count)
    assert np.array_equal(again.omega, sparse.omega)
    assert np.array_equal(again.modes, sparse.modes)
    assert np.array_equal(again.residuals, sparse.residuals)


def test_dispatch_rule():
    assert modal._solves_densely(modal.DENSE_MAX_DOFS, 6)
    assert not modal._solves_densely(modal.DENSE_MAX_DOFS + 1, 6)
    assert modal._solves_densely(400, 41)
    assert not modal._solves_densely(400, 40)
    assert max(constrained(mesh).n_dofs for _, _, mesh in BUILTIN_MESHES) \
        <= modal.DENSE_MAX_DOFS


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


def test_dense_pencil_keeps_signed_zeros_of_sparse_sum(dense_pencils):
    # stored 0.0 and -0.0 in K, M or both, an entry stored in one matrix
    # only, and a sum that cancels exactly (0.5 + 2 * -0.25), which the
    # sparse sum drops
    k = csr_array((np.array([2.0, 0.5, -0.0, 0.5, 3.0, -0.0, -0.0, 1.0]),
                   np.array([0, 1, 2, 0, 1, 2, 1, 2]), np.array([0, 3, 6, 8])),
                  shape=(3, 3))
    m = csr_array((np.array([1.0, -0.25, -0.0, -0.25, 1.0, 0.0, 2.0]),
                   np.array([0, 1, 2, 0, 1, 1, 2]), np.array([0, 3, 5, 7])),
                  shape=(3, 3))
    system = GlobalSystem(k=k, m=m, dof_map=np.array([[0, 1, 2]]), scale=2.0)
    shifted = k + 2.0 * m
    assert shifted.nnz < 8 and np.signbit(shifted.toarray()).sum() == 0
    assert_dense_pencil_is_sparse_sum(dense_pencils, system, 2)


@pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
@pytest.mark.parametrize("name,label,mesh", SOLVABLE_MESHES,
                         ids=[f"{n}-{l}" for n, l, _ in SOLVABLE_MESHES])
def test_sparse_path_matches_dense_on_builtin_meshes(monkeypatch, lanczos,
                                                     name, label, mesh,
                                                     rotary):
    system = constrained(mesh, rotary)
    assert_sparse_matches_dense(monkeypatch, lanczos, system,
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


@pytest.mark.parametrize("vertices,edges", [
    (CLAMPED_QUAD, [0, 1, 2, 3]), (CANTILEVER_QUAD, [0]),
    # D4-symmetric: the (2, 2) mode and its kin share no symmetry class
    # with a constant start vector
    (UNIT_SQUARE, [0, 1, 2, 3])],
    ids=["clamped-quad-16x16", "cantilever-quad-16x16",
         "clamped-square-16x16"])
def test_sparse_path_matches_dense_on_16x16(monkeypatch, lanczos, vertices,
                                            edges):
    system = constrained(quad_mesh(vertices, 16, edges))
    assert not modal._solves_densely(system.n_dofs, 6)
    assert_sparse_matches_dense(monkeypatch, lanczos, system, 6)


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


def test_free_square_rigid_modes(monkeypatch, lanczos):
    system = constrained(mesh_quad(UNIT_SQUARE, 16, 16))
    dense, sparse = solve_both(monkeypatch, system, 6)
    assert len(lanczos) == 1
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


def test_free_square_double_modes_on_both_paths(monkeypatch, lanczos):
    # 12 modes of the free 12x12 square (507 DOFs): three rigid ones and
    # the double pairs at 35.059656 and 62.657263; with tol=1e-10 eigsh
    # returned one copy of the second pair and 79.245949 in place of the
    # other, each residual within 7.1e-10
    system = constrained(mesh_quad(UNIT_SQUARE, 12, 12))
    assert system.n_dofs == 507
    dense, sparse = solve_both(monkeypatch, system, 12)
    assert len(lanczos) == 1
    for spectrum in (dense, sparse):
        assert np.all(spectrum.omega[:3] <= 1e-5 * spectrum.omega[3])
    np.testing.assert_allclose(sparse.omega[3:], dense.omega[3:], rtol=1e-10)
    for pair, value in ((slice(6, 8), 35.059656), (slice(8, 10), 62.657263)):
        np.testing.assert_allclose(dense.omega[pair], value, rtol=1e-7)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("size", [2, 4])
def test_semidefinite_mass_on_both_paths(monkeypatch, size, dense):
    # consistent mass without rotary inertia has element rank 3, so M of a
    # free size x size square has 3 size^2 finite modes; one more is an
    # infinite-frequency mode (on the sparse 2x2 path one without mass)
    system = constrained(mesh_quad(UNIT_SQUARE, size, size))
    finite = 3 * size * size
    assert np.linalg.matrix_rank(system.m.toarray()) == finite
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: dense)
    with pytest.raises(NumericalError, match="semidefinite mass"):
        solve_modes(system, finite + 1)


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


@pytest.mark.parametrize("factor", [1e6, 1e-6])
def test_stiffness_scale_leaves_iterations_unchanged(lanczos, factor):
    # the shift follows D / (rho t L^4), so scaling E scales the whole
    # shifted spectrum and Lanczos takes the same steps
    mesh = quad_mesh(CLAMPED_QUAD, 12, [0, 1, 2, 3])
    scaled_material = PlateMaterial(E=MAT.E * factor, nu=MAT.nu, t=MAT.t,
                                    rho=MAT.rho)
    base = solve_modes(constrained(mesh), 6)
    scaled = solve_modes(constrained(mesh, material=scaled_material), 6)
    assert len(lanczos) == 2 and lanczos[0] == lanczos[1]
    np.testing.assert_allclose(scaled.omega, np.sqrt(factor) * base.omega,
                               rtol=1e-12)


@pytest.fixture
def sparse_case(tmp_path):
    """A clamped skew quad on 12x12 elements (363 DOFs, sparse path)."""
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


def fake_eigenvalues(values):
    def eigsh(k, count, m, sigma, **kwargs):
        return np.array(values, dtype=float), np.ones((k.shape[0], count))
    return eigsh


@pytest.mark.parametrize("target,replacement,message", [
    ("eigsh", no_convergence, "shift-invert Lanczos failed"),
    ("splu", singular_factor, "K - sigma M is singular"),
    ("eigsh", fake_eigenvalues([1.0, np.nan, 3.0, 4.0, 5.0, 6.0]),
     "non-finite eigenvalue"),
    ("eigsh", fake_eigenvalues([1.0, 2.0, 3.0, 4.0, 5.0, 1e20]),
     "infinite-frequency"),
], ids=["no-convergence", "singular-factor", "non-finite", "infinite-mode"])
def test_sparse_failure_exit_three(monkeypatch, capsys, sparse_case, target,
                                   replacement, message):
    monkeypatch.setattr(scipy.sparse.linalg, target, replacement)
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
