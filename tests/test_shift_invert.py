"""The sparse eigensolve (shift-invert Lanczos) against the dense ``eigh``
path, which stays the oracle, and its failures as exit code 3."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from quadplate import (
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
    return np.sqrt(np.einsum("ij,ij->j", modes, system.k @ modes)
                   / np.einsum("ij,ij->j", modes, system.m @ modes))


def assert_sparse_matches_dense(monkeypatch, lanczos, system, count,
                                rotary=False):
    dense, sparse = solve_both(monkeypatch, system, count)
    assert len(lanczos) == 1
    # With rotary inertia the dense path's shift 1e-3 ||K|| / ||M|| can
    # dwarf omega^2 (1.3e7 against 49 on the level-3 cantilever triangle),
    # and omega^2 = 1/mu - sigma then cancels digits: its omega_1 is off
    # its own modes' Rayleigh quotient by 5e-10.  Those quotients are the
    # dense oracle there.
    np.testing.assert_allclose(sparse.omega,
                               rayleigh_omega(system, dense.modes)
                               if rotary else dense.omega, rtol=1e-10)
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


@pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
@pytest.mark.parametrize("name,label,mesh", SOLVABLE_MESHES,
                         ids=[f"{n}-{l}" for n, l, _ in SOLVABLE_MESHES])
def test_sparse_path_matches_dense_on_builtin_meshes(monkeypatch, lanczos,
                                                     name, label, mesh,
                                                     rotary):
    system = constrained(mesh, rotary)
    assert_sparse_matches_dense(monkeypatch, lanczos, system,
                                min(6, system.n_dofs - 1), rotary)


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


def test_single_quad_verbs_skip_scipy_sparse():
    code = ("import sys; from quadplate.cli import main; "
            "assert main(['sectprops', '--case', 'paper-quad']) == 0; "
            "assert main(['mapcheck', '--case', 'paper-quad']) == 0; "
            "assert 'scipy.sparse' not in sys.modules")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": src})
