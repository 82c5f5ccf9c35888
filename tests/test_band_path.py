"""The band Cholesky eigensolve (``modal._band_pairs``: Lanczos in standard
mode on L^-1 M L^-T) against the dense ``eigh`` path, which stays the
oracle, and against the splu path; its failures as exit code 3.

Every sparse system here has a half-bandwidth within ``BAND_MAX_KD``, so
forcing the sparse path sends it to the band path.
"""

import json

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg

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
from quadplate.cases import case_meshes, load_case
from quadplate.cli import main
from quadplate.modal import mode_shape_samples
from quadplate.quadrature import gauss_rule

from conftest import UNIT_SQUARE
from test_modal import RULE, largest_principal_sine, simply_supported_case
from test_shift_invert import (
    CANTILEVER_QUAD,
    CLAMPED_QUAD,
    MAT,
    SOLVABLE_MESHES,
    constrained,
    no_convergence,
    quad_mesh,
    solve_both,
)


@pytest.fixture
def band(monkeypatch):
    """Counts ``eigsh`` calls and the products with C = L^-1 M L^-T of
    each; every call must be a standard-mode one."""
    real = scipy.sparse.linalg.eigsh
    products = []

    def counting_eigsh(c, count, **kwargs):
        assert set(kwargs) == {"which", "v0"} and kwargs["which"] == "LA"
        products.append(0)

        def product(x):
            products[-1] += 1
            return c.matvec(x)

        op = scipy.sparse.linalg.LinearOperator(c.shape, matvec=product,
                                                dtype=float)
        return real(op, count, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    return products


def assert_band_matches_dense(monkeypatch, band, system, count):
    assert modal._half_bandwidth(system.k, system.m) <= modal.BAND_MAX_KD
    dense, sparse = solve_both(monkeypatch, system, count)
    assert len(band) == 1
    np.testing.assert_allclose(sparse.omega, dense.omega, rtol=1e-10)
    assert np.all(sparse.residuals <= 1e-8)
    gram = sparse.modes.T @ (system.m @ sparse.modes)
    np.testing.assert_allclose(gram, np.eye(count), rtol=0.0, atol=1e-10)
    again = solve_modes(system, count)
    assert np.array_equal(again.omega, sparse.omega)
    assert np.array_equal(again.modes, sparse.modes)
    assert np.array_equal(again.residuals, sparse.residuals)


@pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
@pytest.mark.parametrize("name,label,mesh", SOLVABLE_MESHES,
                         ids=[f"{n}-{l}" for n, l, _ in SOLVABLE_MESHES])
def test_band_path_matches_dense_on_builtin_meshes(monkeypatch, band, name,
                                                   label, mesh, rotary):
    system = constrained(mesh, rotary)
    assert_band_matches_dense(monkeypatch, band, system,
                              min(6, system.n_dofs - 1))


@pytest.mark.parametrize("vertices,edges", [
    (CLAMPED_QUAD, [0, 1, 2, 3]), (CANTILEVER_QUAD, [0]),
    (UNIT_SQUARE, [0, 1, 2, 3])],
    ids=["clamped-quad-16x16", "cantilever-quad-16x16",
         "clamped-square-16x16"])
def test_band_path_matches_dense_on_16x16(monkeypatch, band, vertices,
                                          edges):
    system = constrained(quad_mesh(vertices, 16, edges))
    assert not modal._solves_densely(system.n_dofs, 6)
    assert_band_matches_dense(monkeypatch, band, system, 6)


def test_free_square_rigid_modes(monkeypatch, band):
    system = constrained(mesh_quad(UNIT_SQUARE, 16, 16))
    dense, sparse = solve_both(monkeypatch, system, 6)
    assert len(band) == 1
    for spectrum in (dense, sparse):
        assert np.all(spectrum.omega[:3] ** 2
                      <= 1e-10 * spectrum.omega[3] ** 2)
        assert spectrum.omega[3] > 1.0
    np.testing.assert_allclose(sparse.omega[3:], dense.omega[3:], rtol=1e-10)
    gram = sparse.modes.T @ (system.m @ sparse.modes)
    np.testing.assert_allclose(gram, np.eye(6), rtol=0.0, atol=1e-10)
    # the same rigid subspace: the dense rigid modes lie in the band span
    rigid = sparse.modes[:, :3]
    projected = rigid @ (rigid.T @ (system.m @ dense.modes[:, :3]))
    np.testing.assert_allclose(projected, dense.modes[:, :3], atol=1e-8)


def test_free_square_double_modes(monkeypatch, band):
    # 12 modes of the free 12x12 square (507 DOFs): three rigid ones and
    # the double pairs at 35.059656 and 62.657263, both copies of each
    system = constrained(mesh_quad(UNIT_SQUARE, 12, 12))
    assert system.n_dofs == 507
    dense, sparse = solve_both(monkeypatch, system, 12)
    assert len(band) == 1
    assert np.all(sparse.omega[:3] <= 1e-5 * sparse.omega[3])
    np.testing.assert_allclose(sparse.omega[3:], dense.omega[3:], rtol=1e-10)
    for pair, value in ((slice(6, 8), 35.059656), (slice(8, 10), 62.657263)):
        np.testing.assert_allclose(sparse.omega[pair], value, rtol=1e-7)


@pytest.mark.parametrize("size", [2, 4])
def test_semidefinite_mass(monkeypatch, band, size):
    # M of a free size x size square without rotary inertia has 3 size^2
    # finite modes; one more is an infinite-frequency mode, nu = 0 of C
    system = constrained(mesh_quad(UNIT_SQUARE, size, size))
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: False)
    with pytest.raises(NumericalError, match="semidefinite mass"):
        solve_modes(system, 3 * size * size + 1)
    assert len(band) == 1


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "band"])
def test_indefinite_pencil_on_both_paths(monkeypatch, dense):
    # a shift past -omega_1^2 leaves K + sM indefinite: dpbtrf stops at a
    # non-positive pivot, with the dense path's message
    system = constrained(quad_mesh(CLAMPED_QUAD, 12, [0, 1, 2, 3]))
    shifted = GlobalSystem(k=system.k, m=system.m, dof_map=system.dof_map,
                           scale=-2.0 * solve_modes(system, 1).omega[0] ** 2)
    monkeypatch.setattr(modal, "_solves_densely", lambda n, k: dense)
    with pytest.raises(NumericalError,
                       match="K \\+ sM is not positive definite at s = -"):
        solve_modes(shifted, 6)


@pytest.mark.parametrize("factor", [1e6, 1e-6])
def test_stiffness_scale_leaves_products_unchanged(band, factor):
    # the shift follows D / (rho t L^4), so scaling E scales K + sM and
    # leaves C = L^-1 M L^-T scaled by 1 / factor: Lanczos takes the
    # same steps
    mesh = quad_mesh(CLAMPED_QUAD, 12, [0, 1, 2, 3])
    scaled_material = PlateMaterial(E=MAT.E * factor, nu=MAT.nu, t=MAT.t,
                                    rho=MAT.rho)
    base = solve_modes(constrained(mesh), 6)
    scaled = solve_modes(constrained(mesh, material=scaled_material), 6)
    assert len(band) == 2 and band[0] == band[1]
    np.testing.assert_allclose(scaled.omega, np.sqrt(factor) * base.omega,
                               rtol=1e-12)


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
    for limit in (modal.BAND_MAX_KD, -1):
        monkeypatch.setattr(modal, "BAND_MAX_KD", limit)
        modes = solve_modes(system, 4).modes
        samples.append(mode_shape_samples(mesh, system, modes))
    got, want = samples
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_navier_square_pair_subspaces(monkeypatch, band):
    # the square's double pairs, modes 2-3 and 5-6, span the dense pairs'
    # subspaces to a largest principal angle of 5.6e-14 ... 1.32e-13
    # (OpenBLAS kernels Prescott to SkylakeX, 1, 2 and 4 threads);
    # bounded at about twice the largest
    case = simply_supported_case(UNIT_SQUARE, [[16, 16]])
    (_, mesh), = case_meshes(case)
    reduced = apply_bcs(assemble(mesh, case.material, RULE), mesh)
    dense, sparse = solve_both(monkeypatch, reduced, 6)
    assert len(band) == 1
    np.testing.assert_allclose(dense.omega, sparse.omega, rtol=1e-10,
                               atol=0)
    for pair in ([1, 2], [4, 5]):
        assert largest_principal_sine(
            dense.modes[:, pair], sparse.modes[:, pair], reduced.m) \
            <= 2.7e-13, pair


@pytest.fixture
def band_case(tmp_path):
    """A clamped skew quad on 12x12 elements (363 DOFs, half-bandwidth
    38: the band path)."""
    doc = {
        "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
        "geometry": {"quad": {"vertices": CLAMPED_QUAD, "meshes": [[12, 12]],
                              "clamped_edges": [0, 1, 2, 3]}},
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    return str(path)


def not_positive_definite(ab, **kwargs):
    return ab, 7


def fake_pairs(values):
    def eigsh(c, count, **kwargs):
        return np.array(values, dtype=float), np.ones((c.shape[0], count))
    return eigsh


@pytest.mark.parametrize("module,target,replacement,message", [
    (scipy.linalg.lapack, "dpbtrf", not_positive_definite,
     "K + sM is not positive definite"),
    (scipy.sparse.linalg, "eigsh", no_convergence, "band Lanczos failed"),
    (scipy.sparse.linalg, "eigsh",
     fake_pairs([1.0, np.nan, 3.0, 4.0, 5.0, 6.0]), "non-finite eigenvalue"),
    (scipy.sparse.linalg, "eigsh",
     fake_pairs([1.0, 2.0, 3.0, 4.0, 5.0, 0.0]), "infinite-frequency"),
], ids=["not-positive-definite", "no-convergence", "non-finite",
        "infinite-mode"])
def test_band_failure_exit_three(monkeypatch, capsys, band_case, module,
                                 target, replacement, message):
    monkeypatch.setattr(module, target, replacement)
    assert main(["modal", "--case", band_case]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quadplate: numerical failure: ")
    assert message in captured.err
