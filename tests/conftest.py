import warnings

import numpy as np
import pytest
from scipy.sparse import csr_array

# For a failing @given test, hypothesis's pytest plugin imports its patch
# explainer, which imports libcst; libcst raises a DeprecationWarning on
# import, an error under this suite's filterwarnings that would end the
# session with INTERNALERROR.  Importing it once here, with that warning
# ignored, leaves the plugin a module already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from quadplate import (DegenerateGeometryError, GlobalSystem, NumericalError,
                       QuadGeometry, random_convex_quad)
from quadplate.mapping import CORNER_NATURAL, NEXT_CORNER, bilinear_jacobians
from quadplate.modal import _FIXED_DOFS

#: Worked quadrilateral cross-section used throughout (vertices, ccw).
SECTION_QUAD = [[0.0, 0.0], [8.0, 0.0], [4.0, 3.0], [0.0, 5.0]]
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
BIUNIT_SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


@pytest.fixture
def section_quad():
    return QuadGeometry(SECTION_QUAD)


@pytest.fixture
def unit_square():
    return QuadGeometry(UNIT_SQUARE)


def convex_quads(count, seed=1234, scale=1.0):
    """Deterministic stream of random convex quadrilaterals."""
    rng = np.random.default_rng(seed)
    return [random_convex_quad(rng, scale=scale) for _ in range(count)]


def fd_jacobian(scheme, theta, step=1e-6):
    """Central-difference oracle for the covariant base vectors."""
    t1, t2 = theta
    rows = []
    for axis in range(2):
        plus = np.array(theta, dtype=float)
        minus = np.array(theta, dtype=float)
        plus[axis] += step
        minus[axis] -= step
        rows.append((scheme.params.point(plus) - scheme.params.point(minus))
                    / (2.0 * step))
    return np.vstack(rows)


def element_transform(scheme):
    """12x12 map from global Cartesian DOFs to element natural DOFs, one
    scheme at a time: the oracle of ``modal._transforms``.

    Per node, u passes through and the rotations transform with the
    adjugate-style 2x2 built from the Jacobian at that corner:
    phi1_nat = J22 phi1_c - J21 phi2_c, phi2_nat = -J12 phi1_c + J11 phi2_c.
    At a collapsed corner (singular Jacobian, tip of a collapsed-edge
    element) the natural rotations cannot be expressed in Cartesian
    components; the block stays the identity there and the tip keeps
    natural-frame rotation DOFs.
    """
    diam = scheme.quad.diameter
    t = np.eye(12)
    for p, corner in enumerate(CORNER_NATURAL):
        jm = scheme.params.gradient(corner)
        det = jm[0, 0] * jm[1, 1] - jm[0, 1] * jm[1, 0]
        if abs(det) <= 1e-12 * diam * diam:
            continue
        t[3 * p + 1: 3 * p + 3, 3 * p + 1: 3 * p + 3] = [
            [jm[1, 1], -jm[1, 0]],
            [-jm[0, 1], jm[0, 0]],
        ]
    return t


def csr_on_pattern(stored, *dense):
    """CSR arrays of the matrices ``dense`` on the one pattern of the
    entries where ``stored`` is True, explicit zeros too, with int32
    indices as ``csr_array`` gives a dense matrix."""
    rows, columns = np.nonzero(stored)
    indptr = np.searchsorted(rows, np.arange(len(stored) + 1))
    return [csr_array((a[rows, columns], columns.astype(np.int32),
                       indptr.astype(np.int32)), shape=stored.shape)
            for a in dense]


def apply_bcs_by_slicing(system, mesh):
    """``system`` constrained by the mesh's boundary sets with scipy's
    fancy indexing, ``k[kept][:, kept]``: the oracle of
    ``modal.apply_bcs``."""
    keep = np.ones((mesh.n_nodes, 3), dtype=bool)
    for bset in mesh.boundary_sets.values():
        keep[list(bset.nodes), :_FIXED_DOFS[bset.condition]] = False
    kept = np.flatnonzero(keep)
    new_index = -np.ones(system.n_dofs, dtype=int)
    new_index[kept] = np.arange(kept.size)
    return GlobalSystem(k=system.k[kept][:, kept], m=system.m[kept][:, kept],
                        dof_map=new_index[system.dof_map],
                        scale=system.scale, geometry=system.geometry)


def corner_jacobians_by_mask(coeffs, diam):
    """Corner Jacobians and flat-corner mask of the bilinear maps
    ``coeffs`` (m, 4, 2), by the full mask rule on every input: the oracle
    of ``mapping.corner_jacobians``, which skips the masks when every
    corner det J clears its tolerance."""
    tol = 1e-12 * diam * diam
    cjac, cdet = bilinear_jacobians(coeffs, CORNER_NATURAL)
    flat = np.abs(cdet) <= tol[:, None]
    # a collapsed edge leaves exactly its two (adjacent) ends flat
    tip = (np.count_nonzero(flat, axis=1) == 2) \
        & (flat & flat[:, NEXT_CORNER]).any(axis=1)
    bad = np.argwhere((cdet <= tol[:, None]) & ~(flat & tip[:, None]))
    if bad.size:
        ei, corner = bad[0]
        value = cdet[ei, corner]
        error, fault = ((NumericalError, "folded element") if value < -tol[ei]
                        else (DegenerateGeometryError, "degenerate corner"))
        raise error(f"element {ei}: {fault}: det J = {value:.3e} at "
                    f"theta={tuple(map(float, CORNER_NATURAL[corner]))}")
    return cjac, flat
