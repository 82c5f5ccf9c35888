"""Mesh-level assembly, boundary conditions and free-vibration solution.

Element matrices live in each element's natural rotation frame; before
scattering, the nodal rotation DOFs are transformed to a shared global
Cartesian frame through the element Jacobian evaluated at that node, so
that adjacent elements assemble compatibly.  The global DOF layout is
(u, phi1_cart, phi2_cart) per node with phi1_cart = +du/dx2 and
phi2_cart = -du/dx1.

Straight-edged elements get the bilinear transformation from every
scheme, so an element's K and M depend only on its four bilinear
coefficients.  ``assemble`` therefore integrates all elements together
(``batch_element_matrices``) and sums them from COO triplets; the scalar
``element_stiffness``/``element_mass`` and ``_element_transform`` are the
reference implementation, which the batch reproduces operation for
operation and which reports the first element that fails a check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateGeometryError,
    NumericalError,
    QuadplateError,
    ValidationError,
)
from .mapping import (
    BILINEAR_MONOMIALS,
    CORNER_NATURAL,
    GeneralizedParams,
    MappingScheme,
    QuadGeometry,
    bilinear_coefficients,
    bilinear_jacobians,
    bilinear_params,
    build_scheme,
    lattice_points,
    pair_distances,
    twice_signed_area,
)
from .plate_element import (
    QUADRANT_CENTERS,
    PlateMaterial,
    batch_element_matrices,
    deflection_rows,
    element_matrices,
    subarea_weights,
)
from .quadrature import GaussRule, gauss_rule, tensor_points

BOUNDARY_CONDITIONS = ("clamped", "simply_supported", "free")


@dataclass(frozen=True)
class BoundarySet:
    """A named node set with one boundary condition tag."""

    condition: str
    nodes: tuple

    def __post_init__(self):
        if self.condition not in BOUNDARY_CONDITIONS:
            raise ValidationError(
                f"unknown boundary condition {self.condition!r}"
            )
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))


@dataclass(eq=False)
class Mesh:
    """Nodes, counterclockwise 4-node elements, and named boundary sets."""

    nodes: np.ndarray
    elements: np.ndarray
    boundary_sets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=int)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True, eq=False)
class GlobalSystem:
    """Assembled (or constrained) stiffness/mass.

    ``dof_map[node]`` holds the three global indices of that node's
    (u, phi1, phi2), with -1 for eliminated DOFs.
    """

    k: np.ndarray
    m: np.ndarray
    dof_map: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True, eq=False)
class ModalSpectrum:
    """Ascending natural frequencies, mass-normalized mode vectors, and
    the relative eigen-residual of each returned mode."""

    omega: np.ndarray
    modes: np.ndarray
    residuals: np.ndarray

    @property
    def omega_sq(self) -> np.ndarray:
        return self.omega ** 2


def _validate_mesh(mesh: Mesh):
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise DegenerateGeometryError("mesh nodes must be an (n, 2) array")
    if mesh.elements.ndim != 2 or mesh.elements.shape[1] != 4:
        raise DegenerateGeometryError("mesh elements must be an (m, 4) array")
    n = mesh.n_nodes
    conn = mesh.elements
    if np.any(conn < 0) or np.any(conn >= n):
        raise DegenerateGeometryError("element references a missing node")
    following = np.roll(conn, -1, axis=1)
    distinct = 1 + np.count_nonzero(np.diff(np.sort(conn, axis=1)), axis=1)
    # a collapsed-edge (triangle) element is allowed only when the
    # repeated node is adjacent in the cycle
    non_adjacent = (distinct == 3) & (
        np.count_nonzero(conn == following, axis=1) != 1)
    area2 = twice_signed_area(mesh.nodes[conn])
    # each directed edge that an earlier one (in element, then cycle
    # order) already traversed; collapsed edges are skipped
    keys = (conn * n + following).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    repeated = (first[inverse] != np.arange(keys.size)) & \
        (conn != following).ravel()
    flags = (distinct < 3, non_adjacent, area2 <= 0.0,
             repeated.reshape(conn.shape).any(axis=1))
    bad = np.flatnonzero(np.logical_or.reduce(flags))
    if bad.size == 0:
        unused = np.flatnonzero(np.bincount(conn.ravel(), minlength=n) == 0)
        if unused.size:
            raise DegenerateGeometryError(
                f"node {unused[0]} belongs to no element")
        return
    ei = int(bad[0])
    for flag, fault in zip(flags, ("repeats nodes",
                                   "repeats a non-adjacent node",
                                   "is degenerate or clockwise")):
        if flag[ei]:
            raise DegenerateGeometryError(f"element {ei} {fault}")
    occurrence = 4 * ei + int(np.argmax(repeated[4 * ei: 4 * ei + 4]))
    edge = (int(conn.flat[occurrence]), int(following.flat[occurrence]))
    raise DegenerateGeometryError(
        f"elements {first[inverse[occurrence]] // 4} and {ei} traverse edge "
        f"{edge} in the same direction"
    )


def _element_transform(scheme: MappingScheme) -> np.ndarray:
    """12x12 map from global Cartesian DOFs to element natural DOFs.

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


def _element_scheme(mesh: Mesh, conn) -> MappingScheme:
    """Bilinear scheme of one mesh element, built through the scalar path."""
    # collapsed-edge (triangle) elements are legal here; the mesh was
    # validated up front
    quad = QuadGeometry(mesh.nodes[conn], allow_collapsed=True)
    return build_scheme(quad, "bilinear")


#: Per corner, the element DOF indices of its two rotations.
_CORNER_ROTATIONS = 3 * np.arange(4)[:, None] + np.array([1, 2])
#: Whether each vertex pair (p, q) of ``pair_distances`` is adjacent.
_ADJACENT = np.isin(np.ptp(np.triu_indices(4, 1), axis=0), (1, 3))


@dataclass(frozen=True, eq=False)
class _ElementBatch:
    """Geometry of every mesh element, from its bilinear coefficients.

    ``jac``/``det`` are taken at the points of ``tensor_points(rule)``;
    ``transform`` (m, 12, 12) is ``_element_transform`` of each element
    and ``dofs`` (m, 12) its global DOF indices.
    """

    coeffs: np.ndarray
    jac: np.ndarray
    det: np.ndarray
    fractions: np.ndarray
    transform: np.ndarray
    dofs: np.ndarray


def _element_batch(mesh: Mesh, rule: GaussRule, check) -> _ElementBatch:
    """Vectorized ``_element_scheme``, ``subarea_weights`` and
    ``_element_transform`` over all elements, with the scalar path's
    geometry checks.

    Every element a check flags is rebuilt through the scalar path, where
    ``check(scheme)`` repeats the element work; its error is raised with
    the element index prefixed.
    """
    v = mesh.nodes[mesh.elements]
    coeffs = bilinear_coefficients(v)

    # QuadGeometry(allow_collapsed=True): finite, at most one coincident
    # adjacent vertex pair, no (near-)zero area
    dist = pair_distances(v)
    diam = dist.max(axis=1)
    tol = 1e-12 * diam * diam
    coincident = dist <= 1e-12 * diam[:, None]
    area2 = twice_signed_area(v)
    bad = (~np.isfinite(v).all(axis=(1, 2))
           | (np.count_nonzero(coincident, axis=1) > 1)
           | (coincident & ~_ADJACENT).any(axis=1)
           | (area2 <= tol))

    # element_stiffness: a regular, unfolded Jacobian at each Gauss point
    points, weights = tensor_points(rule)
    jac, det = bilinear_jacobians(coeffs, points)
    bad |= ((np.abs(det) < tol[:, None]) | (det <= 0.0)).any(axis=1)

    # subarea_weights: a regular Jacobian at each quadrant point, and
    # fractions in (0, 1) that sum to one
    quadrant = (np.array(QUADRANT_CENTERS)[:, None, :]
                + 0.5 * points).reshape(-1, 2)
    _, qdet = bilinear_jacobians(coeffs, quadrant)
    bad |= (np.abs(qdet) < tol[:, None]).any(axis=1)
    qdet = qdet.reshape(-1, 4, weights.size)
    # summed in point order, as the scalar loop adds
    areas = np.cumsum(0.25 * weights * qdet, axis=-1)[..., -1]
    fractions = areas / areas.sum(axis=1, keepdims=True)
    bad |= ((fractions <= 0.0) | (fractions >= 1.0)).any(axis=1) \
        | (np.abs(fractions.sum(axis=1) - 1.0) > 1e-12)

    for ei in np.flatnonzero(bad):
        try:
            check(_element_scheme(mesh, mesh.elements[ei]))
        except QuadplateError as exc:
            raise type(exc)(f"element {ei}: {exc}") from exc

    # corner transforms; the identity block stays at a collapsed corner
    cjac, cdet = bilinear_jacobians(coeffs, CORNER_NATURAL)
    blocks = np.stack([
        np.stack([cjac[..., 1, 1], -cjac[..., 1, 0]], axis=-1),
        np.stack([-cjac[..., 0, 1], cjac[..., 0, 0]], axis=-1),
    ], axis=-2)
    blocks[np.abs(cdet) <= tol[:, None]] = np.eye(2)
    transform = np.tile(np.eye(12), (len(v), 1, 1))
    transform[:, _CORNER_ROTATIONS[:, :, None],
              _CORNER_ROTATIONS[:, None, :]] = blocks
    dofs = (3 * mesh.elements[:, :, None] + np.arange(3)).reshape(-1, 12)
    return _ElementBatch(coeffs, jac, det, fractions, transform, dofs)


def assemble(mesh: Mesh, material: PlateMaterial,
             rule: GaussRule | None = None,
             rotary: bool = False) -> GlobalSystem:
    """Assemble global stiffness and mass over all elements.

    All elements are integrated together on their bilinear coefficients
    (``batch_element_matrices``) and summed into the global matrices from
    (row, column, value) triplets, in element order.
    """
    if rule is None:
        rule = gauss_rule(3)
    _validate_mesh(mesh)
    batch = _element_batch(
        mesh, rule,
        lambda scheme: element_matrices(scheme, material, rule, rotary=rotary),
    )
    t = batch.transform
    ndof = 3 * mesh.n_nodes
    # flat (row, column) index of every element entry: bincount sums the
    # COO triplets in element order, as an accumulating add would, and
    # collapsed-edge elements carry a repeated node
    index = (batch.dofs[:, :, None] * ndof + batch.dofs[:, None, :]).ravel()
    k, m = (
        np.bincount(index, weights=(np.swapaxes(t, 1, 2) @ a @ t).ravel(),
                    minlength=ndof * ndof).reshape(ndof, ndof)
        for a in batch_element_matrices(batch.jac, batch.det,
                                        batch.fractions, material, rule,
                                        rotary=rotary)
    )
    dof_map = np.arange(ndof).reshape(mesh.n_nodes, 3)
    return GlobalSystem(k=k, m=m, dof_map=dof_map)


def apply_bcs(system: GlobalSystem, mesh: Mesh) -> GlobalSystem:
    """Eliminate constrained DOFs per the mesh's boundary sets.

    clamped removes (u, phi1, phi2); simply_supported removes u only (soft
    simple support); free removes nothing.  A node listed under two
    different conditions is an error.
    """
    if np.any(system.dof_map < 0):
        raise ValidationError("boundary conditions already applied")
    condition = {}
    for name, bset in mesh.boundary_sets.items():
        for node in bset.nodes:
            if node < 0 or node >= mesh.n_nodes:
                raise ValidationError(
                    f"boundary set {name!r} references missing node {node}"
                )
            previous = condition.get(node)
            if previous is not None and previous != bset.condition:
                raise ValidationError(
                    f"node {node} appears under both {previous!r} and "
                    f"{bset.condition!r}"
                )
            condition[node] = bset.condition
    keep = np.ones(system.n_dofs, dtype=bool)
    for node, tag in condition.items():
        if tag == "clamped":
            keep[3 * node: 3 * node + 3] = False
        elif tag == "simply_supported":
            keep[3 * node] = False
    kept = np.flatnonzero(keep)
    new_index = -np.ones(system.n_dofs, dtype=int)
    new_index[kept] = np.arange(kept.size)
    dof_map = new_index[system.dof_map]
    ix = np.ix_(kept, kept)
    return GlobalSystem(k=system.k[ix], m=system.m[ix], dof_map=dof_map)


def solve_modes(system: GlobalSystem, count: int) -> ModalSpectrum:
    """Smallest eigenpairs of the symmetric pencil (K, M).

    The mass matrix may be semidefinite (consistent mass without rotary
    inertia has element rank 3), so the pencil is solved in reversed form
    with a positive spectral shift: M phi = mu (K + sigma M) phi with
    mu = 1/(omega^2 + sigma).  Rigid modes come out at omega ~ 0; modes in
    the nullspace of M (infinite frequency) are excluded from the count.
    """
    n = system.n_dofs
    if count > n:
        raise ValidationError(f"requested {count} modes from {n} DOFs")
    if count < 0:
        raise ValidationError("mode count must be non-negative")
    if count == 0:
        return ModalSpectrum(
            omega=np.empty(0), modes=np.empty((n, 0)), residuals=np.empty(0)
        )
    k, m = system.k, system.m
    scale_k = float(np.linalg.norm(k))
    scale_m = float(np.linalg.norm(m))
    if scale_m == 0.0:
        raise NumericalError("mass matrix is zero")
    sigma = 1e-3 * scale_k / scale_m if scale_k > 0.0 else 1.0
    shifted = k + sigma * m
    try:
        mu, vectors = scipy.linalg.eigh(m, shifted)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(
            "pencil numerically indefinite after positive shift"
        ) from exc

    finite = mu > 1e-12 * mu.max()
    n_finite = int(np.count_nonzero(finite))
    if count > n_finite:
        raise NumericalError(
            f"requested {count} modes but the pencil has only {n_finite} "
            "finite ones (semidefinite mass)"
        )
    # eigh returns mu ascending; the largest mu are the smallest omega^2.
    order = np.argsort(mu)[::-1][:count]
    mu_sel = mu[order]
    v = vectors[:, order] / np.sqrt(mu_sel)  # phi^T M phi = 1
    omega_sq = 1.0 / mu_sel - sigma
    if np.any(omega_sq < -1e-10 * max(1.0, float(omega_sq.max(initial=0.0)))):
        raise NumericalError(
            f"spurious negative eigenvalue {omega_sq.min():.3e}"
        )
    omega_sq = np.clip(omega_sq, 0.0, None)

    # Deterministic sign: the first entry within 1e-6 of the largest
    # magnitude is positive.  Mirrored entries of symmetric meshes have
    # equal magnitudes, so a plain argmax would follow round-off.
    size = np.abs(v)
    lead = np.argmax(size >= (1.0 - 1e-6) * size.max(axis=0), axis=0)
    v[:, v[lead, np.arange(count)] < 0.0] *= -1.0

    # Relative eigen-residual per mode.  For rigid modes K phi underflows,
    # so the denominator is floored at the tolerance times the matrix
    # scale; elastic modes are measured strictly against ||K phi||.
    residuals = np.empty(count)
    for j in range(count):
        kv = k @ v[:, j]
        r = kv - omega_sq[j] * (m @ v[:, j])
        denom = max(float(np.linalg.norm(kv)),
                    1e-8 * scale_k * float(np.linalg.norm(v[:, j])))
        residuals[j] = float(np.linalg.norm(r)) / denom

    return ModalSpectrum(
        omega=np.sqrt(omega_sq), modes=v, residuals=residuals
    )


def frequency_parameter(omega, a: float, material: PlateMaterial,
                        normalization: str = "plain"):
    """Dimensionless frequency parameter omega * a^2 * sqrt(rho t / D),
    divided by pi^2 for ``per_pi2``."""
    if a <= 0.0:
        raise ValidationError("reference length must be positive")
    value = np.asarray(omega, dtype=float) * a * a * math.sqrt(
        material.rho * material.t / material.rigidity
    )
    if normalization == "plain":
        return value
    if normalization == "per_pi2":
        return value / math.pi ** 2
    raise ValidationError(f"unknown normalization {normalization!r}")


def modal_analysis(mesh: Mesh, material: PlateMaterial,
                   rule: GaussRule | None = None, count: int = 6,
                   rotary: bool = False) -> ModalSpectrum:
    """Assemble, constrain and solve a mesh in one call."""
    system = assemble(mesh, material, rule=rule, rotary=rotary)
    reduced = apply_bcs(system, mesh)
    return solve_modes(reduced, count)


# ---------------------------------------------------------------------------
# structured mesh generation
# ---------------------------------------------------------------------------

def _lattice_mesh(quad: QuadGeometry, m: int, n: int,
                  apex: bool = False) -> Mesh:
    """Structured m x n bilinear grid over ``quad``.

    Nodes are numbered t1-outer, t2-inner; element (i, j) joins lattice
    nodes (i, j), (i+1, j), (i+1, j+1), (i, j+1).  With ``apex`` the
    collapsed t1 = +1 edge is one node, that row's first, numbered last.
    """
    nodes = bilinear_params(quad).point(lattice_points(
        -1.0 + 2.0 * np.arange(m + 1) / m, -1.0 + 2.0 * np.arange(n + 1) / n))
    ids = np.arange(len(nodes)).reshape(m + 1, n + 1)
    if apex:
        ids[m] = ids[m, 0]
        nodes = nodes[:ids[m, 0] + 1]
    elements = np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:],
                         ids[:-1, 1:]], axis=-1)
    mesh = Mesh(nodes=nodes, elements=elements.reshape(-1, 4))
    # boundary sets take the nodes within nodes_on_segment's tolerance of
    # an edge: on a plate too thin for the grid, nodes off the edge's
    # lattice side too (a folded grid is left to validation instead, which
    # names its first inverted element)
    if np.any(twice_signed_area(mesh.nodes[mesh.elements]) <= 0.0):
        return mesh
    v = quad.vertices
    for p, side in enumerate((ids[:, 0], ids[m], ids[:, n], ids[0])):
        if not (apex and p == 1) and len(nodes_on_segment(
                mesh, v[p], v[(p + 1) % 4])) > len(np.unique(side)):
            raise DegenerateGeometryError(
                f"plate too thin for a {m} x {n} grid: nodes off edge "
                f"{p} lie within its boundary tolerance")
    return mesh


def mesh_quad(vertices, m: int, n: int) -> Mesh:
    """Bilinear transfinite m x n grid over a quadrilateral."""
    if m < 1 or n < 1:
        raise ValidationError("grid subdivisions must be >= 1")
    return _lattice_mesh(QuadGeometry(vertices), m, n)


def mesh_triangle(vertices, level: int) -> Mesh:
    """Mesh a triangle with quadrilaterals, giving 3 * level^2 elements.

    The triangle is treated as a quadrilateral with one edge collapsed
    onto the second vertex (the apex) and gridded transfinitely with
    3*level subdivisions from the base edge (third to first vertex)
    towards the apex and level subdivisions across.  The row of elements
    touching the apex consists of collapsed-edge (triangle) elements
    sharing the apex node.
    """
    if level < 1:
        raise ValidationError("refinement level must be >= 1")
    v = np.asarray(vertices, dtype=float)
    if v.shape != (3, 2):
        raise DegenerateGeometryError("triangle needs exactly 3 vertices")
    area2 = float(twice_signed_area(v))
    scale = float(pair_distances(v).max())
    if abs(area2) <= 1e-12 * scale * scale:
        raise DegenerateGeometryError("degenerate triangle")
    if area2 < 0.0:
        warnings.warn("triangle given clockwise; reordering", stacklevel=2)
        v = v[[0, 2, 1]]
    quad = QuadGeometry(np.vstack([v[0], v[1], v[1], v[2]]),
                        allow_collapsed=True)
    return _lattice_mesh(quad, 3 * level, level, apex=True)


def nodes_on_segment(mesh: Mesh, p0, p1, tol: float | None = None) -> tuple:
    """Indices of mesh nodes lying on the segment from p0 to p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    direction = p1 - p0
    length = float(np.linalg.norm(direction))
    if length == 0.0:
        raise ValidationError("zero-length segment")
    if tol is None:
        tol = 1e-9 * length
    rel = mesh.nodes - p0
    s = np.clip(rel @ direction / (length * length), 0.0, 1.0)
    foot = p0 + s[:, None] * direction
    dist = np.linalg.norm(mesh.nodes - foot, axis=1)
    return tuple(int(i) for i in np.flatnonzero(dist <= tol))


#: The 5x5 natural lattice ``mode_shape_samples`` evaluates (t1 outer).
_SAMPLE_POINTS = lattice_points(np.linspace(-1.0, 1.0, 5),
                                np.linspace(-1.0, 1.0, 5))


def mode_shape_samples(mesh: Mesh, rule: GaussRule, system: GlobalSystem,
                       modes: np.ndarray) -> list:
    """Sample mode deflections on a per-element natural grid.

    ``modes`` holds one constrained mode vector per column.  Returns one
    list of (x, y, u) triples per mode, element by element, using each
    element's deflection expansion evaluated on a 5x5 theta lattice.
    """
    full = np.zeros((modes.shape[1], 3 * mesh.n_nodes))  # one row per mode
    kept = system.dof_map.ravel()
    full[:, kept >= 0] = modes[kept[kept >= 0]].T
    batch = _element_batch(mesh, rule,
                           lambda scheme: subarea_weights(scheme, rule))
    xy = GeneralizedParams(BILINEAR_MONOMIALS, batch.coeffs[:, None]) \
        .point(_SAMPLE_POINTS)
    rows = deflection_rows(_SAMPLE_POINTS, batch.fractions)
    x = xy[..., 0].ravel().tolist()
    y = xy[..., 1].ravel().tolist()
    samples = []
    for vector in full:
        local = batch.transform @ vector[batch.dofs][:, :, None]
        # one (1, 12) @ (12, 1) product per sample: the rounding of the
        # scalar row-by-vector dot
        u = (rows[:, :, None, :] @ local[:, None]).ravel().tolist()
        samples.append(list(zip(x, y, u)))
    return samples
