"""Mesh-level assembly, boundary conditions and free-vibration solution.

Element matrices live in each element's natural rotation frame; before
scattering, the nodal rotation DOFs are transformed to a shared global
Cartesian frame through the element Jacobian evaluated at that node, so
that adjacent elements assemble compatibly.  The global DOF layout is
(u, phi1_cart, phi2_cart) per node with phi1_cart = +du/dx2 and
phi2_cart = -du/dx1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.spatial.distance

from .errors import DegenerateGeometryError, NumericalError, ValidationError
from .mapping import (
    CORNER_NATURAL,
    MappingScheme,
    QuadGeometry,
    bilinear_params,
    build_scheme,
)
from .plate_element import (
    PlateMaterial,
    deflection_row,
    element_matrices,
    subarea_weights,
)
from .quadrature import GaussRule, gauss_rule

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
    if np.any(mesh.elements < 0) or np.any(mesh.elements >= n):
        raise DegenerateGeometryError("element references a missing node")
    seen = {}
    for ei, conn in enumerate(mesh.elements):
        distinct = len(set(int(c) for c in conn))
        if distinct < 3:
            raise DegenerateGeometryError(f"element {ei} repeats nodes")
        if distinct == 3:
            # a collapsed-edge (triangle) element is allowed only when the
            # repeated node is adjacent in the cycle
            repeats = [p for p in range(4)
                       if conn[p] == conn[(p + 1) % 4]]
            if len(repeats) != 1:
                raise DegenerateGeometryError(
                    f"element {ei} repeats a non-adjacent node"
                )
        v = mesh.nodes[conn]
        area2 = float(np.sum(
            v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]
        ))
        if area2 <= 0.0:
            raise DegenerateGeometryError(
                f"element {ei} is degenerate or clockwise"
            )
        for p in range(4):
            edge = (int(conn[p]), int(conn[(p + 1) % 4]))
            if edge[0] == edge[1]:
                continue  # collapsed edge
            if edge in seen:
                raise DegenerateGeometryError(
                    f"elements {seen[edge]} and {ei} traverse edge {edge} "
                    "in the same direction"
                )
            seen[edge] = ei


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


def _element_frame(mesh: Mesh, conn):
    """Bilinear scheme, corner transform and global DOF indices of one
    mesh element."""
    # collapsed-edge (triangle) elements are legal here; the mesh was
    # validated up front
    quad = QuadGeometry(mesh.nodes[conn], allow_collapsed=True)
    # mesh elements have straight edges, where every scheme yields the
    # bilinear transformation, so K and M need no other scheme
    scheme = build_scheme(quad, "bilinear")
    dofs = np.concatenate([[3 * n, 3 * n + 1, 3 * n + 2] for n in conn])
    return scheme, _element_transform(scheme), dofs


def assemble(mesh: Mesh, material: PlateMaterial,
             rule: GaussRule | None = None,
             rotary: bool = False) -> GlobalSystem:
    """Assemble global stiffness and mass over all elements."""
    if rule is None:
        rule = gauss_rule(3)
    _validate_mesh(mesh)
    ndof = 3 * mesh.n_nodes
    k = np.zeros((ndof, ndof))
    m = np.zeros((ndof, ndof))
    for conn in mesh.elements:
        scheme, t, dofs = _element_frame(mesh, conn)
        em = element_matrices(scheme, material, rule, rotary=rotary)
        # accumulating add: collapsed-edge elements carry a repeated node
        np.add.at(k, np.ix_(dofs, dofs), t.T @ em.k @ t)
        np.add.at(m, np.ix_(dofs, dofs), t.T @ em.m @ t)

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

    # Deterministic sign: largest-magnitude entry positive.
    for j in range(v.shape[1]):
        lead = int(np.argmax(np.abs(v[:, j])))
        if v[lead, j] < 0.0:
            v[:, j] = -v[:, j]

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

class _GridBuilder:
    """Accumulates structured quad patches, merging coincident nodes."""

    def __init__(self, scale: float):
        self.quantum = max(scale, 1e-300) * 1e-9
        self._ids = {}
        self.points = []
        self.elements = []

    def _node(self, p) -> int:
        key = (int(round(p[0] / self.quantum)), int(round(p[1] / self.quantum)))
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self.points)
            self._ids[key] = nid
            self.points.append((float(p[0]), float(p[1])))
        return nid

    def add_patch(self, corners, m: int, n: int, allow_collapsed=False):
        """Subdivide one counterclockwise quad into an m x n bilinear grid."""
        params = bilinear_params(
            QuadGeometry(corners, allow_collapsed=allow_collapsed)
        )
        ids = np.empty((m + 1, n + 1), dtype=int)
        for i in range(m + 1):
            t1 = -1.0 + 2.0 * i / m
            for j in range(n + 1):
                t2 = -1.0 + 2.0 * j / n
                ids[i, j] = self._node(params.point((t1, t2)))
        for i in range(m):
            for j in range(n):
                self.elements.append(
                    (ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1])
                )

    def mesh(self) -> Mesh:
        nodes = np.array(self.points)
        if len(nodes) > 1:
            # Guard against near-coincident distinct nodes (mesh cracks).
            d = scipy.spatial.distance.pdist(nodes)
            if d.min() <= 0.5 * self.quantum:
                raise DegenerateGeometryError(
                    "distinct mesh nodes nearly coincide; refine failed"
                )
        return Mesh(nodes=nodes, elements=np.array(self.elements, dtype=int))


def mesh_quad(vertices, m: int, n: int) -> Mesh:
    """Bilinear transfinite m x n grid over a quadrilateral."""
    if m < 1 or n < 1:
        raise ValidationError("grid subdivisions must be >= 1")
    quad = QuadGeometry(vertices)
    builder = _GridBuilder(scale=quad.diameter)
    builder.add_patch(quad.vertices, m, n)
    return builder.mesh()


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
    area2 = float(
        np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    )
    scale = max(float(np.linalg.norm(v[p] - v[q]))
                for p in range(3) for q in range(p + 1, 3))
    if abs(area2) <= 1e-12 * scale * scale:
        raise DegenerateGeometryError("degenerate triangle")
    if area2 < 0.0:
        warnings.warn("triangle given clockwise; reordering", stacklevel=2)
        v = v[[0, 2, 1]]
    builder = _GridBuilder(scale=scale)
    corners = np.vstack([v[0], v[1], v[1], v[2]])
    builder.add_patch(corners, 3 * level, level, allow_collapsed=True)
    return builder.mesh()


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
    ticks = np.linspace(-1.0, 1.0, 5)
    samples = [[] for _ in full]
    for conn in mesh.elements:
        scheme, t, dofs = _element_frame(mesh, conn)
        weights = subarea_weights(scheme, rule)
        local = [t @ vector for vector in full[:, dofs]]
        for t1 in ticks:
            for t2 in ticks:
                x, y = (float(c) for c in scheme.params.point((t1, t2)))
                row = deflection_row((t1, t2), weights)
                for points, vector in zip(samples, local):
                    points.append((x, y, float(row @ vector)))
    return samples
