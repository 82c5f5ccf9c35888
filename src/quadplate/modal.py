"""Mesh-level assembly, boundary conditions and free-vibration solution.

Element matrices live in each element's natural rotation frame; before
scattering, the nodal rotation DOFs are transformed to a shared global
Cartesian frame through the element Jacobian evaluated at that node, so
that adjacent elements assemble compatibly.  The global DOF layout is
(u, phi1_cart, phi2_cart) per node with phi1_cart = +du/dx2 and
phi2_cart = -du/dx1.

Straight-edged elements get the bilinear transformation from every
scheme, so an element's K, M, subarea fractions and corner rotation
frames depend only on its four bilinear coefficients.  One pass,
``_element_geometry``, derives them for every element of a mesh, after
accepting each element by the signs of det J at its four corners
(``mapping.corner_jacobians``, the rule that the single-quad verbs apply
as well).  ``assemble`` runs it once per mesh and keeps its arrays, with
the element connectivity, on the ``GlobalSystem`` it returns
(``apply_bcs`` carries them over); ``mode_shape_samples`` samples from
the system alone.
``assemble`` integrates the elements in chunks of ``_ASSEMBLY_CHUNK``
(``batch_element_matrices``), transforms each chunk (``_transforms``) and
sums it by node-pair blocks, 9 slots per unique node pair, whose slots
are plain arithmetic on the element node pairs (``_CsrPattern``); one
permutation then puts each matrix's sums in CSR order.  The scalar
element and per-element transformation of the tests (``tests/oracles.py``
and ``tests/conftest.py``) are the reference implementation, which the
batch matches to 1e-12 relative.

K and M share one canonical CSR pattern.  ``apply_bcs`` keeps the
entries in kept rows and columns through one mask over it (the tests
slice with scipy as its oracle).  ``solve_modes`` forms K + sM once, on
that pattern, and factors it: densely for small systems, else for
Lanczos (one seeded ``eigsh``, ``_lanczos``), by band Cholesky where it
is narrow-banded as numbered, as on lattice meshes (``_band_pairs``), or
by sparse LU (``_shift_invert_pairs``).  It takes each omega^2 as a
long-double Rayleigh quotient on long-double copies of the data arrays
alone, which share K's and M's index arrays, one matrix-vector product
per mode.

scipy is imported inside the functions that use it (``scipy.sparse`` in
``assemble``, ``scipy.linalg`` in the dense branch of ``solve_modes``,
``scipy.linalg.lapack`` in ``_band_pairs``, ``scipy.sparse.linalg`` in
both sparse paths and ``_lanczos``), so importing the package and the
single-quad verbs (``sectprops``, ``mapcheck``) load no scipy module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, NumericalError, ValidationError
from .mapping import (
    BILINEAR_MONOMIALS,
    NEXT_CORNER,
    GeneralizedParams,
    QuadGeometry,
    bilinear_coefficients,
    bilinear_jacobians,
    build_scheme,  # not called; the benchmark's tracer wraps it here
    corner_jacobians,
    fixed_points,
    lattice_points,
    pair_distances,
    twice_signed_area,
)
from .plate_element import (
    QUADRANT_CENTERS,
    PlateMaterial,
    batch_element_matrices,
    deflection_rows,
    element_matrices,  # not called; the benchmark's tracer wraps it here
)
from .quadrature import GaussRule, gauss_rule

#: How many of a node's (u, phi1, phi2) each boundary condition removes.
_FIXED_DOFS = {"clamped": 3, "simply_supported": 1, "free": 0}
BOUNDARY_CONDITIONS = tuple(_FIXED_DOFS)


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
    """Nodes, counterclockwise 4-node elements, and named boundary sets.

    A generated mesh lists in ``edges`` the sorted node ids on each edge
    of its polygon, edge e running from given vertex e to e + 1; an
    explicit mesh has none.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_sets: dict = field(default_factory=dict)
    edges: tuple = ()

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=int)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


#: Systems of at most this many DOFs are solved densely (``eigh``): the
#: largest built-in mesh, so every built-in output is a dense one.  Six
#: modes of the clamped skew quad on a 1-vCPU Xeon VM, BLAS on one
#: thread, medians of 15 runs: dense 3.6-4.2 and splu 7.2-10.7 ms at 147
#: DOFs, 7.7-10.2 and 8.7-12.7 ms at 243, 20-21.5 and 12.7-13.6 ms at
#: 363.  The band path, timed later on a 2-vCPU VM (medians of 11, dense
#: / band / splu), is faster than dense from 243 DOFs: 3.5/3.3/6.1 ms at
#: 147, 7.0/3.0/6.7 at 243 and 21/5.8/12 at 363.
DENSE_MAX_DOFS = 216

#: Larger systems whose K + sM has at most this half-bandwidth kd (the
#: largest |i - j| of a stored entry, as numbered) take the band Cholesky
#: path (``_band_pairs``), wider ones ``splu`` (``_shift_invert_pairs``).
#: Six modes, 2-vCPU VM, BLAS on one thread: on square lattices the band
#: path was faster and no larger in peak RSS up to 96x96 (kd 290), at RSS
#: parity at 128x128 (kd 386), where its storage of (kd + 1) n doubles
#: reaches the LU fill; on strips numbered along their long side it lost
#: a run at kd 218 and won every run at 194.  200 covers every lattice up
#: to 64x64.
BAND_MAX_KD = 200


#: Largest relative eigen-residual ``solve_modes`` returns.  All three
#: paths stay below 1e-9 on every built-in mesh (six modes, with and
#: without rotary inertia).  Forced onto splu, a free unit square asked
#: for all its finite modes came back at 1.5 (one element, 3 modes) and
#: 8.8e-4 (2x2 elements, 12 modes), where the dense path gives 7e-9 and
#: 1.3e-9.
MAX_RESIDUAL = 1e-6


def _solves_densely(n: int, count: int) -> bool:
    """Whether ``solve_modes`` takes the dense path for ``count`` modes of
    ``n`` DOFs: small systems, and any asked for more than a fifth of
    their modes.

    Lanczos slows with the count (its basis holds about 2 * count
    vectors), the dense subset solve less so.  ``solve_modes`` on each
    path, dense ms / band ms / splu ms, medians of 11 alternating runs on
    a 2-vCPU Xeon VM with BLAS on one thread, for count = f * n modes of
    the clamped skew quad at 12x12 (363 DOFs, half-bandwidth 38) and
    16x16 (675, 50), and of the 16x16 cantilever quad (816, 53):

        f       0.05        0.1         0.15         0.2          0.25
        363   21/8.3/16   26/15/26    28/21/33     33/25/39     39/33/48
        675   79/20/35    99/45/67   121/85/134   156/135/209  161/173/223
        816  141/28/46   165/61/87   193/135/205  239/212/295  284/396/514

    These systems take the band path, which is the fastest up to 0.2 n at
    all three sizes; dense overtakes it between 0.2 n and 0.25 n at 675
    and 816.  So counts up to 0.2 n stay sparse.
    """
    return n <= DENSE_MAX_DOFS or count > n // 5


@dataclass(frozen=True, eq=False)
class GlobalSystem:
    """Assembled (or constrained) stiffness/mass, stored as CSR arrays.

    ``dof_map[node]`` holds the three global indices of that node's
    (u, phi1, phi2), with -1 for eliminated DOFs.  ``scale`` is the
    plate's omega^2 scale D / (rho t L^4), L the diagonal of the node
    bounding box; every eigensolve shifts K by scale * M.  ``geometry`` is
    what ``_element_geometry`` derived for the assembled mesh (connectivity,
    bilinear coefficients, subarea fractions, corner rotation blocks,
    collapsed mask; one row per element), all that ``mode_shape_samples``
    reads besides ``dof_map``; a hand-built system leaves it None.

    K and M are CSR of one shape on one canonical pattern, equal
    ``indptr`` and ``indices`` with sorted unique columns per row.
    """

    k: scipy.sparse.csr_array
    m: scipy.sparse.csr_array
    dof_map: np.ndarray
    scale: float
    geometry: tuple | None = None

    def __post_init__(self):
        k, m = self.k, self.m
        if not (getattr(k, "format", None) == getattr(m, "format", None)
                == "csr" and k.shape == m.shape
                and np.array_equal(k.indptr, m.indptr)
                and np.array_equal(k.indices, m.indices)
                and k.has_canonical_format):
            raise ValidationError(
                "K and M must be CSR of one shape on one canonical pattern")

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


def _validate_mesh(mesh: Mesh):
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise DegenerateGeometryError("mesh nodes must be an (n, 2) array")
    if mesh.elements.ndim != 2 or mesh.elements.shape[1] != 4:
        raise DegenerateGeometryError("mesh elements must be an (m, 4) array")
    finite = np.isfinite(mesh.nodes).all(axis=1)
    if not finite.all():
        raise DegenerateGeometryError(
            f"node {np.argmin(finite)} has a non-finite coordinate")
    n = mesh.n_nodes
    conn = mesh.elements
    if np.any(conn < 0) or np.any(conn >= n):
        raise DegenerateGeometryError("element references a missing node")
    following = conn[:, NEXT_CORNER]
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


#: Per corner, the element DOF indices of its two rotations.
_CORNER_ROTATIONS = 3 * np.arange(4)[:, None] + np.array([1, 2])


def _element_geometry(mesh: Mesh) -> tuple:
    """Connectivity (m, 4), bilinear coefficients (m, 4, 2), subarea
    fractions (m, 4), corner rotation blocks (m, 4, 2, 2) and collapsed
    mask (m,) of every element, once each is accepted by ``corner_jacobians``.

    Block p maps corner p's Cartesian rotations to natural ones,
    phi1_nat = J22 phi1_c - J21 phi2_c and phi2_nat = -J12 phi1_c +
    J11 phi2_c, J the Jacobian at that corner.  It stays the identity at a
    collapsed corner (a triangle tip), whose natural rotations have no
    Cartesian components, so the tip keeps natural-frame rotation DOFs.
    """
    v = mesh.nodes[mesh.elements]
    coeffs = bilinear_coefficients(v)
    cjac, flat = corner_jacobians(coeffs, pair_distances(v).max(axis=1))
    _, areas = bilinear_jacobians(coeffs, QUADRANT_CENTERS)
    fractions = areas / areas.sum(axis=1, keepdims=True)
    blocks = np.stack([
        np.stack([cjac[..., 1, 1], -cjac[..., 1, 0]], axis=-1),
        np.stack([-cjac[..., 0, 1], cjac[..., 0, 0]], axis=-1),
    ], axis=-2)
    blocks[flat] = np.eye(2)
    return mesh.elements, coeffs, fractions, blocks, flat.any(axis=1)


def _transforms(blocks: np.ndarray) -> np.ndarray:
    """(c, 12, 12) maps from global Cartesian to element natural DOFs of
    each element, from its corner rotation blocks (c, 4, 2, 2); u passes
    through."""
    transform = np.tile(np.eye(12), (len(blocks), 1, 1))
    transform[:, _CORNER_ROTATIONS[:, :, None],
              _CORNER_ROTATIONS[:, None, :]] = blocks
    return transform


#: Offset 3i + j of entry (i, j) of a node pair's 3x3 DOF block, on the
#: (i, q, j) axes of an element's (p, i, q, j) 12x12 entries.
_BLOCK_OFFSETS = 3 * np.arange(3)[:, None, None] + np.arange(3)


@dataclass(frozen=True, eq=False)
class _CsrPattern:
    """CSR layout of the global matrices, the sorted unique (row, column)
    entries of all element DOF blocks, and the block slot of each element
    entry.

    It is built from the 16 node pairs of each element: node pair (a, b)
    stands for the DOF block (3a + i, 3b + j), so sorting the node pairs
    sorts the DOF entries.  ``pairs`` (m, 4, 4) indexes each element's
    unique node pairs u.  Entry (i, j) of pair u has block slot
    9u + 3i + j, and ``order`` maps each block slot to its CSR position:
    the blocks of one node row lie side by side in its three DOF rows, so
    a slot's position is ``base[u] + i * stride[u] + j``, with the pair's
    first position ``base`` and its row's length ``stride``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    pairs: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, elements: np.ndarray, n_nodes: int) -> "_CsrPattern":
        keys = (elements[:, :, None] * n_nodes + elements[:, None, :]).ravel()
        unique, pairs = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(unique, n_nodes)
        start = np.searchsorted(rows, np.arange(n_nodes + 1))
        degree = np.diff(start)
        # node row a fills CSR positions from 9 * start[a], 3 * degree[a]
        # per DOF row
        base = 9 * start[rows] + 3 * (np.arange(unique.size) - start[rows])
        stride = 3 * degree[rows]
        block = np.arange(3)
        order = (base[:, None, None] + stride[:, None, None] * block[:, None]
                 + block).ravel()
        indptr = np.append(
            (9 * start[:-1, None] + 3 * degree[:, None] * block).ravel(),
            9 * unique.size)
        indices = np.empty(9 * unique.size, dtype=cols.dtype)
        indices[order] = (3 * cols[:, None] + np.tile(block, 3)).ravel()
        return cls(indptr, indices, pairs.reshape(elements.shape + (4,)),
                   order)

    def slots(self, part: slice = slice(None)) -> np.ndarray:
        """(c, 144) block slots of elements ``part``, each in the row-major
        order of its 12x12 matrix (node, DOF; node, DOF)."""
        pairs = self.pairs[part]
        return (9 * pairs[:, :, None, :, None] + _BLOCK_OFFSETS).reshape(
            len(pairs), 144)


#: Elements integrated, transformed and summed per step of ``assemble``,
#: so its temporaries stay the same size on any mesh.
_ASSEMBLY_CHUNK = 1024


def _omega_scale(material: PlateMaterial, nodes: np.ndarray) -> float:
    """The plate's omega^2 scale D / (rho t L^4), L the diagonal of the
    node bounding box.

    D, rho t and the scale must be finite normal doubles, and D^2 finite
    too: ``solve_modes`` takes the norm of K, whose entries scale with D.
    Other magnitudes raise ``ValidationError``.
    """
    try:
        d = material.rigidity
    except OverflowError:  # t ** 3
        d = math.inf
    rho_t = material.rho * material.t
    with np.errstate(all="ignore"):
        diagonal = np.linalg.norm(np.ptp(nodes, axis=0))
        scale = float(d / (rho_t * diagonal ** 4))
    if not (d * d < math.inf and max(rho_t, scale) < math.inf
            and min(d, rho_t, scale) >= np.finfo(float).tiny):
        raise ValidationError(
            f"plate magnitudes beyond the double range: D = {d:.3e}, "
            f"rho t = {rho_t:.3e}, D / (rho t L^4) = {scale:.3e} (each must "
            "be a finite normal double, and D^2 finite)")
    return scale


def assemble(mesh: Mesh, material: PlateMaterial,
             rule: GaussRule | None = None,
             rotary: bool = False) -> GlobalSystem:
    """Assemble global stiffness and mass over all elements, as CSR.

    Every element is accepted or rejected first, and its geometry derived
    (``_element_geometry``).  Then ``_ASSEMBLY_CHUNK`` elements at a time
    are integrated together on their bilinear coefficients
    (``batch_element_matrices``), transformed to the global frame
    (``_transforms``) and summed by ``np.bincount`` into the block slots
    of ``_CsrPattern``, in element order within a chunk; a chunk of
    lattice elements touches a narrow band of node pairs, so each sum
    covers that band only.  Each matrix's block sums then go to their CSR
    positions through ``order``, one permutation: every CSR entry is the
    sum of the same contributions in the same order as a sum straight into
    CSR slots, to the bit.
    The system also carries the plate's omega^2 scale (``_omega_scale``,
    which first rejects magnitudes beyond the double range), from which
    ``solve_modes`` takes its shift, and the element geometry, from which
    ``mode_shape_samples`` samples.
    """
    import scipy.sparse

    if rule is None:
        rule = gauss_rule(3)
    _validate_mesh(mesh)
    scale = _omega_scale(material, mesh.nodes)
    geometry = _element_geometry(mesh)
    _, coeffs, fractions, blocks, collapsed = geometry
    ndof = 3 * mesh.n_nodes
    pattern = _CsrPattern.of(mesh.elements, mesh.n_nodes)
    values = np.zeros((2, pattern.indices.size))
    for start in range(0, mesh.n_elements, _ASSEMBLY_CHUNK):
        part = slice(start, start + _ASSEMBLY_CHUNK)
        jac, det = bilinear_jacobians(coeffs[part], rule.tensor_points)
        t = _transforms(blocks[part])
        slots = pattern.slots(part)
        # the slots of a chunk of lattice elements span a narrow band
        low = int(slots.min())
        slots = (slots - low).ravel()
        size = int(slots.max()) + 1
        k, m = batch_element_matrices(jac, det, fractions[part],
                                      material, rule, rotary=rotary)
        tips = collapsed[part]
        # a collapsed edge makes the stiffness ill-conditioned: integrated
        # in double, omega_1 of the 27-element cantilever triangle lands
        # up to 1e-8 (median 4e-9 over rotated copies) off its value in
        # extended precision, in long double within 2e-10 (median 4e-11)
        if tips.any():
            k[tips], m[tips] = batch_element_matrices(
                *(a[tips].astype(np.longdouble)
                  for a in (jac, det, fractions[part])),
                material, rule, rotary=rotary)
        for total, a in zip(values, (k, m)):
            total[low:low + size] += np.bincount(
                slots, (np.swapaxes(t, 1, 2) @ a @ t).ravel(), size)
    data = np.empty_like(values)
    data[:, pattern.order] = values
    k, m = (scipy.sparse.csr_array((total, pattern.indices, pattern.indptr),
                                   shape=(ndof, ndof)) for total in data)
    dof_map = np.arange(ndof).reshape(mesh.n_nodes, 3)
    return GlobalSystem(k=k, m=m, dof_map=dof_map, scale=scale,
                        geometry=geometry)


def apply_bcs(system: GlobalSystem, mesh: Mesh) -> GlobalSystem:
    """Eliminate constrained DOFs per the mesh's boundary sets.

    clamped removes (u, phi1, phi2); simply_supported removes u only (soft
    simple support); free removes nothing.  Each removes the leading DOFs
    of the next, so a node under several conditions gets the strongest.

    The constrained K and M keep the stored entries of K and M that lie
    in a kept row and column (explicit zeros too), in their order, with
    the columns renumbered: the arrays of ``k[kept][:, kept]``, built from
    one entry mask over the pattern K and M share, so they share the
    pattern it leaves.
    """
    if np.any(system.dof_map < 0):
        raise ValidationError("boundary conditions already applied")
    keep = np.ones((mesh.n_nodes, 3), dtype=bool)
    for name, bset in mesh.boundary_sets.items():
        nodes = np.array(bset.nodes, dtype=int)
        missing = nodes[(nodes < 0) | (nodes >= mesh.n_nodes)]
        if missing.size:
            raise ValidationError(
                f"boundary set {name!r} references missing node {missing[0]}"
            )
        keep[nodes, :_FIXED_DOFS[bset.condition]] = False
    keep = keep.ravel()
    kept = np.flatnonzero(keep)
    new_index = -np.ones(system.n_dofs, dtype=int)
    new_index[kept] = np.arange(kept.size)
    dof_map = new_index[system.dof_map]
    pattern = system.k
    columns = new_index[pattern.indices]
    entries = (columns >= 0) & np.repeat(keep, np.diff(pattern.indptr))
    # each kept row's length sums its mask entries; rows that store
    # nothing are left out, where np.add.reduceat would give them the
    # entry at their start
    starts = pattern.indptr[:-1]
    stored = np.flatnonzero(starts < pattern.indptr[1:])
    lengths = np.zeros(len(starts), dtype=pattern.indptr.dtype)
    lengths[stored] = np.add.reduceat(entries, starts[stored],
                                      dtype=lengths.dtype)
    indptr = np.zeros(kept.size + 1, dtype=lengths.dtype)
    np.cumsum(lengths[keep], out=indptr[1:])
    indices = columns[entries].astype(pattern.indices.dtype, copy=False)
    shape = (kept.size, kept.size)
    # with nothing kept, slicing gives scipy's empty array (its default
    # index dtype)
    k, m = (type(a)((a.data[entries], indices, indptr), shape=shape)
            if kept.size else type(a)(shape, dtype=a.dtype)
            for a in (system.k, system.m))
    return GlobalSystem(k=k, m=m, dof_map=dof_map, scale=system.scale,
                        geometry=system.geometry)


def solve_modes(system: GlobalSystem, count: int) -> ModalSpectrum:
    """Smallest eigenpairs of the symmetric pencil (K, M).

    Every path solves M phi = nu (K + sM) phi with s = ``system.scale``:
    K + sM is positive definite even for a free plate, and the ``count``
    largest nu = 1/(omega^2 + s) are the smallest omega^2.  Systems of at
    most ``DENSE_MAX_DOFS`` DOFs, or asked for more than a fifth of their
    modes, take that subset of a dense ``eigh``.  Larger ones whose
    K + sM has a half-bandwidth of at most ``BAND_MAX_KD`` take Lanczos
    on its band Cholesky factor (``_band_pairs``), wider ones shift-invert
    Lanczos on its sparse LU factor (``_shift_invert_pairs``).  All three
    take the one K + sM formed here, on the pattern K and M share.  M may
    be semidefinite (consistent mass without rotary inertia has element
    rank 3); nu ~ 0 is a mode in its nullspace (infinite frequency) and an
    error, and so is a mode whose eigen-residual exceeds ``MAX_RESIDUAL``.
    Rigid modes come out at omega ~ 0.

    Each omega^2 is the Rayleigh quotient of its mode in long double.
    The long-double K and M are CSR arrays on long-double copies of the
    data that share K's and M's index arrays, and each multiplies the
    modes one at a time: a matrix-vector product keeps a running sum per
    row, where the (n, count) product updates every column of a row
    through memory per stored entry.  Both add the same products from 0
    in the same order, so the products have the bits of
    ``a.astype(np.longdouble) @ v`` without copying the indices.
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
    k, m, s = system.k, system.m, system.scale
    if not np.any(m.data):
        raise NumericalError("mass matrix is zero")
    scale_k = float(np.linalg.norm(k.data))
    pencil = type(k)((k.data + s * m.data, k.indices, k.indptr),
                     shape=k.shape)
    if _solves_densely(n, count):
        import scipy.linalg

        try:
            nu, v = scipy.linalg.eigh(m.toarray(), pencil.toarray(),
                                      subset_by_index=(n - count, n - 1))
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise NumericalError(
                f"K + sM is not positive definite at s = {s:.6e}"
            ) from exc
    else:
        kd = _half_bandwidth(pencil)
        if kd <= BAND_MAX_KD:
            nu, v = _band_pairs(pencil, m, count, s, kd)
        else:
            # K + sM is not bitwise symmetric, so splu takes its CSC, the
            # only copy that lives on through the factor
            pencil = pencil.tocsc()
            nu, v = _shift_invert_pairs(pencil, k, m, count, s)
    if not np.all(np.isfinite(nu)):
        raise NumericalError(f"non-finite eigenvalue in nu = {nu}")
    v = v[:, np.argsort(-nu, kind="stable")]
    mass = np.einsum("ij,ij->j", v, m @ v)
    if np.any(nu <= 1e-12 * nu.max()) or not np.all(mass > 0.0):
        raise NumericalError(
            f"requested {count} modes but the pencil has an "
            "infinite-frequency one (semidefinite mass)"
        )
    v /= np.sqrt(mass)  # phi^T M phi = 1

    # Deterministic sign: the first entry within 1e-6 of the largest
    # magnitude is positive.  Mirrored entries of symmetric meshes have
    # equal magnitudes, so a plain argmax would follow round-off.
    size = np.abs(v)
    lead = np.argmax(size >= (1.0 - 1e-6) * size.max(axis=0), axis=0)
    v[:, v[lead, np.arange(count)] < 0.0] *= -1.0

    # omega^2 is the Rayleigh quotient of each returned mode, in long
    # double.  On the level-3 cantilever triangle the dense eigenvalue
    # 1/nu - s is up to 4e-10 off it, and the quotient with K phi in
    # double 1.4e-10: a smooth mode barely strains the stiff collapsed-tip
    # elements.  All paths then agree to 1.1e-13.  A double mode may come
    # out one ulp out of order, so the quotients are sorted.
    wide = v.astype(np.longdouble)
    wide_k, wide_m = (type(a)((a.data.astype(np.longdouble), a.indices,
                               a.indptr), shape=a.shape) for a in (k, m))
    kv, mv = (np.stack([a @ mode for mode in wide.T], axis=1)
              for a in (wide_k, wide_m))
    omega_sq = (np.einsum("ij,ij->j", wide, kv)
                / np.einsum("ij,ij->j", wide, mv)).astype(float)
    order = np.argsort(omega_sq, kind="stable")
    omega_sq, v = omega_sq[order], v[:, order]
    kv, mv = kv[:, order].astype(float), mv[:, order].astype(float)
    if np.any(omega_sq < -1e-10 * max(1.0, float(omega_sq.max(initial=0.0)))):
        raise NumericalError(
            f"spurious negative eigenvalue {omega_sq.min():.3e}"
        )
    omega_sq = np.clip(omega_sq, 0.0, None)

    # Relative eigen-residual per mode.  For rigid modes K phi underflows,
    # so the denominator is floored at the tolerance times the matrix
    # scale; elastic modes are measured strictly against ||K phi||.
    residuals = np.empty(count)
    for j in range(count):
        r = kv[:, j] - omega_sq[j] * mv[:, j]
        denom = max(float(np.linalg.norm(kv[:, j])),
                    1e-8 * scale_k * float(np.linalg.norm(v[:, j])))
        residuals[j] = float(np.linalg.norm(r)) / denom
    worst = int(np.argmax(residuals))
    if residuals[worst] > MAX_RESIDUAL:
        raise NumericalError(
            f"mode {worst + 1} has eigen-residual {residuals[worst]:.3e}, "
            f"above {MAX_RESIDUAL:g}"
        )

    return ModalSpectrum(
        omega=np.sqrt(omega_sq), modes=v, residuals=residuals
    )


#: CSR rows ``_band_pairs`` scatters per step, so that its temporaries
#: stay small beside the band storage.
_BAND_CHUNK = 4096


def _half_bandwidth(a) -> int:
    """Largest |i - j| over the stored entries of CSR ``a``."""
    return int(np.abs(np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
                      - a.indices).max(initial=0))


def _band_pairs(pencil, m, count: int, s: float, kd: int) -> tuple:
    """(nu, modes) of the ``count`` largest nu = 1/(omega^2 + s) of sparse
    (K, M), by Lanczos in standard mode on C = L^-1 M L^-T, L the band
    Cholesky factor of ``pencil`` = K + sM = L L^T and kd its
    half-bandwidth.

    C y = nu y is the pencil M phi = nu (K + sM) phi with phi = L^-T y.
    The lower band of K + sM goes to LAPACK band storage (row i - j of
    column j holds entry (i, j)) and ``dpbtrf`` factors it; each product
    with C is two triangular band solves (``dtbtrs``) around one product
    with M.
    """
    import scipy.linalg.lapack
    import scipy.sparse.linalg

    n = pencil.shape[0]
    band = np.zeros((kd + 1) * n)
    for start in range(0, n, _BAND_CHUNK):
        stop = min(start + _BAND_CHUNK, n)
        part = slice(pencil.indptr[start], pencil.indptr[stop])
        rows = np.repeat(np.arange(start, stop),
                         np.diff(pencil.indptr[start:stop + 1]))
        columns = pencil.indices[part].astype(np.intp)
        below = rows >= columns
        # entry (i, j) of the lower band sits at kd * j + i of the
        # column-major (kd + 1, n) storage
        band[kd * columns[below] + rows[below]] = pencil.data[part][below]
    factor, info = scipy.linalg.lapack.dpbtrf(
        band.reshape((kd + 1, n), order="F"), lower=1, overwrite_ab=1)
    if info > 0:
        raise NumericalError(f"K + sM is not positive definite at s = {s:.6e}")
    solve = scipy.linalg.lapack.dtbtrs

    def product(x):
        y = solve(factor, x, uplo="L", trans="T")[0]
        return solve(factor, m @ y, uplo="L")[0]

    c = scipy.sparse.linalg.LinearOperator((n, n), matvec=product,
                                           dtype=float)
    nu, y = _lanczos("band", c, count, which="LA")
    return nu, solve(factor, y, uplo="L", trans="T")[0]


def _shift_invert_pairs(pencil, k, m, count: int, s: float) -> tuple:
    """(nu, modes) of the ``count`` largest nu = 1/(omega^2 + s) of sparse
    (K, M), by Lanczos on (K + sM)^-1 M (ARPACK's shift-invert mode about
    sigma = -s, below every omega^2).

    ``pencil`` = K + sM, in CSC, is factored once with a symmetric
    minimum-degree ordering and diagonal pivots, its entries that cancel
    exactly dropped in place first: the ordering follows the stored
    pattern, and the recorded splu results in ``tests/data`` are those of
    a sparse sum of K and sM, which drops them.
    """
    import scipy.sparse.linalg

    n = k.shape[0]
    pencil.eliminate_zeros()
    try:
        lu = scipy.sparse.linalg.splu(
            pencil, permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericalError(
            f"K - sigma M is singular at sigma = {-s:.6e}: {exc}"
        ) from exc
    opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve,
                                               dtype=float)
    # M as a bare product: scipy's own wrapper of a sparse matrix sends
    # each M x through matmat on an (n, 1) column
    mass = scipy.sparse.linalg.LinearOperator((n, n), matvec=m.__matmul__,
                                              dtype=float)
    omega_sq, v = _lanczos("shift-invert", k, count, mass, sigma=-s,
                           OPinv=opinv)
    return 1.0 / (omega_sq + s), v


def _lanczos(kind: str, a, count: int, *args, **kwargs) -> tuple:
    """``count`` eigenpairs of ``a`` by ``eigsh``, ARPACK's failure raised
    as a ``NumericalError`` naming ``kind``.  The start vector is fixed, so
    runs repeat, and random, so no symmetry class of a symmetric mesh is
    missing from it."""
    import scipy.sparse.linalg

    start = np.random.default_rng(0).standard_normal(a.shape[0])
    # eigsh keeps its default tolerance (machine precision): asked for 12
    # modes of the free 12x12 unit square (507 DOFs) with tol=1e-10, it
    # returned one copy of the double omega 62.657263 and the next mode,
    # 79.245949, in place of the other, every residual within 7.1e-10, so
    # the residual check cannot see such a missed mode
    try:
        return scipy.sparse.linalg.eigsh(a, count, *args, v0=start, **kwargs)
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericalError(f"{kind} Lanczos failed: {exc}") from exc


def frequency_parameter(omega, a: float, material: PlateMaterial,
                        normalization: str = "plain"):
    """Dimensionless frequency parameter omega * a^2 * sqrt(rho t / D),
    divided by pi^2 for ``per_pi2``.

    The parameter of a nonzero omega must be a finite normal double, else
    ``ValidationError`` names the reference length ``a`` (rigid modes at
    omega = 0 keep their 0).
    """
    if a <= 0.0:
        raise ValidationError("reference length must be positive")
    if normalization not in ("plain", "per_pi2"):
        raise ValidationError(f"unknown normalization {normalization!r}")
    omega = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        value = omega * a * a * math.sqrt(
            material.rho * material.t / material.rigidity
        )
        if normalization == "per_pi2":
            value = value / math.pi ** 2
    size = np.abs(value[omega != 0.0])
    if not np.all((size >= np.finfo(float).tiny) & (size < math.inf)):
        raise ValidationError(
            f"reference_length {a:.3e} puts a frequency parameter outside "
            "the normal double range")
    return value


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
    ``edges`` holds the nodes of each side of ``quad`` in its vertex
    order, the collapsed side left out.
    """
    params = GeneralizedParams(BILINEAR_MONOMIALS,
                               bilinear_coefficients(quad.vertices))
    nodes = params.point(lattice_points(
        -1.0 + 2.0 * np.arange(m + 1) / m, -1.0 + 2.0 * np.arange(n + 1) / n))
    ids = np.arange(len(nodes)).reshape(m + 1, n + 1)
    if apex:
        ids[m] = ids[m, 0]
        nodes = nodes[:ids[m, 0] + 1]
    elements = np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:],
                         ids[:-1, 1:]], axis=-1)
    sides = (ids[:, 0], ids[m], ids[:, n], ids[0])
    edges = tuple(tuple(np.unique(side).tolist()) for p, side
                  in enumerate(sides) if not (apex and p == 1))
    return Mesh(nodes=nodes, elements=elements.reshape(-1, 4), edges=edges)


def mesh_quad(vertices, m: int, n: int) -> Mesh:
    """Bilinear transfinite m x n grid over a quadrilateral."""
    if m < 1 or n < 1:
        raise ValidationError("grid subdivisions must be >= 1")
    quad = QuadGeometry(vertices)
    mesh = _lattice_mesh(quad, m, n)
    if not np.array_equal(quad.vertices, vertices):
        # clockwise input, reordered: given edge e is side 3 - e
        mesh.edges = mesh.edges[::-1]
    return mesh


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
    mesh = _lattice_mesh(quad, 3 * level, level, apex=True)
    if area2 < 0.0:
        # given edge e is side 2 - e of the reordered triangle
        mesh.edges = mesh.edges[::-1]
    return mesh


def nodes_on_segment(mesh: Mesh, p0, p1) -> tuple:
    """Indices of mesh nodes within 1e-9 * |p1 - p0| of segment p0-p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    direction = p1 - p0
    length = float(np.linalg.norm(direction))
    if length == 0.0:
        raise ValidationError("zero-length segment")
    rel = mesh.nodes - p0
    s = np.clip(rel @ direction / (length * length), 0.0, 1.0)
    foot = p0 + s[:, None] * direction
    dist = np.linalg.norm(mesh.nodes - foot, axis=1)
    return tuple(int(i) for i in np.flatnonzero(dist <= 1e-9 * length))


#: The 5x5 natural lattice ``mode_shape_samples`` evaluates (t1 outer).
_SAMPLE_POINTS = fixed_points(lattice_points(np.linspace(-1.0, 1.0, 5),
                                             np.linspace(-1.0, 1.0, 5)))


def mode_shape_samples(system: GlobalSystem, modes: np.ndarray) -> np.ndarray:
    """Sample mode deflections on a per-element natural grid.

    ``modes`` holds one constrained mode vector per column.  Returns a
    (modes, P, 3) array: row j holds the (x, y, u) of mode j at the 25
    points of each element's 5x5 theta lattice, element by element, from
    that element's deflection expansion.  x and y are the same in every
    row.  ``Report.to_plot`` prints these arrays with every number
    byte-identical to ``'%.6e'``; ``Report.to_dict`` lists them.

    The elements and their geometry are the ones ``assemble`` kept on the
    system; a system without them (built by hand) raises
    ``ValidationError``.
    """
    if system.geometry is None:
        raise ValidationError("the system carries no element geometry")
    elements, coeffs, fractions, blocks, _ = system.geometry
    full = np.zeros((modes.shape[1], system.dof_map.size))  # one row per mode
    kept = system.dof_map.ravel()
    full[:, kept >= 0] = modes[kept[kept >= 0]].T
    t = _transforms(blocks)
    xy = GeneralizedParams(BILINEAR_MONOMIALS, coeffs[:, None]) \
        .point(_SAMPLE_POINTS).reshape(-1, 2)
    rows = deflection_rows(_SAMPLE_POINTS, fractions)
    samples = np.empty((len(full), len(xy), 3))
    samples[:, :, :2] = xy
    for sample, vector in zip(samples, full):
        local = t @ vector.reshape(-1, 3)[elements].reshape(-1, 12, 1)
        # one (1, 12) @ (12, 1) product per sample: the rounding of the
        # scalar row-by-vector dot
        sample[:, 2] = (rows[:, :, None, :] @ local[:, None]).ravel()
    return samples
