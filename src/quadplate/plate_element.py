"""Compatible 12-DOF thin-plate bending element on a mapped quadrilateral.

Each corner node carries (u, phi1, phi2): the transverse deflection and
the rotations conjugate to the natural directions, with the convention
phi1 = +du/dtheta2 and phi2 = -du/dtheta1 (rotations about the natural
axes).  The DOF vector is ordered (u, phi1, phi2) over nodes (i), (j),
(k), (l), i.e. the corners (-1,-1), (1,-1), (1,1), (-1,1).

Edge deflections are cubic Hermite interpolants of the two end values and
end rotations; the interior rotation field blends each pair of opposite
boundary rotations linearly across the element.  The trace of deflection
and rotations on an edge depends only on that edge's nodal DOFs, which
gives C1 continuity between elements sharing an edge.

Curvatures are the symmetrized natural gradient of the rotation field,
with signs fixed so that on a square element the operator reproduces
-d2w/dtheta_a dtheta_b of the Hermite interpolant.  The bending energy is
evaluated in natural coordinates with the isotropic Kirchhoff rigidity
pushed through the inverse Jacobian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .mapping import MappingScheme, Jacobian, jacobian, lattice_points
from .quadrature import GaussRule, gauss_rule

#: Positions of the deflection and rotation DOFs in the 12-entry vector.
U_DOFS = np.array([0, 3, 6, 9])
PHI1_DOFS = np.array([1, 4, 7, 10])
PHI2_DOFS = np.array([2, 5, 8, 11])


@dataclass(frozen=True)
class PlateMaterial:
    """Isotropic thin-plate material: modulus E, Poisson ratio nu,
    thickness t, mass density rho."""

    E: float
    nu: float
    t: float
    rho: float

    def __post_init__(self):
        for name in ("E", "nu", "t", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"material {name} must be finite")
        if self.E <= 0.0:
            raise ValidationError("elastic modulus must be positive")
        if not 0.0 <= self.nu < 0.5:
            raise ValidationError("Poisson ratio must lie in [0, 0.5)")
        if self.t <= 0.0:
            raise ValidationError("thickness must be positive")
        if self.rho <= 0.0:
            raise ValidationError("density must be positive")

    @property
    def rigidity(self) -> float:
        """Flexural rigidity D = E t^3 / (12 (1 - nu^2))."""
        return self.E * self.t ** 3 / (12.0 * (1.0 - self.nu ** 2))


@dataclass(frozen=True, eq=False)
class SubareaWeights:
    """Fractions of element area in the four natural quadrants, one per
    corner; they average nodal deflections into the center deflection."""

    fractions: np.ndarray

    def __post_init__(self):
        f = np.array(self.fractions, dtype=float)
        if f.shape != (4,):
            raise ValidationError("need exactly four subarea fractions")
        if np.any(f <= 0.0) or np.any(f >= 1.0):
            raise NumericalError(
                f"subarea fractions outside (0, 1): {f} (folded element?)"
            )
        if abs(f.sum() - 1.0) > 1e-12:
            raise NumericalError(f"subarea fractions sum to {f.sum()!r}, not 1")
        f.setflags(write=False)
        object.__setattr__(self, "fractions", f)


@dataclass(frozen=True, eq=False)
class ElementMatrices:
    """Stiffness and mass of one element, natural-frame DOFs."""

    k: np.ndarray
    m: np.ndarray


def _hermite(t: float, direction: int):
    """Hermite cubic set of one direction: values, first and second
    derivatives.

    The slope-conjugate functions h2, h4 carry opposite signs in the two
    directions so that the end derivative paired with a rotation DOF is
    always +1 under that direction's sign convention (phi2 = -du/dtheta1,
    phi1 = +du/dtheta2); direction 2 negates them, which is exact.
    """
    if direction not in (1, 2):
        raise ValidationError(f"direction must be 1 or 2, got {direction}")
    t2 = t * t
    t3 = t2 * t
    d1 = 0.25 * (-3.0 + 3.0 * t2)
    dd1 = 1.5 * t
    table = np.array([
        [0.25 * (2.0 - 3.0 * t + t3), 0.25 * (-1.0 + t + t2 - t3),
         0.25 * (2.0 + 3.0 * t - t3), 0.25 * (1.0 + t - t2 - t3)],
        [d1, 0.25 * (1.0 + 2.0 * t - 3.0 * t2),
         -d1, 0.25 * (1.0 - 2.0 * t - 3.0 * t2)],
        [dd1, 0.25 * (2.0 - 6.0 * t), -dd1, 0.25 * (-2.0 - 6.0 * t)],
    ])
    if direction == 2:
        table *= [1.0, -1.0, 1.0, -1.0]
    return table[0], table[1], table[2]


def hermite_basis(t: float, direction: int):
    """The four edge Hermite cubics of one direction and their
    derivatives; returns ``(values, first_derivatives)``."""
    h, dh, _ = _hermite(t, direction)
    return h, dh


# Columns of the boundary rotation rows: (u, rotation) DOF pairs of the
# edge's two end nodes, in Hermite order (left value, left slope, right
# value, right slope).
_EDGE_BOTTOM = np.array([0, 2, 3, 5])    # (i)(j), Hermite in theta1, phi2
_EDGE_RIGHT = np.array([3, 4, 6, 7])     # (j)(k), Hermite in theta2, phi1
_EDGE_TOP = np.array([9, 11, 6, 8])      # (l)(k), Hermite in theta1, phi2
_EDGE_LEFT = np.array([0, 1, 9, 10])     # (i)(l), Hermite in theta2, phi1


def _boundary_rows(theta):
    """The four boundary rotation rows and their parametric derivatives."""
    _, d1, dd1 = _hermite(float(theta[0]), 1)
    _, d2, dd2 = _hermite(float(theta[1]), 2)
    rows = np.zeros((4, 12))
    drows = np.zeros((4, 12))
    rows[0, _EDGE_BOTTOM] = -d1
    rows[1, _EDGE_RIGHT] = d2
    rows[2, _EDGE_TOP] = -d1
    rows[3, _EDGE_LEFT] = d2
    drows[0, _EDGE_BOTTOM] = -dd1    # d/dtheta1
    drows[1, _EDGE_RIGHT] = dd2      # d/dtheta2
    drows[2, _EDGE_TOP] = -dd1
    drows[3, _EDGE_LEFT] = dd2
    return rows, drows


def boundary_rotation_matrix(theta) -> np.ndarray:
    """Rotations along the four element boundaries as rows of a 4x12
    matrix acting on the element DOF vector.

    Row order: phi2 on (i)(j), phi1 on (j)(k), phi2 on (l)(k), phi1 on
    (i)(l).  Each row is the derivative of the edge's Hermite deflection
    interpolant, signed per the rotation convention, and restricted to
    that edge's nodal DOFs.
    """
    rows, _ = _boundary_rows(theta)
    return rows


def rotation_field(theta) -> np.ndarray:
    """Interior rotations (phi1; phi2) as a 2x12 matrix.

    Each rotation blends the matching pair of opposite boundary rotations
    linearly in the crossing coordinate, so on an edge the field reduces
    to that edge's boundary row.
    """
    t1, t2 = float(theta[0]), float(theta[1])
    rows, _ = _boundary_rows(theta)
    return np.vstack([
        0.5 * (1.0 - t1) * rows[3] + 0.5 * (1.0 + t1) * rows[1],
        0.5 * (1.0 - t2) * rows[0] + 0.5 * (1.0 + t2) * rows[2],
    ])


#: Rotation field at the element center: the slopes of ``deflection_row``.
_CENTER_ROTATION = rotation_field((0.0, 0.0))


def curvature_operator(theta) -> np.ndarray:
    """Natural-coordinate curvature rows (chi11, chi22, 2*chi12) as a 3x12
    matrix.

    chi11 = d(phi2)/dtheta1, chi22 = -d(phi1)/dtheta2 and 2*chi12 is the
    symmetrized cross term; on a square element this reproduces
    -d2w/dtheta_a dtheta_b of the Hermite interpolant.
    """
    t1, t2 = float(theta[0]), float(theta[1])
    rows, drows = _boundary_rows(theta)
    dphi1_dt1 = 0.5 * (rows[1] - rows[3])
    dphi1_dt2 = 0.5 * (1.0 - t1) * drows[3] + 0.5 * (1.0 + t1) * drows[1]
    dphi2_dt1 = 0.5 * (1.0 - t2) * drows[0] + 0.5 * (1.0 + t2) * drows[2]
    dphi2_dt2 = 0.5 * (rows[2] - rows[0])
    return np.vstack([
        dphi2_dt1,
        -dphi1_dt2,
        dphi2_dt2 - dphi1_dt1,
    ])


#: Natural index pairs (a, b) of the Voigt order (11, 22, 12).
_VOIGT_A = np.array([0, 1, 0])
_VOIGT_B = np.array([0, 1, 1])


def natural_rigidity(material: PlateMaterial, jac: Jacobian) -> np.ndarray:
    """Bending rigidity in natural indices, condensed to a Voigt 3x3.

    The Cartesian isotropic Kirchhoff tensor is transformed with four
    contravariant base-vector factors (``g[a, i]`` = d theta_a / d x_i);
    the Voigt ordering matches the curvature rows (chi11, chi22, 2*chi12),
    so the quadratic form chi^T E chi is the bending energy density.
    """
    d = material.rigidity
    nu = material.nu
    delta = np.eye(2)
    cartesian = d * (
        nu * np.einsum("ij,kl->ijkl", delta, delta)
        + 0.5 * (1.0 - nu) * (
            np.einsum("ik,jl->ijkl", delta, delta)
            + np.einsum("il,jk->ijkl", delta, delta)
        )
    )
    g = jac.contravariant
    e4 = np.einsum("...ai,...bj,...ck,...dl,ijkl->...abcd",
                   g, g, g, g, cartesian)
    voigt = e4[..., _VOIGT_A[:, None], _VOIGT_B[:, None],
               _VOIGT_A[None, :], _VOIGT_B[None, :]]
    return 0.5 * (voigt + np.swapaxes(voigt, -1, -2))


#: Centers of the four natural quadrants, one per corner node.
QUADRANT_CENTERS = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))


def subarea_weights(scheme: MappingScheme, rule: GaussRule | None = None
                    ) -> SubareaWeights:
    """Fraction of element area in each natural quadrant.

    Each subarea is the integral of det J over the quadrant between the
    two edges meeting at that corner and the coordinate lines through the
    element center.
    """
    if rule is None:
        rule = gauss_rule(3)
    areas = np.empty(4)
    for p, (c1, c2) in enumerate(QUADRANT_CENTERS):
        total = 0.0
        for s1, w1 in zip(rule.nodes, rule.weights):
            for s2, w2 in zip(rule.nodes, rule.weights):
                theta = (c1 + 0.5 * s1, c2 + 0.5 * s2)
                total += 0.25 * w1 * w2 * jacobian(scheme, theta).det
        areas[p] = total
    return SubareaWeights(areas / areas.sum())


def deflection_row(theta, weights: SubareaWeights) -> np.ndarray:
    """Deflection at a natural point as a 1x12 row on the DOF vector.

    The deflection is expanded linearly about the element center: the
    center value is the subarea-weighted average of the nodal deflections
    and the two slopes are the center rotations, signed per the rotation
    convention (du/dtheta1 = -phi2, du/dtheta2 = +phi1).  This expansion
    only distributes mass; it does not enter the stiffness.
    """
    return deflection_rows([theta], weights.fractions)[0]


def deflection_rows(points, fractions) -> np.ndarray:
    """``deflection_row`` at many points (n, 2) for one or many elements'
    subarea fractions (..., 4); shape (..., n, 12)."""
    t = np.asarray(points, dtype=float)
    center = np.zeros(np.shape(fractions)[:-1] + (1, 12))
    center[..., 0, U_DOFS] = fractions
    return (center - t[:, :1] * _CENTER_ROTATION[1]
            + t[:, 1:] * _CENTER_ROTATION[0])


def element_stiffness(scheme: MappingScheme, material: PlateMaterial,
                      rule: GaussRule) -> np.ndarray:
    """12x12 bending stiffness, integrated in natural coordinates."""
    _check_rule(rule)
    k = np.zeros((12, 12))
    for t1, w1 in zip(rule.nodes, rule.weights):
        for t2, w2 in zip(rule.nodes, rule.weights):
            theta = (t1, t2)
            jac = _positive_jacobian(scheme, theta)
            b = curvature_operator(theta)
            e = natural_rigidity(material, jac)
            k += (w1 * w2 * jac.det) * (b.T @ e @ b)
    return 0.5 * (k + k.T)


def element_mass(scheme: MappingScheme, material: PlateMaterial,
                 rule: GaussRule, rotary: bool = False) -> np.ndarray:
    """12x12 consistent mass.

    Translational inertia rho*t acts on the deflection expansion; rotary
    inertia rho*t^3/12 on the rotation field when ``rotary`` is set
    (default off for thin-plate frequency tables).
    """
    _check_rule(rule)
    weights = subarea_weights(scheme, rule)
    r = material.rho * material.t ** 3 / 12.0 if rotary else 0.0
    density = np.diag([material.rho * material.t, r, r])
    m = np.zeros((12, 12))
    for t1, w1 in zip(rule.nodes, rule.weights):
        for t2, w2 in zip(rule.nodes, rule.weights):
            theta = (t1, t2)
            jac = _positive_jacobian(scheme, theta)
            n = np.vstack([deflection_row(theta, weights),
                           rotation_field(theta)])
            m += (w1 * w2 * jac.det) * (n.T @ density @ n)
    return 0.5 * (m + m.T)


def element_matrices(scheme: MappingScheme, material: PlateMaterial,
                     rule: GaussRule, rotary: bool = False) -> ElementMatrices:
    """Stiffness and mass of one element."""
    return ElementMatrices(
        k=element_stiffness(scheme, material, rule),
        m=element_mass(scheme, material, rule, rotary=rotary),
    )


#: Upper-triangle Voigt pairs (I, J) of the symmetric natural rigidity.
_UPPER_I, _UPPER_J = np.triu_indices(3)


@functools.lru_cache(maxsize=None)
def _kernel_tables(nodes: tuple) -> tuple:
    """Fixed tables of ``batch_element_matrices`` for the tensor rule on
    the one-dimensional Gauss ``nodes``, read-only, each with 144 columns
    (a flattened 12x12).

    Returns ``(stiffness, mass, rotary)``.  ``stiffness`` row (p, q) is
    B_I^T B_J + B_J^T B_I (B_I^T B_I when I = J), B_I the curvature rows
    at point p and (I, J) the q-th pair of ``_UPPER_I``, ``_UPPER_J``.
    ``mass`` stacks a_p^T a_p (P rows), e_i^T a_p + a_p^T e_i (4P rows,
    p outer) and e_i^T e_j (16 rows), a_p being the deflection row at
    point p with zero subarea fractions and e_i the unit row on the i-th
    deflection DOF.  ``rotary`` rows are R_p^T R_p, R_p the rotation
    field.
    """
    points = lattice_points(np.array(nodes), np.array(nodes))
    b = np.stack([curvature_operator(theta) for theta in points])
    outer = b[:, _UPPER_I, :, None] * b[:, _UPPER_J, None, :]
    outer[:, _UPPER_I != _UPPER_J] += np.swapaxes(
        outer[:, _UPPER_I != _UPPER_J], 2, 3)
    a = deflection_rows(points, np.zeros(4))
    unit = np.eye(12)[U_DOFS]
    cross = unit[None, :, :, None] * a[:, None, None, :]
    rotation = np.stack([rotation_field(theta) for theta in points])
    tables = (
        outer.reshape(-1, 144),
        np.concatenate([
            (a[:, :, None] * a[:, None, :]).reshape(-1, 144),
            (cross + np.swapaxes(cross, 2, 3)).reshape(-1, 144),
            (unit[:, None, :, None] * unit[None, :, None, :])
            .reshape(-1, 144),
        ]),
        np.einsum("pki,pkj->pij", rotation, rotation).reshape(-1, 144),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def batch_element_matrices(jac: np.ndarray, det: np.ndarray,
                           fractions: np.ndarray, material: PlateMaterial,
                           rule: GaussRule, rotary: bool = False) -> tuple:
    """Stiffness and mass of many elements at once, natural-frame DOFs.

    ``jac`` (m, n, 2, 2) and ``det`` (m, n) are each element's Jacobian at
    the points of ``rule.tensor_points``, ``fractions`` (m, 4) its subarea
    fractions.  Returns ``(k, m)``, each (m, 12, 12), in the precision of
    ``jac``.  The caller checks the Jacobians and fractions.  The results
    agree with ``element_stiffness`` and ``element_mass`` to round-off
    (1e-12 relative), not bit for bit.

    With s_p = w_p det J_p at Gauss point p, K is linear in s_p E_p (E_p
    the natural rigidity) and M in s_p, s_p f and sum_p s_p f f^T (f the
    subarea fractions), so each is one product with a fixed table of
    ``_kernel_tables``; rotary inertia adds s_p against ``rotary``.  E_p
    is the closed form D [nu h_ab h_cd + (1 - nu)/2 (h_ac h_bd + h_ad h_bc)]
    with h = g g^T, g the contravariant components.
    """
    _check_rule(rule)
    stiffness, mass, rotation = _kernel_tables(tuple(rule.nodes))
    count = det.shape[0]
    scale = np.outer(rule.weights, rule.weights).ravel() * det
    # h = g g^T, the inverse of the metric J J^T (determinant det^2)
    j = jac / det[..., None, None]
    h00 = j[..., 1, 0] ** 2 + j[..., 1, 1] ** 2
    h11 = j[..., 0, 0] ** 2 + j[..., 0, 1] ** 2
    h01 = -(j[..., 0, 0] * j[..., 1, 0] + j[..., 0, 1] * j[..., 1, 1])
    # the closed form at the (I, J) of _UPPER_I, _UPPER_J: Voigt pairs
    # (11, 11), (11, 22), (11, 12), (22, 22), (22, 12), (12, 12)
    nu = material.nu
    rigidity = material.rigidity * np.stack([
        h00 * h00, nu * h00 * h11 + (1.0 - nu) * h01 * h01, h00 * h01,
        h11 * h11, h11 * h01,
        0.5 * (1.0 + nu) * h01 * h01 + 0.5 * (1.0 - nu) * h00 * h11,
    ], axis=-1)
    k = (scale[..., None] * rigidity).reshape(count, -1) @ stiffness
    features = [scale,
                (scale[:, :, None] * fractions[:, None, :]).reshape(count, -1),
                (scale.sum(axis=1)[:, None, None] * fractions[:, :, None]
                 * fractions[:, None, :]).reshape(count, -1)]
    m = material.rho * material.t * (np.concatenate(features, axis=1) @ mass)
    if rotary:
        m += material.rho * material.t ** 3 / 12.0 * (scale @ rotation)
    return k.reshape(count, 12, 12), m.reshape(count, 12, 12)


def _check_rule(rule: GaussRule):
    # 3x3 integrates the element exactly for straight edges; lower orders
    # underintegrate and admit spurious modes.
    if rule.order < 3:
        raise ValidationError("element integration needs Gauss order >= 3")


def _positive_jacobian(scheme: MappingScheme, theta) -> Jacobian:
    jac = jacobian(scheme, theta)
    if jac.det <= 0.0:
        raise NumericalError(
            f"folded element: det J = {jac.det:.3e} "
            f"at theta={tuple(map(float, theta))}"
        )
    return jac
