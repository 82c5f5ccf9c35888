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

For straight edges every scheme gives the bilinear transformation, so an
element's K and M depend only on its Jacobians at the Gauss points and
its subarea fractions.  ``batch_element_matrices`` computes them for many
elements at once from fixed tables per Gauss rule; ``element_matrices``
is that kernel on one scheme's own map.  The scalar per-Gauss-point
element is the tests' reference (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .mapping import MappingScheme, det2, fixed_points, lattice_points
from .quadrature import GaussRule, positive_jacobians

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


# Columns of the boundary rotation rows: (u, rotation) DOF pairs of the
# edge's two end nodes, in Hermite order (left value, left slope, right
# value, right slope).
_EDGE_BOTTOM = np.array([0, 2, 3, 5])    # (i)(j), Hermite in theta1, phi2
_EDGE_RIGHT = np.array([3, 4, 6, 7])     # (j)(k), Hermite in theta2, phi1
_EDGE_TOP = np.array([9, 11, 6, 8])      # (l)(k), Hermite in theta1, phi2
_EDGE_LEFT = np.array([0, 1, 9, 10])     # (i)(l), Hermite in theta2, phi1


def _boundary_rows(theta):
    """Rotations along the four element boundaries as the rows of a 4x12
    matrix on the element DOF vector, and their parametric derivatives.

    Row order: phi2 on (i)(j), phi1 on (j)(k), phi2 on (l)(k), phi1 on
    (i)(l).  Each row is the derivative of the edge's Hermite deflection
    interpolant, signed per the rotation convention, and restricted to
    that edge's nodal DOFs.
    """
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


#: Rotation field at the element center: the slopes of ``deflection_rows``.
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


#: Centers of the four natural quadrants (4, 2), one per corner node.
#: det J is affine in theta for straight edges, so a quadrant's area
#: (natural area 1) is det J at its center.
QUADRANT_CENTERS = fixed_points(
    ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)))


def deflection_rows(points, fractions) -> np.ndarray:
    """Deflection at natural points (n, 2) as rows on the DOF vector, for
    one or many elements' subarea fractions (..., 4); shape (..., n, 12).

    The deflection is expanded linearly about the element center: the
    center value is the subarea-weighted average of the nodal deflections
    and the two slopes are the center rotations, signed per the rotation
    convention (du/dtheta1 = -phi2, du/dtheta2 = +phi1).  This expansion
    only distributes mass; it does not enter the stiffness.
    """
    t = np.asarray(points, dtype=float)
    center = np.zeros(np.shape(fractions)[:-1] + (1, 12))
    center[..., 0, U_DOFS] = fractions
    return (center - t[:, :1] * _CENTER_ROTATION[1]
            + t[:, 1:] * _CENTER_ROTATION[0])


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
    agree with the scalar element of ``tests/oracles.py`` to round-off
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
    scale = rule.tensor_weights * det
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


def element_matrices(scheme: MappingScheme, material: PlateMaterial,
                     rule: GaussRule, rotary: bool = False) -> ElementMatrices:
    """Stiffness and mass of one element: ``batch_element_matrices`` on
    the Jacobians of the scheme's own map at the points of ``rule``.

    A det J at or below 1e-12 diam^2 at a Gauss point raises
    ``NumericalError`` (``positive_jacobians``); the subarea fractions are
    det J at the ``QUADRANT_CENTERS``, as in mesh assembly.
    """
    jac, det = positive_jacobians(scheme, rule)
    areas = det2(scheme.params.gradient(QUADRANT_CENTERS))
    k, m = batch_element_matrices(jac[None], det[None],
                                  (areas / areas.sum())[None], material,
                                  rule, rotary=rotary)
    return ElementMatrices(k=k[0], m=m[0])


def _check_rule(rule: GaussRule):
    # 3x3 integrates M exactly for straight edges (det J affine in theta),
    # but K only on parallelograms: elsewhere h = g g^T carries 1/det^2,
    # and K moves by 5.5e-3 relative from Gauss 3 to 6 on a trapezoid,
    # 0.26 on the skew quad [[0,0],[8,0],[4,3],[0,5]].  Lower orders
    # underintegrate and admit spurious modes.
    if rule.order < 3:
        raise ValidationError("element integration needs Gauss order >= 3")

