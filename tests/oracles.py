"""The scalar plate element: one Gauss point at a time on a scheme's own
map, the reference that ``plate_element.batch_element_matrices`` and
``element_matrices`` are checked against.

pytest does not collect this module (no ``test_`` prefix); the tests
import it as the oracle.
"""

from dataclasses import dataclass

import numpy as np

from quadplate import NumericalError, ValidationError
from quadplate.mapping import MappingScheme, det2
from quadplate.plate_element import (
    ElementMatrices,
    PlateMaterial,
    QUADRANT_CENTERS,
    _check_rule,
    curvature_operator,
    deflection_rows,
    rotation_field,
)
from quadplate.quadrature import GaussRule, gauss_rule


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


def point_jacobian(scheme: MappingScheme, theta) -> tuple:
    """Covariant base vectors (2, 2) and det J of the scheme's map at one
    natural point; ``matrix[a, i]`` is d x_i / d theta_a.

    A det J at or below 1e-12 diam^2 (folded or degenerate mapping)
    raises ``NumericalError``.
    """
    matrix = scheme.params.gradient(theta)
    det = float(det2(matrix))
    diam = scheme.quad.diameter
    if det <= 1e-12 * diam * diam:
        raise NumericalError(
            f"folded element: det J = {det:.3e} "
            f"at theta={tuple(map(float, theta))}"
        )
    return matrix, det


def contravariant(matrix: np.ndarray) -> np.ndarray:
    """Dual base-vector components of the covariant base vectors
    ``matrix`` (2, 2); ``[a, i]`` is d theta_a / d x_i."""
    return np.linalg.inv(matrix.T)


#: Natural index pairs (a, b) of the Voigt order (11, 22, 12).
_VOIGT_A = np.array([0, 1, 0])
_VOIGT_B = np.array([0, 1, 1])


def natural_rigidity(material: PlateMaterial,
                     matrix: np.ndarray) -> np.ndarray:
    """Bending rigidity in natural indices, condensed to a Voigt 3x3.

    The Cartesian isotropic Kirchhoff tensor is transformed with four
    contravariant factors of the covariant base vectors ``matrix``
    (``g[a, i]`` = d theta_a / d x_i); the Voigt ordering matches the
    curvature rows (chi11, chi22, 2*chi12), so the quadratic form
    chi^T E chi is the bending energy density.
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
    g = contravariant(matrix)
    e4 = np.einsum("...ai,...bj,...ck,...dl,ijkl->...abcd",
                   g, g, g, g, cartesian)
    voigt = e4[..., _VOIGT_A[:, None], _VOIGT_B[:, None],
               _VOIGT_A[None, :], _VOIGT_B[None, :]]
    return 0.5 * (voigt + np.swapaxes(voigt, -1, -2))


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
                total += 0.25 * w1 * w2 * point_jacobian(scheme, theta)[1]
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


def element_stiffness(scheme: MappingScheme, material: PlateMaterial,
                      rule: GaussRule) -> np.ndarray:
    """12x12 bending stiffness, integrated in natural coordinates."""
    _check_rule(rule)
    k = np.zeros((12, 12))
    for t1, w1 in zip(rule.nodes, rule.weights):
        for t2, w2 in zip(rule.nodes, rule.weights):
            theta = (t1, t2)
            matrix, det = point_jacobian(scheme, theta)
            b = curvature_operator(theta)
            e = natural_rigidity(material, matrix)
            k += (w1 * w2 * det) * (b.T @ e @ b)
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
            _, det = point_jacobian(scheme, theta)
            n = np.vstack([deflection_row(theta, weights),
                           rotation_field(theta)])
            m += (w1 * w2 * det) * (n.T @ density @ n)
    return 0.5 * (m + m.T)


def element_matrices(scheme: MappingScheme, material: PlateMaterial,
                     rule: GaussRule, rotary: bool = False) -> ElementMatrices:
    """Stiffness and mass of one element."""
    return ElementMatrices(
        k=element_stiffness(scheme, material, rule),
        m=element_mass(scheme, material, rule, rotary=rotary),
    )
