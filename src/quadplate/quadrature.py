"""Gauss-Legendre rules on [-1, 1], the per-point det J check of a
scheme's map at a rule's points, and section properties."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .mapping import (MappingScheme, det2, fixed_points, lattice_points,
                      next_vertex)

# Nodes and weights are hard-coded (radicals up to n=5, standard 16-digit
# literals for n=6) for determinism; no root finding at runtime.
_SQRT30 = math.sqrt(30.0)
_SQRT70 = math.sqrt(70.0)
_GAUSS_TABLE = {
    1: ([0.0], [2.0]),
    2: ([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], [1.0, 1.0]),
    3: (
        [-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)],
        [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0],
    ),
    4: (
        [
            -math.sqrt((3.0 + 2.0 * math.sqrt(6.0 / 5.0)) / 7.0),
            -math.sqrt((3.0 - 2.0 * math.sqrt(6.0 / 5.0)) / 7.0),
            math.sqrt((3.0 - 2.0 * math.sqrt(6.0 / 5.0)) / 7.0),
            math.sqrt((3.0 + 2.0 * math.sqrt(6.0 / 5.0)) / 7.0),
        ],
        [
            (18.0 - _SQRT30) / 36.0,
            (18.0 + _SQRT30) / 36.0,
            (18.0 + _SQRT30) / 36.0,
            (18.0 - _SQRT30) / 36.0,
        ],
    ),
    5: (
        [
            -math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0,
            -math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0,
            0.0,
            math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0,
            math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0,
        ],
        [
            (322.0 - 13.0 * _SQRT70) / 900.0,
            (322.0 + 13.0 * _SQRT70) / 900.0,
            128.0 / 225.0,
            (322.0 + 13.0 * _SQRT70) / 900.0,
            (322.0 - 13.0 * _SQRT70) / 900.0,
        ],
    ),
    6: (
        [
            -0.9324695142031521,
            -0.6612093864662645,
            -0.2386191860831969,
            0.2386191860831969,
            0.6612093864662645,
            0.9324695142031521,
        ],
        [
            0.1713244923791704,
            0.3607615730481386,
            0.4679139345726910,
            0.4679139345726910,
            0.3607615730481386,
            0.1713244923791704,
        ],
    ),
}


@dataclass(frozen=True, eq=False)
class GaussRule:
    """A one-dimensional Gauss-Legendre rule on [-1, 1], with the points
    (n*n, 2) and weights (n*n,) of its two-dimensional tensor rule in
    ``lattice_points`` order (t1 outer), all read-only.  Only the rules
    of ``gauss_rule`` declare their tensor points ``fixed_points``."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    tensor_points: np.ndarray = field(init=False)
    tensor_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = lattice_points(self.nodes, self.nodes).astype(float)
        weights = np.outer(self.weights, self.weights).ravel()
        for table in (self.nodes, self.weights, points, weights):
            table.setflags(write=False)
        object.__setattr__(self, "tensor_points", points)
        object.__setattr__(self, "tensor_weights", weights)


def _declared_rule(order: int, nodes, weights) -> GaussRule:
    rule = GaussRule(order, np.array(nodes), np.array(weights))
    object.__setattr__(rule, "tensor_points", fixed_points(rule.tensor_points))
    return rule


#: One rule per order, built at import, its tensor points declared fixed.
_RULES = {order: _declared_rule(order, nodes, weights)
          for order, (nodes, weights) in _GAUSS_TABLE.items()}


def gauss_rule(order: int) -> GaussRule:
    """Return the Gauss-Legendre rule of the given order (1..6)."""
    if order not in _RULES:
        raise ValidationError(f"Gauss order must be in 1..6, got {order}")
    return _RULES[order]


def positive_jacobians(scheme: MappingScheme, rule: GaussRule) -> tuple:
    """Jacobians (n, 2, 2) and determinants (n,) of the scheme's map at
    the points of ``rule.tensor_points``.

    This is the package's one per-point det J rule: a determinant at or
    below 1e-12 diam^2 at any point (folded or degenerate mapping) raises
    ``NumericalError`` naming the first such point and its det J.
    """
    points = rule.tensor_points
    matrix = scheme.params.gradient(points)
    det = det2(matrix)
    diam = scheme.quad.diameter
    bad = det <= 1e-12 * diam * diam
    if bad.any():
        k = bad.argmax()
        raise NumericalError(
            f"non-positive Jacobian at quadrature point "
            f"{tuple(map(float, points[k]))}: det J = {det[k]:.3e}")
    return matrix, det


@dataclass(frozen=True, eq=False)
class SectionProperties:
    """Area and second moments about the global Cartesian axes.

    Moments are taken about the axes through the origin, not the centroid:
    ``i_x1`` integrates (x2)^2, ``i_x2`` integrates (x1)^2, and
    ``i_x1x2`` is the product moment.
    """

    area: float
    i_x1: float
    i_x2: float
    i_x1x2: float

    def as_dict(self) -> dict:
        return {
            "area": self.area,
            "i_x1": self.i_x1,
            "i_x2": self.i_x2,
            "i_x1x2": self.i_x1x2,
        }


def section_properties(scheme: MappingScheme, rule: GaussRule) -> SectionProperties:
    """Area and moments of inertia of the mapped element: the integrals of
    1, x2^2, x1^2 and x1 x2 with area element det J dtheta1 dtheta2
    (``positive_jacobians``), Gauss terms summed in point order."""
    points, weights = rule.tensor_points, rule.tensor_weights
    _, det = positive_jacobians(scheme, rule)
    x1, x2 = scheme.params.point(points).T
    values = np.empty((4, len(points)))
    values[0] = 1.0
    np.multiply(x2, x2, out=values[1])
    np.multiply(x1, x1, out=values[2])
    np.multiply(x1, x2, out=values[3])
    total = (weights * values * det).cumsum(axis=-1)[..., -1]
    return SectionProperties(*total.tolist())


def polygon_section_properties(vertices) -> SectionProperties:
    """Closed-form polygon area and moments (Green's theorem).

    Independent of any mapping scheme; used to report exact-vs-computed
    deltas for straight-edged quadrilaterals.
    """
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    following = next_vertex(len(v))
    xn, yn = x[following], y[following]
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    i_x1 = float((cross * (y * y + y * yn + yn * yn)).sum()) / 12.0
    i_x2 = float((cross * (x * x + x * xn + xn * xn)).sum()) / 12.0
    i_x1x2 = float((cross * (x * yn + 2.0 * x * y + 2.0 * xn * yn
                             + xn * y)).sum()) / 24.0
    return SectionProperties(area=area, i_x1=i_x1, i_x2=i_x2, i_x1x2=i_x1x2)
