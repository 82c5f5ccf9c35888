"""Geometry mapping between the bi-unit square and physical quadrilaterals.

Three interpolation schemes are provided for straight-edged quadrilaterals:

``bilinear``
    The standard four-node map over the basis {1, t1, t2, t1*t2}.
``serendipity8``
    Eight boundary nodes (corners plus edge midpoints) over the
    serendipity basis, which adds t1^2*t2 and t1*t2^2.
``pascal6``
    The complete quadratic basis {1, t1, t2, t1^2, t1*t2, t2^2}
    interpolated at the four corners plus the two poles, the points where
    the extensions of opposite edges intersect.

For straight edges all three produce the same point transformation; they
differ only in their shape functions.  Every scheme stores the polynomial
coefficients of its transformation (``GeneralizedParams``), so point
mapping and Jacobian evaluation are plain polynomial operations that
remain valid outside the bi-unit square.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    DegenerateGeometryError,
    NonconvergenceError,
    NumericalError,
    ValidationError,
)

#: Natural coordinates of the four corner nodes, counterclockwise.
CORNER_NATURAL = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
CORNER_NATURAL.setflags(write=False)

#: Natural coordinates of the four serendipity edge midpoints.
MIDPOINT_NATURAL = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
MIDPOINT_NATURAL.setflags(write=False)

#: Monomial exponent tables, one (e1, e2) pair per basis term.
BILINEAR_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))
PASCAL_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
SERENDIPITY_MONOMIALS = PASCAL_MONOMIALS + ((2, 1), (1, 2))

SCHEME_KINDS = ("bilinear", "serendipity8", "pascal6")

# Shape-function coefficients of the two node-generated schemes, one row
# per node, columns ordered like the monomial tables above.
_BILINEAR_SHAPE_COEFFS = 0.25 * np.array(
    [[1.0, -1.0, -1.0, 1.0],
     [1.0, 1.0, -1.0, -1.0],
     [1.0, 1.0, 1.0, 1.0],
     [1.0, -1.0, 1.0, -1.0]]
)
_SERENDIPITY_SHAPE_COEFFS = 0.25 * np.array(
    [[-1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, -1.0],
     [-1.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0],
     [-1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
     [-1.0, 0.0, 0.0, 1.0, -1.0, 1.0, 1.0, -1.0],
     [2.0, 0.0, -2.0, -2.0, 0.0, 0.0, 2.0, 0.0],
     [2.0, 2.0, 0.0, 0.0, 0.0, -2.0, 0.0, -2.0],
     [2.0, 0.0, 2.0, -2.0, 0.0, 0.0, -2.0, 0.0],
     [2.0, -2.0, 0.0, 0.0, 0.0, -2.0, 0.0, 2.0]]
)
_BILINEAR_SHAPE_COEFFS.setflags(write=False)
_SERENDIPITY_SHAPE_COEFFS.setflags(write=False)


def monomial_values(exponents, theta) -> np.ndarray:
    """Each basis monomial at natural points ``theta`` (..., 2); shape
    (..., n_terms)."""
    t = np.asarray(theta, dtype=float)
    t1, t2 = t[..., 0], t[..., 1]
    out = np.empty(t.shape[:-1] + (len(exponents),))
    for q, (e1, e2) in enumerate(exponents):
        out[..., q] = t1 ** e1 * t2 ** e2
    return out


def monomial_gradients(exponents, theta) -> np.ndarray:
    """Partial derivatives of each monomial at natural points ``theta``
    (..., 2); shape (..., n_terms, 2)."""
    t = np.asarray(theta, dtype=float)
    t1, t2 = t[..., 0], t[..., 1]
    out = np.zeros(t.shape[:-1] + (len(exponents), 2))
    for q, (e1, e2) in enumerate(exponents):
        if e1:
            out[..., q, 0] = e1 * t1 ** (e1 - 1) * t2 ** e2
        if e2:
            out[..., q, 1] = e2 * t1 ** e1 * t2 ** (e2 - 1)
    return out


def det2(matrix) -> np.ndarray:
    """Determinants of 2x2 matrices (..., 2, 2)."""
    return (matrix[..., 0, 0] * matrix[..., 1, 1]
            - matrix[..., 0, 1] * matrix[..., 1, 0])


def twice_signed_area(vertices) -> np.ndarray:
    """Twice the signed area of polygons (..., k, 2) (shoelace formula)."""
    x, y = vertices[..., 0], vertices[..., 1]
    return np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y,
                  axis=-1)


def distance(a, b) -> np.ndarray:
    """Distances |a - b| of points (..., 2), each rounded exactly as
    ``np.linalg.norm`` of one difference vector."""
    d = np.asarray(a, dtype=float) - b
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


def pair_distances(vertices) -> np.ndarray:
    """Distances of vertex pairs p < q (row-major) of polygons (..., k, 2)."""
    p, q = np.triu_indices(vertices.shape[-2], 1)
    return distance(vertices[..., p, :], vertices[..., q, :])


def lattice_points(s1, s2) -> np.ndarray:
    """Natural points (len(s1) * len(s2), 2) of a tensor lattice, t1 outer."""
    return np.stack(np.meshgrid(s1, s2, indexing="ij"), axis=-1).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class QuadGeometry:
    """A straight-edged quadrilateral given by its four Cartesian vertices.

    Vertices must be ordered counterclockwise; clockwise input is accepted
    but reordered with a warning.  Degenerate input (zero area, coincident
    vertices) is rejected.  ``allow_collapsed=True`` additionally accepts
    exactly one coincident *adjacent* pair: a triangle represented as a
    quad with one collapsed edge, used by the triangle mesh generator for
    tip elements.  ``diameter`` is the largest distance between two
    vertices, computed once at construction.
    """

    vertices: np.ndarray
    allow_collapsed: InitVar[bool] = False
    diameter: float = field(init=False)

    def __post_init__(self, allow_collapsed=False):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (4, 2):
            raise DegenerateGeometryError(
                f"expected 4 vertices of 2 coordinates, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise DegenerateGeometryError("non-finite vertex coordinate")
        # Distances square the coordinate differences, which overflow to
        # inf or underflow to 0 at magnitudes near 1e+-154.
        with np.errstate(over="ignore", under="ignore"):
            pairs = pair_distances(v)
            span = float(np.ptp(v, axis=0).max())
        diam = float(pairs.max())
        if not math.isfinite(diam) or (diam == 0.0 and span > 0.0):
            raise DegenerateGeometryError(
                f"vertex coordinates span {span:.3e}, outside the range "
                f"whose squared distances are finite and nonzero"
            )
        if diam == 0.0:
            raise DegenerateGeometryError("all vertices coincide")
        coincident = [(int(p), int(q))
                      for p, q, d in zip(*np.triu_indices(4, 1), pairs)
                      if d <= 1e-12 * diam]
        if coincident:
            adjacent = all((q - p) in (1, 3) for p, q in coincident)
            if not (allow_collapsed and len(coincident) == 1 and adjacent):
                p, q = coincident[0]
                raise DegenerateGeometryError(
                    f"vertices {p + 1} and {q + 1} coincide"
                )
        area2 = float(twice_signed_area(v))
        if area2 < 0.0:
            warnings.warn(
                "vertices given clockwise; reordering to counterclockwise",
                stacklevel=2,
            )
            v = v[[0, 3, 2, 1]]
            area2 = -area2
        if area2 <= 1e-12 * diam * diam:
            raise DegenerateGeometryError("quadrilateral has (near-)zero area")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "diameter", diam)

    @property
    def signed_area(self) -> float:
        return 0.5 * float(twice_signed_area(self.vertices))

    @property
    def centroid(self) -> np.ndarray:
        """Arithmetic mean of the vertices (the mapped image of (0, 0))."""
        return self.vertices.mean(axis=0)


@dataclass(frozen=True, eq=False)
class NaturalNodeTable:
    """Natural coordinates of a scheme's interpolation nodes.

    The first four rows are always the corners of the bi-unit square.
    Six-row tables append the two poles; eight-row tables append the four
    edge midpoints.
    """

    rows: np.ndarray

    def __post_init__(self):
        r = np.array(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[1] != 2 or r.shape[0] not in (4, 6, 8):
            raise ValidationError(f"bad node table shape {r.shape}")
        if not np.array_equal(r[:4], CORNER_NATURAL):
            raise ValidationError("first four node rows must be the corners")
        if r.shape[0] == 8 and not np.array_equal(r[4:], MIDPOINT_NATURAL):
            raise ValidationError("rows 5-8 must be the edge midpoints")
        r.setflags(write=False)
        object.__setattr__(self, "rows", r)

    @classmethod
    def corners(cls) -> "NaturalNodeTable":
        return cls(CORNER_NATURAL.copy())

    @classmethod
    def with_poles(cls, p5_nat, p6_nat) -> "NaturalNodeTable":
        return cls(np.vstack([CORNER_NATURAL, p5_nat, p6_nat]))

    @classmethod
    def serendipity(cls) -> "NaturalNodeTable":
        return cls(np.vstack([CORNER_NATURAL, MIDPOINT_NATURAL]))


@dataclass(frozen=True, eq=False)
class GeneralizedParams:
    """Polynomial coefficients of a transformation, one column per Cartesian
    direction.

    Row q holds the coefficient of monomial q of the scheme's basis.  The
    first row is the mapped center (the element centroid for straight
    edges); the t1, t2 rows are the covariant base-vector components at
    the center, and the quadratic rows are the center-evaluated second
    derivatives of the map.  Leading axes of ``coeffs`` (..., n_terms, 2)
    hold several maps; they broadcast against the leading axes of the
    natural points (..., 2) that ``point`` and ``gradient`` take.
    """

    exponents: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.shape[-2:] != (len(self.exponents), 2):
            raise ValidationError(
                f"coefficient shape {c.shape} does not match "
                f"{len(self.exponents)} basis terms"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def point(self, theta) -> np.ndarray:
        """Cartesian images (..., 2) of natural points, one
        (1, n_terms) @ (n_terms, 2) product per point."""
        values = monomial_values(self.exponents, theta)[..., None, :]
        return (values @ self.coeffs)[..., 0, :]

    def gradient(self, theta) -> np.ndarray:
        """Covariant base vectors (..., 2, 2); row a is d x / d theta_a."""
        grads = monomial_gradients(self.exponents, theta)
        return np.swapaxes(grads, -1, -2) @ self.coeffs


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Cartesian and natural coordinates of the two edge-intersection poles.

    ``p5`` is the intersection of the lines through edges (1)(2) and
    (3)(4); ``p6`` the intersection of (2)(3) and (4)(1).  A pole of a
    parallel edge pair lies at infinity: its flag is set and its
    coordinates are ``None``.
    """

    p5_xy: np.ndarray | None
    p6_xy: np.ndarray | None
    p5_nat: np.ndarray | None
    p6_nat: np.ndarray | None
    parallel_flags: tuple

    @property
    def complete(self) -> bool:
        """True when both poles are finite and located in natural space."""
        return (
            not any(self.parallel_flags)
            and self.p5_nat is not None
            and self.p6_nat is not None
        )


@dataclass(frozen=True, eq=False)
class ShapeFunctionSet:
    """Nodal shape functions N^(q) as rows of monomial coefficients.

    ``coeffs[q, m]`` multiplies monomial m, so evaluating all functions at
    a point is a single matrix-vector product.
    """

    scheme: str
    coeffs: np.ndarray
    exponents: tuple
    nodes: NaturalNodeTable

    def evaluate(self, theta) -> np.ndarray:
        """All shape functions at natural points (..., 2); shape
        (..., n_nodes)."""
        values = monomial_values(self.exponents, theta)
        return (self.coeffs @ values[..., :, None])[..., 0]


_BILINEAR_SHAPES = ShapeFunctionSet(
    "bilinear", _BILINEAR_SHAPE_COEFFS, BILINEAR_MONOMIALS,
    NaturalNodeTable.corners())
_SERENDIPITY_SHAPES = ShapeFunctionSet(
    "serendipity8", _SERENDIPITY_SHAPE_COEFFS, SERENDIPITY_MONOMIALS,
    NaturalNodeTable.serendipity())


@dataclass(frozen=True, eq=False)
class Jacobian:
    """Covariant base vectors of a mapping at one natural point.

    ``matrix[a, i]`` is d x_i / d theta_a, i.e. row a is the covariant
    base vector g_a.  ``det`` is the area scale factor.
    """

    matrix: np.ndarray
    det: float

    @property
    def contravariant(self) -> np.ndarray:
        """Dual base-vector components; ``[a, i]`` is d theta_a / d x_i."""
        return np.linalg.inv(self.matrix.T)


@dataclass(frozen=True, eq=False)
class MappingScheme:
    """A built geometry mapping: tagged kind, coefficients, shape functions.

    ``fallback`` marks a pascal6 request that degraded to the bilinear
    transformation because an edge pair is parallel (pole at infinity).
    ``cond_a`` is the 1-norm condition estimate of the pascal interpolation
    matrix, when one was inverted.
    """

    kind: str
    quad: QuadGeometry
    params: GeneralizedParams
    shapes: ShapeFunctionSet
    poles: PoleSet | None = None
    fallback: bool = False
    cond_a: float | None = None


# ---------------------------------------------------------------------------
# scheme construction
# ---------------------------------------------------------------------------

def bilinear_params(quad: QuadGeometry) -> GeneralizedParams:
    """Generalized parameters of the standard bilinear map.

    The rows are, in order: the vertex centroid, the two quarter edge-sum
    differences (center base vectors), and the quarter diagonal difference
    (mixed second derivative).
    """
    return GeneralizedParams(
        BILINEAR_MONOMIALS, bilinear_coefficients(quad.vertices)
    )


def bilinear_coefficients(vertices) -> np.ndarray:
    """Bilinear map coefficients (..., 4, 2) of vertex arrays (..., 4, 2)."""
    return _BILINEAR_SHAPE_COEFFS.T @ vertices


def bilinear_jacobians(coeffs: np.ndarray, points) -> tuple:
    """Covariant base vectors and determinants of many bilinear maps.

    ``coeffs`` (m, 4, 2) holds one map per element and ``points`` (n, 2)
    the natural points; returns ``(matrix, det)`` of shapes (m, n, 2, 2)
    and (m, n), ``matrix[e, k, a, i]`` being d x_i / d theta_a.
    """
    matrix = GeneralizedParams(BILINEAR_MONOMIALS, coeffs[:, None]) \
        .gradient(points)
    return matrix, det2(matrix)


def serendipity_shapes(theta) -> np.ndarray:
    """The eight serendipity shape functions at natural points (..., 2)."""
    return _SERENDIPITY_SHAPES.evaluate(theta)


def compute_poles_cartesian(quad: QuadGeometry) -> PoleSet:
    """Intersect the extensions of opposite edges.

    Each pole is the solution of the 2x2 linear system of the two edge
    lines.  Parallel pairs are flagged rather than rejected: a
    parallelogram has both flags set and is not an error.
    """
    v = quad.vertices
    p5, par5 = _line_intersection(v[0], v[1], v[2], v[3])
    p6, par6 = _line_intersection(v[1], v[2], v[3], v[0])
    return PoleSet(
        p5_xy=p5, p6_xy=p6, p5_nat=None, p6_nat=None, parallel_flags=(par5, par6)
    )


def _line_intersection(a, b, c, d):
    """Intersection of lines through segments (a, b) and (c, d)."""
    u = b - a
    w = d - c
    cross = det2(np.array([u, w]))
    if abs(cross) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(w):
        return None, True
    point = a + det2(np.array([c - a, w])) / cross * u
    point.setflags(write=False)
    return point, False


def default_pole_guess(quad: QuadGeometry, pole_xy) -> np.ndarray:
    """Initial natural coordinates for a pole: solve the linearization of
    the bilinear map about the element center (one 2x2 solve)."""
    params = bilinear_params(quad)
    tangent = params.gradient((0.0, 0.0)).T  # d x / d theta, Cartesian rows
    rhs = np.asarray(pole_xy, dtype=float) - params.coeffs[0]
    try:
        return np.linalg.solve(tangent, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
        raise NumericalError("singular tangent at element center") from exc


_NEWTON_PERTURBATIONS = (
    (0.0, 0.0),
    (0.3, -0.45),
    (-0.45, 0.3),
    (0.6, 0.6),
    (-0.6, -0.6),
)


def solve_pole_natural(quad: QuadGeometry, pole_xy, guess=None) -> np.ndarray:
    """Newton-iterate the bilinear map to locate a pole in natural space.

    The residual is the bilinear map itself: for straight edges the
    complete quadratic transformation coincides with it, so its root is
    exact for both.  The edge equations are quadratic in the natural
    variables, hence several roots exist; the root reached depends on the
    starting point and any converged root is acceptable.

    Raises
    ------
    NonconvergenceError
        After 50 iterations without meeting the tolerance, or when the
        Jacobian is singular at an iterate for every restart (4 perturbed
        restarts are attempted).
    """
    if pole_xy is None:
        raise ValidationError("pole is flagged parallel (at infinity)")
    target = np.asarray(pole_xy, dtype=float)
    coeffs = bilinear_params(quad).coeffs
    diam = quad.diameter
    tol = 1e-12 * diam
    if guess is None:
        guess = default_pole_guess(quad, target)
    guess = np.asarray(guess, dtype=float)

    # The basis [1, t1, t2, t1*t2] and its (4, 2) gradient, refilled at
    # each iterate.  The products have the shapes and layout of
    # ``GeneralizedParams.point`` and ``.gradient``, so every iterate is
    # bit-identical to evaluating those.
    values = np.ones((1, 4))
    grads = np.zeros((4, 2))
    grads[1, 0] = grads[2, 1] = 1.0
    last_residual = math.inf
    last_theta = guess
    for shift in _NEWTON_PERTURBATIONS:
        theta = guess + shift
        singular = False
        for _ in range(50):
            values[0, 1:3] = theta
            values[0, 3] = theta[0] * theta[1]
            residual = (values @ coeffs)[0] - target
            norm = float(np.linalg.norm(residual))
            last_residual, last_theta = norm, theta
            if norm <= tol:
                return theta
            grads[3] = theta[::-1]
            tangent = (grads.T @ coeffs).T
            if abs(det2(tangent)) < 1e-13 * diam * diam:
                singular = True
                break
            theta = theta - np.linalg.solve(tangent, residual)
        if not singular:
            raise NonconvergenceError(
                f"pole iteration did not converge in 50 steps "
                f"(last residual {last_residual:.3e})",
                residual=last_residual,
                theta=last_theta,
            )
    raise NonconvergenceError(
        "singular Jacobian at an iterate for every restart",
        residual=last_residual,
        theta=last_theta,
    )


def pascal_interpolation_matrix(nodes: NaturalNodeTable) -> np.ndarray:
    """The 6x6 interpolation matrix: row p is the complete quadratic basis
    evaluated at node p."""
    if nodes.rows.shape[0] != 6:
        raise ValidationError("pascal interpolation needs 6 nodes (corners + poles)")
    return monomial_values(PASCAL_MONOMIALS, nodes.rows)


def pascal_shape_set(quad: QuadGeometry, poles: PoleSet):
    """Shape functions and generalized parameters of the complete quadratic
    scheme.

    Inverts the interpolation matrix A; shape-function coefficients are
    the transpose of the inverse, and the generalized parameters follow by
    applying the inverse to the extended Cartesian node matrix.  For
    straight edges the pure-quadratic parameter rows vanish and the
    transformation equals the bilinear one.

    Returns ``(shapes, params)``.
    """
    shapes, params, _ = _pascal_build(quad, poles)
    return shapes, params


def _pascal_build(quad: QuadGeometry, poles: PoleSet):
    if not poles.complete:
        raise ValidationError(
            "pascal scheme needs both poles finite with natural coordinates"
        )
    nodes = NaturalNodeTable.with_poles(poles.p5_nat, poles.p6_nat)
    a_mat = pascal_interpolation_matrix(nodes)
    try:
        b_mat = np.linalg.inv(a_mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("degenerate pole configuration: singular "
                             "interpolation matrix") from exc
    cond = float(
        np.linalg.norm(a_mat, 1) * np.linalg.norm(b_mat, 1)
    )
    if cond > 1e12:
        raise NumericalError(
            f"degenerate pole configuration: condition estimate {cond:.3e}"
        )
    node_xy = np.vstack([quad.vertices, poles.p5_xy, poles.p6_xy])
    params = GeneralizedParams(PASCAL_MONOMIALS, b_mat @ node_xy)
    shapes = ShapeFunctionSet("pascal6", b_mat.T, PASCAL_MONOMIALS, nodes)
    return shapes, params, cond


def _bilinear_scheme(quad: QuadGeometry) -> MappingScheme:
    return MappingScheme("bilinear", quad, bilinear_params(quad),
                         _BILINEAR_SHAPES)


def _serendipity_scheme(quad: QuadGeometry) -> MappingScheme:
    v = quad.vertices
    midpoints = 0.5 * (v + np.roll(v, -1, axis=0))
    node_xy = np.vstack([v, midpoints])
    params = GeneralizedParams(
        SERENDIPITY_MONOMIALS, _SERENDIPITY_SHAPE_COEFFS.T @ node_xy
    )
    return MappingScheme("serendipity8", quad, params, _SERENDIPITY_SHAPES)


def _pascal_scheme(quad: QuadGeometry, pole_guesses=None) -> MappingScheme:
    poles = compute_poles_cartesian(quad)
    if any(poles.parallel_flags):
        # Pole(s) at infinity: the quadratic scheme is not constructible,
        # but for straight edges the transformation it would produce is the
        # bilinear one, so degrade to that and report it.  Collapsed-edge
        # (triangle) elements degrade by design and stay silent.
        v = quad.vertices
        edge_lengths = distance(np.roll(v, -1, axis=0), v)
        if edge_lengths.min() > 1e-12 * quad.diameter:
            warnings.warn(
                "parallel edge pair: pascal6 falls back to the bilinear "
                "transformation",
                stacklevel=3,
            )
        bil = bilinear_params(quad)
        coeffs = np.zeros((6, 2))
        coeffs[[0, 1, 2, 4]] = bil.coeffs
        params = GeneralizedParams(PASCAL_MONOMIALS, coeffs)
        return MappingScheme(
            "pascal6", quad, params, _BILINEAR_SHAPES, poles=poles,
            fallback=True
        )
    guess5, guess6 = pole_guesses if pole_guesses is not None else (None, None)
    nat5 = solve_pole_natural(quad, poles.p5_xy, guess5)
    nat6 = solve_pole_natural(quad, poles.p6_xy, guess6)
    located = PoleSet(
        p5_xy=poles.p5_xy,
        p6_xy=poles.p6_xy,
        p5_nat=nat5,
        p6_nat=nat6,
        parallel_flags=poles.parallel_flags,
    )
    shapes, params, cond = _pascal_build(quad, located)
    return MappingScheme(
        "pascal6", quad, params, shapes, poles=located, cond_a=cond
    )


def build_scheme(quad: QuadGeometry, kind: str = "pascal6",
                 pole_guesses=None) -> MappingScheme:
    """Construct a mapping scheme for a quadrilateral.

    Parameters
    ----------
    quad : QuadGeometry
    kind : str
        One of ``bilinear``, ``serendipity8``, ``pascal6``.
    pole_guesses : optional pair of natural pairs
        Starting points for the two pole Newton iterations (pascal6 only).
        By default the tangent-plane linearization about the center is
        used.  Distinct valid roots yield distinct shape functions but the
        same transformation.
    """
    if kind == "bilinear":
        return _bilinear_scheme(quad)
    if kind == "serendipity8":
        return _serendipity_scheme(quad)
    if kind == "pascal6":
        return _pascal_scheme(quad, pole_guesses)
    raise ValidationError(f"unknown scheme kind {kind!r}; expected one of "
                          f"{SCHEME_KINDS}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def map_point(scheme: MappingScheme, theta) -> np.ndarray:
    """Cartesian images (..., 2) of natural points (..., 2) under the
    scheme's transformation.

    Defined for all theta, including outside the bi-unit square (the poles
    themselves lie outside it).
    """
    return scheme.params.point(theta)


def jacobian(scheme: MappingScheme, theta) -> Jacobian:
    """Covariant base vectors and area scale of the mapping at ``theta``.

    Raises ``NumericalError`` when the determinant vanishes relative to
    the squared quad diameter (folded or degenerate mapping).
    """
    matrix = scheme.params.gradient(theta)
    det = float(det2(matrix))
    diam = scheme.quad.diameter
    if abs(det) < 1e-12 * diam * diam:
        raise NumericalError(
            f"singular Jacobian at theta={tuple(map(float, theta))}: "
            f"det={det:.3e}"
        )
    return Jacobian(matrix=matrix, det=det)


def random_convex_quad(rng: np.random.Generator, center=(0.0, 0.0),
                       scale: float = 1.0) -> QuadGeometry:
    """Draw a random convex, counterclockwise quadrilateral.

    Vertices are placed on rays from ``center`` at sorted random angles;
    candidates failing the convexity or area check are redrawn.
    """
    center = np.asarray(center, dtype=float)
    for _ in range(1000):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if gaps.min() < 0.35:
            continue
        radii = rng.uniform(0.45, 1.0, 4) * scale
        v = center + radii[:, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )
        edges = np.roll(v, -1, axis=0) - v
        turns = det2(np.stack([edges, np.roll(edges, -1, axis=0)], axis=1))
        if np.all(turns > 1e-3 * scale * scale) and \
                twice_signed_area(v) > 0.2 * scale * scale:
            return QuadGeometry(v)
    raise RuntimeError("failed to draw a convex quadrilateral")
