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
    the extensions of opposite edges intersect.  Each pole has two natural
    roots, one on each extended edge line of the bi-unit square whose
    image passes through it, read off the line-intersection parameters;
    ``compute_poles_cartesian`` keeps the one nearest the center.

For straight edges all three produce the same point transformation; they
differ only in their shape functions.  Every scheme stores the polynomial
coefficients of its transformation (``GeneralizedParams``), whose
``point`` and ``gradient`` evaluate the map and its base vectors on arrays
of natural points, also outside the bi-unit square.  A scheme's shape
functions carry their nodes as one read-only (n, 2) natural array.

The natural point sets that never change (the corners, the bilinear and
serendipity nodes, the Gauss points, the report and sampling lattices)
are declared once with ``fixed_points``; the monomial tables of each are
computed on first use and shared by every later evaluation.

``corner_jacobians`` holds the one rule by which a bilinear map is
accepted, from the signs of det J at its four corners; mesh assembly
applies it to every element and the single-quad reports to their quad.
A scheme integrated on its own map is checked point by point at the
Gauss points instead, by ``quadrature.positive_jacobians``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, NumericalError, ValidationError

#: Each point set declared by ``fixed_points``, keyed by ``id``: the array
#: itself and its monomial tables, keyed by (evaluator, exponent table).
_FIXED_TABLES: dict = {}


def fixed_points(points) -> np.ndarray:
    """A read-only copy of the natural points ``points`` (..., 2), declared
    fixed: ``monomial_values`` and ``monomial_gradients`` compute their
    table of this exact array once per exponent table, and return that
    same read-only table on every later call.  Declare only constant sets,
    once each, where they are defined."""
    t = np.array(points, dtype=float)
    t.setflags(write=False)
    _FIXED_TABLES[id(t)] = (t, {})
    return t


def _tables_of(theta):
    """The monomial tables of a ``fixed_points`` array, else ``None``."""
    entry = _FIXED_TABLES.get(id(theta))
    return entry[1] if entry is not None and entry[0] is theta else None


def _tabulated(evaluate):
    """``evaluate(exponents, theta)``, with ``exponents`` passed on as a
    tuple of (e1, e2) tuples; its result for a ``fixed_points`` array
    computed on the first call and returned read-only after it."""
    @functools.wraps(evaluate)
    def lookup(exponents, theta):
        exponents = tuple(map(tuple, exponents))
        tables = _tables_of(theta)
        if tables is None:
            return evaluate(exponents, theta)
        key = (evaluate, exponents)
        table = tables.get(key)
        if table is None:
            table = tables[key] = evaluate(exponents, theta)
            table.setflags(write=False)
        return table
    return lookup


@functools.cache
def _basis(exponents: tuple) -> tuple:
    """The exponent array (n_terms, 2), read-only, and the largest
    exponent of the basis ``exponents``, built once per basis."""
    e = np.array(exponents, dtype=int).reshape(-1, 2)
    e.setflags(write=False)
    return e, int(e.max(initial=0))


#: Natural coordinates of the four corner nodes, counterclockwise.
CORNER_NATURAL = fixed_points([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                               [-1.0, 1.0]])

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


@_tabulated
def monomial_values(exponents, theta) -> np.ndarray:
    """Each basis monomial at natural points ``theta`` (..., 2); shape
    (..., n_terms).

    For a declared fixed set (``fixed_points``: ``CORNER_NATURAL``, the
    bilinear and serendipity shape nodes, each ``GaussRule.tensor_points``,
    the mapcheck and mode-shape sampling lattices, the quadrant centers of
    the subarea fractions) the table is computed once and shared,
    read-only."""
    t = np.asarray(theta, dtype=float)
    e, top = _basis(exponents)
    powers = _powers(t, top)
    out = np.empty(t.shape[:-1] + (len(e),))
    return np.multiply(powers[..., e[:, 0], 0], powers[..., e[:, 1], 1],
                       out=out)


@_tabulated
def monomial_gradients(exponents, theta) -> np.ndarray:
    """Partial derivatives of each monomial at natural points ``theta``
    (..., 2); shape (..., n_terms, 2).

    Computed once and shared, read-only, for the declared fixed sets that
    ``monomial_values`` names."""
    t = np.asarray(theta, dtype=float)
    e, top = _basis(exponents)
    powers = _powers(t, top)
    out = np.zeros(t.shape[:-1] + (len(e), 2))
    for axis in (0, 1):
        q = np.flatnonzero(e[:, axis])
        lowered = e[q]
        lowered[:, axis] -= 1
        # e * t1**(e1 - 1) * t2**e2 (or the t2 analogue), in that order
        out[..., q, axis] = (e[q, axis] * powers[..., lowered[:, 0], 0]
                             * powers[..., lowered[:, 1], 1])
    return out


def _powers(t: np.ndarray, top: int) -> np.ndarray:
    """``t ** k`` (..., top + 1, 2) of natural points ``t`` (..., 2), for
    k = 0 .. top, each power as numpy's ``**`` gives it (``t ** 2`` is
    ``t * t``)."""
    powers = np.empty(t.shape[:-1] + (top + 1, 2))
    powers[..., 0, :] = 1.0
    for k in range(1, top + 1):
        powers[..., k, :] = t ** k
    return powers


def det2(matrix) -> np.ndarray:
    """Determinants of 2x2 matrices (..., 2, 2)."""
    return (matrix[..., 0, 0] * matrix[..., 1, 1]
            - matrix[..., 0, 1] * matrix[..., 1, 0])


#: ``NEXT_CORNER[i]`` is the corner after corner i around a quad
#: (read-only); ``v[..., NEXT_CORNER, :]`` is ``np.roll(v, -1, axis=-2)``.
NEXT_CORNER = np.array([1, 2, 3, 0])
NEXT_CORNER.setflags(write=False)


def next_vertex(k: int) -> np.ndarray:
    """Index of the vertex after each vertex i around a k-gon, (i + 1) % k."""
    return NEXT_CORNER if k == 4 else (np.arange(k) + 1) % k


def twice_signed_area(vertices) -> np.ndarray:
    """Twice the signed area of polygons (..., k, 2) (shoelace formula)."""
    x, y = vertices[..., 0], vertices[..., 1]
    following = next_vertex(x.shape[-1])
    return (x * y[..., following] - x[..., following] * y).sum(axis=-1)


def distance(a, b) -> np.ndarray:
    """Distances |a - b| of points (..., 2), each rounded exactly as
    ``np.linalg.norm`` of one difference vector."""
    d = np.asarray(a, dtype=float) - b
    # Each square norm is OpenBLAS's ddot of the 2-vector, as in ``norm``.
    # Python floats' x*x + y*y differ from it in the last bit on about
    # 16% of random 2-vectors, so the norms stay on numpy's dot.
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


#: Vertex pairs p < q of a quad, row-major (read-only), and as a list of
#: (p, q) tuples.
_QUAD_PAIRS = np.array(np.triu_indices(4, 1))
_QUAD_PAIRS.setflags(write=False)
_QUAD_PAIR_LIST = list(zip(*_QUAD_PAIRS.tolist()))


def pair_distances(vertices) -> np.ndarray:
    """Distances of vertex pairs p < q (row-major) of polygons (..., k, 2)."""
    k = vertices.shape[-2]
    p, q = _QUAD_PAIRS if k == 4 else np.triu_indices(k, 1)
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
        if not np.isfinite(v).all():
            raise DegenerateGeometryError("non-finite vertex coordinate")
        # Distances square the coordinate differences, which overflow to
        # inf or underflow to 0 at magnitudes near 1e+-154.
        with np.errstate(over="ignore", under="ignore"):
            pairs = pair_distances(v).tolist()
        diam = max(pairs)
        if not math.isfinite(diam) or diam == 0.0:
            with np.errstate(over="ignore"):
                span = float(np.ptp(v, axis=0).max())
            if span == 0.0:
                raise DegenerateGeometryError("all vertices coincide")
            raise DegenerateGeometryError(
                f"vertex coordinates span {span:.3e}, outside the range "
                f"whose squared distances are finite and nonzero"
            )
        coincident = [pair for pair, d in zip(_QUAD_PAIR_LIST, pairs)
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
                stacklevel=3,  # past the dataclass __init__ to its caller
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
        return grads.swapaxes(-1, -2) @ self.coeffs


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


@dataclass(frozen=True, eq=False)
class ShapeFunctionSet:
    """Nodal shape functions N^(q) as rows of monomial coefficients.

    ``coeffs[q, m]`` multiplies monomial m, so evaluating all functions at
    a point is a single matrix-vector product.  ``nodes`` (n, 2) holds the
    natural coordinates of the nodes, read-only: the four corners, then
    the two poles or the four edge midpoints.  A ``fixed_points`` array
    is kept as given, any other copied.
    """

    coeffs: np.ndarray
    exponents: tuple
    nodes: np.ndarray

    def __post_init__(self):
        if _tables_of(self.nodes) is None:
            nodes = np.array(self.nodes, dtype=float)
            nodes.setflags(write=False)
            object.__setattr__(self, "nodes", nodes)

    def evaluate(self, theta) -> np.ndarray:
        """All shape functions at natural points (..., 2); shape
        (..., n_nodes)."""
        values = monomial_values(self.exponents, theta)
        return (self.coeffs @ values[..., :, None])[..., 0]


_BILINEAR_SHAPES = ShapeFunctionSet(
    _BILINEAR_SHAPE_COEFFS, BILINEAR_MONOMIALS, CORNER_NATURAL)
_SERENDIPITY_SHAPES = ShapeFunctionSet(
    _SERENDIPITY_SHAPE_COEFFS, SERENDIPITY_MONOMIALS,
    fixed_points(np.vstack([CORNER_NATURAL, MIDPOINT_NATURAL])))


@dataclass(frozen=True, eq=False)
class MappingScheme:
    """A built geometry mapping: tagged kind, coefficients, shape functions.

    ``fallback`` marks a pascal6 request that degraded to the bilinear
    transformation because an edge pair is (nearly) parallel.
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

def bilinear_coefficients(vertices) -> np.ndarray:
    """Bilinear map coefficients (..., 4, 2) of vertex arrays (..., 4, 2).

    The rows are, in order: the vertex centroid, the two quarter edge-sum
    differences (center base vectors), and the quarter diagonal difference
    (mixed second derivative).
    """
    return _BILINEAR_SHAPE_COEFFS.T @ vertices


def bilinear_jacobians(coeffs: np.ndarray, points) -> tuple:
    """Covariant base vectors and determinants of many bilinear maps.

    ``coeffs`` (m, 4, 2) holds one map per element and ``points`` (n, 2)
    the natural points; returns ``(matrix, det)`` of shapes (m, n, 2, 2)
    and (m, n), ``matrix[e, k, a, i]`` being d x_i / d theta_a.
    """
    # ``GeneralizedParams.gradient``'s product, without the read-only copy
    matrix = monomial_gradients(BILINEAR_MONOMIALS, points) \
        .swapaxes(-1, -2) @ coeffs[:, None]
    return matrix, det2(matrix)


def corner_jacobians(coeffs: np.ndarray, diam: np.ndarray) -> tuple:
    """Corner Jacobians (m, 4, 2, 2) and flat-corner mask (m, 4) of the
    bilinear maps ``coeffs`` (m, 4, 2) of quads with diameters ``diam``
    (m,), once each map is accepted.

    det J of a bilinear map a0 + a1 t1 + a2 t2 + a3 t1 t2 is
    a1 x a2 + t1 (a1 x a3) + t2 (a3 x a2), affine in theta, so its four
    corner values decide whether the map is regular everywhere.  Each
    must exceed 1e-12 * diam^2, except at the two ends of a collapsed edge
    (a triangle tip), where det J vanishes.  The first bad corner of the
    first bad element raises ``NumericalError`` if the element folds there
    and ``DegenerateGeometryError`` if it is flat.
    """
    tol = 1e-12 * diam * diam
    cjac, cdet = bilinear_jacobians(coeffs, CORNER_NATURAL)
    if (cdet > tol[:, None]).all():  # no corner flat or folded
        return cjac, np.zeros(cdet.shape, dtype=bool)
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


def compute_poles_cartesian(quad: QuadGeometry) -> PoleSet:
    """Both poles of the quad, where the lines of opposite edges meet
    (``_pole_lines``), each with its natural root nearest the element
    center (``_nearest_roots``).  A parallel pair is flagged, its pole and
    root ``None``: a parallelogram has both flags set and is no error."""
    lines = _pole_lines(quad)
    p5_xy, p6_xy = (None if line is None else line[0] for line in lines)
    roots = [line[1] for line in lines if line is not None]
    nearest = iter(_nearest_roots(np.array(roots)) if roots else ())
    p5_nat, p6_nat = (None if line is None else next(nearest)
                      for line in lines)
    return PoleSet(p5_xy, p6_xy, p5_nat, p6_nat,
                   parallel_flags=(p5_xy is None, p6_xy is None))


def _pole_lines(quad: QuadGeometry) -> tuple:
    """``(point, roots)`` of p5, where the lines of edges (1)(2) and (3)(4)
    meet, and of p6, where the lines of (2)(3) and (4)(1) meet; ``None``
    for a parallel pair, whose edge vectors u and w have
    |u x w| <= 1e-12 |u| |w|.

    The lines are a + t u and c + s w, a and c the first vertices of the
    two edges.  t and s are correctly rounded: the determinants are exact
    in integer multiples of the finest power-of-two unit among the
    coordinates (in doubles, t of a pole 1e5 diameters out is 1e-11 off,
    relative).  The point is a + t u in Python floats, the bits of
    numpy's; past the parallel test |t u| < 1e12 |c - a|, far from
    overflow.

    ``roots`` (2, 2) are the pole's natural coordinates under the bilinear
    map (which the pascal6 transformation equals for straight edges).
    Each edge of the bi-unit square maps linearly onto its edge line, so
    p5, at parameters t of edge (1)(2) and s of edge (3)(4), has the roots
    (2t - 1, -1) and (1 - 2s, 1), and p6, at t of (2)(3) and s of (4)(1),
    the roots (1, 2t - 1) and (-1, 1 - 2s).
    """
    v = quad.vertices
    following = v[NEXT_CORNER]
    coords = v.tolist()
    edges = (following - v).tolist()  # edge k runs from vertex k to k + 1
    # |u| and |w| on numpy's dot, as in ``distance``: OpenBLAS ddot
    # differs from x*x + y*y in the last bit on about 16% of random
    # 2-vectors
    lengths = distance(following, v).tolist()
    ratios = [[x.as_integer_ratio() for x in row] for row in coords]
    unit = max(den for row in ratios for _, den in row)
    exact = [[n * (unit // den) for n, den in row] for row in ratios]
    lines = []
    for p in (0, 1):  # p5 from edges 0 and 2, p6 from edges 1 and 3
        q = p + 2
        (ux, uy), (wx, wy) = edges[p], edges[q]
        if abs(ux * wy - uy * wx) <= 1e-12 * lengths[p] * lengths[q]:
            lines.append(None)
            continue
        (ax, ay), (bx, by) = exact[p], exact[p + 1]
        (cx, cy), (dx, dy) = exact[q], exact[(q + 1) % 4]
        iux, iuy, iwx, iwy = bx - ax, by - ay, dx - cx, dy - cy
        rx, ry = cx - ax, cy - ay
        cross = iux * iwy - iuy * iwx
        t = (rx * iwy - ry * iwx) / cross
        s = (rx * iuy - ry * iux) / cross
        point = np.array([coords[p][0] + t * ux, coords[p][1] + t * uy])
        point.setflags(write=False)
        roots = ([[2.0 * t - 1.0, -1.0], [1.0 - 2.0 * s, 1.0]] if p == 0 else
                 [[1.0, 2.0 * t - 1.0], [-1.0, 1.0 - 2.0 * s]])
        lines.append((point, np.array(roots)))
    return tuple(lines)


def _nearest_roots(roots: np.ndarray, guess=None) -> np.ndarray:
    """Of each pole's two natural roots, ``roots`` (p, 2, 2), the one
    nearest ``guess``, by default the element center; shape (p, 2).

    Raises ``ValidationError`` for a guess that is not finite or whose
    distances to a pole's roots overflow.  The roots are finite, so a gap
    is nan only where the guess is, and then both gaps of a pole are.
    """
    guess = np.zeros(2) if guess is None else np.asarray(guess, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = distance(roots, guess).tolist()
    if not all(math.isfinite(g0) or math.isfinite(g1) for g0, g1 in gaps):
        raise ValidationError(f"pole guess {guess.tolist()} is not finite "
                              "or beyond the floating-point range")
    # the first of equal gaps, as np.argmin picks it
    return np.array([pair[g1 < g0]
                     for pair, (g0, g1) in zip(roots.tolist(), gaps)])


def solve_pole_natural(quad: QuadGeometry, pole_xy, guess=None) -> np.ndarray:
    """Natural coordinates of a pole: of its two roots (``_pole_lines``),
    the one nearest ``guess`` (``_nearest_roots``).

    Raises ``ValidationError`` for a point that is neither pole, and for
    a guess that is not finite or whose distances to the roots overflow.
    """
    if pole_xy is None:
        raise ValidationError("pole is flagged parallel (at infinity)")
    target = np.asarray(pole_xy, dtype=float)
    for line in _pole_lines(quad):
        if line is not None:
            point, roots = line
            scale = max(quad.diameter, np.abs(point - quad.centroid).max())
            if np.abs(target - point).max() <= 1e-9 * scale:
                return _nearest_roots(roots[None], guess)[0]
    raise ValidationError(f"{target.tolist()} is neither pole of the quad")


def pascal_shape_set(quad: QuadGeometry, poles: PoleSet):
    """Shape functions and generalized parameters of the complete quadratic
    scheme.

    Inverts the interpolation matrix A, row p the basis at node p (the
    corners, then the poles); shape-function coefficients are the
    transpose of the inverse, and the generalized parameters follow by
    applying the inverse to the extended Cartesian node matrix.  For
    straight edges the pure-quadratic parameter rows vanish and the
    transformation equals the bilinear one.

    Returns ``(shapes, params, cond)``, ``cond`` being the 1-norm
    condition estimate of A; raises ``NumericalError`` if A is singular
    or ``cond`` exceeds 1e12.
    """
    if any(poles.parallel_flags) or poles.p5_nat is None \
            or poles.p6_nat is None:
        raise ValidationError(
            "pascal scheme needs both poles finite with natural coordinates"
        )
    nodes = np.concatenate((CORNER_NATURAL, [poles.p5_nat, poles.p6_nat]))
    a_mat = monomial_values(PASCAL_MONOMIALS, nodes)
    try:
        b_mat = np.linalg.inv(a_mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("degenerate pole configuration: singular "
                             "interpolation matrix") from exc
    # the matrix 1-norm, the largest column sum of |entries|, computed as
    # np.linalg.norm(x, 1) computes it
    cond = float(np.abs(a_mat).sum(axis=0).max()
                 * np.abs(b_mat).sum(axis=0).max())
    if cond > 1e12:
        raise NumericalError(
            f"degenerate pole configuration: condition estimate {cond:.3e}"
        )
    node_xy = np.concatenate((quad.vertices, [poles.p5_xy, poles.p6_xy]))
    params = GeneralizedParams(PASCAL_MONOMIALS, b_mat @ node_xy)
    shapes = ShapeFunctionSet(b_mat.T, PASCAL_MONOMIALS, nodes)
    return shapes, params, cond


def build_scheme(quad: QuadGeometry, kind: str = "pascal6") -> MappingScheme:
    """Construct a mapping scheme of ``kind`` (one of ``SCHEME_KINDS``).

    pascal6 takes its poles from ``compute_poles_cartesian``.  For an edge
    pair that is parallel (a pole at infinity) or so nearly parallel that
    ``pascal_shape_set`` rejects the poles, it warns and falls back to the
    bilinear transformation, which it equals for straight edges; the
    warning names the vertex a pole lies on (collinear adjacent edges).
    """
    v = quad.vertices
    if kind == "bilinear":
        params = GeneralizedParams(BILINEAR_MONOMIALS,
                                   bilinear_coefficients(v))
        return MappingScheme("bilinear", quad, params, _BILINEAR_SHAPES)
    if kind == "serendipity8":
        node_xy = np.vstack([v, 0.5 * (v + v[NEXT_CORNER])])
        params = GeneralizedParams(SERENDIPITY_MONOMIALS,
                                   _SERENDIPITY_SHAPE_COEFFS.T @ node_xy)
        return MappingScheme("serendipity8", quad, params,
                             _SERENDIPITY_SHAPES)
    if kind != "pascal6":
        raise ValidationError(f"unknown scheme kind {kind!r}; expected one "
                              f"of {SCHEME_KINDS}")
    poles = compute_poles_cartesian(quad)
    reason = "parallel edge pair"
    if not any(poles.parallel_flags):
        try:
            shapes, params, cond = pascal_shape_set(quad, poles)
            return MappingScheme("pascal6", quad, params, shapes,
                                 poles=poles, cond_a=cond)
        except NumericalError as exc:
            reason = f"near-parallel edge pair ({exc})"
            gaps = distance(v, np.stack([poles.p5_xy, poles.p6_xy])[:, None])
            on_vertex = np.argwhere(gaps <= 1e-12 * quad.diameter)
            if on_vertex.size:
                pole, vertex = on_vertex[0].tolist()
                reason = (f"collinear adjacent edges (pole p{pole + 5} on "
                          f"vertex {vertex + 1})")
    # collapsed-edge (triangle) quads degrade by design and stay silent
    if distance(v[NEXT_CORNER], v).min() > 1e-12 * quad.diameter:
        warnings.warn(f"{reason}: pascal6 falls back to the bilinear "
                      "transformation", stacklevel=2)
    coeffs = np.zeros((6, 2))
    coeffs[[0, 1, 2, 4]] = bilinear_coefficients(v)
    return MappingScheme("pascal6", quad,
                         GeneralizedParams(PASCAL_MONOMIALS, coeffs),
                         _BILINEAR_SHAPES, poles=poles, fallback=True)


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
