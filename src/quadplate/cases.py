"""Case descriptions, built-in benchmark cases, runners and report output.

A case is a JSON document with a material block, exactly one geometry
source (a single quad, a triangle/quad mesh generator, or an explicit
mesh) and an analysis block.  Built-in cases reproduce the benchmark
plates with the normalized material (E=1365, nu=0.3, t=0.2, rho=5), for
which the flexural rigidity D and rho*t*a^4 both equal one.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCaseError
from .mapping import (
    _BILINEAR_SHAPES,
    _SERENDIPITY_SHAPES,
    QuadGeometry,
    SCHEME_KINDS,
    bilinear_coefficients,
    build_scheme,
    compute_poles_cartesian,  # not called; the benchmark's tracer wraps it
    corner_jacobians,
    distance,
    fixed_points,
    lattice_points,
    random_convex_quad,
)
from .modal import (
    BoundarySet,
    Mesh,
    apply_bcs,
    assemble,
    frequency_parameter,
    mesh_quad,
    mesh_triangle,
    mode_shape_samples,
    nodes_on_segment,  # not called; the benchmark's tracer wraps it
    solve_modes,
)
from .plate_element import PlateMaterial
from .quadrature import (
    gauss_rule,
    polygon_section_properties,
    section_properties,
)

_BENCHMARK_MATERIAL = {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0}

#: The keys a case document may hold, per block.
_CASE_KEYS = ("name", "material", "geometry", "analysis")
_MATERIAL_KEYS = ("E", "nu", "t", "rho")
_GEOMETRY_KEYS = ("quad", "triangle", "mesh", "reference_length")
_SOURCE_KEYS = {
    "quad": ("vertices", "meshes", "clamped_edges", "ss_edges"),
    "triangle": ("vertices", "levels", "clamped_edges", "ss_edges"),
    "mesh": ("nodes", "elements", "boundary_sets"),
}
_BOUNDARY_SET_KEYS = ("condition", "nodes")

_ANALYSIS_DEFAULTS = {
    "scheme": "pascal6",
    "gauss": 3,
    "modes": 6,
    "normalization": "plain",
    "rotary": False,
    "mode_shapes": False,
}

# Benchmark geometries.  The isosceles triangle is clamped along x1 = 0
# (edge of length a/2), spans the reference length a normal to it, apex on
# the symmetry line; triangle vertices are ordered (base corner, apex,
# base corner) for the collapsed-tip mesh generator.
_SECTION_QUAD = [[0.0, 0.0], [8.0, 0.0], [4.0, 3.0], [0.0, 5.0]]
_ISOSCELES_TRIANGLE = [[0.0, 0.0], [1.0, 0.25], [0.0, 0.5]]
_EQUILATERAL_TRIANGLE = [[0.0, 0.0], [math.sqrt(3.0) / 2.0, 0.5], [0.0, 1.0]]
_CLAMPED_QUAD = [[0.0, 0.0], [1.0, 0.0], [0.7929, 0.7727], [0.2394, 0.6577]]
_CANTILEVER_QUAD = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.433, 0.75]]

#: The modal built-ins: geometry source, vertices, clamped edges and
#: normalization.  Each runs the published mesh sequence of its source.
_PLATES = {
    "cantilever-isosceles": ("triangle", _ISOSCELES_TRIANGLE, [2], "plain"),
    "clamped-isosceles": ("triangle", _ISOSCELES_TRIANGLE, [0, 1, 2],
                          "per_pi2"),
    "clamped-equilateral": ("triangle", _EQUILATERAL_TRIANGLE, [0, 1, 2],
                            "per_pi2"),
    "clamped-quad": ("quad", _CLAMPED_QUAD, [0, 1, 2, 3], "per_pi2"),
    "cantilever-quad": ("quad", _CANTILEVER_QUAD, [0], "per_pi2"),
}
_MESH_SEQUENCES = {"triangle": ("levels", [1, 2, 3]),
                   "quad": ("meshes", [[2, 2], [4, 4], [6, 6], [8, 8]])}


def builtin_case_names() -> tuple:
    return tuple(sorted(("paper-quad", "random-quad", *_PLATES)))


def _single_quad_case(name: str, seed=None) -> dict:
    """paper-quad, or random-quad: a convex quad drawn from ``seed``
    (default 0)."""
    if name == "paper-quad":
        vertices = _SECTION_QUAD
    elif seed is not None and seed < 0:
        raise InvalidCaseError(f"seed must be non-negative, got {seed}")
    else:
        rng = np.random.default_rng(0 if seed is None else seed)
        vertices = random_convex_quad(rng, scale=2.0).vertices.tolist()
    return {
        "name": name,
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {"quad": {"vertices": vertices}},
        "analysis": {"scheme": "all"},
    }


def _plate_case(name: str) -> dict:
    source, vertices, clamped, normalization = _PLATES[name]
    key, sizes = _MESH_SEQUENCES[source]
    return {
        "name": name,
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {
            source: {"vertices": vertices, key: sizes,
                     "clamped_edges": clamped},
            "reference_length": 1.0,
        },
        "analysis": {"normalization": normalization},
    }


@dataclass
class CaseFile:
    """A validated case: material, one geometry source, analysis options."""

    name: str
    material: PlateMaterial
    geometry: dict
    analysis: dict
    reference_length: float = 1.0


def load_case(source: str, seed=None, overrides: dict | None = None) -> CaseFile:
    """Load a case from a built-in name or a JSON file path; ``seed``
    applies only to the random-quad built-in."""
    if seed is not None and source != "random-quad":
        raise InvalidCaseError("--seed applies only to the random-quad case")
    if source in ("paper-quad", "random-quad"):
        raw = _single_quad_case(source, seed)
    elif source in _PLATES:
        raw = _plate_case(source)
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            raise InvalidCaseError(
                f"{source!r} is neither a built-in case "
                f"{builtin_case_names()} nor a readable file"
            ) from None
        except json.JSONDecodeError as exc:
            raise InvalidCaseError(f"malformed case file {source}: {exc}") from exc
        except (OSError, UnicodeDecodeError, RecursionError) as exc:
            # a directory, non-UTF-8 bytes, brackets nested too deep
            raise InvalidCaseError(
                f"cannot read case file {source}: {exc}") from exc
    return parse_case(raw, overrides=overrides)


def parse_case(raw: dict, overrides: dict | None = None) -> CaseFile:
    if not isinstance(raw, dict):
        raise InvalidCaseError("case document must be a JSON object")
    _known_keys(raw, _CASE_KEYS, "case")
    material_block = raw.get("material")
    if not isinstance(material_block, dict):
        raise InvalidCaseError("case needs a material block")
    _known_keys(material_block, _MATERIAL_KEYS, "material")
    try:
        material = PlateMaterial(**{
            key: _real(material_block[key], f"material {key}")
            for key in _MATERIAL_KEYS})
    except KeyError as exc:
        raise InvalidCaseError(f"material block misses {exc}") from exc

    geometry = raw.get("geometry")
    if not isinstance(geometry, dict):
        raise InvalidCaseError("case needs a geometry block")
    _known_keys(geometry, _GEOMETRY_KEYS, "geometry")
    sources = [key for key in _SOURCE_KEYS if key in geometry]
    if len(sources) != 1:
        raise InvalidCaseError(
            f"geometry needs exactly one of quad/triangle/mesh, got {sources}"
        )
    block = geometry[sources[0]]
    required = ("nodes", "elements") if sources[0] == "mesh" else ("vertices",)
    if not isinstance(block, dict) or not all(key in block for key in required):
        raise InvalidCaseError(
            f"{sources[0]} block needs {' and '.join(required)}"
        )
    _known_keys(block, _SOURCE_KEYS[sources[0]], sources[0])

    given = raw.get("analysis", {})
    if not isinstance(given, dict):
        raise InvalidCaseError("analysis block must be a JSON object")
    _known_keys(given, _ANALYSIS_DEFAULTS, "analysis")
    analysis = dict(_ANALYSIS_DEFAULTS)
    analysis.update(given)
    if overrides:
        analysis.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("rotary", "mode_shapes"):
        if not isinstance(analysis[key], bool):
            raise InvalidCaseError(f"{key} must be true or false")
    if analysis["scheme"] not in SCHEME_KINDS + ("all",):
        raise InvalidCaseError(f"unknown scheme {analysis['scheme']!r}")
    if analysis["normalization"] not in ("plain", "per_pi2"):
        raise InvalidCaseError(
            f"unknown normalization {analysis['normalization']!r}"
        )
    analysis["gauss"] = _integer(analysis["gauss"], "gauss")
    analysis["modes"] = _integer(analysis["modes"], "modes")
    # checked for every verb, also those that never read the value
    gauss_rule(analysis["gauss"])
    if analysis["modes"] < 0:
        raise InvalidCaseError("mode count must be non-negative")
    reference_length = _real(geometry.get("reference_length", 1.0),
                             "reference_length")
    if not 0.0 < reference_length < math.inf:
        raise InvalidCaseError(
            "reference_length must be positive and finite, "
            f"got {reference_length}"
        )
    # The copy is also the nesting guard: a block whose containers nest
    # deeper than ``_GEOMETRY_DEPTH`` fails here, with exit 2, however the
    # interpreter's recursion limit is set.
    return CaseFile(
        name=str(raw.get("name", "case")),
        material=material,
        geometry=_copy_geometry(geometry),
        analysis=analysis,
        reference_length=reference_length,
    )


#: How deep the containers of a geometry block may nest.  The deepest
#: valid block, an explicit mesh with boundary sets, is five deep: the
#: geometry, ``mesh``, ``boundary_sets``, one set and its ``nodes``.  The
#: bound is explicit so that the guard does not depend on the depth at
#: which the interpreter runs out of stack.
_GEOMETRY_DEPTH = 5
_CONTAINERS = (dict, list, tuple)


def _copy_geometry(value, depth: int = _GEOMETRY_DEPTH):
    """A copy of the geometry block ``value`` in which every dict, list
    and tuple is new and every other value shared (a case's values are
    JSON scalars); containers nested more than ``depth`` deep raise
    ``InvalidCaseError``."""
    if depth == 0:
        raise InvalidCaseError("geometry block is nested too deeply")
    depth -= 1
    if isinstance(value, dict):
        return {key: _copy_geometry(item, depth)
                if isinstance(item, _CONTAINERS) else item
                for key, item in value.items()}
    items = [_copy_geometry(item, depth)
             if isinstance(item, _CONTAINERS) else item for item in value]
    return items if isinstance(value, list) else tuple(items)


def _known_keys(block: dict, known, what: str):
    unknown = block.keys() - known
    if unknown:
        raise InvalidCaseError(f"unknown {what} keys {sorted(unknown)}")


def _integer(value, what: str) -> int:
    """``value`` as an int; booleans, strings and fractions are rejected
    rather than truncated."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise InvalidCaseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float; booleans, strings and lists are rejected
    rather than converted."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidCaseError(f"{what} must be a number, got {value!r}")
    return float(value)


def _points(rows, what: str) -> np.ndarray:
    """Coordinate rows as a float array, each coordinate read by ``_real``."""
    return np.array([[_real(c, what) for c in row] for row in rows],
                    dtype=float)


# ---------------------------------------------------------------------------
# geometry resolution
# ---------------------------------------------------------------------------

def _block_values(source: str, block: dict) -> tuple:
    """A quad or triangle block's vertices, mesh sizes (``(m, n)`` from
    ``meshes`` or levels from ``levels``) and ``(condition, edge)`` pairs,
    each edge checked against the polygon's 4 or 3 edges; malformed
    contents and an empty size list raise ``InvalidCaseError``."""
    try:
        vertices = _points(block["vertices"], "vertex coordinate")
        if source == "quad":
            sizes = [(_integer(m, "mesh size"), _integer(n, "mesh size"))
                     for m, n in block.get("meshes", [[1, 1]])]
        else:
            sizes = [_integer(level, "triangle level")
                     for level in block.get("levels", [1])]
        edges = [(condition, _integer(edge, "edge index"))
                 for key, condition in (("clamped_edges", "clamped"),
                                        ("ss_edges", "simply_supported"))
                 for edge in block.get(key, ())]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCaseError(f"malformed {source} block: {exc!r}") from exc
    for _, edge in edges:
        if not 0 <= edge < (4 if source == "quad" else 3):
            raise InvalidCaseError(f"edge index {edge} out of range")
    if not sizes:
        raise InvalidCaseError("quad meshes lists no mesh size"
                               if source == "quad" else
                               "triangle levels lists no level")
    return vertices, sizes, edges


def case_meshes(case: CaseFile) -> list:
    """Materialize the case geometry into labelled meshes; malformed
    contents and an empty ``meshes`` or ``levels`` list raise
    ``InvalidCaseError``."""
    geometry = case.geometry
    try:
        if "mesh" not in geometry:
            source = "quad" if "quad" in geometry else "triangle"
            vertices, sizes, edges = _block_values(source, geometry[source])
            out = []
            for size in sizes:
                if source == "quad":
                    m, n = size
                    label, mesh = f"{m}x{n}", mesh_quad(vertices, m, n)
                else:
                    label = f"{3 * size ** 2}-elements"
                    mesh = mesh_triangle(vertices, size)
                mesh.boundary_sets.update(
                    (f"{condition}-edge-{edge}",
                     BoundarySet(condition, mesh.edges[edge]))
                    for condition, edge in edges)
                out.append((label, mesh))
            return out
        block = geometry["mesh"]
        sets = block.get("boundary_sets") or {}
        if not isinstance(sets, dict):
            raise InvalidCaseError("boundary_sets must be a JSON object")
        boundary = {}
        for name, entry in sets.items():
            if not isinstance(entry, dict):
                raise InvalidCaseError(
                    f"boundary set {name!r} must be a JSON object")
            _known_keys(entry, _BOUNDARY_SET_KEYS, "boundary set")
            boundary[name] = BoundarySet(
                condition=entry["condition"],
                nodes=tuple(_integer(n, "boundary node")
                            for n in entry["nodes"]))
        mesh = Mesh(
            nodes=_points(block["nodes"], "node coordinate"),
            elements=np.asarray([[_integer(i, "element node") for i in row]
                                 for row in block["elements"]], dtype=int),
            boundary_sets=boundary,
        )
        return [("mesh", mesh)]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCaseError(f"malformed geometry block: {exc!r}") from exc


def _single_quad(case: CaseFile) -> QuadGeometry:
    """The case's single quad, whose block passes the checks of meshed
    quads (``_block_values``) and whose bilinear map passes the corner
    rule of mesh elements (``corner_jacobians``): a folded quad raises
    ``NumericalError``, a flat corner ``DegenerateGeometryError``."""
    if "quad" not in case.geometry:
        [source] = case.geometry.keys() & _SOURCE_KEYS.keys()
        raise InvalidCaseError(
            f"this analysis needs a single-quad geometry, not a {source}")
    vertices, sizes, _ = _block_values("quad", case.geometry["quad"])
    if sizes != [(1, 1)]:
        raise InvalidCaseError(
            "this analysis runs on a single quad; drop the meshes list")
    quad = QuadGeometry(vertices)
    corner_jacobians(bilinear_coefficients(quad.vertices)[None],
                     np.array([quad.diameter]))
    return quad


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Machine-readable run results plus run metadata."""

    kind: str
    meta: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report in JSON types: each mode-shape entry's (P, 3)
        ``points`` array becomes a list of ``[x, y, u]`` lists of floats, so
        the JSON carries every bit of the samples."""
        tables = self.tables
        if "mode_shapes" in tables:
            tables = {**tables, "mode_shapes": [
                {**entry, "points": np.asarray(entry["points"]).tolist()}
                for entry in tables["mode_shapes"]]}
        return {"kind": self.kind, "meta": self.meta, "tables": tables}

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)`` and a
        newline, byte for byte (``_json_text``)."""
        return _json_text(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        if self.kind == "modal":
            columns = ("mesh", "mode", "omega", "param_plain", "param_per_pi2")
            rows = self.tables["rows"]
        elif self.kind == "sectprops":
            columns = ("scheme", "area", "i_x1", "i_x2", "i_x1x2")
            rows = [{"scheme": "exact", **self.tables["exact"]},
                    *self.tables["schemes"]]
        elif self.kind == "mapcheck":
            columns = ("key", "value")
            rows = [dict(zip(columns, item)) for item in _flatten(self.tables)]
        else:
            raise InvalidCaseError(
                f"no CSV layout for report kind {self.kind!r}")
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(
                _csv_number(row[key]) if isinstance(row[key], float)
                else str(row[key]) for key in columns))
        return "\n".join(lines) + "\n"

    def to_plot(self) -> str:
        """One block per mode: a ``# <mesh> mode <k>`` header, then one
        ``x y z`` line per row of the entry's (P, 3) ``points`` array; a
        blank line between blocks.

        Every number is byte-identical to ``'%.6e'``.  Each is encoded with
        the separator that follows it as two 64-bit words (``_e6_words``),
        so a line is six words, whose NUL bytes are then dropped.  The
        deflections of all blocks are encoded in one pass; x and y once for
        each run of blocks whose coordinates have the same bits (0.0 and
        -0.0 print differently).
        """
        shapes = self.tables.get("mode_shapes")
        if not shapes:
            raise InvalidCaseError(
                "no mode-shape samples in report; run modal with mode_shapes"
            )
        points = [np.ascontiguousarray(entry["points"], dtype=float)
                  .reshape(-1, 3) for entry in shapes]
        lines = np.empty((sum(map(len, points)), 6), dtype="<u8")
        lines[:, 4:] = _e6_words(np.concatenate([p[:, 2] for p in points]),
                                 "\n")
        blocks = []
        start = 0
        xy = None
        for entry, p in zip(shapes, points):
            block = lines[start:start + len(p)]
            start += len(p)
            bits = p[:, :2].tobytes()
            if bits != xy:
                xy = bits
                words = _e6_words(p[:, :2], " ").reshape(-1, 4)
            block[:, :4] = words
            blocks.append(f"# {entry['mesh']} mode {entry['mode']}\n".encode()
                          + block.tobytes().translate(None, b"\0"))
        return b"\n".join(blocks).decode()


_json_string = json.encoder.encode_basestring_ascii
_isfinite = math.isfinite


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    ``json`` writes indented text with its pure-Python encoder; this is
    the same rules in one recursive function.  Types are tested in
    ``json``'s order (str, None, True, False, int, float, list or tuple,
    dict), so a bool prints as true/false and a float subclass such as
    ``np.float64`` as the float it holds.  Dict keys must be strings; any
    other key or value raises ``TypeError``.  ``indent`` is the newline
    and indentation that precede the lines of ``value``'s level.

    List and dict items that are finite floats, strings or integers of
    exactly that type, every leaf of a report but its bools and ``None``,
    are written inline, without a call of their own; bools, ``None``,
    subclasses and non-finite floats take the tests above.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [float.__repr__(item) if type(item) is float
                 and _isfinite(item) else _json_string(item)
                 if type(item) is str else int.__repr__(item)
                 if type(item) is int else _json_text(item, inner)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            item = value[key]
            items.append(_json_string(key) + ": " + (
                float.__repr__(item) if type(item) is float
                and _isfinite(item) else _json_string(item)
                if type(item) is str else int.__repr__(item)
                if type(item) is int else _json_text(item, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _digit_words(places: int, offset: int) -> np.ndarray:
    """(10**places,) little-endian uint64 words: entry k holds the
    ``places`` ASCII digits of k, the most significant at byte
    ``offset``."""
    words = np.zeros(1, dtype="<u8")
    digits = np.arange(ord("0"), ord("0") + 10, dtype="<u8")
    for place in range(places):
        words = (words[:, None]
                 | digits << np.uint64(8 * (offset + place))).ravel()
    return words


def _exponent_words() -> np.ndarray:
    """Cell bytes 9-13 of each exponent -300 .. 300, in the second word
    of a cell: "e", the exponent's sign and its two or three digits."""
    e = np.arange(-300, 301)
    digits = np.where(abs(e) >= 100, _digit_words(3, 3).take(abs(e)),
                      _digit_words(2, 4).take(abs(e) % 100))
    signs = np.where(e < 0, ord("-"), ord("+")).astype("<u8")
    return digits | signs << np.uint64(16) | np.uint64(ord("e") << 8)


#: Parts of the two words of a cell (see ``_e6_words``), whose seven
#: digits are head = digits // 1000 and tail = digits % 1000.
#: ``_HEADS[head + 10**4 * negative]`` holds bytes 0-5: the sign, the
#: leading digit, the point and three digits; ``_TAILS[tail]`` bytes 6-7,
#: the next two digits; ``_LAST_DIGITS[tail]`` byte 8, the last one;
#: ``_EXPONENTS[e + 300]`` bytes 9-13.
_HEADS = (np.array([0, ord("-")], dtype="<u8")[:, None, None]
          | _digit_words(1, 1)[:, None] | _digit_words(3, 3)
          | np.uint64(ord(".") << 16)).ravel()
_TAILS = np.repeat(_digit_words(2, 6), 10)
_LAST_DIGITS = np.tile(_digit_words(1, 0), 100)
_EXPONENTS = _exponent_words()


def _e6_words(values, separator: str) -> np.ndarray:
    """``'%.6e' % v`` of each value, then ``separator``, as two
    little-endian uint64 words (n, 2): bytes 0-13 the 14-byte cell, with
    a NUL byte in place of an absent sign or third exponent digit, byte
    14 the separator and byte 15 NUL.

    The decimal exponent e is floor(log10 |v|), corrected once by the
    scaled value s = |v| * 10**(6 - e), where 10**(6 - e) is the correctly
    rounded double.  s is off from the exact scaled value by at most
    2.3e-9 (two roundings of relative 2**-53 on s < 1e7), so rint(s) gives
    the digits that ``'%.6e'`` rounds the exact value to, unless s lies
    within 1e-6 of a half.  Such values, |e| >= 290 and nan/inf are
    formatted by Python one at a time.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(np.where(a > 0.0, a, 1.0)))
    e = np.clip(guess, -295.0, 295.0, out=guess).astype(np.int64)
    low = int(e.min(initial=0)) - 1
    powers = np.array([float(f"1e{6 - k}")
                       for k in range(low, int(e.max(initial=0)) + 2)])
    with np.errstate(invalid="ignore"):
        s = a * powers.take(e - low)
        fix = np.flatnonzero((s >= 1e7) | (s < 1e6) & (a > 0.0))
        e[fix] += np.where(s[fix] >= 1e7, 1, -1)
        s[fix] = a[fix] * powers.take(e[fix] - low)
        m = np.rint(s)
        slow = np.flatnonzero(~(np.abs(s - m) <= 0.5 - 1e-6)
                              | (np.abs(e) >= 290))
    m[slow] = 0.0
    carry = np.flatnonzero(m == 1e7)  # 9.9999995e-6 prints 1.000000e-05
    m[carry] = 1e6
    e[carry] += 1
    head, tail = np.divmod(m.astype(np.int64), 1000)
    words = np.empty((x.size, 2), dtype="<u8")
    words[:, 0] = _HEADS.take(head + 10 ** 4 * np.signbit(x)) \
        | _TAILS.take(tail)
    words[:, 1] = _LAST_DIGITS.take(tail) | _EXPONENTS.take(e + 300) \
        | np.uint64(ord(separator) << 48)
    if slow.size:
        text = b"".join(b"%-14.6e" % v for v in x[slow].tolist())
        words.view(np.uint8).reshape(-1, 16)[slow, :14] = np.frombuffer(
            text.replace(b" ", b"\0"), dtype=np.uint8).reshape(-1, 14)
    return words


def _csv_number(x: float) -> str:
    """``x`` in ``%.6f``, or in ``%.6e`` where fixed point would print a
    nonzero value as 0.000000 (|x| < 1e-6) or run to 16 or more digits
    (|x| >= 1e15)."""
    if (x != 0.0 and abs(x) < 1e-6) or abs(x) >= 1e15:
        return f"{x:.6e}"
    return f"{x:.6f}"


def _flatten(data, prefix=""):
    items = []
    if isinstance(data, dict):
        for key in sorted(data):
            items.extend(_flatten(data[key], f"{prefix}{key}."))
    elif isinstance(data, (list, tuple)):
        for idx, value in enumerate(data):
            items.extend(_flatten(value, f"{prefix}{idx}."))
    else:
        value = f"{data:.6e}" if isinstance(data, float) else str(data)
        items.append((prefix.rstrip("."), value))
    return items


def emit(report: Report, fmt: str = "csv", destination: str = "-"):
    """Write a report as csv, json, or gnuplot-style xyz blocks."""
    if fmt == "csv":
        text = report.to_csv()
    elif fmt == "json":
        text = report.to_json()
    elif fmt == "plot":
        text = report.to_plot()
    else:
        raise InvalidCaseError(f"unknown output format {fmt!r}")
    if destination in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_sectprops(case: CaseFile) -> Report:
    """Section properties of a single quad (regular, see ``_single_quad``)
    under each requested scheme, with deltas against the closed-form
    polygon values."""
    quad = _single_quad(case)
    rule = gauss_rule(case.analysis["gauss"])
    exact = polygon_section_properties(quad.vertices)
    # the moments scale as size^4; numpy underflows to 0 without a signal
    if min(exact.area, exact.i_x1, exact.i_x2) < np.finfo(float).tiny:
        span = float(np.ptp(quad.vertices, axis=0).max())
        raise InvalidCaseError(
            f"vertex coordinates span {span:.3e}, too small for the section "
            "area and moments to be normal floating-point numbers")
    requested = case.analysis["scheme"]
    exact_values = exact.as_dict()
    rows = []
    for kind in SCHEME_KINDS if requested == "all" else (requested,):
        scheme = build_scheme(quad, kind)
        values = section_properties(scheme, rule).as_dict()
        row = {"scheme": kind, **values}
        row.update({f"delta_{key}": value - exact_values[key]
                    for key, value in values.items()})
        rows.append(row)
    return Report(
        kind="sectprops",
        meta={
            "case": case.name,
            "gauss": case.analysis["gauss"],
            "vertices": quad.vertices.tolist(),
        },
        tables={"exact": exact_values, "schemes": rows},
    )


#: The 9x9 natural lattice ``run_mapcheck`` compares the maps on (t1 outer).
_MAPCHECK_GRID = fixed_points(lattice_points(np.linspace(-1.0, 1.0, 9),
                                             np.linspace(-1.0, 1.0, 9)))


def _shape_residuals(shapes) -> tuple:
    """The largest partition-of-unity and Kronecker residuals of a shape
    function set: its coefficients summed over the nodes against the
    constant monomial, and its functions at its own nodes against the
    identity."""
    coeffs = shapes.coeffs
    unity = coeffs.sum(axis=0)
    unity[0] -= 1.0
    kron = shapes.evaluate(shapes.nodes) - np.eye(coeffs.shape[0])
    return float(np.abs(unity).max()), float(np.abs(kron).max())


#: ``_shape_residuals`` of the two shape sets that never change, the
#: bilinear one (also pascal6's fallback) and the serendipity one.
_FIXED_RESIDUALS = {shapes: _shape_residuals(shapes)
                    for shapes in (_BILINEAR_SHAPES, _SERENDIPITY_SHAPES)}


def run_mapcheck(case: CaseFile) -> Report:
    """Pole data, shape-function residuals and scheme-vs-bilinear map
    deviation for a single quad (regular, see ``_single_quad``)."""
    quad = _single_quad(case)
    built = {kind: build_scheme(quad, kind) for kind in SCHEME_KINDS}
    poles = built["pascal6"].poles
    bilinear = built["bilinear"]
    reference = bilinear.params.point(_MAPCHECK_GRID)

    schemes = {}
    for kind, scheme in built.items():
        residuals = _FIXED_RESIDUALS.get(scheme.shapes)
        if residuals is None:
            residuals = _shape_residuals(scheme.shapes)
        # the bilinear map is the reference itself
        deviation = 0.0 if scheme is bilinear else float(distance(
            scheme.params.point(_MAPCHECK_GRID), reference).max())
        entry = {
            "partition_of_unity_residual": residuals[0],
            "kronecker_residual": residuals[1],
            "max_map_deviation": deviation,
            "max_map_deviation_relative": deviation / quad.diameter,
            "fallback": scheme.fallback,
        }
        if kind == "pascal6" and not scheme.fallback:
            entry["condition_estimate"] = scheme.cond_a
            nat = [scheme.poles.p5_nat, scheme.poles.p6_nat]
            entry["pole_natural"] = [p.tolist() for p in nat]
            entry["pole_round_trip_residual"] = float(distance(
                bilinear.params.point(nat), [poles.p5_xy, poles.p6_xy]
            ).max()) / quad.diameter
        schemes[kind] = entry

    return Report(
        kind="mapcheck",
        meta={"case": case.name, "vertices": quad.vertices.tolist()},
        tables={
            "poles": {
                "parallel_flags": list(poles.parallel_flags),
                "p5_xy": None if poles.p5_xy is None else
                poles.p5_xy.tolist(),
                "p6_xy": None if poles.p6_xy is None else
                poles.p6_xy.tolist(),
            },
            "schemes": schemes,
        },
    )


def run_modal(case: CaseFile) -> Report:
    """Frequency table for the case's meshes, both normalizations.

    The mode count is capped per mesh at the constrained system size, so
    coarse meshes simply contribute fewer rows (the published tables leave
    those cells blank as well).
    """
    analysis = case.analysis
    if analysis["scheme"] == "all":
        raise InvalidCaseError("modal runs use one scheme, not 'all'")
    rule = gauss_rule(analysis["gauss"])
    a = case.reference_length
    rows = []
    mesh_meta = []
    shape_entries = []
    for label, mesh in case_meshes(case):
        system = assemble(mesh, case.material, rule=rule,
                          rotary=analysis["rotary"])
        reduced = apply_bcs(system, mesh)
        spectrum = solve_modes(reduced, min(analysis["modes"], reduced.n_dofs))
        plain = frequency_parameter(spectrum.omega, a, case.material, "plain")
        per = frequency_parameter(spectrum.omega, a, case.material, "per_pi2")
        mesh_meta.append({
            "mesh": label,
            "n_nodes": mesh.n_nodes,
            "n_elements": mesh.n_elements,
            "n_dofs": reduced.n_dofs,
            "max_residual": float(spectrum.residuals.max(initial=0.0)),
        })
        for mode in range(spectrum.omega.size):
            rows.append({
                "mesh": label,
                "mode": mode + 1,
                "omega": float(spectrum.omega[mode]),
                "param_plain": float(plain[mode]),
                "param_per_pi2": float(per[mode]),
            })
        if analysis["mode_shapes"]:
            samples = mode_shape_samples(reduced, spectrum.modes)
            shape_entries += [
                {"mesh": label, "mode": mode + 1, "points": points}
                for mode, points in enumerate(samples)
            ]
    tables = {"rows": rows, "meshes": mesh_meta}
    if shape_entries:
        tables["mode_shapes"] = shape_entries
    return Report(
        kind="modal",
        meta={
            "case": case.name,
            "scheme": analysis["scheme"],
            "gauss": analysis["gauss"],
            "modes": analysis["modes"],
            "normalization": analysis["normalization"],
            "rotary": analysis["rotary"],
            "reference_length": a,
        },
        tables=tables,
    )
