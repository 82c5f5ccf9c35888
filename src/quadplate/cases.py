"""Case descriptions, built-in benchmark cases, runners and report output.

A case is a JSON document with a material block, exactly one geometry
source (a single quad, a triangle/quad mesh generator, or an explicit
mesh) and an analysis block.  Built-in cases reproduce the benchmark
plates with the normalized material (E=1365, nu=0.3, t=0.2, rho=5), for
which the flexural rigidity D and rho*t*a^4 both equal one.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCaseError, NumericalError
from .mapping import (
    CORNER_NATURAL,
    QuadGeometry,
    SCHEME_KINDS,
    bilinear_params,
    build_scheme,
    compute_poles_cartesian,
    det2,
    distance,
    lattice_points,
    map_point,
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
    nodes_on_segment,
    solve_modes,
)
from .plate_element import PlateMaterial
from .quadrature import (
    gauss_rule,
    polygon_section_properties,
    section_properties,
)

_BENCHMARK_MATERIAL = {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0}

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


def builtin_case_names() -> tuple:
    return tuple(sorted(_BUILTIN_BUILDERS))


def _case_paper_quad():
    return {
        "name": "paper-quad",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {"quad": {"vertices": _SECTION_QUAD}},
        "analysis": {"scheme": "all"},
    }


def _case_random_quad(seed):
    if seed is not None and seed < 0:
        raise InvalidCaseError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(0 if seed is None else seed)
    quad = random_convex_quad(rng, scale=2.0)
    return {
        "name": "random-quad",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {"quad": {"vertices": quad.vertices.tolist()}},
        "analysis": {"scheme": "all"},
    }


def _case_cantilever_isosceles():
    return {
        "name": "cantilever-isosceles",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {
            "triangle": {
                "vertices": _ISOSCELES_TRIANGLE,
                "levels": [1, 2, 3],
                "clamped_edges": [2],
            },
            "reference_length": 1.0,
        },
        "analysis": {"normalization": "plain"},
    }


def _case_clamped_isosceles():
    return {
        "name": "clamped-isosceles",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {
            "triangle": {
                "vertices": _ISOSCELES_TRIANGLE,
                "levels": [1, 2, 3],
                "clamped_edges": [0, 1, 2],
            },
            "reference_length": 1.0,
        },
        "analysis": {"normalization": "per_pi2"},
    }


def _case_clamped_equilateral():
    return {
        "name": "clamped-equilateral",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {
            "triangle": {
                "vertices": _EQUILATERAL_TRIANGLE,
                "levels": [1, 2, 3],
                "clamped_edges": [0, 1, 2],
            },
            "reference_length": 1.0,
        },
        "analysis": {"normalization": "per_pi2"},
    }


def _case_clamped_quad():
    return {
        "name": "clamped-quad",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {
            "quad": {
                "vertices": _CLAMPED_QUAD,
                "meshes": [[2, 2], [4, 4], [6, 6], [8, 8]],
                "clamped_edges": [0, 1, 2, 3],
            },
            "reference_length": 1.0,
        },
        "analysis": {"normalization": "per_pi2"},
    }


def _case_cantilever_quad():
    return {
        "name": "cantilever-quad",
        "material": dict(_BENCHMARK_MATERIAL),
        "geometry": {
            "quad": {
                "vertices": _CANTILEVER_QUAD,
                "meshes": [[2, 2], [4, 4], [6, 6], [8, 8]],
                "clamped_edges": [0],
            },
            "reference_length": 1.0,
        },
        "analysis": {"normalization": "per_pi2"},
    }


_BUILTIN_BUILDERS = {
    "paper-quad": _case_paper_quad,
    "random-quad": _case_random_quad,
    "cantilever-isosceles": _case_cantilever_isosceles,
    "clamped-isosceles": _case_clamped_isosceles,
    "clamped-equilateral": _case_clamped_equilateral,
    "clamped-quad": _case_clamped_quad,
    "cantilever-quad": _case_cantilever_quad,
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
    if source == "random-quad":
        raw = _case_random_quad(seed)
    elif source in _BUILTIN_BUILDERS:
        raw = _BUILTIN_BUILDERS[source]()
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
    return parse_case(raw, overrides=overrides)


def parse_case(raw: dict, overrides: dict | None = None) -> CaseFile:
    if not isinstance(raw, dict):
        raise InvalidCaseError("case document must be a JSON object")
    material_block = raw.get("material")
    if not isinstance(material_block, dict):
        raise InvalidCaseError("case needs a material block")
    try:
        material = PlateMaterial(**{
            key: _real(material_block[key], f"material {key}")
            for key in ("E", "nu", "t", "rho")})
    except KeyError as exc:
        raise InvalidCaseError(f"material block misses {exc}") from exc

    geometry = raw.get("geometry")
    if not isinstance(geometry, dict):
        raise InvalidCaseError("case needs a geometry block")
    sources = [key for key in ("quad", "triangle", "mesh") if key in geometry]
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

    given = raw.get("analysis", {})
    if not isinstance(given, dict):
        raise InvalidCaseError("analysis block must be a JSON object")
    unknown = sorted(set(given) - set(_ANALYSIS_DEFAULTS))
    if unknown:
        raise InvalidCaseError(f"unknown analysis keys {unknown}")
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
    reference_length = _real(geometry.get("reference_length", 1.0),
                             "reference_length")
    if not 0.0 < reference_length < math.inf:
        raise InvalidCaseError(
            "reference_length must be positive and finite, "
            f"got {reference_length}"
        )

    return CaseFile(
        name=str(raw.get("name", "case")),
        material=material,
        geometry=copy.deepcopy(geometry),
        analysis=analysis,
        reference_length=reference_length,
    )


def _integer(value, what: str) -> int:
    """``value`` as an int; booleans, strings and fractions are rejected
    rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise InvalidCaseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float; booleans, strings and lists are rejected
    rather than converted."""
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

def _attach_boundary_sets(mesh: Mesh, polygon: np.ndarray, block: dict):
    n_edges = polygon.shape[0]
    for key, condition in (("clamped_edges", "clamped"),
                           ("ss_edges", "simply_supported")):
        for edge in block.get(key, ()):
            edge = _integer(edge, "edge index")
            if not 0 <= edge < n_edges:
                raise InvalidCaseError(f"edge index {edge} out of range")
            nodes = nodes_on_segment(
                mesh, polygon[edge], polygon[(edge + 1) % n_edges]
            )
            mesh.boundary_sets[f"{condition}-edge-{edge}"] = BoundarySet(
                condition=condition, nodes=nodes
            )


def case_meshes(case: CaseFile) -> list:
    """Materialize the case geometry into labelled meshes; malformed
    contents raise ``InvalidCaseError``."""
    geometry = case.geometry
    try:
        if "quad" in geometry:
            block = geometry["quad"]
            vertices = _points(block["vertices"], "vertex coordinate")
            out = []
            for size in block.get("meshes", [[1, 1]]):
                m, n = (_integer(k, "mesh size") for k in size)
                mesh = mesh_quad(vertices, m, n)
                _attach_boundary_sets(mesh, vertices, block)
                out.append((f"{m}x{n}", mesh))
            return out
        if "triangle" in geometry:
            block = geometry["triangle"]
            vertices = _points(block["vertices"], "vertex coordinate")
            out = []
            for level in block.get("levels", [1]):
                level = _integer(level, "triangle level")
                mesh = mesh_triangle(vertices, level)
                _attach_boundary_sets(mesh, vertices, block)
                out.append((f"{3 * level ** 2}-elements", mesh))
            return out
        block = geometry["mesh"]
        sets = block.get("boundary_sets") or {}
        if not isinstance(sets, dict):
            raise InvalidCaseError("boundary_sets must be a JSON object")
        boundary = {
            name: BoundarySet(
                condition=entry["condition"],
                nodes=tuple(_integer(n, "boundary node")
                            for n in entry["nodes"]))
            for name, entry in sets.items()
        }
        mesh = Mesh(
            nodes=_points(block["nodes"], "node coordinate"),
            elements=np.asarray([[_integer(i, "element node") for i in row]
                                 for row in block["elements"]], dtype=int),
            boundary_sets=boundary,
        )
        return [("mesh", mesh)]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCaseError(f"malformed geometry block: {exc!r}") \
            from exc


def _single_quad(case: CaseFile) -> QuadGeometry:
    """The case's single quad, whose bilinear map must be regular: det J
    is affine in theta, so it must exceed 1e-12 * diam^2 at every corner
    (a folded quad raises ``NumericalError``)."""
    geometry = case.geometry
    if "quad" not in geometry:
        raise InvalidCaseError(
            "this analysis needs a single-quad geometry, not a mesh"
        )
    block = geometry["quad"]
    meshes = block.get("meshes", [[1, 1]])
    if meshes != [[1, 1]]:
        raise InvalidCaseError(
            "this analysis runs on a single quad; drop the meshes list"
        )
    try:
        vertices = _points(block["vertices"], "vertex coordinate")
    except (TypeError, ValueError) as exc:
        raise InvalidCaseError(f"malformed quad vertices: {exc!r}") from exc
    quad = QuadGeometry(vertices)
    corner_det = det2(bilinear_params(quad).gradient(CORNER_NATURAL))
    for corner, value in enumerate(corner_det):
        if value <= 1e-12 * quad.diameter * quad.diameter:
            raise NumericalError(f"bilinear map is not regular at corner "
                                 f"{corner + 1}: det J = {value:.3e}")
    return quad


def _requested_schemes(case: CaseFile) -> tuple:
    scheme = case.analysis["scheme"]
    return SCHEME_KINDS if scheme == "all" else (scheme,)


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
        return {"kind": self.kind, "meta": self.meta, "tables": self.tables}

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(kind=data["kind"], meta=data["meta"], tables=data["tables"])

    def __eq__(self, other):
        return isinstance(other, Report) and self.to_dict() == other.to_dict()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        if self.kind == "modal":
            lines = ["mesh,mode,omega,param_plain,param_per_pi2"]
            for row in self.tables["rows"]:
                lines.append(
                    f"{row['mesh']},{row['mode']},{row['omega']:.6f},"
                    f"{row['param_plain']:.6f},{row['param_per_pi2']:.6f}"
                )
            return "\n".join(lines) + "\n"
        if self.kind == "sectprops":
            lines = ["scheme,area,i_x1,i_x2,i_x1x2"]
            exact = self.tables["exact"]
            lines.append(
                f"exact,{exact['area']:.6f},{exact['i_x1']:.6f},"
                f"{exact['i_x2']:.6f},{exact['i_x1x2']:.6f}"
            )
            for row in self.tables["schemes"]:
                lines.append(
                    f"{row['scheme']},{row['area']:.6f},{row['i_x1']:.6f},"
                    f"{row['i_x2']:.6f},{row['i_x1x2']:.6f}"
                )
            return "\n".join(lines) + "\n"
        if self.kind == "mapcheck":
            lines = ["key,value"]
            for key, value in _flatten(self.tables):
                lines.append(f"{key},{value}")
            return "\n".join(lines) + "\n"
        raise InvalidCaseError(f"no CSV layout for report kind {self.kind!r}")

    def to_plot(self) -> str:
        shapes = self.tables.get("mode_shapes")
        if not shapes:
            raise InvalidCaseError(
                "no mode-shape samples in report; run modal with mode_shapes"
            )
        blocks = []
        for entry in shapes:
            lines = [f"# {entry['mesh']} mode {entry['mode']}"]
            lines += [
                f"{x:.6e} {y:.6e} {z:.6e}" for x, y, z in entry["points"]
            ]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"


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
    rows = []
    for kind in _requested_schemes(case):
        scheme = build_scheme(quad, kind)
        props = section_properties(scheme, rule)
        row = {"scheme": kind}
        row.update(props.as_dict())
        row.update({
            f"delta_{key}": value - exact.as_dict()[key]
            for key, value in props.as_dict().items()
        })
        rows.append(row)
    return Report(
        kind="sectprops",
        meta={
            "case": case.name,
            "gauss": case.analysis["gauss"],
            "vertices": quad.vertices.tolist(),
        },
        tables={"exact": exact.as_dict(), "schemes": rows},
    )


def run_mapcheck(case: CaseFile) -> Report:
    """Pole data, shape-function residuals and scheme-vs-bilinear map
    deviation for a single quad (regular, see ``_single_quad``)."""
    quad = _single_quad(case)
    poles = compute_poles_cartesian(quad)
    built = {kind: build_scheme(quad, kind) for kind in SCHEME_KINDS}
    bilinear = built["bilinear"]
    grid = lattice_points(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9))
    reference = map_point(bilinear, grid)

    schemes = {}
    for kind, scheme in built.items():
        coeffs = scheme.shapes.coeffs
        unity = coeffs.sum(axis=0)
        unity[0] -= 1.0
        kron = scheme.shapes.evaluate(scheme.shapes.nodes.rows) \
            - np.eye(coeffs.shape[0])
        deviation = float(distance(map_point(scheme, grid), reference).max())
        entry = {
            "partition_of_unity_residual": float(np.abs(unity).max()),
            "kronecker_residual": float(np.abs(kron).max()),
            "max_map_deviation": deviation,
            "max_map_deviation_relative": deviation / quad.diameter,
            "fallback": scheme.fallback,
        }
        if kind == "pascal6" and not scheme.fallback:
            entry["condition_estimate"] = scheme.cond_a
            nat = [scheme.poles.p5_nat, scheme.poles.p6_nat]
            entry["pole_natural"] = [[float(c) for c in p] for p in nat]
            entry["pole_round_trip_residual"] = float(distance(
                map_point(bilinear, nat), [poles.p5_xy, poles.p6_xy]
            ).max()) / quad.diameter
        schemes[kind] = entry

    return Report(
        kind="mapcheck",
        meta={"case": case.name, "vertices": quad.vertices.tolist()},
        tables={
            "poles": {
                "parallel_flags": list(poles.parallel_flags),
                "p5_xy": None if poles.p5_xy is None else
                [float(c) for c in poles.p5_xy],
                "p6_xy": None if poles.p6_xy is None else
                [float(c) for c in poles.p6_xy],
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
            samples = mode_shape_samples(mesh, rule, reduced, spectrum.modes)
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
