"""Seeded inputs of the quadplate benchmark.

Each workload is a list of items.  An item is one case document plus the
CLI calls made on it: one mesh from case file to report, or one quad's
``sectprops`` + ``mapcheck``.  Inputs depend only on the workload name,
the seed and the size, and are drawn with the standard library's
``random.Random`` so that they do not change with the numpy version or
with the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("modal-medium", "mapping-report", "modal-shapes")
SIZES = ("full", "tiny", "fine")
DEFAULT_SEED = 0

MATERIAL = {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0}

# Geometry of the published benchmark plates.  Copied here rather than
# read from the program's built-in cases, so that the benchmark inputs stay
# fixed when the built-ins change.
SECTION_QUAD = [[0.0, 0.0], [8.0, 0.0], [4.0, 3.0], [0.0, 5.0]]
ISOSCELES = [[0.0, 0.0], [1.0, 0.25], [0.0, 0.5]]
CLAMPED_QUAD = [[0.0, 0.0], [1.0, 0.0], [0.7929, 0.7727], [0.2394, 0.6577]]
CANTILEVER_QUAD = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.433, 0.75]]

# CLI calls per item kind; "{case}" is replaced by the case file path.
_CALLS = {
    "modal": (("modal", "--case", "{case}", "--format", "json"),),
    "shapes": (("modal", "--case", "{case}", "--shapes", "--format", "plot"),),
    "section": (("sectprops", "--case", "{case}", "--format", "json"),
                ("mapcheck", "--case", "{case}", "--format", "json")),
}


@dataclass(frozen=True)
class Item:
    """One unit of timed work: a case document and the CLI calls on it."""

    label: str
    kind: str
    case: dict

    @property
    def digest(self) -> str:
        """Key of the item's reference values: same inputs, same key."""
        text = json.dumps({"kind": self.kind, "case": self.case},
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def argvs(self, case_path: str) -> list:
        return [[arg.replace("{case}", case_path) for arg in call]
                for call in _CALLS[self.kind]]


def _modal_case(name, geometry_key, block, normalization,
                scheme="pascal6"):
    return {
        "name": name,
        "material": dict(MATERIAL),
        "geometry": {geometry_key: block, "reference_length": 1.0},
        "analysis": {"scheme": scheme, "gauss": 3, "modes": 6,
                     "normalization": normalization},
    }


def quad_item(name, vertices, m, clamped, normalization,
              kind="modal", scheme="pascal6") -> Item:
    block = {"vertices": vertices, "meshes": [[m, m]],
             "clamped_edges": clamped}
    label = f"{name} {m}x{m}" + ("" if scheme == "pascal6" else
                                  f" {scheme}")
    return Item(label, kind,
                _modal_case(name, "quad", block, normalization, scheme))


def triangle_item(name, vertices, level, clamped, normalization,
                  kind="modal") -> Item:
    block = {"vertices": vertices, "levels": [level],
             "clamped_edges": clamped}
    return Item(f"{name} level {level}", kind,
                _modal_case(name, "triangle", block, normalization))


def section_item(name, vertices) -> Item:
    return Item(name, "section", {
        "name": name,
        "material": dict(MATERIAL),
        "geometry": {"quad": {"vertices": vertices}},
        "analysis": {"scheme": "all", "gauss": 3},
    })


def random_convex_quad(rng: random.Random, center, scale) -> list:
    """A convex counterclockwise quad with no sliver corner and no nearly
    parallel pair of opposite edges, so that every scheme, including the
    pole Newton of pascal6, is well posed on it."""
    while True:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        gaps = [b - a for a, b in zip(angles, angles[1:] + [angles[0]
                                                             + 2 * math.pi])]
        if min(gaps) < 0.5:
            continue
        v = [[center[0] + r * math.cos(a), center[1] + r * math.sin(a)]
             for a, r in zip(angles,
                             (scale * rng.uniform(0.5, 1.0) for _ in range(4)))]
        edges = [[v[(p + 1) % 4][0] - v[p][0], v[(p + 1) % 4][1] - v[p][1]]
                 for p in range(4)]
        lengths = [math.hypot(*e) for e in edges]

        def sine(p, q):
            cross = edges[p][0] * edges[q][1] - edges[p][1] * edges[q][0]
            return cross / (lengths[p] * lengths[q])

        corners = [sine(p, (p + 1) % 4) for p in range(4)]  # turn at vertex
        if min(corners) < math.sin(math.radians(25.0)):
            continue
        if abs(sine(0, 2)) < 0.05 or abs(sine(1, 3)) < 0.05:
            continue
        return [[round(x, 12), round(y, 12)] for x, y in v]


def _modal_medium(rng, size):
    m = {"tiny": 2, "full": 16, "fine": 32}[size]
    return [
        quad_item("clamped-quad", CLAMPED_QUAD, m, [0, 1, 2, 3], "per_pi2"),
        quad_item("cantilever-quad", CANTILEVER_QUAD, m, [0], "per_pi2"),
        quad_item("cantilever-quad", CANTILEVER_QUAD, m, [0], "per_pi2",
                  scheme="serendipity8"),
        quad_item("clamped-quad", CLAMPED_QUAD, m, [0, 1, 2, 3], "per_pi2",
                  scheme="bilinear"),
    ]


def _mapping_report(rng, size):
    tiny = size == "tiny"
    items = [section_item("paper-quad", SECTION_QUAD)]
    for index in range(4 if tiny else 400):
        center = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        items.append(section_item(f"random-{index:03d}",
                                  random_convex_quad(rng, center, scale)))
    return items


def _modal_shapes(rng, size):
    tiny = size == "tiny"
    m, level = (2, 1) if tiny else (8, 3)
    return [
        quad_item("clamped-quad", CLAMPED_QUAD, m, [0, 1, 2, 3], "per_pi2",
                  kind="shapes"),
        triangle_item("cantilever-isosceles", ISOSCELES, level, [2], "plain",
                      kind="shapes"),
    ]


_GENERATORS = {
    "modal-medium": _modal_medium,
    "mapping-report": _mapping_report,
    "modal-shapes": _modal_shapes,
}


def build(workload: str, seed: int, size: str = "full") -> list:
    """The workload's items in the seed's run order."""
    rng = random.Random(f"{workload}/{seed}")
    items = _GENERATORS[workload](rng, size)
    rng.shuffle(items)
    return items


def write_cases(items: list, directory: str) -> list:
    """Write each item's case document; return the paths in item order."""
    paths = []
    for index, item in enumerate(items):
        path = os.path.join(directory, f"case-{index:04d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(item.case, handle)
        paths.append(path)
    return paths
