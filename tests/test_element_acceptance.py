"""Property test of the rule by which ``assemble`` accepts mesh elements:
a bilinear element is regular exactly when every vertex turns left."""

import numpy as np
import pytest

from quadplate import Mesh, PlateMaterial, QuadplateError, assemble

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

MAT = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)
#: A 2x2 grid over the unit square; node 4 is its center.
GRID_NODES = np.array([[x, y] for y in (0.0, 0.5, 1.0)
                       for x in (0.0, 0.5, 1.0)])
GRID_ELEMENTS = np.array([[0, 1, 4, 3], [1, 2, 5, 4],
                          [3, 4, 7, 6], [4, 5, 8, 7]])


def vertex_turns(vertices):
    """Cross product of the incoming and outgoing edge at each vertex of
    polygons (m, 4, 2); positive where the boundary turns left."""
    outgoing = np.roll(vertices, -1, axis=1) - vertices
    incoming = np.roll(outgoing, 1, axis=1)
    return (incoming[..., 0] * outgoing[..., 1]
            - incoming[..., 1] * outgoing[..., 0])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_assemble_accepts_exactly_convex_elements(x, y):
    nodes = GRID_NODES.copy()
    nodes[4] = (x, y)
    turns = vertex_turns(nodes[GRID_ELEMENTS])
    # ties (a straight or nearly straight corner) are left out
    assume(np.abs(turns).min() > 1e-9)
    try:
        assemble(Mesh(nodes=nodes, elements=GRID_ELEMENTS), MAT)
        accepted = True
    except QuadplateError:
        accepted = False
    assert accepted == bool(np.all(turns > 0.0))

