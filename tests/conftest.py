import warnings

import numpy as np
import pytest

# For a failing @given test, hypothesis's pytest plugin imports its patch
# explainer, which imports libcst; libcst raises a DeprecationWarning on
# import, an error under this suite's filterwarnings that would end the
# session with INTERNALERROR.  Importing it once here, with that warning
# ignored, leaves the plugin a module already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from quadplate import QuadGeometry, random_convex_quad

#: Worked quadrilateral cross-section used throughout (vertices, ccw).
SECTION_QUAD = [[0.0, 0.0], [8.0, 0.0], [4.0, 3.0], [0.0, 5.0]]
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
BIUNIT_SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


@pytest.fixture
def section_quad():
    return QuadGeometry(SECTION_QUAD)


@pytest.fixture
def unit_square():
    return QuadGeometry(UNIT_SQUARE)


def convex_quads(count, seed=1234, scale=1.0):
    """Deterministic stream of random convex quadrilaterals."""
    rng = np.random.default_rng(seed)
    return [random_convex_quad(rng, scale=scale) for _ in range(count)]


def fd_jacobian(scheme, theta, step=1e-6):
    """Central-difference oracle for the covariant base vectors."""
    t1, t2 = theta
    rows = []
    for axis in range(2):
        plus = np.array(theta, dtype=float)
        minus = np.array(theta, dtype=float)
        plus[axis] += step
        minus[axis] -= step
        rows.append((scheme.params.point(plus) - scheme.params.point(minus))
                    / (2.0 * step))
    return np.vstack(rows)
