"""Poles and the complete quadratic mapping scheme.

The two poles are the intersections of opposite edge extensions; together
with the corners they carry a complete second-order interpolation of the
geometry.  Each pole has two natural roots, one on each extended edge of
the bi-unit square whose image passes through it, read off in closed form
from the edge-line intersection parameters: different roots give
different shape functions but the same transformation.
``build_scheme`` takes the roots nearest the element center; the scheme
of the other roots comes from ``pascal_shape_set``.
"""

import dataclasses

import numpy as np

from quadplate import (
    QuadGeometry,
    build_scheme,
    compute_poles_cartesian,
    pascal_shape_set,
    solve_pole_natural,
)

VERTICES = [[0.0, 0.0], [8.0, 0.0], [4.0, 3.0], [0.0, 5.0]]


def describe(poles, params, label):
    print(f"  {label}:")
    print(f"    natural pole coordinates: p5={poles.p5_nat}, "
          f"p6={poles.p6_nat}")
    coeffs = params.coeffs
    terms = ["1", "t1", "t2", "t1^2", "t1*t2", "t2^2"]
    for axis, name in enumerate(("x1", "x2")):
        poly = " + ".join(f"{coeffs[m, axis]:+.4f} {t}"
                          for m, t in enumerate(terms)
                          if abs(coeffs[m, axis]) > 1e-9)
        print(f"    {name}(t) = {poly}")


def main():
    quad = QuadGeometry(VERTICES)
    poles = compute_poles_cartesian(quad)
    print("Cartesian poles (edge-line intersections):")
    print(f"  p5 = {poles.p5_xy} (edges 1-2 and 3-4)")
    print(f"  p6 = {poles.p6_xy} (edges 2-3 and 4-1)")
    print()

    print("Natural roots of the poles:")
    nearest = build_scheme(quad, "pascal6")
    describe(nearest.poles, nearest.params,
             "roots nearest the element center (build_scheme)")
    other = dataclasses.replace(
        poles,
        p5_nat=solve_pole_natural(quad, poles.p5_xy, guess=(4.0, 1.0)),
        p6_nat=solve_pole_natural(quad, poles.p6_xy, guess=(1.0, 3.0)))
    _, params, _ = pascal_shape_set(quad, other)
    describe(other, params, "the other root of each pole (pascal_shape_set)")
    print()
    print("both roots produce the bilinear transformation (quadratic rows"
          " vanish),")
    print("so the pure-quadratic terms above are absent in either case.")
    print()

    axis = np.linspace(-1, 1, 9)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1)  # 9x9 natural points
    bil = build_scheme(quad, "bilinear")
    reference = bil.params.point(grid)
    worst = 0.0
    for kind in ("serendipity8", "pascal6"):
        scheme = build_scheme(quad, kind)
        dev = np.linalg.norm(scheme.params.point(grid) - reference,
                             axis=-1).max()
        worst = max(worst, dev)
        print(f"max |{kind} - bilinear| on a 9x9 grid: {dev:.3e}")
    print(f"(relative to the quad diameter {quad.diameter:.3f}: "
          f"{worst / quad.diameter:.3e})")
    print()

    theta = solve_pole_natural(quad, poles.p5_xy, guess=(4.0, 1.0))
    print(f"pole round trip: map({theta}) = "
          f"{bil.params.point(theta)} vs pole {poles.p5_xy}")


if __name__ == "__main__":
    main()
