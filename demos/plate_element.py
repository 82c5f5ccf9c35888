"""Anatomy of the 12-DOF plate bending element on one skew quadrilateral.

Shows the subarea fractions that average the center deflection, the
stiffness and mass, and the sanity properties a bending element must
have: symmetry, a rigid-translation nullvector, and exact total mass.
"""

import numpy as np

from quadplate import (
    PlateMaterial,
    QuadGeometry,
    build_scheme,
    element_matrices,
    gauss_rule,
)
from quadplate.mapping import det2
from quadplate.plate_element import QUADRANT_CENTERS, U_DOFS

VERTICES = [[0.0, 0.0], [8.0, 0.0], [4.0, 3.0], [0.0, 5.0]]


def main():
    material = PlateMaterial(E=1365.0, nu=0.3, t=0.2, rho=5.0)
    print(f"material: E={material.E}, nu={material.nu}, t={material.t}, "
          f"rho={material.rho} -> rigidity D={material.rigidity:.6f}")

    quad = QuadGeometry(VERTICES)
    scheme = build_scheme(quad, "pascal6")
    rule = gauss_rule(3)

    # det J is affine in theta, so a quadrant's area is det J at its center
    areas = det2(scheme.params.gradient(QUADRANT_CENTERS))
    fractions = areas / areas.sum()
    print(f"subarea fractions (natural quadrant areas / total): "
          f"{np.round(fractions, 6)}")
    print(f"  they sum to {fractions.sum():.12f} and weight the")
    print("  nodal deflections into the center deflection of the element.")
    print()

    em = element_matrices(scheme, material, rule)
    print(f"stiffness: 12x12, symmetry residual "
          f"{np.abs(em.k - em.k.T).max():.2e}")
    translation = np.zeros(12)
    translation[U_DOFS] = 1.0
    print(f"  rigid translation residual |K v| = "
          f"{np.abs(em.k @ translation).max():.2e}")
    eigenvalues = np.linalg.eigvalsh(em.k)
    print(f"  smallest stiffness eigenvalues: {np.round(eigenvalues[:4], 8)}")
    print()

    total_mass = translation @ em.m @ translation
    print(f"mass: total translational mass = {total_mass:.10f} "
          f"(rho t A = {material.rho * material.t * quad.signed_area:.10f})")
    print(f"  mass eigenvalue range: [{np.linalg.eigvalsh(em.m).min():.2e}, "
          f"{np.linalg.eigvalsh(em.m).max():.2e}]")


if __name__ == "__main__":
    main()
