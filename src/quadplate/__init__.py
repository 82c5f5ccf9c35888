"""Quadrilateral geometry mapping schemes and thin-plate modal analysis."""

from .errors import (
    DegenerateGeometryError,
    InvalidCaseError,
    NumericalError,
    QuadplateError,
    ValidationError,
)
from .mapping import (
    BILINEAR_MONOMIALS,
    PASCAL_MONOMIALS,
    SERENDIPITY_MONOMIALS,
    GeneralizedParams,
    MappingScheme,
    PoleSet,
    QuadGeometry,
    ShapeFunctionSet,
    build_scheme,
    compute_poles_cartesian,
    pascal_shape_set,
    random_convex_quad,
    solve_pole_natural,
)
from .modal import (
    BoundarySet,
    GlobalSystem,
    Mesh,
    ModalSpectrum,
    apply_bcs,
    assemble,
    frequency_parameter,
    mesh_quad,
    mesh_triangle,
    modal_analysis,
    nodes_on_segment,
    solve_modes,
)
from .plate_element import (
    ElementMatrices,
    PlateMaterial,
    curvature_operator,
    element_matrices,
    rotation_field,
)
from .quadrature import (
    GaussRule,
    SectionProperties,
    gauss_rule,
    polygon_section_properties,
    section_properties,
)

__version__ = "0.1.0"
