"""Lattice combinatorics of semi-toric polygons.

Takes the combinatorial data of a semi-toric integrable system (a convex
rational polygon with marked points, multiplicities, and cut signs) and
computes the labeled directed graph of the underlying Hamiltonian circle
action together with the invariants around it: vertex classification,
isotropy weights, k-runs of boundary edges, Duistermaat-Heckman data,
adaptability, and fixed-sphere self-intersections.  All arithmetic is exact.
"""

from .analysis import (
    AdaptabilityVerdict,
    CriteriaDisagreement,
    JumpEntry,
    JumpReport,
    OrbitCounts,
    PiecewiseLinear,
    adaptability,
    delzant_presentations,
    dh_function,
    dh_jump_report,
    orbit_counts,
    self_intersection,
)
from .chop import chop_allowance, corner_chop
from .corpus import CorpusEntry, corpus_get, corpus_names
from .cuts import (
    PresentationSet,
    enumerate_presentations,
    shear_normal_form,
    split_marks,
    switch_cut,
    transform_polygon,
)
from .errors import (
    ClassificationError,
    DomainError,
    GeometryError,
    ParseError,
    PresentationError,
    SemitoricError,
    ValidationFailure,
)
from .geometry import (
    GlobalShear,
    LatticeVector,
    Point,
    Rational,
    VerticalShear,
    apply_global_shear,
    apply_vertical_shear,
    cross,
    det2,
    format_rational,
    parse_rational,
    primitive,
    primitive_direction,
    shear_vector,
)
from .graph import (
    GraphEdge,
    GraphVertex,
    KarshonGraph,
    betti_b2,
    build_graph,
    canonical_form,
    canonical_graph,
    graphs_equal,
    kirwan_check,
    serialize_graph,
)
from .polygon import (
    BoundaryChains,
    MarkedPoint,
    PolygonFacts,
    SemitoricPolygon,
    ValidationReport,
    Violation,
    boundary_chains,
    contains_interior,
    require_valid,
    slice_heights,
    validate,
    vertical_edge_endpoints,
)
from .serialization import emit_dot, parse_polygon, serialize_polygon
from .vertices import (
    FOCUS_FOCUS_WEIGHTS,
    VertexClassification,
    VertexKind,
    ZkChain,
    classify_vertex,
    cut_degrees,
    cut_endpoint,
    is_delzant_polygon,
    is_smooth_vertex,
    isotropy_weights,
    outgoing_primitives,
    zk_chains,
)

__version__ = "0.1.0"
