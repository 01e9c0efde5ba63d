"""Corner chops (equivariant blow-ups) for generating derived polygons.

Chopping a Delzant vertex v by size delta replaces it with the two points
v + delta*u and v + delta*w on its edges (u, w the outgoing primitives) and
the segment between them.  The result is re-validated: a delta large enough
to swallow a marked point or to break a cut endpoint is rejected.  Each chop
adds exactly one fixed component, so rank H^2 goes up by one; that increment
is asserted on every call.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, SemitoricError, ValidationFailure
from .geometry import LatticeVector, Point, _exact, describe
from .graph import betti_b2, build_graph
from .polygon import SemitoricPolygon, require_valid
from .vertices import VertexKind, classify_vertex, outgoing_primitives


def _edge_parameter(vertex: Point, other: Point, direction: LatticeVector) -> Fraction:
    """Length of the edge vertex->other in units of its primitive direction."""
    if direction.a != 0:
        return (other.x - vertex.x) / direction.a
    return (other.y - vertex.y) / direction.b


def chop_allowance(polygon: SemitoricPolygon, vertex: Point) -> Fraction:
    """Largest size bound for a chop at the vertex (exclusive): min edge length."""
    toward_prev, toward_next = outgoing_primitives(polygon, vertex)  # raises DomainError off the vertices
    verts, i = polygon.vertices, polygon.facts.index[vertex]
    prev_v, next_v = verts[i - 1], verts[(i + 1) % len(verts)]
    return min(
        _edge_parameter(vertex, prev_v, toward_prev),
        _edge_parameter(vertex, next_v, toward_next),
    )


def corner_chop(polygon: SemitoricPolygon, vertex: Point, delta: Fraction) -> SemitoricPolygon:
    """Blow up a Delzant vertex by size delta (in primitive-tangent units)."""
    delta = _exact(delta)
    if delta <= 0:
        raise DomainError("chop size must be positive")
    if classify_vertex(polygon, vertex).kind is not VertexKind.DELZANT:
        raise DomainError(f"vertex is not Delzant: {describe(vertex)}")
    verts, i = polygon.vertices, polygon.facts.index[vertex]
    prev_v, next_v = verts[i - 1], verts[(i + 1) % len(verts)]
    toward_prev, toward_next = outgoing_primitives(polygon, vertex)
    if delta >= _edge_parameter(vertex, prev_v, toward_prev):
        raise DomainError(f"chop size {describe(delta)} does not stay strictly inside the edge toward {describe(prev_v)}")
    if delta >= _edge_parameter(vertex, next_v, toward_next):
        raise DomainError(f"chop size {describe(delta)} does not stay strictly inside the edge toward {describe(next_v)}")

    on_prev_edge = Point(vertex.x + delta * toward_prev.a, vertex.y + delta * toward_prev.b)
    on_next_edge = Point(vertex.x + delta * toward_next.a, vertex.y + delta * toward_next.b)
    new_vertices = verts[:i] + (on_prev_edge, on_next_edge) + verts[i + 1 :]
    result = SemitoricPolygon(new_vertices, polygon.marks)
    try:
        require_valid(result)
    except ValidationFailure as exc:
        raise DomainError(f"chop at {describe(vertex)} invalidates the polygon: {exc}") from exc

    before, after = betti_b2(build_graph(polygon)), betti_b2(build_graph(result))
    if after != before + 1:
        raise SemitoricError(
            f"chop at {describe(vertex)} changed rank H^2 from {before} to {after}, expected +1"
        )
    return result
