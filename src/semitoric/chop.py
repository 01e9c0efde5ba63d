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
from .vertices import VertexKind, _class_of, _outgoing


def _edges(polygon: SemitoricPolygon, i: int) -> tuple[tuple[Point, LatticeVector, Fraction], ...]:
    """(neighbour, outgoing primitive, length in its units) of the edges from vertex i to its two neighbours."""
    verts = polygon.vertices
    vertex, out = verts[i], []
    for other, d in zip((verts[i - 1], verts[(i + 1) % len(verts)]), _outgoing(polygon.facts, i)):
        out.append((other, d, (other.x - vertex.x) / d.a if d.a else (other.y - vertex.y) / d.b))
    return tuple(out)


def chop_allowance(polygon: SemitoricPolygon, vertex: Point) -> Fraction:
    """Largest size bound for a chop at the vertex (exclusive): min edge length."""
    return min(length for _, _, length in _edges(polygon, polygon.facts.position(vertex)))


def corner_chop(polygon: SemitoricPolygon, vertex: Point, delta: Fraction) -> SemitoricPolygon:
    """Blow up a Delzant vertex by size delta (in primitive-tangent units)."""
    delta = _exact(delta)
    if delta <= 0:
        raise DomainError("chop size must be positive")
    i = polygon.facts.position(vertex)
    if _class_of(polygon.facts._kinds[i]) is not VertexKind.DELZANT:
        raise DomainError(f"vertex is not Delzant: {describe(vertex)}")
    edges = _edges(polygon, i)
    for other, _, length in edges:
        if delta >= length:
            inside = f"does not stay strictly inside the edge toward {describe(other)}"
            raise DomainError(f"chop size {describe(delta)} {inside}")

    cut = tuple(Point(vertex.x + delta * d.a, vertex.y + delta * d.b) for _, d, _ in edges)  # on each edge
    result = SemitoricPolygon(polygon.vertices[:i] + cut + polygon.vertices[i + 1 :], polygon.marks)
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
