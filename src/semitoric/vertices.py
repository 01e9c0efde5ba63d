"""Vertex classification and the lattice tests built on it.

A vertex carries two primitive edge tangents u (left) and w (right), both
normalised to positive first component; a vertical edge at an extreme
contributes its outgoing direction (0, +/-1) instead.  With n the total
multiplicity of the cuts ending at the vertex and s their common sign, the
classes are:

* Delzant        n = 0 and det(u w) = +/-1 (a genuine smooth corner);
* hidden Delzant n >= 1 and det(u Aw) = +/-1, A the shear (1 0; s*n 1)
                 (a smooth corner masked by its cuts);
* fake           n >= 1 and det(u Aw) = 0 (a corner created by cuts alone).

Everything else is invalid data.  For a hidden Delzant vertex the sign of
det(u Aw) is pinned to -s: the cut-switched presentation must again be
convex, and that presentation has the masked corner as a real corner.

The rules here (:func:`classify_corner`, :func:`extract_k_runs`) run once per
polygon, inside the sweep that builds its
:class:`~semitoric.polygon.PolygonFacts`; the public functions read the
stored results and raise a stored error again, so none of them scans the
polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Literal, Mapping, Union

from .errors import ClassificationError, DomainError, SemitoricError
from .geometry import LatticeVector, Point, det2, primitive_direction, shear_vector
from .polygon import (
    BoundaryChains,
    MarkedPoint,
    SemitoricPolygon,
    _unwrap,
    slice_heights,
    vertical_edge_endpoints,
)


class VertexKind(Enum):
    DELZANT = "delzant"
    HIDDEN_DELZANT = "hidden-delzant"
    FAKE = "fake"


# The circle action near a focus-focus point is unique up to sign, so the
# fixed point over every marked point has these weights.  A constant, not a
# computation; it is why marked points never serve as poles of k-runs.
FOCUS_FOCUS_WEIGHTS: tuple[int, int] = (-1, 1)


@dataclass(frozen=True)
class VertexClassification:
    vertex: Point
    kind: VertexKind
    degree: int
    sign: int | None
    left_primitive: LatticeVector
    right_primitive: LatticeVector

    def __str__(self) -> str:
        extra = "" if self.sign is None else f" degree={self.degree} sign={self.sign:+d}"
        return f"{self.vertex}: {self.kind.value}{extra} u={self.left_primitive} w={self.right_primitive}"


@dataclass(frozen=True)
class ZkChain:
    """Maximal run of boundary edges of constant primitive first component k >= 2.

    Interior vertices of the run are fake; the two poles are Delzant or
    hidden Delzant.  The preimage is a sphere fixed by the order-k cyclic
    subgroup of the circle.
    """

    k: int
    side: Literal["top", "bottom"]
    start_vertex: Point
    end_vertex: Point
    edges: tuple[tuple[Point, Point], ...]


def cut_endpoint(polygon: SemitoricPolygon, mark: MarkedPoint) -> Point:
    """Boundary point where the mark's cut lands: top for +1, bottom for -1."""
    bottom_y, top_y = slice_heights(polygon, mark.position.x)
    return Point(mark.position.x, top_y if mark.cut_sign > 0 else bottom_y)


def cut_degrees(polygon: SemitoricPolygon) -> dict[Point, tuple[int, int]]:
    """Aggregate cut endpoints: vertex -> (total multiplicity, common sign).

    Raises ClassificationError when cuts of both signs end at one point,
    which cannot happen for a polygon with strictly interior marks.
    """
    return dict(_unwrap(polygon.facts.cut_degrees))


def _outgoing(verts: tuple[Point, ...], i: int) -> tuple[LatticeVector, LatticeVector]:
    prev_v, vertex, next_v = verts[i - 1], verts[i], verts[(i + 1) % len(verts)]
    return (
        primitive_direction(prev_v.x - vertex.x, prev_v.y - vertex.y),
        primitive_direction(next_v.x - vertex.x, next_v.y - vertex.y),
    )


def outgoing_primitives(polygon: SemitoricPolygon, vertex: Point) -> tuple[LatticeVector, LatticeVector]:
    """Primitive tangents of the two incident edges, directed away from the vertex."""
    i = polygon.facts.index.get(vertex)
    if i is None:
        raise DomainError(f"{vertex} is not a vertex of the polygon")
    return _outgoing(polygon.vertices, i)


def _flip(v: LatticeVector) -> LatticeVector:
    return LatticeVector(-v.a, -v.b)


def _tangent_frame(
    verts: tuple[Point, ...], i: int, j_min: Fraction, j_max: Fraction
) -> tuple[LatticeVector, LatticeVector]:
    """The classification frame (u, w) at vertex i.

    Interior vertex: u, w are the left/right edge tangents with positive
    first component.  Vertical edge endpoint: the vertical edge contributes
    its outgoing direction on its own side.  Single extreme vertex: u is the
    bottom-side tangent, w the top-side one (both normalised rightward).
    """
    vertex = verts[i]
    d_prev, d_next = _outgoing(verts, i)
    left = [d for d in (d_prev, d_next) if d.a < 0]
    right = [d for d in (d_prev, d_next) if d.a > 0]
    vertical = [d for d in (d_prev, d_next) if d.a == 0]

    if len(vertical) == 2:
        raise ClassificationError(f"{vertex} lies between two vertical edges")
    if len(vertical) == 1:
        if vertex.x == j_min and right:
            return vertical[0], right[0]
        if vertex.x == j_max and left:
            return _flip(left[0]), vertical[0]
        raise ClassificationError(f"{vertex} touches a vertical edge at an interior column")
    if left and right:
        return _flip(left[0]), right[0]
    if len(right) == 2:  # single leftmost vertex, both edges point rightward
        first, second = right
        if first.b * second.a > second.b * first.a:
            first, second = second, first
        return first, second  # bottom side first
    first, second = (_flip(d) for d in left)  # single rightmost vertex
    if first.b * second.a < second.b * first.a:
        first, second = second, first
    return first, second  # bottom side has the larger slope at the right tip


def classify_corner(
    verts: tuple[Point, ...], i: int, j_min: Fraction, j_max: Fraction, cut_degrees: Union[Mapping, SemitoricError]
) -> VertexClassification:
    """The class of vertex i of a cycle, given the moment interval and the cut degrees.

    Raises ClassificationError when no class matches, and the stored error
    when the cut degrees could not be tallied.
    """
    vertex = verts[i]
    u, w = _tangent_frame(verts, i, j_min, j_max)
    degree, sign = _unwrap(cut_degrees).get(vertex, (0, 0))
    if degree == 0:
        if abs(det2(u, w)) == 1:
            return VertexClassification(vertex, VertexKind.DELZANT, 0, None, u, w)
        raise ClassificationError(
            f"{vertex}: no cuts end here and |det(u w)| = {abs(det2(u, w))}, not 1"
        )
    d = det2(u, shear_vector(w, sign * degree))
    if d == 0:
        return VertexClassification(vertex, VertexKind.FAKE, degree, sign, u, w)
    if d == -sign:
        return VertexClassification(vertex, VertexKind.HIDDEN_DELZANT, degree, sign, u, w)
    if abs(d) == 1:
        raise ClassificationError(
            f"{vertex}: masked corner has the wrong orientation (det {d} with cut sign {sign:+d})"
        )
    raise ClassificationError(
        f"{vertex}: cut degree {degree} gives |det(u Aw)| = {abs(d)}, neither unimodular nor parallel"
    )


def classify_vertex(polygon: SemitoricPolygon, vertex: Point) -> VertexClassification:
    """Classify one vertex as Delzant, hidden Delzant, or fake.

    Raises ClassificationError when no class matches; on validated polygons
    exactly one always does.
    """
    found = polygon.facts.classes.get(vertex)
    if found is None:
        raise DomainError(f"{vertex} is not a vertex of the polygon")
    return _unwrap(found)


def is_smooth_vertex(polygon: SemitoricPolygon, vertex: Point) -> bool:
    """True when the two primitive tangents span the full integer lattice."""
    c = classify_vertex(polygon, vertex)
    smooth = abs(det2(c.left_primitive, c.right_primitive)) == 1
    # cross-check against the class-based characterisation: smooth vertices
    # are exactly the Delzant ones and the degree-1 fakes off every chain
    by_kind = c.kind is VertexKind.DELZANT or (
        c.kind is VertexKind.FAKE
        and c.degree == 1
        and c.left_primitive.a == 1
        and c.right_primitive.a == 1
    )
    if smooth != by_kind:
        raise ClassificationError(f"smoothness characterisations disagree at {vertex}")
    return smooth


def is_delzant_polygon(polygon: SemitoricPolygon) -> bool:
    """True when every vertex is smooth."""
    return all(is_smooth_vertex(polygon, v) for v in polygon.vertices)


def isotropy_weights(polygon: SemitoricPolygon, vertex: Point) -> tuple[int, int]:
    """Circle-action weights at the fixed point over an elliptic-elliptic vertex.

    These are the first components of the two outgoing primitive edge
    tangents.  Fake vertices carry no fixed point and vertices of vertical
    edges belong to a fixed surface; both are rejected.
    """
    c = classify_vertex(polygon, vertex)
    if c.kind is VertexKind.FAKE:
        raise DomainError(f"{vertex} is a fake vertex; no isolated fixed point lies over it")
    if vertex in vertical_edge_endpoints(polygon):
        raise DomainError(f"{vertex} lies on a vertical edge; its preimage is part of a fixed surface")
    first, second = outgoing_primitives(polygon, vertex)
    weights = sorted((first.a, second.a))
    return weights[0], weights[1]


def zk_chains(polygon: SemitoricPolygon) -> tuple[ZkChain, ...]:
    """Extract every maximal k >= 2 run on the top and bottom boundaries."""
    return polygon.facts.k_runs()


def extract_k_runs(bc: BoundaryChains, classes: Mapping[Point, object]) -> tuple[ZkChain, ...]:
    """The k-runs of both chains, given every vertex's class (or its error)."""
    chains: list[ZkChain] = []
    for side, path in (("bottom", bc.bottom), ("top", bc.top)):
        edges = list(zip(path, path[1:]))
        ks = [primitive_direction(b.x - a.x, b.y - a.y).a for a, b in edges]
        i = 0
        while i < len(edges):
            k = ks[i]
            if k < 2:
                i += 1
                continue
            j = i
            while j + 1 < len(edges):
                joint = _unwrap(classes[edges[j][1]])
                if joint.kind is not VertexKind.FAKE:
                    break
                if ks[j + 1] != k:
                    # a fake vertex forces equal first components on both sides
                    raise ClassificationError(
                        f"fake vertex {edges[j][1]} joins edges of first components {k} and {ks[j + 1]}"
                    )
                j += 1
            chain = ZkChain(
                k=k,
                side=side,  # type: ignore[arg-type]
                start_vertex=edges[i][0],
                end_vertex=edges[j][1],
                edges=tuple(edges[i : j + 1]),
            )
            for pole in (chain.start_vertex, chain.end_vertex):
                if _unwrap(classes[pole]).kind is VertexKind.FAKE:
                    raise ClassificationError(f"chain pole {pole} classifies as fake")
            chains.append(chain)
            i = j + 1
    return tuple(chains)
