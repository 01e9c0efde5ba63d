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

:func:`classify_corners` and :func:`extract_k_runs` run once per polygon,
when its ``PolygonFacts`` first reads the kinds or the k-runs (``polygon``
imports them, and this module its types for annotations alone), and a vertex
that fits no class keeps its error there, read by position (``orbit_counts``
at a column's two boundary points alone), and the k-runs walk the
chains' vertex positions; :func:`zk_chains` alone builds their records.  A
vertex's whole class is read through :func:`_class_at` alone, by position,
by :func:`classify_vertex`, CLI ``classify`` and the validation report; the
class of a corner given its frame and cuts (:func:`lattice_class`) is read
there and by the column rule.  The cut endpoints and their tally
(:func:`cut_endpoint`, :func:`cut_degrees`) are computed on each call;
``cut_degrees`` reads the facts' tally by position
(``PolygonFacts._degrees``) first, so it raises that tally's errors.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Literal

from .errors import ClassificationError, DomainError, GeometryError, SemitoricError
from .geometry import LatticeVector, Point, _Record, describe, det2, format_rational, shear_vector

if TYPE_CHECKING:  # annotations only: polygon imports the rules here
    from .polygon import MarkedPoint, PolygonFacts, SemitoricPolygon


class VertexKind(Enum):
    DELZANT = "delzant"
    HIDDEN_DELZANT = "hidden-delzant"
    FAKE = "fake"


# The circle action near a focus-focus point is unique up to sign, so the
# fixed point over every marked point has these weights.  A constant, not a
# computation; it is why marked points never serve as poles of k-runs.
FOCUS_FOCUS_WEIGHTS: tuple[int, int] = (-1, 1)


class VertexClassification(_Record):
    """A vertex's class: its kind, the degree and sign of the cuts ending there, and its frame (u, w)."""

    vertex: Point
    kind: VertexKind
    degree: int
    sign: int | None
    left_primitive: LatticeVector
    right_primitive: LatticeVector

    def __init__(self, vertex, kind, degree, sign, left_primitive, right_primitive):
        vars(self).update(vertex=vertex, kind=kind, degree=degree, sign=sign, left_primitive=left_primitive,
                          right_primitive=right_primitive)

    def __str__(self) -> str:
        """The ``classify`` row; a number past the int-string limit raises GeometryError."""
        vertex, u, w = (
            f"({', '.join(map(format_rational, pair))})"
            for pair in ((self.vertex.x, self.vertex.y), self.left_primitive, self.right_primitive)
        )
        extra = "" if self.sign is None else f" degree={self.degree} sign={self.sign:+d}"
        return f"{vertex}: {self.kind.value}{extra} u={u} w={w}"


class ZkChain(_Record):
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

    def __init__(self, k, side, start_vertex, end_vertex, edges):
        vars(self).update(k=k, side=side, start_vertex=start_vertex, end_vertex=end_vertex, edges=edges)


def cut_endpoint(polygon: SemitoricPolygon, mark: MarkedPoint) -> Point:
    """Boundary point where the mark's cut lands: top for +1, bottom for -1."""
    x = mark.position.x
    return Point(x, polygon.facts.slice_at(x)[mark.cut_sign > 0])


def cut_degrees(polygon: SemitoricPolygon) -> dict[Point, tuple[int, int]]:
    """Aggregate cut endpoints: vertex -> (total multiplicity, common sign).

    Raises ClassificationError when cuts of both signs end at one vertex.
    No polygon that passes validation's mark rules has such a vertex: a
    strictly interior mark's column has distinct bottom and top points.
    """
    facts, out = polygon.facts, {}
    facts._degrees  # raises where the tally fails, so each mark's column is one of the heights
    for mark in polygon.marks:
        endpoint = Point(mark.position.x, facts.heights[mark.position.x][mark.cut_sign > 0])
        out[endpoint] = (out.get(endpoint, (0, 0))[0] + mark.multiplicity, mark.cut_sign)
    return out


def _flip(v: LatticeVector) -> LatticeVector:
    return LatticeVector(-v.a, -v.b)


def _outgoing(facts: PolygonFacts, i: int) -> tuple[LatticeVector, LatticeVector]:
    to_prev, to_next = facts.edges[i - 1], facts.edges[i]
    if to_prev is None or to_next is None:
        raise GeometryError("zero vector has no direction")
    return _flip(to_prev), to_next


def outgoing_primitives(polygon: SemitoricPolygon, vertex: Point) -> tuple[LatticeVector, LatticeVector]:
    """Primitive tangents of the two incident edges, directed away from the vertex."""
    return _outgoing(polygon.facts, polygon.facts.position(vertex))


def _tangent_frame(facts: PolygonFacts, i: int) -> tuple[LatticeVector, LatticeVector]:
    """The classification frame (u, w) at vertex i: the left and right edge tangents, rightward; at a vertical
    edge's end that edge's direction out of it on its own side; at a single extreme vertex, bottom side first."""
    to_prev, to_next = facts.edges[i - 1], facts.edges[i]
    if to_prev is not None and to_next is not None and to_prev.a * to_next.a > 0:
        # both edges run rightward (bottom) or both leftward (top, read against polygon order): a chain's inner vertex
        return (to_prev, to_next) if to_next.a > 0 else (_flip(to_next), _flip(to_prev))
    d_prev, d_next = _outgoing(facts, i)
    vertex = facts.vertices[i]
    left = [d for d in (d_prev, d_next) if d.a < 0]
    right = [d for d in (d_prev, d_next) if d.a > 0]
    vertical = [d for d in (d_prev, d_next) if d.a == 0]

    if len(vertical) == 2:
        raise ClassificationError(f"{describe(vertex)} lies between two vertical edges")
    if len(vertical) == 1:
        if vertex.x == facts.j_min and right:
            return vertical[0], right[0]
        if vertex.x == facts.j_max and left:
            return _flip(left[0]), vertical[0]
        raise ClassificationError(f"{describe(vertex)} touches a vertical edge at an interior column")
    if len(right) == 2:  # single leftmost vertex, both edges point rightward
        first, second = right
        if first.b * second.a > second.b * first.a:
            first, second = second, first
        return first, second  # bottom side first
    first, second = (_flip(d) for d in left)  # single rightmost vertex
    if first.b * second.a < second.b * first.a:
        first, second = second, first
    return first, second  # bottom side has the larger slope at the right tip


def classify_corners(facts: PolygonFacts) -> tuple[object, ...]:
    """Each vertex's kind, or the SemitoricError classifying it raised, in one pass with one tally of the cut
    degrees: a failed tally is the error of each vertex whose frame is sound.  On a strictly convex polygon every
    frame is sound and |det(u w)| is the walk's turn at the vertex, so a vertex where no cut ends is Delzant
    exactly when its turn is 1; only cut endpoints and the other vertices are classified by :func:`lattice_class`."""
    try:
        degrees = facts._degrees
    except SemitoricError as exc:
        degrees = exc.with_traceback(None)
    turns = facts._turns or [0] * len(facts.vertices)  # none kept off a strictly convex polygon: classify all
    kinds = []
    for i, (vertex, turn) in enumerate(zip(facts.vertices, turns)):
        degree = degrees if isinstance(degrees, SemitoricError) else degrees[i]
        if turn == 1 and degree == (0, 0):
            kinds.append(VertexKind.DELZANT)
            continue
        try:
            u, w = _tangent_frame(facts, i)
            kinds.append(degree if isinstance(degree, SemitoricError) else lattice_class(vertex, u, w, *degree).kind)
        except SemitoricError as exc:
            kinds.append(exc.with_traceback(None))
    return tuple(kinds)


def lattice_class(vertex: Point, u: LatticeVector, w: LatticeVector, degree: int, sign: int) -> VertexClassification:
    """The class of a corner with frame (u, w) where cuts of total multiplicity ``degree`` and sign ``sign`` end.

    Raises ClassificationError when no class matches.
    """
    if degree == 0:
        if abs(det2(u, w)) == 1:
            return VertexClassification(vertex, VertexKind.DELZANT, 0, None, u, w)
        raise ClassificationError(
            f"{describe(vertex)}: no cuts end here and |det(u w)| = {describe(abs(det2(u, w)))}, not 1"
        )
    d = det2(u, shear_vector(w, sign * degree))
    if d == 0:
        return VertexClassification(vertex, VertexKind.FAKE, degree, sign, u, w)
    if d == -sign:
        return VertexClassification(vertex, VertexKind.HIDDEN_DELZANT, degree, sign, u, w)
    if abs(d) == 1:
        raise ClassificationError(
            f"{describe(vertex)}: masked corner has the wrong orientation (det {d} with cut sign {sign:+d})"
        )
    raise ClassificationError(
        f"{describe(vertex)}: cut degree {degree} gives |det(u Aw)| = {describe(abs(d))}, neither unimodular nor parallel"
    )


def classify_vertex(polygon: SemitoricPolygon, vertex: Point) -> VertexClassification:
    """Classify one vertex as Delzant, hidden Delzant, or fake.

    Raises ClassificationError when no class matches; on validated polygons
    exactly one always does.
    """
    return _class_of(_class_at(polygon.facts, polygon.facts.position(vertex)))  # this vertex's class alone


def _class_at(facts: PolygonFacts, i: int):
    """Vertex i's VertexClassification, or the error of its kind: the one class path, read by position."""
    if isinstance(kind := facts._kinds[i], SemitoricError):
        return kind
    return lattice_class(facts.vertices[i], *_tangent_frame(facts, i), *facts._degrees[i])


def _class_of(found):
    """A stored class or kind, or a fresh copy of a stored error, raised."""
    if isinstance(found, SemitoricError):
        raise type(found)(*found.args)
    return found


def is_smooth_vertex(polygon: SemitoricPolygon, vertex: Point) -> bool:
    """True when the two primitive tangents span the full integer lattice."""
    return is_smooth_class(classify_vertex(polygon, vertex))


def is_smooth_class(c: VertexClassification) -> bool:
    """True when the class's two primitive tangents span the full integer lattice."""
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
        raise ClassificationError(f"smoothness characterisations disagree at {describe(c.vertex)}")
    return smooth


def is_delzant_polygon(polygon: SemitoricPolygon) -> bool:
    """True when every vertex is smooth; only the vertices whose recorded kind is not Delzant are classified."""
    facts = polygon.facts
    at = range(len(facts.vertices)) if facts._turns else map(facts._first.__getitem__, facts._ratios)
    return all(facts._kinds[i] is VertexKind.DELZANT or is_smooth_class(_class_of(_class_at(facts, i))) for i in at)


def isotropy_weights(polygon: SemitoricPolygon, vertex: Point) -> tuple[int, int]:
    """Circle-action weights at the fixed point over an elliptic-elliptic vertex.

    These are the first components of the two outgoing primitive edge
    tangents.  Fake vertices carry no fixed point and vertices of vertical
    edges belong to a fixed surface; both are rejected.
    """
    facts = polygon.facts
    i = facts.position(vertex)
    if _class_of(facts._kinds[i]) is VertexKind.FAKE:
        raise DomainError(f"{describe(vertex)} is a fake vertex; no isolated fixed point lies over it")
    if any(edge and i in edge for edge in facts._verticals):
        raise DomainError(f"{describe(vertex)} lies on a vertical edge; its preimage is part of a fixed surface")
    first, second = _outgoing(facts, i)
    weights = sorted((first.a, second.a))
    return weights[0], weights[1]


def zk_chains(polygon: SemitoricPolygon) -> tuple[ZkChain, ...]:
    """Extract every maximal k >= 2 run on the top and bottom boundaries."""
    verts, out = polygon.vertices, []
    for k, side, start, end in polygon.facts._poles:  # the bottom runs in polygon order, the top against it
        step = 1 if side == "bottom" else -1
        path = [verts[(start + step * t) % len(verts)] for t in range(step * (end - start) % len(verts) + 1)]
        out.append(ZkChain(k, side, path[0], path[-1], tuple(zip(path, path[1:]))))  # type: ignore[arg-type]
    return tuple(out)


def extract_k_runs(facts: PolygonFacts) -> tuple[tuple[int, str, int, int], ...]:
    """The k-runs of both chains of the polygon these facts describe, as (k, side, start and end vertex position),
    read off the chains' vertex positions; :func:`zk_chains` alone builds their records."""
    verts, kinds = facts.vertices, facts._kinds
    chains: list[tuple[int, str, int, int]] = []
    for side, at in zip(("bottom", "top"), facts._positions):
        # the bottom runs in polygon order, so edge k leaves point k; the top runs against it
        ks = [abs(facts.edges[at[k + (side == "top")]].a) for k in range(len(at) - 1)]
        i = 0
        while i < len(ks):
            k = ks[i]
            if k < 2:
                i += 1
                continue
            j = i
            # a fake vertex joins edges of equal first components: det(u Aw) = 0 makes u.a and w.a divide each other
            while j + 1 < len(ks) and _class_of(kinds[at[j + 1]]) is VertexKind.FAKE:
                j += 1
            for end in (at[i], at[j + 1]):
                if _class_of(kinds[end]) is VertexKind.FAKE:
                    raise ClassificationError(f"chain pole {describe(verts[end])} classifies as fake")
            chains.append((k, side, at[i], at[j + 1]))
            i = j + 1
    return tuple(chains)
