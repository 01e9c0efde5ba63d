"""The load path as it was before the one boundary walk, kept verbatim as an oracle.

``Facts`` is the earlier ``PolygonFacts`` reduced to what loading reads: the
column map and the moment interval made in its constructor, the edge
directions from Fraction numerators and denominators, the structure check
rule by rule, the chain split, the vertical edges, the mark-column walk
along the chains of ``Point`` values with a bisection, the cut tally, the
vertex classes made one vertex at a time through ``classify_corner`` and
``_tangent_frame``, and the validation report.  ``canonical`` is the
constructor's rotation to the smallest vertex and its mark sort.  The
library now reads the coordinates' integers once, in one walk along the
edges; the differential tests check that both give the same facts.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import gcd
from operator import attrgetter
from typing import Optional, Sequence

from semitoric import ClassificationError, DomainError, GeometryError, LatticeVector, Point, SemitoricError
from semitoric.geometry import describe, det2
from semitoric.polygon import (
    BoundaryChains,
    MarkedPoint,
    ValidationReport,
    Violation,
    _mark_key,
    _Slice,
)
from semitoric.vertices import VertexClassification, lattice_class


def canonical(vertices, marks) -> tuple[tuple[Point, ...], tuple[MarkedPoint, ...]]:
    """The vertices rotated to start at the smallest one and the marks sorted, as the constructor did."""
    verts = tuple(vertices)
    if not verts:
        raise GeometryError("a polygon needs vertices")
    start = min(range(len(verts)), key=lambda i: (verts[i].x, verts[i].y))
    return verts[start:] + verts[:start], tuple(sorted(marks, key=_mark_key))


class Facts:
    """The facts of a polygon whose vertices and marks are already canonical."""

    def __init__(self, vertices: tuple[Point, ...], marks: tuple[MarkedPoint, ...]):
        self.vertices, self.marks = vertices, marks
        self.vertices_at: dict[Fraction, list[int]] = {}  # column -> its vertices' positions, in polygon order
        for i, v in enumerate(vertices):
            self.vertices_at.setdefault(v.x, []).append(i)
        self.j_min, self.j_max = vertices[0].x, max(self.vertices_at)  # the rotation starts bottom left
        self.marks_at = {x: tuple(group) for x, group in groupby(marks, key=lambda m: m.position.x)}

    @cached_property
    def edges(self) -> tuple[Optional[LatticeVector], ...]:
        """The primitive direction from vertex i to vertex i + 1, None where the two coincide."""
        verts = self.vertices
        return tuple(map(_direction, verts, verts[1:] + verts[:1]))

    @cached_property
    def structure(self) -> tuple[Violation, ...]:
        """Structural rule violations, empty when the polygon is well formed."""
        return tuple(_structure_violations(self))

    @cached_property
    def _positions(self) -> tuple[Sequence[int], Sequence[int]]:
        """The position in ``vertices`` of each point of the bottom and of the top chain, both left to right:
        the one split of the boundary.  The bottom runs rightward from vertex 0, the bottom left; a vertical
        edge climbs the right and descends the left, and the top runs against polygon order."""
        if self.structure:
            raise GeometryError(f"degenerate polygon: {self.structure[0].message}")
        edges = self.edges
        bottom_right = next(i for i, e in enumerate(edges) if e.a <= 0)
        top_right = bottom_right + (edges[bottom_right].a == 0)
        # the top runs back from the last vertex, after vertex 0 where no vertical edge descends the left
        top = range(len(edges) - 1, top_right - 1, -1)
        return range(bottom_right + 1), [0, *top] if edges[-1].a else top

    @cached_property
    def _verticals(self) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
        """The (bottom, top) positions of the left and of the right vertical edge, None where a side has none:
        a vertical edge joins the two chains' ends on its side, which then differ."""
        bottom, top = self._positions
        left, right = (bottom[0], top[0]), (bottom[-1], top[-1])
        return left if left[0] != left[1] else None, right if right[0] != right[1] else None

    @cached_property
    def chains(self) -> BoundaryChains:
        verts, (bottom, top) = self.vertices, self._positions
        left, right = (edge and (verts[edge[0]], verts[edge[1]]) for edge in self._verticals)
        return BoundaryChains(verts[: len(bottom)], tuple(map(verts.__getitem__, top)), left, right)

    def _walk(self, columns: Sequence[Fraction]) -> list[_Slice]:
        """(bottom y, top y, bottom vertex, top vertex, bottom index, top index) at each of these
        sorted columns of [j_min, j_max], from one walk along each chain (see :meth:`_along`)."""
        bottom, top = self._along(0, columns), self._along(1, columns)
        return [(by, ty, bv, tv, bk, tk) for (by, bv, bk), (ty, tv, tk) in zip(bottom, top)]

    def _along(self, side: int, columns: Sequence[Fraction]) -> list[tuple[Fraction, Optional[int], int]]:
        """The bottom (side 0) or top (side 1) chain's y at each column, its vertex's position there (None
        between vertices) and the index of its first point at or right of the column, from a bisection."""
        path, at = (self.chains.bottom, self.chains.top)[side], self._positions[side]
        out, k = [], bisect_left(path, columns[0], key=attrgetter("x")) if columns else 0
        for x in columns:
            while path[k].x < x:
                k += 1
            b = path[k]
            if b.x == x:
                out.append((b.y, at[k], k))
                continue
            # y = a.y + (x - a.x) * q / p, normalised once; the top runs against polygon order
            a, (p, q) = path[k - 1], self.edges[at[k - 1 + side]]
            (xn, xd), (an, ad), (yn, yd) = x.as_integer_ratio(), a.x.as_integer_ratio(), a.y.as_integer_ratio()
            scale = xd * ad * p
            out.append((Fraction(yn * scale + (xn * ad - an * xd) * q * yd, yd * scale), None, k))
        return out

    @cached_property
    def heights(self) -> dict[Fraction, _Slice]:
        """The :meth:`_walk` record at each mark column in [j_min, j_max]."""
        inside = [x for x in self.marks_at if self.j_min <= x <= self.j_max]  # the marks are sorted by x
        return dict(zip(inside, self._walk(inside)))

    def slice_at(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(y_bottom, y_top) at x: a lookup at a mark column, a bisection elsewhere."""
        found = self.heights.get(x)
        if found is not None:
            return found[:2]
        if not self.j_min <= x <= self.j_max:
            interval = f"[{describe(self.j_min)}, {describe(self.j_max)}]"
            raise DomainError(f"x = {describe(x)} is outside the moment interval {interval}")
        return self._walk([x])[0][:2]

    def cut_endpoint(self, mark: MarkedPoint) -> Point:
        """Boundary point where the mark's cut lands: top for +1, bottom for -1."""
        bottom_y, top_y = self.slice_at(mark.position.x)
        return Point(mark.position.x, top_y if mark.cut_sign > 0 else bottom_y)

    @cached_property
    def _degrees(self) -> tuple[tuple[int, int], ...]:
        """(total multiplicity, common sign) of the cuts ending at each vertex, (0, 0) where none does."""
        out = [(0, 0)] * len(self.vertices)
        for mark in self.marks:
            endpoint = self.cut_endpoint(mark)
            i = self.heights[endpoint.x][2 if mark.cut_sign < 0 else 3]
            if i is None:  # off the vertices a column's bottom and top differ: no cut of the other sign ends here
                continue
            degree, sign = out[i]
            if degree and sign != mark.cut_sign:
                raise ClassificationError(f"cuts of both signs end at {describe(endpoint)}")
            out[i] = (degree + mark.multiplicity, mark.cut_sign)
        return tuple(out)

    @cached_property
    def classes(self) -> tuple[object, ...]:
        """Each vertex's VertexClassification, or the SemitoricError classifying it raised.

        Errors are kept here so that validation can report every
        unclassifiable vertex; a reader raises a fresh copy of the error.
        """
        if not self.structure:
            # every tangent frame of a well-formed polygon is sound, so a failed
            # tally is each vertex's error: tally once, not once per vertex
            try:
                self._degrees
            except SemitoricError as exc:
                return (exc.with_traceback(None),) * len(self.vertices)
        classes = []
        for i in range(len(self.vertices)):
            try:
                classes.append(classify_corner(self, i))
            except SemitoricError as exc:
                classes.append(exc.with_traceback(None))
        return tuple(classes)

    @cached_property
    def report(self) -> ValidationReport:
        return _validation_report(self)


def _direction(a: Point, b: Point) -> Optional[LatticeVector]:
    """The primitive direction from a to b, in integers from numerators and denominators; None where a == b."""
    q, s, t, u = a.x.denominator, b.x.denominator, a.y.denominator, b.y.denominator
    dx, dy = (b.x.numerator * q - a.x.numerator * s) * t * u, (b.y.numerator * t - a.y.numerator * u) * q * s
    if not dx and not dy:
        return None
    g = gcd(dx, dy)
    return LatticeVector(dx // g, dy // g)


def _structure_violations(facts: PolygonFacts) -> list[Violation]:
    verts = facts.vertices
    if len(verts) < 3:
        return [Violation("too-few-vertices", "polygon", f"{len(verts)} vertices, need at least 3")]
    if any(len({verts[i].y for i in col}) < len(col) for col in facts.vertices_at.values() if len(col) > 1):
        return [Violation("duplicate-vertex", "polygon", "vertices are not pairwise distinct")]
    # each edge is a positive multiple of its primitive direction, so these are the turns' signs
    edges = facts.edges
    turns = [det2(edges[i - 1], edges[i]) for i in range(len(verts))]
    if all(t < 0 for t in turns):
        return [Violation("not-counter-clockwise", "polygon", "vertices are listed in clockwise order")]
    if all(t > 0 for t in turns):
        # left turns only: each full turn of the edge direction flips the sign of dx twice
        dxs = [e.a for e in edges if e.a]
        if sum((a > 0) != (b > 0) for a, b in zip(dxs, dxs[1:] + dxs[:1])) > 2:
            return [Violation("not-strictly-convex", "polygon", "the boundary winds around more than once")]
        return []
    out = []
    for i, t in enumerate(turns):
        if t == 0:
            out.append(Violation("not-strictly-convex", describe(verts[i]), "collinear consecutive edges"))
        elif t < 0:
            out.append(Violation("not-strictly-convex", describe(verts[i]), "reflex turn"))
    return out


def _validation_report(facts: PolygonFacts) -> ValidationReport:
    """The rule checks of :func:`validate`, run on one polygon's facts."""
    if facts.structure:
        return ValidationReport({}, facts.structure)

    violations = []
    j_min, j_max = facts.j_min, facts.j_max
    for idx, mark in enumerate(facts.marks):
        x, y = mark.position.x, mark.position.y
        # the polygon is strictly convex, so its interior is the union of open column slices
        bottom_y, top_y, *ends = facts.heights[x] if j_min < x < j_max else (y, y)
        if not bottom_y < y < top_y:
            rule, message = "mark-not-interior", "marked point is not strictly inside the polygon"
        elif ends[mark.cut_sign > 0] is None:  # no vertex where the cut ends
            endpoint = describe(facts.cut_endpoint(mark))
            rule, message = "cut-endpoint-not-vertex", f"cut endpoint {endpoint} is not a vertex of the polygon"
        else:
            continue
        violations.append(Violation(rule, f"marks[{idx}] at {describe(mark.position)}", message))
    if violations:
        return ValidationReport({}, tuple(violations))
    for vertex, result in zip(facts.vertices, facts.classes):
        if isinstance(result, SemitoricError):
            violations.append(Violation("unclassifiable-vertex", describe(vertex), str(result)))
    classifications = {v: c for v, c in zip(facts.vertices, facts.classes) if not isinstance(c, SemitoricError)}
    return ValidationReport(classifications, tuple(violations))  # the dict the library builds on first read


def _flip(v: LatticeVector) -> LatticeVector:
    return LatticeVector(-v.a, -v.b)


def _outgoing(facts: PolygonFacts, i: int) -> tuple[LatticeVector, LatticeVector]:
    to_prev, to_next = facts.edges[i - 1], facts.edges[i]
    if to_prev is None or to_next is None:
        raise GeometryError("zero vector has no direction")
    return _flip(to_prev), to_next


def _tangent_frame(facts: PolygonFacts, i: int) -> tuple[LatticeVector, LatticeVector]:
    """The classification frame (u, w) at vertex i.

    Interior vertex: u, w are the left/right edge tangents with positive
    first component.  Vertical edge endpoint: the vertical edge contributes
    its outgoing direction on its own side.  Single extreme vertex: u is the
    bottom-side tangent, w the top-side one (both normalised rightward).
    """
    d_prev, d_next = _outgoing(facts, i)
    if d_prev.a * d_next.a < 0:  # one edge leaves leftward and one rightward: a chain's inner vertex
        left, right = (d_prev, d_next) if d_prev.a < 0 else (d_next, d_prev)
        return _flip(left), right
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


def classify_corner(facts: PolygonFacts, i: int) -> VertexClassification:
    """The class of vertex i of the polygon these facts describe.

    Raises ClassificationError when no class matches, and the error of the
    cut degrees when they cannot be tallied.
    """
    vertex = facts.vertices[i]
    u, w = _tangent_frame(facts, i)
    return lattice_class(vertex, u, w, *facts._degrees[i])
