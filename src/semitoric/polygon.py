"""The central data model: a convex rational polygon with marked interior points.

A marked point records a cluster of focus-focus values of an integrable
system: its position, its multiplicity, and the sign of the vertical cut used
to straighten the moment image at its column (+1 cuts upward, -1 downward).
The endpoint of a cut is the boundary point directly above (+1) or below (-1)
the mark; validation requires every endpoint to be a polygon vertex, which is
where the fake and hidden-Delzant vertex classes live.

Everything the library reads about a polygon is one :class:`PolygonFacts`
value, kept on the polygon instance outside equality, hashing, repr and
pickling, so it lives exactly as long as the polygon.  Each of its facts
(the primitive direction of each edge, the boundary chains and vertical
edges, the slice heights at every column, the boundary points and tangents
on each mark column, the cut degrees, each vertex's class, the k-runs, the
validation report) is computed on first read and kept.  A fact whose
computation fails is not kept: every read raises again, with the same type
and message.  Only the vertex classes hold errors, one per unclassifiable
vertex, so validation can report them all.  A reader computes only what it
reads: a degenerate polygon is rejected without a vertex being classified.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import (
    ClassificationError,
    DomainError,
    GeometryError,
    SemitoricError,
    ValidationFailure,
)
from .geometry import LatticeVector, Point, _exact, cross, describe, det2, primitive_direction


@dataclass(frozen=True)
class MarkedPoint:
    """An interior marked point with its multiplicity and cut direction."""

    position: Point
    multiplicity: int = 1
    cut_sign: int = -1

    def __post_init__(self):
        if not _is_int(self.multiplicity) or self.multiplicity < 1:
            raise GeometryError(f"multiplicity must be a positive integer, got {self.multiplicity!r}")
        if not _is_int(self.cut_sign) or self.cut_sign not in (-1, 1):
            raise GeometryError(f"cut sign must be +1 or -1, got {self.cut_sign!r}")


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false would serialize back as booleans
    return isinstance(value, int) and not isinstance(value, bool)


def _mark_key(mark: MarkedPoint):
    return (mark.position.x, mark.position.y, mark.multiplicity, mark.cut_sign)


@dataclass(frozen=True)
class SemitoricPolygon:
    """Counter-clockwise convex polygon plus marked points.

    The vertex tuple is rotated so it starts at the lexicographically
    smallest vertex and marks are kept sorted, so equal polygons compare and
    serialize identically.  Construction normalises but does not validate;
    run :func:`validate` (or :func:`require_valid`) for the full rule set.
    """

    vertices: tuple[Point, ...]
    marks: tuple[MarkedPoint, ...] = ()

    def __post_init__(self):
        verts = tuple(self.vertices)
        if not verts:
            raise GeometryError("a polygon needs vertices")
        start = min(range(len(verts)), key=lambda i: verts[i])
        object.__setattr__(self, "vertices", verts[start:] + verts[:start])
        object.__setattr__(self, "marks", tuple(sorted(self.marks, key=_mark_key)))

    @property
    def facts(self) -> PolygonFacts:
        """This polygon's facts, made on first use and kept on the instance."""
        facts = self.__dict__.get("_facts")
        if facts is None:
            facts = PolygonFacts(self.vertices, self.marks)
            object.__setattr__(self, "_facts", facts)
        return facts

    def __getstate__(self):
        # copies and pickles recompute the facts on first use instead of carrying them
        return {name: value for name, value in self.__dict__.items() if name != "_facts"}

    @property
    def j_min(self) -> Fraction:
        return self.facts.j_min

    @property
    def j_max(self) -> Fraction:
        return self.facts.j_max

    @property
    def total_multiplicity(self) -> int:
        """Total number of focus-focus points carried by the marks."""
        return sum(m.multiplicity for m in self.marks)

    def __str__(self) -> str:
        verts = " ".join(str(v) for v in self.vertices)
        return f"SemitoricPolygon[{verts}; {len(self.marks)} marks]"


@dataclass(frozen=True)
class Violation:
    rule: str
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: per-vertex classes plus rule violations.

    The report is kept on the polygon's facts and shared by every later
    check, so its classifications are a read-only view.
    """

    classifications: Mapping[Point, object]
    violations: tuple[Violation, ...]

    def __post_init__(self):
        object.__setattr__(self, "classifications", MappingProxyType(dict(self.classifications)))

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BoundaryChains:
    """Bottom and top boundary paths, both running left to right."""

    bottom: tuple[Point, ...]
    top: tuple[Point, ...]
    left_vertical: Optional[tuple[Point, Point]]
    right_vertical: Optional[tuple[Point, Point]]


class PolygonFacts:
    """What the library reads about one polygon, each fact computed on first read.

    A fact whose computation raises is not kept, so every read raises again.
    Only :attr:`classes` holds errors, one per unclassifiable vertex.
    """

    def __init__(self, vertices: tuple[Point, ...], marks: tuple[MarkedPoint, ...]):
        self.vertices, self.marks = vertices, marks
        self.j_min, self.j_max = min(v.x for v in vertices), max(v.x for v in vertices)
        self.index: dict[Point, int] = {}  # vertex -> its first position in vertices
        self.vertices_at: dict[Fraction, tuple[Point, ...]] = {}  # column -> its vertices, in polygon order
        for i, v in enumerate(vertices):
            self.index.setdefault(v, i)
            self.vertices_at[v.x] = self.vertices_at.get(v.x, ()) + (v,)
        self.columns = tuple(sorted({v.x for v in vertices} | {m.position.x for m in marks}))  # every vertex and mark x
        self.marks_at = {x: tuple(group) for x, group in groupby(marks, key=lambda m: m.position.x)}

    @cached_property
    def edges(self) -> tuple[Optional[LatticeVector], ...]:
        """The primitive direction from vertex i to vertex i + 1, None where the two coincide."""
        verts = self.vertices
        return tuple(
            primitive_direction(b.x - a.x, b.y - a.y) if a != b else None for a, b in zip(verts, verts[1:] + verts[:1])
        )

    @cached_property
    def structure(self) -> tuple[Violation, ...]:
        """Structural rule violations, empty when the polygon is well formed."""
        return tuple(_structure_violations(self))

    @cached_property
    def chains(self) -> BoundaryChains:
        if self.structure:
            raise GeometryError(f"degenerate polygon: {self.structure[0].message}")
        return _split_boundary(self.vertices, self.j_min, self.j_max)

    @cached_property
    def on_vertical(self) -> frozenset[Point]:
        """The endpoints of the vertical edges."""
        return frozenset(p for edge in (self.chains.left_vertical, self.chains.right_vertical) if edge for p in edge)

    @cached_property
    def heights(self) -> dict[Fraction, tuple[Fraction, Fraction]]:
        """(bottom, top) at each column in [j_min, j_max], from one walk along each chain."""
        chains = self.chains
        inside = [x for x in self.columns if self.j_min <= x <= self.j_max]
        return dict(zip(inside, zip(_heights_along(chains.bottom, inside), _heights_along(chains.top, inside))))

    @cached_property
    def mark_column(self) -> tuple[int, ...]:
        """Each mark's column: its index in ``marks_at``, whose columns run left to right."""
        return tuple(k for k, group in enumerate(self.marks_at.values()) for _ in group)

    @cached_property
    def mark_paths(self) -> tuple[tuple[tuple[Point, bool, int, bool], ...], ...]:
        """The bottom and the top chain, left to right, with the boundary point on
        each mark column put in.  Each point comes with whether it is a vertex,
        its rank (the number of mark columns left of it) and whether it is on
        the mark column of that index."""
        xs = tuple(self.marks_at)
        paths = []
        for side, chain in enumerate((self.chains.bottom, self.chains.top)):
            added = {Point(x, self.heights[x][side]) for x in self.marks_at}.difference(chain)
            path, rank = [], 0
            for p, vertex in sorted([(p, True) for p in chain] + [(p, False) for p in added]):
                while rank < len(xs) and xs[rank] < p.x:
                    rank += 1
                path.append((p, vertex, rank, rank < len(xs) and xs[rank] == p.x))
            paths.append(tuple(path))
        return tuple(paths)

    @cached_property
    def sides(self) -> dict[Fraction, tuple[tuple[Point, LatticeVector, LatticeVector], ...]]:
        """Mark column -> its bottom and then its top boundary point, each with
        the rightward primitive tangents of the boundary left and right of it."""
        paths = (self.chains.bottom, self.chains.top)
        return {x: tuple(_side(path, x, y) for path, y in zip(paths, self.heights[x])) for x in self.marks_at}

    def slice_at(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(y_bottom, y_top) at x: a lookup at a column, a bisection elsewhere."""
        found = self.heights.get(x)
        if found is not None:
            return found
        if not self.j_min <= x <= self.j_max:
            interval = f"[{describe(self.j_min)}, {describe(self.j_max)}]"
            raise DomainError(f"x = {describe(x)} is outside the moment interval {interval}")
        return _height_at(self.chains.bottom, x), _height_at(self.chains.top, x)

    def cut_endpoint(self, mark: MarkedPoint) -> Point:
        """Boundary point where the mark's cut lands: top for +1, bottom for -1."""
        bottom_y, top_y = self.slice_at(mark.position.x)
        return Point(mark.position.x, top_y if mark.cut_sign > 0 else bottom_y)

    @cached_property
    def cut_degrees(self) -> dict[Point, tuple[int, int]]:
        """Cut endpoint -> (total multiplicity, common sign)."""
        out: dict[Point, tuple[int, int]] = {}
        for mark in self.marks:
            endpoint = self.cut_endpoint(mark)
            degree, sign = out.get(endpoint, (0, mark.cut_sign))
            if sign != mark.cut_sign:
                raise ClassificationError(f"cuts of both signs end at {describe(endpoint)}")
            out[endpoint] = (degree + mark.multiplicity, sign)
        return out

    @cached_property
    def classes(self) -> dict[Point, object]:
        """Vertex -> its VertexClassification, or the SemitoricError classifying it raised.

        Errors are kept here so that validation can report every
        unclassifiable vertex; a reader raises a fresh copy of the error.
        """
        from .vertices import classify_corner  # deferred: the lattice rules live there

        if not self.structure:
            # every tangent frame of a well-formed polygon is sound, so a failed
            # tally is each vertex's error: tally once, not once per vertex
            try:
                self.cut_degrees
            except SemitoricError as exc:
                return dict.fromkeys(self.index, exc.with_traceback(None))
        classes: dict[Point, object] = {}
        for v, i in self.index.items():
            try:
                classes[v] = classify_corner(self, i)
            except SemitoricError as exc:
                classes[v] = exc.with_traceback(None)
        return classes

    @cached_property
    def report(self) -> ValidationReport:
        """The outcome of :func:`validate`, kept so that each polygon is checked once."""
        return _validation_report(self)

    def multiplicity_at(self, x: Fraction) -> int:
        return sum(m.multiplicity for m in self.marks_at.get(x, ()))

    @cached_property
    def k_runs(self) -> tuple:
        """The ZkChain runs of both chains."""
        from .vertices import extract_k_runs  # deferred: the lattice rules live there

        return extract_k_runs(self)

    @cached_property
    def _run_xs(self) -> tuple[list[Fraction], list[Fraction]]:
        """The sorted start x and the sorted end x of the k-runs."""
        return sorted(r.start_vertex.x for r in self.k_runs), sorted(r.end_vertex.x for r in self.k_runs)

    def runs_over(self, x: Fraction) -> int:
        """Number of k-runs whose open x-span contains x."""
        starts, ends = self._run_xs
        return bisect_left(starts, x) - bisect_right(ends, x)  # a run ending left of x starts left of it


def _height_at(path: Sequence[Point], x: Fraction) -> Fraction:
    i = bisect_left(path, x, key=attrgetter("x"))  # off the columns: path[i - 1].x < x < path[i].x
    a, b = path[i - 1], path[i]
    return a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x)


def _side(path: Sequence[Point], x: Fraction, y: Fraction) -> tuple[Point, LatticeVector, LatticeVector]:
    i = bisect_left(path, x, key=attrgetter("x"))  # x is interior: path[i - 1].x < x <= path[i].x
    left, right = path[i - 1], path[i + 1] if path[i].x == x else path[i]
    return Point(x, y), primitive_direction(x - left.x, y - left.y), primitive_direction(right.x - x, right.y - y)


def _heights_along(path: Sequence[Point], columns: Sequence[Fraction]) -> list[Fraction]:
    """The path's y at each column, walking path and columns together left to right."""
    ys = []
    i = 0
    for x in columns:
        while path[i + 1].x < x:
            i += 1
        a, b = path[i], path[i + 1]
        ys.append(b.y if b.x == x else a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x))
    return ys


def _structure_violations(facts: PolygonFacts) -> list[Violation]:
    verts = facts.vertices
    if len(verts) < 3:
        return [Violation("too-few-vertices", "polygon", f"{len(verts)} vertices, need at least 3")]
    if len(facts.index) != len(verts):
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


def _split_boundary(verts: tuple[Point, ...], j_min: Fraction, j_max: Fraction) -> BoundaryChains:
    # canonical rotation puts the bottom-left vertex at index 0
    right_idx = [i for i, v in enumerate(verts) if v.x == j_max]
    bottom_right = min(right_idx, key=lambda i: verts[i].y)
    top_right = max(right_idx, key=lambda i: verts[i].y)
    left_idx = [i for i, v in enumerate(verts) if v.x == j_min]
    top_left = max(left_idx, key=lambda i: verts[i].y)

    bottom = verts[: bottom_right + 1]
    if top_left == 0:
        top_ccw = verts[top_right:] + (verts[0],)
    else:
        top_ccw = verts[top_right : top_left + 1]
    top = tuple(reversed(top_ccw))
    left_vertical = (verts[0], verts[top_left]) if len(left_idx) == 2 else None
    right_vertical = (verts[bottom_right], verts[top_right]) if len(right_idx) == 2 else None
    return BoundaryChains(bottom=bottom, top=top, left_vertical=left_vertical, right_vertical=right_vertical)


def boundary_chains(polygon: SemitoricPolygon) -> BoundaryChains:
    """Split the boundary into bottom/top paths and the extreme vertical edges.

    Raises GeometryError when the polygon is degenerate (not strictly convex
    counter-clockwise).
    """
    return polygon.facts.chains


def vertical_edge_endpoints(polygon: SemitoricPolygon) -> frozenset[Point]:
    """Vertices incident to a vertical edge (images of fixed surfaces)."""
    return polygon.facts.on_vertical


def slice_heights(polygon: SemitoricPolygon, x: Fraction) -> tuple[Fraction, Fraction]:
    """The vertical slice of the polygon at ``x`` as (y_bottom, y_top)."""
    return polygon.facts.slice_at(_exact(x))


def contains_interior(polygon: SemitoricPolygon, point: Point) -> bool:
    """Strict interior membership test (exact)."""
    verts = polygon.vertices
    n = len(verts)
    return all(cross(verts[i], verts[(i + 1) % n], point) > 0 for i in range(n))


def validate(polygon: SemitoricPolygon) -> ValidationReport:
    """Check every structural rule and classify every vertex.

    Never raises on bad data: failures are collected in the report.  The
    rule set, in order:

    * at least three pairwise-distinct vertices, strictly convex, CCW;
    * marks strictly interior;
    * each mark's cut endpoint (top boundary point at the mark's column for
      cut +1, bottom for -1) is a vertex;
    * cuts ending at one vertex share a sign;
    * every vertex classifies as exactly one of Delzant / hidden Delzant /
      fake;
    * vertices on the extreme columns J_min, J_max classify as Delzant
      (which also forces the edge next to a vertical edge to have primitive
      first component 1).

    The report is kept on the polygon's facts, so a polygon is checked once
    however often it is validated.
    """
    return polygon.facts.report


def _validation_report(facts: PolygonFacts) -> ValidationReport:
    """The rule checks of :func:`validate`, run on one polygon's facts."""
    from .vertices import VertexKind  # deferred: the lattice rules live there

    if facts.structure:
        return ValidationReport({}, facts.structure)

    violations = []
    j_min, j_max = facts.j_min, facts.j_max
    for idx, mark in enumerate(facts.marks):
        where = f"marks[{idx}] at {describe(mark.position)}"
        x, y = mark.position.x, mark.position.y
        # the polygon is strictly convex, so its interior is the union of open column slices
        bottom_y, top_y = facts.heights[x] if j_min < x < j_max else (y, y)
        if not bottom_y < y < top_y:
            violations.append(Violation("mark-not-interior", where, "marked point is not strictly inside the polygon"))
            continue
        endpoint = facts.cut_endpoint(mark)
        if endpoint not in facts.index:
            message = f"cut endpoint {describe(endpoint)} is not a vertex of the polygon"
            violations.append(Violation("cut-endpoint-not-vertex", where, message))
    if violations:
        return ValidationReport({}, tuple(violations))
    try:
        facts.cut_degrees  # raises when cuts of both signs end at one vertex
    except ClassificationError as exc:
        return ValidationReport({}, (Violation("conflicting-cut-signs", "marks", str(exc)),))

    classifications: dict[Point, object] = {}
    for vertex in facts.vertices:
        result = facts.classes[vertex]
        if isinstance(result, SemitoricError):
            violations.append(Violation("unclassifiable-vertex", describe(vertex), str(result)))
            continue
        classifications[vertex] = result
        if vertex.x in (j_min, j_max) and result.kind is not VertexKind.DELZANT:
            violations.append(
                Violation("extreme-not-delzant", describe(vertex), f"extreme vertex classifies as {result.kind.value}")
            )
    return ValidationReport(classifications, tuple(violations))


def require_valid(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """Return the polygon unchanged, raising ValidationFailure when invalid."""
    report = validate(polygon)
    if not report.valid:
        raise ValidationFailure(report)
    return polygon
