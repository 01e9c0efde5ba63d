"""The central data model: a convex rational polygon with marked interior points.

A marked point records a cluster of focus-focus values of an integrable
system: its position, its multiplicity, and the sign of the vertical cut used
to straighten the moment image at its column (+1 cuts upward, -1 downward).
The endpoint of a cut is the boundary point directly above (+1) or below (-1)
the mark; validation requires every endpoint to be a polygon vertex, which is
where the fake and hidden-Delzant vertex classes live.

Everything the library reads about a polygon is one immutable
:class:`PolygonFacts` value: the boundary chains and vertical edges, the
slice heights at every column, the cut degrees, each vertex's class and the
k-runs.  It is computed on first use by a single left-to-right sweep (the
k-runs on first request) and kept on the polygon instance, outside equality,
hashing, repr and pickling, so it lives exactly as long as the polygon.  Two threads racing on first use can only
compute equal values twice.  A fact whose computation fails stores the error,
and every reader raises a fresh copy of it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    ClassificationError,
    DomainError,
    GeometryError,
    SemitoricError,
    ValidationFailure,
)
from .geometry import Point, cross


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
        """This polygon's facts, swept on first use and kept on the instance."""
        facts = self.__dict__.get("_facts")
        if facts is None:
            facts = _sweep(self)
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
    """Outcome of :func:`validate`: per-vertex classes plus rule violations."""

    classifications: Mapping[Point, object]
    violations: tuple[Violation, ...]

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


def _unwrap(fact):
    """A stored fact, or a fresh copy of the error stored in its place, raised."""
    if isinstance(fact, SemitoricError):
        raise type(fact)(*fact.args)
    return fact


@dataclass(frozen=True, eq=False)
class PolygonFacts:
    """What the library reads about one polygon, from one left-to-right sweep.

    Entries that may hold a SemitoricError hold the error their computation
    raised; the public readers raise a fresh copy of it.
    """

    structure: tuple[Violation, ...]  # structural rule violations, empty when well formed
    j_min: Fraction
    j_max: Fraction
    chains: Union[BoundaryChains, SemitoricError]
    on_vertical: frozenset[Point]  # endpoints of the vertical edges
    index: Mapping[Point, int]  # vertex -> its first position in polygon.vertices
    columns: tuple[Fraction, ...]  # sorted x of every vertex and every mark
    heights: Mapping[Fraction, tuple[Fraction, Fraction]]  # (bottom, top) at each column in [j_min, j_max]
    vertices_at: Mapping[Fraction, tuple[Point, ...]]  # column -> its vertices, in polygon order
    marks_at: Mapping[Fraction, tuple[MarkedPoint, ...]]
    cut_degrees: Union[Mapping[Point, tuple[int, int]], SemitoricError]  # endpoint -> (degree, sign)
    classes: Mapping[Point, object]  # vertex -> VertexClassification or SemitoricError

    def slice_at(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(y_bottom, y_top) at x: a lookup at a column, a bisection elsewhere."""
        chains = _unwrap(self.chains)
        found = self.heights.get(x)
        if found is not None:
            return found
        if not self.j_min <= x <= self.j_max:
            raise DomainError(f"x = {x} is outside the moment interval [{self.j_min}, {self.j_max}]")
        return _height_at(chains.bottom, x), _height_at(chains.top, x)

    def multiplicity_at(self, x: Fraction) -> int:
        return sum(m.multiplicity for m in self.marks_at.get(x, ()))

    def k_runs(self) -> tuple:
        """The ZkChain runs of both chains, extracted on first use."""
        return self._runs()[0]

    def runs_over(self, x: Fraction) -> int:
        """Number of k-runs whose open x-span contains x."""
        _, starts, ends = self._runs()
        return bisect_left(starts, x) - bisect_right(ends, x)  # a run ending left of x starts left of it

    def _runs(self):
        found = self.__dict__.get("_k_runs")
        if found is None:
            from .vertices import extract_k_runs  # deferred: the lattice rules live there

            try:
                runs = extract_k_runs(_unwrap(self.chains), self.classes)
                found = runs, tuple(sorted(r.start_vertex.x for r in runs)), tuple(sorted(r.end_vertex.x for r in runs))
            except SemitoricError as exc:
                found = exc.with_traceback(None)
            object.__setattr__(self, "_k_runs", found)
        return _unwrap(found)


def _height_at(path: Sequence[Point], x: Fraction) -> Fraction:
    i = bisect_left(path, x, key=attrgetter("x"))  # off the columns: path[i - 1].x < x < path[i].x
    a, b = path[i - 1], path[i]
    return a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x)


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


def _structure_violations(polygon: SemitoricPolygon) -> list[Violation]:
    verts = polygon.vertices
    if len(verts) < 3:
        return [Violation("too-few-vertices", "polygon", f"{len(verts)} vertices, need at least 3")]
    if len(set(verts)) != len(verts):
        return [Violation("duplicate-vertex", "polygon", "vertices are not pairwise distinct")]
    n = len(verts)
    turns = [cross(verts[i - 1], verts[i], verts[(i + 1) % n]) for i in range(n)]
    if all(t < 0 for t in turns):
        return [Violation("not-counter-clockwise", "polygon", "vertices are listed in clockwise order")]
    if all(t > 0 for t in turns):
        # left turns only: each full turn of the edge direction flips the sign of dx twice
        dxs = [d for d in (verts[(i + 1) % n].x - verts[i].x for i in range(n)) if d]
        if sum((a > 0) != (b > 0) for a, b in zip(dxs, dxs[1:] + dxs[:1])) > 2:
            return [Violation("not-strictly-convex", "polygon", "the boundary winds around more than once")]
        return []
    out = []
    for i, t in enumerate(turns):
        if t == 0:
            out.append(Violation("not-strictly-convex", str(verts[i]), "collinear consecutive edges"))
        elif t < 0:
            out.append(Violation("not-strictly-convex", str(verts[i]), "reflex turn"))
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


def _tally_cuts(marks, heights, chains, j_min, j_max):
    """Cut endpoint -> (total multiplicity, common sign), or the first error."""
    if marks and isinstance(chains, SemitoricError):
        return chains
    out: dict[Point, tuple[int, int]] = {}
    for mark in marks:
        x = mark.position.x
        if x not in heights:
            return DomainError(f"x = {x} is outside the moment interval [{j_min}, {j_max}]")
        endpoint = Point(x, heights[x][1] if mark.cut_sign > 0 else heights[x][0])
        degree, sign = out.get(endpoint, (0, mark.cut_sign))
        if sign != mark.cut_sign:
            return ClassificationError(f"cuts of both signs end at {endpoint}")
        out[endpoint] = (degree + mark.multiplicity, sign)
    return out


def _sweep(polygon: SemitoricPolygon) -> PolygonFacts:
    """The facts of a polygon: both chains walked once over the sorted columns, then each vertex classified."""
    from .vertices import classify_corner  # deferred: the lattice rules live there

    verts, marks = polygon.vertices, polygon.marks
    j_min, j_max = min(v.x for v in verts), max(v.x for v in verts)
    structure = tuple(_structure_violations(polygon))
    columns = tuple(sorted({v.x for v in verts} | {m.position.x for m in marks}))
    heights: dict[Fraction, tuple[Fraction, Fraction]] = {}
    on_vertical: frozenset[Point] = frozenset()
    if structure:
        chains: Union[BoundaryChains, SemitoricError] = GeometryError(f"degenerate polygon: {structure[0].message}")
    else:
        chains = _split_boundary(verts, j_min, j_max)
        inside = [x for x in columns if j_min <= x <= j_max]
        heights = dict(zip(inside, zip(_heights_along(chains.bottom, inside), _heights_along(chains.top, inside))))
        on_vertical = frozenset(p for edge in (chains.left_vertical, chains.right_vertical) if edge for p in edge)
    index: dict[Point, int] = {}
    vertices_at: dict[Fraction, tuple[Point, ...]] = {}
    for i, v in enumerate(verts):
        index.setdefault(v, i)
        vertices_at[v.x] = vertices_at.get(v.x, ()) + (v,)
    cut_degrees = _tally_cuts(marks, heights, chains, j_min, j_max)
    classes: dict[Point, object] = {}
    for v, i in index.items():
        try:
            classes[v] = classify_corner(verts, i, j_min, j_max, cut_degrees)
        except SemitoricError as exc:
            classes[v] = exc.with_traceback(None)
    frozen = MappingProxyType
    return PolygonFacts(
        structure=structure,
        j_min=j_min,
        j_max=j_max,
        chains=chains,
        on_vertical=on_vertical,
        index=frozen(index),
        columns=columns,
        heights=frozen(heights),
        vertices_at=frozen(vertices_at),
        marks_at=frozen({x: tuple(group) for x, group in groupby(marks, key=lambda m: m.position.x)}),
        cut_degrees=cut_degrees if isinstance(cut_degrees, SemitoricError) else frozen(cut_degrees),
        classes=frozen(classes),
    )


def boundary_chains(polygon: SemitoricPolygon) -> BoundaryChains:
    """Split the boundary into bottom/top paths and the extreme vertical edges.

    Raises GeometryError when the polygon is degenerate (not strictly convex
    counter-clockwise).
    """
    return _unwrap(polygon.facts.chains)


def vertical_edge_endpoints(polygon: SemitoricPolygon) -> frozenset[Point]:
    """Vertices incident to a vertical edge (images of fixed surfaces)."""
    facts = polygon.facts
    _unwrap(facts.chains)
    return facts.on_vertical


def slice_heights(polygon: SemitoricPolygon, x: Fraction) -> tuple[Fraction, Fraction]:
    """The vertical slice of the polygon at ``x`` as (y_bottom, y_top)."""
    return polygon.facts.slice_at(Fraction(x))


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
    """
    from .vertices import VertexKind  # deferred: the lattice rules live there

    facts = polygon.facts
    if facts.structure:
        return ValidationReport({}, facts.structure)

    violations = []
    j_min, j_max = facts.j_min, facts.j_max
    for idx, mark in enumerate(polygon.marks):
        where = f"marks[{idx}] at {mark.position}"
        x, y = mark.position.x, mark.position.y
        # the polygon is strictly convex, so its interior is the union of open column slices
        bottom_y, top_y = facts.heights[x] if j_min < x < j_max else (y, y)
        if not bottom_y < y < top_y:
            violations.append(Violation("mark-not-interior", where, "marked point is not strictly inside the polygon"))
            continue
        endpoint = Point(x, top_y if mark.cut_sign > 0 else bottom_y)
        if endpoint not in facts.index:
            message = f"cut endpoint {endpoint} is not a vertex of the polygon"
            violations.append(Violation("cut-endpoint-not-vertex", where, message))
    if violations:
        return ValidationReport({}, tuple(violations))
    if isinstance(facts.cut_degrees, SemitoricError):
        return ValidationReport({}, (Violation("conflicting-cut-signs", "marks", str(facts.cut_degrees)),))

    classifications: dict[Point, object] = {}
    for vertex in polygon.vertices:
        result = facts.classes[vertex]
        if isinstance(result, SemitoricError):
            violations.append(Violation("unclassifiable-vertex", str(vertex), str(result)))
            continue
        classifications[vertex] = result
        if vertex.x in (j_min, j_max) and result.kind is not VertexKind.DELZANT:
            violations.append(
                Violation("extreme-not-delzant", str(vertex), f"extreme vertex classifies as {result.kind.value}")
            )
    return ValidationReport(classifications, tuple(violations))


def require_valid(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """Return the polygon unchanged, raising ValidationFailure when invalid."""
    report = validate(polygon)
    if not report.valid:
        raise ValidationFailure(report)
    return polygon
