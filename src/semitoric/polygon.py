"""The central data model: a convex rational polygon with marked interior points.

A marked point records a cluster of focus-focus values of an integrable
system: its position, its multiplicity, and the sign of the vertical cut used
to straighten the moment image at its column (+1 cuts upward, -1 downward).
The endpoint of a cut is the boundary point directly above (+1) or below (-1)
the mark; validation requires every endpoint to be a polygon vertex, which is
where the fake and hidden-Delzant vertex classes live.

Everything the library reads about a polygon is one :class:`PolygonFacts`
value, kept on the polygon outside equality, hashing, repr and pickling, as
is its validation report.  The facts' constructor reads each vertex as
integers (p, q, r, s), x = p/q and y = r/s, off the ``Fraction`` values, and
walks the edges once: primitive directions, structure, the chain split and
J_max.  Every other fact is computed on first read from that walk, and a fact
whose computation fails is not kept.  Each vertex's kind is decided once, in
``PolygonFacts._kinds``.  A degenerate polygon is rejected without a vertex
being classified, loading a polygon hashes no ``Point``, and no fact refers
back to its facts or polygon, so a polygon is freed with its last reference.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import groupby
from math import gcd
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import ClassificationError, DomainError, GeometryError, SemitoricError, ValidationFailure
from .geometry import LatticeVector, Point, _exact, _Record, cross, describe, det2

_Slice = tuple[Fraction, Fraction, Optional[int], Optional[int], int, int]  # one column, see PolygonFacts._walk


class MarkedPoint(_Record):
    """An interior marked point with its multiplicity and cut direction."""

    position: Point
    multiplicity: int
    cut_sign: int

    def __init__(self, position: Point, multiplicity: int = 1, cut_sign: int = -1):
        if not _is_int(multiplicity) or multiplicity < 1:
            raise GeometryError(f"multiplicity must be a positive integer, got {multiplicity!r}")
        if not _is_int(cut_sign) or cut_sign not in (-1, 1):
            raise GeometryError(f"cut sign must be +1 or -1, got {cut_sign!r}")
        vars(self).update(position=position, multiplicity=multiplicity, cut_sign=cut_sign)

    @classmethod
    def _checked(cls, position: Point, multiplicity: int, cut_sign: int) -> MarkedPoint:
        """The mark of values a valid polygon's mark already carries, without the constructor's checks."""
        vars(mark := object.__new__(cls)).update(position=position, multiplicity=multiplicity, cut_sign=cut_sign)
        return mark


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false would serialize back as booleans
    return isinstance(value, int) and not isinstance(value, bool)


def _mark_key(mark: MarkedPoint):
    return (mark.position.x, mark.position.y, mark.multiplicity, mark.cut_sign)


class SemitoricPolygon(_Record):
    """Counter-clockwise convex polygon plus marked points.

    The vertex tuple is rotated so it starts at the lexicographically
    smallest vertex and marks are kept sorted, so equal polygons compare and
    serialize identically.  Construction normalises but does not validate;
    run :func:`validate` (or :func:`require_valid`) for the full rule set.
    """

    vertices: tuple[Point, ...]
    marks: tuple[MarkedPoint, ...]

    def __init__(self, vertices: tuple[Point, ...], marks: tuple[MarkedPoint, ...] = ()):
        verts = tuple(vertices)
        if not verts:
            raise GeometryError("a polygon needs vertices")
        start = min(range(len(verts)), key=lambda i: (verts[i].x, verts[i].y))
        vars(self).update(vertices=verts[start:] + verts[:start], marks=tuple(sorted(marks, key=_mark_key)))

    @classmethod
    def _canonical(cls, vertices: tuple[Point, ...], marks: tuple[MarkedPoint, ...]) -> SemitoricPolygon:
        """The polygon of vertices already starting at the smallest one and marks already sorted, without the
        constructor's search and sort.  A caller must keep vertex 0 the smallest: the structure check relies on it."""
        polygon = object.__new__(cls)
        vars(polygon).update(vertices=vertices, marks=marks)
        return polygon

    @property
    def facts(self) -> PolygonFacts:
        """This polygon's facts, made on first use and kept on the instance."""
        return self.__dict__.get("_facts") or self.__dict__.setdefault("_facts", PolygonFacts(self.vertices, self.marks))

    def __getstate__(self):
        # copies and pickles recompute the facts and the report on first use instead of carrying them
        return {name: value for name, value in self.__dict__.items() if name not in ("_facts", "_report")}

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


class Violation(_Record):
    """One broken validity rule: the rule's name, where it is broken, and why."""

    rule: str
    location: str
    message: str

    def __init__(self, rule, location, message):
        vars(self).update(rule=rule, location=location, message=message)


class ValidationReport(_Record):
    """Outcome of :func:`validate`: per-vertex classes plus rule violations.

    The report is kept on the polygon and shared by every later check, so
    its classifications are a read-only view.  :func:`validate`
    builds them on first read, so a query that never reads them hashes no
    vertex; they read, compare and print as the dict they wrap.
    """

    classifications: Mapping[Point, object]
    violations: tuple[Violation, ...]

    def __init__(self, classifications: Mapping[Point, object], violations: tuple[Violation, ...]):
        classes = classifications if isinstance(classifications, _Classifications) else dict(classifications)
        vars(self).update(classifications=MappingProxyType(classes), violations=violations)

    @property
    def valid(self) -> bool:
        return not self.violations


class _Classifications:
    """Vertex -> class of each classified vertex: a dict built on first read, behind every dict method."""

    def __init__(self, facts: PolygonFacts):
        self._facts = facts

    @cached_property
    def _dict(self) -> dict[Point, object]:
        from .vertices import _class_at  # deferred: the lattice rules live there

        facts = self._facts
        classes = (_class_at(facts, i) for i in range(len(facts.vertices)))
        return {v: c for v, c in zip(facts.vertices, classes) if not isinstance(c, SemitoricError)}

    def __eq__(self, other) -> bool:  # an operator, not dict.__eq__, so that another proxy's mapping is asked too
        return self._dict == other


for _name in ("__getitem__", "__iter__", "__reversed__", "__len__", "__contains__", "__or__", "__ror__", "__repr__",
              "get", "keys", "values", "items", "copy"):  # every other dict method a MappingProxyType calls
    setattr(_Classifications, _name, lambda self, *args, _name=_name: getattr(self._dict, _name)(*args))


class BoundaryChains(_Record):
    """Bottom and top boundary paths, both running left to right."""

    bottom: tuple[Point, ...]
    top: tuple[Point, ...]
    left_vertical: Optional[tuple[Point, Point]]
    right_vertical: Optional[tuple[Point, Point]]

    def __init__(self, bottom, top, left_vertical, right_vertical):
        vars(self).update(bottom=bottom, top=top, left_vertical=left_vertical, right_vertical=right_vertical)


class PolygonFacts:
    """What the library reads about one polygon: :attr:`edges`, :attr:`structure`, ``j_min``, ``j_max`` and,
    on a well-formed polygon, the chain split :attr:`_positions`, from one walk along the edges in integers
    (:func:`_walk_boundary`); every other fact on first read.  A fact whose computation raises is not kept, so
    every read raises again; only :attr:`_kinds` holds errors, one per unclassifiable vertex.
    Facts of single vertices are indexed by position, found from a Point by :meth:`position`.  The DH record
    :attr:`_slices` keeps each column's slice length as integers, from the walk along each chain.
    """

    def __init__(self, vertices: tuple[Point, ...], marks: tuple[MarkedPoint, ...]):
        self.vertices, self.marks = vertices, marks  # _ratios: each vertex as (p, q, r, s), x = p/q and y = r/s
        self._ratios = [v.x.as_integer_ratio() + v.y.as_integer_ratio() for v in vertices]
        self.marks_at = {x: tuple(group) for x, group in groupby(marks, key=lambda m: m.position.x)}
        self.edges, self.structure, right, self._turns = _walk_boundary(self)
        # the rotation starts bottom left, and the bottom chain ends on J_max
        self.j_min, self.j_max = vertices[0].x, max(v.x for v in vertices) if self.structure else vertices[right].x
        if not self.structure:  # the top runs back from the last vertex, after vertex 0 where no edge descends
            top = range(len(vertices) - 1, right + (self.edges[right].a == 0) - 1, -1)
            self._positions = range(right + 1), [0, *top] if self.edges[-1].a else top

    @cached_property
    def vertices_at(self) -> dict[Fraction, list[int]]:
        """Column -> its vertices' positions, in polygon order."""
        out: dict[Fraction, list[int]] = {}
        for i, v in enumerate(self.vertices):
            out.setdefault(v.x, []).append(i)
        return out

    def position(self, vertex: Point) -> int:
        """The vertex's first position in ``vertices``, found in its column; DomainError off the vertices."""
        if isinstance(vertex, Point):
            for i in self.vertices_at.get(vertex.x, ()):
                if self.vertices[i].y == vertex.y:
                    return i
        raise DomainError(f"{describe(vertex)} is not a vertex of the polygon")

    @cached_property
    def columns(self) -> tuple[Fraction, ...]:
        """Every vertex and mark x, left to right, sorted on the reduced integers of each x = p/q, so that equal
        columns have equal integers: no Fraction is compared or hashed, and polygon order gives two sorted runs."""
        xs = [(p, q, v.x) for (p, q, _, _), v in zip(self._ratios, self.vertices)]
        xs += [(*x.as_integer_ratio(), x) for x in self.marks_at]
        xs.sort(key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
        return tuple({(p, q): x for p, q, x in xs}.values())

    @cached_property
    def _positions(self) -> tuple[Sequence[int], Sequence[int]]:
        """The positions of the bottom and of the top chain's points, left to right, set by the constructor on a
        well-formed polygon: the bottom runs from vertex 0 up to the walk's first edge that does not run
        rightward, a vertical edge climbs the right and descends the left, and the top runs against polygon order."""
        raise GeometryError(f"degenerate polygon: {self.structure[0].message}")

    @cached_property
    def _verticals(self) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
        """The (bottom, top) positions of the left and of the right vertical edge, None where a side has none:
        a vertical edge joins the two chains' ends on its side, which then differ."""
        bottom, top = self._positions
        left, right = (bottom[0], top[0]), (bottom[-1], top[-1])
        return left if left[0] != left[1] else None, right if right[0] != right[1] else None

    @cached_property
    def chains(self) -> BoundaryChains:
        """The chains as ``Point`` paths, made for :func:`boundary_chains` alone: the library reads positions."""
        verts, (bottom, top) = self.vertices, self._positions
        left, right = (edge and (verts[edge[0]], verts[edge[1]]) for edge in self._verticals)
        return BoundaryChains(verts[: len(bottom)], tuple(map(verts.__getitem__, top)), left, right)

    def _walk(self, columns: Sequence[Fraction]) -> list[_Slice]:
        """(bottom y, top y, bottom vertex, top vertex, bottom index, top index) at each of these sorted columns of
        [j_min, j_max], from one walk along each chain (see :meth:`_along`), a vertex keeping its own y."""
        v, bottom, top = self.vertices, self._along(0, columns), self._along(1, columns)
        return [(v[bv].y if bv is not None else Fraction(bn, bd), v[tv].y if tv is not None else Fraction(tn, td),
                 bv, tv, bk, tk) for (bn, bd, bv, bk), (tn, td, tv, tk) in zip(bottom, top)]

    def _along(self, side: int, columns: Sequence[Fraction]) -> list[tuple[int, int, Optional[int], int]]:
        """The bottom (side 0) or top (side 1) chain's y = n/d at each column as integers (n, d), its vertex's position
        there (None between vertices) and the index of its first point at or right of the column: a bisection to the
        first column, then a walk, comparing the integers of the chain's points with each column's."""
        at, ratios, verts = self._positions[side], self._ratios, self.vertices
        out, k = [], bisect_left(at, columns[0], key=lambda i: verts[i].x) if columns else 0
        for x in columns:
            xn, xd = x.as_integer_ratio()
            p, q, r, s = ratios[at[k]]
            while p * xd < xn * q:
                k += 1
                p, q, r, s = ratios[at[k]]
            if p * xd == xn * q:
                out.append((r, s, at[k], k))
                continue
            # y = r/s + (x - p/q) * dy / dx from the chain's point k - 1, over one denominator; the top runs
            # against polygon order
            (p, q, r, s), (dx, dy) = ratios[at[k - 1]], self.edges[at[k - 1 + side]]
            scale = xd * q * dx
            out.append((r * scale + (xn * q - p * xd) * dy * s, s * scale, None, k))
        return out

    @cached_property
    def heights(self) -> dict[Fraction, _Slice]:
        """The :meth:`_walk` record at each mark column in [j_min, j_max]."""
        inside = [x for x in self.marks_at if self.j_min <= x <= self.j_max]  # the marks are sorted by x
        return dict(zip(inside, self._walk(inside)))

    @cached_property
    def _slices(self) -> list[tuple[Fraction, Fraction, int, int, Optional[int], Optional[int]]]:
        """At every column, for the DH density: (x, slice length, its reduced integers n and d, bottom vertex, top
        vertex), from one walk along each chain in integers (:meth:`_along`), each length built once."""
        for x in self.marks_at if len(self.heights) < len(self.marks_at) else ():
            self.slice_at(x)  # raises at the first mark off the moment interval
        xs = self.columns
        return [(x, length := Fraction(tn * bd - bn * td, td * bd), *length.as_integer_ratio(), bv, tv)
                for x, (bn, bd, bv, _), (tn, td, tv, _) in zip(xs, self._along(0, xs), self._along(1, xs))]

    @cached_property
    def sides(self) -> tuple[tuple[tuple[Point, LatticeVector, LatticeVector], ...], ...]:
        """At each column of :attr:`heights`, in its order: the bottom and then the top boundary
        point, each with the rightward primitive tangents of the boundary left and right of it: the
        chain's own edge directions at the walk's index, negated on the top chain, which runs against
        polygon order.  A tuple, not a dict, so a reader hashes no column."""
        out = []
        for x, slice_ in self.heights.items():
            column = []
            for side, at in enumerate(self._positions):
                # the edges into the chain's point k and, at a vertex, out of it; the top runs against polygon order
                k, sign = slice_[4 + side], 1 - 2 * side
                u, w = (self.edges[at[i + side]] for i in (k - 1, k - (slice_[2 + side] is None)))
                column.append((Point(x, slice_[side]), *(LatticeVector(sign * e.a, sign * e.b) for e in (u, w))))
            out.append(tuple(column))
        return tuple(out)

    def slice_at(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(y_bottom, y_top) at x: a lookup at a mark column, a bisection elsewhere."""
        found = self.heights.get(x)
        if found is not None:
            return found[:2]
        if not self.j_min <= x <= self.j_max:
            interval = f"[{describe(self.j_min)}, {describe(self.j_max)}]"
            raise DomainError(f"x = {describe(x)} is outside the moment interval {interval}")
        return self._walk([x])[0][:2]

    @cached_property
    def _degrees(self) -> tuple[tuple[int, int], ...]:
        """(total multiplicity, common sign) of the cuts ending at each vertex, (0, 0) where none does."""
        out = [(0, 0)] * len(self.vertices)
        for mark in self.marks:
            self.slice_at(x := mark.position.x)  # raises where the mark is off the moment interval
            i = self.heights[x][2 if mark.cut_sign < 0 else 3]
            if i is None:  # off the vertices a column's bottom and top differ: no cut of the other sign ends here
                continue
            degree, sign = out[i]
            if degree and sign != mark.cut_sign:
                raise ClassificationError(f"cuts of both signs end at {describe(self.vertices[i])}")
            out[i] = (degree + mark.multiplicity, mark.cut_sign)
        return tuple(out)

    @cached_property
    def _kinds(self) -> tuple[object, ...]:
        """Each vertex's VertexKind, or the SemitoricError classifying it raised (read: a fresh copy)."""
        from .vertices import classify_corners  # deferred: the lattice rules live there

        return classify_corners(self)

    @cached_property
    def _poles(self) -> tuple[tuple[int, str, int, int], ...]:
        """Each k-run of both chains as (k, side, the positions of its start and of its end vertex)."""
        from .vertices import extract_k_runs  # deferred: the lattice rules live there

        return extract_k_runs(self)


def _walk_boundary(facts: PolygonFacts) -> tuple[tuple, tuple[Violation, ...], Optional[int], Optional[list]]:
    """One walk along the edges, in integers: each edge's primitive direction (None where its ends coincide), the
    structural violations, the first edge not running rightward and, where well formed, each vertex's turn.  Where
    all turns are left and no later edge runs rightward the boundary winds once: the polygon is strictly convex.
    That test holds only where vertex 0 is the lexicographically smallest vertex, as the constructor rotates it
    and :meth:`SemitoricPolygon._canonical`'s callers must keep it; from another start a strictly convex polygon
    would be reported as winding more than once."""
    ratios = facts._ratios
    edges, right, rewound = [None] * len(ratios), None, False  # rewound: rightward after the first that is not
    p, q, r, s = ratios[0]
    for i, (a, b, c, d) in enumerate(ratios[1:] + ratios[:1]):  # edge i, from vertex i to vertex i + 1
        dx, dy = (a * q - p * b) * s * d, (c * s - r * d) * q * b
        if dx > 0:
            rewound = rewound or right is not None
        elif right is None:
            right = i
        g = gcd(dx, dy)
        if g:
            edges[i] = LatticeVector(dx // g, dy // g)
        p, q, r, s = a, b, c, d
    edges = tuple(edges)
    if len(edges) >= 3 and None not in edges and not rewound:
        turns = [u.a * w.b - u.b * w.a for u, w in zip(edges[-1:] + edges[:-1], edges)]  # at each vertex
        if min(turns) > 0:  # left turns only
            return edges, (), right, turns
    return edges, tuple(_structure_violations(facts, edges)), right, None


def _structure_violations(facts: PolygonFacts, edges: tuple[Optional[LatticeVector], ...]) -> list[Violation]:
    """The structural rules one by one, in their order, for a polygon that is not strictly convex."""
    verts = facts.vertices
    if len(verts) < 3:
        return [Violation("too-few-vertices", "polygon", f"{len(verts)} vertices, need at least 3")]
    if any(len({verts[i].y for i in col}) < len(col) for col in facts.vertices_at.values() if len(col) > 1):
        return [Violation("duplicate-vertex", "polygon", "vertices are not pairwise distinct")]
    # each edge is a positive multiple of its primitive direction, so these are the turns' signs
    turns = [det2(edges[i - 1], edges[i]) for i in range(len(verts))]
    if all(t < 0 for t in turns):
        return [Violation("not-counter-clockwise", "polygon", "vertices are listed in clockwise order")]
    if all(t > 0 for t in turns):  # left turns only, yet not strictly convex (see _walk_boundary)
        return [Violation("not-strictly-convex", "polygon", "the boundary winds around more than once")]
    return [Violation("not-strictly-convex", describe(verts[i]), "reflex turn" if t else "collinear consecutive edges")
            for i, t in enumerate(turns) if t <= 0]


def boundary_chains(polygon: SemitoricPolygon) -> BoundaryChains:
    """Split the boundary into bottom/top paths and the extreme vertical edges.

    Raises GeometryError when the polygon is degenerate (not strictly convex
    counter-clockwise).
    """
    return polygon.facts.chains


def vertical_edge_endpoints(polygon: SemitoricPolygon) -> frozenset[Point]:
    """Vertices incident to a vertical edge (images of fixed surfaces)."""
    verts = polygon.vertices
    return frozenset(verts[i] for edge in polygon.facts._verticals if edge for i in edge)


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
    * every vertex classifies as exactly one of Delzant / hidden Delzant /
      fake.

    Two more rules hold on every polygon that passes the mark rules, so
    they are not checked again:

    * cuts ending at one vertex share a sign (implied: a strictly interior
      mark's column has distinct bottom and top points, so a cut up and a
      cut down never end at one vertex);
    * vertices on the extreme columns J_min, J_max classify as Delzant,
      which also forces the edge next to a vertical edge to have primitive
      first component 1 (implied: no cut ends on an extreme column, and a
      vertex where no cut ends is Delzant or unclassifiable).

    The report is kept on the polygon beside its facts, so a polygon is
    checked once however often it is validated.
    """
    return polygon.__dict__.get("_report") or polygon.__dict__.setdefault("_report", _validation_report(polygon.facts))


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
            endpoint = describe((x, top_y if mark.cut_sign > 0 else bottom_y))
            rule, message = "cut-endpoint-not-vertex", f"cut endpoint {endpoint} is not a vertex of the polygon"
        else:
            continue
        violations.append(Violation(rule, f"marks[{idx}] at {describe(mark.position)}", message))
    if violations:
        return ValidationReport({}, tuple(violations))
    violations = [Violation("unclassifiable-vertex", describe(vertex), str(kind))
                  for vertex, kind in zip(facts.vertices, facts._kinds) if isinstance(kind, SemitoricError)]
    return ValidationReport(_Classifications(facts), tuple(violations))


def require_valid(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """Return the polygon unchanged, raising ValidationFailure when invalid."""
    report = validate(polygon)
    if not report.valid:
        raise ValidationFailure(report)
    return polygon
