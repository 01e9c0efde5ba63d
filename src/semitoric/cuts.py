"""Cut switches, presentation enumeration, and shear normal forms.

Flipping the cut of mark i applies the piecewise vertical shear with pivot
at the mark's column and coefficient (old sign) * (multiplicity): identity
left of the column, a unipotent shear right of it.  Boundary vertices are
inserted where the kink bends an edge and removed where it straightens one.
Switches at distinct marks commute, so a whole family of 2^m presentations
is enumerated by composing the per-mark shears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, PresentationError, ValidationFailure
from .geometry import GlobalShear, Point, VerticalShear, cross, primitive_direction
from .polygon import (
    MarkedPoint,
    SemitoricPolygon,
    boundary_chains,
    require_valid,
)

ENUMERATION_LIMIT = 16


@dataclass(frozen=True)
class PresentationSet:
    """All cut-sign presentations of one polygon.

    ``members`` pairs each sign vector (in the base polygon's mark order)
    with the corresponding polygon; member 0 is the base itself and the
    family is ordered by binary counting over flipped entries.
    """

    base: SemitoricPolygon
    members: tuple[tuple[tuple[int, ...], SemitoricPolygon], ...]


def transform_polygon(polygon: SemitoricPolygon, shear: GlobalShear) -> SemitoricPolygon:
    """Apply a global vertical-line-preserving map to vertices and marks."""
    return SemitoricPolygon(
        vertices=tuple(shear.apply(v) for v in polygon.vertices),
        marks=tuple(
            MarkedPoint(shear.apply(m.position), m.multiplicity, m.cut_sign) for m in polygon.marks
        ),
    )


def _subdivide_at_columns(cycle: Sequence[Point], columns: Iterable[Fraction]) -> list[Point]:
    """Insert the points where the given vertical lines cross the cycle's edges."""
    columns = sorted(set(columns))
    out: list[Point] = []
    n = len(cycle)
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        out.append(a)
        lo, hi = (a.x, b.x) if a.x < b.x else (b.x, a.x)
        between = [x for x in columns if lo < x < hi]
        between.sort(reverse=b.x < a.x)
        for x in between:
            t = (x - a.x) / (b.x - a.x)
            out.append(Point(x, a.y + t * (b.y - a.y)))
    return out


def _merge_collinear(cycle: Sequence[Point]) -> tuple[Point, ...]:
    n = len(cycle)
    kept = tuple(
        cycle[i] for i in range(n) if cross(cycle[i - 1], cycle[i], cycle[(i + 1) % n]) != 0
    )
    return kept


def _flip_cuts(polygon: SemitoricPolygon, flips: frozenset[int]) -> SemitoricPolygon:
    """Flip the given marks' cuts, shearing right of each one's column."""
    shears = [
        VerticalShear(m.position.x, m.cut_sign * m.multiplicity)
        for i, m in enumerate(polygon.marks)
        if i in flips
    ]

    def image(p: Point) -> Point:
        for shear in shears:
            p = shear.apply(p)
        return p

    cycle = _subdivide_at_columns(polygon.vertices, (shear.pivot_x for shear in shears))
    new_vertices = _merge_collinear([image(p) for p in cycle])
    new_marks = tuple(
        MarkedPoint(
            image(m.position),
            m.multiplicity,
            -m.cut_sign if i in flips else m.cut_sign,
        )
        for i, m in enumerate(polygon.marks)
    )
    result = SemitoricPolygon(new_vertices, new_marks)
    try:
        return require_valid(result)
    except ValidationFailure as exc:
        raise PresentationError(f"inconsistent presentation: {exc}") from exc


def switch_cut(polygon: SemitoricPolygon, index: int) -> SemitoricPolygon:
    """Flip the cut sign of mark ``index``, reshaping the polygon to match.

    An involution: switching the same index twice restores the polygon.
    """
    if not 0 <= index < len(polygon.marks):
        raise DomainError(f"mark index {index} out of range (have {len(polygon.marks)} marks)")
    return _flip_cuts(polygon, frozenset((index,)))


def enumerate_presentations(
    polygon: SemitoricPolygon, limit: int = ENUMERATION_LIMIT
) -> PresentationSet:
    """All 2^m presentations reachable by switching the polygon's mark entries."""
    m = len(polygon.marks)
    if m > limit:
        raise DomainError(f"{m} mark entries exceed the enumeration bound {limit}")
    members = []
    for code in range(2**m):
        flips = frozenset(i for i in range(m) if code >> i & 1)
        signs = tuple(
            -mark.cut_sign if i in flips else mark.cut_sign
            for i, mark in enumerate(polygon.marks)
        )
        members.append((signs, _flip_cuts(polygon, flips) if flips else polygon))
    return PresentationSet(base=polygon, members=tuple(members))


def split_marks(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """Expand every mark of multiplicity m into m unit marks at the same spot.

    The polygon and all its invariants are unchanged; only the sign choices
    reachable by switching become finer (one per underlying focus-focus
    point instead of one per entry).  A polygon whose marks are all unit
    marks already is returned as it is, with the facts it has computed.
    """
    if all(mark.multiplicity == 1 for mark in polygon.marks):
        return polygon
    units = []
    for mark in polygon.marks:
        units.extend(
            MarkedPoint(mark.position, 1, mark.cut_sign) for _ in range(mark.multiplicity)
        )
    return SemitoricPolygon(polygon.vertices, tuple(units))


def shear_normal_form(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """The canonical global-shear translate of a presentation.

    Normal form: the bottom boundary point on the J_min column has y = 0,
    and the first non-vertical bottom edge's primitive tangent (p, q)
    satisfies 0 <= q < p.  Idempotent; two presentations with the same cuts
    have equal normal forms exactly when they differ by a global shear.
    """
    chains = boundary_chains(polygon)
    first, second = chains.bottom[0], chains.bottom[1]
    tangent = primitive_direction(second.x - first.x, second.y - first.y)
    slope = -(tangent.b // tangent.a)
    offset = -(slope * first.x + first.y)
    return transform_polygon(polygon, GlobalShear(slope, offset))
