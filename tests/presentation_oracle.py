"""Reference cut-family builder, used as an oracle.

This is the library's earlier way to build a presentation: it moves every
point of the boundary, subdivided at the flipped columns, by the piecewise
vertical shear of each flipped column left of it (its own per-column image,
independent of the library's sweep), drops the points where the image runs
straight, and re-validates the result in full.  The library builds each
member in one sweep and checks it with the per-column rule instead; the
differential tests check that both give the same members.

:func:`delzant_listing` keeps the library's earlier rule for listing the
distinct Delzant members: build the member of every Delzant sign vector and
deduplicate them with a dict, in first-seen order.  The library keeps one
sign pattern per up-count of each group of coincident unit marks instead.
"""

from fractions import Fraction
from typing import Iterable, Sequence

from semitoric import (
    MarkedPoint,
    Point,
    PresentationError,
    SemitoricPolygon,
    ValidationFailure,
    require_valid,
)
from semitoric.geometry import cross


def subdivide_at_columns(cycle: Sequence[Point], columns: Iterable[Fraction]) -> list[Point]:
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


def merge_collinear(cycle: Sequence[Point]) -> tuple[Point, ...]:
    n = len(cycle)
    return tuple(cycle[i] for i in range(n) if cross(cycle[i - 1], cycle[i], cycle[(i + 1) % n]) != 0)


def flip_cuts(polygon: SemitoricPolygon, flips: frozenset[int]) -> SemitoricPolygon:
    """Flip the given marks' cuts, shearing right of each one's column, and validate the result."""
    coefficients: dict[Fraction, int] = {}  # shears with one pivot add: one shear per column
    for i in flips:
        mark = polygon.marks[i]
        coefficients[mark.position.x] = coefficients.get(mark.position.x, 0) + mark.cut_sign * mark.multiplicity

    def image(p: Point) -> Point:
        """Fixed left of each column x, moved by coefficient * (p.x - x) right of it."""
        return Point(p.x, p.y + sum(c * (p.x - x) for x, c in coefficients.items() if p.x > x))

    cycle = subdivide_at_columns(polygon.vertices, coefficients)
    new_vertices = merge_collinear([image(p) for p in cycle])
    new_marks = tuple(
        MarkedPoint(image(m.position), m.multiplicity, -m.cut_sign if i in flips else m.cut_sign)
        for i, m in enumerate(polygon.marks)
    )
    try:
        return require_valid(SemitoricPolygon(new_vertices, new_marks))
    except ValidationFailure as exc:
        raise PresentationError(f"inconsistent presentation: {exc}") from exc


def with_signs(polygon: SemitoricPolygon, signs: tuple[int, ...]) -> SemitoricPolygon:
    """The presentation of ``polygon`` whose marks have these cut signs."""
    flips = frozenset(i for i, mark in enumerate(polygon.marks) if mark.cut_sign != signs[i])
    return flip_cuts(polygon, flips) if flips else polygon


def members(polygon: SemitoricPolygon, limit: int | None = None) -> list[tuple[tuple[int, ...], SemitoricPolygon]]:
    """The first ``limit`` (default all 2^m) members of the cut family, in the
    library's order: flipping mark i is bit i of the member's index.

    Raises ValidationFailure when the polygon is invalid.
    """
    require_valid(polygon)
    own = tuple(mark.cut_sign for mark in polygon.marks)
    count = 2 ** len(own) if limit is None else min(limit, 2 ** len(own))
    out = []
    for code in range(count):
        signs = tuple(-s if code >> b & 1 else s for b, s in enumerate(own))
        out.append((signs, with_signs(polygon, signs)))
    return out


def delzant_listing(polygon: SemitoricPolygon) -> tuple[SemitoricPolygon, ...]:
    """Every Delzant sign vector's member, swept into shear normal form, deduplicated by a dict in first-seen order."""
    from semitoric.cuts import _delzant_signs, _flip_cuts, _normal_shear, _unit_marks

    delzant = _delzant_signs(require_valid(polygon))
    units = [_unit_marks(column) for column in polygon.facts.marks_at.values()]
    shear = _normal_shear(polygon)
    return tuple(dict.fromkeys(_flip_cuts(polygon, signs, shear, units) for signs in delzant))
