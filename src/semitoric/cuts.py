"""Cut switches, presentation enumeration, and shear normal forms.

Flipping the cut of mark i applies the piecewise vertical shear with pivot
at the mark's column and coefficient (old sign) * (multiplicity): identity
left of the column, a unipotent shear right of it.  Boundary vertices are
inserted where the kink bends an edge and removed where it straightens one.
Switches at distinct marks commute, so a whole family of 2^m presentations
is enumerated by composing the per-mark shears.  A ``SignProduct`` lists it,
building each member when it is read.  The family exists only for a valid
polygon, and every member of it is valid, so ``enumerate_presentations``
refuses an invalid polygon with ValidationFailure when it is called.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import prod
from typing import Iterable, Iterator, Optional

from .errors import DomainError, PresentationError, ValidationFailure
from .geometry import GlobalShear, Point, VerticalShear, cross
from .polygon import (
    MarkedPoint,
    SemitoricPolygon,
    boundary_chains,
    require_valid,
)


@dataclass(frozen=True, eq=False)
class SignProduct(Sequence):
    """Every sign vector that takes one block of signs from each factor, built on access.

    Item i joins one block per factor, picked by the mixed-radix digits of i
    with the first factor varying fastest.  With a ``base`` polygon, item i
    is the pair (signs, the presentation of ``base`` with those signs).

    Equal to, and hashing as, the tuple of its items; a slice is the tuple
    of the items it picks.  ``size`` counts the items; ``len()`` gives the
    same number but, as for any Python sequence, raises OverflowError past
    ``sys.maxsize``, so nothing here calls it.
    """

    factors: tuple[tuple[tuple[int, ...], ...], ...]
    base: Optional[SemitoricPolygon] = None

    @property
    def size(self) -> int:
        return prod(len(factor) for factor in self.factors)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return all(self.factors)

    def _item(self, signs: tuple[int, ...]):
        return signs if self.base is None else (signs, _with_signs(self.base, signs))

    def __getitem__(self, index):
        codes = range(self.size)[index]
        return tuple(map(self._at, codes)) if isinstance(index, slice) else self._at(codes)

    def _at(self, code: int):
        blocks = []
        for factor in self.factors:
            code, digit = divmod(code, len(factor))
            blocks.append(factor[digit])
        return self._item(tuple(chain.from_iterable(blocks)))

    def __iter__(self) -> Iterator:
        for choice in product(*reversed(self.factors)):  # the last factor varies slowest
            yield self._item(tuple(chain.from_iterable(reversed(choice))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, SignProduct)):
            return NotImplemented
        size = other.size if isinstance(other, SignProduct) else len(other)
        return self.size == size and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class PresentationSet:
    """All cut-sign presentations of one polygon.

    ``members`` pairs each sign vector (in the base polygon's mark order)
    with the corresponding polygon, built when read; member 0 is the base
    itself and the family is ordered by binary counting over flipped entries.
    """

    base: SemitoricPolygon
    members: SignProduct


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
    coefficients: dict[Fraction, int] = {}  # shears with one pivot add: one shear per column
    for i in flips:
        mark = polygon.marks[i]
        coefficients[mark.position.x] = coefficients.get(mark.position.x, 0) + mark.cut_sign * mark.multiplicity
    shears = [VerticalShear(x, coefficient) for x, coefficient in coefficients.items()]

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


def _with_signs(polygon: SemitoricPolygon, signs: tuple[int, ...]) -> SemitoricPolygon:
    """The presentation of ``polygon`` whose marks have these cut signs."""
    flips = frozenset(i for i, mark in enumerate(polygon.marks) if mark.cut_sign != signs[i])
    return _flip_cuts(polygon, flips) if flips else polygon


def enumerate_presentations(polygon: SemitoricPolygon) -> PresentationSet:
    """All 2^m presentations reachable by switching the polygon's mark entries.

    Raises ValidationFailure when the polygon is invalid.
    """
    require_valid(polygon)
    factors = tuple(((mark.cut_sign,), (-mark.cut_sign,)) for mark in polygon.marks)
    return PresentationSet(base=polygon, members=SignProduct(factors, polygon))


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
    first = boundary_chains(polygon).bottom[0]
    tangent = polygon.facts.edges[0]  # the bottom chain starts with the edge from vertex 0
    slope = -(tangent.b // tangent.a)
    offset = -(slope * first.x + first.y)
    return transform_polygon(polygon, GlobalShear(slope, offset))
