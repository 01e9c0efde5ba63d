"""System-level invariants derived from a presentation.

The Duistermaat-Heckman density of the circle action is the vertical slice
length of the polygon; its slope jumps at a critical column x satisfy

    jump = -e_top - e_bottom - (mark multiplicity at x)

where e_side = -1/(a*b) if the boundary point of that side at x is an
elliptic-elliptic vertex with isotropy weights a, b, and 0 otherwise.  The
jump report recomputes both sides of this identity from independent data.

Adaptability (the circle action extends to a torus action) is decided twice:
by orbit counting per column, and by searching the cut-sign family for a
presentation that is a Delzant polygon.  The two verdicts must agree; a
disagreement raises instead of guessing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .cuts import ENUMERATION_LIMIT, enumerate_presentations, shear_normal_form, split_marks
from .errors import DomainError, SemitoricError
from .geometry import Point, primitive_direction
from .polygon import SemitoricPolygon, boundary_chains
from .vertices import VertexKind, classify_vertex, is_delzant_polygon, isotropy_weights


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function: values at increasing breakpoints."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def value_at(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        xs, ys = self.breakpoints, self.values
        if not xs[0] <= x <= xs[-1]:
            raise DomainError(f"{x} outside [{xs[0]}, {xs[-1]}]")
        i = bisect_left(xs, x)
        if xs[i] == x:
            return ys[i]
        t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[i - 1] + t * (ys[i] - ys[i - 1])

    def segment_slope(self, index: int) -> Fraction:
        xs, ys = self.breakpoints, self.values
        return (ys[index + 1] - ys[index]) / (xs[index + 1] - xs[index])


def dh_function(polygon: SemitoricPolygon) -> PiecewiseLinear:
    """Density of the pushforward of the Liouville measure: slice length per column."""
    facts = polygon.facts
    values = []
    for x in facts.columns:
        bottom, top = facts.slice_at(x)
        values.append(top - bottom)
    return PiecewiseLinear(facts.columns, tuple(values))


@dataclass(frozen=True)
class JumpEntry:
    x: Fraction
    left_slope: Fraction
    right_slope: Fraction
    observed: Fraction
    predicted: Fraction
    e_top: Fraction
    e_bottom: Fraction
    focus_multiplicity: int

    @property
    def consistent(self) -> bool:
        return self.observed == self.predicted


@dataclass(frozen=True)
class JumpReport:
    entries: tuple[JumpEntry, ...]

    @property
    def consistent(self) -> bool:
        return all(entry.consistent for entry in self.entries)


def _weight_term(polygon: SemitoricPolygon, point: Point) -> Fraction:
    """-1/(a*b) if the boundary point is an elliptic-elliptic vertex, else 0."""
    if point not in polygon.facts.index:
        return Fraction(0)
    if classify_vertex(polygon, point).kind is VertexKind.FAKE:
        return Fraction(0)
    a, b = isotropy_weights(polygon, point)
    return Fraction(-1, a * b)


def dh_jump_report(polygon: SemitoricPolygon) -> JumpReport:
    """Check the slope-jump identity at every interior critical column."""
    density = dh_function(polygon)
    facts = polygon.facts
    entries = []
    for i in range(1, len(density.breakpoints) - 1):
        x = density.breakpoints[i]
        left = density.segment_slope(i - 1)
        right = density.segment_slope(i)
        bottom_y, top_y = facts.slice_at(x)
        e_top = _weight_term(polygon, Point(x, top_y))
        e_bottom = _weight_term(polygon, Point(x, bottom_y))
        marks_here = facts.multiplicity_at(x)
        entries.append(
            JumpEntry(
                x=x,
                left_slope=left,
                right_slope=right,
                observed=right - left,
                predicted=-e_top - e_bottom - marks_here,
                e_top=e_top,
                e_bottom=e_bottom,
                focus_multiplicity=marks_here,
            )
        )
    return JumpReport(tuple(entries))


@dataclass(frozen=True)
class OrbitCounts:
    """Non-free circle orbits over one interior column.

    ee: elliptic-elliptic fixed points (Delzant or hidden-Delzant vertices);
    ff: focus-focus fixed points (total mark multiplicity);
    zk: finite-isotropy orbits, one per k-run whose open span covers the column.
    """

    ee: int
    ff: int
    zk: int

    @property
    def total(self) -> int:
        return self.ee + self.ff + self.zk

    def __str__(self) -> str:
        return f"E={self.ee}, FF={self.ff}, S={self.zk}"


def orbit_counts(polygon: SemitoricPolygon, x: Fraction) -> OrbitCounts:
    x = Fraction(x)
    facts = polygon.facts
    if not facts.j_min < x < facts.j_max:
        raise DomainError(f"orbit counts are defined for interior columns only, got x = {x}")
    ee = sum(
        1 for v in facts.vertices_at.get(x, ()) if classify_vertex(polygon, v).kind is not VertexKind.FAKE
    )
    return OrbitCounts(ee=ee, ff=facts.multiplicity_at(x), zk=facts.runs_over(x))


@dataclass(frozen=True)
class AdaptabilityVerdict:
    adaptable: bool
    violating_levels: tuple[tuple[Fraction, OrbitCounts], ...]
    delzant_signs: tuple[tuple[int, ...], ...]
    criteria_agree: bool


class CriteriaDisagreement(SemitoricError):
    """The orbit-count and Delzant-presentation criteria returned different verdicts."""


def _delzant_members(polygon: SemitoricPolygon, limit: int):
    """Delzant presentations over unit-split marks, with their sign vectors.

    Splitting lets coincident focus-focus points take independent cut signs,
    which is the family the existence criterion quantifies over.
    """
    unit = split_marks(polygon)
    if len(unit.marks) > limit:
        raise DomainError(
            f"{len(unit.marks)} focus-focus points exceed the enumeration bound {limit}"
        )
    family = enumerate_presentations(unit, limit)
    return [(signs, member) for signs, member in family.members if is_delzant_polygon(member)]


def adaptability(polygon: SemitoricPolygon, limit: int = ENUMERATION_LIMIT) -> AdaptabilityVerdict:
    """Decide extendability of the circle action, by both criteria.

    (i)  every interior column carries at most two non-free orbits;
    (ii) some presentation in the (unit-split) cut family is Delzant.

    Raises CriteriaDisagreement when the two verdicts differ, which signals
    invalid input or a bug rather than a legal state.
    """
    facts = polygon.facts
    violating = []
    for x in facts.columns:
        if not facts.j_min < x < facts.j_max:
            continue
        counts = orbit_counts(polygon, x)
        if counts.total >= 3:
            violating.append((x, counts))
    by_counts = not violating
    delzant = _delzant_members(polygon, limit)
    by_existence = bool(delzant)
    if by_counts != by_existence:
        raise CriteriaDisagreement(
            f"orbit counting says {'adaptable' if by_counts else 'non-adaptable'} but "
            f"{len(delzant)} Delzant presentations were found"
        )
    return AdaptabilityVerdict(
        adaptable=by_counts,
        violating_levels=tuple(violating),
        delzant_signs=tuple(signs for signs, _ in delzant),
        criteria_agree=True,
    )


def delzant_presentations(
    polygon: SemitoricPolygon, limit: int = ENUMERATION_LIMIT
) -> tuple[SemitoricPolygon, ...]:
    """All Delzant members of the cut family, in shear normal form, deduplicated."""
    out = []
    for _, member in _delzant_members(polygon, limit):
        normal = shear_normal_form(member)
        if normal not in out:
            out.append(normal)
    return tuple(out)


def self_intersection(polygon: SemitoricPolygon, side: Literal["left", "right"]) -> int:
    """Self-intersection number of the fixed sphere over a vertical edge.

    With bottom-outgoing primitive (1, a) and top-outgoing primitive (1, b)
    at the left vertical edge the value is a - b; the right side is the
    x-reflection of the same formula.  Its absolute value always equals
    |det| of the two outgoing primitives.
    """
    chains = boundary_chains(polygon)
    if side == "left":
        if chains.left_vertical is None:
            raise DomainError("no vertical edge on the left side")
        bottom_out = primitive_direction(chains.bottom[1].x - chains.bottom[0].x, chains.bottom[1].y - chains.bottom[0].y)
        top_out = primitive_direction(chains.top[1].x - chains.top[0].x, chains.top[1].y - chains.top[0].y)
        return bottom_out.b - top_out.b
    if side == "right":
        if chains.right_vertical is None:
            raise DomainError("no vertical edge on the right side")
        bottom_out = primitive_direction(chains.bottom[-2].x - chains.bottom[-1].x, chains.bottom[-2].y - chains.bottom[-1].y)
        top_out = primitive_direction(chains.top[-2].x - chains.top[-1].x, chains.top[-2].y - chains.top[-1].y)
        return bottom_out.b - top_out.b
    raise DomainError(f"side must be 'left' or 'right', got {side!r}")
