"""System-level invariants derived from a presentation.

The Duistermaat-Heckman density of the circle action is the vertical slice
length of the polygon; its slope jumps at a critical column x satisfy

    jump = -e_top - e_bottom - (mark multiplicity at x)

where e_side = -1/(a*b) if the boundary point of that side at x is an
elliptic-elliptic vertex with isotropy weights a, b, and 0 otherwise.  The
jump report recomputes both sides of this identity from independent data,
in integers from one walk along the chains (``PolygonFacts._slices``, which
also holds the density's values, each built once per polygon): the slopes
from the slice lengths alone, the weights from the edges out of each vertex
that is not fake (``PolygonFacts._kinds``).

Adaptability (the circle action extends to a torus action) is decided
twice: by orbit counting per column, and by searching the cut-sign family
for a presentation that is a Delzant polygon (``cuts._delzant_signs``,
beside the family's builder and column rule, as is the Delzant listing
``delzant_presentations``).  The two verdicts must agree; a disagreement
raises instead of guessing.  Both read the valid polygon's own facts by
position, once, and neither reads the other.  The orbit count reads each
mark column's two points (``PolygonFacts.heights`` and ``sides``) and the
k-runs' pole positions.  The cut family exists only for a valid polygon,
so ``adaptability`` refuses an invalid one with ValidationFailure, from the
report kept on it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Literal

from .cuts import SignProduct, _delzant_signs
from .errors import DomainError, SemitoricError
from .geometry import _exact, _Record, describe
from .polygon import PolygonFacts, SemitoricPolygon, require_valid
from .vertices import VertexKind, _class_of, _outgoing


class PiecewiseLinear(_Record):
    """Continuous piecewise-linear function: values at increasing breakpoints."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __init__(self, breakpoints, values):
        vars(self).update(breakpoints=breakpoints, values=values)

    def value_at(self, x: Fraction) -> Fraction:
        x = _exact(x)
        xs, ys = self.breakpoints, self.values
        if not xs[0] <= x <= xs[-1]:
            raise DomainError(f"{describe(x)} outside [{describe(xs[0])}, {describe(xs[-1])}]")
        i = bisect_left(xs, x)
        if xs[i] == x:
            return ys[i]
        t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[i - 1] + t * (ys[i] - ys[i - 1])


def dh_function(polygon: SemitoricPolygon) -> PiecewiseLinear:
    """Density of the pushforward of the Liouville measure: slice length per column, each built once per polygon."""
    return PiecewiseLinear(polygon.facts.columns, tuple(length for _, length, *_ in polygon.facts._slices))


class JumpEntry(_Record):
    """The slope jump of the DH function at one interior column, observed and predicted from its vertices and marks."""

    x: Fraction
    left_slope: Fraction
    right_slope: Fraction
    observed: Fraction
    predicted: Fraction
    e_top: Fraction
    e_bottom: Fraction
    focus_multiplicity: int

    def __init__(self, x, left_slope, right_slope, observed, predicted, e_top, e_bottom, focus_multiplicity):
        vars(self).update(x=x, left_slope=left_slope, right_slope=right_slope, observed=observed, predicted=predicted,
                          e_top=e_top, e_bottom=e_bottom, focus_multiplicity=focus_multiplicity)

    @property
    def consistent(self) -> bool:
        return self.observed == self.predicted


class JumpReport(_Record):
    """The slope-jump identity checked at every interior critical column, left to right."""

    entries: tuple[JumpEntry, ...]

    def __init__(self, entries):
        vars(self).update(entries=entries)

    @property
    def consistent(self) -> bool:
        return all(entry.consistent for entry in self.entries)


def dh_jump_report(polygon: SemitoricPolygon) -> JumpReport:
    """Check the slope-jump identity at every interior critical column; each field's Fraction is built once."""
    facts, zero = polygon.facts, Fraction(0)
    slices, kinds = facts._slices, facts._kinds
    slopes = []  # each segment's slope as its reduced numerator and denominator, and as a Fraction
    for (x, _, n, d, *_), (x1, _, n1, d1, *_) in zip(slices, slices[1:]):
        (p, q), (p1, q1) = x.as_integer_ratio(), x1.as_integer_ratio()
        slope = Fraction((n1 * d - n * d1) * q * q1, d * d1 * (p1 * q - p * q1))
        slopes.append((*slope.as_integer_ratio(), slope))
    multiplicity = [0] * len(slices)  # at each column, found by bisection: no column is hashed
    for x, marks in facts.marks_at.items():
        multiplicity[bisect_left(facts.columns, x)] = sum(m.multiplicity for m in marks)
    entries = []
    for i in range(1, len(slices) - 1):
        (ln, ld, left), (rn, rd, right), marks_here = slopes[i - 1], slopes[i], multiplicity[i]
        num, den, e = -marks_here, 1, []  # predicted = -e_top - e_bottom - marks_here, with e = -1/(a*b) or 0
        for vertex in slices[i][5:3:-1]:  # top, then bottom
            if vertex is None or _class_of(kinds[vertex]) is VertexKind.FAKE:
                e.append(zero)
                continue
            a, b = (d.a for d in _outgoing(facts, vertex))  # an interior column has no vertex of a vertical edge
            num, den = num * a * b + den, den * a * b
            e.append(Fraction(-1, a * b))
        observed = Fraction(rn * ld - ln * rd, rd * ld)  # right - left
        entries.append(JumpEntry(slices[i][0], left, right, observed, Fraction(num, den), *e, marks_here))
    return JumpReport(tuple(entries))


class OrbitCounts(_Record):
    """Non-free circle orbits over one interior column.

    ee: elliptic-elliptic fixed points (Delzant or hidden-Delzant vertices);
    ff: focus-focus fixed points (total mark multiplicity);
    zk: finite-isotropy orbits, one per k-run whose open span covers the column.
    """

    ee: int
    ff: int
    zk: int

    def __init__(self, ee, ff, zk):
        vars(self).update(ee=ee, ff=ff, zk=zk)

    @property
    def total(self) -> int:
        return self.ee + self.ff + self.zk

    def __str__(self) -> str:
        return f"E={self.ee}, FF={self.ff}, S={self.zk}"


def orbit_counts(polygon: SemitoricPolygon, x: Fraction) -> OrbitCounts:
    """The non-free circle orbits over the interior column at ``x``.

    Defined for j_min < x < j_max only; any other column raises DomainError.
    """
    x = _exact(x)
    facts = polygon.facts
    if not facts.j_min < x < facts.j_max:
        raise DomainError(f"orbit counts are defined for interior columns only, got x = {describe(x)}")
    verts, kinds = facts.vertices, facts._kinds
    # a doubled vertex reads its first copy's kind, as classify_vertex does
    ee = sum(_class_of(kinds[facts.position(verts[i])]) is not VertexKind.FAKE for i in facts.vertices_at.get(x, ()))
    zk = sum(verts[start].x < x < verts[end].x for _, _, start, end in facts._poles)
    return OrbitCounts(ee=ee, ff=sum(m.multiplicity for m in facts.marks_at.get(x, ())), zk=zk)


def _mark_column_orbits(facts: PolygonFacts) -> list[tuple[Fraction, int, int, int]]:
    """(x, ee, ff, zk) of :func:`orbit_counts` at each mark column of a valid polygon, from its two points.

    Only a mark column can have three non-free orbits: a fake vertex ends a
    cut, and a chain's point on any other interior column is either a
    non-fake vertex (one elliptic-elliptic orbit) or inside at most one
    k-run (one orbit of finite isotropy).  A point is inside a k-run where
    it lies inside an edge of first component >= 2 or on a fake joint of two
    such edges (a fake vertex joins edges of equal first components), so
    the tangent left of it (``PolygonFacts.sides``) decides.
    """
    out = []
    for (x, marks), slice_, sides in zip(facts.marks_at.items(), facts.heights.values(), facts.sides):
        ee = [v is not None and facts._kinds[v] is not VertexKind.FAKE for v in slice_[2:4]]
        zk = sum(abs(u.a) >= 2 for elliptic, (_, u, _) in zip(ee, sides) if not elliptic)
        out.append((x, sum(ee), sum(m.multiplicity for m in marks), zk))
    return out


class AdaptabilityVerdict(_Record):
    """The adaptability verdict, the columns of three or more non-free orbits, and the Delzant sign vectors."""

    adaptable: bool
    violating_levels: tuple[tuple[Fraction, OrbitCounts], ...]
    delzant_signs: SignProduct  # built on access, see _delzant_signs
    criteria_agree: bool

    def __init__(self, adaptable, violating_levels, delzant_signs, criteria_agree):
        vars(self).update(adaptable=adaptable, violating_levels=violating_levels, delzant_signs=delzant_signs,
                          criteria_agree=criteria_agree)


class CriteriaDisagreement(SemitoricError):
    """The orbit-count and Delzant-presentation criteria returned different verdicts."""


def adaptability(polygon: SemitoricPolygon) -> AdaptabilityVerdict:
    """Decide extendability of the circle action, by both criteria.

    (i)  every interior column carries at most two non-free orbits;
    (ii) some presentation in the (unit-split) cut family is Delzant.

    Both are polynomial in the number of focus-focus points, and neither
    depends on a mark's multiplicity.  Raises ValidationFailure when the
    polygon is invalid, and CriteriaDisagreement when the two verdicts
    differ, which signals a bug rather than a legal state.
    """
    orbits = _mark_column_orbits(require_valid(polygon).facts)
    violating = [(x, OrbitCounts(ee=ee, ff=ff, zk=zk)) for x, ee, ff, zk in orbits if ee + ff + zk >= 3]
    by_counts = not violating
    delzant = _delzant_signs(polygon)
    by_existence = bool(delzant)
    if by_counts != by_existence:
        raise CriteriaDisagreement(
            f"orbit counting says {'adaptable' if by_counts else 'non-adaptable'} but "
            f"{delzant.size} Delzant presentations were found"
        )
    return AdaptabilityVerdict(
        adaptable=by_counts,
        violating_levels=tuple(violating),
        delzant_signs=delzant,
        criteria_agree=True,
    )


def self_intersection(polygon: SemitoricPolygon, side: Literal["left", "right"]) -> int:
    """Self-intersection number of the fixed sphere over a vertical edge.

    With bottom-outgoing primitive (1, a) and top-outgoing primitive (1, b)
    at the left vertical edge the value is a - b; the right side is the
    x-reflection of the same formula.  Its absolute value always equals
    |det| of the two outgoing primitives.
    """
    facts = polygon.facts
    verticals = facts._verticals  # raises GeometryError on a degenerate polygon
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    edge = verticals[side == "right"]
    if edge is None:
        raise DomainError(f"no vertical edge on the {side} side")
    # the non-vertical edge leaving each endpoint, bottom endpoint first
    bottom_out, top_out = (next(d for d in _outgoing(facts, end) if d.a) for end in edge)
    return bottom_out.b - top_out.b
