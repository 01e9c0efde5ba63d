"""Cut switches, presentation enumeration, and shear normal forms.

Flipping the cut of mark i applies the piecewise vertical shear with pivot
at the mark's column and coefficient (old sign) * (multiplicity): identity
left of the column, a unipotent shear right of it.  Switches at distinct
marks commute, so each of the 2^m presentations of the family is built from
its sign vector in one pass over the mark columns: every point moves by the
sum of the shears pivoting left of it (a slope and a reduced integer
offset, applied by ``GlobalShear``'s one point formula), and only a point
on a flipped column can become or stop being a vertex, where its integer
tangents still turn.  The pass takes each chain's vertices by position, up
to the index the heights walk recorded at each flipped column, so no chain
is copied.  A ``SignProduct`` lists the family, building each member when
it is read.

The family exists only for a valid polygon (``enumerate_presentations`` and
``switch_cut`` refuse an invalid one with ValidationFailure, from the
report kept on it), and every member is valid: a switch changes the polygon
near its column only, where the column rule (:func:`_local_verdict`, an
O(1) look at the column's ``PolygonFacts.sides``) decides smoothness and
raises PresentationError where a presentation is invalid.  That verdict
and the column's turns depend only on the column and its coefficient, so a
listing decides each such pair once, and no member is re-validated.

The Delzant search (:func:`_delzant_signs`, read by ``adaptability``) and
the Delzant listing (:func:`delzant_presentations`) share one pass over the
mark columns (:func:`_smooth_columns`): the column rule at the up-counts 0,
1, k - 1 and k of a column of k points decides the whole range and builds
nothing, and only columns of one or two points can be Delzant, because a
smooth corner ends at most one cut.  The listing builds each distinct
Delzant member once from those verdicts, in one sweep.

The shear normal form reads only vertex 0 and the direction of edge 0,
which no switch moves, and a global shear commutes with every switch, so
one shear (:func:`_normal_shear`) normalises every member of a family: the
pass starts at that shear, and each member lands in normal form directly.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from itertools import chain, combinations
from math import gcd, prod
from typing import Iterator, Optional

from .errors import ClassificationError, DomainError, PresentationError
from .geometry import GlobalShear, LatticeVector, Point, _Record, _shear_point, describe, det2, shear_vector
from .polygon import MarkedPoint, PolygonFacts, SemitoricPolygon, _mark_key, require_valid
from .vertices import is_smooth_class, lattice_class


class SignProduct(_Record, Sequence):
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
    base: Optional[SemitoricPolygon]

    def __init__(self, factors, base=None):
        vars(self).update(factors=factors, base=base)

    @property
    def size(self) -> int:
        return prod(len(factor) for factor in self.factors)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return all(self.factors)

    def __getitem__(self, index):
        codes = range(self.size)[index]
        return tuple(map(self._at, codes)) if isinstance(index, slice) else self._at(codes)

    def _at(self, code: int, turns: Optional[dict] = None):
        blocks = []
        for factor in self.factors:
            code, digit = divmod(code, len(factor))
            blocks.append(factor[digit])
        signs = tuple(chain.from_iterable(blocks))
        return signs if self.base is None else (signs, _flip_cuts(self.base, signs, None, None, turns))

    def __iter__(self) -> Iterator:
        turns: dict = {}  # each flipped column's verdict, decided once for this listing (see _flip_cuts)
        return (self._at(code, turns) for code in range(self.size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, SignProduct)):
            return NotImplemented
        size = other.size if isinstance(other, SignProduct) else len(other)
        return self.size == size and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class PresentationSet(_Record):
    """All cut-sign presentations of one polygon.

    ``members`` pairs each sign vector (in the base polygon's mark order)
    with the corresponding polygon, built when read; member 0 is the base
    itself and the family is ordered by binary counting over flipped entries.
    """

    base: SemitoricPolygon
    members: SignProduct

    def __init__(self, base, members):
        vars(self).update(base=base, members=members)


def transform_polygon(polygon: SemitoricPolygon, shear: GlobalShear) -> SemitoricPolygon:
    """Apply a global vertical-line-preserving map to vertices and marks."""
    return SemitoricPolygon._canonical(  # a shear keeps the order of the points: no vertical line moves
        tuple(shear.apply(v) for v in polygon.vertices),
        tuple(MarkedPoint(shear.apply(m.position), m.multiplicity, m.cut_sign) for m in polygon.marks),
    )


def _local_verdict(sides: Sequence[tuple[Point, LatticeVector, LatticeVector]], k: int, ups: int, shift: int) -> bool:
    """Whether the presentation that moves this column's up-count by ``shift``
    is smooth on the column; PresentationError where that presentation is invalid.

    ``sides`` is the ``PolygonFacts.sides`` entry of a valid polygon at a column of
    ``k`` focus-focus points, ``ups`` of them cut upward.  The switch shears
    the boundary right of the column by -shift, so only each side's right
    tangent w turns.  Where the boundary then runs straight the point is no
    vertex, and invalid if a cut ends there; where it turns the wrong way
    the polygon is reflex.  A corner takes the class of its new frame and of
    the cuts ending there: the new up-count at the top, the rest at the
    bottom.
    """
    up = ups + shift
    smooth = True
    for (point, u, w), inward, degree, sign in zip(sides, (1, -1), (k - up, up), (-1, 1)):
        w = shear_vector(w, -shift)
        turn = inward * det2(u, w)  # > 0: a convex corner
        if turn < 0 or (turn == 0 and degree):
            break
        if turn:
            try:
                corner = lattice_class(point, u, w, degree, sign)
            except ClassificationError:
                break
            smooth = is_smooth_class(corner) and smooth
    else:
        return smooth
    raise PresentationError(f"up-count shift {shift} at x = {describe(sides[0][0].x)}: invalid presentation")


def _counts(column: Sequence[MarkedPoint]) -> tuple[int, int]:
    """(k, ups) of a mark column: its number of focus-focus points, and how many of them are cut upward."""
    return sum(m.multiplicity for m in column), sum(m.multiplicity for m in column if m.cut_sign > 0)


def _turns(sides: Sequence[tuple[Point, LatticeVector, LatticeVector]], coefficient: int) -> tuple[bool, ...]:
    """Whether a column's bottom and top point still turn, det2(u, w) != 0, once w is sheared by ``coefficient``."""
    return tuple(bool(det2(u, shear_vector(w, coefficient))) for _, u, w in sides)


def _flip_cuts(
    polygon: SemitoricPolygon, signs: Sequence[int], start: Optional[GlobalShear] = None,
    columns: Optional[Iterable[Sequence[MarkedPoint]]] = None, turns: Optional[dict] = None,
) -> SemitoricPolygon:
    """The presentation of a valid polygon with these cut signs, moved by the global
    shear ``start`` when one is given; the polygon itself when neither changes it.

    ``columns`` holds each mark column's marks, one sign each: the polygon's
    own (``PolygonFacts.marks_at``) by default, or each column's
    :func:`_unit_marks`, for a member of the unit-split family.  One pass
    over the columns moves every point by ``start`` and the shears of the
    flipped columns left of it: at each flipped column it takes each chain's
    points up to the index the heights walk recorded there, then the
    column's own point where it still turns.  ``turns`` keeps that per
    (column index, coefficient) for one listing; the column rule checks a
    missing pair first and raises PresentationError where it fails.
    """
    facts = polygon.facts
    if columns is None:
        if start is None and all(mark.cut_sign == sign for mark, sign in zip(polygon.marks, signs)):
            return polygon
        columns = facts.marks_at.values()
    turns = {} if turns is None else turns
    verts, positions = facts.vertices, facts._positions  # each chain's vertex positions, left to right
    # GlobalShear (slope, on / od): ``start``, plus c * (x - x_c) for each flipped column x_c left of the point
    slope, on, od = (start.slope, *start.offset.as_integer_ratio()) if start is not None else (0, 0, 1)
    images, taken, moved = ([], []), [0, 0], []  # each chain's image and how many of its points it has; the marks
    signs = iter(signs)  # each column's zip(column, signs) takes that column's signs: zip tries ``column`` first
    for i, (x, column, slice_, sides) in enumerate(zip(facts.marks_at, columns, facts.heights.values(), facts.sides)):
        coefficient = 0
        for mark, sign in zip(column, signs):
            if sign != mark.cut_sign:
                coefficient += mark.cut_sign * mark.multiplicity
            # the shears left and right of the mark's own column agree on it
            moved.append(MarkedPoint._checked(_shear_point(mark.position, slope, on, od), mark.multiplicity, sign))
        if len(column) > 1:  # coincident marks whose signs changed may be out of order; the rest are sorted
            moved[-len(column) :] = sorted(moved[-len(column) :], key=_mark_key)
        if not coefficient:
            continue  # the shear runs on across the column, and so does each chain
        if (turning := turns.get((i, coefficient))) is None:
            _local_verdict(sides, *_counts(column), -coefficient)
            turning = turns[i, coefficient] = _turns(sides, coefficient)
        for side, (image, at, (point, _, _), turn) in enumerate(zip(images, positions, sides, turning)):
            # the chain's points since the last flipped column, then its point on this one where it still turns
            k = slice_[4 + side]
            image += [_shear_point(verts[j], slope, on, od) for j in at[taken[side] : k]]
            if turn:
                image.append(_shear_point(point, slope, on, od))
            taken[side] = k + (slice_[2 + side] is not None)
        p, q = x.as_integer_ratio()
        on, od, slope = on * q - coefficient * p * od, od * q, slope + coefficient
        on, od = on // (g := gcd(on, od)), od // g
    for image, at, k in zip(images, positions, taken):  # the points right of the last flipped column
        image += [_shear_point(verts[j], slope, on, od) for j in at[k:]]
    (bottom, top), (left, right) = images, facts._verticals
    # the chains share their end points where no vertical edge joins them
    if right is None:
        bottom.pop()
    if left is None:
        top = top[1:]
    return SemitoricPolygon._canonical(tuple(bottom + top[::-1]), tuple(moved))  # vertex 0 is still the smallest


def switch_cut(polygon: SemitoricPolygon, index: int) -> SemitoricPolygon:
    """Flip the cut sign of mark ``index``, reshaping the polygon to match.

    An involution: switching the same index twice restores the polygon.
    Raises ValidationFailure when the polygon is invalid.
    """
    require_valid(polygon)
    if not 0 <= index < len(polygon.marks):
        raise DomainError(f"mark index {index} out of range (have {len(polygon.marks)} marks)")
    return _flip_cuts(polygon, [-m.cut_sign if i == index else m.cut_sign for i, m in enumerate(polygon.marks)])


def enumerate_presentations(polygon: SemitoricPolygon) -> PresentationSet:
    """All 2^m presentations reachable by switching the polygon's mark entries.

    Raises ValidationFailure when the polygon is invalid.
    """
    require_valid(polygon)
    factors = tuple(((mark.cut_sign,), (-mark.cut_sign,)) for mark in polygon.marks)
    return PresentationSet(base=polygon, members=SignProduct(factors, polygon))


def _column_blocks(signs: Sequence[int], ups: Collection[int]) -> tuple[tuple[int, ...], ...]:
    """The column's sign patterns with an up-count in ``ups``, in increasing flip code (bit b: mark b flipped)."""
    # chosen by which marks point up, so the cost is the number listed, never 2^k: a smooth
    # corner ends at most one cut, so a column with a smooth up-count lists at most four
    now_up = sum(1 << b for b, s in enumerate(signs) if s > 0)
    codes = sorted(sum(1 << b for b in up) ^ now_up for u in ups for up in combinations(range(len(signs)), u))
    return tuple(tuple(-s if code >> b & 1 else s for b, s in enumerate(signs)) for code in codes)


def _delzant_signs(polygon: SemitoricPolygon) -> SignProduct:
    """The sign vector of each Delzant presentation of a valid polygon.

    The existence criterion quantifies over the unit-split family, where
    coincident focus-focus points take independent cut signs, so a sign
    vector has one entry per unit mark, in the mark order of
    :func:`split_marks`.  Flipping unit mark i is bit i of a code, and sign
    vectors come in increasing code order, each built when read, so their
    number may pass 2^64.

    A switch at column x shears the half-plane right of x unimodularly, so
    no boundary point off column x changes class, smoothness or validity,
    and near x the presentation depends only on the column's up-count u, one
    of 0..k for k points (the column rule :func:`_local_verdict`, an
    O(1) look at the column's bottom and top point, whose verdicts the
    Delzant listing reuses).  The up-counts 0, 1, k - 1 and k decide the whole range:

    * each side's turn is linear in u, and while cuts still end at a corner
      its class does not depend on u (in every presentation the bottom
      corner's cuts shear its frame by ups - k and the top's by ups, ups
      the current up-count), so 0 and k - 1 decide the bottom's validity
      for u < k, 1 and k the top's for u > 0;
    * a smooth corner ends at most one cut, so a smooth up-count has both
      cut degrees k - u and u at most 1: it is one of the four, and there is
      one only where k <= 2, the only columns whose unit signs are listed.

    Every member of a valid polygon's family is valid, and no presentation
    is built, nor the unit-split polygon.  Off the mark columns no cut ends,
    so there a valid polygon's vertices are Delzant, hence smooth, in every
    member: only the mark columns are searched.
    """
    # the first column's bits are the lowest, so it varies fastest
    return SignProduct(tuple(patterns for _, _, patterns in _smooth_columns(polygon.facts)))


def _smooth_columns(facts: PolygonFacts) -> list[tuple[tuple[MarkedPoint, ...], int, tuple[tuple[int, ...], ...]]]:
    """The one pass of the Delzant search and listing: at each mark column of a valid polygon, in mark order, its
    unit marks (none where no up-count is smooth), its up-count, and the signs of every flip pattern that keeps its
    points smooth (:func:`_delzant_signs`), from the column rule at the up-counts 0, 1, k - 1 and k."""
    out = []
    for column, sides in zip(facts.marks_at.values(), facts.sides):
        k, ups = _counts(column)
        smooth = [u for u in sorted({0, 1, k - 1, k}) if _local_verdict(sides, k, ups, u - ups)]
        units = _unit_marks(column) if smooth else ()  # so k <= 2 where any is smooth
        out.append((units, ups, _column_blocks(tuple(m.cut_sign for m in units), smooth)))
    return out


def delzant_presentations(polygon: SemitoricPolygon) -> tuple[SemitoricPolygon, ...]:
    """All Delzant members of the cut family, in shear normal form, deduplicated, in first-seen order.

    Each member is built once, in one sweep, from the search's verdicts (the
    column rule runs once per column, in the search), and none is hashed:
    two sign vectors give equal members exactly when they give each column
    the same marks, so each column keeps its first sign pattern per marks.
    The CLI streams the same members.  Raises ValidationFailure when the
    polygon is invalid.
    """
    return tuple(_distinct_delzant(polygon))


def _distinct_delzant(polygon: SemitoricPolygon) -> Iterator[SemitoricPolygon]:
    """The members of :func:`delzant_presentations`, each built when read; ValidationFailure at the call."""
    columns = _smooth_columns(require_valid(polygon).facts)
    if not all(patterns for _, _, patterns in columns):  # no Delzant member
        return iter(())
    factors, turns = [], {}  # each column's distinct patterns; see _flip_cuts
    for i, ((units, ups, patterns), sides) in enumerate(zip(columns, polygon.facts.sides)):
        ys, firsts = [m.position.y for m in units], {}
        for pattern in patterns:  # a pattern's marks are its (y, sign) pairs, in any order
            firsts.setdefault(tuple(sorted(zip(ys, pattern))), pattern)
            turns[i, ups - pattern.count(1)] = _turns(sides, ups - pattern.count(1))  # found smooth by the search
        factors.append(tuple(firsts.values()))  # an index rises with each column's digit: each member first seen
    shear = _normal_shear(polygon)  # a switch moves neither vertex 0 nor edge 0's direction: one shear for all
    marks = [units for units, _, _ in columns]
    return (_flip_cuts(polygon, signs, shear, marks, turns) for signs in SignProduct(tuple(factors)))


def split_marks(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """Expand every mark of multiplicity m into m unit marks at the same spot.

    The polygon and all its invariants are unchanged; only the sign choices
    reachable by switching become finer (one per underlying focus-focus
    point instead of one per entry).  A polygon whose marks are all unit
    marks already is returned as it is, with the facts it has computed.
    """
    if all(mark.multiplicity == 1 for mark in polygon.marks):
        return polygon
    return SemitoricPolygon._canonical(polygon.vertices, _unit_marks(polygon.marks))


def _unit_marks(marks: Iterable[MarkedPoint]) -> tuple[MarkedPoint, ...]:
    """The marks of :func:`split_marks`: each mark of multiplicity m as m unit marks, in polygon mark order."""
    units = (MarkedPoint(mark.position, 1, mark.cut_sign) for mark in marks for _ in range(mark.multiplicity))
    return tuple(sorted(units, key=_mark_key))


def _normal_shear(polygon: SemitoricPolygon) -> GlobalShear:
    """The global shear that takes the polygon to its shear normal form.

    It reads only vertex 0 and the direction of edge 0, which no cut switch
    moves (vertex 0 is on the J_min column, left of every mark), so one
    shear serves every member of a cut family.
    """
    facts = polygon.facts
    first = facts.vertices[facts._positions[0][0]]  # raises GeometryError on a degenerate polygon
    tangent = facts.edges[0]  # the bottom chain starts with the edge from vertex 0
    slope = -(tangent.b // tangent.a)
    return GlobalShear(slope, -(slope * first.x + first.y))


def shear_normal_form(polygon: SemitoricPolygon) -> SemitoricPolygon:
    """The canonical global-shear translate of a presentation.

    Normal form: the bottom boundary point on the J_min column has y = 0,
    and the first non-vertical bottom edge's primitive tangent (p, q)
    satisfies 0 <= q < p.  Idempotent; two presentations with the same cuts
    have equal normal forms exactly when they differ by a global shear.
    """
    return transform_polygon(polygon, _normal_shear(polygon))
