"""Reference adaptability search, used as an oracle.

This is the library's earlier Delzant-presentation search: it builds all
2^m presentations of the unit-split marks with the reference builder of
``presentation_oracle``, which re-validates each, and keeps the Delzant
ones, so its cost doubles with each focus-focus point.  The library now
searches one column at a time; the differential tests check that both give
the same verdicts, sign vectors, presentations and errors on families small
enough to enumerate.
"""

import presentation_oracle
from semitoric import (
    AdaptabilityVerdict,
    CriteriaDisagreement,
    SemitoricPolygon,
    is_delzant_polygon,
    orbit_counts,
    require_valid,
    shear_normal_form,
    split_marks,
)


def _delzant_members(polygon: SemitoricPolygon):
    """Delzant presentations over unit-split marks, with their sign vectors.

    Splitting lets coincident focus-focus points take independent cut signs,
    which is the family the existence criterion quantifies over.
    """
    # every member is built, in code order, before any is tested: the first
    # invalid presentation raises before a Delzant test can
    members = presentation_oracle.members(split_marks(polygon))
    return [(signs, member) for signs, member in members if is_delzant_polygon(member)]


def adaptability(polygon: SemitoricPolygon) -> AdaptabilityVerdict:
    """Decide extendability of the circle action, by both criteria.

    (i)  every interior column carries at most two non-free orbits;
    (ii) some presentation in the (unit-split) cut family is Delzant.

    Raises ValidationFailure when the polygon is invalid, and
    CriteriaDisagreement when the two verdicts differ.
    """
    facts = require_valid(polygon).facts
    violating = []
    for x in facts.columns:
        if not facts.j_min < x < facts.j_max:
            continue
        counts = orbit_counts(polygon, x)
        if counts.total >= 3:
            violating.append((x, counts))
    by_counts = not violating
    delzant = _delzant_members(polygon)
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


def delzant_presentations(polygon: SemitoricPolygon) -> tuple[SemitoricPolygon, ...]:
    """All Delzant members of the cut family, in shear normal form, deduplicated."""
    out = []
    for _, member in _delzant_members(require_valid(polygon)):
        normal = shear_normal_form(member)
        if normal not in out:
            out.append(normal)
    return tuple(out)
