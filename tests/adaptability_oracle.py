"""Reference adaptability search, used as an oracle.

This is the library's earlier Delzant-presentation search, kept verbatim:
it builds and re-validates all 2^m presentations of the unit-split marks
and keeps the Delzant ones, so it refuses more than 16 focus-focus points.
The library now searches one column at a time; the differential tests
check that both give the same verdicts, sign vectors, presentations and
errors wherever this enumeration is inside its bound.
"""

from semitoric import (
    AdaptabilityVerdict,
    CriteriaDisagreement,
    DomainError,
    SemitoricPolygon,
    enumerate_presentations,
    is_delzant_polygon,
    orbit_counts,
    shear_normal_form,
    split_marks,
)

ENUMERATION_LIMIT = 16


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
