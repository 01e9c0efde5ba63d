"""Reference adaptability search, used as an oracle.

This is the library's earlier Delzant-presentation search: it builds all
2^m presentations of the unit-split marks with the reference builder of
``presentation_oracle``, which re-validates each, and keeps the Delzant
ones, so its cost doubles with each focus-focus point.  The library now
searches one column at a time; the differential tests check that both give
the same verdicts, sign vectors, presentations and errors on families small
enough to enumerate.  Its orbit counts are the library's earlier rule too,
read from public readers alone: the classes of the column's vertices and
the spans of the k-runs.
"""

import presentation_oracle
from semitoric import (
    AdaptabilityVerdict,
    CriteriaDisagreement,
    OrbitCounts,
    SemitoricPolygon,
    VertexKind,
    classify_vertex,
    is_delzant_polygon,
    require_valid,
    shear_normal_form,
    split_marks,
    zk_chains,
)


def orbit_counts(polygon: SemitoricPolygon, x) -> OrbitCounts:
    """The non-free circle orbits over the interior column at ``x``: one elliptic-elliptic orbit per
    non-fake vertex on the column, classified in polygon order, one per mark multiplicity, and one per
    k-run whose open span covers the column."""
    ee = sum(classify_vertex(polygon, v).kind is not VertexKind.FAKE for v in polygon.vertices if v.x == x)
    zk = sum(chain.start_vertex.x < x < chain.end_vertex.x for chain in zk_chains(polygon))
    return OrbitCounts(ee=ee, ff=sum(m.multiplicity for m in polygon.marks if m.position.x == x), zk=zk)


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
