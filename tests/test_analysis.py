import io
import json
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cache
from math import ceil, log2
from operator import attrgetter

import pytest
from hypothesis import given, settings

import adaptability_oracle
import presentation_oracle
from conftest import (
    corpus_polygons_under_ops,
    focus_ladder,
    multi_column_polygons,
    multiplicity_probe,
    same_answers_tool,
)
from karshon_dh_oracle import dh_from_graph
from semitoric import (
    ClassificationError,
    DomainError,
    GeometryError,
    MarkedPoint,
    OrbitCounts,
    Point,
    PresentationError,
    SemitoricPolygon,
    ValidationFailure,
    VertexKind,
    adaptability,
    build_graph,
    classify_vertex,
    delzant_presentations,
    det2,
    dh_function,
    dh_jump_report,
    enumerate_presentations,
    is_smooth_vertex,
    orbit_counts,
    outgoing_primitives,
    parse_polygon,
    primitive,
    primitive_direction,
    self_intersection,
    serialize_polygon,
    slice_heights,
    split_marks,
    switch_cut,
    validate,
    vertical_edge_endpoints,
)


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


class TestDhFunction:
    def test_examples(self, corpus):
        ff1 = dh_function(corpus["FF1"])
        assert ff1.breakpoints == (0, 1, 2)
        assert ff1.values == (0, Fraction(1, 2), 0)
        square = dh_function(corpus["SQUARE"])
        assert square.breakpoints == (0, 1)
        assert square.values == (1, 1)
        na3 = dh_function(corpus["NONADAPT3"])
        assert na3.breakpoints == (0, 1, 2)
        assert na3.values == (4, 4, 1)

    def test_extreme_values_match_fat_areas(self, corpus):
        from semitoric import boundary_chains

        for polygon in corpus.values():
            density = dh_function(polygon)
            chains = boundary_chains(polygon)
            left = chains.left_vertical
            right = chains.right_vertical
            assert density.values[0] == (left[1].y - left[0].y if left else 0)
            assert density.values[-1] == (right[1].y - right[0].y if right else 0)

    def test_value_interpolation(self, corpus):
        density = dh_function(corpus["FF1"])
        assert density.value_at(Fraction(1, 2)) == Fraction(1, 4)
        assert density.value_at(Fraction(3, 2)) == Fraction(1, 4)

    def test_value_at_breakpoints_and_outside(self, corpus):
        density = dh_function(corpus["FF1"])
        assert [density.value_at(x) for x in density.breakpoints] == list(density.values)
        for x, message in ((Fraction(-1, 2), "-1/2 outside [0, 2]"), (Fraction(3), "3 outside [0, 2]")):
            with pytest.raises(DomainError) as exc:
                density.value_at(x)
            assert str(exc.value) == message

    def test_built_once_per_polygon(self, chopped_polygons):
        # a later call shares the kept values, so one value_at costs a bisection; the record stays frozen
        from dataclasses import FrozenInstanceError

        polygon = chopped_polygons[1]
        first, second = dh_function(polygon), dh_function(polygon)
        assert first == second and first.values is second.values and len(first.values) > 200
        assert second.values == tuple(Fraction(n, d) for _, _, n, d, *_ in polygon.facts._slices)
        with pytest.raises(FrozenInstanceError):
            first.values = ()

    def test_mark_off_the_moment_interval(self, corpus):
        polygon = SemitoricPolygon(corpus["FF1"].vertices, (MarkedPoint(Point(Fraction(3), Fraction(0))),))
        with pytest.raises(DomainError) as exc:
            dh_function(polygon)
        assert str(exc.value) == "x = 3 is outside the moment interval [0, 2]"


class TestDhFromGraph:
    """The DH function rebuilt from Karshon's graph alone equals the polygon's."""

    def test_corpus_fuzz_and_multi_column(self, corpus, derived_polygons):
        polygons = list(corpus.values()) + derived_polygons + multi_column_polygons(200)
        for polygon in polygons:
            assert dh_from_graph(build_graph(polygon)) == dh_function(polygon), polygon

    @settings(max_examples=100, deadline=None)
    @given(corpus_polygons_under_ops())
    def test_drawn_polygons(self, polygon):
        assert dh_from_graph(build_graph(polygon)) == dh_function(polygon)

    def test_unchanged_by_switch_cut(self, corpus, derived_polygons):
        # a vertical shear keeps every slice length
        switched = 0
        for polygon in list(corpus.values()) + derived_polygons:
            for index in range(len(polygon.marks)):
                assert dh_function(switch_cut(polygon, index)) == dh_function(polygon), (polygon, index)
                switched += 1
        assert switched > 100


class TestJumpReport:
    def test_pinned_values(self, corpus):
        ff1 = dh_jump_report(corpus["FF1"])
        (entry,) = ff1.entries
        assert entry.x == 1 and entry.observed == -1 and entry.predicted == -1

        hd1down = dh_jump_report(corpus["HD1DOWN"])
        (entry,) = hd1down.entries
        assert entry.observed == -2
        assert entry.e_top == 1 and entry.e_bottom == 0 and entry.focus_multiplicity == 1

        na3 = dh_jump_report(corpus["NONADAPT3"])
        (entry,) = na3.entries
        assert entry.observed == -3 and entry.predicted == -3

    def test_consistent_on_corpus_and_presentations(self, corpus):
        for polygon in corpus.values():
            for _, member in enumerate_presentations(polygon).members:
                report = dh_jump_report(member)
                assert report.consistent, (polygon, member)


def assert_two_sided(polygon):
    """Each jump entry against data the report does not read: the density's public values, the vertex classes,
    the outgoing primitives and the marks."""
    density, report = dh_function(polygon), dh_jump_report(polygon)
    xs, ys = density.breakpoints, density.values
    quotients = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    vertices = set(polygon.vertices)
    assert [entry.x for entry in report.entries] == list(xs[1:-1])
    for i, entry in enumerate(report.entries, 1):
        fields = (entry.x, entry.left_slope, entry.right_slope, entry.observed, entry.predicted, entry.e_top,
                  entry.e_bottom)
        assert all(type(value) is Fraction for value in fields) and type(entry.focus_multiplicity) is int
        assert (entry.left_slope, entry.right_slope) == (quotients[i - 1], quotients[i])
        assert entry.observed == entry.right_slope - entry.left_slope
        bottom, top = slice_heights(polygon, entry.x)
        for y, weight in ((top, entry.e_top), (bottom, entry.e_bottom)):
            point = Point(entry.x, y)
            if point in vertices and classify_vertex(polygon, point).kind is not VertexKind.FAKE:
                u, w = outgoing_primitives(polygon, point)
                assert weight == Fraction(-1, u.a * w.a), (polygon, point)
            else:
                assert weight == 0, (polygon, point)
        assert entry.focus_multiplicity == sum(m.multiplicity for m in polygon.marks if m.position.x == entry.x)
        assert entry.predicted == -entry.e_top - entry.e_bottom - entry.focus_multiplicity
    assert report.consistent, polygon
    return report


class TestJumpReportTwoSided:
    """The report's integer pass against the public data, on validated polygons and on the same polygons
    unvalidated (no report kept)."""

    def test_corpus_fuzz_multi_column_and_chopped(self, corpus, derived_polygons, chopped_polygons):
        polygons = list(corpus.values()) + derived_polygons + multi_column_polygons(200) + chopped_polygons
        entries = 0
        for polygon in polygons:
            validated = parse_polygon(serialize_polygon(polygon))
            report = assert_two_sided(validated)
            unvalidated = SemitoricPolygon(polygon.vertices, polygon.marks)
            assert dh_jump_report(unvalidated) == report and "_report" not in vars(unvalidated)
            entries += len(report.entries)
        assert max(len(p.vertices) for p in polygons) == 256 and entries > 1500

    def test_a_tampered_slice_length_shows(self):
        # a slice length moves the slopes either side of its column, so the entries of that column and of its two
        # neighbours turn False, and no other; the public density keeps its values
        polygon = focus_ladder([1, 2, 1, 1])
        clean = dh_jump_report(polygon)
        assert clean.consistent and len(clean.entries) == 4
        length = dh_function(polygon).values[2]  # the density is kept once built, so the tamper reaches the pass alone
        p, q, n, d, *ends = polygon.facts._slices[2]
        polygon.facts._slices[2] = (p, q, n + d, d, *ends)
        tampered = dh_jump_report(polygon)
        assert [entry.consistent for entry in tampered.entries] == [False, False, False, True]
        assert not tampered.consistent and dh_function(polygon).values[2] == length
        assert [e.predicted for e in tampered.entries] == [e.predicted for e in clean.entries]

    def test_a_tampered_slice_length_shows_in_the_cli(self, monkeypatch):
        # the command line writes each row's verdict from the same integer pass: the same three rows and the
        # document's verdict turn false, and every predicted jump stays
        import semitoric.cli as cli

        def dh(polygon):
            monkeypatch.setattr(cli, "_load", lambda source: polygon)
            out = io.StringIO()
            assert cli.run_cli(["dh", "tampered"], out, io.StringIO()) == 0
            return out.getvalue(), json.loads(out.getvalue())

        polygon = focus_ladder([1, 2, 1, 1])
        _, clean = dh(polygon)
        p, q, n, d, *ends = polygon.facts._slices[2]
        polygon.facts._slices[2] = (p, q, n + d, d, *ends)
        text, tampered = dh(polygon)
        assert [row["consistent"] for row in tampered["jumps"]] == [False, False, False, True]
        assert tampered["consistent"] is False and text.count('"consistent":false') == 4
        assert [row["predicted"] for row in tampered["jumps"]] == [row["predicted"] for row in clean["jumps"]]
        assert clean["consistent"] is True and tampered["values"][2] == str(Fraction(n + d, d))


# (polygon, error of dh_function, error of dh_jump_report, message), as the Fraction-arithmetic DH raised them
_HOUSE = (pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 2), pt(0, 1))  # the top corner (1, 2) has |det(u w)| = 2
_NOTCHED = (pt(0, 0), pt(2, 0), pt(3, 1), pt(2, 2), pt(0, 2))  # Delzant at x = 2, not at the right tip
_CLOCKWISE = "degenerate polygon: vertices are listed in clockwise order"
_DH_ERRORS = {
    "clockwise": (SemitoricPolygon((pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0))), GeometryError, GeometryError, _CLOCKWISE),
    "clockwise-with-mark": (SemitoricPolygon((pt(0, 0), pt(0, 2), pt(2, 2), pt(2, 0)), (MarkedPoint(pt(1, 1)),)),
                            GeometryError, GeometryError, _CLOCKWISE),
    "duplicate-vertex": (SemitoricPolygon((pt(0, 0), pt(1, 0), pt(1, 0), pt(0, 1))), GeometryError, GeometryError,
                         "degenerate polygon: vertices are not pairwise distinct"),
    "mark-off-the-interval": (SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 1)), (MarkedPoint(pt(3, 0)),)), DomainError,
                              DomainError, "x = 3 is outside the moment interval [0, 2]"),
    "det-2-corner": (SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1))), None, ClassificationError,
                     "(1, 0): no cuts end here and |det(u w)| = 2, not 1"),
    "det-2-corner-and-cut-off-a-vertex": (SemitoricPolygon(_HOUSE, (MarkedPoint(pt(Fraction(1, 2), 1)),)), None,
                                          ClassificationError, "(1, 2): no cuts end here and |det(u w)| = 2, not 1"),
    "cut-off-a-vertex": (SemitoricPolygon(_NOTCHED, (MarkedPoint(pt(1, 1)),)), None, None, None),
}


@pytest.mark.parametrize("polygon, density_error, report_error, message", _DH_ERRORS.values(), ids=_DH_ERRORS)
def test_dh_errors_on_unvalidated_polygons(polygon, density_error, report_error, message):
    # each invalid polygon unvalidated, then with its invalid report kept: the density and the report raise as the
    # Fraction-arithmetic DH did, and the notched polygon's report shows its cut off a vertex without an error
    for validated in (False, True):
        fresh = SemitoricPolygon(polygon.vertices, polygon.marks)
        assert not validated or not validate(fresh).valid
        if density_error:
            with pytest.raises(density_error) as exc:
                dh_function(fresh)
            assert str(exc.value) == message
        else:
            assert dh_function(fresh).breakpoints == tuple(sorted({v.x for v in polygon.vertices}
                                                                  | {m.position.x for m in polygon.marks}))
        if report_error:
            with pytest.raises(report_error) as exc:
                dh_jump_report(fresh)
            assert str(exc.value) == message
        else:
            report = dh_jump_report(fresh)
            assert [(e.x, e.observed, e.predicted) for e in report.entries] == [(1, 0, -1), (2, -2, -2)]
        assert ("_report" in vars(fresh)) == validated


def column_families(corpus, derived_polygons):
    """The families of tools/same_answers.py and the multiplicity probe up to k = 64, each also
    with every cut sign flipped (not all of those valid)."""
    same_answers = same_answers_tool()
    ladders = [focus_ladder(jumps) for jumps in same_answers.LADDERS]
    polygons = list(corpus.values()) + derived_polygons + ladders + [same_answers._merged(p) for p in ladders]
    polygons += multi_column_polygons(120, max_marks=8) + multi_column_polygons(60, seed=3, max_marks=8)
    polygons += [multiplicity_probe(k) for k in range(1, 65)]
    flipped = [
        SemitoricPolygon(p.vertices, tuple(MarkedPoint(m.position, m.multiplicity, -m.cut_sign) for m in p.marks))
        for p in polygons
    ]
    return polygons + flipped


def reference_sides(facts):
    """``PolygonFacts.sides`` by a bisection of each chain per mark column, with the tangents
    taken as primitive directions of Fraction differences (the walk reads them off ``facts.edges``)."""

    def side(path, x, y):
        i = bisect_left(path, x, key=attrgetter("x"))  # x is interior: path[i - 1].x < x <= path[i].x
        left, right = path[i - 1], path[i + 1] if path[i].x == x else path[i]
        return Point(x, y), primitive_direction(x - left.x, y - left.y), primitive_direction(right.x - x, right.y - y)

    paths = (facts.chains.bottom, facts.chains.top)
    return tuple(tuple(side(path, x, y) for path, y in zip(paths, facts.heights[x])) for x in facts.marks_at)


def column_verdict(sides, k, ups, shift):
    """The column rule's verdict, None where it raises PresentationError: that presentation is invalid."""
    from semitoric.cuts import _local_verdict

    try:
        return _local_verdict(sides, k, ups, shift)
    except PresentationError:
        return None


class TestMarkColumnRecord:
    """The heights walk's chain indices give the same tangents as searching each chain."""

    def test_sides_match_the_reference(self, corpus, derived_polygons):
        polygons = column_families(corpus, derived_polygons)
        # the sign-flipped invalid polygons whose columns test_local_rule_matches_the_build reads
        for polygon in multi_column_polygons(100, seed=7, max_marks=8):
            marks = list(polygon.marks)
            marks[-1] = MarkedPoint(marks[-1].position, 1, -marks[-1].cut_sign)
            polygons.append(SemitoricPolygon(polygon.vertices, tuple(marks)))
        columns = 0
        for polygon in polygons:
            assert polygon.facts.sides == reference_sides(polygon.facts), polygon
            columns += len(polygon.facts.sides)
        assert columns > 1500


class TestOrbitCounts:
    def test_examples(self, corpus):
        counts = orbit_counts(corpus["NONADAPT3"], Fraction(1))
        assert (counts.ee, counts.ff, counts.zk) == (0, 3, 0)
        counts = orbit_counts(corpus["FF1"], Fraction(1))
        assert (counts.ee, counts.ff, counts.zk) == (0, 1, 1)
        counts = orbit_counts(corpus["HD1"], Fraction(1))
        assert (counts.ee, counts.ff, counts.zk) == (1, 1, 0)

    def test_extremal_rejected(self, corpus):
        with pytest.raises(DomainError):
            orbit_counts(corpus["FF1"], Fraction(0))
        # a doubled vertex reads its first copy, as classify_vertex does: a Delzant corner here, whose
        # second copy's frame does not classify, so the degenerate chains raise
        doubled = SemitoricPolygon((pt(4, -1), pt(3, -1), pt(4, 1), pt(0, 0), pt(3, -1)))
        with pytest.raises(GeometryError, match="degenerate polygon"):
            orbit_counts(doubled, Fraction(3))

    def test_floats_rejected(self, corpus):
        # as for Point: 0.1 is not 1/10, so no column is read from a float
        polygon = corpus["FF1"]
        for query in (
            lambda: orbit_counts(polygon, 0.5),
            lambda: slice_heights(polygon, 0.1),
            lambda: dh_function(polygon).value_at(0.5),
        ):
            with pytest.raises(GeometryError, match="not exact"):
                query()
        assert orbit_counts(polygon, "1") == orbit_counts(polygon, Fraction(1))

    def test_presentation_independent(self, corpus):
        for polygon in corpus.values():
            columns = sorted(
                {v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks}
            )
            interior = [x for x in columns if polygon.j_min < x < polygon.j_max]
            baseline = [orbit_counts(polygon, x) for x in interior]
            for _, member in enumerate_presentations(polygon).members:
                assert [orbit_counts(member, x) for x in interior] == baseline

    def test_structural_bounds(self, corpus, derived_polygons):
        for polygon in list(corpus.values()) + derived_polygons:
            for x in {v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks}:
                if not polygon.j_min < x < polygon.j_max:
                    continue
                counts = orbit_counts(polygon, x)
                assert counts.ee <= 2 and counts.zk <= 2
                if counts.total >= 3:
                    # the six admissible shapes: ff >= 1 and ee + zk <= 2
                    assert counts.ff >= 1
                    assert counts.ee + counts.zk <= 2

    def test_matches_the_reference_rule(self, corpus, derived_polygons, chopped_polygons):
        # the column's two boundary points give the earlier rule's counts, and its errors, in its order
        triangle = SemitoricPolygon((pt(0, 0), pt(2, 0), pt(1, Fraction(1, 2))),
                                    (MarkedPoint(pt(1, Fraction(1, 4)), 1, -1),))  # its k-runs do not extract
        reflex = SemitoricPolygon(tuple(pt(x, y) for x, y in (  # not convex: its chains cannot be walked
            (0, 0), ("4/5", 0), ("24/25", "4/25"), ("-1/3", "6/25"), (1, "13/15"), ("13/15", 1), ("1/5", 1),
            (0, "4/5"))))
        columns = 0
        for polygon in column_families(corpus, derived_polygons) + chopped_polygons + [triangle, reflex]:
            xs = sorted({v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks})
            for x in xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]:
                if polygon.j_min < x < polygon.j_max:
                    expected = outcome(lambda p: adaptability_oracle.orbit_counts(p, x), polygon)
                    assert outcome(lambda p: orbit_counts(p, x), polygon) == expected, (polygon, x)
                    columns += 1
        assert columns > 5000
        assert outcome(lambda p: orbit_counts(p, Fraction(1, 2)), triangle)[0] is ClassificationError
        message = "(0, 4/5) touches a vertical edge at an interior column"
        assert outcome(lambda p: orbit_counts(p, Fraction(0)), reflex) == (ClassificationError, message)

    def test_one_column_compares_logarithmically_many_fractions(self, chopped_polygons, monkeypatch):
        # a bisection along each chain, not a comparison with the poles of every k-run
        queries = []
        for polygon in chopped_polygons:
            xs = polygon.facts.columns
            orbit_counts(polygon, xs[1])  # the first call reads the polygon's facts
            queries += [(polygon, x) for x in xs[1:-1] + tuple((a + b) / 2 for a, b in zip(xs, xs[1:]))]
        counts = Counter()
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            method = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda *args, f=method, name=name: counts.update([name]) or f(*args))
        for polygon, x in queries:
            counts.clear()
            orbit_counts(polygon, x)
            assert sum(counts.values()) <= 2 * ceil(log2(len(polygon.vertices))) + 4, (x, counts)
        assert len(queries) > 1000


class TestAdaptability:
    def test_ff1(self, corpus):
        verdict = adaptability(corpus["FF1"])
        assert verdict.adaptable and verdict.criteria_agree
        assert verdict.delzant_signs == ((-1,),)
        assert not verdict.violating_levels

    def test_nonadapt3(self, corpus):
        verdict = adaptability(corpus["NONADAPT3"])
        assert not verdict.adaptable
        ((x, counts),) = verdict.violating_levels
        assert x == 1 and counts.total == 3
        assert not verdict.delzant_signs

    def test_hd1(self, corpus):
        verdict = adaptability(corpus["HD1"])
        assert verdict.adaptable
        assert verdict.delzant_signs == ((-1,),)

    def test_unsplit_double_mark_agrees_via_splitting(self):
        # one entry of multiplicity two: the Delzant member needs opposite
        # signs at the two underlying points, reached only after splitting
        polygon = SemitoricPolygon(
            (pt(0, 0), pt(1, 0), pt(2, 2)),
            (MarkedPoint(pt(1, Fraction(1, 2)), 2, -1),),
        )
        assert validate(polygon).valid
        verdict = adaptability(polygon)
        assert verdict.adaptable and verdict.criteria_agree
        assert all(len(signs) == 2 for signs in verdict.delzant_signs)
        assert {frozenset(s) for s in verdict.delzant_signs} == {frozenset({-1, 1})}

    def test_no_vertical_edges_implies_adaptable(self, corpus, derived_polygons):
        for polygon in list(corpus.values()) + derived_polygons:
            if not vertical_edge_endpoints(polygon):
                assert adaptability(polygon).adaptable


def outcome(function, polygon):
    """A call's value, or the type and message of what it raised."""
    try:
        return function(polygon)
    except Exception as exc:
        return type(exc), str(exc)


class TestPerColumnSearch:
    """The per-column search answers exactly as building all 2^m presentations."""

    @pytest.fixture
    def oracle(self, monkeypatch):
        # both oracle functions enumerate the same family: build it once per polygon
        monkeypatch.setattr(adaptability_oracle, "_delzant_members", cache(adaptability_oracle._delzant_members))
        return adaptability_oracle

    def agree(self, oracle, polygons):
        for polygon in polygons:
            assert outcome(adaptability, polygon) == outcome(oracle.adaptability, polygon), polygon
            assert outcome(delzant_presentations, polygon) == outcome(oracle.delzant_presentations, polygon), polygon

    def test_corpus_and_fuzz(self, oracle, corpus, derived_polygons):
        self.agree(oracle, list(corpus.values()) + derived_polygons)

    def test_multi_column(self, oracle):
        polygons = multi_column_polygons(200, max_marks=8)
        assert max(len({m.position.x for m in p.marks}) for p in polygons) == 4
        # coincident unit marks are the only source of equal Delzant normal forms: ladders
        # with each column's marks merged into one, plain and split
        merged = merged_ladders()
        assert [len(delzant_presentations(p)) for p in merged] == [1, 2, 4, 0, 1]  # of 2, 4, 8, 0 and 4 sign vectors
        self.agree(oracle, polygons + merged + [split_marks(p) for p in merged])

    def test_unvalidated_input(self, oracle, corpus):
        # errors must match too: a corner of |det| 2 and no marks, a cut ending
        # off the vertices, and marks whose sign was flipped without reshaping
        polygons = [
            SemitoricPolygon((pt(0, 0), pt(2, 0), pt(0, 1))),
            SemitoricPolygon(corpus["SQUARE"].vertices, (MarkedPoint(pt(Fraction(1, 2), Fraction(1, 2)), 1, 1),)),
        ]
        for polygon in multi_column_polygons(40, seed=7, max_marks=6):
            marks = list(polygon.marks)
            marks[-1] = MarkedPoint(marks[-1].position, 1, -marks[-1].cut_sign)
            polygons.append(SemitoricPolygon(polygon.vertices, tuple(marks)))
        self.agree(oracle, polygons)

    def test_invalid_polygon_is_refused(self, corpus):
        # the cut family exists only for a valid polygon: the verdict, the search and
        # the listing refuse an invalid one alike, naming the broken rule
        square, ff1 = corpus["SQUARE"], corpus["FF1"]
        clockwise = SemitoricPolygon(tuple(reversed(square.vertices)), square.marks)
        for function in (adaptability, delzant_presentations, enumerate_presentations):
            with pytest.raises(ValidationFailure, match="not-counter-clockwise"):
                function(clockwise)
        doubled_tip = SemitoricPolygon(ff1.vertices + ff1.vertices[-1:], ff1.marks)
        for function in (adaptability, delzant_presentations, enumerate_presentations):
            with pytest.raises(ValidationFailure, match="duplicate-vertex"):
                function(doubled_tip)

    def test_builds_per_column(self, monkeypatch):
        import semitoric.cuts as cuts

        built = []
        flip_cuts = cuts._flip_cuts
        # one counter for every build: no module but cuts imports the builder (test_cut_family_privates_stay_in_cuts)
        monkeypatch.setattr(cuts, "_flip_cuts", lambda *args: built.append(1) or flip_cuts(*args))
        for polygon in multi_column_polygons(50, seed=11):
            built.clear()
            verdict = adaptability(polygon)
            # a valid polygon's up-counts are all checked without a build
            assert built == []
            # one build per Delzant sign vector, the polygon's own too: each is swept into normal form
            delzant_presentations(polygon)
            assert len(built) == verdict.delzant_signs.size

    def test_local_rule_matches_the_build(self, corpus, derived_polygons):
        # every (column, up-count): invalid (None), smooth or not on the column,
        # decided locally and read off the presentation the reference builder
        # makes for the smallest code
        from presentation_oracle import flip_cuts

        def verdicts(unit, x):
            first = unit.marks.index(unit.facts.marks_at[x][0])
            signs = tuple(mark.cut_sign for mark in unit.facts.marks_at[x])
            sides = dict(zip(unit.facts.heights, unit.facts.sides))[x]
            for shift in range(-signs.count(1), signs.count(-1) + 1):
                # the smallest code moving the up-count by shift: the first |shift| marks of sign -sign(shift)
                flips = [b for b, s in enumerate(signs) if s == (-1 if shift > 0 else 1)][: abs(shift)]
                try:
                    shape = flip_cuts(unit, frozenset(first + b for b in flips))
                except PresentationError:
                    built = None
                else:
                    built = all(is_smooth_vertex(shape, v) for v in shape.vertices if v.x == x)
                assert column_verdict(sides, len(signs), signs.count(1), shift) == built, (unit, x, shift)
                yield built

        seen = []
        for polygon in list(corpus.values()) + derived_polygons + multi_column_polygons(200):
            unit = split_marks(polygon)
            for x in unit.facts.marks_at:
                seen.extend(verdicts(unit, x))
        assert len(seen) > 1500 and set(seen) == {True, False}
        # a sign flipped without reshaping breaks only its column: invalid cells there
        for polygon in multi_column_polygons(100, seed=7, max_marks=8):
            marks = list(polygon.marks)
            marks[-1] = MarkedPoint(marks[-1].position, 1, -marks[-1].cut_sign)
            seen.extend(verdicts(SemitoricPolygon(polygon.vertices, tuple(marks)), marks[-1].position.x))
        assert set(seen) == {None, True, False}

    def test_four_up_counts_decide_each_column(self, corpus, derived_polygons):
        # the up-counts 0, 1, k - 1 and k find the same smooth up-counts as all k + 1 do, and
        # an invalid one exactly where one exists, on every mark column of the families of
        # tools/same_answers.py, each also with every cut sign flipped, and of the probe up to k = 64
        from semitoric.cuts import _counts

        columns, invalid = 0, 0
        for polygon in column_families(corpus, derived_polygons):
            for column, side in zip(polygon.facts.marks_at.values(), polygon.facts.sides):
                k, ups = _counts(column)
                every = {u: column_verdict(side, k, ups, u - ups) for u in range(k + 1)}
                four = {u: every[u] for u in {0, 1, k - 1, k}}
                assert [u for u in every if every[u]] == [u for u in sorted(four) if four[u]], (polygon, k)
                assert (None in every.values()) == (None in four.values()), (polygon, k)
                columns += 1
                invalid += None in every.values()
        assert columns > 1000 and invalid > 0

    def test_the_column_rule_raises_on_an_invalid_column(self):
        # a sign flipped without reshaping breaks only its column, so the column rule at shift 0
        # raises exactly where the polygon itself is invalid
        from semitoric.cuts import _counts, _local_verdict
        from semitoric.geometry import describe

        raised = 0
        for polygon in multi_column_polygons(100, seed=7, max_marks=8):
            marks = list(polygon.marks)
            marks[-1] = MarkedPoint(marks[-1].position, 1, -marks[-1].cut_sign)
            flipped = SemitoricPolygon(polygon.vertices, tuple(marks))
            x, facts = marks[-1].position.x, flipped.facts
            sides = dict(zip(facts.heights, facts.sides))[x]
            if validate(flipped).valid:
                assert _local_verdict(sides, *_counts(facts.marks_at[x]), 0) in (True, False)
                continue
            with pytest.raises(PresentationError) as info:
                _local_verdict(sides, *_counts(facts.marks_at[x]), 0)
            assert str(info.value) == f"up-count shift 0 at x = {describe(x)}: invalid presentation"
            raised += 1
        assert raised == 75

    def test_adaptability_reads_facts_by_position(self, corpus, derived_polygons, monkeypatch):
        # on a parsed polygon: no unit-split polygon, no vertex looked up by Point, no Point hashed
        polygons = list(corpus.values()) + derived_polygons[:50] + multi_column_polygons(50, seed=3)
        polygons += [focus_ladder([1] * 8), multiplicity_probe(2), multiplicity_probe(64)]
        parsed = [parse_polygon(serialize_polygon(p)) for p in polygons]

        def refused(*args):
            raise AssertionError("called")

        for name in ("split_marks", "classify_vertex"):
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "semitoric"]:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        hashes = []
        point_hash = Point.__hash__
        monkeypatch.setattr(Point, "__hash__", lambda point: hashes.append(1) or point_hash(point))
        for polygon in parsed:
            verdict = adaptability(polygon)
            assert verdict.adaptable == bool(verdict.delzant_signs) and hashes == [], polygon
        assert verdict.violating_levels == ((1, OrbitCounts(0, 64, 0)),)

    def test_ninety_six_point_ladder(self):
        # 32 triple columns, m = 96: every column violates, no presentation is Delzant
        verdict = adaptability(focus_ladder([3] * 32))
        assert not verdict.adaptable and not verdict.delzant_signs
        assert [x for x, _ in verdict.violating_levels] == list(range(1, 33))
        assert {str(counts) for _, counts in verdict.violating_levels} == {"E=0, FF=3, S=0"}

    def test_seventeen_points(self):
        # past the old 16-point enumeration bound: one mark per column, all Delzant
        verdict = adaptability(focus_ladder([1] * 17))
        assert verdict.adaptable
        assert len(verdict.delzant_signs) == 2**17
        assert verdict.delzant_signs[1] == (1,) + (-1,) * 16
        assert verdict.delzant_signs[-1] == (1,) * 17

    def test_verdict_slices(self):
        signs = adaptability(focus_ladder([1] * 17)).delzant_signs
        assert signs[-3:] == ((1, -1) + (1,) * 15, (-1,) + (1,) * 16, (1,) * 17)
        assert signs[2**17 - 3 :] == signs[-3:] and signs[:2] == ((-1,) * 17, (1,) + (-1,) * 16)

    def test_sixty_four_points(self):
        # 2^64 sign vectors: len() stops at sys.maxsize, so nothing may call it
        verdict = adaptability(focus_ladder([1] * 64))
        assert verdict.adaptable and verdict.delzant_signs
        assert verdict.delzant_signs.size == 2**64
        assert verdict.delzant_signs[0] == (-1,) * 64
        assert verdict.delzant_signs[-1] == (1,) * 64
        assert verdict.delzant_signs[2**63 + 1] == (1,) + (-1,) * 62 + (1,)
        with pytest.raises(OverflowError):
            len(verdict.delzant_signs)

    def test_column_blocks(self):
        # the patterns of the kept up-counts in flip-code order, as all 2^k codes filtered;
        # every set of up-counts up to 6 marks, then each single one and all of them
        from itertools import product

        from semitoric.cuts import _column_blocks

        for length in range(9):
            everything = 2 ** (length + 1) - 1
            kept_sets = range(everything + 1) if length <= 6 else [1 << u for u in range(length + 1)] + [everything]
            for signs in product((-1, 1), repeat=length):
                flipped = [tuple(-s if c >> b & 1 else s for b, s in enumerate(signs)) for c in range(2**length)]
                for kept in kept_sets:
                    ups = [u for u in range(length + 1) if kept >> u & 1]
                    expected = tuple(p for p in flipped if kept >> p.count(1) & 1)
                    assert _column_blocks(signs, ups) == expected, (signs, ups)


def merged_ladders():
    """Focus ladders with each column's unit marks joined into one mark: coincident unit marks once split."""
    merged = []
    for jumps in ([2], [2, 1], [1, 2, 1], [3, 1], [2, 2]):
        ladder = focus_ladder(jumps)
        marks = tuple(MarkedPoint(c[0].position, len(c), c[0].cut_sign) for c in ladder.facts.marks_at.values())
        merged.append(SemitoricPolygon(ladder.vertices, marks))
    return merged


class TestDelzantPresentations:
    def test_structure_deduplicates_as_a_dict(self, corpus, derived_polygons):
        # one pattern per up-count of each group of coincident unit marks gives the members, in the order,
        # that a dict over every Delzant sign vector's member gives, on every family of at most 2^10 vectors
        from semitoric.cuts import _delzant_signs

        families = column_families(corpus, derived_polygons) + merged_ladders()
        families += [multiplicity_probe(k) for k in range(1, 11)]
        compared, vectors, members = 0, 0, 0
        for polygon in families:
            if validate(polygon).valid and _delzant_signs(polygon).size > 2**10:
                continue
            listed = outcome(delzant_presentations, polygon)
            assert listed == outcome(presentation_oracle.delzant_listing, polygon), polygon
            compared += 1
            if validate(polygon).valid:
                vectors, members = vectors + _delzant_signs(polygon).size, members + len(listed)
        assert compared > 900 and members > 1000 and vectors > members  # coincident unit marks give equal members

    def test_the_listing_decides_each_column_once(self, monkeypatch):
        # the search decides every column; the listing builds from its verdicts and calls the column rule nowhere,
        # and a full listing of the family calls it at most once per (column, coefficient)
        import semitoric.cuts as cuts

        calls = []
        rule = cuts._local_verdict
        # no module but cuts imports the column rule (test_cut_family_privates_stay_in_cuts)
        monkeypatch.setattr(cuts, "_local_verdict", lambda *args: calls.append(args) or rule(*args))
        polygons = multi_column_polygons(50, seed=11, max_marks=8) + merged_ladders() + [focus_ladder([1] * 8)]
        polygons += [split_marks(p) for p in merged_ladders()] + [multiplicity_probe(k) for k in range(1, 6)]
        listed = 0
        for polygon in polygons:
            calls.clear()
            cuts._delzant_signs(polygon)
            searched = len(calls)
            calls.clear()
            delzant_presentations(polygon)
            assert len(calls) == searched, polygon
            calls.clear()
            for _ in enumerate_presentations(polygon).members:
                pass
            verdicts = [(sides, shift) for sides, _, _, shift in calls]
            assert len(verdicts) == len(set(verdicts)), polygon
            listed += len(verdicts)
        assert listed > 100

    def test_examples(self, corpus):
        assert delzant_presentations(corpus["FF1"]) == (corpus["FF1"],)
        assert delzant_presentations(corpus["HD1"]) == (corpus["HD1DOWN"],)
        assert delzant_presentations(corpus["NONADAPT3"]) == ()

    def test_members_are_delzant_and_canonical(self, corpus):
        from semitoric import is_delzant_polygon, shear_normal_form

        for polygon in corpus.values():
            for member in delzant_presentations(polygon):
                assert is_delzant_polygon(member)
                assert shear_normal_form(member) == member


class TestSelfIntersection:
    def test_examples(self, corpus):
        assert self_intersection(corpus["SQUARE"], "left") == 0
        assert self_intersection(corpus["SQUARE"], "right") == 0
        assert self_intersection(corpus["CP2STD"], "left") == 1
        assert self_intersection(corpus["NONADAPT3"], "left") == 0
        assert self_intersection(corpus["NONADAPT3"], "right") == -3

    def test_no_vertical_edge(self, corpus):
        with pytest.raises(DomainError):
            self_intersection(corpus["FF1"], "left")
        with pytest.raises(DomainError):
            self_intersection(corpus["CP2STD"], "right")

    def test_errors_come_in_order(self, corpus):
        # a degenerate polygon, then a bad side, then a missing vertical edge
        clockwise = SemitoricPolygon((pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)))
        with pytest.raises(GeometryError, match="degenerate polygon"):
            self_intersection(clockwise, "up")
        with pytest.raises(DomainError, match="side must be 'left' or 'right', got 'up'"):
            self_intersection(corpus["FF1"], "up")
        for side in ("left", "right"):
            with pytest.raises(DomainError, match=f"no vertical edge on the {side} side"):
                self_intersection(corpus["FF1"], side)

    def test_matches_det_of_outgoing_primitives(self, corpus, derived_polygons):
        from semitoric import boundary_chains

        for polygon in list(corpus.values()) + derived_polygons:
            chains = boundary_chains(polygon)
            for side, edge in (("left", chains.left_vertical), ("right", chains.right_vertical)):
                if edge is None:
                    continue
                value = self_intersection(polygon, side)
                tangents = []
                for endpoint in edge:
                    for d in outgoing_primitives(polygon, endpoint):
                        if d.a != 0:
                            tangents.append(d if d.a > 0 else primitive((-d.a, -d.b)))
                assert abs(value) == abs(det2(*tangents))

    def test_nonadaptable_witness_conditions(self, corpus):
        # every non-adaptable entry has a sphere with self-intersection != -1
        # and a level with at least three non-free orbits
        for polygon in corpus.values():
            verdict = adaptability(polygon)
            if verdict.adaptable:
                continue
            from semitoric import boundary_chains

            chains = boundary_chains(polygon)
            values = [
                self_intersection(polygon, side)
                for side, edge in (("left", chains.left_vertical), ("right", chains.right_vertical))
                if edge is not None
            ]
            assert any(v != -1 for v in values)
            assert any(counts.total >= 3 for _, counts in verdict.violating_levels)
