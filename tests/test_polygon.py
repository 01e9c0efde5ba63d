from fractions import Fraction

import pytest

from conftest import multi_column_polygons, same_answers_tool
from semitoric import (
    DomainError,
    GeometryError,
    MarkedPoint,
    Point,
    SemitoricError,
    SemitoricPolygon,
    ValidationFailure,
    VertexKind,
    boundary_chains,
    classify_vertex,
    contains_interior,
    require_valid,
    slice_heights,
    validate,
)
from semitoric.vertices import _class_at


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


class TestValidate:
    def test_corpus_ff1_valid(self, corpus):
        assert validate(corpus["FF1"]).valid

    def test_flipped_sign_breaks_endpoint(self, corpus):
        ff1 = corpus["FF1"]
        broken = SemitoricPolygon(
            ff1.vertices, (MarkedPoint(pt(1, Fraction(1, 4)), 1, +1),)
        )
        report = validate(broken)
        assert not report.valid
        assert report.violations[0].rule == "cut-endpoint-not-vertex"
        assert "(1, 1/2)" in report.violations[0].message

    def test_square_valid(self, corpus):
        assert validate(corpus["SQUARE"]).valid

    def test_whole_corpus_valid(self, corpus):
        for name, polygon in corpus.items():
            report = validate(polygon)
            assert report.valid, (name, [str(v) for v in report.violations])

    def test_clockwise_rejected(self):
        cw = SemitoricPolygon((pt(0, 0), pt(0, 1), pt(1, 0)))
        report = validate(cw)
        assert [v.rule for v in report.violations] == ["not-counter-clockwise"]

    def test_collinear_rejected(self):
        flat = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)))
        assert any(v.rule == "not-strictly-convex" for v in validate(flat).violations)

    def test_duplicate_vertex_rejected(self):
        dup = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(1, 0), pt(0, 1)))
        assert validate(dup).violations[0].rule == "duplicate-vertex"

    def test_mark_outside_rejected(self, corpus):
        bad = SemitoricPolygon(corpus["SQUARE"].vertices, (MarkedPoint(pt(2, 2), 1, -1),))
        assert validate(bad).violations[0].rule == "mark-not-interior"

    def test_mark_on_boundary_rejected(self, corpus):
        bad = SemitoricPolygon(corpus["SQUARE"].vertices, (MarkedPoint(pt(Fraction(1, 2), 0), 1, -1),))
        assert validate(bad).violations[0].rule == "mark-not-interior"

    def test_unclassifiable_vertex(self):
        # a (1,2)-corner with no cuts matches no vertex class
        bad = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1)))
        report = validate(bad)
        assert any(v.rule == "unclassifiable-vertex" for v in report.violations)

    def test_no_vertices_rejected(self):
        with pytest.raises(GeometryError, match="^a polygon needs vertices$"):
            SemitoricPolygon(())

    def test_cuts_of_both_signs_past_the_tip_are_not_interior(self, corpus):
        # both cuts would end at the right tip (2, 1): the mark rules refuse each mark first
        ff1 = corpus["FF1"]
        bad = SemitoricPolygon(ff1.vertices, (MarkedPoint(pt(2, 5), 1, 1), MarkedPoint(pt(2, 7), 1, -1)))
        report = validate(bad)
        assert [(v.rule, v.location) for v in report.violations] == [
            ("mark-not-interior", "marks[0] at (2, 5)"),
            ("mark-not-interior", "marks[1] at (2, 7)"),
        ]

    def test_mark_rules_decide_cut_signs_and_extreme_vertices(self, corpus, derived_polygons):
        # validate checks neither that the cuts ending at one vertex share a sign nor that the
        # vertices on J_min and J_max are Delzant: both hold once every mark passes the mark rules
        seeds = list(corpus.values()) + derived_polygons + multi_column_polygons()
        extra_marks = same_answers_tool().extra_marks
        probes = [probe for seed in seeds for probe in extra_marks(seed)]
        covered, both_signs = [], 0
        for polygon in seeds + probes:
            report = validate(polygon)
            if any(v.rule != "unclassifiable-vertex" for v in report.violations):
                continue  # a structural or mark violation
            covered.append(polygon)
            facts = polygon.facts
            degrees = facts._degrees  # raises where cuts of both signs end at one vertex
            bottom, top = facts._positions
            for i in (bottom[0], bottom[-1], top[0], top[-1]):  # the vertices on J_min and J_max
                assert degrees[i] == (0, 0), polygon
                found = _class_at(facts, i)
                assert isinstance(found, SemitoricError) or found.kind is VertexKind.DELZANT
            if report.valid:
                for vertex in polygon.vertices:
                    if vertex.x not in facts.marks_at:
                        assert classify_vertex(polygon, vertex).kind is VertexKind.DELZANT, (polygon, vertex)
            both_signs += any(len({m.cut_sign for m in column}) == 2 for column in facts.marks_at.values())
        # not vacuous: some probes pass the mark rules, and some covered columns have cuts of both signs
        assert len(covered) > len(seeds) and both_signs

    def test_require_valid_raises(self):
        cw = SemitoricPolygon((pt(0, 0), pt(0, 1), pt(1, 0)))
        with pytest.raises(ValidationFailure) as exc:
            require_valid(cw)
        assert exc.value.report.violations

    def test_multiplicity_sum(self, corpus):
        assert corpus["NONADAPT3"].total_multiplicity == 3
        assert corpus["SQUARE"].total_multiplicity == 0

    def test_markless_polygons_have_delzant_vertices_only(self, corpus):
        from semitoric import VertexKind, classify_vertex

        for name in ("SQUARE", "CP2STD", "TRI121"):
            polygon = corpus[name]
            for v in polygon.vertices:
                assert classify_vertex(polygon, v).kind is VertexKind.DELZANT


class TestBoundaryChains:
    def test_ff1(self, corpus):
        chains = boundary_chains(corpus["FF1"])
        assert str(corpus["FF1"]) == "SemitoricPolygon[(0, 0) (1, 0) (2, 1); 1 marks]"
        assert chains.bottom == (pt(0, 0), pt(1, 0), pt(2, 1))
        assert chains.top == (pt(0, 0), pt(2, 1))
        assert chains.left_vertical is None and chains.right_vertical is None

    def test_square(self, corpus):
        chains = boundary_chains(corpus["SQUARE"])
        assert chains.bottom == (pt(0, 0), pt(1, 0))
        assert chains.top == (pt(0, 1), pt(1, 1))
        assert chains.left_vertical == (pt(0, 0), pt(0, 1))
        assert chains.right_vertical == (pt(1, 0), pt(1, 1))

    def test_nonadapt3(self, corpus):
        chains = boundary_chains(corpus["NONADAPT3"])
        assert chains.bottom == (pt(0, 0), pt(1, 0), pt(2, 3))
        assert chains.top == (pt(0, 4), pt(2, 4))
        left_bottom, left_top = chains.left_vertical
        assert left_top.y - left_bottom.y == 4
        right_bottom, right_top = chains.right_vertical
        assert right_top.y - right_bottom.y == 1

    def test_union_is_whole_boundary(self, corpus):
        for polygon in corpus.values():
            chains = boundary_chains(polygon)
            covered = set(chains.bottom) | set(chains.top)
            for edge in (chains.left_vertical, chains.right_vertical):
                if edge:
                    covered.update(edge)
            assert covered == set(polygon.vertices)


class TestSliceHeights:
    def test_examples(self, corpus):
        assert slice_heights(corpus["FF1"], Fraction(1)) == (0, Fraction(1, 2))
        assert slice_heights(corpus["SQUARE"], Fraction(1, 2)) == (0, 1)
        assert slice_heights(corpus["FF1"], Fraction(0)) == (0, 0)

    def test_out_of_range(self, corpus):
        with pytest.raises(DomainError):
            slice_heights(corpus["FF1"], Fraction(3))

    def test_boundary_slopes_monotone(self, corpus):
        # convexity restated: bottom slopes never decrease, top slopes never increase
        for polygon in corpus.values():
            chains = boundary_chains(polygon)
            for path, sign in ((chains.bottom, 1), (chains.top, -1)):
                slopes = [
                    (b.y - a.y) / (b.x - a.x) for a, b in zip(path, path[1:])
                ]
                assert all(sign * (s2 - s1) >= 0 for s1, s2 in zip(slopes, slopes[1:]))

    def test_interior_test_is_strict(self, corpus):
        square = corpus["SQUARE"]
        assert contains_interior(square, pt(Fraction(1, 2), Fraction(1, 2)))
        assert not contains_interior(square, pt(0, Fraction(1, 2)))
        assert not contains_interior(square, pt(3, 3))
