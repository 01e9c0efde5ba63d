"""Loading a polygon: the one boundary walk and the parse against the earlier load path (``load_oracle``)."""

import json
from fractions import Fraction

import load_oracle
import pytest
from conftest import fuzz_derivatives, multi_column_polygons, same_answers_tool
from semitoric import (
    MarkedPoint,
    ParseError,
    Point,
    SemitoricError,
    SemitoricPolygon,
    ValidationFailure,
    corpus_get,
    format_rational,
    parse_polygon,
)
from semitoric.polygon import _validation_report
from semitoric.serialization import _smallest
from semitoric.vertices import _class_at


def _answer(read):
    try:
        return read()
    except SemitoricError as exc:
        return type(exc), str(exc)


def _classes(facts) -> list:
    """Each vertex's class or the error of its kind: the oracle's record, or the library's, read by position."""
    if isinstance(facts, load_oracle.Facts):
        return list(facts.classes)
    return [_class_at(facts, i) for i in range(len(facts.vertices))]


def _facts(facts) -> dict:
    """What loading reads off a polygon's facts, errors as their type and message."""
    report = facts.report if isinstance(facts, load_oracle.Facts) else _validation_report(facts)
    return {
        "j_min, j_max": (facts.j_min, facts.j_max),
        "edges": facts.edges,
        "structure": facts.structure,
        "chains": _answer(lambda: facts.chains),
        "_verticals": _answer(lambda: facts._verticals),
        "classes": [(type(c), str(c)) if isinstance(c, SemitoricError) else c for c in _classes(facts)],
        "violations": report.violations,
        "classifications": dict(report.classifications),
    }


def _text(vertices, marks) -> str:
    """A polygon file listing these vertices and marks in this order."""
    return json.dumps({
        "vertices": [[format_rational(v.x), format_rational(v.y)] for v in vertices],
        "marked_points": [
            {"x": format_rational(m.position.x), "y": format_rational(m.position.y), "multiplicity": m.multiplicity,
             "cut": m.cut_sign}
            for m in marks
        ],
    })


def _star(polygon):
    """The vertices of an odd polygon taken every second one: left turns only, but winding twice."""
    verts = polygon.vertices
    return tuple(verts[2 * k % len(verts)] for k in range(len(verts))), polygon.marks


def _parabola():
    """60 points on y = x^2 whose x carry distinct 2000-digit denominators (see test_edges)."""
    big = 10**2000
    xs = [k + Fraction(1, big + 7 * k + 1) for k in range(60)]
    return tuple(Point(x, x * x) for x in xs), ()


@pytest.fixture(scope="module")
def inputs(chopped_polygons):
    """(vertices, marks) of every input, valid or not, each listed from a start other than its smallest vertex."""
    same_answers = same_answers_tool()
    corpus = [corpus_get(name).polygon for name in ("SQUARE", "CP2STD", "TRI121", "FF1", "FF1UP", "HD1",
                                                    "HD1DOWN", "NONADAPT3")]
    seeds = corpus + fuzz_derivatives(200)
    polygons = seeds + multi_column_polygons(120, max_marks=8)
    polygons += chopped_polygons
    out = [(p.vertices, p.marks) for p in polygons]
    out += [(probe.vertices, probe.marks) for p in seeds for probe in same_answers._probes(p)]
    out += [_star(p) for p in seeds if len(p.vertices) % 2 and len(p.vertices) >= 5] + [_parabola()]
    return [(verts[len(verts) // 2 :] + verts[: len(verts) // 2], marks) for verts, marks in out]


def test_the_walk_reads_what_the_earlier_load_read(inputs):
    stars = 0
    for vertices, marks in inputs:
        old = load_oracle.Facts(*load_oracle.canonical(vertices, marks))
        polygon = SemitoricPolygon(vertices, marks)
        assert (polygon.vertices, polygon.marks) == (old.vertices, old.marks)
        assert _facts(polygon.facts) == _facts(old), polygon
        stars += any(v.message == "the boundary winds around more than once" for v in old.structure)
    assert len(inputs) > 900 and stars > 20, (len(inputs), stars)


def test_the_kinds_are_the_earlier_classes_kinds(inputs):
    # unvalidated, valid or not: each vertex's kind, or its error by type and message
    for vertices, marks in inputs:
        old = load_oracle.Facts(*load_oracle.canonical(vertices, marks))
        kinds = SemitoricPolygon(vertices, marks).facts._kinds
        assert [(type(c), str(c)) if isinstance(c, SemitoricError) else c.kind for c in old.classes] == [
            (type(k), str(k)) if isinstance(k, SemitoricError) else k for k in kinds]


def test_the_parse_reads_what_the_earlier_load_read(inputs):
    for vertices, marks in inputs:
        old = load_oracle.Facts(*load_oracle.canonical(vertices, marks))
        for start in {0, 1, len(vertices) - 1}:  # the file's own order, whatever vertex comes first
            text = _text(vertices[start:] + vertices[:start], marks[::-1])
            try:
                polygon = parse_polygon(text)
            except ValidationFailure as exc:
                assert exc.report.violations == old.report.violations
                continue
            except ParseError as exc:
                assert str(exc) == "not counter-clockwise: vertices must be listed CCW"
                assert [v.rule for v in old.report.violations] == ["not-counter-clockwise"]
                continue
            assert (polygon.vertices, polygon.marks) == (old.vertices, old.marks)
            assert _facts(polygon.facts) == _facts(old)


def test_the_smallest_vertex_is_found_in_integers(inputs):
    # the first of any tied vertices, as the constructor's min keeps it: the smallest vertex doubled before or after
    def smallest(vertices):
        return vertices[min(range(len(vertices)), key=lambda i: (vertices[i].x, vertices[i].y))]

    doubled = [(v + (smallest(v),), m) for v, m in inputs[:300]] + [((smallest(v),) + v, m) for v, m in inputs[:300]]
    for vertices, _ in inputs + doubled:
        ratios = [v.x.as_integer_ratio() + v.y.as_integer_ratio() for v in vertices]
        unreduced = [(3 * p, 3 * q, 5 * r, 5 * s) for p, q, r, s in ratios]  # as a file may write them: 3/6 ...
        expected = min(range(len(vertices)), key=lambda i: (vertices[i].x, vertices[i].y))
        assert _smallest(ratios) == _smallest(unreduced) == expected


def test_a_doubled_smallest_vertex_keeps_its_rotation_and_violations():
    # listed from a start past the smallest vertex, which comes twice, apart: the first copy starts the cycle
    v0, v1, v2, v3 = corpus_get("SQUARE").polygon.vertices
    listed = (v1, v0, v2, v3, v0)
    with pytest.raises(ValidationFailure) as info:
        parse_polygon(_text(listed, (MarkedPoint(Point(Fraction(1, 2), Fraction(1, 2))),)))
    old = load_oracle.Facts(*load_oracle.canonical(listed, ()))
    assert old.vertices == SemitoricPolygon(listed).vertices == (v0, v2, v3, v0, v1)
    assert info.value.report.violations == old.report.violations
    assert [(v.rule, v.location) for v in old.report.violations] == [("duplicate-vertex", "polygon")]
