"""The package's frozen records behave as the frozen dataclasses they were declared as.

The oracle is a ``@dataclass`` twin of each public record, declared here with
the record's fields, defaults and dataclass parameters.  A twin holds the
record's own field values, so every comparison below is between the
record's behaviour and the dataclass behaviour on the same values.
"""

import copy
import copyreg
import dataclasses
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, field, make_dataclass
from fractions import Fraction
from itertools import product

import pytest
import semitoric
from semitoric import (
    CorpusEntry,
    GeometryError,
    GlobalShear,
    MarkedPoint,
    Point,
    SemitoricPolygon,
    adaptability,
    boundary_chains,
    build_graph,
    classify_vertex,
    corpus_get,
    dh_function,
    dh_jump_report,
    enumerate_presentations,
    orbit_counts,
    parse_polygon,
    serialize_polygon,
    validate,
    zk_chains,
)


def twin(name, fields, **params):
    return make_dataclass(name, fields, frozen=True, **params)


TWINS = {
    semitoric.Point: twin("Point", ["x", "y"], order=True),
    semitoric.GlobalShear: twin("GlobalShear", ["slope", "offset"]),
    semitoric.MarkedPoint: twin(
        "MarkedPoint", ["position", ("multiplicity", int, field(default=1)), ("cut_sign", int, field(default=-1))]
    ),
    semitoric.SemitoricPolygon: twin(
        "SemitoricPolygon", ["vertices", ("marks", tuple, field(default=()))],
        namespace={"__getstate__": SemitoricPolygon.__getstate__},
    ),
    semitoric.Violation: twin("Violation", ["rule", "location", "message"]),
    semitoric.ValidationReport: twin("ValidationReport", ["classifications", "violations"]),
    semitoric.BoundaryChains: twin("BoundaryChains", ["bottom", "top", "left_vertical", "right_vertical"]),
    semitoric.VertexClassification: twin(
        "VertexClassification", ["vertex", "kind", "degree", "sign", "left_primitive", "right_primitive"]
    ),
    semitoric.ZkChain: twin("ZkChain", ["k", "side", "start_vertex", "end_vertex", "edges"]),
    semitoric.GraphVertex: twin(
        "GraphVertex",
        ["kind", "label", *((name, object, field(default=None)) for name in ("genus", "area", "provenance"))],
    ),
    semitoric.GraphEdge: twin("GraphEdge", ["source", "target", "weight"]),
    semitoric.KarshonGraph: twin("KarshonGraph", ["vertices", "edges"]),
    semitoric.PiecewiseLinear: twin("PiecewiseLinear", ["breakpoints", "values"]),
    semitoric.JumpEntry: twin(
        "JumpEntry",
        ["x", "left_slope", "right_slope", "observed", "predicted", "e_top", "e_bottom", "focus_multiplicity"],
    ),
    semitoric.JumpReport: twin("JumpReport", ["entries"]),
    semitoric.OrbitCounts: twin("OrbitCounts", ["ee", "ff", "zk"]),
    semitoric.AdaptabilityVerdict: twin(
        "AdaptabilityVerdict", ["adaptable", "violating_levels", "delzant_signs", "criteria_agree"]
    ),
    semitoric.SignProduct: twin("SignProduct", ["factors", ("base", object, field(default=None))], eq=False),
    semitoric.PresentationSet: twin("PresentationSet", ["base", "members"]),
    semitoric.CorpusEntry: twin("CorpusEntry", ["name", "polygon", ("expected", dict, field(default_factory=dict))]),
}


def samples() -> list:
    """Records of every public type, made afresh on each call from the library's own answers."""
    out = [GlobalShear(1, Fraction(1, 2)), GlobalShear(0, 0), corpus_get("FF1"), CorpusEntry("E", corpus_get("SQUARE").polygon)]
    for name in ("SQUARE", "TRI121", "FF1", "NONADAPT3"):
        polygon = parse_polygon(serialize_polygon(corpus_get(name).polygon))
        graph, report, presentations = build_graph(polygon), dh_jump_report(polygon), enumerate_presentations(polygon)
        out += [polygon, *polygon.vertices, *polygon.marks, validate(polygon), boundary_chains(polygon)]
        out += [classify_vertex(polygon, polygon.vertices[0]), *zk_chains(polygon), graph, *graph.vertices, *graph.edges]
        out += [dh_function(polygon), report, *report.entries, adaptability(polygon), presentations, presentations.members]
        out += [orbit_counts(polygon, m.position.x) for m in polygon.marks]
    invalid = SemitoricPolygon((Point(0, 0), Point(1, 0), Point(2, 2), Point(0, 1)))
    return out + [invalid, validate(invalid), *validate(invalid).violations]


def twin_of(record):
    cls = TWINS[type(record)]
    return cls(**{f.name: vars(record)[f.name] for f in dataclasses.fields(cls)})


def outcome(action):
    """What an action returns, or the type and message of what it raises."""
    try:
        return "returns", action()
    except Exception as exc:
        return "raises", type(exc), str(exc)


@pytest.fixture(scope="module")
def records():
    first, second = samples(), samples()  # equal records, made apart
    assert {type(r) for r in first} == set(TWINS)
    return first + second


def test_repr_match_args_and_frozen_errors(records):
    for record in records:
        other = twin_of(record)
        assert repr(record) == repr(other)
        assert type(record).__match_args__ == type(other).__match_args__
        for name in (*type(other).__match_args__, "not_a_field"):
            assigned = outcome(lambda: setattr(record, name, 0))
            assert assigned == outcome(lambda: setattr(other, name, 0)) and assigned[1] is FrozenInstanceError
            assert outcome(lambda: delattr(record, name)) == outcome(lambda: delattr(other, name))


def test_equality_and_hash(records):
    compared = [r for r in records if not isinstance(r, semitoric.SignProduct)]  # its own ==, as a sequence
    twins = [twin_of(r) for r in compared]
    for (a, ta), (b, tb) in product(zip(compared, twins), repeat=2):
        assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
    for record, other in zip(compared, twins):
        assert record.__eq__(other) is NotImplemented and record != other  # another class, even of equal fields
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(other))


def test_pickle_and_deepcopy(records):
    for record in records:
        other = twin_of(record)
        reduced, expected = record.__reduce_ex__(4), other.__reduce_ex__(4)
        assert reduced[0] is expected[0] is copyreg.__newobj__ and reduced[1] == (type(record),)
        assert reduced[2:] == expected[2:]
        state = reduced[2]
        if outcome(lambda: pickle.dumps(state))[0] == "raises":
            assert outcome(lambda: pickle.dumps(record))[:2] == outcome(lambda: pickle.dumps(state))[:2]
        else:
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record) and vars(back) == state and repr(back) == repr(record)
        copied, expected = outcome(lambda: copy.deepcopy(record)), outcome(lambda: copy.deepcopy(other))
        assert copied[0] == expected[0]
        if copied[0] == "returns":
            assert type(copied[1]) is type(record) and repr(copied[1]) == repr(expected[1]) == repr(record)
        else:
            assert copied[1:] == expected[1:]


def test_point_order():
    points = [Point(x, y) for x, y in product((Fraction(-1, 2), 0, 1), (0, Fraction(1, 3), 2))]
    cls = TWINS[Point]
    for a, b in product(points, repeat=2):
        ta, tb = cls(a.x, a.y), cls(b.x, b.y)
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    assert sorted(reversed(points)) == points
    for compare in (lambda p: p < 1, lambda p: p >= (0, 0)):
        assert outcome(lambda: compare(points[0])) == outcome(lambda: compare(cls(0, 0)))


def test_a_subclass_without_fields_of_its_own_keeps_its_bases():
    record, other = (type("Sub", (cls,), {}) for cls in (Point, TWINS[Point]))
    a, b = record(Fraction(1), Fraction(1, 2)), other(Fraction(1), Fraction(1, 2))
    assert repr(a) == repr(b) and record.__match_args__ == other.__match_args__ and hash(a) == hash(b)
    assert a == record(1, Fraction(1, 2)) and a != Point(1, Fraction(1, 2)) and a < record(2, 0)
    assert outcome(lambda: setattr(a, "x", 0)) == outcome(lambda: setattr(b, "x", 0))


def test_constructors_check_and_normalise():
    origin = Point(0, 0)
    assert MarkedPoint(origin) == MarkedPoint(origin, 1, -1) == MarkedPoint(cut_sign=-1, position=origin)
    for bad in ({"multiplicity": 0}, {"multiplicity": True}, {"multiplicity": 1.0}, {"cut_sign": 0}, {"cut_sign": 2}):
        with pytest.raises(GeometryError, match="multiplicity must be a positive integer|cut sign must be"):
            MarkedPoint(origin, **bad)
    assert outcome(lambda: MarkedPoint(origin, 0, 0)) == ("raises", GeometryError,
                                                         "multiplicity must be a positive integer, got 0")
    assert type(Point(1, 2).x) is Fraction and Point(1, 2) == Point(Fraction(1), Fraction(2))
    assert outcome(lambda: GlobalShear(Fraction(1), 0)) == ("raises", GeometryError,
                                                           "global shear slope must be an integer")
    assert GlobalShear(2, 3).offset == 3 and type(GlobalShear(2, 3).offset) is Fraction

    a, b, c = Point(1, 0), Point(0, 0), Point(0, 1)
    low, high = MarkedPoint(Point(Fraction(1, 4), Fraction(1, 4))), MarkedPoint(Point(Fraction(1, 4), Fraction(1, 2)))
    polygon = SemitoricPolygon([c, a, b], [high, low])
    assert polygon.vertices == (b, c, a) and polygon.marks == (low, high)
    assert SemitoricPolygon((b, c, a)).marks == () and SemitoricPolygon((b, c, a), ()) == SemitoricPolygon([a, b, c])
    assert outcome(lambda: SemitoricPolygon(())) == ("raises", GeometryError, "a polygon needs vertices")

    first, second = CorpusEntry("A", polygon), CorpusEntry("A", polygon)
    assert first.expected == {} and first.expected is not second.expected
    assert CorpusEntry("A", polygon, {"b2": 1}).expected == {"b2": 1}


def test_the_records_document_themselves():
    for record in TWINS:
        assert record.__doc__ and not record.__doc__.startswith(f"{record.__name__}("), record


def test_importing_the_cli_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(semitoric.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, semitoric.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dataclasses'))"
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert found.stdout.strip() == "[]"
