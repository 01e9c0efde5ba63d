"""Per-edge primitive directions: the lattice kernel that turn signs and vertex frames read."""

import sys
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fuzz_derivatives, multi_column_polygons
from semitoric import (
    GeometryError,
    Point,
    SemitoricPolygon,
    classify_vertex,
    cross,
    det2,
    outgoing_primitives,
    primitive,
    validate,
)
from semitoric.geometry import _exact


def reference_direction(a: Point, b: Point):
    """The primitive direction from a to b by scaling with lcm(q, s) in Fraction arithmetic, None when a == b."""
    dx, dy = b.x - a.x, b.y - a.y
    if dx == 0 and dy == 0:
        return None
    scale = lcm(dx.denominator, dy.denominator)
    return primitive((int(dx * scale), int(dy * scale)))


def sign(value) -> int:
    return (value > 0) - (value < 0)


def assert_edges_match_reference(polygon: SemitoricPolygon):
    verts = polygon.vertices
    n = len(verts)
    edges = polygon.facts.edges
    assert len(edges) == n
    for i in range(n):
        assert edges[i] == reference_direction(verts[i], verts[(i + 1) % n])
        if edges[i - 1] is not None and edges[i] is not None:
            turn = cross(verts[i - 1], verts[i], verts[(i + 1) % n])
            assert sign(det2(edges[i - 1], edges[i])) == sign(turn)


def test_edges_match_reference_on_corpus_and_derivatives(corpus):
    polygons = list(corpus.values()) + fuzz_derivatives(200) + multi_column_polygons(200)
    for polygon in polygons:
        assert_edges_match_reference(polygon)


huge = 10**40
coordinates = st.one_of(
    st.fractions(-3, 3, max_denominator=3),  # small values make coincident vertices and collinear turns likely
    st.builds(Fraction, st.integers(-huge, huge), st.integers(1, huge)),
)
points = st.builds(Point, coordinates, coordinates)


@given(st.lists(points, min_size=1, max_size=8))
def test_edges_match_reference_on_rational_polygons(vertices):
    assert_edges_match_reference(SemitoricPolygon(tuple(vertices)))


def test_exact_keeps_fractions_and_converts_ints():
    value = Fraction(-7, 3)
    assert _exact(value) is value
    assert _exact(5) == Fraction(5) and type(_exact(5)) is Fraction
    with pytest.raises(GeometryError, match="not exact"):
        _exact(0.5)


@pytest.mark.parametrize(
    "corners, doubled",
    [
        (((0, 0), (2, 0), (2, 0), (2, 1), (0, 1)), Point(2, 0)),  # the zero edge leaves the doubled vertex
        (((0, 0), (2, 0), (2, 1), (0, 1), (0, 0)), Point(0, 0)),  # the zero edge enters it
    ],
)
def test_coincident_vertices_fail_only_their_own_frames(corners, doubled):
    polygon = SemitoricPolygon(tuple(Point(x, y) for x, y in corners))
    assert polygon.facts.edges.count(None) == 1
    for vertex in polygon.vertices:
        if vertex == doubled:
            # both entries of the doubled vertex have the zero edge as a neighbour
            for read in (classify_vertex, outgoing_primitives):
                with pytest.raises(GeometryError, match="^zero vector has no direction$"):
                    read(polygon, vertex)
        else:
            classify_vertex(polygon, vertex)
            outgoing_primitives(polygon, vertex)
    assert [v.rule for v in validate(polygon).violations] == ["duplicate-vertex"]


def test_hostile_denominators_validate_quickly():
    # 60 points on the parabola y = x^2 whose x carry distinct 2000-digit
    # denominators: a common denominator of all vertices would have ~10^5 digits
    big = 10**2000
    xs = [k + Fraction(1, big + 7 * k + 1) for k in range(60)]
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the violation messages print determinants of ~8000 digits
    try:
        polygon = SemitoricPolygon(tuple(Point(x, x * x) for x in xs))
        start = time.perf_counter()
        report = validate(polygon)
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert not report.valid and len(report.violations) == 60
    assert elapsed < 10
