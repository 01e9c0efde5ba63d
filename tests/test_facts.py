"""The per-polygon facts layer: lifetime, exactness off the columns, stored errors."""

import copy
import gc
import io
import pickle
import random
import traceback
import weakref
from fractions import Fraction

import pytest
import semitoric.cli as cli
from semitoric import (
    ClassificationError,
    Point,
    SemitoricPolygon,
    classify_vertex,
    serialize_polygon,
    slice_heights,
    validate,
    zk_chains,
)


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


def edge_scan_slice(polygon, x):
    """(bottom, top) at x from every non-vertical edge crossing the column."""
    verts = polygon.vertices
    ys = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        if a.x != b.x and min(a.x, b.x) <= x <= max(a.x, b.x):
            ys.append(a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x))
    return min(ys), max(ys)


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["classify"], ["graph"], ["dh"], ["adaptable"], ["presentations", "--delzant-only"]],
)
def test_polygon_dies_after_cli_query(corpus, tmp_path, monkeypatch, argv):
    path = tmp_path / "ff1.json"
    path.write_text(serialize_polygon(corpus["FF1"]))
    refs = []
    parse = cli.parse_polygon

    def parse_and_watch(text):
        polygon = parse(text)
        assert "_facts" in polygon.__dict__  # parsing has already swept the facts
        refs.append(weakref.ref(polygon))
        return polygon

    monkeypatch.setattr(cli, "parse_polygon", parse_and_watch)
    assert cli.run_cli([argv[0], str(path), *argv[1:]], io.StringIO(), io.StringIO()) == 0
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_slice_heights_off_the_columns_match_edge_scan(corpus, derived_polygons):
    rng = random.Random(20240818)
    for polygon in list(corpus.values()) + derived_polygons:
        columns = {v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks}
        for _ in range(5):
            t = Fraction(rng.randint(1, 999), 1000)
            x = polygon.j_min + t * (polygon.j_max - polygon.j_min)
            if x in columns:
                continue
            assert slice_heights(polygon, x) == edge_scan_slice(polygon, x)


def _raised_twice(fn, *args):
    caught = []
    for _ in range(2):
        with pytest.raises(Exception) as info:
            fn(*args)
        caught.append(info.value)
    return caught


def test_stored_errors_are_raised_again():
    # a (1,2)-corner with no cuts matches no vertex class; the top edge is a
    # k = 2 run whose pole (0, 1) is unclassifiable
    bad = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1)))
    for fn, args in ((classify_vertex, (bad, pt(1, 0))), (zk_chains, (bad,))):
        first, second = _raised_twice(fn, *args)
        assert type(first) is type(second) is ClassificationError
        assert str(first) == str(second)
        assert first is not second  # a fresh copy each time, so tracebacks never pile up
        assert len(traceback.extract_tb(second.__traceback__)) == len(traceback.extract_tb(first.__traceback__))


def test_star_polygon_is_degenerate(tmp_path):
    # left turns only, but the boundary winds twice: its chains are not
    # x-monotone, which the sweep's left-to-right walk relies on
    star = SemitoricPolygon((pt(0, -1), pt(0, 1), pt(-1, -1), pt(0, 0), pt(-1, 0)))
    assert [v.rule for v in validate(star).violations] == ["not-strictly-convex"]
    path = tmp_path / "star.json"
    path.write_text(serialize_polygon(star))
    for command in ("validate", "dh"):
        assert cli.run_cli([command, str(path)], io.StringIO(), io.StringIO()) == 2


def test_copies_and_pickles_leave_the_facts_behind(corpus):
    polygon = corpus["FF1"]
    expected = zk_chains(polygon)
    for copied in (pickle.loads(pickle.dumps(polygon)), copy.deepcopy(polygon)):
        assert copied == polygon and "_facts" not in copied.__dict__
        assert zk_chains(copied) == expected
