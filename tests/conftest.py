import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from semitoric import (
    DomainError,
    GlobalShear,
    MarkedPoint,
    Point,
    SemitoricError,
    SemitoricPolygon,
    VertexKind,
    chop_allowance,
    classify_vertex,
    corner_chop,
    corpus_get,
    corpus_names,
    require_valid,
    switch_cut,
    transform_polygon,
)


@pytest.fixture(scope="session")
def corpus():
    return {name: corpus_get(name).polygon for name in corpus_names()}


def random_global_shear(rng: random.Random) -> GlobalShear:
    return GlobalShear(rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def fuzz_derivatives(count: int = 200, seed: int = 20240817, max_ops: int = 5):
    """Polygons reached from corpus seeds by short random op sequences.

    Ops are drawn from cut switches, global shears, and corner chops at
    Delzant vertices; every result is a validated polygon.  Deterministic
    for a fixed seed.
    """
    rng = random.Random(seed)
    seeds = [corpus_get(name).polygon for name in corpus_names()]
    results = []
    while len(results) < count:
        polygon = seeds[rng.randrange(len(seeds))]
        for _ in range(rng.randint(1, max_ops)):
            op = rng.choice(("switch", "shear", "chop"))
            try:
                if op == "switch" and polygon.marks:
                    polygon = switch_cut(polygon, rng.randrange(len(polygon.marks)))
                elif op == "shear":
                    polygon = transform_polygon(polygon, random_global_shear(rng))
                elif op == "chop":
                    candidates = [
                        v
                        for v in polygon.vertices
                        if classify_vertex(polygon, v).kind is VertexKind.DELZANT
                    ]
                    if not candidates:
                        continue
                    vertex = candidates[rng.randrange(len(candidates))]
                    delta = chop_allowance(polygon, vertex) * Fraction(1, rng.randint(2, 6))
                    polygon = corner_chop(polygon, vertex, delta)
            except SemitoricError:
                continue
        results.append(polygon)
    return results


@st.composite
def corpus_polygons_under_ops(draw, max_ops: int = 5):
    """Hypothesis strategy: a corpus seed under drawn cut switches, global
    shears and corner chops at Delzant vertices; every result is valid."""
    polygon = corpus_get(draw(st.sampled_from(corpus_names()))).polygon
    for op in draw(st.lists(st.sampled_from(("switch", "shear", "chop")), max_size=max_ops)):
        if op == "switch" and polygon.marks:
            polygon = switch_cut(polygon, draw(st.integers(0, len(polygon.marks) - 1)))
        elif op == "shear":
            shear = GlobalShear(draw(st.integers(-3, 3)), draw(st.fractions(-6, 6, max_denominator=4)))
            polygon = transform_polygon(polygon, shear)
        elif op == "chop":
            candidates = [v for v in polygon.vertices if classify_vertex(polygon, v).kind is VertexKind.DELZANT]
            if candidates:
                vertex = draw(st.sampled_from(candidates))
                try:
                    polygon = corner_chop(polygon, vertex, chop_allowance(polygon, vertex) / draw(st.integers(2, 6)))
                except DomainError:  # the corner cut would swallow a mark
                    pass
    return polygon


@pytest.fixture(scope="session")
def derived_polygons():
    return fuzz_derivatives(count=200)


def multi_column_polygons(count: int = 200, seed: int = 20261018, max_marks: int = 10):
    """Valid polygons with unit marks in several columns and mixed cut signs.

    Focus ladders with 1-4 joints of 1-3 marks each, random widths, a random
    first slope and slope drops of the top at some joints; random cut
    switches then mix the signs, and a random global shear moves the result.
    At most ``max_marks`` marks; deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    results = []
    while len(results) < count:
        jumps = [rng.choice((1, 1, 2, 2, 3)) for _ in range(rng.randint(1, 4))]
        marks = sum(jumps)
        if marks > max_marks:
            continue
        slope = rng.randint(-1, 1)
        widths = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(len(jumps) + 1)]
        drops = [rng.random() < 1 / 3 for _ in jumps]
        polygon = focus_ladder(jumps, widths, drops, slope, headroom=rng.randint(1, 3))
        try:
            for _ in range(rng.randint(0, marks)):
                polygon = switch_cut(polygon, rng.randrange(marks))
            polygon = require_valid(transform_polygon(polygon, random_global_shear(rng)))
        except SemitoricError:
            continue
        results.append(polygon)
    return results


def focus_ladder(jumps, widths=None, drops=None, slope=0, headroom=1):
    """Unit marks over a convex bottom chain between two vertical edges.

    From the origin at ``slope``, the bottom's slope rises by ``jumps[k]`` at
    joint k, which carries that many unit marks cut down to it; ``widths``
    are the steps in x (all 1 by default).  The top is flat except for a
    slope drop of one at each joint flagged in ``drops``, and clears the
    bottom by ``headroom`` where they come closest.
    """
    widths = widths or [1] * (len(jumps) + 1)
    drops = drops or [False] * len(jumps)
    bottom = [Point(0, 0)]
    for width, jump in zip(widths, list(jumps) + [0]):
        bottom.append(Point(bottom[-1].x + width, bottom[-1].y + slope * width))
        slope += jump
    rise, top_slope = [Fraction(0)], 0  # the top's height above its left corner, over each bottom point
    for a, b, drop in zip(bottom, bottom[1:], list(drops) + [False]):
        rise.append(rise[-1] + top_slope * (b.x - a.x))
        top_slope -= drop
    height = max(p.y - r for p, r in zip(bottom, rise)) + headroom
    top = [Point(p.x, height + r) for p, r, keep in zip(bottom, rise, [True, *drops, True]) if keep]
    marks = [
        MarkedPoint(Point(p.x, p.y + (height + r - p.y) * Fraction(k + 1, jump + 1)), 1, -1)
        for p, r, jump in zip(bottom[1:], rise[1:], jumps)
        for k in range(jump)
    ]
    return require_valid(SemitoricPolygon(tuple(bottom) + tuple(reversed(top)), tuple(marks)))


def multiplicity_probe(k: int) -> SemitoricPolygon:
    """A valid five-vertex polygon whose one mark, cut down to the fake vertex (1, 0), has multiplicity k."""
    vertices = (Point(0, 0), Point(1, 0), Point(2, k), Point(2, k + 1), Point(0, k + 1))
    return require_valid(SemitoricPolygon(vertices, (MarkedPoint(Point(1, 1), k, -1),)))


def same_answers_tool():
    """``tools/same_answers.py`` as a module, for the input families the tests share with it."""
    tool = Path(__file__).parents[1] / "tools" / "same_answers.py"
    spec = importlib.util.spec_from_file_location("same_answers", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def chopped_polygons():
    """SQUARE, FF1 and NONADAPT3 grown to 256 vertices by corner chops (``same_answers.chopped``), made once."""
    same_answers = same_answers_tool()
    return [same_answers.chopped(corpus_get(name).polygon) for name in same_answers.CHOPPED]
