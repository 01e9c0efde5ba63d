"""Polygon file format and DOT emission.

Polygon files are UTF-8 JSON with bit-exact rationals as "p" or "p/q"
strings, vertices counter-clockwise:

    {"vertices": [["0","0"],["1","0"],["2","1"]],
     "marked_points": [{"x":"1","y":"1/4","multiplicity":1,"cut":-1}]}

Serialization is canonical: the vertex cycle starts at the lexicographically
smallest vertex, marks are sorted, and parse(serialize(p)) == p.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import GeometryError, ParseError, ValidationFailure
from .geometry import Point, _ratio, format_rational
from .graph import FAT, KarshonGraph, _order
from .polygon import MarkedPoint, SemitoricPolygon, _mark_key, require_valid


def parse_polygon(text: str | bytes) -> SemitoricPolygon:
    """Parse and validate a polygon file; returns the canonical value.

    Malformed syntax raises ParseError naming the offending field; a
    well-formed but invalid polygon raises ValidationFailure with the full
    report.  Each coordinate is read once, as integers that find the smallest
    vertex; each Fraction and Point is built once.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer past the int-string limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ParseError("\"vertices\" must be a non-empty array")
    ratios, marks, raw_marks = [], [], data.get("marked_points", [])
    try:  # a rational field's GeometryError names the field
        for i, pair in enumerate(raw_vertices):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"vertices[{i}] must be a [x, y] pair")
            ratios.append(_ratio(pair[0], "vertices[{}][0]: ", i) + _ratio(pair[1], "vertices[{}][1]: ", i))
        if not isinstance(raw_marks, list):
            raise ParseError("\"marked_points\" must be an array")
        for i, raw in enumerate(raw_marks):
            if not isinstance(raw, dict):
                raise ParseError(f"marked_points[{i}] must be an object")
            for key in ("x", "y", "multiplicity", "cut"):
                if key not in raw:
                    raise ParseError(f"marked_points[{i}] is missing \"{key}\"")
            x, y = _ratio(raw["x"], "marked_points[{}].x: ", i), _ratio(raw["y"], "marked_points[{}].y: ", i)
            try:
                marks.append(MarkedPoint(Point(Fraction(*x), Fraction(*y)), raw["multiplicity"], raw["cut"]))
            except GeometryError as exc:
                raise ParseError(f"marked_points[{i}]: {exc}") from None
    except GeometryError as exc:
        raise ParseError(str(exc)) from None
    start = _smallest(ratios)
    ratios = ratios[start:] + ratios[:start]
    vertices = tuple([Point(Fraction(p, q), Fraction(r, s)) for p, q, r, s in ratios])
    try:
        return require_valid(SemitoricPolygon._canonical(vertices, tuple(sorted(marks, key=_mark_key))))
    except ValidationFailure as exc:
        if any(violation.rule == "not-counter-clockwise" for violation in exc.report.violations):
            raise ParseError("not counter-clockwise: vertices must be listed CCW") from None
        raise


def _smallest(ratios: list[tuple[int, int, int, int]]) -> int:
    """The position of the first lexicographically smallest vertex (p/q, r/s), compared in integers."""
    best = 0
    for i, (a, b, c, d) in enumerate(ratios):
        p, q, r, s = ratios[best]  # x = a/b against the best p/q, both denominators positive
        if a * q < p * b or (a * q == p * b and c * s < r * d):
            best = i
    return best


def polygon_data(polygon: SemitoricPolygon) -> dict:
    """The JSON value of a polygon file, before encoding."""
    return {
        "vertices": [[format_rational(v.x), format_rational(v.y)] for v in polygon.vertices],
        "marked_points": [
            {
                "x": format_rational(m.position.x),
                "y": format_rational(m.position.y),
                "multiplicity": m.multiplicity,
                "cut": m.cut_sign,
            }
            for m in polygon.marks
        ],
    }


def serialize_polygon(polygon: SemitoricPolygon) -> str:
    """Canonical byte-stable text for a valid polygon."""
    return json.dumps(polygon_data(polygon), separators=(",", ":"))


def emit_dot(graph: KarshonGraph) -> str:
    """Render a graph as DOT: circles for isolated vertices, double circles for fat; written in canonical order."""
    order, edges = _order(graph)
    lines = ["digraph G {", "  rankdir=LR;"]
    for i, v in enumerate(map(graph.vertices.__getitem__, order)):
        if v.kind == FAT:
            label = f"J={format_rational(v.label)}, g={v.genus}, area={format_rational(v.area)}"
            lines.append(f'  n{i} [shape=doublecircle, label="{label}"];')
        else:
            lines.append(f'  n{i} [shape=circle, label="{format_rational(v.label)}"];')
    lines += [f'  n{s} -> n{t} [label="{w}"];' for s, t, w in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
