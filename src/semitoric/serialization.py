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

from .errors import GeometryError, ParseError, ValidationFailure
from .geometry import Point, format_rational, parse_rational
from .graph import FAT, KarshonGraph, canonical_form
from .polygon import MarkedPoint, SemitoricPolygon, require_valid


def _rational_field(raw, where: str):
    try:
        return parse_rational(raw)
    except GeometryError as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_polygon(text: str | bytes) -> SemitoricPolygon:
    """Parse and validate a polygon file; returns the canonical value.

    Malformed syntax raises ParseError naming the offending field; a
    well-formed but invalid polygon raises ValidationFailure with the full
    report.
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
    vertices = []
    for i, pair in enumerate(raw_vertices):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"vertices[{i}] must be a [x, y] pair")
        vertices.append(
            Point(
                _rational_field(pair[0], f"vertices[{i}][0]"),
                _rational_field(pair[1], f"vertices[{i}][1]"),
            )
        )
    raw_marks = data.get("marked_points", [])
    if not isinstance(raw_marks, list):
        raise ParseError("\"marked_points\" must be an array")
    marks = []
    for i, raw in enumerate(raw_marks):
        if not isinstance(raw, dict):
            raise ParseError(f"marked_points[{i}] must be an object")
        for key in ("x", "y", "multiplicity", "cut"):
            if key not in raw:
                raise ParseError(f"marked_points[{i}] is missing \"{key}\"")
        position = Point(
            _rational_field(raw["x"], f"marked_points[{i}].x"),
            _rational_field(raw["y"], f"marked_points[{i}].y"),
        )
        try:
            marks.append(MarkedPoint(position, raw["multiplicity"], raw["cut"]))
        except GeometryError as exc:
            raise ParseError(f"marked_points[{i}]: {exc}") from None

    try:
        return require_valid(SemitoricPolygon(tuple(vertices), tuple(marks)))
    except ValidationFailure as exc:
        if any(violation.rule == "not-counter-clockwise" for violation in exc.report.violations):
            raise ParseError("not counter-clockwise: vertices must be listed CCW") from None
        raise


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
    """Render a graph as DOT: circles for isolated vertices, double circles for fat."""
    g = canonical_form(graph)
    lines = ["digraph G {", "  rankdir=LR;"]
    for i, v in enumerate(g.vertices):
        if v.kind == FAT:
            label = f"J={format_rational(v.label)}, g={v.genus}, area={format_rational(v.area)}"
            lines.append(f'  n{i} [shape=doublecircle, label="{label}"];')
        else:
            lines.append(f'  n{i} [shape=circle, label="{format_rational(v.label)}"];')
    for e in g.edges:
        lines.append(f'  n{e.source} -> n{e.target} [label="{e.weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
