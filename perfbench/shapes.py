"""Exact polygon arithmetic owned by the benchmark.

Inputs are built here, not with the library, so that generating a workload
neither costs library time nor fills the library's caches.  Each generated
polygon is checked once by the library afterwards (see ``workloads.py``).

A polygon is a CCW vertex cycle of ``(x, y)`` pairs plus marks
``(x, y, multiplicity, cut)`` kept in the library's mark order.  The
coordinates are Fractions, or ints where a generator keeps them integral
(every function here is exact for both).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

F = Fraction


@dataclass(frozen=True)
class Shape:
    vertices: tuple[tuple[Fraction, Fraction], ...]
    marks: tuple[tuple[Fraction, Fraction, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(sorted(self.marks)))


def make(vertices, marks=()) -> Shape:
    return Shape(
        tuple((F(x), F(y)) for x, y in vertices),
        tuple((F(x), F(y), m, c) for x, y, m, c in marks),
    )


def primitive(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    scale = lcm(dx.denominator, dy.denominator)
    a, b = int(dx * scale), int(dy * scale)
    g = gcd(a, b)
    return a // g, b // g


def _cross(o, p, q) -> Fraction:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _lattice_length(v, other, direction) -> Fraction:
    if direction[0]:
        return F(other[0] - v[0]) / direction[0]
    return F(other[1] - v[1]) / direction[1]


def mark_columns(shape: Shape) -> set[Fraction]:
    return {m[0] for m in shape.marks}


def cut_endpoints(shape: Shape) -> set[tuple[Fraction, Fraction]]:
    out = set()
    for x, y, _, cut in shape.marks:
        bottom, top = slice_at(shape, x)
        out.add((x, top if cut > 0 else bottom))
    return out


def slice_at(shape: Shape, x: Fraction) -> tuple[Fraction, Fraction]:
    """(lowest, highest) boundary y over column x."""
    ys = []
    verts = shape.vertices
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        lo, hi = min(a[0], b[0]), max(a[0], b[0])
        if lo <= x <= hi:
            if a[0] == b[0]:
                ys += [a[1], b[1]]
            else:
                ys.append(a[1] + F((x - a[0]) * (b[1] - a[1])) / (b[0] - a[0]))
    return min(ys), max(ys)


def delzant_corners(shape: Shape) -> list[int]:
    """Indices of smooth vertices that no cut ends at."""
    verts = shape.vertices
    ends = cut_endpoints(shape)
    out = []
    for i, v in enumerate(verts):
        if v in ends:
            continue
        prev_v, next_v = verts[i - 1], verts[(i + 1) % len(verts)]
        u = primitive(prev_v[0] - v[0], prev_v[1] - v[1])
        w = primitive(next_v[0] - v[0], next_v[1] - v[1])
        if abs(u[0] * w[1] - u[1] * w[0]) == 1:
            out.append(i)
    return out


def chop_allowance(shape: Shape, i: int) -> Fraction:
    verts = shape.vertices
    v, prev_v, next_v = verts[i], verts[i - 1], verts[(i + 1) % len(verts)]
    u = primitive(prev_v[0] - v[0], prev_v[1] - v[1])
    w = primitive(next_v[0] - v[0], next_v[1] - v[1])
    return min(_lattice_length(v, prev_v, u), _lattice_length(v, next_v, w))


def chop_points(shape: Shape, i: int, delta: Fraction):
    verts = shape.vertices
    v, prev_v, next_v = verts[i], verts[i - 1], verts[(i + 1) % len(verts)]
    u = primitive(prev_v[0] - v[0], prev_v[1] - v[1])
    w = primitive(next_v[0] - v[0], next_v[1] - v[1])
    return (v[0] + delta * u[0], v[1] + delta * u[1]), (v[0] + delta * w[0], v[1] + delta * w[1])


def chop_keeps_marks(shape: Shape, i: int, delta: Fraction) -> bool:
    """True when the cut-off corner stays clear of every mark column.

    Then no mark leaves the interior and every cut still ends at the same
    vertex, so a chop of a Delzant corner keeps the polygon valid.
    """
    p, q = chop_points(shape, i, delta)
    v = shape.vertices[i]
    lo = min(v[0], p[0], q[0])
    hi = max(v[0], p[0], q[0])
    return not any(lo <= x <= hi for x in mark_columns(shape))


def chop(shape: Shape, i: int, delta: Fraction) -> Shape:
    p, q = chop_points(shape, i, delta)
    verts = shape.vertices
    return Shape(verts[:i] + (p, q) + verts[i + 1 :], shape.marks)


def shear(shape: Shape, slope: int, offset: Fraction) -> Shape:
    """The global map (x, y) -> (x, y + slope*x + offset)."""
    return Shape(
        tuple((x, y + slope * x + offset) for x, y in shape.vertices),
        tuple((x, y + slope * x + offset, m, c) for x, y, m, c in shape.marks),
    )


def switch(shape: Shape, index: int) -> Shape:
    """Flip the cut of mark ``index`` by the piecewise shear at its column."""
    mx, my, mult, cut = shape.marks[index]
    coeff = cut * mult
    verts = shape.vertices
    cycle = []
    for k, a in enumerate(verts):
        b = verts[(k + 1) % len(verts)]
        cycle.append(a)
        if min(a[0], b[0]) < mx < max(a[0], b[0]):
            cycle.append((mx, a[1] + F((mx - a[0]) * (b[1] - a[1])) / (b[0] - a[0])))

    def image(x, y):
        return (x, y + coeff * (x - mx)) if x > mx else (x, y)

    moved = [image(x, y) for x, y in cycle]
    kept = tuple(
        p for k, p in enumerate(moved) if _cross(moved[k - 1], p, moved[(k + 1) % len(moved)]) != 0
    )
    marks = tuple(
        image(x, y) + (m, -c if k == index else c) for k, (x, y, m, c) in enumerate(shape.marks)
    )
    return Shape(kept, marks)


def vertical_sides(shape: Shape) -> tuple[bool, bool]:
    xs = [v[0] for v in shape.vertices]
    return xs.count(min(xs)) == 2, xs.count(max(xs)) == 2


def to_json(shape: Shape) -> str:
    return json.dumps(
        {
            "vertices": [[str(x), str(y)] for x, y in shape.vertices],
            "marked_points": [
                {"x": str(x), "y": str(y), "multiplicity": m, "cut": c} for x, y, m, c in shape.marks
            ],
        },
        separators=(",", ":"),
    )
