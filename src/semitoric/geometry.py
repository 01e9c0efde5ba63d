"""Exact planar primitives shared by every other module.

All coordinates are ``fractions.Fraction``; nothing in this package ever
touches floating point.  Edge directions are reduced to primitive integer
vectors, and the only affine maps exposed are the ones preserving vertical
lines: piecewise shears pivoting on a column, and global shear-plus-
translation maps.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import GeometryError

Rational = Fraction

_RATIONAL_PATTERN = re.compile(r"-?\d+(/[1-9]\d*)?")


def parse_rational(text: object) -> Fraction:
    """Parse an exact rational written as ``"p"`` or ``"p/q"`` with q > 0.

    Decimal and float notations are rejected: the file formats carry
    bit-exact rationals only.  p and q are limited to the interpreter's
    int-string conversion limit (4300 digits by default).
    """
    if not isinstance(text, str) or _RATIONAL_PATTERN.fullmatch(text) is None:
        raise GeometryError(f"rationals must be p/q strings, got {text!r}")
    try:
        return Fraction(text)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise GeometryError(f"p and q are limited to {sys.get_int_max_str_digits()} digits each") from None


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`: ``"p/q"``, or plain ``"p"`` for integers."""
    return str(value)


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise GeometryError(f"floating point input {value!r} is not exact")
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Point:
    """Point of the moment plane.  ``x`` is the circle-action moment value."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _exact(self.x))
        object.__setattr__(self, "y", _exact(self.y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


class LatticeVector(NamedTuple):
    """Integer vector of the moment plane; primitive means gcd(|a|, |b|) = 1."""

    a: int
    b: int

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


def primitive(vector: Iterable[int]) -> LatticeVector:
    """Divide an integer vector by its gcd, keeping its orientation."""
    a, b = vector
    if not isinstance(a, int) or not isinstance(b, int):
        raise GeometryError(f"lattice vectors need integer entries, got ({a!r}, {b!r})")
    if a == 0 and b == 0:
        raise GeometryError("zero vector has no primitive form")
    g = gcd(a, b)
    return LatticeVector(a // g, b // g)


def primitive_direction(dx: Fraction, dy: Fraction) -> LatticeVector:
    """Primitive integer vector with the orientation of the rational vector (dx, dy)."""
    dx, dy = _exact(dx), _exact(dy)
    if dx == 0 and dy == 0:
        raise GeometryError("zero vector has no direction")
    scale = lcm(dx.denominator, dy.denominator)
    return primitive((int(dx * scale), int(dy * scale)))


def det2(u: Iterable[int], w: Iterable[int]) -> int:
    """Determinant of the 2x2 integer matrix with columns ``u`` and ``w``."""
    ua, ub = u
    wa, wb = w
    return ua * wb - ub * wa


def shear_vector(v: LatticeVector, coefficient: int) -> LatticeVector:
    """Apply the unipotent shear (a, b) -> (a, coefficient*a + b)."""
    return LatticeVector(v.a, coefficient * v.a + v.b)


def cross(origin: Point, first: Point, second: Point) -> Fraction:
    """Cross product of (first - origin) and (second - origin).

    Positive for a counter-clockwise turn origin -> first -> second.
    """
    return (first.x - origin.x) * (second.y - origin.y) - (first.y - origin.y) * (
        second.x - origin.x
    )


@dataclass(frozen=True)
class VerticalShear:
    """Continuous piecewise map fixing the half plane left of a pivot column.

    t(x, y) = (x, y)                                    for x <= pivot_x,
    t(x, y) = (x, y + coefficient * (x - pivot_x))      for x >= pivot_x.

    The vertical line x = pivot_x is fixed pointwise.
    """

    pivot_x: Fraction
    coefficient: int

    def __post_init__(self):
        object.__setattr__(self, "pivot_x", _exact(self.pivot_x))
        if not isinstance(self.coefficient, int):
            raise GeometryError("shear coefficient must be an integer")

    def apply(self, point: Point) -> Point:
        if point.x <= self.pivot_x:
            return point
        return Point(point.x, point.y + self.coefficient * (point.x - self.pivot_x))


def apply_vertical_shear(points: Sequence[Point], shear: VerticalShear) -> list[Point]:
    return [shear.apply(p) for p in points]


@dataclass(frozen=True)
class GlobalShear:
    """Vertical-line-preserving affine map (x, y) -> (x, slope*x + y + offset).

    These maps form a group under composition; slopes and offsets add.  Two
    presentations with the same cuts differ exactly by one of them.
    """

    slope: int
    offset: Fraction

    def __post_init__(self):
        if not isinstance(self.slope, int):
            raise GeometryError("global shear slope must be an integer")
        object.__setattr__(self, "offset", _exact(self.offset))

    def apply(self, point: Point) -> Point:
        return Point(point.x, self.slope * point.x + point.y + self.offset)


def apply_global_shear(points: Sequence[Point], shear: GlobalShear) -> list[Point]:
    return [shear.apply(p) for p in points]
