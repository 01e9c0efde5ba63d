"""Exact planar primitives shared by every other module.

All coordinates are ``fractions.Fraction``; nothing in this package ever
touches floating point.  Edge directions are reduced to primitive integer
vectors, found in integers from the numerators and denominators of the
rational edge vector; a polygon computes one per edge, once
(``PolygonFacts.edges``), and its turn signs and vertex frames read them.
The only affine map exposed is the global shear-plus-translation, which
preserves vertical lines; its one point formula (:func:`_shear_point`) also
moves the points of the cut-switch sweep in ``cuts``, at its running shear.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from math import gcd
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import GeometryError

_RATIONAL_PATTERN = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")  # ASCII digits only


def parse_rational(text: object) -> Fraction:
    """Parse an exact rational written as ``"p"`` or ``"p/q"`` with q > 0.

    Decimal and float notations are rejected: the file formats carry
    bit-exact rationals only, written in the ASCII digits 0-9.  p and q are
    limited to the interpreter's int-string conversion limit (4300 digits by
    default).
    """
    return Fraction(*_ratio(text))


def _ratio(text: object, where: str = "", *at: int) -> tuple[int, int]:
    """The integers (p, q) of :func:`parse_rational` as written, q > 0 and not reduced; an error's message
    starts with ``where.format(*at)``, the name of the field."""
    match = _RATIONAL_PATTERN.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise GeometryError(f"{where.format(*at)}rationals must be p/q strings, got {text!r}")
    try:
        return int(match[1]), int(match[2] or 1)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise GeometryError(f"{where.format(*at)}p and q are limited to {limit} digits each") from None


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`: ``"p/q"``, or plain ``"p"`` for integers.

    A computed value whose p or q passes the int-string conversion limit
    raises ``GeometryError``.
    """
    try:
        return str(value)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise GeometryError(
            f"a computed rational exceeds {sys.get_int_max_str_digits()} digits in p or q"
        ) from None


def _number_text(number: int | Fraction) -> str:
    try:
        return str(number)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        p, q = (Decimal(n).adjusted() + 1 for n in (number.numerator, number.denominator))  # digit counts
        return f"a {p}-digit integer" if number.denominator == 1 else f"a fraction of {p}/{q} digits"


def describe(value: int | Fraction | Point | LatticeVector) -> str:
    """``str(value)`` for an error message, which never raises: a number past
    the int-string conversion limit reads as its size, "a 8123-digit integer"."""
    if isinstance(value, Point):
        value = (value.x, value.y)
    return f"({', '.join(map(_number_text, value))})" if isinstance(value, tuple) else _number_text(value)


def _exact(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise GeometryError(f"floating point input {value!r} is not exact")
    return Fraction(value)


class _Record:
    """A frozen record, as a frozen dataclass with no generated code: its fields are its class's own annotations, in
    order, each written once by its ``__init__`` through ``vars(self)``; ``repr``, ``==`` (within one class), ``hash``,
    ``__match_args__``, the errors on assignment and deletion, copies and pickles are as for that dataclass."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" not in vars(cls):  # no fields of its own: a subclass keeps its base record's
            return
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        one = attrgetter(*fields)  # a field tuple, or the one field's value
        get = one if len(fields) > 1 else lambda record: (one(record),)
        cls._values = staticmethod(get)

        def __eq__(self, other) -> bool:  # reads the getter from its closure, not through the class
            return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self) -> int:
            return hash(get(self))

        if "__eq__" not in vars(cls):  # as dataclass(eq=True), which keeps a class's own __eq__ and __hash__
            cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # here alone: importing the package loads no dataclasses
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@total_ordering
class Point(_Record):
    """Point of the moment plane.  ``x`` is the circle-action moment value."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Fraction, y: Fraction):  # each coordinate set once, a Fraction as it is
        vars(self).update(x=x if type(x) is Fraction else _exact(x), y=y if type(y) is Fraction else _exact(y))

    def __eq__(self, other) -> bool:  # the base's, written out: the record most compared and hashed calls no getter
        return (self.x, self.y) == (other.x, other.y) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __lt__(self, other) -> bool:  # ordered on (x, y), within the class
        return (self.x, self.y) < (other.x, other.y) if other.__class__ is self.__class__ else NotImplemented

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
    if not dx and not dy:
        raise GeometryError("zero vector has no direction")
    # (dx, dy) scaled by lcm(q, s) for dx = p/q, dy = r/s
    q, s = dx.denominator, dy.denominator
    g = gcd(q, s)
    a, b = dx.numerator * (s // g), dy.numerator * (q // g)
    g = gcd(a, b)
    return LatticeVector(a // g, b // g)


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
    return (first.x - origin.x) * (second.y - origin.y) - (first.y - origin.y) * (second.x - origin.x)


class GlobalShear(_Record):
    """Vertical-line-preserving affine map (x, y) -> (x, slope*x + y + offset).

    These maps form a group under composition; slopes and offsets add.  Two
    presentations with the same cuts differ exactly by one of them.
    """

    slope: int
    offset: Fraction

    def __init__(self, slope: int, offset: Fraction):
        if not isinstance(slope, int):
            raise GeometryError("global shear slope must be an integer")
        vars(self).update(slope=slope, offset=_exact(offset))

    def apply(self, point: Point) -> Point:
        return _shear_point(point, self.slope, *self.offset.as_integer_ratio())


def _shear_point(point: Point, slope: int, on: int, od: int) -> Point:
    """The point moved to height y + slope * x + on / od, od > 0, normalised once."""
    if not slope and not on:
        return point
    x, y = point.x, point.y
    xd, yd = x.denominator, y.denominator
    numerator = (y.numerator * xd + slope * x.numerator * yd) * od + on * xd * yd
    return Point(x, Fraction(numerator, xd * yd * od))
