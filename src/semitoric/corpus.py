"""Bundled example polygons with frozen expected results.

Each entry's ``expected`` block records hand-computed invariants (vertex
classes, graph content, Duistermaat-Heckman data, verdicts); the regression
suite recomputes everything with zero tolerance.  Entries cover: toric
products and projective planes, the two presentations of the one-focus
system on the projective plane, a hidden-Delzant pair, and a hand-built
non-adaptable system with a triple focus-focus fiber.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DomainError
from .geometry import Point, _Record
from .polygon import MarkedPoint, SemitoricPolygon


def _pt(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


def _poly(vertices, marks=()) -> SemitoricPolygon:
    return SemitoricPolygon(
        tuple(_pt(x, y) for x, y in vertices),
        tuple(MarkedPoint(_pt(x, y), mult, sign) for x, y, mult, sign in marks),
    )


class CorpusEntry(_Record):
    """A named example polygon with its frozen expected results; ``expected`` defaults to a new empty dict."""

    name: str
    polygon: SemitoricPolygon
    expected: Mapping

    def __init__(self, name, polygon, expected=None):
        vars(self).update(name=name, polygon=polygon, expected={} if expected is None else expected)


_ENTRIES = [
    CorpusEntry(
        name="SQUARE",
        polygon=_poly([(0, 0), (1, 0), (1, 1), (0, 1)]),
        expected={
            "kinds": {"(0, 0)": "delzant", "(1, 0)": "delzant", "(1, 1)": "delzant", "(0, 1)": "delzant"},
            "delzant": True,
            "adaptable": True,
            "b2": 2,
            "total_multiplicity": 0,
            "dh": (["0", "1"], ["1", "1"]),
            "graph": {"isolated": [], "fat": [["0", "1"], ["1", "1"]], "edges": []},
            "chains": [],
            "self_intersection": {"left": 0, "right": 0},
        },
    ),
    CorpusEntry(
        name="CP2STD",
        polygon=_poly([(0, 0), (1, 0), (0, 1)]),
        expected={
            "kinds": {"(0, 0)": "delzant", "(1, 0)": "delzant", "(0, 1)": "delzant"},
            "delzant": True,
            "adaptable": True,
            "b2": 1,
            "total_multiplicity": 0,
            "dh": (["0", "1"], ["1", "0"]),
            "graph": {"isolated": ["1"], "fat": [["0", "1"]], "edges": []},
            "chains": [],
            "self_intersection": {"left": 1, "right": None},
        },
    ),
    CorpusEntry(
        name="TRI121",
        polygon=_poly([(0, 0), (2, 1), (1, 1)]),
        expected={
            "kinds": {"(0, 0)": "delzant", "(2, 1)": "delzant", "(1, 1)": "delzant"},
            "delzant": True,
            "adaptable": True,
            "b2": 1,
            "total_multiplicity": 0,
            "dh": (["0", "1", "2"], ["0", "1/2", "0"]),
            "graph": {"isolated": ["0", "1", "2"], "fat": [], "edges": [["0", "2", 2]]},
            "chains": [[2, "bottom", "0", "2"]],
            "self_intersection": {"left": None, "right": None},
        },
    ),
    CorpusEntry(
        name="FF1",
        polygon=_poly([(0, 0), (1, 0), (2, 1)], [(1, Fraction(1, 4), 1, -1)]),
        expected={
            "kinds": {"(0, 0)": "delzant", "(1, 0)": "fake", "(2, 1)": "delzant"},
            "delzant": True,
            "adaptable": True,
            "b2": 1,
            "total_multiplicity": 1,
            "dh": (["0", "1", "2"], ["0", "1/2", "0"]),
            "graph": {"isolated": ["0", "1", "2"], "fat": [], "edges": [["0", "2", 2]]},
            "chains": [[2, "top", "0", "2"]],
            "self_intersection": {"left": None, "right": None},
        },
    ),
    CorpusEntry(
        name="FF1UP",
        polygon=_poly([(0, 0), (2, 0), (1, Fraction(1, 2))], [(1, Fraction(1, 4), 1, 1)]),
        expected={
            "kinds": {"(0, 0)": "delzant", "(2, 0)": "delzant", "(1, 1/2)": "fake"},
            "delzant": False,
            "adaptable": True,
            "b2": 1,
            "total_multiplicity": 1,
            "dh": (["0", "1", "2"], ["0", "1/2", "0"]),
            "graph": {"isolated": ["0", "1", "2"], "fat": [], "edges": [["0", "2", 2]]},
            "chains": [[2, "top", "0", "2"]],
            "self_intersection": {"left": None, "right": None},
        },
    ),
    CorpusEntry(
        name="HD1",
        polygon=_poly([(0, 0), (2, 0), (1, 1)], [(1, Fraction(1, 2), 1, 1)]),
        expected={
            "kinds": {"(0, 0)": "delzant", "(2, 0)": "delzant", "(1, 1)": "hidden-delzant"},
            "delzant": False,
            "adaptable": True,
            "b2": 2,
            "total_multiplicity": 1,
            "dh": (["0", "1", "2"], ["0", "1", "0"]),
            "graph": {"isolated": ["0", "1", "1", "2"], "fat": [], "edges": []},
            "chains": [],
            "self_intersection": {"left": None, "right": None},
        },
    ),
    CorpusEntry(
        name="HD1DOWN",
        polygon=_poly([(0, 0), (1, 0), (2, 1), (1, 1)], [(1, Fraction(1, 2), 1, -1)]),
        expected={
            "kinds": {
                "(0, 0)": "delzant",
                "(1, 0)": "fake",
                "(2, 1)": "delzant",
                "(1, 1)": "delzant",
            },
            "delzant": True,
            "adaptable": True,
            "b2": 2,
            "total_multiplicity": 1,
            "dh": (["0", "1", "2"], ["0", "1", "0"]),
            "graph": {"isolated": ["0", "1", "1", "2"], "fat": [], "edges": []},
            "chains": [],
            "self_intersection": {"left": None, "right": None},
        },
    ),
    CorpusEntry(
        name="NONADAPT3",
        polygon=_poly([(0, 0), (1, 0), (2, 3), (2, 4), (0, 4)], [(1, 2, 3, -1)]),
        expected={
            "kinds": {
                "(0, 0)": "delzant",
                "(1, 0)": "fake",
                "(2, 3)": "delzant",
                "(2, 4)": "delzant",
                "(0, 4)": "delzant",
            },
            "delzant": False,
            "adaptable": False,
            "b2": 5,
            "total_multiplicity": 3,
            "dh": (["0", "1", "2"], ["4", "4", "1"]),
            "graph": {
                "isolated": ["1", "1", "1"],
                "fat": [["0", "4"], ["2", "1"]],
                "edges": [],
            },
            "chains": [],
            "self_intersection": {"left": 0, "right": -3},
        },
    ),
]

CORPUS: dict[str, CorpusEntry] = {entry.name: entry for entry in _ENTRIES}


def corpus_names() -> tuple[str, ...]:
    return tuple(CORPUS)


def corpus_get(name: str) -> CorpusEntry:
    try:
        return CORPUS[name]
    except KeyError:
        raise DomainError(f"unknown corpus entry {name!r}; have {', '.join(CORPUS)}") from None
