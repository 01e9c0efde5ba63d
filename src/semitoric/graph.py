"""The labeled directed graph classifying the underlying circle action.

Construction from a presentation:

* every Delzant or hidden-Delzant vertex away from the vertical edges is an
  isolated graph vertex labeled by its moment value;
* every mark contributes multiplicity-many isolated vertices at its column;
* each vertical edge becomes a fat vertex (genus 0 sphere) whose area label
  is the edge length;
* each k-run of boundary edges becomes a directed edge, south pole to north
  pole, weighted k.

The graph is built by vertex position: the vertical edges' endpoints are
the facts' one record of their positions, and each k-run carries its poles'
positions, so no vertex is looked up by its ``Point``.

Two presentations of one system always produce equal graphs, which is what
the canonical form below makes checkable byte-for-byte.  One ordering pass
sorts the vertices once, on each label's integer pair p/q, and orders only
the runs of equal labels by the rest of the key; the JSON and DOT rows are
written as text straight from that order, with no copy of the graph.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .geometry import _by_ratio, _Record, format_rational
from .polygon import SemitoricPolygon
from .vertices import VertexKind, _class_of

ISOLATED = "isolated"
FAT = "fat"

class GraphVertex(_Record):
    """A vertex of the graph: isolated at its label, or fat with its genus and area."""

    kind: str
    label: Fraction
    genus: Optional[int]
    area: Optional[Fraction]
    provenance: Optional[str]  # diagnostics only: == compares it, canonical_form drops it

    def __init__(self, kind, label, genus=None, area=None, provenance=None):
        vars(self).update(kind=kind, label=label, genus=genus, area=area, provenance=provenance)


class GraphEdge(_Record):
    """An edge of the graph, between the vertices of ids ``source`` and ``target``, of weight ``weight``."""

    source: int
    target: int
    weight: int

    def __init__(self, source, target, weight):
        vars(self).update(source=source, target=target, weight=weight)


class KarshonGraph(_Record):
    """Karshon's labeled directed graph: its vertices, indexed by id, and its edges."""

    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]

    def __init__(self, vertices, edges):
        vars(self).update(vertices=vertices, edges=edges)


def build_graph(polygon: SemitoricPolygon) -> KarshonGraph:
    """Construct the labeled directed graph of a validated presentation."""
    facts = polygon.facts
    verticals = facts._verticals  # first: a degenerate polygon raises before a vertex is classified
    fixed = {i for edge in verticals if edge for i in edge}
    vertices: list[GraphVertex] = []
    ids: list[Optional[int]] = [None] * len(polygon.vertices)  # vertex position -> its graph id

    for i, (v, kind) in enumerate(zip(polygon.vertices, facts._kinds)):
        if _class_of(kind) is VertexKind.FAKE or i in fixed:
            continue
        ids[i] = len(vertices)
        vertices.append(GraphVertex(ISOLATED, v.x, provenance="elliptic-elliptic"))
    for mark in polygon.marks:
        for _ in range(mark.multiplicity):
            vertices.append(GraphVertex(ISOLATED, mark.position.x, provenance="focus-focus"))
    for edge in verticals:
        if edge is None:
            continue
        bottom_end, top_end = (polygon.vertices[i] for i in edge)
        vertices.append(
            GraphVertex(FAT, bottom_end.x, genus=0, area=top_end.y - bottom_end.y, provenance="fixed-surface")
        )

    edges = tuple(GraphEdge(ids[south], ids[north], k) for k, _, south, north in facts._poles)
    return KarshonGraph(tuple(vertices), edges)


def serialize_graph(graph: KarshonGraph) -> str:
    """Deterministic JSON for a graph, rationals as exact strings."""
    return _text(graph.vertices, sorted((e.source, e.target, e.weight) for e in graph.edges))


def _text(vertices: Iterable[GraphVertex], edges: Iterable[tuple]) -> str:
    """The JSON of vertices in id order and sorted (source, target, weight) edges, each row written as text, byte
    for byte as ``json.dumps`` with compact separators writes it; a genus, another kind and a non-int edge go through
    ``json.dumps`` itself."""
    rows = []
    for i, v in enumerate(vertices):
        if v.kind == FAT:
            rows.append(f'{{"id":{i},"kind":"fat","label":"{format_rational(v.label)}",'
                        f'"genus":{json.dumps(v.genus)},"area":"{format_rational(v.area)}"}}')
        else:
            kind = '"isolated"' if v.kind == ISOLATED else json.dumps(v.kind)
            rows.append(f'{{"id":{i},"kind":{kind},"label":"{format_rational(v.label)}"}}')
    edge_rows = (f'{{"from":{s},"to":{t},"weight":{w}}}' if type(s) is type(t) is type(w) is int
                 else json.dumps({"from": s, "to": t, "weight": w}, separators=(",", ":")) for s, t, w in edges)
    return f'{{"vertices":[{",".join(rows)}],"edges":[{",".join(edge_rows)}]}}'


def _rest_key(vertex: GraphVertex):
    """The sort key after the label: every other field a fat vertex serializes."""
    return (vertex.kind, vertex.area if vertex.area is not None else 0, vertex.genus if vertex.genus is not None else 0)


def _blocks(vertices: Sequence[GraphVertex]) -> list[list[int]]:
    """Vertex indices sorted by (label, kind, area, genus) and grouped where all four agree.

    One sort on each label's reduced integers p/q, cross-multiplied, and equal labels grouped on equal pairs, so no
    Fraction is compared; only a run of equal labels is sorted again, by the rest of the key.  Both sorts are
    stable, so each block keeps its vertices' input order.
    """
    rest = lambda i: _rest_key(vertices[i])
    labels = sorted(((*v.label.as_integer_ratio(), i) for i, v in enumerate(vertices)), key=_by_ratio)
    blocks = []
    for _, run in groupby(labels, key=itemgetter(0, 1)):  # equal labels have equal pairs
        ids = [i for _, _, i in run]
        if len(ids) == 1:
            blocks.append(ids)
        else:
            blocks.extend(list(block) for _, block in groupby(sorted(ids, key=rest), key=rest))
    return blocks


def _order(graph: KarshonGraph) -> tuple[list[int], list[tuple]]:
    """The graph's vertex ids in canonical order, and its edges as sorted (source, target, weight) in the new ids:
    the one ordering pass that :func:`canonical_form`, :func:`canonical_graph` and ``emit_dot`` write out.

    Vertices sort by (label, kind, area, genus), every field a fat vertex
    serializes: one sort on the label, after which only the runs of equal
    labels are ordered by the rest of the key.  Tied isolated vertices
    serialize alike, so the order that makes
    :func:`serialize_graph` smallest is read off the edge list, in polynomial
    time: the vertices with edges take their block's textually first ids
    (``"10"`` before ``"9"``), and where two do, which goes first is a bit.
    Each run of the edge list keeps the bits that make it smallest: a fixed
    bit, or one equal or opposite to another pair's (two parallel chains).
    Bits left open do not change the bytes.  A tied block may hold at most two
    vertices with edges, each with at most one outgoing edge, as the graph of
    every polygon does; other graphs raise ValueError.
    """
    vertices, blocks = graph.vertices, _blocks(graph.vertices)
    order = [v for block in blocks for v in block]  # position -> vertex: each block in its place, ties placed below
    slot = {v: i for i, v in enumerate(order)}  # vertex -> position; a pair's two wait for its bit
    ties = [block for block in blocks if len(block) > 1]
    touched = {v for e in graph.edges for v in (e.source, e.target)} if ties else ()
    choice: dict[int, tuple[int, tuple[int, int]]] = {}  # vertex of a pair -> (pair, position per bit)
    bound = {-1: (-1, 0)}  # pair -> (root, parity), its bit being root's xor parity; root -1 has bit 0
    for block in ties:
        start = slot[block[0]]
        positions = sorted(range(start, start + len(block)), key=str)
        bearing = [v for v in block if v in touched and vertices[v].kind == ISOLATED]
        forked = len(bearing) == 2 and any(sum(e.source == v for e in graph.edges) > 1 for v in bearing)
        if len(bearing) > 2 or forked:
            raise ValueError("a tied block has more than two vertices with edges, or a fork")
        if len(bearing) == 2:
            first, second = positions[:2]
            choice.update({bearing[0]: (start, (first, second)), bearing[1]: (start, (second, first))})
            bound[start] = (start, 0)
        else:
            slot.update(zip(bearing, positions))
        slot.update(zip([v for v in block if v not in bearing], sorted(positions[len(bearing) :])))

    runs: dict[tuple[int, int], list[GraphEdge]] = {}  # a pair's outgoing edges; a source's into a pair
    for e in graph.edges:
        if e.source in choice:
            runs.setdefault((min(choice[e.source][1]), -1), []).append(e)
        elif e.target in choice:
            runs.setdefault((slot[e.source], min(choice[e.target][1])), []).append(e)
    for key in sorted(runs):
        pairs = {choice[v][0] for e in runs[key] for v in (e.source, e.target) if v in choice}
        free = sorted({bound[p][0] for p in pairs} - {-1})
        tried: dict[str, list[dict[int, int]]] = {}
        for code in range(1 << len(free)):
            guess = {r: code >> i & 1 for i, r in enumerate(free)} | {-1: 0}
            bits = {p: guess[bound[p][0]] ^ bound[p][1] for p in pairs}
            place = slot | {v: options[bits[p]] for v, (p, options) in choice.items() if p in pairs}
            edges = sorted((place[e.source], place[e.target], e.weight) for e in runs[key])
            tried.setdefault(_text((), edges), []).append(guess)
        winners = tried[min(tried)]
        for i, q in enumerate(free):
            for r in (-1, *free[:i]):
                if bound[r][0] == r and len({w[r] ^ w[q] for w in winners}) == 1:
                    flip = winners[0][r] ^ winners[0][q]
                    bound = {p: (r, par ^ flip) if root == q else (root, par) for p, (root, par) in bound.items()}
                    break
        assert len(winners) == 1 << sum(bound[r][0] == r for r in free)

    slot.update((v, options[bound[p][1]]) for v, (p, options) in choice.items())
    for v in (v for block in ties for v in block):
        order[slot[v]] = v
    return order, sorted((slot[e.source], slot[e.target], e.weight) for e in graph.edges)


def canonical_form(graph: KarshonGraph) -> KarshonGraph:
    """Provenance-stripped copy with vertices sorted by (label, kind, area, genus) and ties broken so that its
    :func:`serialize_graph` text is the smallest (see :func:`_order`); a graph no polygon gives may raise ValueError."""
    order, edges = _order(graph)
    stripped = (GraphVertex(v.kind, v.label, v.genus, v.area) for v in map(graph.vertices.__getitem__, order))
    return KarshonGraph(tuple(stripped), tuple(GraphEdge(*e) for e in edges))


def canonical_graph(graph: KarshonGraph) -> str:
    """Canonical byte-stable serialization; equal strings mean equal graphs."""
    order, edges = _order(graph)
    return _text(map(graph.vertices.__getitem__, order), edges)


def graphs_equal(first: KarshonGraph, second: KarshonGraph) -> bool:
    return canonical_graph(first) == canonical_graph(second)


def betti_b2(graph: KarshonGraph) -> int:
    """Rank of degree-2 cohomology of the underlying manifold.

    Fixed components are the critical set of a perfect Morse-Bott function
    whose non-extremal isolated points all have index 2, so the rank counts
    interior isolated vertices plus fat vertices.
    """
    if not graph.vertices:
        return 0
    labels = [v.label for v in graph.vertices]
    lo, hi = min(labels), max(labels)
    return sum(1 for v in graph.vertices if v.kind == FAT or (v.kind == ISOLATED and lo < v.label < hi))


def kirwan_check(graph: KarshonGraph, focus_count: int) -> bool:
    """The number of focus-focus points never exceeds rank H^2."""
    return focus_count <= betti_b2(graph)
