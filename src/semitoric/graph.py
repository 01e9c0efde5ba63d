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
the canonical form below makes checkable byte-for-byte.  It sorts the
vertices once, on the label, and orders only the runs of equal labels by
the rest of the key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Optional

from .geometry import format_rational
from .polygon import SemitoricPolygon
from .vertices import VertexKind, _class_of

ISOLATED = "isolated"
FAT = "fat"

@dataclass(frozen=True)
class GraphVertex:
    kind: str
    label: Fraction
    genus: Optional[int] = None
    area: Optional[Fraction] = None
    provenance: Optional[str] = None  # diagnostics only: == compares it, canonical_form drops it


@dataclass(frozen=True)
class GraphEdge:
    source: int
    target: int
    weight: int


@dataclass(frozen=True)
class KarshonGraph:
    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]


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
    rows = []
    for i, v in enumerate(graph.vertices):
        row: dict = {"id": i, "kind": v.kind, "label": format_rational(v.label)}
        if v.kind == FAT:
            row["genus"] = v.genus
            row["area"] = format_rational(v.area)
        rows.append(row)
    edges = [
        {"from": e.source, "to": e.target, "weight": e.weight}
        for e in sorted(graph.edges, key=lambda e: (e.source, e.target, e.weight))
    ]
    return json.dumps({"vertices": rows, "edges": edges}, separators=(",", ":"))


def _rest_key(vertex: GraphVertex):
    """The sort key after the label: every other field a fat vertex serializes."""
    return (
        vertex.kind,
        vertex.area if vertex.area is not None else 0,
        vertex.genus if vertex.genus is not None else 0,
    )


def _blocks(vertices: list[GraphVertex]) -> Iterator[list[int]]:
    """Vertex indices sorted by (label, kind, area, genus) and grouped where all four agree.

    One sort on the label; only a run of equal labels is sorted again, by the rest of
    the key.  Both sorts are stable, so each block keeps its vertices' input order.
    """
    order = sorted(range(len(vertices)), key=lambda i: vertices[i].label)
    for _, run in groupby(order, key=lambda i: vertices[i].label):
        run = list(run)
        if len(run) == 1:
            yield run
            continue
        run.sort(key=lambda i: _rest_key(vertices[i]))
        for _, block in groupby(run, key=lambda i: _rest_key(vertices[i])):
            yield list(block)


def canonical_form(graph: KarshonGraph) -> KarshonGraph:
    """Provenance-stripped copy with vertices sorted and ties broken.

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
    stripped = [GraphVertex(v.kind, v.label, v.genus, v.area) for v in graph.vertices]
    touched = {v for e in graph.edges for v in (e.source, e.target)}
    slot: dict[int, int] = {}  # vertex -> position, where known
    choice: dict[int, tuple[int, tuple[int, int]]] = {}  # vertex of a pair -> (pair, position per bit)
    bound = {-1: (-1, 0)}  # pair -> (root, parity), its bit being root's xor parity; root -1 has bit 0
    start = 0
    for block in _blocks(stripped):
        if len(block) == 1:
            slot[block[0]] = start
            start += 1
            continue
        positions = sorted(range(start, start + len(block)), key=str)
        bearing = [v for v in block if v in touched and stripped[v].kind == ISOLATED]
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
        start += len(block)

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
            edges = tuple(GraphEdge(place[e.source], place[e.target], e.weight) for e in runs[key])
            tried.setdefault(serialize_graph(KarshonGraph((), edges)), []).append(guess)
        winners = tried[min(tried)]
        for i, q in enumerate(free):
            for r in (-1, *free[:i]):
                if bound[r][0] == r and len({w[r] ^ w[q] for w in winners}) == 1:
                    flip = winners[0][r] ^ winners[0][q]
                    bound = {p: (r, par ^ flip) if root == q else (root, par) for p, (root, par) in bound.items()}
                    break
        assert len(winners) == 1 << sum(bound[r][0] == r for r in free)

    slot.update((v, options[bound[p][1]]) for v, (p, options) in choice.items())
    edges = [GraphEdge(slot[e.source], slot[e.target], e.weight) for e in graph.edges]
    edges.sort(key=lambda e: (e.source, e.target, e.weight))
    return KarshonGraph(tuple(stripped[v] for v in sorted(slot, key=slot.get)), tuple(edges))


def canonical_graph(graph: KarshonGraph) -> str:
    """Canonical byte-stable serialization; equal strings mean equal graphs."""
    return serialize_graph(canonical_form(graph))


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
    return sum(
        1
        for v in graph.vertices
        if v.kind == FAT or (v.kind == ISOLATED and lo < v.label < hi)
    )


def kirwan_check(graph: KarshonGraph, focus_count: int) -> bool:
    """The number of focus-focus points never exceeds rank H^2."""
    return focus_count <= betti_b2(graph)
