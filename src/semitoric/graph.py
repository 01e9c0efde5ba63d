"""The labeled directed graph classifying the underlying circle action.

Construction from a presentation:

* every Delzant or hidden-Delzant vertex away from the vertical edges is an
  isolated graph vertex labeled by its moment value;
* every mark contributes multiplicity-many isolated vertices at its column;
* each vertical edge becomes a fat vertex (genus 0 sphere) whose area label
  is the edge length;
* each k-run of boundary edges becomes a directed edge, south pole to north
  pole, weighted k.

Two presentations of one system always produce equal graphs, which is what
the canonical form below makes checkable byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .geometry import format_rational
from .polygon import SemitoricPolygon, boundary_chains, vertical_edge_endpoints
from .vertices import VertexKind, _class_of, zk_chains

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
    on_vertical = vertical_edge_endpoints(polygon)
    vertices: list[GraphVertex] = []
    ids: dict[object, int] = {}

    for v, found in zip(polygon.vertices, polygon.facts.classes):  # chains first: the vertices are distinct
        c = _class_of(found)
        if c.kind is VertexKind.FAKE or v in on_vertical:
            continue
        ids[v] = len(vertices)
        vertices.append(GraphVertex(ISOLATED, v.x, provenance="elliptic-elliptic"))
    for mark in polygon.marks:
        for _ in range(mark.multiplicity):
            vertices.append(GraphVertex(ISOLATED, mark.position.x, provenance="focus-focus"))
    chains = boundary_chains(polygon)
    for edge in (chains.left_vertical, chains.right_vertical):
        if edge is None:
            continue
        bottom, top = edge
        vertices.append(
            GraphVertex(FAT, bottom.x, genus=0, area=top.y - bottom.y, provenance="fixed-surface")
        )

    edges = tuple(
        GraphEdge(ids[chain.start_vertex], ids[chain.end_vertex], chain.k)
        for chain in zk_chains(polygon)
    )
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


def _sort_key(vertex: GraphVertex):
    return (
        vertex.label,
        vertex.kind,
        vertex.area if vertex.area is not None else Fraction(0),
        vertex.genus if vertex.genus is not None else 0,
    )


def canonical_form(graph: KarshonGraph) -> KarshonGraph:
    """Provenance-stripped copy with vertices sorted and ties broken.

    Vertices sort by (label, kind, area, genus), every field a fat vertex
    serializes.  Tied isolated vertices serialize alike, so the order that makes
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
    blocks: dict[tuple, list[int]] = {}
    for i in sorted(range(len(stripped)), key=lambda i: _sort_key(stripped[i])):
        blocks.setdefault(_sort_key(stripped[i]), []).append(i)
    touched = {v for e in graph.edges for v in (e.source, e.target)}
    slot: dict[int, int] = {}  # vertex -> position, where known
    choice: dict[int, tuple[int, tuple[int, int]]] = {}  # vertex of a pair -> (pair, position per bit)
    bound = {-1: (-1, 0)}  # pair -> (root, parity), its bit being root's xor parity; root -1 has bit 0
    start = 0
    for block in blocks.values():
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
