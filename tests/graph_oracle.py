"""Reference graph builder and canonical form, used as oracles.

``canonical_form`` is the library's earlier one, kept verbatim: it tries
every permutation of every block of same-label isolated vertices and keeps
the ``serialize_graph``-minimal result.  Its cost is the product of the
block factorials, so it refuses blocks above size 8 and products above 8!.
The library now places tied vertices directly; the differential tests check
that both give the same bytes wherever this search is inside its budget.
Its sort key is its own copy, so the order it checks does not move with the
library's.

``build_graph`` is the library's earlier builder, kept verbatim: it looks
each vertex up by its ``Point``, where the library reads positions.

``placed_form`` is the library's canonical form before it ordered labels on
their integer pairs, kept verbatim with its ``_blocks`` and ``_rest_key``: it
sorts on the ``Fraction`` labels and builds a stripped copy of every vertex.
``serialize_graph`` and ``emit_dot`` are the writers of that time, also
verbatim: one ``json.dumps`` of a dict per row, and DOT from a
``placed_form`` copy.  The library's text must equal theirs byte for byte.
"""

import itertools
import json
from fractions import Fraction
from itertools import groupby
from typing import Iterator

from semitoric import (
    DomainError,
    GraphEdge,
    GraphVertex,
    KarshonGraph,
    SemitoricPolygon,
    VertexKind,
    boundary_chains,
    format_rational,
    vertical_edge_endpoints,
    zk_chains,
)
from semitoric.graph import FAT, ISOLATED
from semitoric.vertices import _class_at, _class_of

# permutation budget for breaking label ties deterministically
TIE_BLOCK_LIMIT = 8
TIE_PRODUCT_LIMIT = 40320


def build_graph(polygon: SemitoricPolygon) -> KarshonGraph:
    """Construct the labeled directed graph of a validated presentation."""
    on_vertical = vertical_edge_endpoints(polygon)
    vertices: list[GraphVertex] = []
    ids: dict[object, int] = {}

    for i, v in enumerate(polygon.vertices):  # chains first: the vertices are distinct
        c = _class_of(_class_at(polygon.facts, i))
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


def _sort_key(vertex: GraphVertex):
    return (
        vertex.label,
        vertex.kind,
        vertex.area if vertex.area is not None else Fraction(0),
        vertex.genus if vertex.genus is not None else 0,
    )


def canonical_form(graph: KarshonGraph) -> KarshonGraph:
    """Provenance-stripped copy with vertices sorted and ties broken.

    Vertices sort by (label, kind, area).  Isolated vertices sharing a label
    are interchangeable up to their edge incidences, so each tied block is
    permuted and the serialization-minimal assignment wins; blocks above
    size 8 raise rather than risking nondeterminism.
    """
    stripped = [GraphVertex(v.kind, v.label, v.genus, v.area) for v in graph.vertices]
    order = sorted(range(len(stripped)), key=lambda i: _sort_key(stripped[i]))

    blocks: list[list[int]] = []  # positions in `order` holding tied isolated vertices
    start = 0
    while start < len(order):
        end = start
        while (
            end + 1 < len(order)
            and _sort_key(stripped[order[end + 1]]) == _sort_key(stripped[order[start]])
        ):
            end += 1
        if end > start and stripped[order[start]].kind == ISOLATED:
            blocks.append(list(range(start, end + 1)))
        start = end + 1

    def realize(assignment: tuple[tuple[int, ...], ...]) -> KarshonGraph:
        slots = list(order)
        for block, perm in zip(blocks, assignment):
            originals = [order[pos] for pos in block]
            for pos, which in zip(block, perm):
                slots[pos] = originals[which]
        position = {old: new for new, old in enumerate(slots)}
        vertices = tuple(stripped[old] for old in slots)
        edges = tuple(
            sorted(
                (GraphEdge(position[e.source], position[e.target], e.weight) for e in graph.edges),
                key=lambda e: (e.source, e.target, e.weight),
            )
        )
        return KarshonGraph(vertices, edges)

    if not blocks:
        return realize(())
    for block in blocks:
        if len(block) > TIE_BLOCK_LIMIT:
            raise DomainError(f"{len(block)} same-label vertices exceed the tie-break budget")
    total = 1
    for block in blocks:
        for n in range(2, len(block) + 1):
            total *= n
        if total > TIE_PRODUCT_LIMIT:
            raise DomainError("too many tied vertex blocks to break ties deterministically")
    candidates = itertools.product(
        *(itertools.permutations(range(len(block))) for block in blocks)
    )
    return min((realize(a) for a in candidates), key=serialize_graph)


def canonical_graph(graph: KarshonGraph) -> str:
    return serialize_graph(canonical_form(graph))


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
    return (vertex.kind, vertex.area if vertex.area is not None else 0, vertex.genus if vertex.genus is not None else 0)


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


def placed_form(graph: KarshonGraph) -> KarshonGraph:
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


def placed_graph(graph: KarshonGraph) -> str:
    return serialize_graph(placed_form(graph))


def emit_dot(graph: KarshonGraph) -> str:
    """Render a graph as DOT: circles for isolated vertices, double circles for fat."""
    g = placed_form(graph)
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
