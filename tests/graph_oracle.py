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
"""

import itertools
from fractions import Fraction

from semitoric import (
    DomainError,
    GraphEdge,
    GraphVertex,
    KarshonGraph,
    SemitoricPolygon,
    VertexKind,
    boundary_chains,
    serialize_graph,
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
