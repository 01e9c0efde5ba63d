"""Reference canonical form, used as an oracle.

This is the library's earlier ``canonical_form``, kept verbatim: it tries
every permutation of every block of same-label isolated vertices and keeps
the ``serialize_graph``-minimal result.  Its cost is the product of the
block factorials, so it refuses blocks above size 8 and products above 8!.
The library now places tied vertices directly; the differential tests check
that both give the same bytes wherever this search is inside its budget.
"""

import itertools

from semitoric import DomainError, GraphEdge, GraphVertex, KarshonGraph, serialize_graph
from semitoric.graph import ISOLATED, _sort_key

# permutation budget for breaking label ties deterministically
TIE_BLOCK_LIMIT = 8
TIE_PRODUCT_LIMIT = 40320


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
