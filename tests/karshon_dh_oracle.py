"""The Duistermaat-Heckman function read off Karshon's graph alone, used as an oracle.

The graph classifies the circle action (Karshon, "Periodic Hamiltonian flows
on four dimensional manifolds", Mem. AMS 1999), so it determines the DH
function without the polygon:

* it lives on [min label, max label], and its value at an end is the area
  of the fat vertex there, or 0 where there is none;
* it is linear between labels, and its slope jumps by -1/(p*q) at each
  interior isolated vertex, with p and q the weights of the edges at that
  vertex (1 where an edge is missing), so by -1 at a focus-focus point;
* its first slope is whatever makes the two end values meet.

Only the graph's vertices and edges are read: no polygon, chain or vertex
class of the package.
"""

from fractions import Fraction

from semitoric import KarshonGraph, PiecewiseLinear


def dh_from_graph(graph: KarshonGraph) -> PiecewiseLinear:
    labels = sorted({v.label for v in graph.vertices})
    low, high = labels[0], labels[-1]
    ends = {v.label: v.area for v in graph.vertices if v.kind == "fat"}
    jumps = dict.fromkeys(labels, Fraction(0))
    for i, v in enumerate(graph.vertices):
        if v.kind == "isolated" and low < v.label < high:
            weights = 1
            for edge in graph.edges:
                weights *= edge.weight if i in (edge.source, edge.target) else 1
            jumps[v.label] -= Fraction(1, weights)

    def bent(x: Fraction) -> Fraction:  # the jumps' part of the value at x
        return sum((jump * (x - c) for c, jump in jumps.items() if c < x), Fraction(0))

    start, end = ends.get(low, Fraction(0)), ends.get(high, Fraction(0))
    slope = (end - start - bent(high)) / (high - low)
    return PiecewiseLinear(tuple(labels), tuple(start + slope * (x - low) + bent(x) for x in labels))
