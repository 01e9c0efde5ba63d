import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import ceil, factorial, log2, prod

import pytest

import graph_oracle
from semitoric import (
    ClassificationError,
    DomainError,
    GeometryError,
    GraphEdge,
    GraphVertex,
    KarshonGraph,
    MarkedPoint,
    Point,
    SemitoricPolygon,
    betti_b2,
    build_graph,
    canonical_form,
    canonical_graph,
    corpus_get,
    corpus_names,
    emit_dot,
    enumerate_presentations,
    graphs_equal,
    kirwan_check,
    serialize_graph,
)


class TestBuildGraph:
    def test_ff1(self, corpus):
        graph = build_graph(corpus["FF1"])
        isolated = sorted(v.label for v in graph.vertices if v.kind == "isolated")
        assert isolated == [0, 1, 2]
        assert not any(v.kind == "fat" for v in graph.vertices)
        (edge,) = graph.edges
        assert edge.weight == 2
        assert (graph.vertices[edge.source].label, graph.vertices[edge.target].label) == (0, 2)

    def test_square(self, corpus):
        graph = build_graph(corpus["SQUARE"])
        fats = sorted((v.label, v.genus, v.area) for v in graph.vertices if v.kind == "fat")
        assert fats == [(0, 0, 1), (1, 0, 1)]
        assert not graph.edges
        assert not any(v.kind == "isolated" for v in graph.vertices)

    def test_nonadapt3(self, corpus):
        graph = build_graph(corpus["NONADAPT3"])
        fats = sorted((v.label, v.area) for v in graph.vertices if v.kind == "fat")
        assert fats == [(0, 4), (2, 1)]
        isolated = [v for v in graph.vertices if v.kind == "isolated"]
        assert [v.label for v in isolated] == [1, 1, 1]
        assert all(v.provenance == "focus-focus" for v in isolated)
        assert not graph.edges

    def test_provenance_annotations(self, corpus):
        graph = build_graph(corpus["HD1"])
        kinds = sorted(v.provenance for v in graph.vertices)
        assert kinds == ["elliptic-elliptic", "elliptic-elliptic", "elliptic-elliptic", "focus-focus"]

    def test_provenance_is_compared_raw_and_dropped_canonically(self):
        a = GraphVertex("isolated", Fraction(1), provenance="a")
        b = GraphVertex("isolated", Fraction(1), provenance="b")
        assert a != b
        assert canonical_graph(KarshonGraph((a,), ())) == canonical_graph(KarshonGraph((b,), ()))
        assert canonical_form(KarshonGraph((a,), ())) == canonical_form(KarshonGraph((b,), ()))

    def test_focus_vertices_never_carry_edges(self, corpus):
        from semitoric import FOCUS_FOCUS_WEIGHTS

        assert FOCUS_FOCUS_WEIGHTS == (-1, 1)
        for polygon in corpus.values():
            graph = build_graph(polygon)
            for edge in graph.edges:
                assert graph.vertices[edge.source].provenance == "elliptic-elliptic"
                assert graph.vertices[edge.target].provenance == "elliptic-elliptic"

    def test_edges_never_touch_fat_vertices(self, corpus):
        for polygon in corpus.values():
            graph = build_graph(polygon)
            for edge in graph.edges:
                assert graph.vertices[edge.source].kind == "isolated"
                assert graph.vertices[edge.target].kind == "isolated"
                assert edge.weight >= 2
                assert graph.vertices[edge.source].label < graph.vertices[edge.target].label


def built_by(build, polygon):
    """``build`` on a fresh copy of the polygon, or the type and message of what it raised."""
    try:
        return build(SemitoricPolygon(polygon.vertices, polygon.marks))
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstReferenceBuilder:
    """The by-position builder gives the graph, and the error, of the Point-keyed one it replaced."""

    def test_valid_polygons(self, corpus, derived_polygons):
        from conftest import focus_ladder, multi_column_polygons, same_answers_tool

        ladders = [focus_ladder(jumps) for jumps in same_answers_tool().LADDERS]
        members = [member for p in derived_polygons for _, member in enumerate_presentations(p).members]
        polygons = list(corpus.values()) + derived_polygons + multi_column_polygons() + ladders + members
        edges = 0
        for polygon in polygons:
            graph = built_by(build_graph, polygon)
            assert isinstance(graph, KarshonGraph) and graph == built_by(graph_oracle.build_graph, polygon), polygon
            edges += len(graph.edges)
        assert len(polygons) > 700 and edges > 250

    def test_invalid_probes(self, corpus, derived_polygons):
        rng = random.Random(19)
        probes = []
        for polygon in list(corpus.values()) + derived_polygons:
            flipped = tuple(MarkedPoint(m.position, m.multiplicity, -m.cut_sign) for m in polygon.marks)
            probes.append(SemitoricPolygon(tuple(reversed(polygon.vertices)), polygon.marks))
            probes.append(SemitoricPolygon(polygon.vertices, flipped))
            probes.append(SemitoricPolygon(polygon.vertices))
        for _ in range(300):
            points = {Point(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(3, 6))}
            marks = tuple(
                MarkedPoint(Point(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)), 1, rng.choice((-1, 1)))
                for _ in range(rng.randint(0, 1))
            )
            probes.append(SemitoricPolygon(tuple(rng.sample(sorted(points, key=str), len(points))), marks))
        errors = []
        for polygon in probes:
            answer = built_by(build_graph, polygon)
            assert answer == built_by(graph_oracle.build_graph, polygon), polygon
            if not isinstance(answer, KarshonGraph):
                errors.append(answer[0])
        assert len(errors) > 500 and set(errors) == {GeometryError, ClassificationError, DomainError}


class TestCanonicalGraph:
    def test_presentation_invariance_example(self, corpus):
        assert canonical_graph(build_graph(corpus["FF1"])) == canonical_graph(
            build_graph(corpus["FF1UP"])
        )

    def test_equal_singletons(self):
        a = KarshonGraph((GraphVertex("isolated", Fraction(1)),), ())
        b = KarshonGraph((GraphVertex("isolated", Fraction(1), provenance="focus-focus"),), ())
        assert canonical_graph(a) == canonical_graph(b)

    def test_different_graphs_differ(self, corpus):
        assert canonical_graph(build_graph(corpus["FF1"])) != canonical_graph(
            build_graph(corpus["SQUARE"])
        )

    def test_canonical_json_shape(self, corpus):
        data = json.loads(canonical_graph(build_graph(corpus["SQUARE"])))
        assert data == {
            "vertices": [
                {"id": 0, "kind": "fat", "label": "0", "genus": 0, "area": "1"},
                {"id": 1, "kind": "fat", "label": "1", "genus": 0, "area": "1"},
            ],
            "edges": [],
        }

    def test_tie_break_is_order_independent(self):
        # two same-label isolated vertices, one carrying an edge: input order
        # must not leak into the canonical form
        spectator = GraphVertex("isolated", Fraction(1))
        pole = GraphVertex("isolated", Fraction(1))
        south = GraphVertex("isolated", Fraction(0))
        one = KarshonGraph((south, spectator, pole), (GraphEdge(0, 2, 2),))
        two = KarshonGraph((south, pole, spectator), (GraphEdge(0, 1, 2),))
        assert canonical_graph(one) == canonical_graph(two)
        assert_same_text(one)
        assert_same_text(two)

    def test_fat_vertices_differing_only_in_genus(self):
        # genus is part of the sort key, so input order cannot decide the output
        first = GraphVertex("fat", Fraction(0), genus=0, area=Fraction(1))
        second = GraphVertex("fat", Fraction(0), genus=1, area=Fraction(1))
        assert graphs_equal(KarshonGraph((first, second), ()), KarshonGraph((second, first), ()))
        # genus None sorts as 0 and is written as null; a smaller area goes first
        unknown = GraphVertex("fat", Fraction(0), genus=None, area=Fraction(1))
        smaller = GraphVertex("fat", Fraction(0), genus=1, area=Fraction(1, 2))
        for vertices in ((first, second, unknown, smaller), (unknown, smaller, second, first)):
            assert_same_text(KarshonGraph(vertices, ()))

    def test_nine_tied_vertices(self):
        # one block of nine interchangeable vertices: no order is tried
        vertices = tuple(GraphVertex("isolated", Fraction(1)) for _ in range(9))
        assert_same_text(KarshonGraph(vertices, ()))
        data = json.loads(canonical_graph(KarshonGraph(vertices, ())))
        assert data["vertices"] == [{"id": i, "kind": "isolated", "label": "1"} for i in range(9)]
        assert data["edges"] == []

    def test_ids_compare_as_text(self):
        # the edge-bearing vertex of the tied block 9..10 takes id 10: "10" < "9"
        vertices = tuple(GraphVertex("isolated", Fraction(0 if i < 9 else 1)) for i in range(11))
        graph = KarshonGraph(vertices, (GraphEdge(0, 9, 2),))
        assert json.loads(canonical_graph(graph))["edges"] == [{"from": 0, "to": 10, "weight": 2}]
        assert_same_text(graph)

    def test_parallel_chains_through_tied_columns(self):
        # bottom and top chains cross two tied columns with equal weights, so
        # the two pairs' orders are linked; the first block holds ids 7..10
        labels = [0, 1, 1, 2, 2, 3] + [1, 1, 2, 2] + [-1, -2, -3, -4, -5, -6]
        edges = ((0, 1, 2), (0, 2, 2), (1, 3, 3), (2, 4, 3), (3, 5, 2), (4, 5, 2))
        graph = KarshonGraph(
            tuple(GraphVertex("isolated", Fraction(x)) for x in labels),
            tuple(GraphEdge(*e) for e in edges),
        )
        rng = random.Random(3)
        expected = graph_oracle.canonical_graph(graph)
        for _ in range(20):
            image = relabel(graph, rng)
            assert canonical_graph(image) == expected
            assert_same_text(image)

    def test_outside_polygon_shape_refused(self):
        # three same-label vertices with edges: no polygon's graph has this
        vertices = tuple(GraphVertex("isolated", Fraction(x)) for x in (0, 1, 1, 1))
        edges = tuple(GraphEdge(0, i, 2) for i in (1, 2, 3))
        with pytest.raises(ValueError, match="more than two vertices with edges"):
            canonical_graph(KarshonGraph(vertices, edges))
        assert_same_text(KarshonGraph(vertices, edges))

    def test_graphs_equal(self, corpus):
        assert graphs_equal(build_graph(corpus["FF1"]), build_graph(corpus["FF1UP"]))
        assert graphs_equal(build_graph(corpus["HD1"]), build_graph(corpus["HD1DOWN"]))
        assert not graphs_equal(build_graph(corpus["SQUARE"]), build_graph(corpus["FF1"]))

    def test_toric_and_focus_presentations_share_graph(self, corpus):
        # the one-focus system lives on the same circle-action space as the
        # weighted projective-plane action
        assert graphs_equal(build_graph(corpus["FF1"]), build_graph(corpus["TRI121"]))

    def test_wide_coprime_denominators(self):
        # 64 labels with pairwise coprime 13,000-bit denominators: compared in pairs their
        # products stay small, while one common denominator would have 830,000 bits
        rng = random.Random(19)
        primes = [p for p in range(2, 320) if all(p % q for q in range(2, p))][:64]
        labels = [Fraction(rng.getrandbits(13_000), p ** ceil(13_000 / log2(p))) for p in primes]
        rng.shuffle(labels)
        graph = KarshonGraph(tuple(GraphVertex("isolated", label) for label in labels), ())
        start = time.perf_counter()
        form = canonical_form(graph)
        assert time.perf_counter() - start < 1
        assert [v.label for v in form.vertices] == sorted(labels)
        assert serialize_graph(form) == graph_oracle.canonical_graph(graph)
        assert_same_text(graph)

    def test_canonical_form_sorted(self, corpus):
        graph = canonical_form(build_graph(corpus["NONADAPT3"]))
        keys = [graph_oracle._sort_key(v) for v in graph.vertices]
        assert keys == sorted(keys)
        assert all(v.provenance is None for v in graph.vertices)


def relabel(graph: KarshonGraph, rng: random.Random) -> KarshonGraph:
    """The same graph with its vertices listed in a random order."""
    order = list(range(len(graph.vertices)))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    return KarshonGraph(
        tuple(graph.vertices[old] for old in order),
        tuple(GraphEdge(new_id[e.source], new_id[e.target], e.weight) for e in graph.edges),
    )


def boundary_graph(rng: random.Random) -> KarshonGraph:
    """A random graph shaped like the graph of a polygon.

    Columns 0..c-1.  Each end column holds one extreme vertex or one fat
    vertex; each inner column a bottom and/or a top boundary vertex and up to
    three focus-focus vertices.  Edges join consecutive vertices of the
    bottom chain and of the top chain, left to right.
    """
    vertices: list[GraphVertex] = []
    bottom: list[int] = []
    top: list[int] = []

    def add(vertex: GraphVertex, *chains: list[int]) -> None:
        for chain in chains:
            chain.append(len(vertices))
        vertices.append(vertex)

    columns = rng.randint(3, 9)
    for x in range(columns):
        if x in (0, columns - 1):
            if rng.random() < 0.3:
                add(GraphVertex("fat", Fraction(x), genus=0, area=Fraction(rng.randint(1, 3))))
            else:
                add(GraphVertex("isolated", Fraction(x)), bottom, top)
            continue
        for chain in (bottom, top):
            if rng.random() < 0.8:
                add(GraphVertex("isolated", Fraction(x)), chain)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            add(GraphVertex("isolated", Fraction(x)))
    edges = [
        GraphEdge(a, b, rng.choice((2, 2, 3, 3, 4, 12)))
        for chain in (bottom, top)
        for a, b in zip(chain, chain[1:])
        if rng.random() < 0.6
    ]
    return KarshonGraph(tuple(vertices), tuple(edges))


def tied_blocks(graph: KarshonGraph) -> list[list[int]]:
    """Sorted positions grouped into the blocks the oracle permutes."""
    keys = sorted(graph_oracle._sort_key(v) for v in graph.vertices)
    blocks: dict = {}
    for position, key in enumerate(keys):
        if key[1] == "isolated":
            blocks.setdefault(key, []).append(position)
    return [block for block in blocks.values() if len(block) > 1]


class TestAgainstOracle:
    """Byte-identical to the exhaustive permutation search it replaced."""

    def test_corpus_fuzz_and_presentation_families(self, derived_polygons):
        rng = random.Random(11)
        polygons = [corpus_get(name).polygon for name in corpus_names()] + derived_polygons
        checked = 0
        for polygon in polygons:
            for _, member in enumerate_presentations(polygon).members:
                graph = build_graph(member)
                for _ in range(3):
                    image = relabel(graph, rng)
                    assert canonical_graph(image) == graph_oracle.canonical_graph(image)
                    checked += 1
        assert checked > 1000

    def test_synthetic_boundary_graphs(self):
        # tied blocks across ids 9 and 10, where text and numeric order part;
        # the oracle's search is kept to at most 6! orders per graph
        rng = random.Random(5)
        checked = 0
        while checked < 300:
            graph = boundary_graph(rng)
            blocks = tied_blocks(graph)
            if not 11 <= len(graph.vertices) <= 25:
                continue
            if not any(9 in block and 10 in block for block in blocks):
                continue
            if prod(factorial(len(block)) for block in blocks) > 720:
                continue
            graph = relabel(graph, rng)
            assert canonical_graph(graph) == graph_oracle.canonical_graph(graph)
            assert_same_text(graph)
            checked += 1

    def test_random_graphs(self):
        # the ordering pass's whole domain: edges either way, self-loops, parallel edges, tied fat vertices and a
        # kind of neither sort; it refuses exactly where a tied block has more than two isolated vertices with
        # edges, or two of which one has two outgoing edges, and elsewhere writes the oracle's bytes
        rng = random.Random(1)
        outcomes = Counter()
        while len(outcomes) < 2 or min(outcomes.values()) < 300:
            vertices = []
            for _ in range(rng.randint(2, 14)):
                label, kind = Fraction(rng.randrange(8), rng.choice((1, 1, 2))), rng.random()
                if kind < 0.2:
                    vertices.append(GraphVertex("fat", label, genus=rng.randrange(2), area=Fraction(rng.randint(1, 2))))
                else:
                    vertices.append(GraphVertex("isolated" if kind < 0.95 else "other", label))
            n = len(vertices)
            edges = [GraphEdge(rng.randrange(n), rng.randrange(n), rng.randint(2, 4)) for _ in range(rng.randint(0, 6))]
            graph = KarshonGraph(tuple(vertices), tuple(edges))
            blocks: dict = {}
            for i, v in enumerate(vertices):
                blocks.setdefault(graph_oracle._sort_key(v), []).append(i)
            tied = [block for key, block in blocks.items() if len(block) > 1 and key[1] == "isolated"]
            if max(map(len, blocks.values())) > 4 or prod(factorial(len(block)) for block in tied) > 576:
                continue
            touched, out = {v for e in edges for v in (e.source, e.target)}, Counter(e.source for e in edges)
            bearing = [[v for v in block if v in touched] for block in tied]
            refused = any(len(b) > 2 or len(b) == 2 and max(out[v] for v in b) > 1 for b in bearing)
            if refused:
                with pytest.raises(ValueError, match="more than two vertices with edges, or a fork"):
                    canonical_graph(graph)
            else:
                assert canonical_graph(graph) == graph_oracle.canonical_graph(graph), graph
            outcomes[refused] += 1


def text_or_error(write, graph):
    """What ``write`` makes of the graph, or the type and message of what it raised."""
    try:
        return write(graph)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_text(graph: KarshonGraph) -> None:
    """The library writes the graph byte for byte as the writers before labels were ordered on integer pairs:
    canonical JSON, raw JSON, the canonical records' JSON and DOT (or all raise alike)."""
    pairs = (
        (canonical_graph, graph_oracle.placed_graph),
        (serialize_graph, graph_oracle.serialize_graph),
        (lambda g: serialize_graph(canonical_form(g)),
         lambda g: graph_oracle.serialize_graph(graph_oracle.placed_form(g))),
        (emit_dot, graph_oracle.emit_dot),
    )
    for library, earlier in pairs:
        assert text_or_error(library, graph) == text_or_error(earlier, graph), graph


# increasing label families put on the columns 0..8 of boundary_graph
LABEL_FAMILIES = {
    "shared integer parts": [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 3), Fraction(3, 2),
                             Fraction(5, 3), Fraction(7, 3), Fraction(5, 2), Fraction(8, 3)],
    "negative": [Fraction(-5, 2), Fraction(-7, 3), Fraction(-2), Fraction(-3, 2), Fraction(-4, 3), Fraction(-1),
                 Fraction(-1, 2), Fraction(-1, 3), Fraction(0)],
    "wide coprime denominators": sorted(Fraction(random.Random(p).getrandbits(600), p**70)
                                        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)),
    "integers": [Fraction(x) for x in (-7, -1, 0, 2, 3, 10, 11, 100, 10**30)],
}


def on_labels(graph: KarshonGraph, labels: list[Fraction], rng: random.Random) -> KarshonGraph:
    """The graph with column x relabeled ``labels[x]``, and at one random column two more fat vertices, each
    differing from the other in area or in genus, one genus perhaps None."""
    vertices = [GraphVertex(v.kind, labels[int(v.label)], v.genus, v.area) for v in graph.vertices]
    column = labels[rng.randrange(len({v.label for v in graph.vertices}))]
    area = rng.choice(labels)
    extra = [GraphVertex("fat", column, genus=rng.choice((0, 1, None)), area=area)]
    extra.append(rng.choice([GraphVertex("fat", column, genus=extra[0].genus, area=area + 1),
                             GraphVertex("fat", column, genus=rng.choice((0, 1, None)), area=area)]))
    return KarshonGraph(tuple(vertices + extra), graph.edges)


class TestAgainstEarlierText:
    """Canonical, raw and DOT text byte-identical to the writers that sorted on Fraction labels."""

    @pytest.mark.parametrize("family", sorted(LABEL_FAMILIES))
    def test_label_families_on_boundary_graphs(self, family):
        rng = random.Random(family)
        crossing = 0
        for _ in range(150):
            graph = relabel(on_labels(boundary_graph(rng), LABEL_FAMILIES[family], rng), rng)
            assert_same_text(graph)
            crossing += any(9 in block and 10 in block for block in tied_blocks(graph))
        assert crossing > 10  # tie blocks whose ids cross 9 -> 10

    def test_polygon_graphs(self, corpus, derived_polygons, chopped_polygons):
        from conftest import focus_ladder, multi_column_polygons, multiplicity_probe, same_answers_tool

        ladders = [focus_ladder(jumps) for jumps in same_answers_tool().LADDERS]
        polygons = list(corpus.values()) + derived_polygons + chopped_polygons + multi_column_polygons(60) + ladders
        for polygon in polygons + [multiplicity_probe(k) for k in (1, 7, 64)]:
            assert_same_text(build_graph(polygon))

    def test_hand_built_values_are_written_as_json_writes_them(self):
        # values no polygon gives: genus None or a bool, a kind json.dumps escapes, non-int ends and weights
        vertices = (
            GraphVertex("fat", Fraction(1), genus=None, area=Fraction(1, 2)),
            GraphVertex("fat", Fraction(1), genus=True, area=Fraction(1, 2)),
            GraphVertex("caf\u00e9 \"x\"", Fraction(-1, 2)),
            GraphVertex("isolated", Fraction(-1, 3)),
        )
        edges = (GraphEdge(2, 3, True), GraphEdge(3, 2, 2.5), GraphEdge(2, 3, 2))
        assert_same_text(KarshonGraph(vertices, edges))
        assert serialize_graph(KarshonGraph(vertices, (GraphEdge("a", None, 1),))) == graph_oracle.serialize_graph(
            KarshonGraph(vertices, (GraphEdge("a", None, 1),))
        )


def test_the_canonical_text_compares_no_fraction_and_builds_no_vertex(corpus, derived_polygons, chopped_polygons,
                                                                      monkeypatch):
    # labels are ordered and grouped on their integer pairs; canonical_form builds one record per vertex
    from conftest import focus_ladder, multi_column_polygons, multiplicity_probe

    polygons = chopped_polygons + list(corpus.values()) + derived_polygons + multi_column_polygons(60)
    graphs = [build_graph(p) for p in polygons + [focus_ladder([1] * 8), multiplicity_probe(64)]]
    counts = Counter()
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, f=method, name=name: counts.update([name]) or f(*args))
    init = GraphVertex.__init__
    monkeypatch.setattr(GraphVertex, "__init__", lambda *args, **kw: counts.update(["GraphVertex"]) or init(*args, **kw))
    ties = 0
    for graph in graphs:
        counts.clear()
        canonical_graph(graph)
        emit_dot(graph)
        assert not counts, counts
        form = canonical_form(graph)
        assert counts == {"GraphVertex": len(graph.vertices)}, counts
        ties += len(form.vertices) - len({v.label for v in form.vertices})
    assert ties > 64  # tie blocks are ordered too


class TestBetti:
    def test_examples(self, corpus):
        assert betti_b2(build_graph(corpus["FF1"])) == 1
        assert betti_b2(build_graph(corpus["SQUARE"])) == 2
        assert betti_b2(build_graph(corpus["NONADAPT3"])) == 5
        assert betti_b2(KarshonGraph((), ())) == 0

    def test_kirwan_examples(self, corpus):
        assert kirwan_check(build_graph(corpus["FF1"]), 1)
        assert kirwan_check(build_graph(corpus["SQUARE"]), 0)
        assert kirwan_check(build_graph(corpus["NONADAPT3"]), 3)

    def test_kirwan_whole_corpus(self, corpus):
        for polygon in corpus.values():
            assert kirwan_check(build_graph(polygon), polygon.total_multiplicity)
