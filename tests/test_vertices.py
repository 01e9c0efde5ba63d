from fractions import Fraction

import pytest

from semitoric import (
    ClassificationError,
    DomainError,
    LatticeVector,
    MarkedPoint,
    Point,
    SemitoricPolygon,
    VertexKind,
    classify_vertex,
    det2,
    is_delzant_polygon,
    is_smooth_vertex,
    isotropy_weights,
    validate,
    zk_chains,
)


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


class TestClassifyVertex:
    def test_ff1_fake(self, corpus):
        c = classify_vertex(corpus["FF1"], pt(1, 0))
        assert c.kind is VertexKind.FAKE
        assert (c.degree, c.sign) == (1, -1)
        assert c.left_primitive == LatticeVector(1, 0)
        assert c.right_primitive == LatticeVector(1, 1)

    def test_hd1_hidden(self, corpus):
        c = classify_vertex(corpus["HD1"], pt(1, 1))
        assert c.kind is VertexKind.HIDDEN_DELZANT
        assert (c.degree, c.sign) == (1, 1)
        assert c.left_primitive == LatticeVector(1, 1)
        assert c.right_primitive == LatticeVector(1, -1)

    def test_square_corner(self, corpus):
        c = classify_vertex(corpus["SQUARE"], pt(0, 0))
        assert c.kind is VertexKind.DELZANT
        assert c.left_primitive == LatticeVector(0, 1)
        assert c.right_primitive == LatticeVector(1, 0)
        assert abs(det2(c.left_primitive, c.right_primitive)) == 1

    def test_bottom_hidden_delzant(self):
        # genuine corner at the bottom masked by a downward cut
        polygon = SemitoricPolygon(
            (pt(0, 0), pt(1, -1), pt(2, 0)),
            (MarkedPoint(pt(1, Fraction(-1, 2)), 1, -1),),
        )
        assert validate(polygon).valid
        c = classify_vertex(polygon, pt(1, -1))
        assert c.kind is VertexKind.HIDDEN_DELZANT and c.sign == -1

    def test_not_a_vertex(self, corpus):
        with pytest.raises(DomainError):
            classify_vertex(corpus["FF1"], pt(5, 5))

    def test_exhaustive_and_exclusive_on_corpus(self, corpus):
        for polygon in corpus.values():
            for v in polygon.vertices:
                c = classify_vertex(polygon, v)  # raises when no class matches
                assert c.kind in (VertexKind.DELZANT, VertexKind.HIDDEN_DELZANT, VertexKind.FAKE)
                if c.kind is VertexKind.DELZANT:
                    assert c.degree == 0 and c.sign is None
                else:
                    assert c.degree >= 1 and c.sign in (-1, 1)

    def test_fake_vertices_satisfy_shear_identity(self, corpus):
        # at a fake vertex: det(u, w) = -sign * degree * u1 * w1, and u1 = w1
        for polygon in corpus.values():
            for v in polygon.vertices:
                c = classify_vertex(polygon, v)
                if c.kind is not VertexKind.FAKE:
                    continue
                u, w = c.left_primitive, c.right_primitive
                assert u.a == w.a
                assert det2(u, w) == -c.sign * c.degree * u.a * w.a

    def test_every_fake_kind_joins_equal_first_components(self, corpus, derived_polygons):
        # det(u Aw) = 0 with u and w primitive and rightward makes u.a and w.a divide each other, so the k-runs
        # need no check that a fake joint keeps k: every fake kind of every family, valid or not, has u.a == w.a
        from conftest import multi_column_polygons, multiplicity_probe, same_answers_tool
        from semitoric.vertices import _tangent_frame

        same_answers = same_answers_tool()
        seeds = list(corpus.values()) + derived_polygons + multi_column_polygons(120, max_marks=8)
        polygons = seeds + [multiplicity_probe(k) for k in range(1, 65)]
        polygons += [probe for seed in seeds for probe in same_answers._probes(seed) + same_answers.extra_marks(seed)]
        fakes = 0
        for polygon in polygons:
            facts = polygon.facts
            for i, kind in enumerate(facts._kinds):
                if kind is VertexKind.FAKE:
                    u, w = _tangent_frame(facts, i)
                    assert u.a == w.a, (polygon, i)
                    fakes += 1
        assert fakes > 1000

    def test_a_vertex_between_two_vertical_edges_is_refused(self):
        # unvalidated: (1, 0), (1, 1) and (1, 2) are collinear, so (1, 1) has no classification frame
        polygon = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(1, 1), pt(1, 2), pt(0, 2)))
        with pytest.raises(ClassificationError) as info:
            classify_vertex(polygon, pt(1, 1))
        assert str(info.value) == "(1, 1) lies between two vertical edges"


class TestSmoothness:
    def test_examples(self, corpus):
        assert is_smooth_vertex(corpus["FF1"], pt(1, 0)) is True
        assert is_smooth_vertex(corpus["FF1UP"], pt(1, Fraction(1, 2))) is False
        assert is_smooth_vertex(corpus["HD1"], pt(1, 1)) is False

    def test_matches_det_on_corpus(self, corpus):
        for polygon in corpus.values():
            for v in polygon.vertices:
                c = classify_vertex(polygon, v)
                # is_smooth_vertex cross-checks internally; compare against raw det here
                assert is_smooth_vertex(polygon, v) == (
                    abs(det2(c.left_primitive, c.right_primitive)) == 1
                )

    def test_is_delzant_polygon(self, corpus):
        assert is_delzant_polygon(corpus["FF1"]) is True
        assert is_delzant_polygon(corpus["FF1UP"]) is False
        assert is_delzant_polygon(corpus["NONADAPT3"]) is False


class TestIsotropyWeights:
    def test_examples(self, corpus):
        tri = corpus["TRI121"]
        assert isotropy_weights(tri, pt(0, 0)) == (1, 2)
        assert isotropy_weights(corpus["FF1"], pt(2, 1)) == (-2, -1)
        assert isotropy_weights(tri, pt(1, 1)) == (-1, 1)

    def test_fake_vertex_rejected(self, corpus):
        with pytest.raises(DomainError):
            isotropy_weights(corpus["FF1"], pt(1, 0))

    def test_vertical_edge_vertex_rejected(self, corpus):
        with pytest.raises(DomainError):
            isotropy_weights(corpus["SQUARE"], pt(0, 0))


class TestZkChains:
    def test_ff1_single_edge_chain(self, corpus):
        (chain,) = zk_chains(corpus["FF1"])
        assert chain.k == 2
        assert chain.side == "top"
        assert chain.edges == ((pt(0, 0), pt(2, 1)),)

    def test_ff1up_chain_through_fake_vertex(self, corpus):
        (chain,) = zk_chains(corpus["FF1UP"])
        assert chain.k == 2
        assert chain.side == "top"
        assert chain.edges == (
            (pt(0, 0), pt(1, Fraction(1, 2))),
            (pt(1, Fraction(1, 2)), pt(2, 0)),
        )

    def test_square_has_no_chains(self, corpus):
        assert zk_chains(corpus["SQUARE"]) == ()

    def test_a_fake_pole_is_refused(self):
        # unvalidated: a mark on the vertex (0, 0), cut down, makes the pole of the bottom k = 2 run fake
        polygon = SemitoricPolygon((pt(0, 0), pt(2, -1), pt(2, 1)), (MarkedPoint(pt(0, 0), 1, -1),))
        with pytest.raises(ClassificationError) as info:
            zk_chains(polygon)
        assert str(info.value) == "chain pole (0, 0) classifies as fake"

    def test_poles_are_elliptic(self, corpus):
        for polygon in corpus.values():
            for chain in zk_chains(polygon):
                for pole in (chain.start_vertex, chain.end_vertex):
                    assert classify_vertex(polygon, pole).kind is not VertexKind.FAKE
                for _, joint in chain.edges[:-1]:
                    assert classify_vertex(polygon, joint).kind is VertexKind.FAKE

    def test_pole_weights_match_chain(self, corpus):
        for polygon in corpus.values():
            for chain in zk_chains(polygon):
                assert chain.k in isotropy_weights(polygon, chain.start_vertex)
                assert -chain.k in isotropy_weights(polygon, chain.end_vertex)
