import random
from fractions import Fraction

import pytest

from semitoric import (
    DomainError,
    GlobalShear,
    MarkedPoint,
    Point,
    SemitoricPolygon,
    SignProduct,
    ValidationFailure,
    cut_degrees,
    cut_endpoint,
    delzant_presentations,
    dh_function,
    enumerate_presentations,
    require_valid,
    serialize_polygon,
    shear_normal_form,
    split_marks,
    switch_cut,
    transform_polygon,
    validate,
)
import presentation_oracle
from conftest import focus_ladder, multi_column_polygons, multiplicity_probe, random_global_shear, same_answers_tool


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


class TestSwitchCut:
    def test_ff1_to_ff1up(self, corpus):
        assert switch_cut(corpus["FF1"], 0) == corpus["FF1UP"]

    def test_involution_example(self, corpus):
        assert switch_cut(corpus["FF1UP"], 0) == corpus["FF1"]

    def test_hd1_to_hd1down(self, corpus):
        assert switch_cut(corpus["HD1"], 0) == corpus["HD1DOWN"]

    def test_involution_whole_corpus(self, corpus):
        for polygon in corpus.values():
            for index in range(len(polygon.marks)):
                assert switch_cut(switch_cut(polygon, index), index) == polygon

    def test_results_validate(self, corpus):
        for polygon in corpus.values():
            for index in range(len(polygon.marks)):
                assert validate(switch_cut(polygon, index)).valid

    def test_preserves_dh_function(self, corpus):
        for polygon in corpus.values():
            for index in range(len(polygon.marks)):
                assert dh_function(switch_cut(polygon, index)) == dh_function(polygon)

    def test_bad_index(self, corpus):
        with pytest.raises(DomainError):
            switch_cut(corpus["FF1"], 1)

    def test_inconsistent_presentation(self, corpus):
        # an upward cut from the square's centre ends mid-edge, so this is no
        # valid presentation and has no switch
        square = corpus["SQUARE"]
        polygon = SemitoricPolygon(square.vertices, (MarkedPoint(pt(Fraction(1, 2), Fraction(1, 2)), 1, 1),))
        with pytest.raises(ValidationFailure, match=r"cut-endpoint-not-vertex at marks\[0\] at \(1/2, 1/2\)"):
            switch_cut(polygon, 0)

    def test_invalid_input_is_refused(self):
        # a doubled vertex: switching it used to return the unrelated valid
        # polygon (0,0), (7,7), (7,8), (4,8)
        vertices = tuple(pt(x, y) for x, y in ((0, 0), (4, 4), (7, 10), (7, 11), (0, 4), (0, 4)))
        polygon = SemitoricPolygon(vertices, (MarkedPoint(pt(4, 5), 1, -1),))
        with pytest.raises(ValidationFailure, match="duplicate-vertex"):
            switch_cut(polygon, 0)

    def test_commutes_with_global_shear_up_to_normal_form(self, corpus):
        rng = random.Random(7)
        for polygon in corpus.values():
            for index in range(len(polygon.marks)):
                shear = random_global_shear(rng)
                one = shear_normal_form(switch_cut(transform_polygon(polygon, shear), index))
                two = shear_normal_form(switch_cut(polygon, index))
                assert one == two

    def test_endpoint_bookkeeping(self, corpus):
        # the old endpoint loses the flipped degree (vanishing if fully fake),
        # the new endpoint gains it
        for polygon in corpus.values():
            for index, mark in enumerate(polygon.marks):
                switched = switch_cut(polygon, index)
                old_end = cut_endpoint(polygon, mark)
                old_degree = cut_degrees(polygon)[old_end][0]
                remaining = old_degree - mark.multiplicity
                if remaining == 0:
                    from semitoric import VertexKind, classify_vertex

                    if classify_vertex(polygon, old_end).kind is VertexKind.FAKE:
                        assert old_end not in switched.vertices
                    else:
                        assert cut_degrees(switched).get(old_end, (0, 0))[0] == 0
                else:
                    assert cut_degrees(switched)[old_end][0] == remaining
                flipped = MarkedPoint(mark.position, mark.multiplicity, -mark.cut_sign)
                new_end = cut_endpoint(switched, flipped)
                gained = cut_degrees(switched)[new_end][0]
                assert gained >= mark.multiplicity


class TestEnumeratePresentations:
    def test_ff1_family(self, corpus):
        family = enumerate_presentations(corpus["FF1"])
        assert len(family.members) == 2
        polygons = [member for _, member in family.members]
        assert polygons == [corpus["FF1"], corpus["FF1UP"]]
        assert [signs for signs, _ in family.members] == [(-1,), (1,)]

    def test_square_family(self, corpus):
        family = enumerate_presentations(corpus["SQUARE"])
        assert len(family.members) == 1
        assert family.members[0] == ((), corpus["SQUARE"])

    def test_nonadapt3_family(self, corpus):
        family = enumerate_presentations(corpus["NONADAPT3"])
        assert len(family.members) == 2
        for _, member in family.members:
            assert validate(member).valid

    def test_closed_under_switching(self, corpus):
        family = enumerate_presentations(corpus["FF1"])
        members = {member for _, member in family.members}
        for member in members:
            assert switch_cut(member, 0) in members

    def test_seventeen_entries(self):
        # past the old 16-entry bound: members are built when read
        polygon = focus_ladder([1] * 17)
        members = enumerate_presentations(polygon).members
        assert len(members) == members.size == 2**17
        switched = switch_cut(switch_cut(polygon, 0), 2)  # 5 = 0b101 flips marks 0 and 2
        assert members[5] == ((1, -1, 1) + (-1,) * 14, switched)
        signs, last = members[-1]
        assert signs == (1,) * 17
        assert [mark.cut_sign for mark in last.marks] == [1] * 17
        with pytest.raises(IndexError):
            members[2**17]

    def test_members_equal_their_tuple(self, corpus):
        import pickle

        members = enumerate_presentations(corpus["NONADAPT3"]).members
        built = tuple(members)
        assert members == built and built == members and hash(members) == hash(built)
        assert members != built[:1] and members != list(built)
        assert pickle.loads(pickle.dumps(members)) == members
        assert repr(members) == repr(enumerate_presentations(corpus["NONADAPT3"]).members)

    def test_slices_are_tuples_of_members(self, corpus):
        # iteration, indexing and the first factor varying fastest give one order, on factors of unequal lengths too
        from itertools import chain, product

        unit = split_marks(corpus["NONADAPT3"])
        uneven = (((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((10,),), ((11,), (12,)), ((13, 14), (15, 16), (17, 18), (19, 20)))
        products = [enumerate_presentations(p).members for p in (corpus["NONADAPT3"], unit)]
        products += [SignProduct(uneven), SignProduct((((-1, 1), (1, -1), (1, 1)), ((-1,),)), unit)]
        for members in products:
            built = tuple(members)
            assert list(built) == [members[i] for i in range(members.size)]
            signs = [item if members.base is None else item[0] for item in built]
            earlier = product(*reversed(members.factors))  # the last factor varying slowest
            assert signs == [tuple(chain.from_iterable(reversed(choice))) for choice in earlier]
            for s in (slice(1, 3), slice(-2, None), slice(None, -1), slice(None, None, 2), slice(-1, None, -3),
                      slice(5, 1), slice(1, 100)):
                assert members[s] == built[s], s

    def test_split_marks_counts(self, corpus):
        unit = split_marks(corpus["NONADAPT3"])
        assert len(unit.marks) == 3
        assert all(m.multiplicity == 1 for m in unit.marks)
        assert unit.vertices == corpus["NONADAPT3"].vertices
        assert len(enumerate_presentations(unit).members) == 8


class TestSweepBuilder:
    """Each member is built in one sweep and checked by the column rule alone."""

    @staticmethod
    def families(corpus, derived_polygons) -> list:
        same_answers = same_answers_tool()
        ladders = [focus_ladder(jumps) for jumps in same_answers.LADDERS]
        families = list(corpus.values()) + derived_polygons + ladders + [same_answers._merged(p) for p in ladders]
        families += [multiplicity_probe(k) for k in range(1, 9)]
        families += multi_column_polygons(120, max_marks=8) + multi_column_polygons(60, seed=3, max_marks=8)
        return list(dict.fromkeys(q for p in families for q in (p, split_marks(p))))

    def test_matches_the_reference_builder(self, corpus, derived_polygons):
        # the reference shears every point once per flipped column and re-validates
        families = self.families(corpus, derived_polygons)
        built = 0
        for polygon in families:
            members = enumerate_presentations(polygon).members[:256]
            expected = presentation_oracle.members(polygon, limit=256)
            assert len(members) == len(expected)
            for (signs, member), (oracle_signs, oracle_member) in zip(members, expected):
                assert signs == oracle_signs
                assert serialize_polygon(member) == serialize_polygon(oracle_member), (polygon, signs)
                require_valid(member)
            built += len(members)
        assert len(families) > 350 and built > 7000

    def test_members_need_no_constructor_sort(self, corpus, derived_polygons):
        # members, Delzant members, unit splits and normal forms skip the constructor's search and sort:
        # the public constructor leaves each as it is, coincident marks whose signs changed included
        built = 0
        for polygon in self.families(corpus, derived_polygons):
            members = [member for _, member in enumerate_presentations(polygon).members[:256]]
            members += [*delzant_presentations(polygon), split_marks(polygon), shear_normal_form(polygon)]
            for member in members:
                public = SemitoricPolygon(member.vertices, member.marks)
                assert (public.vertices, public.marks) == (member.vertices, member.marks) and public == member, member
            built += len(members)
        assert built > 8000

    def test_no_member_is_revalidated(self, monkeypatch):
        import semitoric.polygon

        polygon = focus_ladder([1] * 8)
        expected = tuple(presentation_oracle.members(polygon))
        calls = []
        validate = semitoric.polygon.validate
        monkeypatch.setattr(semitoric.polygon, "validate", lambda polygon: calls.append(1) or validate(polygon))
        members = enumerate_presentations(polygon).members
        assert members[1] == expected[1]
        one = len(calls)  # the listing validates its base, once
        assert tuple(members) == expected
        assert len(calls) == one <= 1
        calls.clear()
        assert len(delzant_presentations(polygon)) == 2**8
        assert len(calls) <= 1
        # nor is any member's structure checked: one normal-form shear serves the family
        checked = []
        walk = semitoric.polygon._walk_boundary  # the structure check's one walk along the edges
        monkeypatch.setattr(semitoric.polygon, "_walk_boundary", lambda facts: checked.append(1) or walk(facts))
        assert len(delzant_presentations(focus_ladder([1] * 8))) == 2**8
        assert len(checked) == 1  # the ladder's own

    def test_one_normalisation_is_exact(self):
        rng = random.Random(13)

        def rational(digits):
            return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits))

        cases = [
            (Point(rational(d), rational(d)), rng.randint(-5, 5), rng.choice((0, rational(d))))
            for d in (1, 2, 6, 30)
            for _ in range(250)
        ]
        huge = 10**4000
        big = (Fraction(huge + 1, huge - 3), Fraction(-huge - 7, huge + 9), Fraction(3 * huge + 1, 2 * huge + 1))
        cases += [(Point(big[0], big[1]), 7, big[2]), (Point(big[2], 1), -2, big[0]), (Point(1, big[1]), 0, 0)]
        for point, slope, offset in cases:
            image = GlobalShear(slope, offset).apply(point)  # the one point-shear formula
            assert image.x == point.x and image.y == point.y + slope * point.x + offset
            assert type(image.y) is Fraction

    def test_a_start_shear_moves_every_member(self):
        # the sweep started at a global shear gives that shear's image of the member
        from semitoric.cuts import _flip_cuts, _normal_shear

        rng = random.Random(17)
        ladders = [focus_ladder(jumps) for jumps in ([1] * 4, [1] * 8, [2], [2, 1], [1, 2, 1], [3, 1], [2, 2])]
        families = ladders + multi_column_polygons(80, max_marks=8) + multi_column_polygons(40, seed=3, max_marks=8)
        families = list(dict.fromkeys(q for p in families for q in (p, split_marks(p))))
        for polygon in families:
            shears = (random_global_shear(rng), _normal_shear(polygon), GlobalShear(0, 0))
            for signs, member in enumerate_presentations(polygon).members[:64]:
                for shear in shears:
                    image = transform_polygon(member, shear)
                    assert _flip_cuts(polygon, signs, shear) == image, (polygon, signs)
                    # both sides move points by the one formula: check it against plain Fraction arithmetic
                    assert image.vertices == tuple(Point(v.x, shear.slope * v.x + v.y + shear.offset) for v in member.vertices)


class TestShearNormalForm:
    def test_square_already_canonical(self, corpus):
        assert shear_normal_form(corpus["SQUARE"]) == corpus["SQUARE"]

    def test_undoes_global_shear(self, corpus):
        sheared = transform_polygon(corpus["FF1"], GlobalShear(1, Fraction(0)))
        assert shear_normal_form(sheared) == corpus["FF1"]

    def test_ff1_canonical(self, corpus):
        assert shear_normal_form(corpus["FF1"]) == corpus["FF1"]

    def test_idempotent_on_random_images(self, corpus):
        rng = random.Random(11)
        for polygon in corpus.values():
            image = transform_polygon(polygon, random_global_shear(rng))
            normal = shear_normal_form(image)
            assert shear_normal_form(normal) == normal
            assert normal == shear_normal_form(polygon)
