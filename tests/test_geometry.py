import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semitoric import (
    GeometryError,
    GlobalShear,
    LatticeVector,
    Point,
    det2,
    format_rational,
    parse_rational,
    primitive,
    primitive_direction,
    shear_vector,
)

small_ints = st.integers(min_value=-20, max_value=20)
nonzero_vectors = st.tuples(small_ints, small_ints).filter(lambda v: v != (0, 0))


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("-3/2") == Fraction(-3, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1/0", "1/-2", "", "a", 0.5, 1, None, "1/2/3", " 1"])
    def test_rejects_non_pq_strings(self, bad):
        with pytest.raises(GeometryError):
            parse_rational(bad)

    def test_round_trip(self):
        for text in ("0", "5", "-5", "1/2", "-22/7"):
            assert format_rational(parse_rational(text)) == text

    def test_format_past_digit_limit(self):
        # a computed value may pass the int-string limit that parsing enforces
        too_long = Fraction(1, 10 ** sys.get_int_max_str_digits() + 1)
        with pytest.raises(GeometryError, match="digits"):
            format_rational(too_long)

    def test_describe_never_raises(self):
        from semitoric.geometry import LatticeVector, describe

        digits = sys.get_int_max_str_digits()
        assert describe(Point(Fraction(-22, 7), 3)) == "(-22/7, 3)" and describe(LatticeVector(1, -2)) == "(1, -2)"
        assert describe(10**digits) == f"a {digits + 1}-digit integer"
        assert describe(1 - 10 ** (digits + 1)) == f"a {digits + 1}-digit integer"
        assert describe(Fraction(7, 10**digits + 1)) == f"a fraction of 1/{digits + 1} digits"
        assert describe(Fraction(10**digits, 3)) == f"a fraction of {digits + 1}/1 digits"
        assert describe(Point(Fraction(1, 2), 10 ** (digits + 5))) == f"(1/2, a {digits + 6}-digit integer)"
        assert describe(LatticeVector(3, 10**digits)) == f"(3, a {digits + 1}-digit integer)"

    def test_points_reject_floats(self):
        with pytest.raises(GeometryError):
            Point(0.5, 1)


class TestPrimitive:
    def test_examples(self):
        assert primitive((4, 2)) == LatticeVector(2, 1)
        assert primitive((0, -3)) == LatticeVector(0, -1)
        assert primitive((-2, -1)) == LatticeVector(-2, -1)
        assert str(LatticeVector(2, -1)) == "(2, -1)"

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            primitive((0, 0))
        with pytest.raises(GeometryError, match="zero vector has no direction"):
            primitive_direction(0, 0)

    @given(nonzero_vectors)
    def test_idempotent_and_parallel(self, v):
        p = primitive(v)
        assert primitive(p) == p
        # parallel with the same orientation: positive rational multiple
        assert v[0] * p.b == v[1] * p.a
        assert v[0] * p.a + v[1] * p.b > 0

    def test_rational_directions(self):
        assert primitive_direction(Fraction(1), Fraction(1, 2)) == LatticeVector(2, 1)
        assert primitive_direction(Fraction(-1, 3), Fraction(0)) == LatticeVector(-1, 0)
        with pytest.raises(GeometryError, match="lattice vectors need integer entries"):
            primitive((Fraction(1, 2), 1))


class TestDet2:
    def test_examples(self):
        assert det2(LatticeVector(1, 0), LatticeVector(1, 1)) == 1
        assert det2(LatticeVector(2, 1), LatticeVector(1, 1)) == 1
        assert det2(LatticeVector(2, 1), LatticeVector(2, -1)) == -4

    @given(small_ints, small_ints, small_ints, small_ints, small_ints)
    def test_shear_identity(self, ua, ub, wa, wb, coefficient):
        # det(u, Aw) - det(u, w) = c * u1 * w1 for the unipotent shear A
        u, w = LatticeVector(ua, ub), LatticeVector(wa, wb)
        assert det2(u, shear_vector(w, coefficient)) - det2(u, w) == coefficient * ua * wa


class TestGlobalShear:
    def test_examples(self):
        assert GlobalShear(1, Fraction(0)).apply(Point(2, 1)) == Point(2, 3)
        p = Point(Fraction(7, 3), Fraction(-2, 5))
        assert GlobalShear(0, Fraction(0)).apply(p) == p
        assert GlobalShear(0, Fraction(1, 2)).apply(Point(1, Fraction(1, 4))) == Point(1, Fraction(3, 4))

    def test_slope_must_be_an_integer(self):
        with pytest.raises(GeometryError, match="^global shear slope must be an integer$"):
            GlobalShear(Fraction(1, 2), 0)

    @given(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints)
    def test_composition_adds(self, j1, t1, j2, t2, x, y):
        p = Point(Fraction(x, 3), Fraction(y, 2))
        one_then_two = GlobalShear(j2, Fraction(t2, 3)).apply(GlobalShear(j1, Fraction(t1, 3)).apply(p))
        combined = GlobalShear(j1 + j2, Fraction(t1 + t2, 3)).apply(p)
        assert one_then_two == combined
