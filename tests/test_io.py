import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitoric import (
    DomainError,
    ParseError,
    Point,
    SemitoricError,
    ValidationFailure,
    betti_b2,
    build_graph,
    chop_allowance,
    corner_chop,
    corpus_names,
    emit_dot,
    parse_polygon,
    serialize_polygon,
)
from semitoric.cli import run_cli


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


FF1_TEXT = (
    '{"vertices": [["0","0"],["1","0"],["2","1"]],'
    ' "marked_points": [{"x":"1","y":"1/4","multiplicity":1,"cut":-1}]}'
)


class TestParseSerialize:
    def test_ff1_round_trip(self, corpus):
        assert parse_polygon(FF1_TEXT) == corpus["FF1"]

    def test_clockwise_rejected(self):
        with pytest.raises(ParseError, match="not counter-clockwise"):
            parse_polygon('{"vertices": [["0","0"],["0","1"],["1","0"]]}')

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="p/q strings"):
            parse_polygon('{"vertices": [["0","0"],["1","0"],["0.5","1"]]}')

    def test_number_literal_rejected(self):
        with pytest.raises(ParseError, match="p/q strings"):
            parse_polygon('{"vertices": [[0,0],["1","0"],["1","1"]]}')

    def test_invalid_polygon_raises_report(self):
        text = (
            '{"vertices": [["0","0"],["1","0"],["2","1"]],'
            ' "marked_points": [{"x":"1","y":"1/4","multiplicity":1,"cut":1}]}'
        )
        with pytest.raises(ValidationFailure) as exc:
            parse_polygon(text)
        assert exc.value.report.violations[0].rule == "cut-endpoint-not-vertex"

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_polygon("{nope")

    def test_missing_mark_field(self):
        with pytest.raises(ParseError, match="missing"):
            parse_polygon('{"vertices": [["0","0"],["1","0"],["1","1"]], "marked_points": [{"x":"1","y":"1/4"}]}')

    def test_round_trip_corpus(self, corpus):
        for polygon in corpus.values():
            text = serialize_polygon(polygon)
            assert parse_polygon(text) == polygon
            assert serialize_polygon(parse_polygon(text)) == text

    def test_serialize_canonical_rotation(self, corpus):
        text = serialize_polygon(corpus["FF1"])
        assert json.loads(text)["vertices"][0] == ["0", "0"]

    def test_serialize_deterministic(self, corpus):
        polygon = corpus["SQUARE"]
        assert serialize_polygon(polygon) == serialize_polygon(polygon)


class TestEmitDot:
    def test_square(self, corpus):
        dot = emit_dot(build_graph(corpus["SQUARE"]))
        assert dot.startswith("digraph G {")
        assert dot.count("doublecircle") == 2
        assert "->" not in dot

    def test_ff1(self, corpus):
        dot = emit_dot(build_graph(corpus["FF1"]))
        assert dot.count("shape=circle") == 3
        assert 'n0 -> n2 [label="2"];' in dot

    def test_empty_graph(self):
        from semitoric import KarshonGraph

        dot = emit_dot(KarshonGraph((), ()))
        assert dot == "digraph G {\n  rankdir=LR;\n}\n"


class TestCornerChop:
    def test_square_example(self, corpus):
        chopped = corner_chop(corpus["SQUARE"], pt(0, 0), Fraction(1, 3))
        assert set(chopped.vertices) == {
            pt(Fraction(1, 3), 0),
            pt(1, 0),
            pt(1, 1),
            pt(0, 1),
            pt(0, Fraction(1, 3)),
        }
        from semitoric import is_delzant_polygon, validate

        assert validate(chopped).valid and is_delzant_polygon(chopped)

    def test_ff1_example(self, corpus):
        chopped = corner_chop(corpus["FF1"], pt(2, 1), Fraction(1, 4))
        assert pt(Fraction(3, 2), Fraction(3, 4)) in chopped.vertices
        assert pt(Fraction(7, 4), Fraction(3, 4)) in chopped.vertices

    def test_fake_vertex_rejected(self, corpus):
        with pytest.raises(DomainError, match="not Delzant"):
            corner_chop(corpus["FF1"], pt(1, 0), Fraction(1, 10))

    def test_oversized_chop_rejected(self, corpus):
        with pytest.raises(DomainError, match="strictly inside"):
            corner_chop(corpus["SQUARE"], pt(0, 0), Fraction(1))

    def test_chop_swallowing_mark_rejected(self, corpus):
        # big chop at the right tip of FF1 would cut off the marked point
        with pytest.raises(SemitoricError):
            corner_chop(corpus["FF1"], pt(2, 1), Fraction(99, 100))

    def test_b2_increases_by_one(self, corpus):
        for name in ("SQUARE", "CP2STD", "FF1", "HD1DOWN"):
            polygon = corpus[name]
            before = betti_b2(build_graph(polygon))
            for vertex in polygon.vertices:
                from semitoric import VertexKind, classify_vertex

                if classify_vertex(polygon, vertex).kind is not VertexKind.DELZANT:
                    continue
                delta = chop_allowance(polygon, vertex) / 3
                try:
                    chopped = corner_chop(polygon, vertex, delta)
                except SemitoricError:
                    continue
                assert betti_b2(build_graph(chopped)) == before + 1


class TestCli:
    def run(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(list(argv), out, err)
        return code, out.getvalue(), err.getvalue()

    def test_graph_json(self, corpus):
        code, out, _ = self.run("graph", "corpus:FF1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 3
        assert data["edges"] == [{"from": 0, "to": 2, "weight": 2}]

    def test_graph_dot(self):
        code, out, _ = self.run("graph", "corpus:FF1", "--format", "dot")
        assert code == 0 and out.startswith("digraph G {")

    def test_adaptable_nonadapt3(self):
        code, out, _ = self.run("adaptable", "corpus:NONADAPT3")
        assert code == 0
        assert "non-adaptable" in out
        assert "x=1" in out and "E=0, FF=3, S=0" in out

    def test_validate_file(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(FF1_TEXT)
        code, out, _ = self.run("validate", str(good))
        assert code == 0 and out.strip() == "valid"

    def test_validate_broken_file(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"vertices": [["0","0"],["1","0"],["2","2"],["0","1"]]}')
        code, out, err = self.run("validate", str(broken))
        assert code == 2
        assert "violation" in out + err

    def test_validate_corpus_entries(self):
        for name in corpus_names():
            code, out, _ = self.run("validate", f"corpus:{name}")
            assert code == 0 and out.strip() == "valid"

    def test_switch_cut(self, corpus):
        code, out, _ = self.run("switch-cut", "corpus:FF1", "--index", "0")
        assert code == 0
        assert parse_polygon(out) == corpus["FF1UP"]

    def test_presentations(self):
        code, out, _ = self.run("presentations", "corpus:FF1")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2 and rows[0]["signs"] == [-1]

    def test_presentations_delzant_only(self):
        code, out, _ = self.run("presentations", "corpus:NONADAPT3", "--delzant-only")
        assert code == 0 and json.loads(out) == []

    def test_self_intersection(self):
        code, out, _ = self.run("self-intersection", "corpus:CP2STD", "--side", "left")
        assert code == 0 and out.strip() == "1"

    def test_self_intersection_domain_error(self):
        code, _, err = self.run("self-intersection", "corpus:FF1", "--side", "left")
        assert code == 1 and "no vertical edge" in err

    def test_chop(self, corpus):
        code, out, _ = self.run("chop", "corpus:SQUARE", "--vertex", "0,0", "--size", "1/3")
        assert code == 0
        assert parse_polygon(out) == corner_chop(corpus["SQUARE"], pt(0, 0), Fraction(1, 3))

    def test_dh(self):
        code, out, _ = self.run("dh", "corpus:NONADAPT3")
        assert code == 0
        data = json.loads(out)
        assert data["values"] == ["4", "4", "1"]
        assert data["consistent"] is True

    def test_corpus_commands(self, corpus):
        code, out, _ = self.run("corpus", "list")
        assert code == 0 and out.split() == list(corpus_names())
        code, out, _ = self.run("corpus", "get", "FF1")
        assert code == 0 and parse_polygon(out) == corpus["FF1"]

    def test_unknown_corpus_entry(self):
        code, _, err = self.run("corpus", "get", "NOPE")
        assert code == 1 and "unknown corpus entry" in err

    def test_usage_error(self):
        code, _, err = self.run("bogus")
        assert code == 64

    def test_missing_file(self):
        code, _, err = self.run("validate", "/does/not/exist.json")
        assert code == 2

    def test_classify(self):
        code, out, _ = self.run("classify", "corpus:HD1")
        assert code == 0
        assert "hidden-delzant" in out
        assert out.count("\n") == 3

    def test_output_deterministic(self):
        first = self.run("graph", "corpus:NONADAPT3", "--format", "json")
        second = self.run("graph", "corpus:NONADAPT3", "--format", "json")
        assert first == second


class TestHostileInput:
    def run_file(self, tmp_path, payload: bytes, command="validate"):
        path = tmp_path / "hostile.json"
        path.write_bytes(payload)
        out, err = io.StringIO(), io.StringIO()
        return run_cli([command, str(path)], out, err), out.getvalue(), err.getvalue()

    def test_oversized_rational(self, tmp_path):
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        text = '{"vertices": [["0","0"],["%s","0"],["0","1"]]}' % huge
        with pytest.raises(ParseError, match=f"{sys.get_int_max_str_digits()} digits"):
            parse_polygon(text)
        assert self.run_file(tmp_path, text.encode())[0] == 2

    def test_longest_rational_accepted(self):
        digits = sys.get_int_max_str_digits()
        big = "1" + "0" * (digits - 1)
        polygon = parse_polygon('{"vertices": [["0","0"],["%s","0"],["0","%s"]]}' % (big, big))
        assert polygon.vertices[1] == pt(10 ** (digits - 1), 0)

    def test_not_utf8(self, tmp_path):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_polygon(b'{"vertices": "\xff"}')
        assert self.run_file(tmp_path, b"\xff\xfe\x00")[0] == 2

    def test_deep_nesting(self, tmp_path):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polygon("[" * 100000)
        assert self.run_file(tmp_path, b"[" * 100000)[0] == 2

    def test_marks_not_an_array(self, tmp_path):
        text = '{"vertices": [["0","0"],["1","0"],["0","1"]], "marked_points": 5}'
        with pytest.raises(ParseError, match="marked_points"):
            parse_polygon(text)
        assert self.run_file(tmp_path, text.encode())[0] == 2

    def test_oversized_json_integer(self, tmp_path):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        text = '{"vertices": [["0","0"],["1","0"],["0","1"]], "marked_points": [{"x":"1/4","y":"1/4","multiplicity":%s,"cut":-1}]}'
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_polygon(text % digits)
        assert self.run_file(tmp_path, (text % digits).encode())[0] == 2

    @pytest.mark.parametrize("field", ["multiplicity", "cut"])
    def test_boolean_mark_fields_rejected(self, tmp_path, field):
        mark = {"x": "1", "y": "1/4", "multiplicity": 1, "cut": 1}
        mark[field] = True
        text = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["2", "1"]], "marked_points": [mark]})
        with pytest.raises(ParseError, match=field if field == "multiplicity" else "cut sign"):
            parse_polygon(text)
        assert self.run_file(tmp_path, text.encode())[0] == 2


_SUBCOMMANDS = [
    ["validate"],
    ["classify"],
    ["graph"],
    ["graph", "--format", "dot"],
    ["dh"],
    ["adaptable"],
    ["switch-cut", "--index", "0"],
    ["presentations"],
    ["presentations", "--delzant-only"],
    ["self-intersection", "--side", "left"],
    ["chop", "--vertex", "0,0", "--size", "1/3"],
]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_rationals = st.builds(
    lambda p, q: str(p) if q == 1 else f"{p}/{q}", st.integers(-3, 4), st.integers(1, 3)
)
_polygon_texts = st.builds(
    lambda vertices, marks: json.dumps({"vertices": vertices, "marked_points": marks}).encode(),
    st.lists(st.lists(_rationals, min_size=2, max_size=2), max_size=6) | _json_values,
    st.lists(
        st.fixed_dictionaries(
            {
                "x": _rationals,
                "y": _rationals,
                "multiplicity": st.one_of(st.integers(-1, 3), st.booleans(), _json_values),
                "cut": st.sampled_from([-1, 1, 0, True, 1.0]),
            }
        ),
        max_size=3,
    )
    | _json_values,
)


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(st.binary(max_size=300), _polygon_texts), argv=st.sampled_from(_SUBCOMMANDS))
def test_cli_on_arbitrary_bytes_only_exits(tmp_path_factory, payload, argv):
    path = tmp_path_factory.getbasetemp() / "arbitrary.json"
    path.write_bytes(payload)
    code = run_cli([argv[0], str(path), *argv[1:]], io.StringIO(), io.StringIO())
    assert code in (0, 1, 2, 64)
