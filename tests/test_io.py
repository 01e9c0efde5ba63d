import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    corpus_polygons_under_ops,
    focus_ladder,
    multi_column_polygons,
    multiplicity_probe,
    same_answers_tool,
)
from semitoric import (
    DomainError,
    GeometryError,
    ParseError,
    Point,
    SemitoricError,
    ValidationFailure,
    betti_b2,
    build_graph,
    chop_allowance,
    corner_chop,
    corpus_names,
    delzant_presentations,
    emit_dot,
    enumerate_presentations,
    parse_polygon,
    serialize_polygon,
)
import semitoric.cli as cli
from semitoric.cli import run_cli
from semitoric.serialization import polygon_data


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


def cli_process(*args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) -> subprocess.Popen:
    """``python -m semitoric.cli`` with these arguments, from this package, stdout piped by default."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["semitoric"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "semitoric.cli", *args]
    return subprocess.Popen(command, stdout=stdout, stderr=stderr, env=env)


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

    def test_top_level_array_rejected(self):
        with pytest.raises(ParseError, match="^top level must be a JSON object$"):
            parse_polygon("[]")

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="p/q strings"):
            parse_polygon('{"vertices": [["0","0"],["1","0"],["0.5","1"]]}')

    def test_number_literal_rejected(self):
        with pytest.raises(ParseError, match="p/q strings"):
            parse_polygon('{"vertices": [[0,0],["1","0"],["1","1"]]}')

    @pytest.mark.parametrize("x", ["\u0661", "\u0661/1", "1/\u0661", "1/1\u0662", "\u0663/\u0663", "\uff11"])
    def test_non_ascii_digits_rejected(self, tmp_path, x):
        # int() and Fraction() read every Unicode decimal digit; the file format takes ASCII 0-9 only
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"vertices": [["0", "0"], [x, "0"], ["0", "1"]]}))
        with pytest.raises(ParseError, match="p/q strings"):
            parse_polygon(path.read_bytes())
        assert run_cli(["validate", str(path)], io.StringIO(), io.StringIO()) == 2

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

    def test_allowance_off_the_vertices_is_a_domain_error(self, corpus):
        with pytest.raises(DomainError, match="not a vertex"):
            chop_allowance(corpus["SQUARE"], pt(5, 5))

    def test_chop_size_must_be_positive(self, corpus):
        with pytest.raises(DomainError, match="^chop size must be positive$"):
            corner_chop(corpus["SQUARE"], pt(0, 0), 0)

    def test_oversized_chop_rejected(self, corpus):
        with pytest.raises(DomainError, match="strictly inside"):
            corner_chop(corpus["SQUARE"], pt(0, 0), Fraction(1))

    def test_float_size_refused(self, corpus):
        # as for Point: 0.1 is not 1/10, so no chop is sized by a float
        square = corpus["SQUARE"]
        with pytest.raises(GeometryError, match="not exact"):
            corner_chop(square, pt(0, 0), 0.1)
        assert corner_chop(square, pt(0, 0), "1/3") == corner_chop(square, pt(0, 0), Fraction(1, 3))

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

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["dh"], ["adaptable"], ["presentations"], ["presentations", "--delzant-only"],
         ["switch-cut", "--index", "0"]],
    )
    def test_one_mark_of_multiplicity_ten_to_the_eighteen(self, tmp_path, command):
        # a few bytes of input: no answer but the graph's may cost time or memory in k
        path = tmp_path / "probe.json"
        path.write_text(serialize_polygon(multiplicity_probe(10**18)))
        start = time.perf_counter()
        code, out, _ = self.run(command[0], str(path), *command[1:])
        assert code == 0 and time.perf_counter() - start < 1
        if command == ["adaptable"]:
            assert out == "non-adaptable\nviolating level x=1: E=0, FF=1000000000000000000, S=0\n"
        if command[-1] == "--delzant-only":
            assert out == "[]\n"

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

    def test_presentations_stream_the_library_rows(self, tmp_path, corpus, derived_polygons):
        # the streamed output is byte for byte json.dumps of the whole row list
        polygons = list(corpus.values()) + derived_polygons + multi_column_polygons(20, max_marks=6)
        for i, polygon in enumerate(polygons):
            path = tmp_path / f"p{i}.json"
            path.write_text(serialize_polygon(polygon))
            polygon = parse_polygon(path.read_text())
            rows = [
                {"signs": list(signs), "polygon": polygon_data(member)}
                for signs, member in enumerate_presentations(polygon).members
            ]
            assert self.run("presentations", str(path)) == (0, json.dumps(rows, separators=(",", ":")) + "\n", "")
            rows = [{"polygon": polygon_data(member)} for member in delzant_presentations(polygon)]
            expected = (0, json.dumps(rows, separators=(",", ":")) + "\n", "")
            assert self.run("presentations", str(path), "--delzant-only") == expected

    def test_delzant_listing_memory_is_flat(self, tmp_path):
        # each row is written as its member is built, and no member outlives its row: the traced peak
        # at m = 10 (1024 rows) stays within twice the peak at m = 6 (64 rows)
        import tracemalloc

        class Discard:
            def write(self, text):
                return len(text)

        peaks = {}
        for m in (6, 10):
            path = tmp_path / f"ladder{m}.json"
            path.write_text(serialize_polygon(focus_ladder([1] * m)))
            tracemalloc.start()
            try:
                assert run_cli(["presentations", str(path), "--delzant-only"], Discard(), io.StringIO()) == 0
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10] <= 2 * peaks[6], peaks

    def test_presentations_seventeen_entries_stream(self, tmp_path):
        # 2^17 rows, past the old 16-entry bound: the first arrives before the rest are built
        polygon = focus_ladder([1] * 17)
        path = tmp_path / "ladder.json"
        path.write_text(serialize_polygon(polygon))
        with cli_process("presentations", str(path)) as process:
            try:
                head = process.stdout.read(1 << 16).decode()
            finally:
                process.kill()
        assert head.startswith("[")
        first, _ = json.JSONDecoder().raw_decode(head, 1)
        assert first == {"signs": [-1] * 17, "polygon": polygon_data(polygon)}

    @pytest.mark.parametrize("command", ["presentations", "adaptable"])
    def test_reader_closes_the_pipe_early(self, tmp_path, command):
        # as `semitoric presentations F | head -c 20`: the output outgrows the
        # pipe, so the write after the reader leaves fails; exit 1, stderr empty
        path = tmp_path / "ladder.json"
        path.write_text(serialize_polygon(focus_ladder([1] * 12)))
        with cli_process(command, str(path), stderr=subprocess.PIPE) as process:
            assert len(process.stdout.read(20)) == 20
            process.stdout.close()
            err = process.stderr.read()
            assert process.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["corpus", "list"], ["graph", "corpus:FF1"]])
    def test_stdout_refuses_the_output(self, argv):
        # as `semitoric corpus list > /dev/full`: every write fails with ENOSPC
        with open("/dev/full", "wb") as full, cli_process(*argv, stdout=full, stderr=subprocess.PIPE) as process:
            err = process.stderr.read()
            assert process.wait(timeout=60) == 1
        assert err == b"error: cannot write output: [Errno 28] No space left on device\n"

    def test_stdout_is_a_closed_pipe(self):
        # as `semitoric corpus list | true` once `true` has exited: the flush fails with EPIPE; exit 1, stderr empty
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with cli_process("corpus", "list", stdout=write_end, stderr=subprocess.PIPE) as process:
                err = process.stderr.read()
                assert process.wait(timeout=60) == 1
        finally:
            os.close(write_end)
        assert err == b""

    def test_chop_vertex_needs_two_components(self):
        code, out, err = self.run("chop", "corpus:SQUARE", "--vertex", "1", "--size", "1/3")
        assert (code, out, err) == (1, "", "error: expected X,Y with rational components, got '1'\n")

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

    @pytest.mark.parametrize("options", [["validate"], ["classify"], ["graph"], ["dh"], ["adaptable"],
                                         ["switch-cut", "--index", "0"], ["presentations"],
                                         ["self-intersection", "--side", "left"],
                                         ["chop", "--vertex", "0,0", "--size", "1/3"]])
    def test_path_with_nul_byte(self, options):
        # open() raises ValueError, not OSError, on such a path: it is still a file that cannot be read
        code, out, err = self.run(options[0], "polygon\x00.json", *options[1:])
        assert (code, out) == (2, "") and "cannot read" in err

    def test_classify(self):
        code, out, _ = self.run("classify", "corpus:HD1")
        assert code == 0
        assert "hidden-delzant" in out
        assert out.count("\n") == 3

    def test_help_top_level(self):
        code, out, err = self.run("-h")
        assert code == 0 and out.startswith("usage: semitoric") and err == ""

    def test_help_after_subcommand(self):
        code, out, err = self.run("graph", "corpus:FF1", "-h")
        assert code == 0 and out.startswith("usage: semitoric graph") and err == ""

    def test_graph_multiplicity_nine_mark(self, tmp_path):
        # one mark of multiplicity 9: a block of nine tied graph vertices
        path = tmp_path / "nine.json"
        path.write_text(
            '{"vertices": [["0","0"],["1","0"],["2","9"],["2","10"],["0","10"]],'
            ' "marked_points": [{"x":"1","y":"10/3","multiplicity":9,"cut":-1}]}'
        )
        code, out, _ = self.run("graph", str(path))
        assert code == 0
        labels = [v["label"] for v in json.loads(out)["vertices"] if v["kind"] == "isolated"]
        assert labels == ["1"] * 9

    @pytest.mark.parametrize("columns", [16, 64])
    def test_graph_staircase(self, tmp_path, columns):
        # vertical edges at x = 0 and x = columns + 1, and a bottom and a top
        # vertex at every x in between: one tied pair per column, no edges
        last = columns + 1
        height = last * (last - 1) + 1
        bottom = [[str(x), str(x * (x - 1) // 2)] for x in range(last + 1)]
        top = [[str(x), str(height - x * (x - 1) // 2)] for x in range(last, -1, -1)]
        path = tmp_path / "staircase.json"
        path.write_text(json.dumps({"vertices": bottom + top}))
        code, out, _ = self.run("graph", str(path))
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 2 * columns + 2 and data["edges"] == []

    def test_adaptable_twenty_points(self, tmp_path):
        # past the old 16-point enumeration bound, with a triple column at x = 9
        path = tmp_path / "twenty.json"
        path.write_text(serialize_polygon(focus_ladder([1] * 8 + [3] + [1] * 9)))
        assert self.run("adaptable", str(path)) == (0, "non-adaptable\nviolating level x=9: E=0, FF=3, S=0\n", "")

    def test_thousand_marks_on_one_column(self, tmp_path):
        # one column of 1000 unit marks: each of its 1001 up-counts is checked without a build
        path = tmp_path / "thousand.json"
        path.write_text(
            '{"vertices": [["0","0"],["1","0"],["2","1000"],["2","1001"],["0","1001"]],'
            ' "marked_points": [{"x":"1","y":"1","multiplicity":1000,"cut":-1}]}'
        )
        assert self.run("adaptable", str(path)) == (0, "non-adaptable\nviolating level x=1: E=0, FF=1000, S=0\n", "")
        assert self.run("presentations", str(path), "--delzant-only") == (0, "[]\n", "")

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

    def test_oversized_denominator(self, tmp_path):
        digits = sys.get_int_max_str_digits()
        text = '{"vertices": [["0","0"],["1/%s","0"],["0","1"]]}' % ("1" * (digits + 1))
        with pytest.raises(ParseError) as info:
            parse_polygon(text)
        assert str(info.value) == f"vertices[1][0]: p and q are limited to {digits} digits each"
        assert self.run_file(tmp_path, text.encode())[0] == 2

    def test_unicode_digit_in_denominator(self, tmp_path):
        text = '{"vertices": [["0","0"],["1","0"],["0","1/\u0662"]]}'  # ARABIC-INDIC DIGIT TWO
        with pytest.raises(ParseError) as info:
            parse_polygon(text)
        assert str(info.value) == "vertices[2][1]: rationals must be p/q strings, got '1/\u0662'"
        assert self.run_file(tmp_path, text.encode())[0] == 2

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1.5", "rationals must be p/q strings, got '1.5'"),
            ("1/0", "rationals must be p/q strings, got '1/0'"),
            ("+1", "rationals must be p/q strings, got '+1'"),
            (" 1", "rationals must be p/q strings, got ' 1'"),
            ("\u0661", "rationals must be p/q strings, got '\u0661'"),
            (1, "rationals must be p/q strings, got 1"),
            (None, "rationals must be p/q strings, got None"),
            (["1"], "rationals must be p/q strings, got ['1']"),
            ("1" * 5000, "p and q are limited to {digits} digits each"),
            ("1/" + "1" * 5000, "p and q are limited to {digits} digits each"),
        ],
    )
    def test_hostile_rational_fields(self, value, message):
        # each field of a vertex and of a mark names itself, with the same message
        digits = sys.get_int_max_str_digits()
        message = message.format(digits=digits)
        for where in ("vertices[0][0]", "vertices[2][1]", "marked_points[0].x", "marked_points[1].y"):
            data = {
                "vertices": [["0", "0"], ["2", "0"], ["0", "2"]],
                "marked_points": [{"x": "1/2", "y": "1/2", "multiplicity": 1, "cut": -1}] * 2,
            }
            data["marked_points"] = [dict(mark) for mark in data["marked_points"]]
            if where.startswith("vertices"):
                data["vertices"][int(where[9])][int(where[12])] = value
            else:
                data["marked_points"][int(where[14])][where[-1]] = value
            with pytest.raises(ParseError) as info:
                parse_polygon(json.dumps(data))
            assert str(info.value) == f"{where}: {message}"

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

    def test_oversized_computed_rational(self, tmp_path):
        # every input is accepted, but the new vertex's denominator has 8600 digits
        side = f"1/{10 ** 4299 + 1}"
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"vertices": [["0", "0"], [side, "0"], [side, side], ["0", side]]}))
        out, err = io.StringIO(), io.StringIO()
        argv = ["chop", str(path), "--vertex", f"{side},{side}", "--size", f"1/{10 ** 4299 + 3}"]
        assert run_cli(argv, out, err) == 1
        assert "digits" in err.getvalue() and out.getvalue() == ""

    def test_message_prints_the_size_of_an_oversized_determinant(self, tmp_path):
        # 60 points on the parabola y = x^2 with 2000-digit denominators: every
        # corner's determinant has ~8000 digits, past the int-string limit
        big = 10**2000
        xs = [k + Fraction(1, big + 7 * k + 1) for k in range(60)]
        text = json.dumps({"vertices": [[str(x), str(x * x)] for x in xs]})
        code, out, err = self.run_file(tmp_path, text.encode())
        lines = out.splitlines()
        assert (code, err, len(lines)) == (2, "", 60)
        for line in lines:
            assert line.startswith("violation unclassifiable-vertex at (")
            assert re.search(r"no cuts end here and \|det\(u w\)\| = a \d+-digit integer, not 1$", line)

    def test_message_prints_the_size_of_an_oversized_cut_endpoint(self, tmp_path):
        # the top boundary height at the mark's column has 6001-digit p and q
        a, b = Fraction(1, 10**2000 + 1), Fraction(1, 10**2000 + 3)
        vertices = [["0", "0"], ["3", "0"], ["3", str(1 + a)], ["0", str(2 + b)]]
        mark = {"x": str(1 + a), "y": "1/2", "multiplicity": 1, "cut": 1}
        text = json.dumps({"vertices": vertices, "marked_points": [mark]})
        code, out, err = self.run_file(tmp_path, text.encode())
        assert (code, err) == (2, "")
        assert out.startswith(f"violation cut-endpoint-not-vertex at marks[0] at ({1 + a}, 1/2): cut endpoint ({1 + a}, ")
        assert out.endswith(", a fraction of 6001/6001 digits) is not a vertex of the polygon\n")

    def test_classify_refuses_an_oversized_primitive(self, tmp_path):
        # a valid polygon whose steep edge has the primitive (1, qM) of ~8000 digits
        q, m = 10**4000 + 1, 10**4000
        vertices = [["0", "0"], [f"1/{q}", str(m)], [f"1/{q}", str(m + 1)], ["0", "1"]]
        text = json.dumps({"vertices": vertices}).encode()
        assert self.run_file(tmp_path, text)[0] == 0
        code, out, err = self.run_file(tmp_path, text, command="classify")
        assert (code, out) == (1, "")
        assert err == f"error: a computed rational exceeds {sys.get_int_max_str_digits()} digits in p or q\n"

    def test_dh_refuses_an_oversized_slope(self, tmp_path):
        # SQUARE chopped to 32 vertices with 400-digit denominators (same_answers' digits family): valid, but some
        # slice lengths pass the int-string limit, so dh writes nothing
        text = same_answers_tool().digits_texts(digits=(400,))[0].encode()
        assert self.run_file(tmp_path, text)[0] == 0
        code, out, err = self.run_file(tmp_path, text, command="dh")
        assert (code, out) == (1, "")
        assert err == f"error: a computed rational exceeds {sys.get_int_max_str_digits()} digits in p or q\n"

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


@settings(max_examples=200, deadline=None)
@given(polygon=corpus_polygons_under_ops())
def test_serialize_parse_round_trip(polygon):
    text = serialize_polygon(polygon)
    assert parse_polygon(text) == polygon
    assert serialize_polygon(parse_polygon(text)) == text


# tokens of the command-line grammar, valid and not: subcommands, their options and values, help flags, abbreviated
# and unknown options, "--" and the empty string
_ARGV_TOKENS = (
    "validate", "classify", "graph", "dh", "adaptable", "switch-cut", "presentations", "self-intersection", "chop",
    "corpus", "list", "get", "FF1", "bogus", "valid", "-h", "--help", "--he", "--format", "--format=dot", "--form",
    "json", "dot", "xml", "--index", "--index=2", "0", "-1", "x", "--delzant-only", "--delz", "--side", "--side=left",
    "left", "right", "--vertex", "1,0", "--size", "1/4", "corpus:FF1", "polygon.json", "--", "--unknown", "-x", "",
)


def _parse_outcome(parse, argv):
    """What a parse of argv gives: its namespace's items in order, or its usage error or help text."""
    try:
        return "args", list(vars(parse(argv)).items())
    except (cli._UsageError, cli._HelpRequested) as exc:
        return type(exc).__name__, str(exc)


def test_subcommand_dispatch_matches_the_full_parse():
    # a first token that names a subcommand goes straight to its subparser: the same namespace, usage error or help
    rng = random.Random(20261019)
    commands = list(cli._COMMANDS)
    argvs = [[command, *extra] for command in commands for extra in ([], ["-h"], ["polygon.json"])]
    while len(argvs) < 3000:
        first = rng.choice(commands) if rng.random() < 0.8 else rng.choice(_ARGV_TOKENS)
        argvs.append([first] + [rng.choice(_ARGV_TOKENS) for _ in range(rng.randrange(4))])
    kinds = set()
    for argv in argvs + [[]]:
        expected = _parse_outcome(cli._PARSER.parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == expected, argv
        kinds.add(expected[0])
    assert kinds == {"args", "_UsageError", "_HelpRequested"}
