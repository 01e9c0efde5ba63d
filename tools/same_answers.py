#!/usr/bin/env python3
"""Check that this checkout gives the same answers as git revision REV.

    python3 tools/same_answers.py REV

REV is extracted with ``git archive`` into a temporary directory.  Each tree
makes the inputs in a process of its own, from its own ``tests/conftest.py``
and ``src/``: the corpus, ``fuzz_derivatives(200)``,
``multi_column_polygons`` at two seeds, focus ladders together with their
merged-mark forms (coincident unit marks of one sign joined into one mark),
the multiplicity family (one mark of multiplicity k, see
``multiplicity_probe``, at k from 1 to 10^4) and the corner-chop family
(SQUARE, FF1 and NONADAPT3 grown to 256 vertices, see ``chopped``), plus
invalid probes: each corpus and fuzz polygon with its vertices reversed,
with every cut sign flipped, and with its first vertex doubled; and the
extra-marks family: each corpus, fuzz and multi-column polygon with a mark
on J_min, with one on J_max, and with a pair of opposite cut signs at one
column (see ``extra_marks``), most of them invalid.
Each is written as a polygon file, and an input file that differs between
the two trees is a difference.  So are the raw-text family (see
``raw_texts``), files written verbatim, not by ``serialize_polygon``, so
that the parse meets non-canonical text: each corpus and fuzz polygon with
its vertex list rotated to each of its first eight starts and its marks in
reverse order, and seeded mutations of those files (a coordinate replaced, a
vertex doubled, dropped or inserted, or a field given a hostile value such
as ``"1.5"``, ``"1/0"``, ``"+1"``, a Unicode digit, a number, null or a p or
q past the int-string limit), and the digits family (see ``digits_texts``):
SQUARE chopped to 32 vertices with 10-, 100- and 400-digit denominators, as
``tools/graph_probe.py`` builds it, with coordinates of hundreds of
digits; its ``dh`` at d = 400 ends in exit 1, a computed rational being past
the int-string limit.  Each tree then answers its own inputs (or
the other tree's, when it could not make its own) in its own process:

* library, on the parsed polygon, or for a file that does not parse on the
  polygon built from it without validation (where one can be built):
  ``validate``, ``dh_function``,
  ``dh_jump_report``, ``build_graph``, ``canonical_graph``, the records of
  ``canonical_form`` (their repr holds every field ``==`` compares),
  ``serialize_graph`` and ``emit_dot`` of the built graph,
  ``validate`` compared by ``==`` with the report of a deep copy and with
  a ``ValidationReport`` rebuilt from its classifications and violations,
  ``shear_normal_form``, ``transform_polygon`` under four fixed global
  shears (one with a non-integer offset), ``boundary_chains``,
  ``vertical_edge_endpoints``, ``cut_degrees``, ``cut_endpoint`` at every
  mark, ``zk_chains``, ``is_delzant_polygon``,
  ``classify_vertex``, ``outgoing_primitives``, ``isotropy_weights`` and
  ``chop_allowance`` at every vertex, ``slice_heights`` at every vertex
  and mark column and at the midpoints between them, and ``orbit_counts``
  at the interior ones and at every midpoint (a column between vertices);
  on a valid polygon also ``adaptability``, ``delzant_presentations``, the
  first 64 members of ``enumerate_presentations``, ``switch_cut`` at
  every mark index (and one index past the end), ``self_intersection`` on
  both sides, and ``chop_allowance`` and ``corner_chop`` (by half the
  allowance) at the first Delzant vertex.  Compared by repr, or by error
  type and message;
* command line: ``run_cli`` for ``validate``, ``dh``, ``graph`` (JSON and
  DOT) and ``classify`` on every input; on a valid one also
  ``presentations`` (with and without ``--delzant-only``), ``adaptable``,
  ``self-intersection`` on both sides, ``switch-cut`` and ``chop`` at the
  first Delzant vertex by half its allowance; and once per tree
  ``corpus list`` and ``corpus get`` for every name.  Compared by exit
  code, stdout and stderr, or by the error ``run_cli`` raised.

Answers are compared by SHA-256.  A revision whose adaptability search is
quadratic in a mark's multiplicity spends a few seconds on the k = 10^4
member of the multiplicity family, and each tree takes a few seconds to
grow the corner-chop family.  A tree that cannot make its inputs or
answer them is a difference too, reported by the last line of its error.
The last line reads ``N differences``; the exit code is 0 when N is 0 and 1
otherwise.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED = 64  # members of enumerate_presentations compared per input
SHEARS = ((0, 0), (1, 0), (-2, Fraction(3, 7)), (3, -5))  # (slope, offset) of the global shears compared
LADDERS = ([1] * 4, [1] * 8, [2], [2, 1], [1, 2, 1], [3, 1], [2, 2], [1, 1, 3], [2, 1, 2])
MULTIPLICITIES = (1, 2, 3, 4, 7, 64, 10**3, 10**4)
CHOPPED = ("SQUARE", "FF1", "NONADAPT3")  # corpus polygons grown by corner chops
CHOPPED_SIZE = 256  # vertices of each grown polygon
RAW_STARTS = 8  # rotations of the vertex list written per polygon of the raw-text family
RAW_MUTATIONS = 400  # seeded mutations of the raw-text family
DIGITS = (10, 100, 400)  # denominator digits of the digits family
HOSTILE = ("1.5", "1/0", "+1", " 1", "\u0661", "1/\u0662", 7, None, "1" * 5000, "1/" + "1" * 5000)  # field values


def multiplicity_probe(k: int):
    """A valid five-vertex polygon whose one mark, cut down to the fake vertex (1, 0), has multiplicity k."""
    from semitoric import MarkedPoint, Point, SemitoricPolygon

    vertices = (Point(0, 0), Point(1, 0), Point(2, k), Point(2, k + 1), Point(0, k + 1))
    return SemitoricPolygon(vertices, (MarkedPoint(Point(1, 1), k, -1),))


def chopped(polygon):
    """The polygon grown to ``CHOPPED_SIZE`` vertices by corner chops.  Each chop takes the Delzant vertex
    with the largest ``chop_allowance`` (the first on ties) by a third of it, passing over a chop
    that raises DomainError to the next vertex."""
    from semitoric import DomainError, VertexKind, chop_allowance, classify_vertex, corner_chop

    while len(polygon.vertices) < CHOPPED_SIZE:
        delzant = [v for v in polygon.vertices if classify_vertex(polygon, v).kind is VertexKind.DELZANT]
        allowances = [chop_allowance(polygon, v) for v in delzant]
        for i in sorted(range(len(delzant)), key=lambda i: -allowances[i]):  # a stable sort: the first on ties
            try:
                polygon = corner_chop(polygon, delzant[i], allowances[i] / 3)
                break
            except DomainError:
                continue
        else:
            raise DomainError(f"no Delzant vertex of {polygon} can be chopped")
    return polygon


def _merged(polygon):
    """The polygon with coincident marks of one sign joined into one mark."""
    from semitoric import MarkedPoint, SemitoricPolygon

    merged: dict = {}
    for mark in polygon.marks:
        key = (mark.position, mark.cut_sign)
        merged[key] = merged.get(key, 0) + mark.multiplicity
    return SemitoricPolygon(polygon.vertices, tuple(MarkedPoint(p, k, s) for (p, s), k in merged.items()))


def _probes(polygon):
    """Invalid forms of a polygon: clockwise, every cut sign flipped, and the first vertex doubled."""
    from semitoric import MarkedPoint, SemitoricPolygon

    verts, marks = polygon.vertices, polygon.marks
    probes = [SemitoricPolygon(verts[::-1], marks), SemitoricPolygon(verts[:1] + verts, marks)]
    if marks:
        flipped = tuple(MarkedPoint(m.position, m.multiplicity, -m.cut_sign) for m in marks)
        probes.append(SemitoricPolygon(verts, flipped))
    return probes


def extra_marks(polygon):
    """The polygon with extra unit marks, each form with one of: a mark on J_min (cut down), a mark on
    J_max (cut up), each at the middle of the vertices on its column, and a pair at one column, cut up
    and down from the middle of its slice.  The pair's column is the first interior one with a vertex on
    each chain, else the first interior vertex column, else the middle of [J_min, J_max]."""
    from semitoric import MarkedPoint, Point, SemitoricPolygon, slice_heights

    ys: dict = {}  # column -> the y of each vertex on it
    for vertex in polygon.vertices:
        ys.setdefault(vertex.x, []).append(vertex.y)
    xs = sorted(ys)
    inner = xs[1:-1]
    pair_x = ([x for x in inner if len(ys[x]) == 2] or inner or [(xs[0] + xs[-1]) / 2])[0]
    pair = Point(pair_x, sum(slice_heights(polygon, pair_x)) / 2)
    on_j_min, on_j_max = (Point(x, sum(ys[x]) / len(ys[x])) for x in (xs[0], xs[-1]))
    extras = [
        (MarkedPoint(on_j_min, 1, -1),),
        (MarkedPoint(on_j_max, 1, 1),),
        (MarkedPoint(pair, 1, 1), MarkedPoint(pair, 1, -1)),
    ]
    return [SemitoricPolygon(polygon.vertices, polygon.marks + extra) for extra in extras]


def raw_texts(seeds) -> list[str]:
    """Polygon files written verbatim: each seed's vertex list rotated to each of its first ``RAW_STARTS``
    starts with its marks in reverse order, then ``RAW_MUTATIONS`` seeded mutations of the seeds' files."""
    from semitoric.serialization import polygon_data

    texts = []
    for polygon in seeds:
        verts, marks = polygon_data(polygon).values()
        for k in range(min(len(verts), RAW_STARTS)):
            texts.append(json.dumps({"vertices": verts[k:] + verts[:k], "marked_points": marks[::-1]}))
    rng = random.Random(22)
    for _ in range(RAW_MUTATIONS):
        verts, marks = polygon_data(rng.choice(seeds)).values()
        kind, i = rng.randrange(5), rng.randrange(len(verts))
        if kind == 0:  # a coordinate replaced
            verts[i][rng.randrange(2)] = f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
        elif kind == 1:  # a vertex doubled, next to itself or elsewhere
            verts.insert(rng.randrange(len(verts) + 1), list(verts[i]))
        elif kind == 2:
            del verts[i]
        elif kind == 3:
            verts.insert(rng.randrange(len(verts) + 1), [str(rng.randint(-2, 4)), str(rng.randint(-2, 4))])
        elif marks and rng.random() < 0.5:
            rng.choice(marks)[rng.choice("xy")] = rng.choice(HOSTILE)
        else:
            verts[i][rng.randrange(2)] = rng.choice(HOSTILE)
        texts.append(json.dumps({"vertices": verts, "marked_points": marks}))
    return texts


def digits_texts(tree: str = ROOT, digits: tuple[int, ...] = DIGITS) -> list[str]:
    """The digits family as polygon files: SQUARE chopped to 32 vertices, each chop bringing in a new d-digit
    denominator, for each d of ``digits``, made by ``digits_chopped`` of ``tools/graph_probe.py`` from the
    ``perfbench/`` shapes of ``tree``, not with the library."""
    sys.path[:0] = [os.path.join(tree, "perfbench"), os.path.join(ROOT, "tools")]
    import graph_probe
    import shapes

    return [shapes.to_json(graph_probe.digits_chopped(d)) for d in digits]


def write_inputs(tree: str, directory: str) -> list[str]:
    """Write every input polygon, made with the library of ``tree``, to ``directory``; return the file names."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "tests")]
    from conftest import focus_ladder, fuzz_derivatives, multi_column_polygons
    from semitoric import corpus_get, corpus_names, serialize_polygon

    seeds = [corpus_get(name).polygon for name in corpus_names()] + fuzz_derivatives(200)
    polygons = seeds + [probe for polygon in seeds for probe in _probes(polygon)]
    multi = multi_column_polygons(120, max_marks=8) + multi_column_polygons(60, seed=3, max_marks=8)
    polygons += multi
    ladders = [focus_ladder(jumps) for jumps in LADDERS]
    polygons += ladders + [_merged(ladder) for ladder in ladders]
    polygons += [multiplicity_probe(k) for k in MULTIPLICITIES]
    polygons += [chopped(corpus_get(name).polygon) for name in CHOPPED]
    polygons += [probe for polygon in seeds + multi for probe in extra_marks(polygon)]
    texts = [serialize_polygon(polygon) for polygon in dict.fromkeys(polygons)] + raw_texts(seeds) + digits_texts(tree)
    names = []
    for text in dict.fromkeys(texts):
        names.append(f"{len(names):04d}.json")
        with open(os.path.join(directory, names[-1]), "w") as handle:
            handle.write(text)
    return names


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _library_answer(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # every error is part of the answer
        return f"{type(exc).__name__}: {exc}"


def _unchecked(text: bytes):
    """The polygon a file describes, built without validation."""
    from semitoric import MarkedPoint, Point, SemitoricPolygon, parse_rational

    data = json.loads(text)
    vertices = tuple(Point(parse_rational(x), parse_rational(y)) for x, y in data["vertices"])
    marks = tuple(
        MarkedPoint(Point(parse_rational(m["x"]), parse_rational(m["y"])), m["multiplicity"], m["cut"])
        for m in data["marked_points"]
    )
    return SemitoricPolygon(vertices, marks)


def _same_reports(polygon) -> tuple[bool, bool]:
    """Whether the polygon's report equals that of a fresh copy, and one rebuilt from its classifications."""
    from semitoric import ValidationReport, validate

    report = validate(polygon)
    rebuilt = ValidationReport(dict(report.classifications), report.violations)
    return report == validate(copy.deepcopy(polygon)), report == rebuilt


def _readers(polygon) -> dict:
    """The library's readers of one polygon, valid or not, by query name."""
    from semitoric import (
        GlobalShear,
        boundary_chains,
        build_graph,
        canonical_form,
        canonical_graph,
        chop_allowance,
        classify_vertex,
        cut_degrees,
        cut_endpoint,
        dh_function,
        dh_jump_report,
        emit_dot,
        is_delzant_polygon,
        isotropy_weights,
        orbit_counts,
        outgoing_primitives,
        serialize_graph,
        shear_normal_form,
        slice_heights,
        transform_polygon,
        validate,
        vertical_edge_endpoints,
        zk_chains,
    )

    columns = sorted({v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks})
    midpoints = [(a + b) / 2 for a, b in zip(columns, columns[1:])]
    calls = {
        "validate": lambda: validate(polygon),
        "validate ==": lambda: _same_reports(polygon),
        "dh_function": lambda: dh_function(polygon),
        "dh_jump_report": lambda: dh_jump_report(polygon),
        "build_graph": lambda: build_graph(polygon),
        "canonical_graph": lambda: canonical_graph(build_graph(polygon)),
        "canonical_form": lambda: canonical_form(build_graph(polygon)),
        "serialize_graph": lambda: serialize_graph(build_graph(polygon)),
        "emit_dot": lambda: emit_dot(build_graph(polygon)),
        "shear_normal_form": lambda: shear_normal_form(polygon),
        "boundary_chains": lambda: boundary_chains(polygon),
        "vertical_edge_endpoints": lambda: sorted(vertical_edge_endpoints(polygon)),
        "cut_degrees": lambda: cut_degrees(polygon),
        "cut_endpoint": lambda: [_library_answer(lambda: cut_endpoint(polygon, m)) for m in polygon.marks],
        "zk_chains": lambda: zk_chains(polygon),
        "is_delzant_polygon": lambda: is_delzant_polygon(polygon),
        "slice_heights": lambda: [_library_answer(lambda: slice_heights(polygon, x)) for x in columns + midpoints],
        "orbit_counts": lambda: [_library_answer(lambda: orbit_counts(polygon, x)) for x in columns[1:-1] + midpoints],
    }
    for slope, offset in SHEARS:
        shear = GlobalShear(slope, offset)
        calls[f"transform_polygon {slope} {offset}"] = lambda shear=shear: transform_polygon(polygon, shear)
    for i, vertex in enumerate(polygon.vertices):
        for reader in (classify_vertex, outgoing_primitives, isotropy_weights, chop_allowance):
            calls[f"{reader.__name__} {i}"] = lambda reader=reader, vertex=vertex: reader(polygon, vertex)
    return calls


def _first_delzant(polygon):
    """The polygon's first Delzant vertex, where the chop is compared."""
    from semitoric import classify_vertex
    from semitoric.vertices import VertexKind

    return next(v for v in polygon.vertices if classify_vertex(polygon, v).kind is VertexKind.DELZANT)


def _half_chop(polygon):
    """(vertex, size) of the chop compared: the first Delzant vertex, by half the largest size it allows."""
    from semitoric import chop_allowance

    vertex = _first_delzant(polygon)
    return vertex, chop_allowance(polygon, vertex) / 2


def _chop_command(polygon) -> list[str]:
    """``chop`` at the polygon's first Delzant vertex, by half the largest size it allows."""
    from semitoric import format_rational

    vertex, size = _half_chop(polygon)
    at = f"{format_rational(vertex.x)},{format_rational(vertex.y)}"
    return ["chop", "--vertex", at, "--size", format_rational(size)]


def _cli_answer(argv: list[str]) -> str:
    from semitoric.cli import run_cli

    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        code = run_cli(argv, stdout, stderr)
    except Exception as exc:  # run_cli should answer every input; a raised error is an answer too
        return _digest(f"raised {type(exc).__name__}: {exc}")
    return _digest(f"{code}\0{stdout.getvalue()}\0{stderr.getvalue()}")


def answer(tree: str, directory: str, names: list[str]) -> dict[str, str]:
    """The digest of every answer of the library in ``tree/src``, keyed by input and query."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from semitoric import (
        adaptability,
        chop_allowance,
        corner_chop,
        corpus_names,
        delzant_presentations,
        enumerate_presentations,
        parse_polygon,
        self_intersection,
        switch_cut,
    )

    os.chdir(directory)  # relative paths, so messages naming a file agree
    out = {"cli corpus list": _cli_answer(["corpus", "list"])}
    for corpus_name in corpus_names():
        out[f"cli corpus get {corpus_name}"] = _cli_answer(["corpus", "get", corpus_name])
    for name in names:
        with open(name, "rb") as handle:
            text = handle.read()
        commands = [["validate"], ["dh"], ["graph"], ["graph", "--format", "dot"], ["classify"]]
        try:
            polygon = parse_polygon(text)
        except Exception as exc:
            out[f"{name} parse_polygon"] = _digest(f"{type(exc).__name__}: {exc}")
            try:
                calls = _readers(_unchecked(text))
            except Exception as exc:  # no polygon can be built from its fields: that is the answer
                out[f"{name} unchecked"] = _digest(f"{type(exc).__name__}: {exc}")
                calls = {}
        else:
            calls = _readers(polygon)
            calls.update({
                "adaptability": lambda: adaptability(polygon),
                "delzant_presentations": lambda: delzant_presentations(polygon),
                "enumerate_presentations": lambda: enumerate_presentations(polygon).members[:LISTED],
                "self_intersection left": lambda: self_intersection(polygon, "left"),
                "self_intersection right": lambda: self_intersection(polygon, "right"),
                "chop_allowance": lambda: chop_allowance(polygon, _first_delzant(polygon)),
                "corner_chop": lambda: corner_chop(polygon, *_half_chop(polygon)),
            })
            indices = range(len(polygon.marks) + 1)
            calls.update({f"switch_cut {i}": (lambda i=i: switch_cut(polygon, i)) for i in indices})
            commands += [["presentations"], ["presentations", "--delzant-only"], ["adaptable"]]
            commands += [["self-intersection", "--side", side] for side in ("left", "right")]
            commands += [["switch-cut", "--index", str(i)] for i in indices]
            try:
                commands.append(_chop_command(polygon))
            except Exception as exc:  # picking the vertex failed: that is the answer
                out[f"{name} cli chop"] = _digest(f"{type(exc).__name__}: {exc}")
        for query, call in calls.items():
            out[f"{name} {query}"] = _digest(_library_answer(call))
        for command in commands:
            out[f"{name} cli {' '.join(command)}"] = _cli_answer([command[0], name, *command[1:]])
    return out


def _extract(rev: str, directory: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory)


def _worker(*args: str, stdin: str = "") -> tuple[object, str]:
    """Run this script as a worker; its JSON output, or None and the last line of its error."""
    command = [sys.executable, os.path.abspath(__file__), *args]
    result = subprocess.run(command, input=stdin, capture_output=True, text=True)
    if result.returncode:
        lines = result.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {result.returncode}"
    return json.loads(result.stdout), ""


def _files(directory: str, names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def compare(rev: str, scratch: str) -> tuple[int, int, list[str]]:
    """(inputs, answers, differences) of this checkout against the tree of ``rev``."""
    trees = {rev: os.path.join(scratch, "tree"), "this checkout": ROOT}
    _extract(rev, trees[rev])
    differences, made = [], {}
    for label, tree in trees.items():
        directory = os.path.join(scratch, f"inputs {len(made)}")
        os.mkdir(directory)
        names, error = _worker("--make", tree, directory)
        if names is None:
            differences.append(f"inputs made by {label}: {error}")
        else:
            made[label] = (directory, names)
    if len(made) == 2:
        files = [_files(directory, names) for directory, names in made.values()]
        either = sorted(files[0].keys() | files[1].keys())
        differences += [f"input {name}" for name in either if files[0].get(name) != files[1].get(name)]
    if not made:
        return 0, 0, differences
    answers = []
    for label, tree in trees.items():
        directory, names = made.get(label) or next(iter(made.values()))  # the other tree's inputs
        found, error = _worker("--answer", tree, directory, stdin="\n".join(names))
        if found is None:
            differences.append(f"answers of {label}: {error}")
        answers.append(found or {})
    theirs, ours = answers
    differences += sorted(key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key))
    return max(len(names) for _, names in made.values()), max(map(len, answers)), differences


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare with")
    parser.add_argument("--make", nargs=2, metavar=("TREE", "INPUTS"), help=argparse.SUPPRESS)
    parser.add_argument("--answer", nargs=2, metavar=("TREE", "INPUTS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.make:
        json.dump(write_inputs(*args.make), sys.stdout)
        return
    if args.answer:
        json.dump(answer(*args.answer, sys.stdin.read().split()), sys.stdout)
        return
    if args.rev is None:
        parser.error("a revision is required")
    with tempfile.TemporaryDirectory() as scratch:
        inputs, answers, differences = compare(args.rev, scratch)
    for key in differences:
        print(f"differs: {key}")
    print(f"{inputs} inputs, {answers} answers, {len(differences)} differences")
    sys.exit(1 if differences else 0)


if __name__ == "__main__":
    main()
