#!/usr/bin/env python3
"""Check that this checkout gives the same answers as git revision REV.

    python3 tools/same_answers.py REV

REV is extracted with ``git archive`` into a temporary directory.  The
inputs are made once, from this checkout's ``tests/conftest.py``: the
corpus, ``fuzz_derivatives(200)``, ``multi_column_polygons`` at two seeds,
and focus ladders together with their merged-mark forms (coincident unit
marks of one sign joined into one mark), plus invalid probes: each corpus
and fuzz polygon with its vertices reversed, with every cut sign flipped,
and with its first vertex doubled.  Each is written as a polygon file, and
each tree answers every input in its own process, with its own ``src/``:

* library, on the parsed polygon, or for a file that does not parse on the
  polygon built from it without validation: ``validate``, ``dh_function``,
  ``dh_jump_report``, ``build_graph``, ``canonical_graph``,
  ``classify_vertex`` at every vertex, ``slice_heights`` at every vertex
  and mark column and at the midpoints between them, and ``orbit_counts`` at
  the interior ones; on a valid polygon also ``adaptability``,
  ``delzant_presentations``, the first 64 members of
  ``enumerate_presentations`` and ``switch_cut`` at every mark index (and
  one index past the end).  Compared by repr, or by error type and message;
* command line: ``run_cli`` for ``validate``, ``dh``, ``graph`` (JSON and
  DOT) and ``classify`` on every input; on a valid one also
  ``presentations`` (with and without ``--delzant-only``), ``adaptable``,
  ``self-intersection`` on both sides and ``switch-cut``.  Compared by exit
  code, stdout and stderr.

Answers are compared by SHA-256.  The last line reads ``N differences``;
the exit code is 0 when N is 0 and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED = 64  # members of enumerate_presentations compared per input
LADDERS = ([1] * 4, [1] * 8, [2], [2, 1], [1, 2, 1], [3, 1], [2, 2], [1, 1, 3], [2, 1, 2])


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


def write_inputs(directory: str) -> list[str]:
    """Write every input polygon to ``directory``; return the file names."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from conftest import focus_ladder, fuzz_derivatives, multi_column_polygons
    from semitoric import corpus_get, corpus_names, serialize_polygon

    polygons = [corpus_get(name).polygon for name in corpus_names()]
    polygons += fuzz_derivatives(200)
    polygons += [probe for polygon in polygons for probe in _probes(polygon)]
    polygons += multi_column_polygons(120, max_marks=8) + multi_column_polygons(60, seed=3, max_marks=8)
    ladders = [focus_ladder(jumps) for jumps in LADDERS]
    polygons += ladders + [_merged(ladder) for ladder in ladders]
    names = []
    for polygon in dict.fromkeys(polygons):
        names.append(f"{len(names):04d}.json")
        with open(os.path.join(directory, names[-1]), "w") as handle:
            handle.write(serialize_polygon(polygon))
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


def _readers(polygon) -> dict:
    """The library's readers of one polygon, valid or not, by query name."""
    from semitoric import (
        build_graph,
        canonical_graph,
        classify_vertex,
        dh_function,
        dh_jump_report,
        orbit_counts,
        slice_heights,
        validate,
    )

    columns = sorted({v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks})
    midpoints = [(a + b) / 2 for a, b in zip(columns, columns[1:])]
    calls = {
        "validate": lambda: validate(polygon),
        "dh_function": lambda: dh_function(polygon),
        "dh_jump_report": lambda: dh_jump_report(polygon),
        "build_graph": lambda: build_graph(polygon),
        "canonical_graph": lambda: canonical_graph(build_graph(polygon)),
        "slice_heights": lambda: [_library_answer(lambda: slice_heights(polygon, x)) for x in columns + midpoints],
        "orbit_counts": lambda: [_library_answer(lambda: orbit_counts(polygon, x)) for x in columns[1:-1]],
    }
    for i, vertex in enumerate(polygon.vertices):
        calls[f"classify_vertex {i}"] = lambda vertex=vertex: classify_vertex(polygon, vertex)
    return calls


def answer(tree: str, directory: str, names: list[str]) -> dict[str, str]:
    """The digest of every answer of the library in ``tree/src``, keyed by input and query."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from semitoric import (
        adaptability,
        delzant_presentations,
        enumerate_presentations,
        parse_polygon,
        switch_cut,
    )
    from semitoric.cli import run_cli

    os.chdir(directory)  # relative paths, so messages naming a file agree
    out = {}
    for name in names:
        with open(name, "rb") as handle:
            text = handle.read()
        commands = [["validate"], ["dh"], ["graph"], ["graph", "--format", "dot"], ["classify"]]
        try:
            polygon = parse_polygon(text)
        except Exception as exc:
            out[f"{name} parse_polygon"] = _digest(f"{type(exc).__name__}: {exc}")
            calls = _readers(_unchecked(text))
        else:
            calls = _readers(polygon)
            calls.update({
                "adaptability": lambda: adaptability(polygon),
                "delzant_presentations": lambda: delzant_presentations(polygon),
                "enumerate_presentations": lambda: enumerate_presentations(polygon).members[:LISTED],
            })
            indices = range(len(polygon.marks) + 1)
            calls.update({f"switch_cut {i}": (lambda i=i: switch_cut(polygon, i)) for i in indices})
            commands += [["presentations"], ["presentations", "--delzant-only"], ["adaptable"]]
            commands += [["self-intersection", "--side", side] for side in ("left", "right")]
            commands += [["switch-cut", "--index", str(i)] for i in indices]
        for query, call in calls.items():
            out[f"{name} {query}"] = _digest(_library_answer(call))
        for command in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            code = run_cli([command[0], name, *command[1:]], stdout, stderr)
            out[f"{name} cli {' '.join(command)}"] = _digest(f"{code}\0{stdout.getvalue()}\0{stderr.getvalue()}")
    return out


def _extract(rev: str, directory: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory)


def _answers(tree: str, directory: str, names: list[str]) -> dict[str, str]:
    worker = [sys.executable, os.path.abspath(__file__), "--worker", tree, directory]
    result = subprocess.run(worker, input="\n".join(names), capture_output=True, text=True)
    if result.returncode:
        sys.exit(f"answering in {tree} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare with")
    parser.add_argument("--worker", nargs=2, metavar=("TREE", "INPUTS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        tree, directory = args.worker
        json.dump(answer(tree, directory, sys.stdin.read().split()), sys.stdout)
        return
    if args.rev is None:
        parser.error("a revision is required")
    with tempfile.TemporaryDirectory() as scratch:
        inputs, other = os.path.join(scratch, "inputs"), os.path.join(scratch, "tree")
        os.mkdir(inputs)
        _extract(args.rev, other)
        names = write_inputs(inputs)
        theirs, ours = _answers(other, inputs, names), _answers(ROOT, inputs, names)
    differences = sorted(key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key))
    for key in differences:
        print(f"differs: {key}")
    print(f"{len(names)} inputs, {len(ours)} answers, {len(differences)} differences")
    sys.exit(1 if differences else 0)


if __name__ == "__main__":
    main()
