#!/usr/bin/env python3
"""Time the graph and DH stages against the load, and the command-line graph of one high-multiplicity mark.

    python3 tools/graph_probe.py [--src DIR]

The package is imported from DIR (default: the ``src/`` beside this tool);
the inputs are made from ``perfbench/shapes.py`` and ``perfbench/workloads.py``
of this checkout, so two runs, as of a parent and a change, time the same
files.  Three tables, then one JSON line with every number:

* growth in n: SQUARE and FF1 scaled to integer sides as in
  ``workloads.grow`` and grown to n = 256, 1024 and 4096 vertices by rounds
  of corner chops (each round chops every Delzant corner it can by a third of
  its allowance, halved until the chop keeps clear of the marks and of every
  other vertex's column, so no two graph labels tie).  Per polygon:
  parse+validate (``parse_polygon`` of the file), the graph stage
  (``canonical_graph(build_graph(p))``), the library's DH stage
  (``dh_function(p)`` and ``dh_jump_report(p)``) and the command line's
  ``dh`` (``run_cli(["dh", ...])`` with its load answering p, so argument
  parsing and the JSON text are in, the parse is not), each on a freshly
  parsed polygon p and the median of REPEATS runs, in ms;
* growth in the size of the numbers (ROADMAP item 8): SQUARE chopped to
  n = 32 vertices, step i chopping the corner with the largest allowance a
  (the first on ties) by a / (2 + 1/(10^d + 7i)), so that every chop brings
  in a new d-digit denominator, for d = 10, 100 and 400.  The graph stage is
  split into ``build_graph`` and ``canonical_graph``, to show which pays.
  The command line's ``dh`` at d = 400 ends in exit 1, a computed rational
  being past the int-string limit, and is timed to that answer;
* the multiplicity axis (ROADMAP item 10): one process of
  ``python3 -m semitoric.cli graph FILE`` on ``multiplicity_probe(k)`` of
  ``tools/same_answers.py`` for k = 10^3, 10^4 and 10^5: wall time, bytes
  of output and peak resident set size.

Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = (256, 1024, 4096)
DIGITS = (10, 100, 400)
DIGITS_SIZE = 32
MULTIPLICITIES = (10**3, 10**4, 10**5)
REPEATS = 9


def grown(base, n: int):
    """The base shape scaled as in ``workloads.grow`` and grown to n vertices by rounds of corner chops."""
    import shapes as S
    import workloads as W

    scale = W.LADDER_SCALE
    shape = S.Shape(tuple((int(x * scale), int(y * scale)) for x, y in base.vertices),
                    tuple((int(x * scale), int(y * scale), m, c) for x, y, m, c in base.marks))
    while len(shape.vertices) < n:
        xs = [v[0] for v in shape.vertices]
        taken, picks = set(xs) - {min(xs), max(xs)}, []
        for i in S.delzant_corners(shape):  # a chop moves no edge direction, so a round's chops stay apart
            delta = int(S.chop_allowance(shape, i)) // 3
            while delta >= 1 and not W._chop_ok(shape, i, delta, taken):
                delta //= 2
            if delta >= 1:
                picks.append((i, delta))
                taken.update(x for x, _ in S.chop_points(shape, i, delta))
            if len(shape.vertices) + len(picks) == n:
                break
        if not picks:
            raise SystemExit(f"no corner of the {len(shape.vertices)}-vertex shape can be chopped")
        for i, delta in reversed(picks):  # from the last, so the earlier indices stay put
            shape = S.chop(shape, i, delta)
    return S.make(shape.vertices, shape.marks)


def digits_chopped(d: int):
    """SQUARE chopped to ``DIGITS_SIZE`` vertices, step i taking the corner of largest allowance a (the first
    on ties) by a / (2 + 1/(10^d + 7i))."""
    import shapes as S
    import workloads as W

    shape = W.CORPUS["SQUARE"]
    for i in range(DIGITS_SIZE - len(shape.vertices)):
        corners = S.delzant_corners(shape)
        allowances = [S.chop_allowance(shape, c) for c in corners]
        best = allowances.index(max(allowances))
        shape = S.chop(shape, corners[best], allowances[best] / (2 + Fraction(1, 10**d + 7 * i)))
    return shape


def cli_dh(polygon) -> None:
    """The command line's ``dh`` on the polygon, its load answering the polygon itself."""
    from semitoric import cli

    load, cli._load = cli._load, lambda source: polygon
    try:
        cli.run_cli(["dh", "polygon"], io.StringIO(), io.StringIO())
    finally:
        cli._load = load


def stages(text: str, split: bool = False) -> dict:
    """Parse+validate, the graph stage and the DH stages of one polygon file, each the median of ``REPEATS`` runs
    in ms; with ``split`` also ``build_graph`` and ``canonical_graph`` alone.  Each stage runs on a freshly parsed
    polygon, so no graph or DH fact is cached."""
    from semitoric import build_graph, canonical_graph, dh_function, dh_jump_report, parse_polygon

    def ms(work, prepare=parse_polygon) -> float:
        times = []
        for _ in range(REPEATS):
            value = prepare(text)
            start = time.perf_counter()
            work(value)
            times.append(time.perf_counter() - start)
        return round(1000 * statistics.median(times), 3)

    out = {"parse_validate_ms": ms(parse_polygon, prepare=lambda t: t),
           "graph_ms": ms(lambda polygon: canonical_graph(build_graph(polygon))),
           "dh_ms": ms(lambda polygon: (dh_function(polygon), dh_jump_report(polygon))),
           "cli_dh_ms": ms(cli_dh)}
    if split:
        out["build_graph_ms"] = ms(build_graph)
        out["canonical_graph_ms"] = ms(canonical_graph, prepare=lambda t: build_graph(parse_polygon(t)))
    return out


def multiplicity_file(k: int) -> str:
    """The polygon file of ``multiplicity_probe(k)``: a five-vertex polygon whose one mark, cut down to the
    fake vertex (1, 0), has multiplicity k."""
    vertices = [(0, 0), (1, 0), (2, k), (2, k + 1), (0, k + 1)]
    marks = [{"x": "1", "y": "1", "multiplicity": k, "cut": -1}]
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in vertices], "marked_points": marks})


def cli_graph(src: str, path: str) -> dict:
    """One ``graph`` process on the file: its wall time, bytes of output and peak RSS."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "semitoric.cli", "graph", path]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env) as process:
        size = sum(len(chunk) for chunk in iter(lambda: process.stdout.read(1 << 16), b""))
        _, status, usage = os.wait4(process.pid, 0)  # the child's own resource usage, peak RSS included
        process.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if process.returncode:
        raise SystemExit(f"{' '.join(argv)} exited with code {process.returncode}")
    return {"seconds": round(seconds, 3), "output_bytes": size, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import shapes as S
    import workloads as W

    growth, digits, multiplicity = {}, {}, {}
    for base in ("SQUARE", "FF1"):
        for n in SIZES:
            found = growth[f"{base} n={n}"] = stages(S.to_json(grown(W.CORPUS[base], n)))
            print(f"{base:6s} n={n:5d}  parse+validate {found['parse_validate_ms']:8.2f} ms  "
                  f"graph {found['graph_ms']:8.2f} ms  dh {found['dh_ms']:8.2f} ms  "
                  f"cli dh {found['cli_dh_ms']:8.2f} ms", flush=True)
    for d in DIGITS:
        text = S.to_json(digits_chopped(d))
        found = digits[f"d={d}"] = {"file_bytes": len(text), **stages(text, split=True)}
        print(f"d={d:3d} n={DIGITS_SIZE}  {found['file_bytes']:7d} bytes  parse+validate "
              f"{found['parse_validate_ms']:7.2f} ms  graph {found['graph_ms']:7.2f} ms (build_graph "
              f"{found['build_graph_ms']:.2f}, canonical_graph {found['canonical_graph_ms']:.2f})  dh "
              f"{found['dh_ms']:7.2f} ms  cli dh {found['cli_dh_ms']:7.2f} ms", flush=True)
    with tempfile.TemporaryDirectory() as work:
        for k in MULTIPLICITIES:
            path = os.path.join(work, f"multiplicity{k}.json")
            with open(path, "w") as handle:
                handle.write(multiplicity_file(k))
            found = multiplicity[f"k={k}"] = cli_graph(src, path)
            print(f"k={k:7d}  graph {found['seconds']:7.3f} s  {found['output_bytes']:9d} bytes  "
                  f"{found['peak_rss_mb']:7.1f} MB peak RSS", flush=True)
    print(json.dumps({"src": src, "repeats": REPEATS, "growth": growth, "digits": digits,
                      "multiplicity": multiplicity}))


if __name__ == "__main__":
    main()
