#!/usr/bin/env python3
"""Growth curves of the library: every stage timed on the rungs of one axis, with its log-log slope.

    python3 tools/growth.py [--src DIR]

The package is imported from DIR (default: the ``src/`` beside this tool);
the inputs are made from ``perfbench/shapes.py`` and ``perfbench/workloads.py``
of this checkout, so two runs, as of a parent and a change, time the same
files.  The axes:

* n, the vertex count: SQUARE and FF1 scaled to integer sides as in
  ``workloads.grow`` and grown to n = 256, 1024 and 4096 vertices by rounds
  of corner chops (see ``grown``).  Per polygon: parse+validate
  (``parse_polygon`` of the file), the graph stage
  (``canonical_graph(build_graph(p))``), the library's DH stage
  (``dh_function(p)`` and ``dh_jump_report(p)``), the command line's ``dh``
  (``run_cli(["dh", ...])`` with its load answering p, so argument parsing
  and the JSON text are in, the parse is not) and ``adaptability(p)``, each
  on a freshly parsed polygon p; and the single-column queries
  ``orbit_counts`` at the middle column, ``contains_interior`` at the first
  mark (the middle of the middle column where there is none) and
  ``dh_function(p).value_at`` at the middle column, each on a freshly parsed
  polygon that has answered it once;
* d, the digits of the numbers: SQUARE chopped to n = 32 vertices with a new
  d-digit denominator at each chop (see ``digits_chopped``), for d = 10, 100
  and 400: the n axis's first four stages, with the graph stage also split
  into ``build_graph`` and ``canonical_graph``.  The command line's ``dh``
  at d = 400 ends in exit 1, a computed rational being past the int-string
  limit, and is timed to that answer;
* k, the multiplicity: one process of ``semitoric.cli graph`` on
  ``multiplicity_probe(k)`` of ``tools/same_answers.py`` for k = 10^3, 10^4
  and 10^5: wall time, bytes of output and peak resident set size;
* m, the focus-focus points: one process of ``semitoric.cli presentations
  --delzant-only`` on the focus ladder of m columns of one unit mark each
  (``focus_ladder([1] * m)`` of ``tests/conftest.py``, whose 2^m sign vectors
  each give a distinct Delzant member) for m = 8, 10, 12 and 14: wall time,
  members listed, time per member and peak resident set size.

Each in-process stage is the median of REPEATS runs, in ms.  Per axis the
tool prints the least-squares slope of log value on log rung for every
number, and on the n and d axes each stage's ratio to parse+validate at the
largest rung.  Last comes the cold process: ``semitoric.cli validate
corpus:SQUARE`` against a bare ``python3 -c pass``, PROCESSES pairs in
alternation, then the median ``-X importtime`` self time of each
``semitoric`` module over IMPORTTIME_RUNS imports of the CLI; both depend on
whether the interpreter may read and write cached bytecode, so that setting
is printed with them.  The last line is one JSON object with every number.
The tool only reports: no slope sets its exit code.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib.util import cache_from_source

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = (256, 1024, 4096)
DIGITS = (10, 100, 400)
DIGITS_SIZE = 32
MULTIPLICITIES = (10**3, 10**4, 10**5)
LADDERS = (8, 10, 12, 14)
REPEATS = 9
PROCESSES = 15  # cold processes of each kind
IMPORTTIME_RUNS = 5
COLD = ["-m", "semitoric.cli", "validate", "corpus:SQUARE"]
ROW = b'{"polygon":'  # the start of one member of the Delzant listing
# A started process's peak RSS is at least its parent's own peak (until exec it shares or copies the parent's memory),
# and this tool's passes 35 MB.  So a small interpreter starts each timed process, and writes to stderr its wall time
# in s, exit code and peak RSS in kB on a line of their own, after the process's own error text.
METER = ("import os, sys, time; start = time.perf_counter(); "
         "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ); "
         "_, status, usage = os.wait4(pid, 0); "
         "print(f'\\n{time.perf_counter() - start} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}', "
         "file=sys.stderr)")


def grown(base, n: int):
    """The base shape scaled as in ``workloads.grow`` and grown to n vertices by rounds of corner chops.  Each round
    chops every Delzant corner it can by a third of its allowance, halved until the chop keeps clear of the marks and
    of every other vertex's column, so no two graph labels tie."""
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
    on ties) by a / (2 + 1/(10^d + 7i)), so that every chop brings in a new d-digit denominator."""
    import shapes as S
    import workloads as W

    shape = W.CORPUS["SQUARE"]
    for i in range(DIGITS_SIZE - len(shape.vertices)):
        corners = S.delzant_corners(shape)
        allowances = [S.chop_allowance(shape, c) for c in corners]
        best = allowances.index(max(allowances))
        shape = S.chop(shape, corners[best], allowances[best] / (2 + Fraction(1, 10**d + 7 * i)))
    return shape


def ladder(m: int) -> str:
    """The polygon file of ``focus_ladder([1] * m)``: the bottom's slope rises by one at each of the joints
    x = 1..m, each carrying one unit mark cut down to it, under a flat top one unit above the highest point."""
    bottom, slope = [(0, 0)], 0
    for _ in range(m + 1):
        x, y = bottom[-1]
        bottom.append((x + 1, y + slope))
        slope += 1
    height = bottom[-1][1] + 1
    vertices = bottom + [(m + 1, height), (0, height)]
    marks = [{"x": str(x), "y": str(y + Fraction(height - y, 2)), "multiplicity": 1, "cut": -1}
             for x, y in bottom[1:-1]]
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in vertices], "marked_points": marks})


def loglog_slope(xs, ys) -> float:
    """The least-squares slope of log y on log x: 0, 1 and 2 on a constant, a linear and a quadratic curve."""
    return round(statistics.linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys]).slope, 3)


def cli_dh(polygon) -> None:
    """The command line's ``dh`` on the polygon, its load answering the polygon itself."""
    from semitoric import cli

    load, cli._load = cli._load, lambda source: polygon
    try:
        cli.run_cli(["dh", "polygon"], io.StringIO(), io.StringIO())
    finally:
        cli._load = load


def stages() -> dict:
    """The stages both in-process axes time, by name: each a pair (work, prepare), work being timed on prepare of the
    polygon file."""
    from semitoric import build_graph, canonical_graph, dh_function, dh_jump_report, parse_polygon

    return {"parse_validate_ms": (parse_polygon, str),
            "graph_ms": (lambda polygon: canonical_graph(build_graph(polygon)), parse_polygon),
            "dh_ms": (lambda polygon: (dh_function(polygon), dh_jump_report(polygon)), parse_polygon),
            "cli_dh_ms": (cli_dh, parse_polygon)}


def n_rung(text: str) -> dict:
    """The n axis's timings of the polygon file: the shared stages, ``adaptability``, and the single-column queries,
    each query timed on a polygon that has answered it once."""
    from semitoric import Point, adaptability, contains_interior, dh_function, orbit_counts, parse_polygon
    from semitoric import slice_heights

    polygon = parse_polygon(text)
    xs = [vertex.x for vertex in polygon.vertices]
    x = (min(xs) + max(xs)) / 2
    point = polygon.marks[0].position if polygon.marks else Point(x, sum(slice_heights(polygon, x)) / 2)

    def warm(query):
        def prepare(text):
            polygon = parse_polygon(text)
            query(polygon)
            return polygon
        return query, prepare

    return timed(text, {**stages(), "adaptability_ms": (adaptability, parse_polygon),
                        "orbit_counts_ms": warm(lambda polygon: orbit_counts(polygon, x)),
                        "contains_interior_ms": warm(lambda polygon: contains_interior(polygon, point)),
                        "value_at_ms": warm(lambda polygon: dh_function(polygon).value_at(x))})


def d_rung(text: str) -> dict:
    """The d axis's numbers of the polygon file: its size, the shared stages, and the graph stage's two halves."""
    from semitoric import build_graph, canonical_graph, parse_polygon

    return {"file_bytes": len(text), **timed(text, {
        **stages(), "build_graph_ms": (build_graph, parse_polygon),
        "canonical_graph_ms": (canonical_graph, lambda text: build_graph(parse_polygon(text)))})}


def timed(text: str, stages: dict) -> dict:
    """Each stage's median of ``REPEATS`` runs on the polygon file, in ms.  Each run prepares its own value, a freshly
    parsed polygon for every stage but the parse, so no fact is kept from an earlier run."""
    out = {}
    for name, (work, prepare) in stages.items():
        times = []
        for _ in range(REPEATS):
            value = prepare(text)
            start = time.perf_counter()
            work(value)
            times.append(time.perf_counter() - start)
        out[name] = round(1000 * statistics.median(times), 4)
    return out


def run(argv: list[str], env: dict) -> dict:
    """One process of ``python3 argv``, started by ``METER``: its wall time, bytes of output, rows of the Delzant
    listing and peak RSS.  The output is counted as it arrives and not kept; the process must exit 0."""
    with subprocess.Popen([sys.executable, "-c", METER, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as process:
        size, rows, tail = 0, 0, b""
        for chunk in iter(lambda: process.stdout.read(1 << 16), b""):
            size += len(chunk)
            block = tail + chunk
            rows += block.count(ROW)
            tail = block[-(len(ROW) - 1) :]  # a row marker split across two chunks is counted once
        errors, _, report = process.stderr.read().decode().rstrip().rpartition("\n")
    seconds, code, peak_kb = report.split()
    if int(code):
        raise SystemExit(f"{' '.join(argv)} exited with code {code}: {errors.strip()}")
    return {"seconds": round(float(seconds), 4), "output_bytes": size, "rows": rows,
            "peak_rss_mb": round(int(peak_kb) / 1024, 1)}  # ru_maxrss is in kB on Linux


def self_times(env: dict) -> dict[str, int]:
    """Each ``semitoric`` module's ``-X importtime`` self time of one import of the CLI, in us, and under the key
    ``cumulative`` the CLI module's cumulative time."""
    found = subprocess.run([sys.executable, "-X", "importtime", "-c", "import semitoric.cli"], env=env,
                           stderr=subprocess.PIPE, text=True, check=True)
    out = {}
    for line in found.stderr.splitlines():  # "import time: <self us> | <cumulative us> | <indented module name>"
        if line.startswith("import time:") and "|" in line:
            own, cumulative, name = (field.strip() for field in line[len("import time:"):].split("|"))
            if name.split(".")[0] == "semitoric":
                out[name] = int(own)
            if name == "semitoric.cli":
                out["cumulative"] = int(cumulative)
    return out


def quartiles(values) -> list[float]:
    """The first quartile, the median and the third quartile of the values, in ms to 0.1."""
    return [round(q, 1) for q in statistics.quantiles(values, n=4)]


def axis(out: dict, table: str, name: str, xs, measure) -> None:
    """Measure and print each rung x of the axis into ``out[table]``, then record and print the slope of every number
    over the axis and, where the rungs time parse+validate, each stage's ratio to it at the largest rung."""
    rungs = {}
    for x in xs:
        found = rungs[x] = out[table][f"{name}={x}"] = measure(x)
        print(f"{name}={x}  " + "  ".join(f"{field} {value}" for field, value in found.items()), flush=True)
    last = rungs[xs[-1]]
    slopes = out["slopes"][name] = {field: loglog_slope(xs, [rung[field] for rung in rungs.values()]) for field in last}
    print(f"slope over {name}: {slopes}")
    if "parse_validate_ms" in last:
        ratios = out["ratios"][f"{name}={xs[-1]}"] = {field: round(value / last["parse_validate_ms"], 4)
                                                      for field, value in last.items() if field.endswith("_ms")}
        print(f"ratio to parse+validate at {name}={xs[-1]}: {ratios}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    src = os.path.abspath(parser.parse_args().src)
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench"), HERE]
    import same_answers
    import shapes as S
    import workloads as W
    from semitoric import serialize_polygon

    out = {"src": src, "repeats": REPEATS, "growth": {}, "digits": {}, "multiplicity": {}, "listing": {},
           "slopes": {}, "ratios": {}}
    for base in ("SQUARE", "FF1"):
        axis(out, "growth", f"{base} n", SIZES, lambda n: n_rung(S.to_json(grown(W.CORPUS[base], n))))
    axis(out, "digits", "d", DIGITS, lambda d: d_rung(S.to_json(digits_chopped(d))))

    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as work:
        def cli_process(command: str, text: str, *options: str) -> dict:
            path = os.path.join(work, "polygon.json")
            with open(path, "w") as handle:
                handle.write(text)
            return run(["-m", "semitoric.cli", command, path, *options], env)

        def graph(k: int) -> dict:
            found = cli_process("graph", serialize_polygon(same_answers.multiplicity_probe(k)))
            del found["rows"]
            return found

        def listing(m: int) -> dict:
            found = cli_process("presentations", ladder(m), "--delzant-only")
            found["members"] = found.pop("rows")
            found["ms_per_member"] = round(1000 * found["seconds"] / found["members"], 4)
            return found

        axis(out, "multiplicity", "k", MULTIPLICITIES, graph)
        axis(out, "listing", "m", LADDERS, listing)

    cached = cache_from_source(os.path.join(src, "semitoric", "__init__.py"))  # where this environment keeps it
    bytecode = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "PYTHONPYCACHEPREFIX": os.environ.get("PYTHONPYCACHEPREFIX"),
                "cached_package_bytecode": os.path.exists(cached)}
    print("bytecode: " + ", ".join(f"{name}={value}" for name, value in bytecode.items()), flush=True)
    bare, cli = [], []
    for _ in range(PROCESSES):  # alternated, so a change in the host's speed reaches both alike
        bare.append(1000 * run(["-c", "pass"], env)["seconds"])
        cli.append(1000 * run(COLD, env)["seconds"])
    cold = out["cold"] = {"bytecode": bytecode, "processes": PROCESSES, "bare_ms": round(statistics.median(bare), 1),
                          "cli_ms": round(statistics.median(cli), 1)}
    cold["cli_minus_bare_ms"] = round(cold["cli_ms"] - cold["bare_ms"], 1)
    cold["pair_difference_quartiles_ms"] = quartiles(c - b for b, c in zip(bare, cli))
    print(f"{' '.join(COLD[1:])}: {cold['cli_ms']:.1f} ms, python3 -c pass: {cold['bare_ms']:.1f} ms, "
          f"difference {cold['cli_minus_bare_ms']:.1f} ms (medians of {PROCESSES}); quartiles of the "
          f"{PROCESSES} pairs' differences {cold['pair_difference_quartiles_ms']} ms", flush=True)
    runs = [self_times(env) for _ in range(IMPORTTIME_RUNS)]
    modules = {name: round(statistics.median(times.get(name, 0) for times in runs) / 1000, 2) for name in runs[0]}
    cold.update(importtime_runs=IMPORTTIME_RUNS, cli_cumulative_ms=modules.pop("cumulative"),
                cli_cumulative_quartiles_ms=quartiles(times["cumulative"] / 1000 for times in runs), self_ms=modules,
                self_total_ms=round(sum(modules.values()), 2))
    for name, ms in sorted(modules.items(), key=lambda item: -item[1]):
        print(f"{name:24s} {ms:7.2f} ms self")
    print(f"{'total':24s} {cold['self_total_ms']:7.2f} ms self; semitoric.cli {cold['cli_cumulative_ms']:.2f} ms "
          f"cumulative (medians of {IMPORTTIME_RUNS}; cumulative quartiles {cold['cli_cumulative_quartiles_ms']} ms)")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
