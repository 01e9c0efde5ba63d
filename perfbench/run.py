#!/usr/bin/env python3
"""File-to-answer benchmark for the semitoric command line.

    python3 perfbench/run.py --workload chop_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload: it builds the seeded inputs, then answers
queries in a closed loop with one client, each through
``semitoric.cli.run_cli`` from a polygon file to captured stdout, in whole
passes over the workload until ``--seconds`` have passed.  Every answer is
checked.  A fixed reference computation is timed right before and after
each query, and query times are reported at the reference's speed, so that
the host's changing speed cancels out.  The last stdout line is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``: half the time untraced, half with spans around every
library layer).

The library is imported from ``src/`` and the toric oracle from ``tests/``
of the checkout this file sits in; without them the run exits with code 3.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import shapes as S  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ("chop_ladder", "focus_family", "sweep_stream")
DIGEST_FILE = os.path.join(HERE, "digests.json")
DIGEST_SEED = 1
SETUP_REPEATS = 5
PASS_OFFSET = 100  # pass p translates every shape upward by p * PASS_OFFSET
PASS_METRICS = ("validate", "graph", "dh", "adaptable", "presentations")
REFUSAL_MARKERS = ("enumeration bound", "tie-break budget", "too many tied")
# the reference computation's time on an uncontended core of the host the
# baseline was measured on (a 2-vCPU Xeon VM); reported times are scaled to it
REFERENCE_NS = 160_000

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
] + [(f"{cmd}_s", "s") for cmd in PASS_METRICS]

LAYER_TIMES = [
    ("cli.run_cli_self_ms", "self", "cli.run_cli"),
    ("serialization.parse_polygon_self_ms", "self", "serialization.parse_polygon"),
    ("serialization.serialize_polygon_ms", "inclusive", "serialization.serialize_polygon"),
    ("polygon.validate_self_ms", "self", "polygon.validate"),
    ("polygon.boundary_chains_ms", "inclusive", "polygon.boundary_chains"),
    ("polygon.slice_heights_ms", "inclusive", "polygon.slice_heights"),
    ("vertices.classify_vertex_ms", "inclusive", "vertices.classify_vertex"),
    ("vertices.zk_chains_ms", "inclusive", "vertices.zk_chains"),
    ("cuts.enumerate_presentations_ms", "inclusive", "cuts.enumerate_presentations"),
    ("graph.build_graph_ms", "inclusive", "graph.build_graph"),
    ("graph.canonical_form_ms", "inclusive", "graph.canonical_form"),
    ("analysis.dh_ms", "inclusive", "analysis.dh"),
    ("analysis.adaptability_self_ms", "self", "analysis.adaptability"),
]
LAYER_CALLS = [
    ("serialization.parse_polygon_calls", "serialization.parse_polygon"),
    ("polygon.validate_calls", "polygon.validate"),
    ("polygon.slice_heights_calls", "polygon.slice_heights"),
    ("vertices.classify_vertex_calls", "vertices.classify_vertex"),
    ("vertices.cut_degrees_calls", "vertices.cut_degrees"),
    ("cuts.switch_cut_calls", "cuts.switch_cut"),
    ("analysis.orbit_columns", "analysis.orbit_counts"),
]
SESSION_CMDS = ("validate", "classify", "graph", "dh", "adaptable", "presentations", "self-intersection")


def growth_metrics() -> list[tuple[str, str, str]]:
    """(metric, rung, command) for every growth-table cell of the full sizes."""
    full = W.SIZES["full"]
    return (
        [(f"growth.n{n}.{cmd.replace('-', '_')}_ms", f"n{n}", cmd) for n in full["ladder"] for cmd in SESSION_CMDS]
        + [(f"growth.m{m}.adaptable_ms", f"m{m}", "adaptable") for m in range(1, full["m"] + 1)]
        + [(f"growth.m{m}.nonadaptable_ms", f"m{m}-non", "adaptable") for m in range(3, full["m"] + 1)]
        + [(f"growth.tie{k}.graph_ms", f"tie{k}", "graph") for k in range(2, full["tie"] + 1)]
    )


PER_LAYER = (
    [(name, "ms") for name, _, _ in LAYER_TIMES]
    + [(name, "count") for name, _ in LAYER_CALLS]
    + [
        ("cuts.presentations_built", "count"),
        ("graph.tie_candidates", "count"),
        ("analysis.delzant_yield", "ratio"),
        ("polygon.cached_entries", "count"),
        ("vertices.cached_entries", "count"),
    ]
    + [(f"layer.{m}_self_ms", "ms") for m in tracing.TRACED_MODULES]
    + [("trace.query_ms", "ms"), ("trace.self_coverage", "ratio"), ("trace.overhead_ratio", "ratio")]
    + [(name, "ms") for name, _, _ in growth_metrics()]
)


def reference() -> Fraction:
    """A fixed stretch of exact rational arithmetic, timed beside every query.

    The library's work is mostly ``Fraction`` arithmetic in the interpreter,
    and a host's speed changes (other tenants on the same core) slow it and
    this sum alike, so a query's time divided by the reference's time taken
    next to it keeps what the library did and drops what the host did."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7)
    return total


def time_reference() -> int:
    t = perf_counter_ns()
    reference()
    return perf_counter_ns() - t


def reference_now() -> float:
    """The reference's time at this moment: the median of three timings, in ns."""
    return statistics.median(time_reference() for _ in range(3))


def scaled(seconds: float, before_ns: float, after_ns: float) -> float:
    """``seconds`` of wall time at the reference speed, given the reference's
    time just before and just after them."""
    return seconds * REFERENCE_NS / ((before_ns + after_ns) / 2)


class Library:
    """The semitoric package of this checkout, plus the test-suite oracle."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "semitoric", "__init__.py")):
            raise ImportError(f"no semitoric package under {SRC}")
        sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
        import semitoric
        import semitoric.cli
        import toric_oracle

        if not os.path.abspath(semitoric.__file__).startswith(SRC + os.sep):
            raise ImportError(f"semitoric imported from {semitoric.__file__}, not from {SRC}")
        self.pkg = semitoric
        self.cli = semitoric.cli
        self.oracle_graph = toric_oracle.reference_toric_graph
        # collected before any tracing wrapper hides them
        self.caches = [
            (name.rsplit(".", 1)[-1], value)
            for name, module in list(sys.modules.items()) if name.startswith("semitoric.")
            for value in vars(module).values()
            if hasattr(value, "cache_clear") and value.__module__ == name
        ]

    def polygon(self, shape: S.Shape):
        return self.pkg.parse_polygon(S.to_json(shape))

    def oracle(self, shape: S.Shape) -> str:
        """The toric dictionary's canonical graph for a mark-free polygon."""
        return self.pkg.canonical_graph(self.oracle_graph(self.polygon(shape)))

    def accept(self, shape: S.Shape) -> bool:
        try:
            self.polygon(shape)
        except self.pkg.SemitoricError:
            return False
        return True

    def clear_caches(self) -> None:
        for _, fn in self.caches:
            fn.cache_clear()

    def cached_entries(self) -> dict:
        out = {}
        for module, fn in self.caches:
            out[module] = out.get(module, 0) + fn.cache_info().currsize
        return out


class Workload:
    def __init__(self, lib: Library, name: str, seed: int, size: str, work: str):
        self.lib, self.name, self.seed, self.size, self.work = lib, name, seed, size, work
        self.failures: list[str] = []  # wrong answers: make the run incorrect
        self.refusals = 0
        # (pass, query, ns, ok, ns of the reference around the query)
        self.records: list[tuple[int, int, int, bool, float]] = []
        self.first_digests: dict[int, str] = {}

    def setup(self) -> float:
        """Build and check the inputs, warm up, and return the seconds taken,
        at the reference speed."""
        before = reference_now()
        t = perf_counter()
        rng = random.Random(f"{self.name}:{self.seed}")
        queries = W.BUILDERS[self.name](rng, self.size, self.lib)
        sources = {}
        for q in queries:
            if isinstance(q.source, S.Shape) and q.source not in sources:
                if q.expect != 2:
                    self.lib.polygon(q.source)  # each emitted valid polygon is checked once
                sources[q.source] = os.path.join(self.work, f"{len(sources)}.json")
            elif isinstance(q.source, str) and q.source not in sources:
                sources[q.source] = os.path.join(self.work, f"{len(sources)}.json")
        self.queries, self.sources = queries, sources
        self.warm_up()
        self.lib.clear_caches()
        return scaled(perf_counter() - t, before, reference_now())

    def warm_up(self) -> None:
        path = os.path.join(self.work, "warmup.json")
        with open(path, "w") as handle:
            handle.write(S.to_json(W.WARMUP))
        for argv in (["validate"], ["classify"], ["graph"], ["graph", "--format", "dot"], ["dh"],
                     ["adaptable"], ["presentations"], ["presentations", "--delzant-only"],
                     ["switch-cut", "--index", "0"], ["self-intersection", "--side", "left"]):
            self.lib.cli.run_cli([argv[0], path] + argv[1:], io.StringIO(), io.StringIO())
        self.lib.cli.run_cli(["corpus", "list"], io.StringIO(), io.StringIO())

    def write_inputs(self, offset: int) -> None:
        for source, path in self.sources.items():
            text = S.to_json(S.shear(source, 0, offset)) if isinstance(source, S.Shape) else source
            with open(path, "w") as handle:
                handle.write(text)

    def run_pass(self, p: int, tracer=None) -> None:
        offset = p * PASS_OFFSET
        self.write_inputs(offset)
        self.lib.clear_caches()
        gc.collect()  # every pass starts from the same collector state
        before = time_reference()
        for qid, q in enumerate(self.queries):
            argv = [
                self.sources[q.source] if a == W.FILE
                else a.render(offset) if isinstance(a, W.Vertex) else a
                for a in q.argv
            ]
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.query_id = qid
            t = perf_counter_ns()
            try:
                code = self.lib.cli.run_cli(argv, out, err)
            except Exception as exc:  # an uncaught library error is a failed query
                code = f"uncaught {type(exc).__name__}: {exc}"
            ns = perf_counter_ns() - t
            after = time_reference()
            ok = self.check(p, qid, q, code, out.getvalue(), err.getvalue())
            self.records.append((p, qid, ns, ok, (before + after) / 2))
            before = after

    def check(self, p: int, qid: int, q, code, stdout: str, stderr: str) -> bool:
        where = f"pass {p} query {qid} {q.argv[:1] + [a for a in q.argv[1:] if a != W.FILE]}"
        if code != q.expect:
            if q.expect == 0 and code == 1 and any(m in stderr for m in REFUSAL_MARKERS):
                self.refusals += 1
            else:
                self.failures.append(f"{where}: exit {code}, expected {q.expect}: {stderr.strip()[:200]}")
            return False
        if code != 0:
            return True
        if q.dh and json.loads(stdout).get("consistent") is not True:
            self.failures.append(f"{where}: slope-jump identity not consistent")
            return False
        if q.oracle is not None and stdout.strip() != q.oracle:
            self.failures.append(f"{where}: graph differs from the toric dictionary")
            return False
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if p == 0:
            self.first_digests[qid] = digest
        elif (q.cmd in W.TRANSLATION_INVARIANT or not isinstance(q.source, S.Shape)) and digest != self.first_digests.get(qid):
            self.failures.append(f"{where}: answer changed under a vertical translation")
            return False
        return True

    def check_digests(self, expected: list) -> None:
        """First-pass stdout digests against those recorded at the default seed."""
        for qid, want in enumerate(expected):
            got = self.first_digests.get(qid)
            if want is not None and got is not None and got != want:
                self.failures.append(f"{self.key()} query {qid}: stdout digest differs from the recorded one")

    def key(self) -> str:
        return self.name if self.size == "full" else f"{self.name}-{self.size}"

    def loop(self, seconds: float, first_pass: int, tracer=None) -> int:
        """Whole passes while the next one, judged by the last, ends within
        ``seconds``; at least one.  Returns the next pass index."""
        p = first_pass
        start = last = perf_counter()
        while True:
            self.run_pass(p, tracer)
            p += 1
            now = perf_counter()
            if now - start + (now - last) > seconds:
                return p
            last = now


def query_times(records) -> dict[int, tuple[float, bool]]:
    """Per query: its time at the reference speed, in ns, and whether every
    pass succeeded.

    On a shared host a core's speed moves by a factor up to two, in phases
    of seconds to minutes, with what other tenants run on it; how much of a
    run falls in each phase differs from run to run, so no statistic of the
    raw times (fastest, median) is steady across runs.  Each pass's time is
    therefore divided by the reference's time measured just before and just
    after it, the median of these ratios over the passes is taken, and it is
    scaled by ``REFERENCE_NS``."""
    ratios: dict[int, list[float]] = {}
    oks: dict[int, bool] = {}
    for _, qid, ns, ok, ref_ns in records:
        ratios.setdefault(qid, []).append(ns / ref_ns)
        oks[qid] = oks.get(qid, True) and ok
    return {qid: (statistics.median(r) * REFERENCE_NS, oks[qid]) for qid, r in ratios.items()}


def end_to_end(wl: Workload, records, setup_s: float) -> tuple[dict, dict]:
    times = query_times(records)
    passes = len({r[0] for r in records})
    ok_ms = [ns / 1e6 for ns, ok in times.values() if ok]
    deciles = statistics.quantiles(ok_ms, n=10, method="inclusive") if len(ok_ms) > 1 else [0.0] * 9
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": len(times) / (sum(ns for ns, _ in times.values()) / 1e9),
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "success_frac": sum(r[3] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": f"{SETUP_REPEATS} set-ups",
        "queries_per_s": f"{len(times)} queries x {passes} passes",
        "latency_p50_ms": f"{len(ok_ms)} queries x {passes} passes",
        "latency_p90_ms": f"{len(ok_ms)} queries x {passes} passes",
        "success_frac": f"{len(records)} attempts",
        "peak_rss_mb": "1 process",
    }
    for cmd in PASS_METRICS:
        chosen = [ns for qid, (ns, _) in times.items() if wl.queries[qid].cmd == cmd]
        metrics[f"{cmd}_s"] = sum(chosen) / 1e9
        samples[f"{cmd}_s"] = f"{len(chosen)} queries x {passes} passes"
    return metrics, samples


def per_layer(wl: Workload, untraced, traced, agg: dict, cached: dict) -> dict:
    traced_passes = len({r[0] for r in traced})
    per_pass = 1 / traced_passes
    calls, inclusive, self_ns = agg["calls"], agg["inclusive_ns"], agg["self_ns"]
    metrics = {}
    for name, kind, span in LAYER_TIMES:
        metrics[name] = (self_ns if kind == "self" else inclusive)[span] / 1e6 * per_pass
    for name, span in LAYER_CALLS:
        metrics[name] = calls[span] * per_pass
    built = agg["counts"].get("presentations_built", 0)
    metrics["cuts.presentations_built"] = built * per_pass
    metrics["graph.tie_candidates"] = agg["tie_candidates"] * per_pass
    metrics["analysis.delzant_yield"] = agg["counts"].get("delzant_found", 0) / built if built else 0.0
    metrics["polygon.cached_entries"] = cached.get("polygon", 0)
    metrics["vertices.cached_entries"] = cached.get("vertices", 0)
    for module in tracing.TRACED_MODULES:
        metrics[f"layer.{module}_self_ms"] = sum(
            ns for span, ns in self_ns.items() if span.startswith(module + ".")
        ) / 1e6 * per_pass
    query_ns = sum(r[2] for r in traced)
    metrics["trace.query_ms"] = query_ns / 1e6 * per_pass
    metrics["trace.self_coverage"] = sum(self_ns.values()) / query_ns
    untraced_times, traced_times = query_times(untraced), query_times(traced)
    metrics["trace.overhead_ratio"] = (
        sum(ns for ns, _ in traced_times.values()) / sum(ns for ns, _ in untraced_times.values())
    )
    for name, rung, cmd in growth_metrics():
        times = [ns / 1e6 for qid, (ns, ok) in untraced_times.items()
                 if ok and wl.queries[qid].rung == rung and wl.queries[qid].cmd == cmd]
        metrics[name] = statistics.median(times) if times else 0.0
    return metrics


def run_workload(args) -> int:
    before = reference_now()
    t = perf_counter()
    try:
        lib = Library()
    except ImportError as exc:
        print(f"cannot load the library: {exc}", file=sys.stderr)
        return 3
    import_s = scaled(perf_counter() - t, before, reference_now())
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        wl = Workload(lib, args.workload, args.seed, args.size, work)
        setup_s = import_s + statistics.median(wl.setup() for _ in range(SETUP_REPEATS))
        if args.trace:
            half = args.seconds / 2
            next_pass = wl.loop(half, 0)
            split = len(wl.records)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wl.loop(half, next_pass, tracer)
                cached = lib.cached_entries()
            finally:
                tracer.uninstall()
            untraced, traced = wl.records[:split], wl.records[split:]
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{wl.key()}.jsonl")  # the latest traced run only
            tracer.write(spans_path)
        else:
            wl.loop(args.seconds, 0)
            cached = lib.cached_entries()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    if args.record_digests:
        record_digests(wl)
    elif args.seed == DIGEST_SEED:
        recorded = None
        if os.path.exists(DIGEST_FILE):
            with open(DIGEST_FILE) as handle:
                recorded = json.load(handle).get(wl.key())
        if recorded is None or len(recorded["digests"]) != len(wl.queries):
            print(f"cannot check answers: no digests for these {len(wl.queries)} {wl.key()} queries "
                  f"in {DIGEST_FILE}", file=sys.stderr)
            return 4
        wl.check_digests(recorded["digests"])

    records = wl.records
    if args.trace:
        metrics = per_layer(wl, untraced, traced, tracing.aggregate(tracer), cached)
        units = dict(PER_LAYER)
        samples = {name: f"{len(traced)} traced attempts" for name in metrics}
    else:
        metrics, samples = end_to_end(wl, records, setup_s)
        units = dict(END_TO_END)
    passes = len({r[0] for r in records})
    print(f"# workload {wl.key()} seed {args.seed}: {len(wl.queries)} queries per pass, {passes} passes, "
          f"{len(records)} attempted, {sum(not r[3] for r in records)} failed ({wl.refusals} refused by a limit)")
    ref = [r[4] for r in records]
    print(f"# reference computation: median {statistics.median(ref) / 1e3:.1f} us, fastest {min(ref) / 1e3:.1f} us, "
          f"{REFERENCE_NS / 1e3:.1f} us on an uncontended core; query times below are scaled to that")
    if args.trace:
        print(f"# {len(tracer.start)} spans written to {os.path.relpath(spans_path, ROOT)}")
    for failure in wl.failures[:20]:
        print(f"# CHECK FAILED {failure}")
    for name, value in metrics.items():
        print(f"# {name:40s} {value:14.6g} {units[name]:6s} {samples[name]}")
    result = {
        "correct": not wl.failures,
        "attempted": len(records),
        "failed": sum(not r[3] for r in records),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record_digests(wl: Workload) -> None:
    data = {}
    if os.path.exists(DIGEST_FILE):
        with open(DIGEST_FILE) as handle:
            data = json.load(handle)
    data[wl.key()] = {
        "seed": wl.seed,
        "digests": [wl.first_digests.get(qid) for qid in range(len(wl.queries))],
    }
    with open(DIGEST_FILE, "w") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")


def run_each(workloads, seconds: float, trace: int, size: str, seed: int) -> list:
    """Run each workload in its own process, echo its output, return the results."""
    results = []
    for workload in workloads:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--size", size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=175)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        results.append((workload, proc.returncode, result))
    return results


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced: all metrics present,
    every answer checked (digests included) and right, refusals only where expected."""
    problems = []
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        for workload, code, result in run_each(WORKLOADS + ("limits",), 0.5, trace, "smoke", DIGEST_SEED):
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            missing = [name for name, _ in names if name not in result["metrics"]]
            if missing:
                problems.append(f"{where}: missing metrics {missing}")
            if result["correct"] is not True:
                problems.append(f"{where}: a check failed")
            if (result["failed"] > 0) != (workload == "limits"):
                problems.append(f"{where}: {result['failed']} failed queries")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("limits", "all"),
                        help="'all' runs the three benchmark workloads, each in its own process")
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes and check the output")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's first-pass stdout digests in {os.path.basename(DIGEST_FILE)}")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = run_each(WORKLOADS, args.seconds, args.trace, args.size, args.seed)
        return 0 if all(result and result["correct"] for _, _, result in results) else 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
