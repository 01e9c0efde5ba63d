"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, query id),
and also replaces the copies other modules imported by name, so calls
between layers are seen.  Spans live in flat arrays until the run ends;
``aggregate`` then turns them into per-layer totals.  Code in modules that
are not traced (``geometry``, ``chop``, ``corpus``) lands in its caller's
self time.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

TRACED_MODULES = ("cli", "serialization", "polygon", "vertices", "cuts", "graph", "analysis")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.query_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, counts = self._stack, self.counts
        name_of, parent, query, start, end = self.name_of, self.parent, self.query, self.start, self.end
        on_result = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            query.append(self.query_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "semitoric") -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name != package and not module_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        """One JSON line per span: [name, start ns, end ns, parent span, query id]."""
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                row = [self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i], self.query[i]]
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def _count_presentations(counts, result):
    counts["presentations_built"] += len(result.members)


def _count_delzant(counts, result):
    counts["delzant_found"] += bool(result)


RESULT_COUNTERS = {
    "cuts.enumerate_presentations": _count_presentations,
    "vertices.is_delzant_polygon": _count_delzant,
}

DH_SPANS = ("analysis.dh_function", "analysis.dh_jump_report")


def aggregate(tracer: Tracer) -> dict:
    """Per-name call counts, inclusive and self nanoseconds, plus derived counts.

    Parents are recorded before their children, so one forward sweep
    propagates "inside a DH span" and "inside canonical_form" flags.  The
    library has no recursion, so a name's inclusive time is the sum of its
    spans; the DH pair (dh_jump_report calls dh_function) counts once."""
    names, name_of, parent, start, end = tracer.names, tracer.name_of, tracer.parent, tracer.start, tracer.end
    is_dh = bytearray(name in DH_SPANS for name in names)
    is_canonical = bytearray(name == "graph.canonical_form" for name in names)
    serialize = names.index("graph.serialize_graph") if "graph.serialize_graph" in names else -1
    n = len(start)
    in_dh, in_canonical = bytearray(n), bytearray(n)
    child_ns = [0] * n
    calls, inclusive, self_ns = Counter(), Counter(), Counter()
    tie_candidates = 0
    for i in range(n):
        nid, p = name_of[i], parent[i]
        duration = end[i] - start[i]
        if p >= 0:
            child_ns[p] += duration
            in_dh[i] = in_dh[p] or is_dh[name_of[p]]
            in_canonical[i] = in_canonical[p] or is_canonical[name_of[p]]
        name = names[nid]
        calls[name] += 1
        inclusive[name] += duration
        if is_dh[nid] and not in_dh[i]:
            inclusive["analysis.dh"] += duration
        if nid == serialize and in_canonical[i]:
            tie_candidates += 1
    for i in range(n):
        self_ns[names[name_of[i]]] += end[i] - start[i] - child_ns[i]
    return {
        "calls": calls,
        "inclusive_ns": inclusive,
        "self_ns": self_ns,
        "tie_candidates": tie_candidates,
        "counts": dict(tracer.counts),
    }
