"""Seeded query lists for the three workloads (and the limit probes).

A workload is a list of ``Query`` values, one pass.  A query names its
input as a ``Shape`` (written to a file before each pass, translated
upward by a per-pass offset so no pass repeats another's polygons), as
raw file text, or as nothing (``corpus`` subcommands and ``corpus:NAME``
sources).  Each query carries the exit code expected from how its input
was made and the output checks that apply to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import shapes as S
from shapes import F, Shape

FILE = "<file>"  # argv placeholder for the query's input path

# commands whose stdout does not change when the polygon moves vertically
TRANSLATION_INVARIANT = {"validate", "graph", "dh", "adaptable", "self-intersection"}


@dataclass(frozen=True)
class Vertex:
    """A ``--vertex`` argument, translated with the polygon."""

    x: Fraction
    y: Fraction

    def render(self, offset: int) -> str:
        return f"{self.x},{self.y + offset}"


@dataclass
class Query:
    cmd: str
    argv: list
    source: object = None  # Shape, str (raw file text) or None
    expect: int = 0
    rung: str = ""  # growth-table rung, e.g. "n32", "m4", "m4-non", "tie6"
    oracle: str | None = None  # expected canonical graph (toric dictionary)
    dh: bool = False  # the answer must report the slope-jump identity as consistent


# the library's bundled corpus, in the benchmark's own representation
CORPUS = {
    "SQUARE": S.make([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "CP2STD": S.make([(0, 0), (1, 0), (0, 1)]),
    "TRI121": S.make([(0, 0), (2, 1), (1, 1)]),
    "FF1": S.make([(0, 0), (1, 0), (2, 1)], [(1, F(1, 4), 1, -1)]),
    "FF1UP": S.make([(0, 0), (2, 0), (1, F(1, 2))], [(1, F(1, 4), 1, 1)]),
    "HD1": S.make([(0, 0), (2, 0), (1, 1)], [(1, F(1, 2), 1, 1)]),
    "HD1DOWN": S.make([(0, 0), (1, 0), (2, 1), (1, 1)], [(1, F(1, 2), 1, -1)]),
    "NONADAPT3": S.make([(0, 0), (1, 0), (2, 3), (2, 4), (0, 4)], [(1, 2, 3, -1)]),
}

# Warm-up input: a corpus polygon at a height no workload polygon reaches.
WARMUP = S.shear(CORPUS["HD1DOWN"], 0, F(-10**6))

LADDER_SCALE = 10**9  # chop_ladder bases are scaled to integer side lengths this large

# sizes: full runs and the smoke mode
SIZES = {
    "full": {"ladder": {8: 2, 16: 2, 32: 2}, "m": 4, "tie": 6, "per_kind": 3},
    "smoke": {"ladder": {8: 1, 16: 1}, "m": 3, "tie": 3, "per_kind": 1},
}


def random_shear(shape: Shape, rng: random.Random) -> Shape:
    return S.shear(shape, rng.randint(-3, 3), F(rng.randint(-24, 24), rng.randint(1, 4)))


def grow(shape: Shape, n: int, rng: random.Random) -> Shape:
    """Chop the largest Delzant corners until the polygon has ``n`` vertices.

    The base is scaled to integer side lengths of ``LADDER_SCALE``.  Each
    step picks at random among the corners whose chop is within a factor
    two of the largest, and cuts half of the shorter incident edge (or a
    smaller power-of-two share, to stay clear of the mark columns and of
    other vertices' columns, which would tie graph labels).  So
    every coordinate stays a small integer, the polygons of one size have
    the same round build whatever the seed, and the cost of a query
    depends on n rather than on the size of the numbers."""
    shape = Shape(tuple((int(x * LADDER_SCALE), int(y * LADDER_SCALE)) for x, y in shape.vertices),
                  tuple((int(x * LADDER_SCALE), int(y * LADDER_SCALE), m, c) for x, y, m, c in shape.marks))
    while len(shape.vertices) < n:
        xs = [v[0] for v in shape.vertices]
        taken = set(xs) - {min(xs), max(xs)}
        chops = []
        for i in S.delzant_corners(shape):
            delta = int(S.chop_allowance(shape, i)) // 2
            while delta >= 1 and not _chop_ok(shape, i, delta, taken):
                delta //= 2
            if delta >= 1:
                chops.append((i, delta))
        largest = max(delta for _, delta in chops)
        i, delta = rng.choice([c for c in chops if 2 * c[1] > largest])
        shape = S.chop(shape, i, delta)
    return S.make(shape.vertices, shape.marks)


def _chop_ok(shape: Shape, i: int, delta: Fraction, taken: set) -> bool:
    """The chop keeps the marks valid, and its new vertices off the extreme
    columns get columns no other vertex has (shared columns tie graph labels)."""
    if not S.chop_keeps_marks(shape, i, delta):
        return False
    own = shape.vertices[i][0]
    return all(p[0] == own or p[0] not in taken for p in S.chop_points(shape, i, delta))


def _session(shape: Shape, rung: str, oracle=None) -> list[Query]:
    left, right = S.vertical_sides(shape)
    return [
        Query("validate", ["validate", FILE], shape, rung=rung),
        Query("classify", ["classify", FILE], shape, rung=rung),
        Query("graph", ["graph", FILE], shape, rung=rung, oracle=oracle),
        Query("dh", ["dh", FILE], shape, rung=rung, dh=True),
        Query("adaptable", ["adaptable", FILE], shape, rung=rung),
        Query("presentations", ["presentations", FILE], shape, rung=rung),
        Query("self-intersection", ["self-intersection", FILE, "--side", "left"], shape, 0 if left else 1, rung),
        Query("self-intersection", ["self-intersection", FILE, "--side", "right"], shape, 0 if right else 1, rung),
    ]


def chop_ladder(rng: random.Random, size: str, lib) -> list[Query]:
    queries = []
    for n, count in SIZES[size]["ladder"].items():
        for base in ("SQUARE", "FF1", "NONADAPT3"):
            for _ in range(count):
                shape = random_shear(grow(CORPUS[base], n, rng), rng)
                queries += _session(shape, f"n{n}", lib.oracle(shape) if base == "SQUARE" else None)
    return queries


def focus_columns(jumps: list[int], rng: random.Random) -> Shape:
    """Left and right vertical edges, a flat top, and a convex bottom whose
    slope rises by ``jumps[k]`` at joint k.  Joint k carries ``jumps[k]``
    unit marks cut down to it, so every joint is a fake vertex."""
    x, y, slope = F(0), F(0), 0
    bottom = [(x, y)]
    for jump in [0] + jumps:
        slope += jump
        x, y = x + 1, y + slope
        bottom.append((x, y))
    height = max(p[1] for p in bottom) + rng.randint(1, 3)
    marks = []
    for (jx, jy), jump in zip(bottom[1:-1], jumps):
        for k in range(jump):
            marks.append((jx, jy + (height - jy) * F(k + 1, jump + 1), 1, -1))
    vertices = bottom + [(x, height), (F(0), height)]
    return random_shear(S.make(vertices, marks), rng)


def tie_block(k: int, rng: random.Random) -> Shape:
    """One mark of multiplicity k: a tie block of k same-label graph vertices."""
    height = k + rng.randint(1, 3)
    mark = (F(1), F(height, rng.randint(2, 5)), k, -1)
    return random_shear(S.make([(0, 0), (1, 0), (2, k), (2, height), (0, height)], [mark]), rng)


def _focus_queries(shape: Shape, rung: str, rng: random.Random, search: bool = True) -> list[Query]:
    """The focus_family queries on one polygon; ``search`` adds the two that
    search the unit-split cut family (2^m presentations)."""
    index = str(rng.randrange(len(shape.marks)))
    queries = [
        Query("validate", ["validate", FILE], shape, rung=rung),
        Query("graph", ["graph", FILE], shape, rung=rung),
        Query("dh", ["dh", FILE], shape, rung=rung, dh=True),
        Query("presentations", ["presentations", FILE], shape, rung=rung),
        Query("switch-cut", ["switch-cut", FILE, "--index", index], shape, rung=rung),
    ]
    if search:
        queries += [
            Query("adaptable", ["adaptable", FILE], shape, rung=rung),
            Query("presentations", ["presentations", FILE, "--delzant-only"], shape, rung=rung),
        ]
    return queries


def focus_family(rng: random.Random, size: str, lib) -> list[Query]:
    top_m, top_k = SIZES[size]["m"], SIZES[size]["tie"]
    queries = []
    for m in range(1, top_m + 1):
        for _ in range(2 if m <= 3 else 1):  # cheap rungs twice: about 100 queries per pass
            queries += _focus_queries(focus_columns([1] * m, rng), f"m{m}", rng)
        if m >= 3:
            jumps = [1] * (m - 3)
            jumps.insert(len(jumps) // 2, 3)
            queries += _focus_queries(focus_columns(jumps, rng), f"m{m}-non", rng)
    for k in range(2, top_k + 1):  # the m ladder already covers the search
        queries += _focus_queries(tie_block(k, rng), f"tie{k}", rng, search=False)
    return queries


def limits(rng: random.Random, size: str, lib) -> list[Query]:
    """Valid inputs just past the library's enumeration and tie-break limits.

    Each answer is mathematically defined (expected exit 0); today's
    library refuses them, so every query here counts as failed."""
    wide = focus_columns([1] * 17, rng)
    tie = tie_block(9, rng)
    return [
        Query("adaptable", ["adaptable", FILE], wide),
        Query("presentations", ["presentations", FILE, "--delzant-only"], wide),
        Query("graph", ["graph", FILE], tie),
    ]


def fuzz(base: Shape, rng: random.Random, chops: int, accept) -> Shape:
    """A derivative of ``base`` by exactly ``chops`` corner chops and up to
    two cut switches, in a random order, then one random shear.

    The chops fix the vertex count and their sizes (a half, third or quarter
    of what the corner allows) keep the numbers small, so derivatives with
    the same ``chops`` cost about the same to query whatever the seed.
    ``accept`` checks a candidate through the library; a switch can produce
    an invalid presentation, and such candidates are drawn again."""
    while True:
        shape = base
        ops = ["chop"] * chops + ["switch"] * rng.randint(0, 2)
        rng.shuffle(ops)
        for op in ops:
            if op == "switch" and shape.marks:
                shape = S.switch(shape, rng.randrange(len(shape.marks)))
            elif op == "chop":
                options = [(i, S.chop_allowance(shape, i) * F(1, k))
                           for i in S.delzant_corners(shape) for k in (2, 3, 4)]
                options = [(i, delta) for i, delta in options if S.chop_keeps_marks(shape, i, delta)]
                if not options:
                    break
                shape = S.chop(shape, *rng.choice(options))
        else:
            shape = random_shear(shape, rng)
            if accept(shape):
                return shape


MALFORMED = [
    "{\"vertices\": [[\"0\",\"0\"],[\"1\",\"0\"]",
    "[]",
    "{\"vertices\": [[0, 0], [1, 0], [0, 1]]}",
    "{\"vertices\": [[\"0\",\"0\"],[\"0.5\",\"0\"],[\"0\",\"1\"]]}",
    "{\"vertices\": [[\"0\",\"0\"],[\"1\",\"0\"],[\"0\",\"1\"]], \"marked_points\": [{\"x\":\"1/4\",\"y\":\"1/4\",\"cut\":-1}]}",
    "{\"vertices\": [[\"0\",\"0\"],[\"1\",\"0\"],[\"0\",\"1\"]], \"marked_points\": [{\"x\":\"1/4\",\"y\":\"1/4\",\"multiplicity\":0,\"cut\":-1}]}",
    "{\"vertices\": \"none\"}",
    "not json at all",
]


INVALID_KINDS = ("reflex", "clockwise", "outside", "endpoint")


def _invalid(shape: Shape, kind: str) -> Shape:
    """A well-formed file that fails validation (exit 2)."""
    verts = list(shape.vertices)
    if kind == "reflex":  # push an edge midpoint inward
        a, b = verts[0], verts[1]
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        verts.insert(1, ((mid[0] + cx) / 2, (mid[1] + cy) / 2))
        return Shape(tuple(verts), shape.marks)
    if kind == "clockwise":
        return Shape(tuple(reversed(verts)), shape.marks)
    xs = [v[0] for v in verts]
    lo, hi = min(xs), max(xs)
    if kind == "outside":
        return Shape(tuple(verts), shape.marks + ((hi + 1, F(0), 1, -1),))
    # a mark whose cut lands inside an edge, not on a vertex
    columns = (lo + (hi - lo) * F(k, 17) for k in range(1, 17))
    x = next(c for c in columns if c not in xs)
    bottom, top = S.slice_at(shape, x)
    return Shape(tuple(verts), shape.marks + ((x, (bottom + top) / 2, 1, -1),))


CORPUS_CMDS = ("validate", "graph", "dh", "adaptable")  # run on each corpus:NAME source

SWEEP_KINDS = ("validate", "classify", "graph", "dot", "dh", "adaptable", "switch-cut",
               "presentations", "delzant-only", "self-intersection", "chop")


def _sweep_query(kind: str, shape: Shape, rng: random.Random) -> Query:
    """One query of the given kind on a valid polygon."""
    if kind == "dot":
        return Query("graph", ["graph", FILE, "--format", "dot"], shape)
    if kind == "delzant-only":
        return Query("presentations", ["presentations", FILE, "--delzant-only"], shape)
    if kind == "dh":
        return Query("dh", ["dh", FILE], shape, dh=True)
    if kind == "switch-cut":
        if not shape.marks:
            return Query("switch-cut", ["switch-cut", FILE, "--index", "0"], shape, 1)
        return Query("switch-cut", ["switch-cut", FILE, "--index", str(rng.randrange(len(shape.marks)))], shape)
    if kind == "self-intersection":
        side = rng.choice(("left", "right"))
        has = S.vertical_sides(shape)[side == "right"]
        return Query("self-intersection", ["self-intersection", FILE, "--side", side], shape, 0 if has else 1)
    if kind == "chop":
        corners = S.delzant_corners(shape)
        if not corners:
            return Query("validate", ["validate", FILE], shape)
        i = rng.choice(corners)
        v = shape.vertices[i]
        allowance = S.chop_allowance(shape, i)
        if rng.random() < 0.2:  # too large: the chop does not apply
            return Query("chop", ["chop", FILE, "--vertex", Vertex(*v), "--size", str(allowance)], shape, 1)
        delta = allowance * F(1, rng.randint(2, 6))
        if not S.chop_keeps_marks(shape, i, delta):  # the outcome is not derived here
            return Query("validate", ["validate", FILE], shape)
        return Query("chop", ["chop", FILE, "--vertex", Vertex(*v), "--size", str(delta)], shape)
    return Query(kind, [kind, FILE], shape)


def sweep_stream(rng: random.Random, size: str, lib) -> list[Query]:
    """Every corpus entry times every file-query kind, ``per_kind`` times each, on
    distinct fuzz derivatives with 0, 1 and 2 chops in turn; plus, per entry,
    its ``corpus:`` source under four commands, ``corpus get``, each kind of
    invalid file and an out-of-range switch; plus every malformed file twice.
    All in a seeded order.  Fixed counts keep the mix, and so a pass's cost,
    alike across seeds."""
    per_cell = SIZES[size]["per_kind"]
    seen: set = set()

    def fresh(base, chops):
        while True:
            shape = fuzz(base, rng, chops, lib.accept)
            if shape not in seen:
                seen.add(shape)
                return shape

    queries = []
    for name, base in CORPUS.items():
        for kind in SWEEP_KINDS:
            queries += [_sweep_query(kind, fresh(base, i % 3), rng) for i in range(per_cell)]
        for cmd in CORPUS_CMDS:
            queries.append(Query(cmd, [cmd, f"corpus:{name}"], dh=cmd == "dh"))
        queries.append(Query("corpus", ["corpus", "get", name]))
        for i, (kind, cmd) in enumerate(zip(INVALID_KINDS, ("validate", "dh", "classify", "graph"))):
            queries.append(Query(cmd, [cmd, FILE], _invalid(fresh(base, i % 3), kind), 2))
        shape = fresh(base, 1)
        queries.append(Query("switch-cut", ["switch-cut", FILE, "--index", str(len(shape.marks))], shape, 1))
    for text in MALFORMED:
        queries += [Query(cmd, [cmd, FILE], text, 2) for cmd in ("validate", "graph")]
    queries += [
        Query("corpus", ["corpus", "list"]),
        Query("corpus", ["corpus", "get", "NOSUCH"], expect=1),
        Query("validate", ["validate", "corpus:NOSUCH"], expect=1),
    ]
    rng.shuffle(queries)
    # The queries on one corpus:NAME source share its cache entries within a
    # pass.  Whichever comes first fills them, so keep them in CORPUS_CMDS
    # order on their shuffled slots: then the same command pays whatever the seed.
    for name in CORPUS:
        slots = [i for i, q in enumerate(queries) if q.argv[1:] == [f"corpus:{name}"]]
        ordered = sorted((queries[i] for i in slots), key=lambda q: CORPUS_CMDS.index(q.cmd))
        for i, q in zip(slots, ordered):
            queries[i] = q
    return queries


BUILDERS = {
    "chop_ladder": chop_ladder,
    "focus_family": focus_family,
    "sweep_stream": sweep_stream,
    "limits": limits,
}
