"""The per-polygon facts layer: lifetime, exactness off the columns, stored errors."""

import ast
import copy
import functools
import gc
import io
import pickle
import random
import traceback
import weakref
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest
import semitoric
import semitoric.cli as cli
import semitoric.vertices as vertices
from semitoric import (
    ClassificationError,
    DomainError,
    GeometryError,
    MarkedPoint,
    Point,
    PolygonFacts,
    SemitoricError,
    SemitoricPolygon,
    ValidationReport,
    adaptability,
    boundary_chains,
    build_graph,
    chop_allowance,
    classify_vertex,
    det2,
    dh_jump_report,
    is_delzant_polygon,
    is_smooth_vertex,
    isotropy_weights,
    orbit_counts,
    outgoing_primitives,
    parse_polygon,
    serialize_polygon,
    slice_heights,
    validate,
    zk_chains,
)


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


def edge_scan_slice(polygon, x):
    """(bottom, top) at x from every non-vertical edge crossing the column."""
    verts = polygon.vertices
    ys = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        if a.x != b.x and min(a.x, b.x) <= x <= max(a.x, b.x):
            ys.append(a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x))
    return min(ys), max(ys)


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["classify"], ["graph"], ["dh"], ["adaptable"], ["presentations", "--delzant-only"]],
)
def test_polygon_dies_after_cli_query(corpus, tmp_path, monkeypatch, argv):
    path = tmp_path / "ff1.json"
    path.write_text(serialize_polygon(corpus["FF1"]))
    refs = []
    parse = cli.parse_polygon

    def parse_and_watch(text):
        polygon = parse(text)
        assert "_facts" in polygon.__dict__  # parsing has already swept the facts
        refs.append(weakref.ref(polygon))
        return polygon

    monkeypatch.setattr(cli, "parse_polygon", parse_and_watch)
    assert run_without_collector([argv[0], str(path), *argv[1:]]) == 0
    assert len(refs) == 1 and refs[0]() is None  # freed by reference counting alone


def run_without_collector(argv) -> int:
    """``run_cli(argv)`` with the cyclic collector off, asserting that the call left no cyclic garbage."""
    gc.collect()
    gc.disable()
    try:
        code = cli.run_cli(argv, io.StringIO(), io.StringIO())
    finally:
        gc.enable()
    assert gc.collect() == 0
    return code


@pytest.mark.parametrize("command", ["validate", "dh", "graph", "classify"])
def test_a_refused_query_leaves_no_cyclic_garbage(tmp_path, command):
    path = tmp_path / "unclassifiable.json"
    path.write_text(serialize_polygon(SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1)))))
    assert run_without_collector([command, str(path)]) == 2


def test_each_vertex_is_classified_once(chopped_polygons, monkeypatch):
    from conftest import focus_ladder

    calls, classified = [], 0
    classify = vertices.lattice_class
    monkeypatch.setattr(vertices, "lattice_class", lambda v, *args: calls.append(v) or classify(v, *args))
    for polygon in chopped_polygons + [focus_ladder([1] * 8)]:
        calls.clear()
        fresh = parse_polygon(serialize_polygon(polygon))
        for query in (validate, dh_jump_report, build_graph, adaptability, zk_chains):
            query(fresh)
        for x in fresh.facts.marks_at:
            orbit_counts(fresh, x)
        # a vertex where no cut ends and the walk turns by 1 is Delzant without a lattice_class call
        turns, degrees = fresh.facts._turns, fresh.facts._degrees
        doubtful = [v for v, turn, (degree, _) in zip(fresh.vertices, turns, degrees) if turn != 1 or degree]
        assert calls == doubtful and len(doubtful) < len(fresh.vertices)
        classified += len(calls)
    assert classified > 8  # every cut endpoint of FF1, NONADAPT3 and the ladder


def test_one_vertex_is_classified_alone(chopped_polygons, monkeypatch):
    # after a fresh parse and validate, one classify_vertex or is_smooth_vertex call classifies its vertex alone,
    # with the class the whole-polygon record gives it
    calls = []
    classify = vertices.lattice_class
    monkeypatch.setattr(vertices, "lattice_class", lambda v, *args: calls.append(v) or classify(v, *args))
    for polygon in chopped_polygons:
        for i in (0, 37, len(polygon.vertices) - 1):
            fresh = parse_polygon(serialize_polygon(polygon))
            validate(fresh)
            vertex = fresh.vertices[i]
            calls.clear()
            found = classify_vertex(fresh, vertex)
            assert len(calls) <= 1
            calls.clear()
            assert is_smooth_vertex(fresh, vertex) == (abs(det2(found.left_primitive, found.right_primitive)) == 1)
            assert len(calls) <= 1
            assert found == validate(fresh).classifications[vertex] == classify_vertex(fresh, vertex)


def test_a_delzant_check_classifies_only_where_a_cut_ends_or_the_turn_is_not_1(chopped_polygons, monkeypatch):
    calls = []
    classify = vertices.lattice_class
    monkeypatch.setattr(vertices, "lattice_class", lambda v, *args: calls.append(v) or classify(v, *args))
    for polygon in chopped_polygons:
        fresh = parse_polygon(serialize_polygon(polygon))
        validate(fresh)
        turns, degrees = fresh.facts._turns, fresh.facts._degrees
        doubtful = sum(turn != 1 or degree != 0 for turn, (degree, _) in zip(turns, degrees))
        calls.clear()
        verdict = is_delzant_polygon(fresh)
        assert len(calls) <= doubtful
        assert verdict is all(is_smooth_vertex(fresh, v) for v in fresh.vertices)


def test_a_delzant_check_answers_as_the_vertex_by_vertex_rule(corpus, derived_polygons):
    # the same verdict, or the same first error, over valid polygons and polygons no vertex rule accepts
    from conftest import multi_column_polygons

    hostile = [
        SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1))),  # a vertex of no class
        SemitoricPolygon((pt(0, 0), pt(1, 0), pt(1, 1), pt(1, 2), pt(0, 2))),  # between two vertical edges
        SemitoricPolygon((pt(0, 0), pt(2, 0), pt(2, 0), pt(2, 2), pt(0, 2))),  # a doubled vertex
        SemitoricPolygon((pt(0, 0), pt(2, 0), pt(3, 1), pt(2, 0), pt(2, 2), pt(0, 2))),  # a vertex visited twice
        SemitoricPolygon((pt(0, 0), pt(0, 2), pt(2, 2), pt(2, 0))),  # clockwise
        SemitoricPolygon((pt(0, 0), pt(4, 0), pt(0, 4)), (MarkedPoint(pt(1, 1)),)),  # a cut ending off the vertices
    ]

    def answer(polygon, rule):
        try:
            return rule(copy.deepcopy(polygon))  # without the facts
        except SemitoricError as exc:
            return type(exc), str(exc)

    for polygon in list(corpus.values()) + derived_polygons + multi_column_polygons(50) + hostile:
        by_vertex = answer(polygon, lambda p: all(is_smooth_vertex(p, v) for v in p.vertices))
        assert answer(polygon, is_delzant_polygon) == by_vertex, polygon


def test_the_k_runs_build_no_chain_records(chopped_polygons, monkeypatch):
    # the graph and the orbit counts read each k-run's k and pole positions; zk_chains alone builds its records
    from conftest import focus_ladder

    built = []
    record = vertices.ZkChain
    monkeypatch.setattr(vertices, "ZkChain", lambda *args: built.append(1) or record(*args))
    runs = 0
    for polygon in chopped_polygons + [focus_ladder([1] * 8)]:
        built.clear()
        fresh = parse_polygon(serialize_polygon(polygon))
        build_graph(fresh)
        for x in fresh.facts.marks_at:
            orbit_counts(fresh, x)
        assert built == []
        assert len(zk_chains(fresh)) == len(built) == len(fresh.facts._poles)
        runs += len(built)
    assert runs > 8


@pytest.mark.parametrize(
    "argv",
    [["presentations"], ["presentations", "--delzant-only"], ["adaptable"], ["switch-cut", "--index", "0"], ["graph"],
     ["dh"], ["classify"]],
)
def test_each_cli_query_validates_once(corpus, tmp_path, monkeypatch, argv):
    # and builds no Point chains: only boundary_chains reads them, the library reads vertex positions
    from conftest import focus_ladder

    checked, loaded = [], []
    report = semitoric.polygon._validation_report
    monkeypatch.setattr(semitoric.polygon, "_validation_report", lambda facts: checked.append(1) or report(facts))
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda source: loaded.append(load(source)) or loaded[-1])
    merged = focus_ladder([2, 1])  # its first column as one mark of multiplicity 2, which the Delzant search splits
    merged = SemitoricPolygon(merged.vertices, (MarkedPoint(merged.marks[0].position, 2, -1),) + merged.marks[2:])
    for polygon in (corpus["FF1"], corpus["NONADAPT3"], corpus["HD1"], corpus["SQUARE"], focus_ladder([1] * 4), merged):
        path = tmp_path / "polygon.json"
        path.write_text(serialize_polygon(polygon))
        checked.clear()
        code = cli.EXIT_DOMAIN if argv[0] == "switch-cut" and not polygon.marks else 0  # SQUARE has no mark 0
        assert cli.run_cli([argv[0], str(path), *argv[1:]], io.StringIO(), io.StringIO()) == code
        assert len(checked) == 1, polygon
        assert "chains" not in vars(loaded.pop().facts), polygon


def test_a_kept_report_is_read_only(corpus):
    polygon = SemitoricPolygon(corpus["FF1"].vertices, corpus["FF1"].marks)
    report = validate(polygon)
    vertex = polygon.vertices[0]
    with pytest.raises(TypeError):
        report.classifications[vertex] = None
    with pytest.raises(TypeError):
        del report.classifications[vertex]
    assert validate(polygon) is report and report.classifications[vertex] == classify_vertex(polygon, vertex)


def test_report_classifications_read_as_a_dict(corpus):
    # built on first read, they answer every mapping read as the report built from a dict does
    for polygon in corpus.values():
        report = validate(SemitoricPolygon(polygon.vertices, polygon.marks))
        eager = ValidationReport({v: classify_vertex(polygon, v) for v in polygon.vertices}, report.violations)
        lazy, built = report.classifications, eager.classifications
        assert type(lazy) is type(built) is MappingProxyType
        assert report == eager and eager == report and repr(report) == repr(eager) and str(lazy) == str(built)
        assert report == validate(SemitoricPolygon(polygon.vertices, polygon.marks))
        assert lazy == built and built == lazy and lazy == dict(built) and dict(built) == lazy
        assert list(lazy) == list(built) and list(reversed(lazy)) == list(reversed(built)) and len(lazy) == len(built)
        assert lazy.keys() == built.keys() and list(lazy.values()) == list(built.values())
        assert lazy.items() == built.items() and lazy.copy() == built.copy() and type(lazy.copy()) is dict
        assert lazy | {} == built | {} and {} | lazy == {} | built
        vertex = polygon.vertices[0]
        assert vertex in lazy and lazy.get(vertex) == lazy[vertex] == built[vertex] and lazy.get(None, 1) == 1
        with pytest.raises(TypeError):
            hash(report)


def test_slice_heights_off_the_columns_match_edge_scan(corpus, derived_polygons):
    rng = random.Random(20240818)
    for polygon in list(corpus.values()) + derived_polygons:
        columns = {v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks}
        for _ in range(5):
            t = Fraction(rng.randint(1, 999), 1000)
            x = polygon.j_min + t * (polygon.j_max - polygon.j_min)
            if x in columns:
                continue
            assert slice_heights(polygon, x) == edge_scan_slice(polygon, x)


def test_slice_heights_on_the_columns_match_edge_scan(corpus, derived_polygons):
    from conftest import multi_column_polygons

    for polygon in list(corpus.values()) + derived_polygons + multi_column_polygons(100):
        columns = {v.x for v in polygon.vertices} | {m.position.x for m in polygon.marks}
        fresh = SemitoricPolygon(polygon.vertices, polygon.marks)  # read before and after validation
        for x in sorted(columns):
            assert slice_heights(fresh, x) == slice_heights(polygon, x) == edge_scan_slice(polygon, x), (polygon, x)


def test_validation_hashes_each_vertex_once(corpus, monkeypatch):
    # validation reads every vertex by position, and the report's classifications are built on first read
    from conftest import focus_ladder, fuzz_derivatives

    polygons = list(corpus.values()) + fuzz_derivatives(50) + [focus_ladder([1] * 32)]
    fresh = [SemitoricPolygon(p.vertices, p.marks) for p in polygons]
    hashes = []
    point_hash = Point.__hash__
    monkeypatch.setattr(Point, "__hash__", lambda point: hashes.append(1) or point_hash(point))
    for polygon in fresh:
        hashes.clear()
        assert validate(polygon).valid
        assert hashes == [], polygon


def test_point_readers_build_no_point_map(corpus, monkeypatch):
    # past the load, which validates, a vertex given by its Point is found by its reduced integers, then read by
    # position: no Point or Fraction is hashed, nor where validation refuses a doubled vertex
    from conftest import fuzz_derivatives

    polygons = [parse_polygon(serialize_polygon(p)) for p in list(corpus.values()) + fuzz_derivatives(50)]
    square = corpus["SQUARE"].vertices
    doubled = SemitoricPolygon(square[:2] + square[1:], ())
    hashes = []
    for cls in (Point, Fraction):
        monkeypatch.setattr(cls, "__hash__", lambda value, found=cls.__hash__: hashes.append(value) or found(value))
    assert [v.rule for v in validate(doubled).violations] == ["duplicate-vertex"]
    assert hashes == []
    calls = 0
    for polygon in polygons:
        for vertex in polygon.vertices:
            for reader in (classify_vertex, is_smooth_vertex, outgoing_primitives, isotropy_weights, chop_allowance):
                try:
                    reader(polygon, vertex)
                except DomainError:  # isotropy weights at a fake vertex or on a vertical edge
                    pass
                calls += 1
        assert hashes == [], (polygon, hashes[:3])
    assert calls > 1100


@pytest.mark.parametrize(
    "argv",
    [
        ["graph"],
        ["graph", "--format", "dot"],
        ["dh"],
        ["adaptable"],
        ["classify"],
        ["self-intersection", "--side", "left"],
        ["self-intersection", "--side", "right"],
    ],
)
def test_cli_queries_hash_nothing_after_load(corpus, tmp_path, monkeypatch, argv):
    # past the load, these queries read vertices and columns by position: no Point or Fraction is hashed
    from conftest import fuzz_derivatives

    side = argv[-1] if argv[0] == "self-intersection" else None
    paths, codes = [], []
    for i, polygon in enumerate(list(corpus.values()) + fuzz_derivatives(50)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(serialize_polygon(polygon))
        # exit 1 only where the side asked for has no vertical edge
        codes.append(1 if side and getattr(boundary_chains(polygon), f"{side}_vertical") is None else 0)
    hashes = []
    for cls in (Point, Fraction):
        monkeypatch.setattr(cls, "__hash__", lambda value, found=cls.__hash__: hashes.append(value) or found(value))
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda source: [load(source), hashes.clear()][0])
    for path, code in zip(paths, codes):
        hashes.append("not loaded")
        assert cli.run_cli([argv[0], str(path), *argv[1:]], io.StringIO(), io.StringIO()) == code
        assert hashes == [], (path.read_text(), hashes[:3])


def _count_dh_walks(monkeypatch) -> list:
    walks = []
    walk = PolygonFacts._slices.func
    counted = functools.cached_property(lambda facts: walks.append(1) or walk(facts))
    counted.__set_name__(PolygonFacts, "_slices")
    monkeypatch.setattr(PolygonFacts, "_slices", counted)
    return walks


def test_dh_walks_the_columns_once_per_query(corpus, tmp_path, monkeypatch):
    from conftest import focus_ladder

    walks = _count_dh_walks(monkeypatch)
    for polygon in (corpus["FF1"], corpus["NONADAPT3"], corpus["SQUARE"], focus_ladder([2, 1])):
        path = tmp_path / "polygon.json"
        path.write_text(serialize_polygon(polygon))
        assert "_slices" not in vars(semitoric.parse_polygon(path.read_text()).facts)  # loading never walks it
        walks.clear()
        assert cli.run_cli(["dh", str(path)], io.StringIO(), io.StringIO()) == 0
        assert len(walks) == 1, polygon


def test_mark_columns_bisect_once_per_chain(corpus, tmp_path, monkeypatch):
    # one walk along each chain finds every mark column's heights, tangents, orbit counts and chain slices
    import semitoric.analysis as analysis
    import semitoric.polygon as polygon_module
    from conftest import focus_ladder

    bisections = []
    for module in (polygon_module, analysis):
        monkeypatch.setattr(
            module, "bisect_left", lambda *args, found=module.bisect_left, **kw: bisections.append(1) or found(*args, **kw)
        )
    commands = (["adaptable"], ["switch-cut", "--index", "0"], ["presentations"], ["presentations", "--delzant-only"])
    # a mark of multiplicity 2: the Delzant listing sweeps its unit marks over the polygon's own walk
    doubled = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2)), (MarkedPoint(pt(1, Fraction(1, 2)), 2, -1),))
    queries = 0
    for polygon in list(corpus.values()) + [focus_ladder([1, 2, 1]), doubled]:
        path = tmp_path / "polygon.json"
        path.write_text(serialize_polygon(polygon))
        for command in commands if polygon.marks else commands[:1]:
            bisections.clear()
            assert cli.run_cli([command[0], str(path), *command[1:]], io.StringIO(), io.StringIO()) == 0
            assert len(bisections) <= 2, (polygon, command, len(bisections))
            queries += 1
    assert queries > 20


def _raised_twice(fn, *args):
    caught = []
    for _ in range(2):
        with pytest.raises(Exception) as info:
            fn(*args)
        caught.append(info.value)
    return caught


def test_stored_errors_are_raised_again():
    # a (1,2)-corner with no cuts matches no vertex class; the top edge is a
    # k = 2 run whose pole (0, 1) is unclassifiable
    bad = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1)))
    for fn, args in ((classify_vertex, (bad, pt(1, 0))), (zk_chains, (bad,))):
        first, second = _raised_twice(fn, *args)
        assert type(first) is type(second) is ClassificationError
        assert str(first) == str(second)
        assert first is not second  # a fresh copy each time, so tracebacks never pile up
        assert len(traceback.extract_tb(second.__traceback__)) == len(traceback.extract_tb(first.__traceback__))


def test_star_polygon_is_degenerate(tmp_path):
    # left turns only, but the boundary winds twice: its chains are not
    # x-monotone, which the sweep's left-to-right walk relies on
    star = SemitoricPolygon((pt(0, -1), pt(0, 1), pt(-1, -1), pt(0, 0), pt(-1, 0)))
    assert [v.rule for v in validate(star).violations] == ["not-strictly-convex"]
    path = tmp_path / "star.json"
    path.write_text(serialize_polygon(star))
    for command in ("validate", "dh"):
        assert cli.run_cli([command, str(path)], io.StringIO(), io.StringIO()) == 2


def test_copies_and_pickles_leave_the_facts_behind(corpus):
    polygon = corpus["FF1"]
    expected, report = zk_chains(polygon), validate(polygon)
    for copied in (pickle.loads(pickle.dumps(polygon)), copy.deepcopy(polygon)):
        assert copied == polygon and "_facts" not in copied.__dict__ and "_report" not in copied.__dict__
        assert validate(copied) == report
        assert zk_chains(copied) == expected


@pytest.mark.parametrize(
    "corners, rule",
    [
        ((pt(0, 0), pt(1, 0), pt(1, 0), pt(0, 1)), "duplicate-vertex"),
        ((pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)), "not-counter-clockwise"),
    ],
)
def test_validate_classifies_nothing_on_a_structural_violation(monkeypatch, corners, rule):
    calls = []
    # the vertex classes are made by classify_corners, and validation decides a doubtful vertex by lattice_class
    for name in ("classify_corners", "lattice_class"):
        monkeypatch.setattr(vertices, name, lambda *args, found=getattr(vertices, name): calls.append(args) or found(*args))
    polygon = SemitoricPolygon(corners, (MarkedPoint(pt(Fraction(1, 2), Fraction(1, 2))),))
    assert [v.rule for v in validate(polygon).violations] == [rule]
    assert calls == []


def test_failed_facts_are_not_kept(corpus):
    square = corpus["SQUARE"]
    clockwise = SemitoricPolygon(tuple(reversed(square.vertices)))
    ff1 = corpus["FF1"]
    # cuts of both signs ending at the right tip (2, 1), and a mark right of the polygon
    conflicting = SemitoricPolygon(ff1.vertices, (MarkedPoint(pt(2, 5), 1, 1), MarkedPoint(pt(2, 7), 1, -1)))
    outside = SemitoricPolygon(ff1.vertices, (MarkedPoint(pt(3, 0)),))
    unclassifiable = SemitoricPolygon((pt(0, 0), pt(1, 0), pt(2, 2), pt(0, 1)))
    cases = [
        (clockwise, "chains", GeometryError),
        (clockwise, "heights", GeometryError),
        (conflicting, "_degrees", ClassificationError),
        (outside, "_degrees", DomainError),
        (unclassifiable, "_poles", ClassificationError),
    ]
    for polygon, name, error in cases:
        facts = polygon.facts
        first, second = _raised_twice(getattr, facts, name)
        assert type(first) is type(second) is error and str(first) == str(second)
        assert name not in vars(facts)
    for name in ("chains", "heights", "_degrees", "_poles"):
        getattr(square.facts, name)
        assert name in vars(square.facts)


def test_a_failed_tally_is_not_redone_per_vertex(monkeypatch, corpus):
    calls = []
    tally = PolygonFacts._degrees.func
    counted = functools.cached_property(lambda facts: calls.append(facts) or tally(facts))
    counted.__set_name__(PolygonFacts, "_degrees")
    monkeypatch.setattr(PolygonFacts, "_degrees", counted)
    square = corpus["SQUARE"]
    inside = tuple(MarkedPoint(pt(Fraction(k, 4), Fraction(1, 2))) for k in (1, 2, 3))
    outside = SemitoricPolygon(square.vertices, inside + (MarkedPoint(pt(2, 0)),))
    # every frame of the clockwise square is sound, and its tally fails at the first mark, on the chains
    clockwise = SemitoricPolygon(tuple(reversed(square.vertices)), inside)
    for polygon, error, match in (
        (outside, DomainError, "outside the moment interval"),
        (clockwise, GeometryError, "degenerate polygon"),
    ):
        calls.clear()
        for vertex in polygon.vertices:
            with pytest.raises(error, match=match):
                classify_vertex(polygon, vertex)
        assert calls == [polygon.facts]  # one tally per polygon, not one per vertex


def test_no_module_level_caches():
    # a cache keyed on whole polygons keeps every polygon alive; facts live on the instance
    banned = {"cache", "lru_cache"}
    package = Path(semitoric.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not banned & {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
                assert node.attr not in banned, path.name


def test_cut_family_privates_stay_in_cuts():
    # the cut family's builder, column rule and their helpers have one home, beside the Delzant search and
    # listing that drive them: a test that patches them in cuts alone counts every call
    private = {"_local_verdict", "_turns", "_flip_cuts", "_counts", "_unit_marks", "_normal_shear"}
    package = Path(semitoric.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "cuts.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    assert not private & {alias.name for alias in node.names}, path.name


def test_no_sibling_import_inside_a_function():
    # a module imports its siblings at its top, or under TYPE_CHECKING when it names them in annotations alone,
    # so the direction of every import between them shows in the module headers
    package = Path(semitoric.__file__).parent
    for path in sorted(package.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{'.' * node.level}{node.module or ''}"]
                else:
                    names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
                for name in names:
                    assert not name.startswith((".", "semitoric")), (path.name, function.name, name)


def test_no_recursion():
    # deep input must not meet Python's recursion limit: no function calls itself by name
    package = Path(semitoric.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                        name = func.attr if func.value.id in ("self", "cls") else None  # a method of its own class
                    else:
                        name = func.id if isinstance(func, ast.Name) else None
                    assert name != node.name, f"{path.name}: {node.name} calls itself"
