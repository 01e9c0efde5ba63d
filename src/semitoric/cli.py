"""Command-line surface.

Every subcommand takes a polygon source: a file path or ``corpus:NAME`` for
a bundled entry.  Exit codes: 0 success, 1 domain error (operation does not
apply), 2 parse/validation failure, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    adaptability,
    delzant_presentations,
    dh_function,
    dh_jump_report,
    self_intersection,
)
from .chop import corner_chop
from .corpus import corpus_get, corpus_names
from .cuts import enumerate_presentations, switch_cut
from .errors import (
    DomainError,
    GeometryError,
    ParseError,
    SemitoricError,
    ValidationFailure,
)
from .geometry import Point, format_rational, parse_rational
from .graph import build_graph, canonical_graph
from .polygon import SemitoricPolygon, require_valid
from .serialization import emit_dot, parse_polygon, serialize_polygon
from .vertices import classify_vertex, is_smooth_vertex

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INVALID = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise _UsageError(message)


def _load(source: str) -> SemitoricPolygon:
    """The validated polygon named by a file path or ``corpus:NAME``."""
    if source.startswith("corpus:"):
        return require_valid(corpus_get(source[len("corpus:") :]).polygon)
    try:
        with open(source, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from None
    return parse_polygon(text)


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"expected X,Y with rational components, got {text!r}")
    return Point(parse_rational(parts[0].strip()), parse_rational(parts[1].strip()))


def _build_parser() -> _Parser:
    parser = _Parser(prog="semitoric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="polygon file path or corpus:NAME")
        return cmd

    with_file("validate", "check a polygon file against every structural rule")
    with_file("classify", "per-vertex classification table")
    graph_cmd = with_file("graph", "emit the labeled directed graph of the circle action")
    graph_cmd.add_argument("--format", choices=("json", "dot"), default="json")
    with_file("dh", "Duistermaat-Heckman density and slope-jump report")
    with_file("adaptable", "decide whether the circle action extends to a torus action")
    switch_cmd = with_file("switch-cut", "flip one cut sign and print the reshaped polygon")
    switch_cmd.add_argument("--index", type=int, required=True)
    pres_cmd = with_file("presentations", "enumerate the cut-sign family")
    pres_cmd.add_argument("--delzant-only", action="store_true")
    si_cmd = with_file("self-intersection", "self-intersection of a fixed sphere")
    si_cmd.add_argument("--side", choices=("left", "right"), required=True)
    chop_cmd = with_file("chop", "blow up a Delzant vertex")
    chop_cmd.add_argument("--vertex", required=True, metavar="X,Y")
    chop_cmd.add_argument("--size", required=True, metavar="P/Q")

    corpus_cmd = sub.add_parser("corpus", help="bundled example polygons")
    corpus_sub = corpus_cmd.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    get_cmd = corpus_sub.add_parser("get")
    get_cmd.add_argument("name")
    return parser


def _cmd_validate(args, out) -> int:
    try:
        _load(args.file)
    except ValidationFailure as exc:
        for violation in exc.report.violations:
            print(f"violation {violation.rule} at {violation.location}: {violation.message}", file=out)
        return EXIT_INVALID
    print("valid", file=out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    polygon = _load(args.file)
    for vertex in polygon.vertices:
        c = classify_vertex(polygon, vertex)
        smooth = "yes" if is_smooth_vertex(polygon, vertex) else "no"
        print(f"{c} smooth={smooth}", file=out)
    return EXIT_OK


def _cmd_graph(args, out) -> int:
    graph = build_graph(_load(args.file))
    if args.format == "dot":
        out.write(emit_dot(graph))
    else:
        print(canonical_graph(graph), file=out)
    return EXIT_OK


def _cmd_dh(args, out) -> int:
    polygon = _load(args.file)
    density = dh_function(polygon)
    report = dh_jump_report(polygon)
    payload = {
        "breakpoints": [format_rational(x) for x in density.breakpoints],
        "values": [format_rational(v) for v in density.values],
        "jumps": [
            {
                "x": format_rational(e.x),
                "left_slope": format_rational(e.left_slope),
                "right_slope": format_rational(e.right_slope),
                "observed": format_rational(e.observed),
                "predicted": format_rational(e.predicted),
                "e_top": format_rational(e.e_top),
                "e_bottom": format_rational(e.e_bottom),
                "focus_multiplicity": e.focus_multiplicity,
                "consistent": e.consistent,
            }
            for e in report.entries
        ],
        "consistent": report.consistent,
    }
    print(json.dumps(payload, separators=(",", ":")), file=out)
    return EXIT_OK


def _cmd_adaptable(args, out) -> int:
    polygon = _load(args.file)
    verdict = adaptability(polygon)
    if verdict.adaptable:
        print("adaptable", file=out)
        for signs in verdict.delzant_signs:
            print(f"delzant presentation signs: {list(signs)}", file=out)
    else:
        print("non-adaptable", file=out)
        for x, counts in verdict.violating_levels:
            print(f"violating level x={format_rational(x)}: {counts}", file=out)
    return EXIT_OK


def _cmd_switch_cut(args, out) -> int:
    print(serialize_polygon(switch_cut(_load(args.file), args.index)), file=out)
    return EXIT_OK


def _cmd_presentations(args, out) -> int:
    polygon = _load(args.file)
    if args.delzant_only:
        rows = [
            {"polygon": json.loads(serialize_polygon(p))}
            for p in delzant_presentations(polygon)
        ]
    else:
        family = enumerate_presentations(polygon)
        rows = [
            {"signs": list(signs), "polygon": json.loads(serialize_polygon(member))}
            for signs, member in family.members
        ]
    print(json.dumps(rows, separators=(",", ":")), file=out)
    return EXIT_OK


def _cmd_self_intersection(args, out) -> int:
    print(self_intersection(_load(args.file), args.side), file=out)
    return EXIT_OK


def _cmd_chop(args, out) -> int:
    polygon = _load(args.file)
    vertex = _parse_point(args.vertex)
    size = parse_rational(args.size)
    print(serialize_polygon(corner_chop(polygon, vertex, size)), file=out)
    return EXIT_OK


def _cmd_corpus(args, out) -> int:
    if args.corpus_command == "list":
        for name in corpus_names():
            print(name, file=out)
        return EXIT_OK
    print(serialize_polygon(corpus_get(args.name).polygon), file=out)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "graph": _cmd_graph,
    "dh": _cmd_dh,
    "adaptable": _cmd_adaptable,
    "switch-cut": _cmd_switch_cut,
    "presentations": _cmd_presentations,
    "self-intersection": _cmd_self_intersection,
    "chop": _cmd_chop,
    "corpus": _cmd_corpus,
}


# built once per process: parsing keeps no state in the parser, and _Parser
# raises instead of exiting, so one instance serves every call
_PARSER = _build_parser()


def run_cli(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        _PARSER.print_usage(err)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, out)
    except (ParseError, ValidationFailure) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    except (DomainError, GeometryError, SemitoricError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
