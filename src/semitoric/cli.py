"""Command-line surface.

Every subcommand takes a polygon source: a file path or ``corpus:NAME`` for
a bundled entry.  Exit codes: 0 success, 1 domain error (operation does not
apply), 2 parse/validation failure, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import _jumps, adaptability, self_intersection
from .chop import corner_chop
from .corpus import corpus_get, corpus_names
from .cuts import _distinct_delzant, enumerate_presentations, switch_cut
from .errors import DomainError, ParseError, SemitoricError, ValidationFailure
from .geometry import Point, _pair_text, format_rational, parse_rational
from .graph import build_graph, canonical_graph
from .polygon import SemitoricPolygon, require_valid
from .serialization import emit_dot, parse_polygon, polygon_data, serialize_polygon
from .vertices import _class_at, is_smooth_class

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INVALID = 2
EXIT_USAGE = 64
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps(row, separators=...) builds one for every row


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise _UsageError(message)

    def print_help(self, file=None):  # -h: run_cli writes the text to its own `out`
        raise _HelpRequested(self.format_help())


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


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:  # the parser, and each subcommand's by name
    parser = _Parser(prog="semitoric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name, help_text, handler):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="polygon file path or corpus:NAME")
        cmd.set_defaults(handler=handler)
        return cmd

    with_file("validate", "check a polygon file against every structural rule", _cmd_validate)
    with_file("classify", "per-vertex classification table", _cmd_classify)
    graph_cmd = with_file("graph", "emit the labeled directed graph of the circle action", _cmd_graph)
    graph_cmd.add_argument("--format", choices=("json", "dot"), default="json")
    with_file("dh", "Duistermaat-Heckman density and slope-jump report", _cmd_dh)
    with_file("adaptable", "decide whether the circle action extends to a torus action", _cmd_adaptable)
    switch_cmd = with_file("switch-cut", "flip one cut sign and print the reshaped polygon", _cmd_switch_cut)
    switch_cmd.add_argument("--index", type=int, required=True)
    pres_cmd = with_file("presentations", "enumerate the cut-sign family", _cmd_presentations)
    pres_cmd.add_argument("--delzant-only", action="store_true")
    si_cmd = with_file("self-intersection", "self-intersection of a fixed sphere", _cmd_self_intersection)
    si_cmd.add_argument("--side", choices=("left", "right"), required=True)
    chop_cmd = with_file("chop", "blow up a Delzant vertex", _cmd_chop)
    chop_cmd.add_argument("--vertex", required=True, metavar="X,Y")
    chop_cmd.add_argument("--size", required=True, metavar="P/Q")

    corpus_cmd = sub.add_parser("corpus", help="bundled example polygons")
    corpus_cmd.set_defaults(handler=_cmd_corpus)
    corpus_sub = corpus_cmd.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    get_cmd = corpus_sub.add_parser("get")
    get_cmd.add_argument("name")
    return parser, sub.choices


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
    facts = _load(args.file).facts
    for i in range(len(facts.vertices)):
        c = _class_at(facts, i)  # by position: a valid polygon's classes hold no error
        smooth = "yes" if is_smooth_class(c) else "no"
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
    # the bytes of json.dumps(document, separators=(",", ":")), from the DH pass's integer pairs, before one write
    facts = _load(args.file).facts
    slices, rows, jumps, consistent = facts._slices, _jumps(facts), [], True
    slopes = [_pair_text(*row[1]) for row in rows[:1]] + [_pair_text(*row[2]) for row in rows]
    for k, (i, _, _, observed, predicted, e_top, e_bottom, marks_here) in enumerate(rows):
        agree = observed == predicted  # reduced pairs, denominators positive: equal exactly when the values are
        consistent &= agree
        jumps.append(f'{{"x":"{_pair_text(*slices[i][:2])}","left_slope":"{slopes[k]}","right_slope":"{slopes[k + 1]}",'
                     f'"observed":"{_pair_text(*observed)}","predicted":"{_pair_text(*predicted)}",'
                     f'"e_top":"{_pair_text(*e_top)}","e_bottom":"{_pair_text(*e_bottom)}",'
                     f'"focus_multiplicity":{marks_here},"consistent":{"true" if agree else "false"}}}')
    breakpoints = ",".join(f'"{_pair_text(p, q)}"' for p, q, *_ in slices)
    values = ",".join(f'"{_pair_text(n, d)}"' for _, _, n, d, *_ in slices)
    out.write(f'{{"breakpoints":[{breakpoints}],"values":[{values}],"jumps":[{",".join(jumps)}],'
              f'"consistent":{"true" if consistent else "false"}}}\n')
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
    if args.delzant_only:  # each member is built as its row is written, and none is kept
        rows = ({"polygon": polygon_data(p)} for p in _distinct_delzant(polygon))
    else:
        members = enumerate_presentations(polygon).members
        rows = ({"signs": list(signs), "polygon": polygon_data(member)} for signs, member in members)
    # the bytes of json.dumps(list(rows), separators=(",", ":")), written as each row is built
    out.write("[")
    for i, row in enumerate(rows):
        out.write("," * (i > 0) + _ROW_ENCODER.encode(row))
    out.write("]\n")
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


# built once per process: parsing keeps no state in the parser, and _Parser
# raises instead of exiting, so one instance serves every call
_PARSER, _COMMANDS = _build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, handing argv whose first token names a subcommand straight to its subparser."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:  # -h, no argument or an unknown first token
        return _PARSER.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run_cli(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        _PARSER.print_usage(err)
        return EXIT_USAGE
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    try:
        return args.handler(args, out)
    except (ParseError, ValidationFailure) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    except SemitoricError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DOMAIN


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # the reader left early (say, `| head`), silently as Python does on EPIPE,
        # or stdout refused the output (say, a full disk): point stdout at devnull
        # so the flush at interpreter exit cannot fail again
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_DOMAIN)
    sys.exit(code)


if __name__ == "__main__":
    main()
