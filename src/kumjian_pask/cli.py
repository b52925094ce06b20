"""Command-line front end.

    kpalg normalize --k 2 --level 2 "p[(1,1)->(0,1);2] . p[(1,1)->(0,1);2]*"
    kpalg mul --k 1 --level 2 "v(0)" "v(0)"
    kpalg star --k 2 --level 2 "p[(1,1)->(1,0);2]"
    kpalg basis --k 1 --level 2 --window -2..2 --degree-bound 1 --shape pair
    kpalg check all --k 2 --level 2 --seed 42 --cases 500

k and level are always explicit.  Element arguments starting with '@' are
read from the named file.  An element starting with '-' is read as an
option unless it follows a '--' separator: kpalg mul ... "v(0)" -- "-v(0)".
Exit status: 0 on success or passing checks, 1 on check failure, 2 on
usage errors (including malformed elements, unreadable element files and a
--case-index that names no case of the run), 141 (128 + SIGPIPE) when the
reader closes stdout early.
Integer flags, window bounds and the zmod:N modulus take ASCII digits
only, as the element grammar does.
Output is byte-reproducible from flags and seed; no environment variables
are consulted.

The argument parser is built once per process, on the first call of main,
and reused by every later call; parse_args keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import verify
from .algebra import SHAPES, Window, enumerate_basis
from .freealg import Element, ring_from_spec
from .kgraph import KGraphError, StandardKGraph, ascii_int
from .rewrite import TraceStep, normalize
from .syntax import (ElementSyntaxError, exact_decimal, format_element,
                     format_letter, format_word, parse_element)


class UsageError(Exception):
    pass


def _parse_window(text: str, k: int, degree_bound: int) -> Window:
    pieces = text.split(",")
    if len(pieces) == 1:
        pieces = pieces * k
    if len(pieces) != k:
        need = "1 range" if k == 1 else f"1 or {k} ranges"
        raise UsageError(f"window needs {need}, got {len(pieces)}")
    lo, hi = [], []
    for piece in pieces:
        try:
            a, b = map(ascii_int, piece.split(".."))
            lo.append(a)
            hi.append(b)
        except ValueError:  # also past int()'s digit limit
            raise UsageError(
                f"bad window range {piece!r}, expected lo..hi") from None
    try:
        return Window(tuple(lo), tuple(hi), degree_bound)
    except KGraphError as exc:
        raise UsageError(str(exc)) from None


def _parse_coords_flag(text: str, k: int, flag: str) -> tuple[int, ...]:
    try:
        coords = tuple(ascii_int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers") from None
    if len(coords) != k:
        raise UsageError(f"{flag} needs {k} coordinates, got {len(coords)}")
    return coords


def _element_arg(text: str, graph: StandardKGraph, ring) -> Element:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read element file: {exc}") from None
    try:
        return parse_element(text, graph, ring)
    except (ElementSyntaxError, KGraphError) as exc:
        raise UsageError(f"bad element: {exc}") from None


def _element_payload(elem: Element) -> dict:
    return {
        "ring": elem.ring.name,
        "terms": [{"coeff": exact_decimal(c),
                   "word": [format_letter(x) for x in w]}
                  for w, c in elem.sorted_terms()],
    }


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _print_element(elem: Element, fmt: str) -> None:
    if fmt == "structured":
        _print_json({"element": _element_payload(elem)})
    else:
        print(format_element(elem))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=ascii_int, required=True,
                        help="rank of the lattice (no default)")
    parser.add_argument("--level", type=ascii_int, required=True,
                        help="level of the standard k-graph (no default)")
    parser.add_argument("--ring", default="int",
                        help="coefficient ring: int or zmod:N (default int)")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output format (default text)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kpalg parser, built on the first call and shared by every later
    one: callers must not change it."""
    top = argparse.ArgumentParser(
        prog="kpalg",
        description="Kumjian-Pask algebra engine over standard k-graphs")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce an element to normal form")
    _add_common(p)
    p.add_argument("element")
    p.add_argument("--trace", action="store_true",
                   help="print one line per rewrite step (with --format "
                        "structured: a \"trace\" list in the JSON)")

    p = sub.add_parser("mul", help="multiply two elements in the quotient")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("star", help="star of an element in the quotient")
    _add_common(p)
    p.add_argument("element")

    p = sub.add_parser("basis", help="enumerate basis words in a window")
    _add_common(p)
    p.add_argument("--window", default="-2..2",
                   help="vertex box lo..hi, uniform or per-coordinate "
                        "(default -2..2)")
    p.add_argument("--degree-bound", type=ascii_int, default=2,
                   help="max |degree| of enumerated paths (default 2)")
    p.add_argument("--shape", default="all", choices=("all", *SHAPES))
    p.add_argument("--range-left", default=None,
                   help="filter: range of the (left) path, comma-separated")
    p.add_argument("--range-right", default=None,
                   help="filter: range of the right (ghost) path of a pair")

    p = sub.add_parser("check", help="run verification suites")
    _add_common(p)
    p.add_argument("which", choices=(*verify.CHECKS, "kp", "all"))
    p.add_argument("--seed", type=ascii_int, default=0,
                   help="base seed (default 0)")
    p.add_argument("--cases", type=ascii_int, default=100,
                   help="cases per randomized check (default 100)")
    p.add_argument("--window", default="-3..3",
                   help="sampling window (default -3..3)")
    p.add_argument("--degree-bound", type=ascii_int, default=3,
                   help="sampling degree bound (default 3); the samplers "
                        "draw degrees up to min(bound, 3), and kp caps path "
                        "degrees at min(bound, 2)")
    p.add_argument("--case-index", type=ascii_int, default=None,
                   help="run only the case with this index, which must be "
                        "a case of the run (for reproduction)")
    return top


def _run(args: argparse.Namespace) -> int:
    try:
        graph = StandardKGraph(args.k, args.level)
        ring = ring_from_spec(args.ring)
    except (KGraphError, ValueError) as exc:
        raise UsageError(str(exc)) from None

    if args.command == "normalize":
        elem = _element_arg(args.element, graph, ring)
        steps: list[dict] = []

        def trace(step: TraceStep) -> None:
            if args.format == "structured":
                steps.append({"rule": step.rule.value, "pos": step.pos + 1,
                              "measure": list(step.measure)})
            else:
                print(f"rule={step.rule.value} pos={step.pos + 1} "
                      f"measure=({','.join(map(str, step.measure))})")
        result = normalize(graph, elem, trace=trace if args.trace else None)
        if args.trace and args.format == "structured":
            # one JSON document: the steps ride along with the element
            _print_json({"element": _element_payload(result),
                         "trace": steps})
        else:
            _print_element(result, args.format)
        return 0

    if args.command == "mul":
        left = _element_arg(args.left, graph, ring)
        right = _element_arg(args.right, graph, ring)
        _print_element(normalize(graph, left * right), args.format)
        return 0

    if args.command == "star":
        elem = _element_arg(args.element, graph, ring)
        _print_element(normalize(graph, elem.star()), args.format)
        return 0

    if args.command == "basis":
        window = _parse_window(args.window, graph.k, args.degree_bound)
        range_left = (None if args.range_left is None else
                      _parse_coords_flag(args.range_left, graph.k, "--range-left"))
        range_right = (None if args.range_right is None else
                       _parse_coords_flag(args.range_right, graph.k, "--range-right"))
        words = enumerate_basis(graph, window, shape=args.shape,
                                range_left=range_left, range_right=range_right)
        if args.format == "structured":
            _print_json({"words": [format_word(w) for w in words]})
        elif words:
            print("\n".join(map(format_word, words)))
        return 0

    # check
    if args.cases < 0:
        raise UsageError(f"--cases must be >= 0, got {args.cases}")
    if args.case_index is not None and args.case_index < 0:
        raise UsageError(f"--case-index must be >= 0, got {args.case_index}")
    window = _parse_window(args.window, graph.k, args.degree_bound)
    if args.which == "all":
        reports = verify.run_all(graph, args.seed, args.cases, window, ring,
                                 args.case_index)
    elif args.which == "kp":
        reports = [verify.check_kp_relations(graph, window, ring,
                                             args.case_index)]
    else:
        reports = [verify.CHECKS[args.which](graph, args.seed, args.cases,
                                             window, ring, args.case_index)]
    if args.format == "structured":
        _print_json({"reports": [r.as_dict() for r in reports]})
    else:
        for r in reports:
            for line in r.text_lines():
                print(line)
            for f in r.failures:
                print(f"repro: kpalg check {r.name} --k {args.k} "
                      f"--level {args.level} --ring {ring.name} "
                      f"--seed {args.seed} --cases {args.cases} "
                      f"--case-index {f.index} "
                      f"--window {''.join(args.window.split())} "
                      f"--degree-bound {args.degree_bound}")
    return 0 if all(r.passed for r in reports) else 1


_DASH_VALUE_FLAGS = {"--window", "--range-left", "--range-right"}


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join flags with values that begin with '-' (e.g. --window -2..2) so
    argparse does not mistake the value for an option."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _DASH_VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(_merge_dash_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except (UsageError, verify.CaseIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (kpalg ... | head).  Point stdout at
        # devnull so that the flush at shutdown does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
