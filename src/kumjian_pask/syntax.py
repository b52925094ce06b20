"""Shared text syntax for paths, words, and elements.

Grammar:

    element  := '0' | ['-'] term (('+' | '-') term)*
    term     := [integer '*'] word
    word     := generator ('.' generator)*
    generator:= vertex ['*'] | path ['*']
    vertex   := 'v' coords
    path     := 'p' '[' coords '->' coords ';' integer (',' integer)* ']'
    coords   := '(' integer (',' integer)* ')'
    integer  := ['+' | '-'] digit+      (ASCII digits 0-9, no space after the sign)

Whitespace may separate any two tokens, even the '-' and '>' of the arrow.
'0' is the zero element only as the whole input, and the star of a vertex
is ignored (vertices are self-adjoint).  The position of an
ElementSyntaxError names the first character of the generator, coefficient
or operator that fails, not the exact character inside it.

Level entries in a path are written top first, e.g. p[(1,1)->(0,0);2,1].
Printing is canonical: terms sorted by the word order, coefficients always
explicit, separators ' + ', ' * ', and ' . '.  parse(format(x)) == x and
format(parse(t)) reproduces any canonically formatted t byte for byte.
Coefficients are exact at any size; coordinates keep int()'s digit limit.
"""

from __future__ import annotations

import functools
import re
from decimal import Decimal

from .freealg import Element, Letter, Ring, Word, letter
from .kgraph import Path, StandardKGraph


class ElementSyntaxError(ValueError):
    """Malformed element text; message carries the character position."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------

def exact_decimal(x: int | str) -> str | int:
    """An int as decimal text, or decimal text as an int, at any size: str()
    and int() have a digit limit, Decimal converts both ways without it."""
    convert = str if isinstance(x, int) else int
    try:
        return convert(x)
    except ValueError:
        return convert(Decimal(x))


@functools.cache
def _template(k: int, n: int) -> str:
    """The format string of a path with k coordinates and n level entries;
    a vertex's (n = 0) names only its range."""
    coords = ",".join(["{}"] * k)
    if n == 0:
        return "v(" + coords + ")"
    return "p[(" + coords + ")->(" + coords + ");" + ",".join(["{}"] * n) + "]"


def format_path(p: Path) -> str:
    r, s, lv = p
    # str.format ignores the source coordinates a vertex template leaves out
    return _template(len(r), len(lv)).format(*r, *s, *lv)


def format_letter(x: Letter) -> str:
    p, ghost = x
    return format_path(p) + ("*" if ghost else "")


def format_word(w: Word) -> str:
    return " . ".join(map(format_letter, w))


def format_element(e: Element) -> str:
    if not e:
        return "0"
    return " + ".join(f"{exact_decimal(c)} * {format_word(w)}"
                      for w, c in e.sorted_terms())


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_INTS = r"[+-]?[0-9]+ (?: \s*,\s* [+-]?[0-9]+ )*"
# A whole generator with its optional star and the space after it.
_GENERATOR = re.compile(rf"""
    (?: v \s* \( \s* (?P<vertex> {_INTS}) \s* \)
      | p \s* \[ \s* \( \s* (?P<range> {_INTS}) \s* \) \s* - \s* >
          \s* \( \s* (?P<source> {_INTS}) \s* \)
          \s* ; \s* (?P<levels> {_INTS}) \s* \] )
    \s* (?P<star> \* )? \s*""", re.VERBOSE)
# An integer opening a term; group 2 is None when no '*' follows it.
_COEFF = re.compile(r"([+-]?[0-9]+)\s*(\*)?")
_SPACE = re.compile(r"\s*")


def _ints(text: str) -> tuple[int, ...]:
    """The comma-separated integers in text.  int() drops the space around
    each entry itself, so it is tried first.  The fallback strips each entry
    with str.strip: that and the patterns' whitespace include U+001C..U+001F,
    int() does not.  An integer beyond int()'s digit limit fails both ways
    and raises from the fallback."""
    parts = text.split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        return tuple(map(int, map(str.strip, parts)))


def _parse_word(text: str, pos: int,
                graph: StandardKGraph) -> tuple[Word, int]:
    """The word starting at pos, and the first non-space position after it."""
    letters = []
    while True:
        pos = _SPACE.match(text, pos).end()
        m = _GENERATOR.match(text, pos)
        if m is None:
            raise ElementSyntaxError(pos, "expected a generator: v(coords) "
                                          "or p[(coords)->(coords);levels]")
        vertex, range_v, source_v, levels, star = m.groups()
        try:
            if vertex is not None:
                path = graph.vertex(_ints(vertex))
            else:
                path = graph.path(_ints(range_v), _ints(source_v),
                                  _ints(levels))
        # a KGraphError, or an integer of more digits than int() converts
        except ValueError as exc:
            raise ElementSyntaxError(pos, str(exc)) from None
        # letter drops the star of a vertex: vertices are self-adjoint
        letters.append(letter(path, ghost=star is not None))
        pos = m.end()
        if not text.startswith(".", pos):
            return tuple(letters), pos
        pos += 1


def parse_element(text: str, graph: StandardKGraph, ring: Ring) -> Element:
    """Parse the shared element grammar; '0' denotes the zero element."""
    pos = _SPACE.match(text).end()
    if pos == len(text):
        raise ElementSyntaxError(0, "empty input")
    if text.strip() == "0":
        return Element(ring)
    terms: list[tuple[Word, int]] = []
    sign = 1
    if text[pos] == "-":
        sign, pos = -1, pos + 1
    while True:
        pos = _SPACE.match(text, pos).end()
        c, coeff = 1, _COEFF.match(text, pos)
        if coeff is not None:
            if coeff[2] is None:
                raise ElementSyntaxError(pos, "expected '*' after coefficient")
            c, pos = exact_decimal(coeff[1]), coeff.end()
        w, pos = _parse_word(text, pos, graph)
        terms.append((w, sign * c))
        if pos == len(text):
            return Element.from_terms(ring, terms)
        if text[pos] not in "+-":
            raise ElementSyntaxError(pos, "expected '+' or '-'")
        sign = 1 if text[pos] == "+" else -1
        pos += 1
