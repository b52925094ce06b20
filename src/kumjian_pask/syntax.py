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

import re
from decimal import Decimal

from .freealg import Element, Letter, Ring, Word, letter
from .kgraph import KGraphError, Path, StandardKGraph


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


def format_coords(c) -> str:
    return "(" + ",".join(str(x) for x in c) + ")"


def format_path(p: Path) -> str:
    if p.is_vertex:
        return "v" + format_coords(p.range)
    return ("p[" + format_coords(p.range) + "->" + format_coords(p.source)
            + ";" + ",".join(str(e) for e in p.levels) + "]")


def format_letter(x: Letter) -> str:
    return format_path(x.path) + ("*" if x.ghost else "")


def format_word(w: Word) -> str:
    return " . ".join(format_letter(x) for x in w)


def format_element(e: Element) -> str:
    if e.is_zero():
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


def _ints(text: str, pos: int) -> tuple[int, ...]:
    """The comma-separated integers in text; pos is the error position."""
    try:
        return tuple(int(x.strip()) for x in text.split(","))
    except ValueError as exc:  # more digits than int() will convert
        raise ElementSyntaxError(pos, str(exc)) from None


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
        try:
            if m["vertex"] is not None:
                path = graph.vertex(_ints(m["vertex"], pos))
            else:
                path = graph.path(_ints(m["range"], pos),
                                  _ints(m["source"], pos),
                                  _ints(m["levels"], pos))
        except KGraphError as exc:
            raise ElementSyntaxError(pos, str(exc)) from None
        # letter drops the star of a vertex: vertices are self-adjoint
        letters.append(letter(path, ghost=m["star"] is not None))
        pos = m.end()
        if not text.startswith(".", pos):
            return tuple(letters), pos
        pos += 1


def parse_word(text: str, graph: StandardKGraph) -> Word:
    w, pos = _parse_word(text, 0, graph)
    if pos < len(text):
        raise ElementSyntaxError(pos, "trailing input after word")
    return w


def parse_element(text: str, graph: StandardKGraph, ring: Ring) -> Element:
    """Parse the shared element grammar; '0' denotes the zero element."""
    pos = _SPACE.match(text).end()
    if pos == len(text):
        raise ElementSyntaxError(0, "empty input")
    if text.strip() == "0":
        return Element.zero(ring)
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
