"""Shared text syntax for paths, words, and elements.

Grammar (whitespace between tokens is ignored):

    element  := '0' | ['-'] term (('+' | '-') term)*
    term     := [integer '*'] word
    word     := generator ('.' generator)*
    generator:= vertex ['*'] | path ['*']
    vertex   := 'v' coords
    path     := 'p' '[' coords '->' coords ';' integer (',' integer)* ']'
    coords   := '(' integer (',' integer)* ')'

Level entries in a path are written top first, e.g. p[(1,1)->(0,0);2,1].
Printing is canonical: terms sorted by the word order, coefficients always
explicit, separators ' + ', ' * ', and ' . '.  parse(format(x)) == x and
format(parse(t)) reproduces any canonically formatted t byte for byte.
"""

from __future__ import annotations

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
    return " + ".join(f"{c} * {format_word(w)}"
                      for w, c in e.sorted_terms())


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ElementSyntaxError(self.pos, f"expected {token!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise ElementSyntaxError(start, "expected an integer")
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_coords(sc: _Scanner) -> tuple[int, ...]:
    sc.expect("(")
    out = [sc.integer()]
    while sc.take(","):
        out.append(sc.integer())
    sc.expect(")")
    return tuple(out)


def _parse_generator(sc: _Scanner, graph: StandardKGraph) -> Letter:
    sc.skip_ws()
    start = sc.pos
    head = sc.peek()
    if head == "v":
        sc.pos += 1
        coords = _parse_coords(sc)
        try:
            path = graph.vertex(coords)
        except KGraphError as exc:
            raise ElementSyntaxError(start, str(exc)) from None
        sc.take("*")  # vertices are self-adjoint
        return letter(path)
    if head == "p":
        sc.pos += 1
        sc.expect("[")
        range_v = _parse_coords(sc)
        sc.expect("-")
        sc.expect(">")
        source_v = _parse_coords(sc)
        sc.expect(";")
        levels = [sc.integer()]
        while sc.take(","):
            levels.append(sc.integer())
        sc.expect("]")
        try:
            path = graph.path(range_v, source_v, tuple(levels))
        except KGraphError as exc:
            raise ElementSyntaxError(start, str(exc)) from None
        if path.is_vertex:
            raise ElementSyntaxError(start, "path form requires nonzero degree")
        return letter(path, ghost=sc.take("*"))
    raise ElementSyntaxError(sc.pos, "expected a generator ('v' or 'p')")


def parse_word(text: str, graph: StandardKGraph) -> Word:
    sc = _Scanner(text)
    w = _parse_word(sc, graph)
    if not sc.at_end():
        raise ElementSyntaxError(sc.pos, "trailing input after word")
    return w


def _parse_word(sc: _Scanner, graph: StandardKGraph) -> Word:
    letters = [_parse_generator(sc, graph)]
    while sc.take("."):
        letters.append(_parse_generator(sc, graph))
    return tuple(letters)


def _parse_term(sc: _Scanner, graph: StandardKGraph) -> tuple[Word, int]:
    sc.skip_ws()
    mark = sc.pos
    coeff = 1
    if sc.peek() in "+-0123456789":
        try:
            value = sc.integer()
        except ElementSyntaxError:
            value = None
        if value is not None:
            if sc.take("*"):
                coeff = value
            else:
                sc.pos = mark
                raise ElementSyntaxError(sc.pos,
                                         "expected '*' after coefficient")
    return _parse_word(sc, graph), coeff


def parse_element(text: str, graph: StandardKGraph, ring: Ring) -> Element:
    """Parse the shared element grammar; '0' denotes the zero element."""
    sc = _Scanner(text)
    if sc.at_end():
        raise ElementSyntaxError(0, "empty input")
    stripped = text.strip()
    if stripped == "0":
        return Element.zero(ring)
    terms: list[tuple[Word, int]] = []
    sign = -1 if sc.take("-") else 1
    w, c = _parse_term(sc, graph)
    terms.append((w, sign * c))
    while not sc.at_end():
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            raise ElementSyntaxError(sc.pos, "expected '+' or '-'")
        w, c = _parse_term(sc, graph)
        terms.append((w, sign * c))
    return Element.from_terms(ring, terms)
