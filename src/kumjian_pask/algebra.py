"""The Kumjian-Pask algebra of a standard k-graph as a quotient of the
free algebra: multiplication and star via normalization, basis-word
recognition, and windowed basis enumeration.

The basis consists of the vertices, the nonzero-degree paths, their
ghosts, and the products path * ghost over canonical representative pairs.
Since the vertex set is the whole lattice, every enumeration is restricted
to an explicit window and built from its paths (Window.paths).  Pair words
are the same-source path * ghost words over those paths that basis_shape
accepts, listed in class-key order.  A class contributes its word only
when its representative's source lies in the window, so pair counts are
window-relative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import canonical
from .freealg import Element, Word, letter, pair_word
from .kgraph import (Coords, KGraphError, Path, StandardKGraph, leq,
                     degrees_upto, vsub)
from .rewrite import normalize


@dataclass(frozen=True, slots=True)
class Window:
    """A box [lo, hi] of vertices plus a path-degree bound."""

    lo: Coords
    hi: Coords
    degree_bound: int

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise KGraphError("window corner dimension mismatch")
        if not leq(self.lo, self.hi):
            raise KGraphError(f"window {self.lo}..{self.hi} is empty")
        if self.degree_bound < 0:
            raise KGraphError("degree bound must be >= 0")

    @property
    def k(self) -> int:
        return len(self.lo)

    def contains(self, v: Coords) -> bool:
        return leq(self.lo, v) and leq(v, self.hi)

    def vertices(self) -> list[Coords]:
        """All lattice points of the box in lexicographic order."""
        return list(itertools.product(*(range(a, b + 1)
                                        for a, b in zip(self.lo, self.hi))))

    def degrees(self) -> list[Coords]:
        """The nonzero path degrees within the bound, ordered by (|n|, n)."""
        return degrees_upto(self.k, self.degree_bound, 1)

    def paths(self, graph: StandardKGraph) -> list[Path]:
        """Every path with both endpoints in the window and a degree from
        degrees(), ordered by range, then degree, then level vector.  The
        paths of one range and degree share their source, so a group is
        built only when that source is in the window."""
        degs = self.degrees()
        return [p for v in self.vertices() for n in degs
                if self.contains(vsub(v, n)) for p in graph.paths(v, n)]


def uniform_window(k: int, lo: int, hi: int, degree_bound: int) -> Window:
    return Window((lo,) * k, (hi,) * k, degree_bound)


def kp_mul(graph: StandardKGraph, x: Element, y: Element) -> Element:
    """Product in the quotient: normal form of the free product."""
    return normalize(graph, x * y)


def kp_star(graph: StandardKGraph, x: Element) -> Element:
    """Star in the quotient: normal form of the free-algebra star."""
    return normalize(graph, x.star())


def basis_shape(w: Word) -> str | None:
    """Classify a word as 'vertex', 'path', 'ghost', or 'pair'; None if the
    word is not a basis word."""
    if len(w) == 1:
        x = w[0]
        if x.path.is_vertex:
            return "vertex"
        return "ghost" if x.ghost else "path"
    if len(w) == 2 and canonical.pair_kind(*w) == "representative":
        return "pair"
    return None


def is_basis_word(w: Word) -> bool:
    return basis_shape(w) is not None


SHAPES = ("vertex", "path", "ghost", "pair")


def enumerate_basis(graph: StandardKGraph, window: Window,
                    shape: str = "all",
                    range_left: Coords | None = None,
                    range_right: Coords | None = None) -> list[Word]:
    """All basis words with endpoints in the window and degrees within the
    bound, in a deterministic order (vertices, paths, ghosts, pairs).

    range_left filters on the range of the single path (vertex itself for
    vertex words); range_right applies to the ghost component of pair words.
    """
    if window.k != graph.k:
        raise KGraphError("window dimension differs from graph rank")
    if shape != "all" and shape not in SHAPES:
        raise KGraphError(f"unknown shape {shape!r}")
    shapes = SHAPES if shape == "all" else (shape,)
    paths = window.paths(graph)
    lams = [p for p in paths if range_left in (None, p.range)]
    out: list[Word] = []
    if "vertex" in shapes:
        out.extend((letter(graph.vertex(v)),) for v in window.vertices()
                   if range_left in (None, v))
    if "path" in shapes:
        out.extend((letter(p),) for p in lams)
    if "ghost" in shapes:
        out.extend((letter(p, ghost=True),) for p in lams)
    if "pair" in shapes:
        mus: dict[Coords, list[Path]] = {}
        for p in paths:
            if range_right in (None, p.range):
                mus.setdefault(p.source, []).append(p)
        pairs = [w for lam in lams for mu in mus.get(lam.source, ())
                 if basis_shape(w := pair_word(lam, mu)) == "pair"]
        # class-key order (ranges, |lam|, level vectors); a key has one
        # representative, so no two words tie
        pairs.sort(key=lambda w: (w[0].path.range, w[1].path.range,
                                  len(w[0].path.levels), w[0].path.levels,
                                  w[1].path.levels))
        out.extend(pairs)
    return out
