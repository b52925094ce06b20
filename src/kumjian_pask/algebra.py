"""Windows of the vertex lattice and windowed basis enumeration for the
Kumjian-Pask algebra of a standard k-graph.

The basis consists of the vertices, the nonzero-degree paths, their
ghosts, and the products path * ghost over canonical representative pairs.
Since the vertex set is the whole lattice, every enumeration is restricted
to an explicit window.  Path and ghost words are built from the window's
paths (Window.paths).  The pair words come from canonical.pair_words,
which owns the choice of representative: this module hands it the ranges
in the window, the degree bound and the window's floor on the last
coordinate, so pair counts are window-relative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import canonical
from .freealg import Word, letter
from .kgraph import (Coords, KGraphError, Path, StandardKGraph,
                     degrees_upto, leq, vsub)


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

    def of_rank(self, k: int) -> Window:
        """This window; KGraphError unless it has k coordinates."""
        if self.k != k:
            raise KGraphError("window dimension differs from graph rank")
        return self

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


SHAPES = ("vertex", "path", "ghost", "pair")


def enumerate_basis(graph: StandardKGraph, window: Window,
                    shape: str = "all",
                    range_left: Coords | None = None,
                    range_right: Coords | None = None) -> list[Word]:
    """All basis words with endpoints in the window and degrees within the
    bound, in a deterministic order (vertices, paths, ghosts, pairs).  Each
    pair word is built from its class key, in key order: ranges, |lam|,
    then the two level vectors.

    range_left filters on the range of the single path (vertex itself for
    vertex words); range_right applies to the ghost component of pair words.
    KGraphError unless each given filter has k coordinates.
    """
    window.of_rank(graph.k)
    if shape != "all" and shape not in SHAPES:
        raise KGraphError(f"unknown shape {shape!r}")
    if range_left is not None:
        range_left = graph._check_coords(range_left)
    if range_right is not None:
        range_right = graph._check_coords(range_right)
    shapes = SHAPES if shape == "all" else (shape,)
    verts = window.vertices()
    lefts = [v for v in verts if range_left in (None, v)]
    out: list[Word] = []
    if "vertex" in shapes:
        out.extend((letter(graph.vertex(v)),) for v in lefts)
    if "path" in shapes or "ghost" in shapes:
        lams = [p for p in window.paths(graph)
                if range_left in (None, p.range)]
        if "path" in shapes:
            out.extend((letter(p),) for p in lams)
        if "ghost" in shapes:
            out.extend((letter(p, ghost=True),) for p in lams)
    if "pair" in shapes:
        out.extend(canonical.pair_words(
            graph.level, lefts, [v for v in verts if range_right in (None, v)],
            window.degree_bound, window.lo[-1]))
    return out
