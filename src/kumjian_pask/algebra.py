"""Windows of the vertex lattice, basis-word recognition, and windowed
basis enumeration for the Kumjian-Pask algebra of a standard k-graph.
Its product and star are those of the free algebra followed by
rewrite.normalize.

The basis consists of the vertices, the nonzero-degree paths, their
ghosts, and the products path * ghost over canonical representative pairs.
Since the vertex set is the whole lattice, every enumeration is restricted
to an explicit window.  Path and ghost words are built from the window's
paths (Window.paths).  Each pair word is built from its class key, in key
order: the two ranges and the level vectors fix the representative's
source (canonical.rep_source).  A class contributes its word only when
that source lies in the window, so pair counts are window-relative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import canonical
from .freealg import Word, letter
from .kgraph import (Coords, KGraphError, Path, StandardKGraph, _path,
                     degrees_upto, leq, meet, vsub)


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
    """
    window.of_rank(graph.k)
    if shape != "all" and shape not in SHAPES:
        raise KGraphError(f"unknown shape {shape!r}")
    shapes = SHAPES if shape == "all" else (shape,)
    out: list[Word] = []
    if "vertex" in shapes:
        out.extend((letter(graph.vertex(v)),) for v in window.vertices()
                   if range_left in (None, v))
    if "path" in shapes or "ghost" in shapes:
        lams = [p for p in window.paths(graph)
                if range_left in (None, p.range)]
        if "path" in shapes:
            out.extend((letter(p),) for p in lams)
        if "ghost" in shapes:
            out.extend((letter(p, ghost=True),) for p in lams)
    if "pair" in shapes:
        out.extend(_pair_words(graph, window, range_left, range_right))
    return out


def _pair_words(graph: StandardKGraph, window: Window,
                range_left: Coords | None,
                range_right: Coords | None) -> list[Word]:
    """One word lam . mu* per class key (rl, rr, p, q) with both ranges in
    the window, 1 <= |p|, |q| <= the bound and a representative source s in
    the window, in key order.  The rule is rep_source's: c is the meet of
    the ranges, |s| = |rl| - |p|, and s is c lowered on its last coordinate
    by the deficit |c| - |s|.  A key with a positive deficit whose level
    vectors both end in 1 has no reduced member."""
    verts = window.vertices()
    lefts = [v for v in verts if range_left in (None, v)]
    rights = [v for v in verts if range_right in (None, v)]
    levels = range(1, graph.level + 1)
    bound, floor = window.degree_bound, window.lo[-1]
    out: list[Word] = []
    for rl in lefts:
        for rr in rights:
            c = meet(rl, rr)
            for a in range(1, bound + 1):
                b = a + sum(rr) - sum(rl)
                deficit = sum(c) - sum(rl) + a
                if (not 1 <= b <= bound or deficit < 0
                        or c[-1] - deficit < floor):
                    continue
                s = c[:-1] + (c[-1] - deficit,)
                lams = [letter(_path(rl, s, p))
                        for p in itertools.product(levels, repeat=a)]
                mus = [letter(_path(rr, s, q), ghost=True)
                       for q in itertools.product(levels, repeat=b)]
                words = itertools.product(lams, mus)
                if deficit > 0:
                    words = (w for w in words if w[0].path.levels[-1] != 1
                             or w[1].path.levels[-1] != 1)
                out.extend(words)
    return out
