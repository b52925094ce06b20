"""Standard k-graphs over the integer lattice.

Vertices are the points of Z^k.  For every pair of vertices v >= w
(pointwise) and every tuple in {1,...,l}^{|v-w|} there is exactly one path
from v down to w; the tuple is the path's *level vector*.  Composition
concatenates level vectors, the degree of a path is v - w, and degree-zero
paths are identified with the vertices themselves.

Level vectors are written (lv_n, ..., lv_1): the entry lv_1 closest to the
source is the last tuple component.  Tuples here keep that display order,
so "the bottom j entries" of a level vector lv is the slice lv[-j:] and
"the top j entries" is lv[:j].

Paths are tuples (range, source, levels), validated only by their public
constructors Path(...) and StandardKGraph.path; the builders here whose
output is a path by construction (compose, factorize, paths, s_set, ...)
skip the check.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from operator import add, le, sub

Coords = tuple[int, ...]


class KGraphError(ValueError):
    """Structural misuse of a lattice or path operation."""


class CompositionError(KGraphError):
    """Source/range mismatch in a path composition."""


class DegreeSplitError(KGraphError):
    """Requested degree split does not sum to the path degree."""


class ShapeError(KGraphError):
    """Inconsistent shape parameters for an S-set."""


# --------------------------------------------------------------------------
# Lattice operations on Z^k / N^k
# --------------------------------------------------------------------------

def _check_lengths(a: Coords, b: Coords) -> None:
    if len(a) != len(b):
        raise KGraphError(f"coordinate length mismatch: {len(a)} vs {len(b)}")


def join(a: Coords, b: Coords) -> Coords:
    """Pointwise maximum."""
    _check_lengths(a, b)
    return tuple(map(max, a, b))


def meet(a: Coords, b: Coords) -> Coords:
    """Pointwise minimum."""
    _check_lengths(a, b)
    return tuple(map(min, a, b))


def norm(a: Coords) -> int:
    """Coordinate sum |a|."""
    return sum(a)


def leq(a: Coords, b: Coords) -> bool:
    """Pointwise a <= b."""
    _check_lengths(a, b)
    return all(x <= y for x, y in zip(a, b))


def vadd(a: Coords, b: Coords) -> Coords:
    _check_lengths(a, b)
    return tuple(map(add, a, b))


def vsub(a: Coords, b: Coords) -> Coords:
    _check_lengths(a, b)
    return tuple(map(sub, a, b))


def monus(a: Coords, b: Coords) -> Coords:
    """Truncated subtraction (a - b) join 0."""
    _check_lengths(a, b)
    return tuple(x - y if x > y else 0 for x, y in zip(a, b))


def is_degree(a: Coords) -> bool:
    """True iff a lies in N^k."""
    return all(x >= 0 for x in a)


def degrees_upto(k: int, bound: int, min_norm: int = 0) -> list[Coords]:
    """All n in N^k with min_norm <= |n| <= bound, ordered by (|n|, n)."""
    if k == 0:
        return [()] if min_norm <= 0 <= bound else []
    # the first k - 1 coordinates with their sums, built one at a time within
    # the bound in lexicographic order; the last coordinate makes up |n|
    heads = [((), 0)]
    for _ in range(k - 1):
        heads = [(h + (c,), s + c) for h, s in heads
                 for c in range(bound - s + 1)]
    return [h + (t - s,) for t in range(max(min_norm, 0), bound + 1)
            for h, s in heads if s <= t]


# --------------------------------------------------------------------------
# Paths
# --------------------------------------------------------------------------

class Path(namedtuple("Path", "range source levels")):
    """A path of the standard k-graph: range vertex, source vertex, levels.

    ``levels`` is the level vector in display order (lv_n, ..., lv_1).  A
    path with empty levels is a vertex.  Entries are validated to be >= 1;
    the upper bound l is only known to a StandardKGraph and is enforced by
    its factories and by the parser.
    """

    __slots__ = ()

    def __new__(cls, range: Coords, source: Coords, levels: Coords) -> Path:
        self = tuple.__new__(cls, (range, source, levels))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        r, s, lv = self
        if len(r) != len(s):
            raise KGraphError("range/source dimension mismatch")
        if not all(map(le, s, r)):
            raise KGraphError(f"source {s} not <= range {r}")
        if len(lv) != sum(r) - sum(s):
            raise KGraphError(f"level vector has {len(lv)} entries, "
                              f"degree needs {sum(r) - sum(s)}")
        if lv and min(lv) < 1:
            raise KGraphError("level entries must be >= 1")

    @property
    def degree(self) -> Coords:
        # range and source have equal lengths, checked at construction
        return tuple(map(sub, self.range, self.source))

    @property
    def is_vertex(self) -> bool:
        return self.range == self.source


def _path(range_v: Coords, source_v: Coords, levels: Coords) -> Path:
    """A Path without validation, for builders whose output is a path by
    construction."""
    return tuple.__new__(Path, (range_v, source_v, levels))


def vertex(coords: Coords) -> Path:
    """The degree-zero path at a lattice point."""
    c = tuple(coords)
    return _path(c, c, ())


def compose(a: Path, b: Path) -> Path:
    """a following b: requires source(a) == range(b)."""
    if a.source != b.range:
        raise CompositionError(
            f"cannot compose: source {a.source} != range {b.range}")
    return _path(a.range, b.source, a.levels + b.levels)


def factorize(lam: Path, m: Coords, n: Coords) -> tuple[Path, Path]:
    """The unique split of lam into a degree-m path followed by a degree-n one."""
    if not (is_degree(m) and is_degree(n)):
        raise DegreeSplitError("split degrees must lie in N^k")
    if vadd(m, n) != lam.degree:
        raise DegreeSplitError(
            f"split {m} + {n} does not equal degree {lam.degree}")
    mid = vsub(lam.range, m)
    top = _path(lam.range, mid, lam.levels[:norm(m)])
    bottom = _path(mid, lam.source, lam.levels[norm(m):])
    return top, bottom


def levelvec_compatible(p: Coords, q: Coords) -> bool:
    """True iff the top min(|p|,|q|) entries of the two level vectors agree."""
    j = min(len(p), len(q))
    return p[:j] == q[:j]


def trailing_ones(levels: Coords) -> int:
    """Number of consecutive 1-entries at the bottom of a level vector."""
    count = 0
    for e in reversed(levels):
        if e != 1:
            break
        count += 1
    return count


# --------------------------------------------------------------------------
# The standard k-graph of a given level
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StandardKGraph:
    """Configuration (rank k, level l) with path factories and enumeration."""

    k: int
    level: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise KGraphError("rank k must be >= 1")
        if self.level < 1:
            raise KGraphError("level must be >= 1")

    def _check_coords(self, c: Coords) -> Coords:
        c = tuple(c)
        if len(c) != self.k:
            raise KGraphError(f"expected {self.k} coordinates, got {len(c)}")
        return c

    def _check_levels(self, levels: Coords) -> Coords:
        levels = tuple(levels)
        if not levels or (min(levels) >= 1 and max(levels) <= self.level):
            return levels
        # name the first entry out of range
        for e in levels:
            if not 1 <= e <= self.level:
                raise KGraphError(
                    f"level entry {e} out of range 1..{self.level}")
        return levels

    def vertex(self, coords: Coords) -> Path:
        return vertex(self._check_coords(coords))

    def path(self, range_v: Coords, source_v: Coords, levels: Coords) -> Path:
        """Validated path factory; levels in display order.  A valid path
        passes one quick test and is built unchecked.  On any fault the
        separate checks run in order (coordinate counts, level entries,
        then the Path checks), so the first fault is the one named."""
        r, s, lv = tuple(range_v), tuple(source_v), tuple(levels)
        if (len(r) == len(s) == self.k and all(map(le, s, r))
                and len(lv) == sum(r) - sum(s)
                and (not lv or (min(lv) >= 1 and max(lv) <= self.level))):
            return _path(r, s, lv)
        return Path(self._check_coords(r), self._check_coords(s),
                    self._check_levels(lv))

    def paths(self, v: Coords, n: Coords) -> list[Path]:
        """All paths of degree n with range v, in lexicographic level order.

        The order varies the bottom entry lv_1 fastest, so for l=2, |n|=2 it
        is (1,1), (1,2), (2,1), (2,2).  There are level**|n| paths.
        """
        v = self._check_coords(v)
        if not is_degree(n):
            raise KGraphError(f"degree {n} must lie in N^k")
        src = vsub(v, n)
        return [_path(v, src, lv)
                for lv in itertools.product(range(1, self.level + 1),
                                            repeat=norm(n))]

    def all_ones_path(self, v: Coords, n: Coords) -> Path:
        """The degree-n path from v with every level entry equal to 1."""
        v = self._check_coords(v)
        if not is_degree(n):
            raise KGraphError(f"degree {n} must lie in N^k")
        return _path(v, vsub(v, n), (1,) * norm(n))

    def s_set(self, v: Coords, w: Coords, m: Coords, n: Coords,
              p: Coords, q: Coords) -> list[tuple[Path, Path]]:
        """Pairs (alpha, beta) in vL^m x wL^n whose level vectors are p and q
        extended by a shared bottom tuple r, enumerated over all r.

        Requires |m| - |p| = |n| - |q| >= 0; the result has level**(|m|-|p|)
        pairs, in lexicographic order of r.
        """
        v, w = self._check_coords(v), self._check_coords(w)
        if not (is_degree(m) and is_degree(n)):
            raise ShapeError("degrees must lie in N^k")
        p, q = self._check_levels(p), self._check_levels(q)
        shared = norm(m) - len(p)
        if shared != norm(n) - len(q) or shared < 0:
            raise ShapeError(
                f"need |m|-|p| = |n|-|q| >= 0, got {norm(m)}-{len(p)} "
                f"and {norm(n)}-{len(q)}")
        return self._s_set(v, w, m, n, p, q)

    def _s_set(self, v: Coords, w: Coords, m: Coords, n: Coords,
               p: Coords, q: Coords) -> list[tuple[Path, Path]]:
        """s_set without its checks, for callers whose arguments are valid
        by construction (s_of and rule R4)."""
        alpha_src, beta_src = vsub(v, m), vsub(w, n)
        return [(_path(v, alpha_src, p + r), _path(w, beta_src, q + r))
                for r in itertools.product(range(1, self.level + 1),
                                           repeat=norm(m) - len(p))]

    def s_of(self, lam: Path, mu: Path) -> list[tuple[Path, Path]]:
        """All (alpha, beta) with lam o alpha = mu o beta of minimal degree
        d(lam) join d(mu).

        Empty when the level vectors are incompatible.  Components may be
        vertices (for lam = mu the single pair is (s(lam), s(lam))).
        """
        if lam.is_vertex or mu.is_vertex:
            raise KGraphError("s_of requires nonzero-degree paths")
        if lam.range != mu.range:
            raise KGraphError(
                f"s_of requires equal ranges, got {lam.range} and {mu.range}")
        if not levelvec_compatible(lam.levels, mu.levels):
            return []
        dl, dm = lam.degree, mu.degree
        excess_mu = len(mu.levels) - len(lam.levels)
        excess_lam = len(lam.levels) - len(mu.levels)
        p = mu.levels[-excess_mu:] if excess_mu > 0 else ()
        q = lam.levels[-excess_lam:] if excess_lam > 0 else ()
        return self._s_set(lam.source, mu.source, monus(dm, dl),
                           monus(dl, dm), p, q)
