"""Source-matched path pairs, their equivalence, and canonical representatives.

A pair (lam, mu) of nonzero-degree paths with a common source is *reduced*
(member of the set A) when no nonzero all-ones path can be split off the
bottom of both components at once; equivalently, when the bottom level
entry of one component differs from 1 or the component degrees have
pointwise minimum zero.

Appending a common all-ones path to both components generates an
equivalence on A whose classes are cut out by the two ranges and the two
level vectors; that 4-tuple is the ClassKey.  The members of a class differ
only in the shared source vertex, which ranges over the finitely many
lattice points s <= r(lam) meet r(mu) with the coordinate sum forced by the
key.  One member per class is chosen as the canonical representative: the
one with the lexicographically greatest source.  Any other choice would
work equally well; determinism is all that matters downstream.

This module alone makes that choice.  pair_kind, the pair test of the
rewriter and the word measure, builds no ClassKey: it reads both the A test
and the representative's source from the meet of the two ranges (see its
docstring).  pair_words builds the pair basis words of a window straight
from their class keys by the same rule.  rep_source and member_sources stay
the key-based definitions that representative and in_R use.  A different
choice of representative changes rep_source, pair_kind and pair_words
together, and nothing outside this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .freealg import Letter, Word, letter, pair_word
from .kgraph import Coords, Path, _path, degrees_upto, meet, norm, vsub

PathPair = tuple[Path, Path]


class PairError(ValueError):
    """A pair outside the domain required by an operation, or a class key
    with no valid member pair."""


@dataclass(frozen=True, slots=True)
class ClassKey:
    """Invariant of an equivalence class: component ranges and level vectors."""

    left_range: Coords
    right_range: Coords
    left_levels: Coords
    right_levels: Coords


def in_A(lam: Path, mu: Path) -> bool:
    """True iff the pair has no common trailing all-ones factor; PairError
    unless both paths have nonzero degree and a common source."""
    kind = pair_kind(*pair_word(lam, mu))
    if kind is None:
        raise PairError(f"not a same-source pair of nonzero degree: {lam}, {mu}")
    return kind != "unreduced"


def class_key(lam: Path, mu: Path) -> ClassKey:
    if not in_A(lam, mu):
        raise PairError("pair is not reduced (not in A)")
    return ClassKey(lam.range, mu.range, lam.levels, mu.levels)


def _key_shape(key: ClassKey) -> tuple[Coords, int]:
    """(meet of ranges, deficit) for the source candidates of a key."""
    if not key.left_levels or not key.right_levels:
        raise PairError("level vectors must be nonempty")
    t = norm(key.left_range) - len(key.left_levels)  # |s| for any member s
    if norm(key.right_range) - len(key.right_levels) != t:
        raise PairError("inconsistent source coordinate sums")
    c = meet(key.left_range, key.right_range)
    deficit = norm(c) - t
    if deficit < 0:
        raise PairError(f"no source vertex: need |s| = {t} below {c}")
    if deficit > 0 and key.left_levels[-1] == 1 and key.right_levels[-1] == 1:
        # every candidate pair would carry a common trailing all-ones factor
        raise PairError("all members of this key are non-reduced")
    return c, deficit


def rep_source(key: ClassKey) -> Coords:
    """Lexicographically greatest source: push the whole deficit onto the
    last coordinate."""
    c, deficit = _key_shape(key)
    return c[:-1] + (c[-1] - deficit,)


def member_sources(key: ClassKey) -> list[Coords]:
    """All valid member sources, lexicographically descending (first = rep)."""
    c, deficit = _key_shape(key)
    return sorted((vsub(c, t) for t in degrees_upto(len(c), deficit, deficit)),
                  reverse=True)


def pair_for_source(key: ClassKey, source: Coords) -> PathPair:
    """The member of the class with a source chosen by the caller, which is
    validated: KGraphError unless it lies below both ranges."""
    return (Path(key.left_range, source, key.left_levels),
            Path(key.right_range, source, key.right_levels))


def representative(key: ClassKey) -> PathPair:
    """The canonical member of the class with the given key.  rep_source
    lies below both ranges with the level counts the key fixes, so the pair
    is built unchecked."""
    s = rep_source(key)
    return (_path(key.left_range, s, key.left_levels),
            _path(key.right_range, s, key.right_levels))


def in_R(lam: Path, mu: Path) -> bool:
    """True iff the pair is the canonical representative of its class."""
    return lam.source == rep_source(class_key(lam, mu))


def pair_kind(x: Letter, y: Letter) -> str | None:
    """The one path-ghost pair test.  Classify the two-letter word x . y:
    None unless x is a path and y a ghost, both of nonzero degree with a
    common source; otherwise 'unreduced' (not in A), 'representative' (in R)
    or 'nonrep' (in A but not in R).

    Both tests read the meet c of the two ranges: c - s is the meet of the
    two degrees, and rep_source(key) is c lowered on its last coordinate
    only, with |s| fixed by the key, so s is the representative's source
    iff it agrees with c on every other coordinate."""
    (lam_r, s, lam_lv), x_ghost = x
    (mu_r, mu_s, mu_lv), y_ghost = y
    if x_ghost or not y_ghost or lam_r == s or s != mu_s:
        return None
    c = tuple(map(min, lam_r, mu_r))
    if c != s and lam_lv[-1] == 1 and mu_lv[-1] == 1:
        return "unreduced"
    return "representative" if c[:-1] == s[:-1] else "nonrep"


def pair_words(level: int, lefts: list[Coords], rights: list[Coords],
               bound: int, floor: int) -> list[Word]:
    """The pair basis words lam . mu*, one per class key (rl, rr, p, q)
    with rl in lefts, rr in rights, 1 <= |p|, |q| <= bound and a
    representative source whose last coordinate is at least floor, in key
    order: ranges, |p|, then the two level vectors.  The rule is
    rep_source's: c is the meet of the ranges, |s| = |rl| - |p|, and s is c
    lowered on its last coordinate by the deficit |c| - |s|.  A key with a
    positive deficit whose level vectors both end in 1 has no reduced
    member."""
    levels = range(1, level + 1)
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
