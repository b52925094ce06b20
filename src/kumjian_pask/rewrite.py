"""Reduction of free-algebra elements to their basis normal form.

Five rewrite rules act on adjacent letter pairs:

  R1_COMPOSE         compose two path letters, or two ghost letters, and
                     absorb vertices (covers vertex idempotency);
  R2_ORTHO           kill any pair whose inner vertices disagree;
  R3_GHOST_PATH      expand ghost * path into the sum over the matching
                     pair set of minimal common extensions;
  R4_EXPAND          rewrite a path/ghost pair carrying a common trailing
                     all-ones factor of degree n via the vertex expansion
                     identity (an S-set sum over degree-n extensions);
  R5_REPRESENTATIVE  replace a reduced but non-canonical path/ghost pair by
                     the canonical representative of its class.

find_redex scans left to right; at one position the applicable rule is
unique, with the nominal priority R2 > R1 > R3 > R5 > R4.  For R4 the
default instance is n = e_i with i the first coordinate where the degree
meet is positive; other valid instances are exposed through all_redexes for
confluence testing.

Every rewrite strictly decreases the word measure

  (length, entropy, degree value, 1-level value, non-representative count)

in lexicographic order, which forces termination; apply_rule checks the
decrease at runtime and raises OrderingViolation on any counterexample
(that would be an implementation bug, not a property of the system).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import canonical
from .freealg import Element, Ring, Word, letter, pair_word, word_key
from .kgraph import (Coords, Path, StandardKGraph, _path, compose,
                     degrees_upto, leq, trailing_ones, vadd)


class RewriteFault(RuntimeError):
    """An internal invariant of the rewrite engine failed."""


class OrderingViolation(RewriteFault):
    """A rewrite produced a word that is not strictly smaller."""


class TerminationFault(RewriteFault):
    """The step guard was exhausted before reaching a normal form."""


class RuleId(enum.Enum):
    R1_COMPOSE = "R1_COMPOSE"
    R2_ORTHO = "R2_ORTHO"
    R3_GHOST_PATH = "R3_GHOST_PATH"
    R4_EXPAND = "R4_EXPAND"
    R5_REPRESENTATIVE = "R5_REPRESENTATIVE"


@dataclass(frozen=True, slots=True)
class RedexMatch:
    """A rule instance at a word position (pos indexes the left letter,
    0-based).  R4 carries the expansion degree."""

    rule: RuleId
    pos: int
    expand_degree: Optional[Coords] = None


class WordMeasure(NamedTuple):
    length: int
    entropy: int
    degree_value: int
    one_level_value: int
    ar_value: int


class TraceStep(NamedTuple):
    """One rewrite: the rule, its position, the measure of the rewritten
    word, and the measures of all words it produced."""

    rule: RuleId
    pos: int
    measure: WordMeasure
    produced: tuple[WordMeasure, ...]


def word_measure(w: Word) -> WordMeasure:
    """The measure; entropy, degree value and 1-level value count only the
    nonzero non-ghost path letters."""
    entropy = degree_value = one_level_value = ar_value = 0
    for i, ((r, s, levels), ghost) in enumerate(w, 1):
        if not ghost and r != s:
            entropy += i
            degree_value += len(levels)
            one_level_value += levels.count(1)
    for x, y in zip(w, w[1:]):
        if canonical.pair_kind(x, y) == "nonrep":
            ar_value += 1
    return WordMeasure(len(w), entropy, degree_value, one_level_value, ar_value)


def valid_expansions(lam: Path, mu: Path) -> list[Coords]:
    """All degrees n for which both paths end in the all-ones path of
    degree n, ordered by (|n|, n): 0 < n <= d(lam) meet d(mu), with |n|
    within the common trailing run of 1-entries."""
    cap = tuple(map(min, lam.degree, mu.degree))
    run = min(trailing_ones(lam.levels), trailing_ones(mu.levels))
    return [n for n in degrees_upto(len(cap), run, 1) if leq(n, cap)]


def match_at(w: Word, pos: int) -> Optional[RedexMatch]:
    """The rule instance applying to the letter pair at pos, if any."""
    (xr, xs, _), x_ghost = x = w[pos]
    (yr, ys, _), y_ghost = y = w[pos + 1]
    # the inner vertex of x against the outer vertex of y
    if (xr if x_ghost else xs) != (ys if y_ghost else yr):
        return RedexMatch(RuleId.R2_ORTHO, pos)
    # same tag, or a vertex on either side (vertex letters are never ghosts)
    if x_ghost == y_ghost or xr == xs or yr == ys:
        return RedexMatch(RuleId.R1_COMPOSE, pos)
    if x_ghost:
        # ghost * path, both of nonzero degree, equal ranges
        return RedexMatch(RuleId.R3_GHOST_PATH, pos)
    # path * ghost, both of nonzero degree, equal sources
    kind = canonical.pair_kind(x, y)
    if kind == "representative":
        return None
    if kind == "nonrep":
        return RedexMatch(RuleId.R5_REPRESENTATIVE, pos)
    # R4 at e_i, i the first coordinate where both degrees are positive
    i = next(j for j, (a, b, s) in enumerate(zip(xr, yr, xs)) if min(a, b) > s)
    n = (0,) * i + (1,) + (0,) * (len(xs) - i - 1)
    return RedexMatch(RuleId.R4_EXPAND, pos, expand_degree=n)


def find_redex(w: Word) -> Optional[RedexMatch]:
    """Leftmost matching position; None iff the word is irreducible."""
    for pos in range(len(w) - 1):
        m = match_at(w, pos)
        if m is not None:
            return m
    return None


def all_redexes(w: Word) -> list[RedexMatch]:
    """Every rule instance on the word, including all R4 expansion degrees."""
    out = []
    for pos in range(len(w) - 1):
        m = match_at(w, pos)
        if m is None:
            continue
        if m.rule is RuleId.R4_EXPAND:
            x, y = w[pos], w[pos + 1]
            out.extend(RedexMatch(RuleId.R4_EXPAND, pos, expand_degree=n)
                       for n in valid_expansions(x.path, y.path))
        else:
            out.append(m)
    return out


def _rhs_words(graph: StandardKGraph, w: Word, m: RedexMatch) -> list[tuple[Word, int]]:
    """The replacement words with signs, context letters preserved."""
    pos = m.pos
    x, y = w[pos], w[pos + 1]
    left, right = w[:pos], w[pos + 2:]

    def pair(a: Path, b: Path) -> Word:
        return left + pair_word(a, b) + right

    if m.rule is RuleId.R2_ORTHO:
        return []
    if m.rule is RuleId.R1_COMPOSE:
        if not x.ghost and not y.ghost:
            merged = letter(compose(x.path, y.path))
        else:
            merged = letter(compose(y.path, x.path), ghost=True)
        return [(left + (merged,) + right, 1)]
    if m.rule is RuleId.R3_GHOST_PATH:
        return [(pair(a, b), 1) for a, b in graph.s_of(x.path, y.path)]
    if m.rule is RuleId.R5_REPRESENTATIVE:
        # apply_rule has re-derived the match, so the pair is in A
        key = canonical.ClassKey(x.path.range, y.path.range,
                                 x.path.levels, y.path.levels)
        return [(pair(*canonical.representative(key)), 1)]
    # R4: strip the all-ones factor of degree n (apply_rule has checked n),
    # keeping the top factors factorize would split off, and expand over the
    # S-set of the stripped pair, whose first member is the all-ones
    # extension (_s_set enumerates the shared bottom tuple lexicographically)
    n = m.expand_degree
    (xr, xs, xlv), (yr, ys, ylv), j = x.path, y.path, sum(n)
    lam = _path(xr, vadd(xs, n), xlv[:-j])
    mu = _path(yr, vadd(ys, n), ylv[:-j])
    ext = graph._s_set(xr, yr, x.path.degree, y.path.degree, lam.levels,
                       mu.levels)
    return [(pair(lam, mu), 1)] + [(pair(a, b), -1) for a, b in ext[1:]]


def apply_rule(graph: StandardKGraph, ring: Ring, w: Word, m: RedexMatch,
               measure=None) -> Element:
    """Apply one rule instance to a word; checks the measure decrease."""
    derived = match_at(w, m.pos)
    if derived is None or derived.rule is not m.rule:
        raise RewriteFault(
            f"match {m.rule} at pos {m.pos} does not apply to the word")
    # match_at's own R4 degree is valid by construction; another is checked
    if m != derived and m.expand_degree not in valid_expansions(
            w[m.pos].path, w[m.pos + 1].path):
        raise RewriteFault(f"invalid R4 expansion degree {m.expand_degree}")
    measure = measure or word_measure
    before = measure(w)
    rhs = _rhs_words(graph, w, m)
    for w2, _ in rhs:
        if not measure(w2) < before:
            raise OrderingViolation(
                f"{m.rule.value} produced a word of measure "
                f"{measure(w2)} from {before}")
    return Element.from_terms(ring, rhs)


STEP_GUARD = 10 ** 6


class _Cache(dict):
    """fn's value per word, computed on the first lookup: cache[w] is fn(w).
    It is made per normalize call, and costs about a sixth of a
    functools.cache to make, which counts in check's thousands of tiny
    normalizations."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __missing__(self, w: Word):
        value = self[w] = self.fn(w)
        return value


class _Max(NamedTuple):
    """A heap entry; heapq pops the entry of largest key first."""
    key: tuple[WordMeasure, tuple]
    word: Word

    def __lt__(self, other: _Max) -> bool:
        return other.key < self.key


def normalize(graph: StandardKGraph, elem: Element, *,
              trace: Optional[Callable[[TraceStep], None]] = None) -> Element:
    """Fixed point of the reduction system on every term of an element.

    Deterministic strategy: repeatedly rewrite the pending word of largest
    measure (ties broken by the word order) at its leftmost redex, popped
    from a max-heap with lazy deletion.  The input words are pushed.  A
    produced word that is not pending is first classified by find_redex:
    an irreducible one goes straight into the result and is never keyed
    or pushed, and a reducible one is pushed when it enters pending.  An
    entry whose word has cancelled away is skipped.  A popped word never
    returns, as every produced word measures less than its parent.

    Each word is classified once and measured once, through per-call
    caches (_Cache) of find_redex and word_measure.  A popped word's redex
    is the one found when it was produced, or, for an input word, when it
    is popped; apply_rule's decrease check and the trace read the same
    measures.  The system is confluent, so every strategy reaches this
    normal form; the tests check that against their reference scheduler,
    which picks words and redexes at random.

    Raises TerminationFault if more than STEP_GUARD single-word rewrites
    are needed (unreachable for a correct engine); the guard is read once
    per call.
    """
    ring = elem.ring
    pending = dict(elem.terms)
    done: dict[Word, int] = {}
    measure = _Cache(word_measure).__getitem__
    redex = _Cache(find_redex).__getitem__
    # a sorted list is a heap
    heap = sorted(_Max((measure(w), word_key(w)), w) for w in pending)
    steps, step_guard = 0, STEP_GUARD
    while pending:
        w = heapq.heappop(heap).word
        c = pending.pop(w, None)
        if c is None:
            continue
        m = redex(w)
        if m is None:
            ring.add_into(done, w, c)
            continue
        steps += 1
        if steps > step_guard:
            raise TerminationFault(f"step guard {step_guard} exhausted")
        piece = apply_rule(graph, ring, w, m, measure)
        if trace is not None:
            trace(TraceStep(m.rule, m.pos, measure(w),
                            tuple(measure(w2) for w2 in piece.terms)))
        for w2, c2 in piece.terms.items():
            if w2 not in pending and redex(w2) is None:
                ring.add_into(done, w2, c * c2)
                continue
            size = len(pending)
            ring.add_into(pending, w2, c * c2)
            if len(pending) > size:
                heapq.heappush(heap, _Max((measure(w2), word_key(w2)), w2))
    return Element(ring, done)
