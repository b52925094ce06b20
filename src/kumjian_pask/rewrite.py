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
from .freealg import Element, Letter, Ring, Word, letter, pair_word, word_key
from .kgraph import (Coords, Path, StandardKGraph, compose, degrees_upto,
                     factorize, is_degree, leq, meet, norm, trailing_ones,
                     vsub)


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


def _active(x: Letter) -> bool:
    """Letters that count for entropy/degree/1-level: nonzero non-ghost paths."""
    return not x.ghost and not x.path.is_vertex


def word_measure(w: Word) -> WordMeasure:
    entropy = degree_value = one_level_value = ar_value = 0
    for i, x in enumerate(w):
        if _active(x):
            entropy += i + 1
            degree_value += len(x.path.levels)
            one_level_value += sum(1 for e in x.path.levels if e == 1)
    for x, y in zip(w, w[1:]):
        if (not x.ghost and y.ghost
                and canonical.pair_kind(x.path, y.path) == "nonrep"):
            ar_value += 1
    return WordMeasure(len(w), entropy, degree_value, one_level_value, ar_value)


def _inner(x: Letter) -> Coords:
    """The vertex a letter presents to its right neighbour."""
    return x.path.range if x.ghost else x.path.source


def _outer(y: Letter) -> Coords:
    """The vertex a letter presents to its left neighbour."""
    return y.path.source if y.ghost else y.path.range


def _expansion_bounds(lam: Path, mu: Path) -> tuple[Coords, int]:
    """Both paths end in the all-ones path of degree n exactly when
    0 < n <= d(lam) meet d(mu) and |n| is within the common trailing run of
    1-entries; returns that meet and that run."""
    return (meet(lam.degree, mu.degree),
            min(trailing_ones(lam.levels), trailing_ones(mu.levels)))


def valid_expansions(lam: Path, mu: Path) -> list[Coords]:
    """All degrees n for which both paths end in the all-ones path of
    degree n, ordered by (|n|, n)."""
    cap, run = _expansion_bounds(lam, mu)
    return [n for n in degrees_upto(len(cap), run, 1) if leq(n, cap)]


def is_valid_expansion(lam: Path, mu: Path, n: Coords) -> bool:
    """n in valid_expansions(lam, mu), decided without listing them."""
    cap, run = _expansion_bounds(lam, mu)
    return (len(n) == len(cap) and is_degree(n) and 0 < norm(n) <= run
            and leq(n, cap))


def match_at(w: Word, pos: int) -> Optional[RedexMatch]:
    """The rule instance applying to the letter pair at pos, if any."""
    x, y = w[pos], w[pos + 1]
    if _inner(x) != _outer(y):
        return RedexMatch(RuleId.R2_ORTHO, pos)
    # same tag, or a vertex on either side (vertex letters are never ghosts)
    if x.ghost == y.ghost or x.path.is_vertex or y.path.is_vertex:
        return RedexMatch(RuleId.R1_COMPOSE, pos)
    if x.ghost:
        # ghost * path, both of nonzero degree, equal ranges
        return RedexMatch(RuleId.R3_GHOST_PATH, pos)
    # path * ghost, both of nonzero degree, equal sources
    kind = canonical.pair_kind(x.path, y.path)
    if kind == "representative":
        return None
    if kind == "nonrep":
        return RedexMatch(RuleId.R5_REPRESENTATIVE, pos)
    dd = meet(x.path.degree, y.path.degree)
    i = next(j for j, c in enumerate(dd) if c > 0)
    n = tuple(1 if j == i else 0 for j in range(len(dd)))
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
        lam, mu = canonical.representative(canonical.class_key(x.path, y.path))
        return [(pair(lam, mu), 1)]
    # R4: strip the all-ones factor of degree n and expand over the S-set of
    # the stripped pair, whose first member is the all-ones extension (s_set
    # enumerates the shared bottom tuple lexicographically)
    n = m.expand_degree
    if n is None or not is_valid_expansion(x.path, y.path, n):
        raise RewriteFault(f"invalid R4 expansion degree {n}")
    lam = factorize(x.path, vsub(x.path.degree, n), n)[0]
    mu = factorize(y.path, vsub(y.path.degree, n), n)[0]
    ext = graph.s_set(x.path.range, y.path.range, x.path.degree,
                      y.path.degree, lam.levels, mu.levels)
    return [(pair(lam, mu), 1)] + [(pair(a, b), -1) for a, b in ext[1:]]


def apply_rule(graph: StandardKGraph, ring: Ring, w: Word, m: RedexMatch,
               measure=None) -> Element:
    """Apply one rule instance to a word; checks the measure decrease."""
    derived = match_at(w, m.pos)
    if derived is None or derived.rule is not m.rule:
        raise RewriteFault(
            f"match {m.rule} at pos {m.pos} does not apply to the word")
    measure = measure or word_measure
    before = measure(w)
    rhs = _rhs_words(graph, w, m)
    for w2, _ in rhs:
        if not measure(w2) < before:
            raise OrderingViolation(
                f"{m.rule.value} produced a word of measure "
                f"{measure(w2)} from {before}")
    return Element.from_terms(ring, rhs)


DEFAULT_STEP_GUARD = 10 ** 6


class _Max(NamedTuple):
    """A heap entry; heapq pops the entry of largest key first."""
    key: tuple[WordMeasure, tuple]
    word: Word

    def __lt__(self, other: _Max) -> bool:
        return other.key < self.key


def normalize(graph: StandardKGraph, elem: Element, *,
              step_guard: int = DEFAULT_STEP_GUARD,
              trace: Optional[Callable[[TraceStep], None]] = None,
              rng=None) -> Element:
    """Fixed point of the reduction system on every term of an element.

    Deterministic strategy: repeatedly rewrite the pending word of largest
    measure (ties broken by the word order) at its leftmost redex, popped
    from a max-heap with lazy deletion: a word is pushed when it enters
    pending, and an entry whose word has cancelled away is skipped.  A
    popped word never returns, as every produced word measures less than
    its parent.  Each word is measured once.  If rng is given, both the word
    and the redex (including the R4 expansion degree) are chosen at random
    instead, without a heap; the normal form is the same.

    Raises TerminationFault if more than step_guard single-word rewrites
    are needed (unreachable for a correct engine).
    """
    ring = elem.ring
    pending = dict(elem.terms)
    done: dict[Word, int] = {}
    keys: dict[Word, tuple[WordMeasure, tuple]] = {}

    def mkey(w: Word) -> tuple[WordMeasure, tuple]:
        r = keys.get(w)
        if r is None:
            r = keys[w] = (word_measure(w), word_key(w))
        return r

    def measure(w: Word) -> WordMeasure:
        return mkey(w)[0]

    # a sorted list is a heap
    heap = sorted(_Max(mkey(w), w) for w in pending) if rng is None else None
    steps = 0
    while pending:
        if heap is None:
            w = rng.choice(sorted(pending, key=mkey))
        else:
            w = heapq.heappop(heap).word
        c = pending.pop(w, None)
        if c is None:
            continue
        m = find_redex(w) if rng is None else _random_redex(w, rng)
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
            size = len(pending)
            ring.add_into(pending, w2, c * c2)
            if heap is not None and len(pending) > size:
                heapq.heappush(heap, _Max(mkey(w2), w2))
    return Element(ring, done)


def _random_redex(w: Word, rng) -> Optional[RedexMatch]:
    matches = all_redexes(w)
    if not matches:
        return None
    return rng.choice(matches)
