"""Executable checks of the algebra's defining identities and empirical
confluence of the reduction system.

Every case is one or more relations: elements, the words of one side with
coefficient +1 and those of the other with -1, that must normalize to 0.
normalize rewrites each word on its own and merges coefficients linearly,
so NF(lhs - rhs) = 0 exactly when NF(lhs) = NF(rhs).  No sampler draws a
relation that is 0 before rewriting, except lemma8 on k = 1 or level 1.
Element equality is exact; there are no tolerances.

One runner, _decide, decides every check.  A check is a sequence of units
(count, shared, case), whose cases are numbered from 0 unit by unit.
shared() gives the (label, relation) pairs that decide all count cases at
once, or shared is None; case(pairs, j) gives case j's seed and pairs.  A
unit without shared pairs, or whose shared pairs fail, is decided case by
case, so failure indices and inputs are exact.  A case_index reruns one
case, found from the counts with nothing else built or drawn; an index that
no unit holds raises CaseIndexError.  A randomized sampler is one unit, its
case j drawn from its own RNG seeded by "<seed>:<name>:<j>", so any failure
is reproducible from the report alone.  check_kp_relations is exhaustive
over a window: _kp_shapes yields its units, one per shape, a family's
relation anchored at the origin whose cases are its translates in the
window.  Translating by any t in Z^k is an automorphism of the standard
k-graph, and NF(x + t) = NF(x) + t (the equivariance property in the
tests), so a shape decides all its translates at once.

Confluence is sampled by critical pairs: each case draws a chained
3-letter word until all_redexes finds at least two competing rule
instances on it; applying each instance (every R4 expansion degree
included) gives a branch, and branch - word is a relation.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product
from math import prod

from . import canonical
from .freealg import (Element, IntegerRing, Letter, Ring, Word, letter,
                      pair_word)
from .kgraph import (Coords, Path, StandardKGraph, compose, degrees_upto,
                     join, leq, meet, norm, vadd, vsub)
from .rewrite import all_redexes, apply_rule, normalize
from .algebra import Window, uniform_window
from .syntax import format_element


@dataclass
class CaseFailure:
    index: int
    seed: str
    input: str
    detail: str


@dataclass
class CheckReport:
    name: str
    cases: int
    seed: int
    failures: list[CaseFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def text_lines(self) -> list[str]:
        lines = [f"name={self.name} cases={self.cases} "
                 f"failures={len(self.failures)} seed={self.seed}"]
        for f in self.failures:
            lines.append(f"failure index={f.index} seed={f.seed} "
                         f"input={f.input} detail={f.detail}")
        return lines

    def as_dict(self) -> dict:
        doc = asdict(self)
        del doc["elapsed"]
        return doc


def _case_rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _default_window(graph: StandardKGraph,
                    window: Window | None) -> Window:
    return (uniform_window(graph.k, -3, 3, 3) if window is None
            else window.of_rank(graph.k))


def _rand_vertex(rng: random.Random, window: Window) -> Coords:
    return tuple(rng.randint(a, b) for a, b in zip(window.lo, window.hi))


def _rand_levels(rng: random.Random, graph: StandardKGraph,
                 count: int) -> Coords:
    return tuple(rng.randint(1, graph.level) for _ in range(count))


def _rand_path(rng: random.Random, graph: StandardKGraph, window: Window,
               hi_norm: int | None = None,
               range_v: Coords | None = None,
               source_v: Coords | None = None) -> Path:
    hi = window.degree_bound if hi_norm is None else hi_norm
    n = rng.choice(degrees_upto(graph.k, hi))
    if range_v is not None:
        r = range_v
    elif source_v is not None:
        r = vadd(source_v, n)
    else:
        r = _rand_vertex(rng, window)
    return Path(r, vsub(r, n), _rand_levels(rng, graph, norm(n)))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------

def _relation(ring: Ring, plus: list[Word], minus: list[Word]) -> Element:
    """The sum of the plus words minus the sum of the minus words."""
    return Element.from_terms(ring, [*((w, 1) for w in plus),
                                     *((w, -1) for w in minus)])


class CaseIndexError(ValueError):
    """A case index that names no case of the run."""


def _decide(name, seed, graph, units, case_index=None) -> CheckReport:
    """The report over units, (count, shared, case) tuples.  A unit's count
    cases are numbered on from the unit before; a count below 0 raises
    ValueError.  shared() gives the (label, relation) pairs that decide
    them all at once, or shared is None; case(pairs, j), given those pairs
    or None, gives case j's seed and its own pairs.  A case fails at its
    first relation that does not normalize to 0; a unit without shared
    pairs, or whose shared pairs fail, is decided case by case.  With
    case_index the units before the one holding it are skipped by their
    counts and only that case is decided."""
    report = CheckReport(name, 0, seed)
    start = time.perf_counter()

    def passes(pairs, index=None, case_seed=None):
        """Whether every relation of pairs normalizes to 0; the first that
        does not is recorded as case index's failure, if index is given."""
        for label, relation in pairs:
            result = normalize(graph, relation)
            if result:
                if index is not None:
                    report.failures.append(CaseFailure(
                        index, case_seed, format_element(relation),
                        f"{label} normal form {format_element(result)} "
                        f"is not 0"))
                return False
        return True

    for count, shared, case in units:
        if count < 0:
            raise ValueError(f"{name} cases must be >= 0, got {count}")
        first = report.cases
        report.cases += count
        if case_index is None:
            js = range(count)
        elif first <= case_index < report.cases:
            report.cases, js = 1, [case_index - first]
        else:
            continue
        pairs = None if shared is None else shared()
        if case_index is None and pairs is not None and passes(pairs):
            continue
        for j in js:
            case_seed, case_pairs = case(pairs, j)
            passes(case_pairs, first + j, case_seed)
        if case_index is not None:
            break
    else:
        if case_index is not None:
            raise CaseIndexError(f"case index {case_index} names no case "
                                 f"of this {name} run")
    report.elapsed = time.perf_counter() - start
    return report


def _run_cases(name, graph, seed, cases, window, ring, case_index, body):
    """Decide one unit of cases that share nothing: body(rng, graph,
    window, ring), called with case j's own RNG only when case j is
    decided, returns an iterable of the case's (label, relation) pairs.
    The body's window caps the degree bound at 3."""
    window = _default_window(graph, window)
    window = Window(window.lo, window.hi, min(window.degree_bound, 3))
    ring = ring if ring is not None else IntegerRing()

    def case(_, j):
        return (f"{seed}:{name}:{j}",
                body(_case_rng(seed, name, j), graph, window, ring))

    return _decide(name, seed, graph, [(cases, None, case)], case_index)


def check_lemma3(graph: StandardKGraph, seed: int, cases: int,
                 window: Window | None = None, ring: Ring | None = None,
                 case_index: int | None = None) -> CheckReport:
    """ghost(lam) * mu equals the sum of alpha beta* over all common
    extensions of any fixed degree q >= d(lam) join d(mu), with the sum built
    by joining the alphas and betas on compose(lam, alpha) ==
    compose(mu, beta), not from s_of.  q is never 0, where both sides are
    v . v."""

    def body(rng, graph, window, ring):
        v = _rand_vertex(rng, window)
        lam = _rand_path(rng, graph, window, range_v=v)
        mu = _rand_path(rng, graph, window, range_v=v)
        j = join(lam.degree, mu.degree)
        q = vadd(j, rng.choice(degrees_upto(graph.k, 1, 0 if any(j) else 1)))
        # distinct betas give distinct mu . beta: at most one beta per alpha
        betas = {compose(mu, beta): beta
                 for beta in graph.paths(mu.source, vsub(q, mu.degree))}
        common = [pair_word(alpha, betas[ext])
                  for alpha in graph.paths(lam.source, vsub(q, lam.degree))
                  if (ext := compose(lam, alpha)) in betas]
        return [(f"lemma3 q={q}", _relation(
            ring, [(letter(lam, ghost=True), letter(mu))], common))]

    return _run_cases("lemma3", graph, seed, cases, window, ring,
                      case_index, body)


def _rand_reduced_pair(rng: random.Random, graph: StandardKGraph,
                       window: Window) -> canonical.PathPair:
    """A reduced pair with a common source.  At level 1 that forces degrees
    with disjoint supports (so k >= 2); at higher levels the degrees meet,
    so that with k >= 2 the class has two or more members, and a trailing
    level entry other than 1 is forced."""
    degs = degrees_upto(graph.k, window.degree_bound, 1)
    if graph.level == 1:
        dl = rng.choice([d for d in degs if 0 in d])
        dr = rng.choice([d for d in degs if not any(meet(dl, d))])
    else:
        dl = rng.choice(degs)
        dr = rng.choice([d for d in degs if any(meet(dl, d))])
    lvl = list(_rand_levels(rng, graph, norm(dl)))
    lvr = list(_rand_levels(rng, graph, norm(dr)))
    if any(meet(dl, dr)) and lvl[-1] == 1 and lvr[-1] == 1:
        (lvl if rng.random() < 0.5 else lvr)[-1] = rng.randint(2, graph.level)
    s = _rand_vertex(rng, window)
    return (Path(vadd(s, dl), s, tuple(lvl)), Path(vadd(s, dr), s, tuple(lvr)))


def check_lemma8(graph: StandardKGraph, seed: int, cases: int,
                 window: Window | None = None, ring: Ring | None = None,
                 case_index: int | None = None) -> CheckReport:
    """Two members of one equivalence class have equal pair words in the
    quotient.  With k = level = 1, or with degree bound 0, there is no
    reduced pair to sample and the report has no cases.  With k = 1 or
    level 1 every class has a single member, so each relation is 0; those
    cases still count, because the check_all workload of bench/ expects 40
    lemma8 cases on k = 1, level 2, and has to change first."""
    if (graph.k == graph.level == 1
            or _default_window(graph, window).degree_bound == 0):
        cases = min(cases, 0)

    def body(rng, graph, window, ring):
        key = canonical.class_key(*_rand_reduced_pair(rng, graph, window))
        sources = canonical.member_sources(key)
        s1, s2 = rng.sample(sources, 2) if len(sources) >= 2 else sources * 2
        a, b = ([pair_word(*canonical.pair_for_source(key, s))]
                for s in (s1, s2))
        return [(f"lemma8 sources {s1} {s2}", _relation(ring, a, b))]

    return _run_cases("lemma8", graph, seed, cases, window, ring,
                      case_index, body)


def check_lemma12(graph: StandardKGraph, seed: int, cases: int,
                  window: Window | None = None, ring: Ring | None = None,
                  case_index: int | None = None) -> CheckReport:
    """Shrinking both degrees of an S-set by a common nonzero n-hat below
    the meet leaves the pair-word sum unchanged in the quotient.  w is
    always v - m + n, so alpha and beta share a source and no pair word
    dies by R2 alone.  A draw with no such n-hat is drawn again; with
    degree bound 0 there is none, and the report has no cases."""
    if _default_window(graph, window).degree_bound == 0:
        cases = min(cases, 0)

    def body(rng, graph, window, ring):
        while True:
            v = _rand_vertex(rng, window)
            m = rng.choice(degrees_upto(graph.k, window.degree_bound))
            sp = rng.randint(0, norm(m))
            shared = norm(m) - sp
            n = rng.choice(degrees_upto(graph.k, window.degree_bound, shared))
            p = _rand_levels(rng, graph, sp)
            q = _rand_levels(rng, graph, norm(n) - shared)
            w = vadd(vsub(v, m), n)
            cap = meet(m, n)
            candidates = [d for d in degrees_upto(
                graph.k, min(norm(cap), shared), 1) if leq(d, cap)]
            if candidates:
                break
        nhat = rng.choice(candidates)
        one, two = ([pair_word(*ab) for ab in graph.s_set(v, w, dm, dn, p, q)]
                    for dm, dn in ((m, n), (vsub(m, nhat), vsub(n, nhat))))
        return [(f"lemma12 n-hat={nhat}", _relation(ring, one, two))]

    return _run_cases("lemma12", graph, seed, cases, window, ring,
                      case_index, body)


def check_lemma13(graph: StandardKGraph, seed: int, cases: int,
                  window: Window | None = None, ring: Ring | None = None,
                  case_index: int | None = None) -> CheckReport:
    """The sum over all non-all-ones extensions of degree n telescopes to
    the staircase of single-non-one-entry extensions.  Cases draw |n| >= 2:
    at |n| = 1 the two sums have the same terms.  With degree bound below 2
    there is no such n to sample, and at level 1 every path is all ones, so
    both sums are empty; the report then has no cases."""
    if graph.level == 1 or _default_window(graph, window).degree_bound < 2:
        cases = min(cases, 0)

    def body(rng, graph, window, ring):
        v = _rand_vertex(rng, window)
        n = rng.choice(degrees_upto(graph.k, window.degree_bound, 2))
        hi = min(window.degree_bound, 2)
        lam = _rand_path(rng, graph, window, hi, source_v=v)
        mu = _rand_path(rng, graph, window, hi, source_v=v)
        # step p of the staircase has degree the last p coordinate steps
        indices = [i for i in range(graph.k) for _ in range(n[i])]
        staircase, delta = [], [0] * graph.k
        for p, i in enumerate(reversed(indices), 1):
            delta[i] += 1
            staircase += [Path(v, vsub(v, tuple(delta)), (1,) * (p - 1) + (q,))
                          for q in range(2, graph.level + 1)]
        not_ones = [xi for xi in graph.paths(v, n) if max(xi.levels) > 1]
        lhs, rhs = ([pair_word(compose(lam, xi), compose(mu, xi)) for xi in xs]
                    for xs in (not_ones, staircase))
        return [(f"lemma13 n={n}", _relation(ring, lhs, rhs))]

    return _run_cases("lemma13", graph, seed, cases, window, ring,
                      case_index, body)


# --------------------------------------------------------------------------
# Confluence sampling
# --------------------------------------------------------------------------

def _inner(x: Letter) -> Coords:
    """The vertex a letter presents to its right neighbour."""
    return x.path.range if x.ghost else x.path.source


def _overlap_word(rng: random.Random, graph: StandardKGraph,
                  window: Window) -> Word:
    """A 3-letter word with at least two redexes.  Each letter is chained to
    the previous letter's inner vertex, except for an occasional free letter
    (which makes R2 overlaps); draws repeat until all_redexes finds two
    redexes.  Three composable paths always do, so the loop ends."""
    while True:
        letters = []
        for _ in range(3):
            ghost = rng.random() < 0.5
            anchor = (_inner(letters[-1]) if letters and rng.random() < 0.8
                      else None)
            p = (_rand_path(rng, graph, window, source_v=anchor) if ghost
                 else _rand_path(rng, graph, window, range_v=anchor))
            letters.append(letter(p, ghost))
        word = tuple(letters)
        if len(all_redexes(word)) >= 2:
            return word


def check_confluence(graph: StandardKGraph, seed: int, cases: int,
                     window: Window | None = None, ring: Ring | None = None,
                     case_index: int | None = None) -> CheckReport:
    """Each sampled word with two or more redexes is reduced by every
    competing first step; every branch minus the word must normalize to 0.
    The word outweighs every term of a branch, so no such relation is 0."""

    def body(rng, graph, window, ring):
        word = _overlap_word(rng, graph, window)
        start = Element.from_word(ring, word)
        for m in all_redexes(word):
            n = "" if m.expand_degree is None else f" n={m.expand_degree}"
            yield (f"branch {m.rule.value} at pos {m.pos}{n}",
                   apply_rule(graph, ring, word, m) - start)

    return _run_cases("confluence", graph, seed, cases, window, ring,
                      case_index, body)


# --------------------------------------------------------------------------
# Exhaustive defining-relation check
# --------------------------------------------------------------------------

def _kp_shapes(graph: StandardKGraph, window: Window, ring: Ring):
    """The runner's units of check_kp_relations: one per defining-relation
    shape, a family's relation anchored at the origin, with at least one
    translate in the window.  Its translates ts are per coordinate the
    range of the t that keep its footprint, from low to high, inside the
    window.  The unit counts the t of product(*ts); shared() builds the
    relation, and case j is it moved by the j-th t (_translate).  Nothing
    of a relation is built before shared is called, so a rerun that skips
    a shape by its count pays only for the count."""
    lo, hi = window.lo, window.hi
    degs = degrees_upto(graph.k, min(window.degree_bound, 2), 1)
    origin = (0,) * graph.k
    o = letter(graph.vertex(origin))

    def translates(low, high):
        return [range(a - l, b - h + 1)
                for a, b, l, h in zip(lo, hi, low, high)]

    def unit(family, ts, build, *args):
        return (prod(map(len, ts)), lambda: [(family, build(*args))],
                partial(_translate, ts))

    # the paths of degree n with range (from) or source (into) the origin
    paths_from = {n: graph.paths(origin, n) for n in degs}
    paths_into = {n: graph.paths(n, n) for n in degs}

    def kp1(d):
        return _relation(ring, [(o, letter(graph.vertex(d)))],
                         [] if any(d) else [(o,)])

    def unit_law(p, j):
        lp, gp = letter(p), letter(p, ghost=True)
        sv = letter(graph.vertex(p.source))
        word, unit = (((o, lp), lp), ((lp, sv), lp),
                      ((sv, gp), gp), ((gp, o), gp))[j]
        return _relation(ring, [word], [(unit,)])

    def kp3(lam, mu):
        return _relation(
            ring, [(letter(lam, True), letter(mu))],
            [(letter(graph.vertex(lam.source)),)] if lam == mu else [])

    def composition(lam, mu, starred):
        # lam . mu - (lam mu), or its star mu* . lam* - (lam mu)*
        word = ((letter(mu, True), letter(lam, True)) if starred
                else (letter(lam), letter(mu)))
        return _relation(ring, [word], [(letter(compose(lam, mu), starred),)])

    def kp4(n):
        return _relation(ring, [(o,)], [pair_word(lam, lam)
                                        for lam in paths_from[n]])

    # KP1 on v = 0 and w = d
    for d in product(*(range(a - b, b - a + 1) for a, b in zip(lo, hi))):
        yield unit("KP1", translates(meet(origin, d), join(origin, d)), kp1, d)

    # unit laws and KP3: footprint the source -n up to the range 0
    for n in degs:
        if all(ts := translates(vsub(origin, n), origin)):
            for p in paths_from[n]:
                for j in range(4):
                    yield unit("KP2", ts, unit_law, p, j)
            for lam, mu in product(paths_from[n], repeat=2):
                yield unit("KP3", ts, kp3, lam, mu)

    # compositions: footprint mu's source -n2 up to lam's range n1
    for n1, n2 in product(degs, repeat=2):
        if all(ts := translates(vsub(origin, n2), n1)):
            for lam, mu in product(paths_into[n1], paths_from[n2]):
                yield unit("KP2", ts, composition, lam, mu, False)
                yield unit("KP2", ts, composition, lam, mu, True)

    # KP4: footprint 0 only, since its paths leave the window
    for n in degs:
        yield unit("KP4", translates(origin, origin), kp4, n)


def _translate(ts, pairs, j: int):
    """Case j of a kp shape: its pairs moved by the j-th t of product(*ts),
    whose digits are j's in the mixed radix of the ranges."""
    t = []
    for r in reversed(ts):
        j, digit = divmod(j, len(r))
        t.insert(0, r[digit])
    return "exhaustive", [(label, relation.translated(t))
                          for label, relation in pairs]


def check_kp_relations(graph: StandardKGraph,
                       window: Window | None = None,
                       ring: Ring | None = None,
                       case_index: int | None = None) -> CheckReport:
    """Every defining-relation instance anchored in the window normalizes
    to zero: vertex orthogonality/idempotency, unit laws and composition,
    same-degree ghost products, and the vertex expansion identity with
    |n| <= 2.  Path degrees are capped at |d| <= 2.

    The units are those of _kp_shapes, in order: a shape counts its
    translates, its relation decides them all, and its case j is the
    relation moved by the j-th translate t in lexicographic order."""
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    return _decide("kp", 0, graph, _kp_shapes(graph, window, ring),
                   case_index)


CHECKS = {
    "lemma3": check_lemma3,
    "lemma8": check_lemma8,
    "lemma12": check_lemma12,
    "lemma13": check_lemma13,
    "confluence": check_confluence,
}


def run_all(graph: StandardKGraph, seed: int, cases: int,
            window: Window | None = None, ring: Ring | None = None,
            case_index: int | None = None) -> list[CheckReport]:
    reports = [check(graph, seed, cases, window, ring, case_index)
               for check in CHECKS.values()]
    reports.append(check_kp_relations(graph, window, ring, case_index))
    return reports
