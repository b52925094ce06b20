"""Executable checks of the algebra's defining identities and empirical
confluence of the reduction system.

Every case is one or more relations: elements, the words of one side with
coefficient +1 and those of the other with -1, that must normalize to 0.
normalize rewrites each word on its own and merges coefficients linearly,
so NF(lhs - rhs) = 0 exactly when NF(lhs) = NF(rhs).  No sampler draws a
relation that is 0 before rewriting, except lemma8 on k = 1 or level 1.

Each check runs seeded cases; a case derives its own RNG from the string
"<seed>:<name>:<index>" so any failure is reproducible from the report
alone.  Element equality is exact; there are no tolerances.  A run's
cases are numbered from 0, and a case_index reruns one of them; an index
the run does not have, including any index of a check with nothing to
sample, raises CaseIndexError from every check alike (_indices).

check_kp_relations is exhaustive over a window (no randomness); the other
checks are randomized samplers.  Confluence is sampled by critical pairs:
each case draws a chained 3-letter word until rewrite.all_redexes finds at
least two competing rule instances on it; applying each instance (every R4
expansion degree included) gives a branch, and branch - word is a relation.

check_kp_relations enumerates shapes, not instances.  Translating by any t
in Z^k is an automorphism of the standard k-graph, and NF(x + t) =
NF(x) + t (the equivariance property in the tests), so every instance is
a translate of a shape: its family's relation anchored at the origin.  A
shape's footprint is the box of vertices an instance must keep in the
window, and its translates are the t, one range per coordinate, that do.
_kp_shapes is the only enumeration of the relations: instance i is a
translate of one shape, numbered shape by shape and, within a shape, by t
in lexicographic order.  Each shape is normalized once and counts its
translates as cases; translates are built only to run one of them
(case_index, found by skipping whole shapes by their translate counts) or
to name the failing ones after their shape fails.  The sampled checks
normalize every relation.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product
from math import prod

from . import canonical
from .freealg import Element, IntegerRing, Ring, Word, letter, pair_word
from .kgraph import (Coords, Path, StandardKGraph, compose, degrees_upto,
                     join, leq, meet, norm, vadd, vsub)
from .rewrite import _inner, all_redexes, apply_rule, normalize
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
    return uniform_window(graph.k, -3, 3, 3) if window is None else window


def _rand_vertex(rng: random.Random, window: Window) -> Coords:
    return tuple(rng.randint(a, b) for a, b in zip(window.lo, window.hi))


def _rand_degree(rng: random.Random, k: int, hi_norm: int,
                 lo_norm: int = 0) -> Coords:
    return rng.choice(degrees_upto(k, hi_norm, lo_norm))


def _rand_levels(rng: random.Random, graph: StandardKGraph,
                 count: int) -> Coords:
    return tuple(rng.randint(1, graph.level) for _ in range(count))


def _rand_path(rng: random.Random, graph: StandardKGraph, window: Window,
               hi_norm: int | None = None,
               range_v: Coords | None = None,
               source_v: Coords | None = None) -> Path:
    hi = min(window.degree_bound, 3) if hi_norm is None else hi_norm
    n = _rand_degree(rng, graph.k, hi)
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


def _report(name, seed, graph, cases) -> CheckReport:
    """The report over (index, case seed, relations) triples, where
    relations yields (label, relation) pairs; a case fails at its first
    relation that does not normalize to 0.  Cases are run as the triples
    are drawn, so elapsed covers them."""
    report = CheckReport(name=name, cases=0, seed=seed)
    start = time.perf_counter()
    for index, case_seed, relations in cases:
        report.cases += 1
        for label, relation in relations:
            result = normalize(graph, relation)
            if not result.is_zero():
                report.failures.append(CaseFailure(
                    index, case_seed, format_element(relation),
                    f"{label} normal form {format_element(result)} is not 0"))
                break
    report.elapsed = time.perf_counter() - start
    return report


class CaseIndexError(ValueError):
    """A case index that names no case of the run."""


def _indices(name: str, cases: int, case_index: int | None) -> range:
    """The indices of a run of that many cases: all of them, or case_index
    alone; raises CaseIndexError if the run has no case at case_index."""
    if case_index is None:
        return range(cases)
    if not 0 <= case_index < cases:
        raise CaseIndexError(f"case index {case_index} names no case of "
                             f"this {name} run")
    return range(case_index, case_index + 1)


def _run_cases(name, graph, seed, cases, window, ring, case_index, body):
    """Run body(rng, graph, window, ring) for each case; it returns an
    iterable of the case's (label, relation) pairs."""
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    return _report(name, seed, graph, (
        (i, f"{seed}:{name}:{i}",
         body(_case_rng(seed, name, i), graph, window, ring))
        for i in _indices(name, cases, case_index)))


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
        q = vadd(j, _rand_degree(rng, graph.k, 1, 0 if any(j) else 1))
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
    degs = degrees_upto(graph.k, min(window.degree_bound, 3), 1)
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
        cases = 0

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
        cases = 0

    def body(rng, graph, window, ring):
        hi = min(window.degree_bound, 3)
        while True:
            v = _rand_vertex(rng, window)
            m = _rand_degree(rng, graph.k, hi)
            sp = rng.randint(0, norm(m))
            shared = norm(m) - sp
            n = _rand_degree(rng, graph.k, hi, shared)
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
        cases = 0

    def body(rng, graph, window, ring):
        v = _rand_vertex(rng, window)
        n = _rand_degree(rng, graph.k, min(window.degree_bound, 3), 2)
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
    """(family, translates, build) for every defining-relation shape with
    at least one translate in the window: per coordinate the range of the
    t that keep its footprint, from low to high, inside the window, and a
    function of no arguments that builds the relation anchored at the
    origin.  The instances are build().translated(t) for t in
    product(*translates), in this order.  Nothing of a relation is built
    before build is called, so a caller that skips a shape by its
    translate count pays only for the count."""
    lo, hi = window.lo, window.hi
    degs = degrees_upto(graph.k, min(window.degree_bound, 2), 1)
    origin = (0,) * graph.k
    o = letter(graph.vertex(origin))

    def translates(low, high):
        return [range(a - l, b - h + 1)
                for a, b, l, h in zip(lo, hi, low, high)]

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
        yield ("KP1", translates(meet(origin, d), join(origin, d)),
               partial(kp1, d))

    # unit laws and KP3: footprint the source -n up to the range 0
    for n in degs:
        if all(ts := translates(vsub(origin, n), origin)):
            for p in paths_from[n]:
                for j in range(4):
                    yield "KP2", ts, partial(unit_law, p, j)
            for lam, mu in product(paths_from[n], repeat=2):
                yield "KP3", ts, partial(kp3, lam, mu)

    # compositions: footprint mu's source -n2 up to lam's range n1
    for n1, n2 in product(degs, repeat=2):
        if all(ts := translates(vsub(origin, n2), n1)):
            for lam, mu in product(paths_into[n1], paths_from[n2]):
                yield "KP2", ts, partial(composition, lam, mu, False)
                yield "KP2", ts, partial(composition, lam, mu, True)

    # KP4: footprint 0 only, since its paths leave the window
    for n in degs:
        yield "KP4", translates(origin, origin), partial(kp4, n)


def check_kp_relations(graph: StandardKGraph,
                       window: Window | None = None,
                       ring: Ring | None = None,
                       case_index: int | None = None) -> CheckReport:
    """Every defining-relation instance anchored in the window normalizes
    to zero: vertex orthogonality/idempotency, unit laws and composition,
    same-degree ghost products, and the vertex expansion identity with
    |n| <= 2.  Path degrees are capped at |d| <= 2.

    The instances are numbered shape by shape, in _kp_shapes order, and
    within a shape by translate t in lexicographic order.  Each shape is
    normalized once and its translates, prod(map(len, translates)) of
    them, are added to the cases.  Only when a shape fails is each of its
    translates built and normalized, so failure indices and inputs are
    exact.  With case_index the shapes before the one holding that number
    are skipped by their translate counts, their relations neither built
    nor normalized, and only the instance of that number is built and
    normalized."""
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    start = time.perf_counter()
    cases, failures = 0, []
    for family, ts, build in _kp_shapes(graph, window, ring):
        count = prod(map(len, ts))
        if case_index is None:
            relation = build()
            if not normalize(graph, relation).is_zero():
                failures += _report("kp", 0, graph, (
                    (cases + j, "exhaustive", [(family, relation.translated(t))])
                    for j, t in enumerate(product(*ts)))).failures
        elif cases <= case_index < cases + count:
            # the translate's digits in the mixed radix of its ranges
            j, t = case_index - cases, []
            for r in reversed(ts):
                j, digit = divmod(j, len(r))
                t.insert(0, r[digit])
            return _report("kp", 0, graph, [
                (case_index, "exhaustive", [(family, build().translated(t))])])
        cases += count
    _indices("kp", cases, case_index)  # raises if case_index was not found
    return CheckReport("kp", cases, 0, failures, time.perf_counter() - start)


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
