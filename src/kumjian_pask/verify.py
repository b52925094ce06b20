"""Executable checks of the algebra's defining identities and empirical
confluence of the reduction system.

Every case is one or more relations: elements, the words of one side with
coefficient +1 and those of the other with -1, that must normalize to 0.
normalize rewrites each word on its own and merges coefficients linearly,
so NF(lhs - rhs) = 0 exactly when NF(lhs) = NF(rhs).  No sampler draws a
relation that is 0 before rewriting, except lemma8 on k = 1 or level 1.

Each check runs seeded cases; a case derives its own RNG from the string
"<seed>:<name>:<index>" so any failure is reproducible from the report
alone.  Element equality is exact; there are no tolerances.

check_kp_relations is exhaustive over a window (no randomness); the other
checks are randomized samplers.  Confluence is sampled by critical pairs:
each case draws a chained 3-letter word until rewrite.all_redexes finds at
least two competing rule instances on it; applying each instance (every R4
expansion degree included) gives a branch, and branch - word is a relation.

check_kp_relations enumerates shapes, not instances.  Translating by any t
in Z^k is an automorphism of the standard k-graph, and NF(x + t) =
NF(x) + t (the equivariance property in the tests), so every instance is
a translate of a shape: its family's relation anchored at the origin.  A
shape's footprint is the set of vertices the instance enumeration requires
to lie in the window, and its in-window translates number, per coordinate,
the box side less the footprint's span (or 0), multiplied over the
coordinates.  Each shape with a translate is normalized once and counts
that many cases.  The instances themselves are walked, in a fixed order,
only to run one of them (case_index) or to name the failing ones after a
shape fails.  The sampled checks normalize every relation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import groupby, islice, product
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
    case_seed: str
    input_text: str
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
            lines.append(f"failure index={f.index} seed={f.case_seed} "
                         f"input={f.input_text} detail={f.detail}")
        return lines

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "seed": self.seed,
            "failures": [
                {"index": f.index, "seed": f.case_seed,
                 "input": f.input_text, "detail": f.detail}
                for f in self.failures
            ],
        }


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


def _verdict(graph: StandardKGraph, label: str, relation: Element):
    """None if the relation normalizes to 0, else (input text, detail)."""
    result = normalize(graph, relation)
    if result.is_zero():
        return None
    return (format_element(relation),
            f"{label} normal form {format_element(result)} is not 0")


def _report(name, seed, graph, cases) -> CheckReport:
    """The report over (index, case seed, relations) triples, where
    relations yields (label, relation) pairs; a case fails at its first
    relation that does not normalize to 0.  Cases are run as the triples
    are drawn, so elapsed covers them."""
    report = CheckReport(name=name, cases=0, seed=seed)
    start = time.perf_counter()
    for index, case_seed, relations in cases:
        report.cases += 1
        failure = next(filter(None, (_verdict(graph, label, relation)
                                     for label, relation in relations)), None)
        if failure is not None:
            report.failures.append(CaseFailure(index, case_seed, *failure))
    report.elapsed = time.perf_counter() - start
    return report


class CaseIndexError(ValueError):
    """A case index that names no case of the run."""


def _numbered(name, cases, case_index):
    """(index, case) for every case of a run, or for the one at case_index
    only; raises CaseIndexError if the run has no case at that index."""
    numbered = enumerate(cases)
    if case_index is None:
        return numbered
    chosen = list(islice(numbered, case_index, case_index + 1))
    if not chosen:
        raise CaseIndexError(f"case index {case_index} names no case of "
                             f"this {name} run")
    return chosen


def _run_cases(name, graph, seed, cases, window, ring, case_index, body):
    """Run body(rng, graph, window, ring) for each case; it returns an
    iterable of the case's (label, relation) pairs."""
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    return _report(name, seed, graph, (
        (i, f"{seed}:{name}:{i}",
         body(_case_rng(seed, name, i), graph, window, ring))
        for i, _ in _numbered(name, range(cases), case_index)))


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
        cases, case_index = 0, None

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
    the meet leaves the pair-word sum unchanged in the quotient.  A draw
    with no such n-hat is drawn again; with degree bound 0 there is none,
    and the report has no cases."""
    if _default_window(graph, window).degree_bound == 0:
        cases, case_index = 0, None

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
            w = (vadd(vsub(v, m), n) if rng.random() < 0.8
                 else _rand_vertex(rng, window))
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
        cases, case_index = 0, None

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

def _kp_instances(graph: StandardKGraph, window: Window, ring: Ring):
    """(family, relation) for every defining-relation instance anchored in
    the window, in a fixed order."""
    capped = Window(window.lo, window.hi, min(window.degree_bound, 2))
    verts, degs = capped.vertices(), capped.degrees()
    paths = capped.paths(graph)
    vl = {v: letter(graph.vertex(v)) for v in verts}

    paths_from = {v: [] for v in verts}
    paths_into = {v: [] for v in verts}
    for p in paths:
        paths_from[p.range].append(p)
        paths_into[p.source].append(p)

    for v, w in product(verts, repeat=2):
        yield "KP1", _relation(ring, [(vl[v], vl[w])],
                               [(vl[v],)] if v == w else [])

    for p in paths:
        lp, gp = letter(p), letter(p, ghost=True)
        rv, sv = vl[p.range], vl[p.source]
        for word, unit in (((rv, lp), lp), ((lp, sv), lp),
                           ((sv, gp), gp), ((gp, rv), gp)):
            yield "KP2", _relation(ring, [word], [(unit,)])

    for v in verts:
        for lam in paths_into[v]:
            for mu in paths_from[v]:
                rel = _relation(ring, [(letter(lam), letter(mu))],
                                [(letter(compose(lam, mu)),)])
                yield "KP2", rel
                yield "KP2", rel.star()

    # paths_from[v] runs through the degrees in order, so its same-degree
    # groups are the in-window groups graph.paths(v, n) would give
    for v in verts:
        for _, group in groupby(paths_from[v], key=lambda p: p.degree):
            for lam, mu in product(group, repeat=2):
                yield "KP3", _relation(ring, [(letter(lam, True), letter(mu))],
                                       [(vl[lam.source],)] if lam == mu else [])

    # KP4 sums over every path of degree n from v, wherever its source lies
    for v in verts:
        for n in degs:
            yield "KP4", _relation(ring, [(vl[v],)], [
                pair_word(lam, lam) for lam in graph.paths(v, n)])


def _kp_shapes(graph: StandardKGraph, window: Window, ring: Ring):
    """(family, translates, relation) for every defining-relation shape
    with at least one translate in the window.  A shape is a relation of
    _kp_instances anchored at the origin; its footprint is the set of
    vertices that _kp_instances requires to lie in the window, and its
    translates are the instances it stands for.  With span the footprint's
    extent in each coordinate, they number prod(max(0, L - span)) over the
    box sides L."""
    sides = [b - a + 1 for a, b in zip(window.lo, window.hi)]
    degs = degrees_upto(graph.k, min(window.degree_bound, 2), 1)
    origin = (0,) * graph.k
    o = letter(graph.vertex(origin))

    def translates(span):
        return prod(max(0, side - s) for side, s in zip(sides, span))

    # the paths of degree n with range (from) or source (into) the origin
    paths_from = {n: graph.paths(origin, n) for n in degs}
    paths_into = {n: graph.paths(n, n) for n in degs}

    # KP1 on v = 0 and w = d
    for d in product(*(range(1 - side, side) for side in sides)):
        yield "KP1", translates(map(abs, d)), _relation(
            ring, [(o, letter(graph.vertex(d)))], [] if any(d) else [(o,)])

    # unit laws and KP3: footprint the range 0 and the source -n
    for n in degs:
        if count := translates(n):
            for p in paths_from[n]:
                lp, gp = letter(p), letter(p, ghost=True)
                sv = letter(graph.vertex(p.source))
                for word, unit in (((o, lp), lp), ((lp, sv), lp),
                                   ((sv, gp), gp), ((gp, o), gp)):
                    yield "KP2", count, _relation(ring, [word], [(unit,)])
            for lam, mu in product(paths_from[n], repeat=2):
                yield "KP3", count, _relation(
                    ring, [(letter(lam, True), letter(mu))],
                    [(letter(graph.vertex(lam.source)),)] if lam == mu else [])

    # compositions: footprint lam's range n1, the vertex 0, mu's source -n2
    for n1, n2 in product(degs, repeat=2):
        if count := translates(vadd(n1, n2)):
            for lam, mu in product(paths_into[n1], paths_from[n2]):
                rel = _relation(ring, [(letter(lam), letter(mu))],
                                [(letter(compose(lam, mu)),)])
                yield "KP2", count, rel
                yield "KP2", count, rel.star()

    # KP4: footprint 0 only, since its paths leave the window
    for n in degs:
        yield "KP4", prod(sides), _relation(ring, [(o,)], [
            pair_word(lam, lam) for lam in paths_from[n]])


def check_kp_relations(graph: StandardKGraph,
                       window: Window | None = None,
                       ring: Ring | None = None,
                       case_index: int | None = None) -> CheckReport:
    """Every defining-relation instance anchored in the window normalizes
    to zero: vertex orthogonality/idempotency, unit laws and composition,
    same-degree ghost products, and the vertex expansion identity with
    |n| <= 2.  Path degrees are capped at |d| <= 2.

    The instances are not built.  Each shape of _kp_shapes (a relation
    anchored at the origin) is normalized once, and its in-window
    translates, counted in closed form from its footprint, are added to
    the cases.  The instance walk of _kp_instances runs only when a shape
    fails or case_index is given.  After a failure every instance of a
    family with a failing shape is normalized itself, in the fixed order,
    so failure indices and inputs are exact.  With case_index only that
    instance (counted in the same fixed order) is normalized."""
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    instances = _kp_instances(graph, window, ring)
    if case_index is not None:
        return _report("kp", 0, graph, (
            (i, "exhaustive", [instance])
            for i, instance in _numbered("kp", instances, case_index)))
    start = time.perf_counter()
    cases, failing = 0, set()
    for family, count, relation in _kp_shapes(graph, window, ring):
        cases += count
        if (family not in failing
                and not normalize(graph, relation).is_zero()):
            failing.add(family)
    failures = _report("kp", 0, graph, (
        (i, "exhaustive", [(family, relation)])
        for i, (family, relation) in enumerate(instances)
        if family in failing)).failures if failing else []
    return CheckReport("kp", cases, 0, failures,
                       time.perf_counter() - start)


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
