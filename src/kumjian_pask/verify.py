"""Executable checks of the algebra's defining identities and empirical
confluence of the reduction system.

Each check runs seeded cases; a case derives its own RNG from the string
"<seed>:<name>:<index>" so any failure is reproducible from the report
alone.  Element equality is exact; there are no tolerances.

check_kp_relations is exhaustive over a window (no randomness); the lemma
checks and the confluence check are randomized samplers.  Confluence is
sampled by critical pairs: each case draws a chained 3-letter word until
rewrite.all_redexes finds at least two competing rule instances on it, then
applies every instance (every R4 expansion degree included) and requires
each branch to normalize to the word's direct normal form.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import groupby, islice

from . import canonical
from .freealg import Element, IntegerRing, Ring, Word, letter, pair_word
from .kgraph import (Coords, Path, StandardKGraph, compose, degrees_upto,
                     join, leq, meet, norm, vadd, vsub)
from .rewrite import _inner, all_redexes, apply_rule, normalize
from .algebra import Window, uniform_window
from .syntax import format_element, format_word


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
    if window is None:
        return uniform_window(graph.k, -3, 3, 3)
    return window


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

def _report(name, seed, outcomes) -> CheckReport:
    """The report over (index, case seed, outcome) triples, where an outcome
    is None for a pass or (input text, detail) for a failure.  Cases are run
    as the triples are drawn, so elapsed covers them."""
    report = CheckReport(name=name, cases=0, seed=seed)
    start = time.perf_counter()
    for index, case_seed, outcome in outcomes:
        report.cases += 1
        if outcome is not None:
            report.failures.append(CaseFailure(index, case_seed, *outcome))
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
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    return _report(name, seed, (
        (i, f"{seed}:{name}:{i}",
         body(_case_rng(seed, name, i), graph, window, ring))
        for i, _ in _numbered(name, range(cases), case_index)))


def check_lemma3(graph: StandardKGraph, seed: int, cases: int,
                 window: Window | None = None, ring: Ring | None = None,
                 case_index: int | None = None) -> CheckReport:
    """ghost(lam) * mu equals the sum of alpha beta* over all common
    extensions of any fixed degree q >= d(lam) join d(mu), with the sum
    built by brute-force pair search."""

    def body(rng, graph, window, ring):
        hi = min(window.degree_bound, 3)
        v = _rand_vertex(rng, window)
        lam = _rand_path(rng, graph, window, hi, range_v=v)
        mu = _rand_path(rng, graph, window, hi, range_v=v)
        extra = _rand_degree(rng, graph.k, 1)
        q = vadd(join(lam.degree, mu.degree), extra)
        lhs = Element.from_word(ring, (letter(lam, ghost=True), letter(mu)))
        terms = []
        for alpha in graph.paths(lam.source, vsub(q, lam.degree)):
            for beta in graph.paths(mu.source, vsub(q, mu.degree)):
                if compose(lam, alpha) == compose(mu, beta):
                    terms.append((pair_word(alpha, beta), ring.one))
        rhs = Element.from_terms(ring, terms)
        if normalize(graph, lhs) != normalize(graph, rhs):
            return (format_element(lhs),
                    f"mismatch against brute-force sum at q={q}")
        return None

    return _run_cases("lemma3", graph, seed, cases, window, ring,
                      case_index, body)


def _rand_reduced_pair(rng: random.Random, graph: StandardKGraph,
                       window: Window) -> canonical.PathPair:
    """A reduced pair with a common source.  At level 1 that forces degrees
    with disjoint supports (so k >= 2); at higher levels a trailing level
    entry other than 1 is forced where the degrees meet."""
    degs = degrees_upto(graph.k, min(window.degree_bound, 3), 1)
    if graph.level == 1:
        dl = rng.choice([d for d in degs if 0 in d])
        dr = rng.choice([d for d in degs if not any(meet(dl, d))])
    else:
        dl, dr = rng.choice(degs), rng.choice(degs)
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
    quotient: their normal forms coincide.  With k = level = 1, or with
    degree bound 0, there is no reduced pair to sample and the report has
    no cases."""
    if (graph.k == graph.level == 1
            or _default_window(graph, window).degree_bound == 0):
        cases, case_index = 0, None

    def body(rng, graph, window, ring):
        key = canonical.class_key(*_rand_reduced_pair(rng, graph, window))
        sources = canonical.member_sources(key)
        if len(sources) >= 2:
            s1, s2 = rng.sample(sources, 2)
        else:
            s1 = s2 = sources[0]
        a = canonical.pair_for_source(key, s1)
        b = canonical.pair_for_source(key, s2)
        lhs = Element.from_word(ring, pair_word(*a))
        rhs = Element.from_word(ring, pair_word(*b))
        if normalize(graph, lhs) != normalize(graph, rhs):
            return (f"{format_element(lhs)} vs {format_element(rhs)}",
                    "class members have different normal forms")
        return None

    return _run_cases("lemma8", graph, seed, cases, window, ring,
                      case_index, body)


def check_lemma12(graph: StandardKGraph, seed: int, cases: int,
                  window: Window | None = None, ring: Ring | None = None,
                  case_index: int | None = None) -> CheckReport:
    """Shrinking both degrees of an S-set by a common n-hat below the meet
    leaves the pair-word sum unchanged in the quotient."""

    def body(rng, graph, window, ring):
        hi = min(window.degree_bound, 3)
        v = _rand_vertex(rng, window)
        m = _rand_degree(rng, graph.k, hi)
        sp = rng.randint(0, norm(m))
        shared = norm(m) - sp
        n = rng.choice([d for d in degrees_upto(graph.k, hi)
                        if norm(d) >= shared])
        t = norm(n) - shared
        p = _rand_levels(rng, graph, sp)
        q = _rand_levels(rng, graph, t)
        if rng.random() < 0.8:
            w = vadd(vsub(v, m), n)
        else:
            w = _rand_vertex(rng, window)
        cap = meet(m, n)
        candidates = [d for d in degrees_upto(graph.k, max(cap))
                      if leq(d, cap) and norm(d) <= shared]
        nhat = rng.choice(candidates) if candidates else (0,) * graph.k
        one = Element.from_terms(ring, [
            (pair_word(alpha, beta), ring.one)
            for alpha, beta in graph.s_set(v, w, m, n, p, q)])
        two = Element.from_terms(ring, [
            (pair_word(alpha, beta), ring.one)
            for alpha, beta in graph.s_set(v, w, vsub(m, nhat),
                                           vsub(n, nhat), p, q)])
        if normalize(graph, one) != normalize(graph, two):
            return (format_element(one),
                    f"S-set sums differ after shrinking by {nhat}")
        return None

    return _run_cases("lemma12", graph, seed, cases, window, ring,
                      case_index, body)


def check_lemma13(graph: StandardKGraph, seed: int, cases: int,
                  window: Window | None = None, ring: Ring | None = None,
                  case_index: int | None = None) -> CheckReport:
    """The sum over all non-all-ones extensions of degree n telescopes to
    the staircase of single-non-one-entry extensions.  With degree bound 0
    there is no n to sample, and at level 1 every path is all ones, so both
    sums are empty; the report then has no cases."""
    if graph.level == 1 or _default_window(graph, window).degree_bound == 0:
        cases, case_index = 0, None

    def body(rng, graph, window, ring):
        v = _rand_vertex(rng, window)
        n = _rand_degree(rng, graph.k, min(window.degree_bound, 3), 1)
        hi = min(window.degree_bound, 2)
        lam = _rand_path(rng, graph, window, hi, source_v=v)
        mu = _rand_path(rng, graph, window, hi, source_v=v)
        ones = (1,) * norm(n)
        lhs = Element.from_terms(ring, [
            (pair_word(compose(lam, xi), compose(mu, xi)), ring.one)
            for xi in graph.paths(v, n) if xi.levels != ones])
        indices = [i for i in range(graph.k) for _ in range(n[i])]
        terms = []
        for p in range(1, norm(n) + 1):
            delta = [0] * graph.k
            for i in indices[-p:]:
                delta[i] += 1
            for q in range(2, graph.level + 1):
                xi = Path(v, vsub(v, tuple(delta)), (1,) * (p - 1) + (q,))
                terms.append((pair_word(compose(lam, xi), compose(mu, xi)),
                              ring.one))
        rhs = Element.from_terms(ring, terms)
        if normalize(graph, lhs) != normalize(graph, rhs):
            return (format_element(lhs),
                    f"telescoping mismatch for n={n}")
        return None

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
    competing first step; every branch must normalize to the direct normal
    form."""

    def body(rng, graph, window, ring):
        word = _overlap_word(rng, graph, window)
        direct = normalize(graph, Element.from_word(ring, word))
        for m in all_redexes(word):
            if normalize(graph, apply_rule(graph, ring, word, m)) != direct:
                n = "" if m.expand_degree is None else f" n={m.expand_degree}"
                return (format_word(word),
                        f"branch {m.rule.value} at pos {m.pos}{n} diverges "
                        f"from the direct normal form")
        return None

    return _run_cases("confluence", graph, seed, cases, window, ring,
                      case_index, body)


# --------------------------------------------------------------------------
# Exhaustive defining-relation check
# --------------------------------------------------------------------------

def _kp_instances(graph: StandardKGraph, window: Window, ring: Ring):
    """(family, element) for every defining-relation instance anchored in
    the window, in a fixed order; each element must normalize to zero."""
    capped = Window(window.lo, window.hi, min(window.degree_bound, 2))
    verts, degs = capped.vertices(), capped.degrees()
    paths = capped.paths(graph)
    vl = {v: letter(graph.vertex(v)) for v in verts}

    def rel(word: Word, *minus: Word) -> Element:
        return Element.from_terms(ring, [(word, 1), *((w, -1) for w in minus)])

    paths_from = {v: [] for v in verts}
    paths_into = {v: [] for v in verts}
    for p in paths:
        paths_from[p.range].append(p)
        paths_into[p.source].append(p)

    for v in verts:
        for w in verts:
            word = (vl[v], vl[w])
            yield "KP1", rel(word, (vl[v],)) if v == w else rel(word)

    for p in paths:
        lp, gp = letter(p), letter(p, ghost=True)
        rv, sv = vl[p.range], vl[p.source]
        yield "KP2", rel((rv, lp), (lp,))
        yield "KP2", rel((lp, sv), (lp,))
        yield "KP2", rel((sv, gp), (gp,))
        yield "KP2", rel((gp, rv), (gp,))

    for v in verts:
        for lam in paths_into[v]:
            for mu in paths_from[v]:
                lm = compose(lam, mu)
                yield "KP2", rel((letter(lam), letter(mu)), (letter(lm),))
                yield "KP2", rel((letter(mu, True), letter(lam, True)),
                                 (letter(lm, True),))

    # paths_from[v] runs through the degrees in order, so its same-degree
    # groups are the in-window groups graph.paths(v, n) would give
    for v in verts:
        for _, group in groupby(paths_from[v], key=lambda p: p.degree):
            group = list(group)
            for lam in group:
                for mu in group:
                    word = (letter(lam, True), letter(mu))
                    yield "KP3", (rel(word, (vl[lam.source],)) if lam == mu
                                  else rel(word))

    # KP4 sums over every path of degree n from v, wherever its source lies
    for v in verts:
        for n in degs:
            yield "KP4", rel((vl[v],), *(pair_word(lam, lam)
                                         for lam in graph.paths(v, n)))


def check_kp_relations(graph: StandardKGraph,
                       window: Window | None = None,
                       ring: Ring | None = None,
                       case_index: int | None = None) -> CheckReport:
    """Every defining-relation instance anchored in the window normalizes
    to zero: vertex orthogonality/idempotency, unit laws and composition,
    same-degree ghost products, and the vertex expansion identity with
    |n| <= 2.  Path degrees are capped at |d| <= 2.  With case_index only
    that instance (counted in the same fixed order) is normalized."""
    window = _default_window(graph, window)
    ring = ring if ring is not None else IntegerRing()
    instances = _numbered("kp", _kp_instances(graph, window, ring), case_index)

    def outcome(family: str, elem: Element):
        result = normalize(graph, elem)
        if result.is_zero():
            return None
        return (format_element(elem),
                f"{family} normal form {format_element(result)} is not 0")

    return _report("kp", 0, ((i, "exhaustive", outcome(family, elem))
                             for i, (family, elem) in instances))


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
