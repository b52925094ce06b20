"""The tests' slow reference definitions.

reference_normalize is a scheduler for normalize.  It shares the rules with
the engine but not the scheduling, so the tests can check both the heap's
rewrite order and, the system being confluent, that a random strategy
reaches the same normal form.

reference_graph_path validates a path with separate checks, one fault
after another.  basis_shape is the tests' definition of a basis word, and
reference_pair_words lists the pair basis words by filtering and sorting
all same-source pairs of window paths with it.

reference_kp_instances lists every defining-relation instance in a window
directly, vertex by vertex and path by path, with no shapes or
translation; check_kp_relations must cover the same multiset.

rand_path and rand_element draw the random paths and words that the
rewrite tests and the acceptance corpus share.  assert_exact_words checks
that every word of an element is made of exact Letter and Path instances.
"""

from itertools import groupby, product

from kumjian_pask.algebra import Window
from kumjian_pask.canonical import pair_kind
from kumjian_pask.freealg import (Element, IntegerRing, Letter, letter,
                                  pair_word, word_key)
from kumjian_pask.kgraph import (KGraphError, Path, compose, degrees_upto,
                                 norm, vadd, vsub)
from kumjian_pask.rewrite import (TraceStep, all_redexes, apply_rule,
                                  find_redex, word_measure)
from kumjian_pask.verify import _relation


def reference_normalize(graph, elem, rng=None):
    """The normal form and trace of a scheduler that rescans pending at
    every step.  Without rng it rewrites the word of largest (measure, word
    order) at its leftmost redex, the order normalize's heap must follow.
    With rng it picks the word from pending sorted that way, then the redex
    from all_redexes (every R4 expansion degree included), both by
    rng.choice."""
    ring, pending, done, trace = elem.ring, dict(elem.terms), {}, []

    def key(u):
        return word_measure(u), word_key(u)

    while pending:
        if rng is None:
            w = max(pending, key=key)
            m = find_redex(w)
        else:
            w = rng.choice(sorted(pending, key=key))
            ms = all_redexes(w)
            m = rng.choice(ms) if ms else None
        c = pending.pop(w)
        if m is None:
            ring.add_into(done, w, c)
            continue
        piece = apply_rule(graph, ring, w, m)
        trace.append(TraceStep(m.rule, m.pos, word_measure(w),
                               tuple(word_measure(u) for u in piece.terms)))
        for u, cu in piece.terms.items():
            ring.add_into(pending, u, c * cu)
    return Element(ring, done), trace


def reference_graph_path(graph, range_v, source_v, levels):
    """StandardKGraph.path by separate checks: the coordinate counts, then
    each level entry in 1..l, then the Path checks."""
    def coords(c):
        c = tuple(c)
        if len(c) != graph.k:
            raise KGraphError(f"expected {graph.k} coordinates, got {len(c)}")
        return c

    r, s, lv = coords(range_v), coords(source_v), tuple(levels)
    for e in lv:
        if not 1 <= e <= graph.level:
            raise KGraphError(f"level entry {e} out of range 1..{graph.level}")
    return Path(r, s, lv)


def basis_shape(w):
    """Classify a word as 'vertex', 'path', 'ghost', or 'pair'; None if the
    word is not a basis word."""
    if len(w) == 1:
        x = w[0]
        if x.path.is_vertex:
            return "vertex"
        return "ghost" if x.ghost else "path"
    if len(w) == 2 and pair_kind(*w) == "representative":
        return "pair"
    return None


def reference_pair_words(graph, window, range_left=None, range_right=None):
    """The pair words of enumerate_basis by filter and sort: every word
    lam . mu* over same-source window paths that basis_shape accepts, with
    lam's range range_left and mu's range_right when given, sorted by class
    key (ranges, |lam|, level vectors)."""
    paths = window.paths(graph)
    words = [pair_word(lam, mu) for lam in paths for mu in paths
             if lam.source == mu.source and range_left in (None, lam.range)
             and range_right in (None, mu.range)]
    return sorted((w for w in words if basis_shape(w) == "pair"),
                  key=lambda w: (w[0].path.range, w[1].path.range,
                                 len(w[0].path.levels), w[0].path.levels,
                                 w[1].path.levels))


def reference_kp_instances(graph, window, ring):
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


def rand_path(rng, graph, lo=0, hi=3, range_v=None, source_v=None):
    """A random path with lo <= |d| <= hi, with the given range or source
    or else a range in -3..3."""
    n = rng.choice(degrees_upto(graph.k, hi, lo))
    if range_v is not None:
        r = range_v
    elif source_v is not None:
        r = vadd(source_v, n)
    else:
        r = tuple(rng.randint(-3, 3) for _ in range(graph.k))
    return Path(r, vsub(r, n),
                tuple(rng.randint(1, graph.level) for _ in range(norm(n))))


def rand_element(rng, graph, max_letters=4):
    """A random integer element of one or two words of 1..max_letters
    letters, most of them chained to the letter before."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        letters = []
        for _ in range(rng.randint(1, max_letters)):
            ghost = rng.random() < 0.4
            if letters and rng.random() < 0.7:
                prev = letters[-1]
                anchor = prev.path.range if prev.ghost else prev.path.source
                if (not prev.ghost and not prev.path.is_vertex and ghost
                        and rng.random() < 0.5):
                    p = rand_path(rng, graph, 1, 3, source_v=prev.path.source)
                elif ghost:
                    p = rand_path(rng, graph, 0, 3, source_v=anchor)
                else:
                    p = rand_path(rng, graph, 0, 3, range_v=anchor)
            else:
                p = rand_path(rng, graph)
            letters.append(letter(p, ghost=ghost))
        terms.append((tuple(letters), rng.choice((-2, -1, 1, 2))))
    return Element.from_terms(IntegerRing(), terms)


def assert_exact_words(elem):
    """A namedtuple equals the bare tuple of its fields, so a word built
    from plain tuples would be a different-typed key equal to the real one.
    Every word must be a tuple of exact Letter instances over exact Paths."""
    for w in elem.terms:
        assert type(w) is tuple and w
        for x in w:
            assert type(x) is Letter and type(x.path) is Path
