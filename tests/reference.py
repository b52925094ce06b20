"""The tests' slow reference definitions.

reference_normalize is a scheduler for normalize.  It shares the rules with
the engine but not the scheduling, so the tests can check both the heap's
rewrite order and, the system being confluent, that a random strategy
reaches the same normal form.

reference_graph_path validates a path with separate checks, one fault
after another, and reference_pair_words lists the pair basis words by
filtering and sorting all same-source pairs of window paths.
"""

from kumjian_pask.algebra import basis_shape
from kumjian_pask.freealg import Element, pair_word, word_key
from kumjian_pask.kgraph import KGraphError, Path
from kumjian_pask.rewrite import (TraceStep, all_redexes, apply_rule,
                                  find_redex, word_measure)


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
