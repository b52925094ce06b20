"""The tests' reference scheduler for normalize.  It shares the rules with
the engine but not the scheduling, so the tests can check both the heap's
rewrite order and, the system being confluent, that a random strategy
reaches the same normal form."""

from kumjian_pask.freealg import Element, word_key
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
