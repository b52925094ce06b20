"""Redex detection, single steps, measures, and full normalization."""

import random

import pytest

from kumjian_pask import canonical, rewrite
from kumjian_pask.algebra import basis_shape, uniform_window
from kumjian_pask.freealg import Element, IntegerRing, letter
from kumjian_pask.kgraph import (Path, StandardKGraph, compose, degrees_upto,
                                 factorize, leq, meet, norm, vsub, vertex)
from kumjian_pask.rewrite import (OrderingViolation, RedexMatch,
                                  RewriteFault, RuleId, TerminationFault,
                                  all_redexes, apply_rule, find_redex,
                                  match_at, normalize, valid_expansions,
                                  word_measure)
from reference import rand_element, rand_path, reference_normalize

ZZ = IntegerRing()
G22 = StandardKGraph(2, 2)


def elem(*letters, coeff=1):
    return Element.from_word(ZZ, tuple(letters), coeff)


def test_word_measure_examples():
    rep = Path((1, 1), (1, 0), (2,))
    w = (letter(rep), letter(rep, ghost=True))
    assert word_measure(w) == (2, 1, 1, 0, 0)
    nonrep = Path((1, 1), (0, 1), (2,))
    w2 = (letter(nonrep), letter(nonrep, ghost=True))
    assert word_measure(w2) == (2, 1, 1, 0, 1)
    assert word_measure((letter(vertex((0, 0))),)) == (1, 0, 0, 0, 0)


def test_word_measure_counts_only_plain_paths():
    lam = Path((1, 1), (0, 0), (1, 2))
    w = (letter(lam, ghost=True), letter(lam), letter(vertex((0, 0))))
    # only the middle letter is a nonzero-degree non-ghost path
    assert word_measure(w) == (3, 2, 2, 1, 0)


def test_find_redex_r1_r2_r3():
    lam = Path((1, 1), (1, 0), (2,))
    mu = Path((1, 0), (0, 0), (1,))
    m = find_redex((letter(lam), letter(mu)))
    assert m == RedexMatch(RuleId.R1_COMPOSE, 0)
    m = find_redex((letter(lam), letter(lam)))   # sources/ranges mismatch
    assert m == RedexMatch(RuleId.R2_ORTHO, 0)
    nu = Path((1, 1), (0, 1), (1,))
    m = find_redex((letter(lam, ghost=True), letter(nu)))
    assert m.rule is RuleId.R3_GHOST_PATH and m.pos == 0


def test_find_redex_r4_instance():
    lam = Path((1, 0), (0, 0), (1,))
    m = find_redex((letter(lam), letter(lam, ghost=True)))
    assert m.rule is RuleId.R4_EXPAND and m.expand_degree == (1, 0)


def test_find_redex_r5_and_irreducible():
    nonrep = Path((1, 1), (0, 1), (2,))
    m = find_redex((letter(nonrep), letter(nonrep, ghost=True)))
    assert m.rule is RuleId.R5_REPRESENTATIVE
    rep = Path((1, 1), (1, 0), (2,))
    assert find_redex((letter(rep), letter(rep, ghost=True))) is None
    assert find_redex((letter(rep),)) is None


def test_find_redex_leftmost():
    v = vertex((0, 0))
    lam = Path((0, 0), (-1, 0), (1,))
    w = (letter(v), letter(v), letter(lam))
    m = find_redex(w)
    assert m.pos == 0 and m.rule is RuleId.R1_COMPOSE


def test_apply_rule_examples():
    v, w = vertex((0, 0)), vertex((1, 0))
    same = apply_rule(G22, ZZ, (letter(v), letter(v)),
                      find_redex((letter(v), letter(v))))
    assert same == elem(letter(v))
    zero = apply_rule(G22, ZZ, (letter(v), letter(w)),
                      find_redex((letter(v), letter(w))))
    assert zero.is_zero()
    lam = Path((1, 1), (1, 0), (2,))
    word = (letter(lam, ghost=True), letter(lam))
    one_step = apply_rule(G22, ZZ, word, find_redex(word))
    src = vertex((1, 0))
    assert one_step == elem(letter(src), letter(src))
    assert normalize(G22, elem(*word)) == elem(letter(src))


def test_apply_rule_ghost_compose():
    lam = Path((1, 1), (1, 0), (2,))
    mu = Path((1, 0), (0, 0), (1,))
    word = (letter(mu, ghost=True), letter(lam, ghost=True))
    m = find_redex(word)
    assert m.rule is RuleId.R1_COMPOSE
    got = apply_rule(G22, ZZ, word, m)
    assert got == elem(letter(compose(lam, mu), ghost=True))


def test_apply_rule_r4_expansion():
    lam = Path((1, 0), (0, 0), (1,))
    word = (letter(lam), letter(lam, ghost=True))
    m = find_redex(word)
    got = apply_rule(G22, ZZ, word, m)
    v = vertex((1, 0))
    xi = Path((1, 0), (0, 0), (2,))
    expected = elem(letter(v), letter(v)) - elem(letter(xi), letter(xi, ghost=True))
    assert got == expected


def test_r4_matches_vertex_expansion_definition():
    # every valid R4 instance equals lam' mu'* - sum over xi != 1 of
    # (lam' xi)(mu' xi)*, with xi running over graph.paths of degree n
    g = StandardKGraph(2, 3)
    cases = [
        ((), Path((1, 1), (0, 0), (1, 1)), Path((1, 1), (0, 0), (1, 1)), ()),
        ((letter(Path((3, 1), (2, 1), (2,))),),
         Path((2, 1), (0, 0), (3, 1, 1)), Path((1, 2), (0, 0), (2, 1, 1)), ()),
        ((), Path((2, 1), (0, 0), (2, 1, 1)), Path((2, 0), (0, 0), (1, 1)),
         (letter(Path((2, 1), (2, 0), (3,)), ghost=True),)),
    ]
    norms = set()
    for left, lam, mu, right in cases:
        word = left + (letter(lam), letter(mu, ghost=True)) + right
        for n in valid_expansions(lam, mu):
            norms.add(norm(n))
            lam1 = factorize(lam, vsub(lam.degree, n), n)[0]
            mu1 = factorize(mu, vsub(mu.degree, n), n)[0]
            terms = [(left + (letter(lam1), letter(mu1, ghost=True)) + right, 1)]
            for xi in g.paths(lam1.source, n):
                if xi.levels != (1,) * norm(n):
                    terms.append((left + (letter(compose(lam1, xi)),
                                          letter(compose(mu1, xi), ghost=True))
                                  + right, -1))
            m = RedexMatch(RuleId.R4_EXPAND, len(left), expand_degree=n)
            assert apply_rule(g, ZZ, word, m) == Element.from_terms(ZZ, terms)
    assert norms == {1, 2}


def test_apply_rule_rejects_stale_match():
    v = vertex((0, 0))
    with pytest.raises(Exception):
        apply_rule(G22, ZZ, (letter(v), letter(v)),
                   RedexMatch(RuleId.R3_GHOST_PATH, 0))


def test_apply_rule_raises_ordering_violation(monkeypatch):
    # a right-hand side whose measure does not decrease is refused
    lam = Path((1, 0), (0, 0), (1,))
    word = (letter(lam), letter(lam, ghost=True))
    monkeypatch.setattr(rewrite, "_rhs_words", lambda graph, w, m: [(w, 1)])
    with pytest.raises(OrderingViolation):
        apply_rule(G22, ZZ, word, find_redex(word))


def test_normalize_raises_ordering_violation(monkeypatch):
    # the check runs on the cached measures normalize hands apply_rule
    lam = Path((1, 0), (0, 0), (1,))
    monkeypatch.setattr(rewrite, "_rhs_words", lambda graph, w, m: [(w, 1)])
    with pytest.raises(OrderingViolation):
        normalize(G22, elem(letter(lam), letter(lam, ghost=True)))


def test_normalize_measures_each_word_once(monkeypatch):
    """Each distinct word is measured once and classified by find_redex
    once, and only the words that enter the heap are keyed: on the ladder
    that is the input word alone, as its 256 products are irreducible."""
    from collections import Counter

    d = 8
    lam = Path((d, d), (0, d), (1,) * d)
    mu = Path((d, d), (d, 0), (1,) * d)
    ladder = elem(letter(lam, ghost=True), letter(mu))
    g23, v = StandardKGraph(2, 3), (0, 0)
    kp4 = elem(letter(vertex(v))) - Element.from_terms(
        ZZ, [((letter(p), letter(p, ghost=True)), 1)
             for p in g23.paths(v, (2, 2))])
    calls = {name: Counter()
             for name in ("word_measure", "find_redex", "word_key")}

    def spy(name):
        real = getattr(rewrite, name)

        def counted(w):
            calls[name][w] += 1
            return real(w)
        return counted

    for name in calls:
        monkeypatch.setattr(rewrite, name, spy(name))
    for graph, x, size, keyed in ((G22, ladder, 2 ** d, 1),
                                  (g23, kp4, 0, None)):
        for counter in calls.values():
            counter.clear()
        assert len(normalize(graph, x).terms) == size
        assert set(calls["word_measure"].values()) == {1}
        assert set(calls["find_redex"].values()) == {1}
        if keyed is not None:
            assert sum(calls["word_key"].values()) == keyed


def test_normalize_spec_examples():
    g11 = StandardKGraph(1, 1)
    lam = Path((1,), (0,), (1,))
    assert (normalize(g11, Element.from_word(ZZ, (letter(lam), letter(lam, ghost=True))))
            == Element.from_word(ZZ, (letter(vertex((1,))),)))

    nonrep = Path((1, 1), (0, 1), (2,))
    rep = Path((1, 1), (1, 0), (2,))
    got = normalize(G22, elem(letter(nonrep), letter(nonrep, ghost=True)))
    assert got == elem(letter(rep), letter(rep, ghost=True))

    lam2 = Path((1, 0), (0, 0), (1,))
    got2 = normalize(G22, elem(letter(lam2), letter(lam2, ghost=True)))
    xi = Path((1, 0), (1, -1), (2,))
    assert got2 == (elem(letter(vertex((1, 0))))
                    - elem(letter(xi), letter(xi, ghost=True)))


def test_normalize_zero_and_coefficients():
    assert normalize(G22, Element.zero(ZZ)).is_zero()
    lam = Path((1, 0), (0, 0), (1,))
    x = elem(letter(lam), letter(lam, ghost=True), coeff=3)
    nf = normalize(G22, x)
    assert nf.terms[(letter(vertex((1, 0))),)] == 3


def test_normalize_idempotent_and_basis_shaped():
    rng = random.Random("idempotent")
    for _ in range(400):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        x = rand_element(rng, graph)
        nf = normalize(graph, x)
        assert normalize(graph, nf) == nf
        assert all(basis_shape(w) is not None for w in nf.terms)


def test_every_step_strictly_decreases_measure():
    rng = random.Random("monotone")
    violations = 0
    for _ in range(300):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        x = rand_element(rng, graph)
        steps = []
        normalize(graph, x, trace=steps.append)
        for step in steps:
            for produced in step.produced:
                if not produced < step.measure:
                    violations += 1
    assert violations == 0


def test_r5_decrements_nonrep_count_by_one_in_any_context():
    rng = random.Random("h-context")
    nonrep = Path((1, 1), (0, 1), (2,))
    base = (letter(nonrep), letter(nonrep, ghost=True))
    for _ in range(200):
        left = tuple(letter(rand_path(rng, G22, 0, 2),
                            ghost=rng.random() < 0.5) for _ in range(rng.randint(0, 2)))
        right = tuple(letter(rand_path(rng, G22, 0, 2),
                             ghost=rng.random() < 0.5) for _ in range(rng.randint(0, 2)))
        w = left + base + right
        m = match_at(w, len(left))
        assert m.rule is RuleId.R5_REPRESENTATIVE
        out = apply_rule(G22, ZZ, w, m)
        (w2, c2), = out.terms.items()
        before, after = word_measure(w), word_measure(w2)
        assert after.ar_value == before.ar_value - 1
        assert after[:4] == before[:4]


def test_r5_step_computes_the_representative_source_once(monkeypatch):
    """match_at derives the R5 match from the pair's kind, which reads the
    meet of the ranges and makes no rep_source call; building the
    representative makes the one call."""
    real, calls = canonical.rep_source, []

    def spy(key):
        calls.append(key)
        return real(key)

    nonrep = Path((1, 1), (0, 1), (2,))
    w = (letter(nonrep), letter(nonrep, ghost=True))
    monkeypatch.setattr(canonical, "rep_source", spy)
    out = apply_rule(G22, ZZ, w, RedexMatch(RuleId.R5_REPRESENTATIVE, 0),
                     measure=lambda word: word == w)
    assert len(calls) == 1
    (w2, c2), = out.terms.items()
    assert c2 == 1 and canonical.pair_kind(*w2) == "representative"


def test_valid_expansions_oracle():
    rng = random.Random("expansions")
    for _ in range(200):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        v = tuple(rng.randint(-2, 2) for _ in range(graph.k))
        lam = rand_path(rng, graph, 0, 2, source_v=v)
        mu = rand_path(rng, graph, 0, 2, source_v=v)
        t = rng.choice(degrees_upto(graph.k, 2))
        ones = graph.all_ones_path(v, t)
        lam, mu = compose(lam, ones), compose(mu, ones)
        if lam.is_vertex or mu.is_vertex:
            continue
        got = valid_expansions(lam, mu)
        for n in degrees_upto(graph.k, 4, 1):
            ok = (leq(n, meet(lam.degree, mu.degree))
                  and all(e == 1 for e in lam.levels[len(lam.levels) - norm(n):])
                  and all(e == 1 for e in mu.levels[len(mu.levels) - norm(n):]))
            assert (n in got) == ok
        # every valid expansion strips an all-ones factor
        for n in got:
            assert factorize(lam, vsub(lam.degree, n), n)[1].levels == (1,) * norm(n)



def test_is_valid_expansion_matches_the_list():
    """apply_rule checks an R4 degree against valid_expansions; it must
    refuse every degree that valid_expansions does not list."""
    rng = random.Random("expansion-check")
    checked = 0
    for _ in range(200):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        v = tuple(rng.randint(-2, 2) for _ in range(graph.k))
        ones = graph.all_ones_path(v, rng.choice(degrees_upto(graph.k, 2)))
        lam = compose(rand_path(rng, graph, 0, 2, source_v=v), ones)
        mu = compose(rand_path(rng, graph, 0, 2, source_v=v), ones)
        if lam.is_vertex or mu.is_vertex:
            continue
        got = valid_expansions(lam, mu)
        candidates = degrees_upto(graph.k, 4) + [
            (-1,) + (1,) * graph.k, (-1,) + (2,) * (graph.k - 1), (1,) * 3]
        word = (letter(lam), letter(mu, ghost=True))
        if getattr(find_redex(word), "rule", None) is RuleId.R4_EXPAND:
            for n in candidates:
                if n not in got:
                    checked += 1
                    with pytest.raises(RewriteFault):
                        apply_rule(graph, ZZ, word, RedexMatch(
                            RuleId.R4_EXPAND, 0, expand_degree=n))
    assert checked


def test_three_formulations_of_a_common_all_ones_factor_agree():
    """Over every two-letter word on the vertices, paths and ghosts of a
    3x3 window at degree <= 2: A's test on the last level entries agrees
    with R4's bounds on the trailing runs, the irreducible words are the
    pair basis words, and the measure counts exactly the 'nonrep' pairs."""
    window = uniform_window(2, -1, 1, 2)
    paths = window.paths(G22)
    pool = ([letter(G22.vertex(v)) for v in window.vertices()]
            + [letter(p) for p in paths]
            + [letter(p, ghost=True) for p in paths])
    kinds = set()
    for x in pool:
        for y in pool:
            w = (x, y)
            kind = canonical.pair_kind(x, y)
            kinds.add(kind)
            path_ghost = (not x.ghost and not x.path.is_vertex and y.ghost
                          and x.path.source == y.path.source)
            assert (kind == "unreduced") == (
                path_ghost and bool(valid_expansions(x.path, y.path)))
            assert (basis_shape(w) == "pair") == (find_redex(w) is None)
            assert (word_measure(w).ar_value == 1) == (kind == "nonrep")
    assert kinds == {None, "unreduced", "representative", "nonrep"}


def test_all_redexes_covers_r4_instances():
    lam0 = Path((2, 0), (1, 0), (2,))
    v = (1, 0)
    ones = G22.all_ones_path(v, (1, 0))
    lam = compose(lam0, ones)
    word = (letter(lam), letter(lam, ghost=True))
    ms = all_redexes(word)
    assert all(m.rule is RuleId.R4_EXPAND for m in ms)
    assert {m.expand_degree for m in ms} == {(1, 0)}
    # two trailing ones in the first coordinate only: two instances
    ones2 = G22.all_ones_path((2, 0), (2, 0))
    lam2 = compose(Path((3, 0), (2, 0), (2,)), ones2)
    word2 = (letter(lam2), letter(lam2, ghost=True))
    got = {m.expand_degree for m in all_redexes(word2)}
    assert got == {(1, 0), (2, 0)}


def test_randomized_strategy_agrees():
    rng = random.Random("strategy")
    for i in range(300):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        x = rand_element(rng, graph)
        det = normalize(graph, x)
        rand, _ = reference_normalize(graph, x, random.Random(f"inner:{i}"))
        assert det == rand


def test_step_guard_raises_termination_fault():
    v = vertex((0, 0))
    with pytest.raises(TerminationFault):
        normalize(G22, elem(letter(v), letter(v)), step_guard=0)


def test_normalize_merges_across_terms():
    # two different spellings of the same class member collapse to one term
    a = Path((1, 1), (0, 1), (2,))
    b = Path((1, 1), (1, 0), (2,))
    x = (elem(letter(a), letter(a, ghost=True))
         + elem(letter(b), letter(b, ghost=True)))
    nf = normalize(G22, x)
    assert nf.terms == {(letter(b), letter(b, ghost=True)): 2}


def test_normalize_is_linear():
    # splitting an element, normalizing the parts, and re-summing gives the
    # same result as normalizing the whole element
    rng = random.Random("linearity")
    for _ in range(200):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        x = rand_element(rng, graph)
        y = rand_element(rng, graph)
        assert normalize(graph, x + y) == normalize(graph, x) + normalize(graph, y)
