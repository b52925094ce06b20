"""Reduced pairs, class keys, representatives, and the definitional oracles."""

import itertools
import random
from collections import defaultdict

import pytest

from kumjian_pask.algebra import uniform_window
from kumjian_pask.canonical import (ClassKey, PairError, class_key, in_A,
                                    in_R, member_sources, pair_for_source,
                                    pair_kind, rep_source, representative)
from kumjian_pask.freealg import letter
from kumjian_pask.kgraph import (KGraphError, Path, StandardKGraph, compose,
                                 degrees_upto, leq, meet, norm, vadd)
from kumjian_pask.rewrite import valid_expansions


def oracle_in_A(graph, lam, mu):
    """Definitional search: no nonzero n with both paths ending in the
    all-ones path of degree n."""
    cap = meet(lam.degree, mu.degree)
    for n in degrees_upto(graph.k, norm(cap), 1):
        if not leq(n, cap):
            continue
        j = norm(n)
        if (all(e == 1 for e in lam.levels[len(lam.levels) - j:])
                and all(e == 1 for e in mu.levels[len(mu.levels) - j:])):
            return False
    return True


def oracle_witness(graph, a, b, bound=3):
    """Definitional equivalence: some m, n (nonzero, |.| <= bound) with
    a extended by all-ones of degree m equal to b extended by degree n."""
    for m in degrees_upto(graph.k, bound, 1):
        ea = (compose(a[0], graph.all_ones_path(a[0].source, m)),
              compose(a[1], graph.all_ones_path(a[1].source, m)))
        for n in degrees_upto(graph.k, bound, 1):
            eb = (compose(b[0], graph.all_ones_path(b[0].source, n)),
                  compose(b[1], graph.all_ones_path(b[1].source, n)))
            if ea == eb:
                return True
    return False


def test_in_A_examples():
    lam = Path((1, 1), (1, 0), (2,))
    assert in_A(lam, lam)
    both_ones = Path((1, 1), (0, 0), (1, 1))
    assert not in_A(both_ones, both_ones)
    a = Path((1, 0), (0, 0), (1,))
    b = Path((0, 1), (0, 0), (1,))
    assert in_A(a, b)  # disjoint degrees


def test_pair_domain_validation():
    lam = Path((1, 1), (1, 0), (2,))
    with pytest.raises(PairError):
        in_A(lam, Path((1, 1), (0, 1), (2,)))   # different sources
    with pytest.raises(PairError):
        in_A(lam, Path((1, 0), (1, 0), ()))     # vertex component
    with pytest.raises(PairError):
        class_key(Path((1, 1), (0, 0), (1, 1)), Path((1, 1), (0, 0), (1, 1)))


def test_class_key_examples():
    lam = Path((1, 1), (1, 0), (2,))
    lam2 = Path((1, 1), (0, 1), (2,))
    key = class_key(lam, lam)
    assert key == class_key(lam2, lam2)
    assert key == ClassKey((1, 1), (1, 1), (2,), (2,))
    a = Path((1, 0), (0, 0), (1,))
    b = Path((0, 1), (0, 0), (1,))
    singleton = class_key(a, b)
    assert member_sources(singleton) == [(0, 0)]
    assert singleton.left_range == a.range and singleton.right_levels == b.levels


def test_equivalent_examples():
    lam = Path((1, 1), (1, 0), (2,))
    lam2 = Path((1, 1), (0, 1), (2,))
    assert class_key(lam, lam) == class_key(lam2, lam2)
    assert class_key(lam, lam) == class_key(lam, lam)
    other = Path((1, 1), (1, 0), (1,))
    assert class_key(lam, lam) != class_key(lam, other)


def test_representative_examples():
    key = ClassKey((1, 1), (1, 1), (2,), (2,))
    assert member_sources(key) == [(1, 0), (0, 1)]
    assert rep_source(key) == (1, 0)
    assert representative(key) == (Path((1, 1), (1, 0), (2,)),
                                   Path((1, 1), (1, 0), (2,)))
    key2 = ClassKey((1, 0), (1, 0), (2,), (2,))
    assert member_sources(key2) == [(1, -1), (0, 0)]
    assert rep_source(key2) == (1, -1)
    # singleton class: forced representative at the meet of the ranges
    key3 = ClassKey((1, 0), (0, 1), (1,), (1,))
    assert rep_source(key3) == meet((1, 0), (0, 1))
    assert member_sources(key3) == [(0, 0)]


def test_representative_members_are_reduced():
    rng = random.Random("rep-members")
    for _ in range(300):
        k = rng.choice((1, 2))
        level = rng.choice((1, 2, 3))
        rl = tuple(rng.randint(-2, 2) for _ in range(k))
        rr = tuple(rng.randint(-2, 2) for _ in range(k))
        a = rng.randint(1, 3)
        b = a + norm(rr) - norm(rl)
        if not 1 <= b <= 3:
            continue
        key = ClassKey(rl, rr,
                       tuple(rng.randint(1, level) for _ in range(a)),
                       tuple(rng.randint(1, level) for _ in range(b)))
        try:
            sources = member_sources(key)
        except PairError:
            continue
        rep = representative(key)
        assert rep == pair_for_source(key, sources[0])
        for s in sources:
            lam, mu = pair_for_source(key, s)
            assert in_A(lam, mu)
            assert class_key(lam, mu) == key
        assert in_R(*rep)


def test_pair_for_source_validates_the_source():
    key = ClassKey((1, 0), (0, 1), (1,), (1,))
    assert pair_for_source(key, (0, 0)) == representative(key)
    # (1, -1) lies below (1, 0) but not below (0, 1)
    with pytest.raises(KGraphError):
        pair_for_source(key, (1, -1))


def test_unrealizable_keys():
    # source sums disagree
    with pytest.raises(PairError):
        rep_source(ClassKey((1, 0), (1, 0), (2,), (2, 2)))
    # deficit negative: |s| would exceed |meet of ranges|
    with pytest.raises(PairError):
        rep_source(ClassKey((2, 0), (0, 2), (1,), (1,)))
    # bottom entries both 1 with a positive deficit: nothing is reduced
    with pytest.raises(PairError):
        rep_source(ClassKey((1, 1), (1, 1), (1,), (1,)))
    # empty level vectors
    with pytest.raises(PairError):
        rep_source(ClassKey((1, 1), (1, 1), (), ()))


def test_in_R_examples():
    rep = Path((1, 1), (1, 0), (2,))
    assert in_R(rep, rep)
    non_rep = Path((1, 1), (0, 1), (2,))
    assert not in_R(non_rep, non_rep)
    a = Path((1, 0), (0, 0), (1,))
    b = Path((0, 1), (0, 0), (1,))
    assert in_R(a, b)  # singleton class
    with pytest.raises(PairError):
        in_R(Path((1, 1), (0, 0), (1, 1)), Path((1, 1), (0, 0), (1, 1)))


def _ambient_pairs(graph, lo, hi, max_deg):
    """All pairs with both ranges in the window and a common source."""
    box = itertools.product(*[range(lo, hi + 1)] * graph.k)
    pairs = []
    for src in box:
        ups = []
        for n in degrees_upto(graph.k, max_deg, 1):
            r = vadd(src, n)
            if all(lo <= x <= hi for x in r):
                ups.extend(graph.paths(r, n))
        pairs.extend((lam, mu) for lam in ups for mu in ups)
    return pairs


def test_in_A_matches_definitional_search():
    for k, level in ((1, 1), (1, 2), (2, 1), (2, 2)):
        graph = StandardKGraph(k, level)
        for lam, mu in _ambient_pairs(graph, -2, 2, 2):
            assert in_A(lam, mu) == oracle_in_A(graph, lam, mu)


def test_singleton_classes_lemma7_case2():
    # disjoint degrees force a one-element class
    graph = StandardKGraph(2, 2)
    for lam, mu in _ambient_pairs(graph, -1, 1, 3):
        if not in_A(lam, mu):
            continue
        if all(x == 0 for x in meet(lam.degree, mu.degree)):
            assert member_sources(class_key(lam, mu)) == [lam.source]


def test_equivalent_matches_witness_search_sampled():
    rng = random.Random("witness")
    graph = StandardKGraph(2, 2)
    pool = [(lam, mu) for lam, mu in _ambient_pairs(graph, -1, 1, 2)
            if in_A(lam, mu)]
    for _ in range(400):
        a = rng.choice(pool)
        b = rng.choice(pool)
        assert (class_key(*a) == class_key(*b)) == oracle_witness(graph, a, b)


def test_witness_relation_equals_key_partition():
    """The witness relation, computed for every ordered pair of enumerated
    reduced pairs (|d| <= 3) via an inverted index on extensions, equals the
    class-key partition."""
    for k, level in ((1, 2), (2, 2)):
        graph = StandardKGraph(k, level)
        apairs = [p for p in _ambient_pairs(graph, -1, 1, 3) if in_A(*p)]
        index = defaultdict(set)
        exts = []
        for idx, (lam, mu) in enumerate(apairs):
            vals = set()
            for m in degrees_upto(graph.k, 3, 1):
                ones = graph.all_ones_path(lam.source, m)
                vals.add((compose(lam, ones), compose(mu, ones)))
            exts.append(vals)
            for val in vals:
                index[val].add(idx)
        by_key = defaultdict(set)
        for idx, pair in enumerate(apairs):
            by_key[class_key(*pair)].add(idx)
        for idx, pair in enumerate(apairs):
            witnesses = set()
            for val in exts[idx]:
                witnesses |= index[val]
            assert witnesses == by_key[class_key(*pair)]


# (k, level, lo, hi, degree bound) of the windows pair_kind is pinned on
PAIR_KIND_WINDOWS = ((1, 3, -2, 2, 3), (2, 2, -1, 1, 3), (2, 2, -2, 2, 2),
                     (2, 3, -1, 1, 2), (3, 2, -1, 1, 2), (4, 2, 0, 1, 2))


@pytest.mark.parametrize("k,level,lo,hi,bound", PAIR_KIND_WINDOWS)
def test_pair_kind_matches_class_key_definition(k, level, lo, hi, bound):
    """Every ordered letter pair x . y of the window that meets at a vertex,
    except path.path and ghost.ghost: pair_kind names exactly the path.ghost
    pairs, 'unreduced' exactly when an all-ones expansion exists, and
    'representative' exactly when the path's source is the class's first
    member source."""
    graph = StandardKGraph(k, level)
    window = uniform_window(k, lo, hi, bound)
    letters = ([letter(graph.vertex(v)) for v in window.vertices()]
               + [letter(p, ghost) for p in window.paths(graph)
                  for ghost in (False, True)])
    by_left_vertex = defaultdict(list)  # the vertex a letter shows its left
    for y in letters:
        by_left_vertex[y.path.source if y.ghost else y.path.range].append(y)
    for x in letters:
        for y in by_left_vertex[x.path.range if x.ghost else x.path.source]:
            lam, mu = x.path, y.path
            if x.ghost == y.ghost and not (lam.is_vertex or mu.is_vertex):
                continue
            kind = pair_kind(x, y)
            if x.ghost or not y.ghost or lam.is_vertex:
                assert kind is None, (x, y)
            elif valid_expansions(lam, mu):
                assert kind == "unreduced", (x, y)
            else:
                first = member_sources(class_key(lam, mu))[0]
                assert kind == ("representative" if lam.source == first
                                else "nonrep"), (x, y)
