"""Lattice operations, path arithmetic, enumeration, and S-sets."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_graph_path

from kumjian_pask.freealg import IntegerRing
from kumjian_pask.kgraph import (KGraphError, Path, StandardKGraph, compose,
                                 degrees_upto, factorize, join, leq,
                                 levelvec_compatible, meet, monus, norm,
                                 trailing_ones, vadd, vertex, vsub)
from kumjian_pask.syntax import ElementSyntaxError, parse_element


def test_lattice_ops():
    assert meet((1, 0), (0, 1)) == (0, 0)
    assert join((1, 0), (0, 1)) == (1, 1)
    assert norm((2, 3)) == 5
    assert monus((1, 3), (2, 1)) == (0, 2)
    assert leq((0, 1), (1, 1)) and not leq((2, 0), (1, 1))
    assert vadd((1, -2), (3, 4)) == (4, 2)
    assert vsub((1, -2), (3, 4)) == (-2, -6)


def test_lattice_length_mismatch():
    with pytest.raises(KGraphError):
        meet((1, 0), (1,))
    with pytest.raises(KGraphError):
        join((1,), (1, 0))


def test_path_validation():
    Path((1, 1), (0, 0), (2, 1))
    with pytest.raises(KGraphError):
        Path((0, 0), (1, 0), ())        # source above range
    with pytest.raises(KGraphError):
        Path((1, 0), (0, 0), ())        # missing level entry
    with pytest.raises(KGraphError):
        Path((1, 0), (0, 0), (0,))      # entry below 1
    with pytest.raises(KGraphError):
        Path((1, 0), (0,), (1,))        # dimension mismatch


def test_vertex_is_degree_zero_path():
    v = vertex((2, -1))
    assert v.is_vertex and v.degree == (0, 0) and v.levels == ()


def test_compose_examples():
    a = Path((1, 1), (1, 0), (2,))
    b = Path((1, 0), (0, 0), (1,))
    assert compose(a, b) == Path((1, 1), (0, 0), (2, 1))
    v = vertex((0, 0))
    c = Path((0, 0), (-1, 0), (1,))
    assert compose(v, c) == c and compose(c, vertex((-1, 0))) == c
    with pytest.raises(KGraphError, match=r"cannot compose: "
                       r"source \(1, 0\) != range \(0, 0\)"):
        compose(a, c)


def test_compose_associative_and_degree_additive():
    rng = random.Random("compose-assoc")
    for _ in range(300):
        k = rng.choice((1, 2))
        v0 = tuple(rng.randint(-3, 3) for _ in range(k))
        chain = [v0]
        for _ in range(3):
            n = tuple(rng.randint(0, 2) for _ in range(k))
            chain.append(vsub(chain[-1], n))
        a, b, c = (Path(chain[i], chain[i + 1],
                        tuple(rng.randint(1, 2)
                              for _ in range(norm(vsub(chain[i], chain[i + 1])))))
                   for i in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, b).degree == vadd(a.degree, b.degree)


def test_factorize_examples():
    lam = Path((1, 1), (0, 0), (2, 1))
    mu, nu = factorize(lam, (0, 1), (1, 0))
    assert mu == Path((1, 1), (1, 0), (2,))
    assert nu == Path((1, 0), (0, 0), (1,))
    assert factorize(lam, lam.degree, (0, 0)) == (lam, vertex((0, 0)))
    assert factorize(lam, (0, 0), lam.degree) == (vertex((1, 1)), lam)
    with pytest.raises(KGraphError, match=r"split \(1, 1\) \+ \(1, 1\) "
                       r"does not equal degree \(1, 1\)"):
        factorize(lam, (1, 1), (1, 1))
    with pytest.raises(KGraphError, match="split degrees must lie in N"):
        factorize(lam, (2, 0), (-1, 1))


def test_factorization_property_exhaustive_small():
    # unique split: factorize(compose(mu, nu)) recovers the factors
    graph = StandardKGraph(2, 2)
    for m in degrees_upto(2, 2):
        for n in degrees_upto(2, 2):
            for mu in graph.paths((0, 0), m):
                for nu in graph.paths(vsub((0, 0), m), n):
                    assert factorize(compose(mu, nu), m, n) == (mu, nu)


def test_factorization_property_random_degree_four():
    rng = random.Random("factorize-4")
    for _ in range(500):
        k = rng.choice((1, 2))
        graph = StandardKGraph(k, rng.choice((1, 2, 3)))
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        d = rng.choice([x for x in degrees_upto(k, 4) if norm(x) <= 4])
        lam = graph.paths(v, d)[rng.randrange(graph.level ** norm(d))]
        m = tuple(rng.randint(0, di) for di in d)
        mu, nu = factorize(lam, m, vsub(d, m))
        assert compose(mu, nu) == lam
        assert mu.degree == m


def test_enumerate_paths_order_and_count():
    graph = StandardKGraph(2, 2)
    lvs = [p.levels for p in graph.paths((0, 0), (1, 1))]
    assert lvs == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert graph.paths((3, 3), (0, 0)) == [vertex((3, 3))]
    assert len(StandardKGraph(2, 3).paths((0, 0), (1, 0))) == 3


def test_enumerate_paths_count_formula():
    for k, level in ((1, 1), (1, 2), (2, 2), (2, 3)):
        graph = StandardKGraph(k, level)
        for n in degrees_upto(k, 4):
            assert len(graph.paths((0,) * k, n)) == level ** norm(n)


def test_all_ones_path():
    graph = StandardKGraph(2, 2)
    assert graph.all_ones_path((0, 0), (1, 1)) == Path((0, 0), (-1, -1), (1, 1))
    assert graph.all_ones_path((2, -1), (0, 0)) == vertex((2, -1))
    assert graph.all_ones_path((0, 0), (2, 0)) == Path((0, 0), (-2, 0), (1, 1))


def test_levelvec_compatible():
    assert levelvec_compatible((2, 1), (2, 1, 1))
    assert not levelvec_compatible((2, 1), (1, 2, 2))
    assert levelvec_compatible((), (1, 2))
    assert levelvec_compatible((), ())


def test_trailing_ones():
    assert trailing_ones((2, 1, 1)) == 2
    assert trailing_ones((1, 2)) == 0
    assert trailing_ones((1, 1)) == 2
    assert trailing_ones(()) == 0


def oracle_s_pairs(graph, lam, mu):
    """Brute force: all (alpha, beta) with lam o alpha = mu o beta of degree
    d(lam) join d(mu)."""
    q = join(lam.degree, mu.degree)
    found = set()
    for alpha in graph.paths(lam.source, vsub(q, lam.degree)):
        for beta in graph.paths(mu.source, vsub(q, mu.degree)):
            if compose(lam, alpha) == compose(mu, beta):
                found.add((alpha, beta))
    return found


def test_s_set_example():
    graph = StandardKGraph(2, 2)
    pairs = graph.s_set((0, 1), (1, 0), (0, 1), (1, 0), (), ())
    assert pairs == [
        (Path((0, 1), (0, 0), (1,)), Path((1, 0), (0, 0), (1,))),
        (Path((0, 1), (0, 0), (2,)), Path((1, 0), (0, 0), (2,))),
    ]
    # |m| = |p|: the shared suffix is empty, exactly one pair
    only = graph.s_set((1, 0), (0, 1), (1, 0), (0, 1), (2,), (1,))
    assert only == [(Path((1, 0), (0, 0), (2,)), Path((0, 1), (0, 0), (1,)))]
    with pytest.raises(KGraphError, match=r"need \|m\|-\|p\| = \|n\|-\|q\| "
                       r">= 0, got 1-2 and 1-2"):
        graph.s_set((0, 0), (0, 0), (1, 0), (1, 0), (1, 1), (1, 1))
    with pytest.raises(KGraphError, match=r"need \|m\|-\|p\| = \|n\|-\|q\| "
                       r">= 0, got 1-1 and 1-0"):
        graph.s_set((0, 0), (0, 0), (1, 0), (0, 1), (1,), ())


def test_s_set_shared_suffix_property():
    rng = random.Random("s-set-suffix")
    for _ in range(200):
        k = rng.choice((1, 2))
        graph = StandardKGraph(k, rng.choice((1, 2)))
        v = tuple(rng.randint(-2, 2) for _ in range(k))
        w = tuple(rng.randint(-2, 2) for _ in range(k))
        m = rng.choice(degrees_upto(k, 3))
        sp = rng.randint(0, norm(m))
        shared = norm(m) - sp
        n = rng.choice([d for d in degrees_upto(k, 3) if norm(d) >= shared])
        p = tuple(rng.randint(1, graph.level) for _ in range(sp))
        q = tuple(rng.randint(1, graph.level)
                  for _ in range(norm(n) - shared))
        for alpha, beta in graph.s_set(v, w, m, n, p, q):
            assert alpha.degree == m and beta.degree == n
            assert alpha.range == v and beta.range == w
            if shared:
                assert alpha.levels[-shared:] == beta.levels[-shared:]
            assert alpha.levels[:sp] == p and beta.levels[:len(q)] == q


def test_s_of_lemma11_example():
    graph = StandardKGraph(2, 2)
    lam = Path((1, 1), (0, 1), (2,))
    mu = Path((1, 1), (1, 0), (2,))
    expected = [
        (Path((0, 1), (0, 0), (1,)), Path((1, 0), (0, 0), (1,))),
        (Path((0, 1), (0, 0), (2,)), Path((1, 0), (0, 0), (2,))),
    ]
    got = graph.s_of(lam, mu)
    assert got == expected
    assert set(got) == oracle_s_pairs(graph, lam, mu)


def test_s_of_diagonal_and_incompatible():
    graph = StandardKGraph(2, 2)
    lam = Path((1, 1), (0, 1), (2,))
    assert graph.s_of(lam, lam) == [(vertex((0, 1)), vertex((0, 1)))]
    mu = Path((1, 1), (0, 1), (1,))
    assert graph.s_of(lam, mu) == []
    with pytest.raises(KGraphError):
        graph.s_of(lam, Path((2, 1), (1, 1), (1,)))
    with pytest.raises(KGraphError):
        graph.s_of(lam, vertex((1, 1)))


def test_s_of_matches_bruteforce_exhaustive_k1():
    graph = StandardKGraph(1, 2)
    paths = [p for d in (1, 2, 3) for p in graph.paths((0,), (d,))]
    for lam in paths:
        for mu in paths:
            assert set(graph.s_of(lam, mu)) == oracle_s_pairs(graph, lam, mu)


def test_s_of_matches_bruteforce_sampled_k2():
    rng = random.Random("s-of-oracle")
    for _ in range(300):
        level = rng.choice((1, 2))
        graph = StandardKGraph(2, level)
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        dl = rng.choice(degrees_upto(2, 3, 1))
        dm = rng.choice(degrees_upto(2, 3, 1))
        lam = Path(v, vsub(v, dl),
                   tuple(rng.randint(1, level) for _ in range(norm(dl))))
        mu = Path(v, vsub(v, dm),
                  tuple(rng.randint(1, level) for _ in range(norm(dm))))
        assert set(graph.s_of(lam, mu)) == oracle_s_pairs(graph, lam, mu)


def test_graph_factories_validate():
    graph = StandardKGraph(2, 2)
    with pytest.raises(KGraphError):
        graph.vertex((0,))
    with pytest.raises(KGraphError):
        graph.path((1, 0), (0, 0), (3,))   # level entry out of range
    with pytest.raises(KGraphError):
        StandardKGraph(0, 2)
    with pytest.raises(KGraphError):
        StandardKGraph(2, 0)


# (range, source, levels, message) for Path(...): one fault, then two at
# once, where the earlier check's message wins.
PATH_FAULTS = (
    ((1, 0), (0,), (1,), "range/source dimension mismatch"),
    ((1, 0), (0, 1), (), "source (0, 1) not <= range (1, 0)"),
    ((1, 1), (0, 0), (1,), "level vector has 1 entries, degree needs 2"),
    ((1, 0), (0, 0), (0,), "level entries must be >= 1"),
    ((1, 0), (0,), (0,), "range/source dimension mismatch"),
    ((1, 0), (0, 1), (2,), "source (0, 1) not <= range (1, 0)"),
    ((1, 1), (0, 0), (0,), "level vector has 1 entries, degree needs 2"),
    ((2, 1), (0, 0), (2, 0, 9), "level entries must be >= 1"),
)

# The same for StandardKGraph(2, 2).path, which checks the coordinate
# counts and the level entries before the Path checks.
GRAPH_PATH_FAULTS = (
    ((1, 1, 0), (0, 0), (1, 1), "expected 2 coordinates, got 3"),
    ((1, 1), (0,), (1, 1), "expected 2 coordinates, got 1"),
    ((1, 0), (0, 1), (), "source (0, 1) not <= range (1, 0)"),
    ((1, 1), (0, 0), (1,), "level vector has 1 entries, degree needs 2"),
    ((1, 0), (0, 0), (0,), "level entry 0 out of range 1..2"),
    ((1, 0), (0, 0), (3,), "level entry 3 out of range 1..2"),
    ((1, 1, 0), (0, 0), (3,), "expected 2 coordinates, got 3"),
    ((1, 0), (0, 1), (3,), "level entry 3 out of range 1..2"),
    ((1, 1), (0, 0), (0,), "level entry 0 out of range 1..2"),
    ((1, 1), (2, 2), (1,), "source (2, 2) not <= range (1, 1)"),
    ((2, 1), (0, 0), (2, 0, 9), "level entry 0 out of range 1..2"),
    ((2, 1), (0, 0), (9, 0, 2), "level entry 9 out of range 1..2"),
    ((2, 0), (0, 1), (1,), "source (0, 1) not <= range (2, 0)"),
)


@pytest.mark.parametrize("r,s,lv,message", PATH_FAULTS)
def test_path_names_the_first_fault(r, s, lv, message):
    with pytest.raises(KGraphError) as err:
        Path(r, s, lv)
    assert str(err.value) == message


@pytest.mark.parametrize("r,s,lv,message", GRAPH_PATH_FAULTS)
def test_graph_path_names_the_first_fault(r, s, lv, message):
    with pytest.raises(KGraphError) as err:
        StandardKGraph(2, 2).path(r, s, lv)
    assert str(err.value) == message


PATH_ARG_FAULTS = ("coordinate count", "source above range", "level count",
                   "entry 0", "entry above l")


@st.composite
def path_args(draw):
    """(graph, range, source, levels): a valid path of a graph of rank and
    level 1..3 with up to two faults from PATH_ARG_FAULTS, as tuples or
    lists."""
    k, level = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    n = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    s = [a - b for a, b in zip(r, n)]
    lv = draw(st.lists(st.integers(1, level), min_size=sum(n),
                       max_size=sum(n)))
    for fault in draw(st.lists(st.sampled_from(PATH_ARG_FAULTS), max_size=2,
                               unique=True)):
        if fault == "coordinate count":
            c = draw(st.sampled_from((r, s)))
            if len(c) > 1 and draw(st.booleans()):
                c.pop()
            else:
                c.append(0)
        elif fault == "source above range":
            i = draw(st.integers(0, min(len(r), len(s)) - 1))
            s[i] = r[i] + draw(st.integers(1, 2))
        elif fault == "level count":
            if lv and draw(st.booleans()):
                lv.pop()
            else:
                lv.append(1)
        else:
            e = 0 if fault == "entry 0" else level + 1
            i = draw(st.integers(0, len(lv)))
            lv[i:i + 1] = [e]
    as_lists = draw(st.booleans())
    args = (r, s, lv) if as_lists else tuple(map(tuple, (r, s, lv)))
    return (StandardKGraph(k, level), *args)


def _outcome(f, *args):
    try:
        p = f(*args)
    except KGraphError as exc:
        return type(exc), str(exc)
    return type(p), p


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(path_args())
def test_graph_path_matches_the_separate_checks(args):
    """The quick accept of StandardKGraph.path builds the same path as the
    separate checks, and on a fault the same exception and message win."""
    graph, r, s, lv = args
    assert (_outcome(graph.path, r, s, lv)
            == _outcome(reference_graph_path, graph, r, s, lv))


@pytest.mark.parametrize("r,s,lv,message",
                         [f for f in GRAPH_PATH_FAULTS if f[2]])
def test_parser_reports_the_graph_path_fault(r, s, lv, message):
    """The parser passes the factory's message on, at the generator."""
    def ints(c):
        return ",".join(map(str, c))
    text = f"v(0,0) . p[({ints(r)})->({ints(s)});{ints(lv)}]"
    with pytest.raises(ElementSyntaxError) as err:
        parse_element(text, StandardKGraph(2, 2), IntegerRing())
    assert err.value.pos == 9
    assert str(err.value) == f"at position 9: {message}"


def test_parser_reports_the_vertex_fault():
    with pytest.raises(ElementSyntaxError) as err:
        parse_element("v(0,0,0)", StandardKGraph(2, 2), IntegerRing())
    assert str(err.value) == "at position 0: expected 2 coordinates, got 3"


def test_degrees_upto_order():
    ds = degrees_upto(2, 2)
    assert ds[0] == (0, 0)
    assert ds == sorted(ds, key=lambda n: (sum(n), n))
    assert set(degrees_upto(2, 1, 1)) == {(0, 1), (1, 0)}


def test_degrees_upto_matches_the_filtered_product():
    for k in range(6):
        for bound in range(-1, 5):
            for min_norm in range(4):
                want = sorted((n for n in itertools.product(
                    range(bound + 1), repeat=k)
                    if min_norm <= sum(n) <= bound),
                    key=lambda n: (sum(n), n))
                assert degrees_upto(k, bound, min_norm) == want


def test_degrees_upto_is_fast_in_high_rank():
    # the filtered product would visit 4**16 tuples here
    start = time.perf_counter()
    ds = degrees_upto(16, 3)
    assert time.perf_counter() - start < 1.0
    assert len(ds) == math.comb(16 + 3, 3) == 969
    assert ds[0] == (0,) * 16 and ds[-1] == (3,) + (0,) * 15
