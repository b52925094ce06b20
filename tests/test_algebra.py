"""Quotient multiplication, basis recognition, and windowed enumeration."""

import itertools
import random
from collections import Counter

import pytest
from reference import basis_shape, reference_pair_words

from kumjian_pask.algebra import Window, enumerate_basis, uniform_window
from kumjian_pask.canonical import (ClassKey, PairError, class_key, in_A,
                                    pair_for_source, rep_source)
from kumjian_pask.freealg import Element, IntegerRing, letter, pair_word
from kumjian_pask.kgraph import (KGraphError, Path, StandardKGraph, compose,
                                 degrees_upto, join, norm, vadd, vsub, vertex)
from kumjian_pask.rewrite import normalize

ZZ = IntegerRing()
G22 = StandardKGraph(2, 2)
G12 = StandardKGraph(1, 2)


def elem(*letters, coeff=1):
    return Element.from_word(ZZ, tuple(letters), coeff)


def test_kp_mul_examples():
    lam = Path((1, 1), (1, 0), (2,))
    assert (normalize(G22, elem(letter(lam, ghost=True)) * elem(letter(lam)))
            == elem(letter(vertex((1, 0)))))
    v, w = vertex((0, 0)), vertex((1, 0))
    assert normalize(G22, elem(letter(v)) * elem(letter(v))) == elem(letter(v))
    assert not normalize(G22, elem(letter(v)) * elem(letter(w)))


def test_kp_mul_lemma11_pair():
    lam = Path((1, 1), (0, 1), (2,))
    mu = Path((1, 1), (1, 0), (2,))
    got = normalize(G22, elem(letter(lam, ghost=True)) * elem(letter(mu)))
    a1, b1 = Path((0, 1), (0, 0), (1,)), Path((1, 0), (0, 0), (1,))
    a2, b2 = Path((0, 1), (0, 0), (2,)), Path((1, 0), (0, 0), (2,))
    expected = (elem(letter(a1), letter(b1, ghost=True))
                + elem(letter(a2), letter(b2, ghost=True)))
    assert got == expected


def test_kp_star_examples():
    lam = Path((1, 1), (1, 0), (2,))
    mu = Path((1, 1), (1, 0), (1,))
    pair = elem(letter(lam), letter(mu, ghost=True))
    starred = normalize(G22, pair.star())
    assert starred == normalize(G22, elem(letter(mu), letter(lam, ghost=True)))
    v = elem(letter(vertex((2, -1))))
    assert normalize(G22, v.star()) == v
    rng = random.Random("kp-star")
    pool = enumerate_basis(G22, uniform_window(2, -1, 1, 2))
    for _ in range(100):
        x = Element.from_word(ZZ, rng.choice(pool), rng.choice((-2, 1, 3)))
        assert (normalize(G22, normalize(G22, x.star()).star())
                == normalize(G22, x))


def test_is_basis_word_examples():
    v = vertex((0, 0))
    assert basis_shape((letter(v),)) is not None
    lam = Path((1, 1), (1, 0), (2,))
    assert basis_shape((letter(lam),)) == "path"
    assert basis_shape((letter(lam, ghost=True),)) == "ghost"
    nonrep = Path((1, 1), (0, 1), (2,))
    assert basis_shape((letter(nonrep), letter(nonrep, ghost=True))) is None
    assert basis_shape((letter(lam), letter(lam, ghost=True))) == "pair"
    assert basis_shape((letter(lam, ghost=True), letter(lam))) is None
    assert basis_shape((letter(v), letter(lam))) is None
    assert basis_shape((letter(lam), letter(lam, ghost=True),
                        letter(v))) is None


def test_enumerate_basis_pair_count_spec_example():
    window = uniform_window(1, -2, 2, 1)
    words = enumerate_basis(G12, window, shape="pair",
                            range_left=(0,), range_right=(0,))
    assert len(words) == 3
    assert all(basis_shape(w) == "pair" for w in words)


def test_enumerate_basis_degree_bound_zero():
    window = uniform_window(1, -2, 2, 0)
    words = enumerate_basis(G12, window)
    assert [w for w in words] == [(letter(vertex((v,))),) for v in range(-2, 3)]


def test_enumerate_basis_path_counts():
    window = uniform_window(1, -2, 2, 2)
    words = enumerate_basis(G12, window, shape="path", range_left=(0,))
    by_degree = Counter(norm(w[0].path.degree) for w in words)
    assert by_degree[2] == 4   # level ** 2 paths of degree 2 from vertex 0
    assert by_degree[1] == 2


def test_enumerate_basis_deterministic_and_valid():
    window = uniform_window(2, -1, 1, 2)
    words = enumerate_basis(G22, window)
    assert words == enumerate_basis(G22, window)
    assert all(basis_shape(w) is not None for w in words)
    assert len(set(words)) == len(words)


def test_enumerate_basis_respects_window():
    window = uniform_window(2, -1, 1, 2)
    for w in enumerate_basis(G22, window):
        for x in w:
            assert window.contains(x.path.range)
        assert window.contains(w[-1].path.source)


def test_basis_closure_under_multiplication():
    rng = random.Random("closure")
    pool = enumerate_basis(G22, uniform_window(2, -1, 1, 2))
    for _ in range(300):
        x = Element.from_word(ZZ, rng.choice(pool))
        y = Element.from_word(ZZ, rng.choice(pool))
        prod = normalize(G22, x * y)
        assert all(basis_shape(w) is not None for w in prod.terms)


def test_lemma3_identity_in_quotient():
    # ghost(lam) * mu equals the brute-force pair sum for each q between
    # the join of the degrees and the join plus the all-ones vector
    rng = random.Random("lemma3-prop")
    for _ in range(100):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2)))
        v = tuple(rng.randint(-2, 2) for _ in range(graph.k))
        dl = rng.choice(degrees_upto(graph.k, 2))
        dm = rng.choice(degrees_upto(graph.k, 2))
        lam = Path(v, vsub(v, dl),
                   tuple(rng.randint(1, graph.level) for _ in range(norm(dl))))
        mu = Path(v, vsub(v, dm),
                  tuple(rng.randint(1, graph.level) for _ in range(norm(dm))))
        base = join(dl, dm)
        for bump in itertools.product((0, 1), repeat=graph.k):
            q = vadd(base, bump)
            lhs = Element.from_word(ZZ, (letter(lam, ghost=not lam.is_vertex),
                                         letter(mu)))
            terms = []
            for alpha in graph.paths(lam.source, vsub(q, dl)):
                for beta in graph.paths(mu.source, vsub(q, dm)):
                    if compose(lam, alpha) == compose(mu, beta):
                        terms.append(((letter(alpha),
                                       letter(beta, ghost=not beta.is_vertex)),
                                      1))
            rhs = Element.from_terms(ZZ, terms)
            assert not normalize(graph, lhs - rhs)


def test_associativity_and_antihomomorphism_sample():
    rng = random.Random("assoc-sample")
    pool = enumerate_basis(G22, uniform_window(2, -1, 1, 2))
    for _ in range(150):
        x, y, z = (Element.from_word(ZZ, rng.choice(pool),
                                     rng.choice((-1, 1, 2))) for _ in range(3))
        xy = normalize(G22, x * y)
        assert (normalize(G22, xy * z)
                == normalize(G22, x * normalize(G22, y * z)))
        assert (normalize(G22, xy.star())
                == normalize(G22, normalize(G22, y.star())
                             * normalize(G22, x.star())))


def test_window_validation():
    with pytest.raises(KGraphError):
        Window((0, 0), (-1, 0), 2)
    with pytest.raises(KGraphError):
        Window((0,), (1, 1), 2)
    with pytest.raises(KGraphError):
        Window((0,), (1,), -1)
    with pytest.raises(KGraphError):
        enumerate_basis(G22, uniform_window(1, -1, 1, 2))
    with pytest.raises(KGraphError):
        enumerate_basis(G22, uniform_window(2, -1, 1, 2), shape="pairs")
    # a range filter of the wrong rank or type is refused, not matched
    # against no vertex; (0, 0) lists 58 words and, for pairs on the
    # right, 41
    window = uniform_window(2, -1, 1, 2)
    assert len(enumerate_basis(G22, window, range_left=(0, 0))) == 58
    assert len(enumerate_basis(G22, window, shape="pair",
                               range_right=(0, 0))) == 41
    for bad, count in (((0,), 1), ((), 0), ((0, 0, 0), 3)):
        with pytest.raises(KGraphError,
                           match=f"expected 2 coordinates, got {count}"):
            enumerate_basis(G22, window, range_left=bad)
        with pytest.raises(KGraphError,
                           match=f"expected 2 coordinates, got {count}"):
            enumerate_basis(G22, window, shape="pair", range_right=bad)
    assert (enumerate_basis(G22, window, range_left=[0, 0])
            == enumerate_basis(G22, window, range_left=(0, 0)))
    assert (enumerate_basis(G22, window, shape="pair", range_right=[0, 0])
            == enumerate_basis(G22, window, shape="pair",
                               range_right=(0, 0)))


def test_algebra_imports_nothing_from_rewrite():
    """The basis layer never rewrites, and the class rule never reaches up:
    algebra.py names rewrite in no import, and canonical.py names neither
    algebra nor rewrite, as a module or as a name from the package."""
    import ast

    import kumjian_pask.algebra
    import kumjian_pask.canonical

    def imports(module):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert "kgraph" in imported
        return {name.split(".")[-1] for name in imported}

    imported = imports(kumjian_pask.algebra)
    assert "rewrite" not in imported, sorted(imported)
    imported = imports(kumjian_pask.canonical)
    assert not imported & {"algebra", "rewrite"}, sorted(imported)


def test_pair_enumeration_matches_brute_force():
    # classes found by enumerating reduced pairs with ranges in the window
    # and representative source in the window equal the emitted pair words
    window = uniform_window(2, -1, 1, 2)
    emitted = {w for w in enumerate_basis(G22, window, shape="pair")}
    keys = set()
    for w in emitted:
        lam, mu = w[0].path, w[1].path
        keys.add(class_key(lam, mu))
    assert len(keys) == len(emitted)
    # brute force over sources: every reduced pair anchored here maps to an
    # emitted class, provided its representative lies in the window
    for src in window.vertices():
        for dl in degrees_upto(2, 2, 1):
            for dm in degrees_upto(2, 2, 1):
                rl, rr = vadd(src, dl), vadd(src, dm)
                if not (window.contains(rl) and window.contains(rr)):
                    continue
                for lam in G22.paths(rl, dl):
                    if lam.source != src:
                        continue
                    for mu in G22.paths(rr, dm):
                        if mu.source != src or not in_A(lam, mu):
                            continue
                        key = class_key(lam, mu)
                        if window.contains(rep_source(key)):
                            assert key in keys


def _class_key_pairs(graph, window, range_left=None, range_right=None):
    """Reference pair enumeration through class keys: every realizable key
    with both ranges in the window and both level vectors within the degree
    bound whose representative source lies in the window, in key order
    (left range, right range, |left levels|, left levels, right levels)."""
    levels = range(1, graph.level + 1)
    out = []
    for rl in window.vertices():
        if range_left is not None and rl != range_left:
            continue
        for rr in window.vertices():
            if range_right is not None and rr != range_right:
                continue
            shift = norm(rr) - norm(rl)
            for a in range(1, window.degree_bound + 1):
                b = a + shift
                if not 1 <= b <= window.degree_bound:
                    continue
                for lvl in itertools.product(levels, repeat=a):
                    for lvr in itertools.product(levels, repeat=b):
                        key = ClassKey(rl, rr, lvl, lvr)
                        try:
                            src = rep_source(key)
                        except PairError:
                            continue
                        if window.contains(src):
                            out.append(pair_word(*pair_for_source(key, src)))
    return out


# Per rank, a uniform window and a per-coordinate one whose last coordinate
# is narrow, so lo[-1] cuts the representative source of keys that have
# other member sources in the window.
PAIR_WINDOWS = {
    1: [((-1,), (1,)), ((-2,), (1,))],
    2: [((-1, -1), (1, 1)), ((-2, 0), (1, 1))],
    3: [((0, 0, 0), (1, 1, 1)), ((-1, 0, 0), (1, 1, 0))],
}


@pytest.mark.parametrize("k,level", [(k, level) for k in (1, 2, 3)
                                     for level in (1, 2, 3)])
def test_pair_enumeration_matches_class_key_order(k, level):
    """enumerate_basis builds pair words from class keys; both the filter
    and sort over window paths and _class_key_pairs must agree with it."""
    graph = StandardKGraph(k, level)
    for lo, hi in PAIR_WINDOWS[k]:
        for bound in range(4):
            window = Window(lo, hi, bound)
            mid = window.vertices()[len(window.vertices()) // 2]
            for rl, rr in ((None, None), (mid, None), (None, hi), (mid, hi)):
                got = enumerate_basis(graph, window, shape="pair",
                                      range_left=rl, range_right=rr)
                case = (lo, hi, bound, rl, rr)
                assert got == reference_pair_words(graph, window, rl, rr), case
                assert got == _class_key_pairs(graph, window, rl, rr), case
