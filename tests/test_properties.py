"""Properties of the normal form that the engine relies on, checked on
random free-algebra elements: translation equivariance, reduction from Z
to Z/n, the star anti-involution in the quotient, linearity, and the
scheduler's rewrite order.  Also the invariants of the tuple-backed paths
and letters: builders that skip validation only make valid values, and
every word the engine stores is a tuple of exact Letter and Path
instances."""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kumjian_pask import canonical, rewrite
from kumjian_pask.algebra import enumerate_basis, uniform_window
from kumjian_pask.freealg import (Element, IntegerRing, Letter, ModularRing,
                                 letter, pair_word, ring_from_spec)
from kumjian_pask.kgraph import (Path, StandardKGraph, compose, degrees_upto,
                                 factorize, norm, vadd, vertex, vsub)
from kumjian_pask.rewrite import normalize
from kumjian_pask.syntax import format_element, parse_element
from reference import assert_exact_words, reference_normalize

ZZ = IntegerRing()
GRAPHS = [StandardKGraph(k, level) for k in (1, 2) for level in (1, 2)]
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)


def coords(k, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * k)


@st.composite
def words(draw, graph):
    """A word of 1-3 letters of degree |d| <= 2.  Three in four letters
    after the first are chained to the previous letter's inner vertex
    (source of a path, range of a ghost), so that words have redexes; the
    others have their range in the unit box."""
    word = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from(degrees_upto(graph.k, 2)))
        ghost = draw(st.booleans())
        if word and draw(st.integers(0, 3)):
            prev = word[-1].path
            anchor = prev.range if word[-1].ghost else prev.source
            r = vadd(anchor, n) if ghost else anchor
        else:
            r = draw(coords(graph.k, 0, 1))
        levels = draw(st.lists(st.integers(1, graph.level),
                               min_size=norm(n), max_size=norm(n)))
        word.append(letter(Path(r, vsub(r, n), tuple(levels)), ghost))
    return tuple(word)


def elements(graph):
    """1-3 terms, each a word with a small coefficient."""
    coeff = st.sampled_from((-2, -1, 1, 2, 3))
    return st.lists(st.tuples(words(graph), coeff), min_size=1,
                    max_size=3).map(lambda terms: Element.from_terms(ZZ, terms))


@st.composite
def graph_and(draw, count, graphs=GRAPHS):
    """A graph drawn from graphs, and count elements over it."""
    graph = draw(st.sampled_from(graphs))
    return graph, [draw(elements(graph)) for _ in range(count)]


def translate(x: Element, t) -> Element:
    return Element.from_terms(x.ring, [
        (tuple(letter(Path(vadd(y.path.range, t), vadd(y.path.source, t),
                           y.path.levels), y.ghost) for y in w), c)
        for w, c in x.terms.items()])


@SETTINGS
@given(graph_and(1, GRAPHS + [StandardKGraph(2, 3)]), st.data())
def test_normal_form_is_translation_equivariant(case, data):
    """NF(x + t) = NF(x) + t.  check_kp_relations relies on it at every
    level, so level 3 is drawn too, and builds its translates with
    Element.translated, which must agree with translate and be undone by
    -t."""
    graph, (x,) = case
    t = data.draw(coords(graph.k, -3, 3))
    assert normalize(graph, translate(x, t)) == translate(normalize(graph, x),
                                                          t)
    assert x.translated(t) == translate(x, t)
    assert x.translated(t).translated(tuple(-c for c in t)) == x


@SETTINGS
@given(graph_and(1))
def test_normal_form_commutes_with_reduction_mod_n(case):
    graph, (x,) = case
    nf = normalize(graph, x)
    for n in (2, 3, 5):
        zn = ModularRing(n)
        assert normalize(graph, x.convert(zn)) == nf.convert(zn)


@SETTINGS
@given(graph_and(1))
def test_star_is_an_involution_in_the_quotient(case):
    graph, (x,) = case
    assert (normalize(graph, normalize(graph, x.star()).star())
            == normalize(graph, x))


@SETTINGS
@given(graph_and(2))
def test_star_reverses_products(case):
    graph, (x, y) = case
    assert (normalize(graph, normalize(graph, x * y).star())
            == normalize(graph, normalize(graph, y.star())
                         * normalize(graph, x.star())))


@SETTINGS
@given(graph_and(2), st.sampled_from(("int", "zmod:5")))
def test_normal_form_is_linear(case, ring_spec):
    """NF(x - y) = NF(x) - NF(y): a relation lhs - rhs normalizes to 0
    exactly when both sides have the same normal form."""
    graph, (x, y) = case
    ring = ring_from_spec(ring_spec)
    x, y = x.convert(ring), y.convert(ring)
    assert normalize(graph, x - y) == normalize(graph, x) - normalize(graph, y)


def _reentry_case():
    """x - y = (l1 l2 v0) - (v2 l v0) + (l v0 v0) for l = l1 l2 on (1, 2):
    in that pop order each word composes to l v0, so l v0 enters pending,
    cancels and enters again, and its stale heap entry is popped before
    l."""
    l1, l2 = Path((2,), (1,), (1,)), Path((1,), (0,), (2,))
    lam, v0, v2 = compose(l1, l2), letter(vertex((0,))), letter(vertex((2,)))
    x = Element.from_terms(ZZ, [((letter(l1), letter(l2), v0), 1),
                                ((letter(lam), v0, v0), 1)])
    y = Element.from_word(ZZ, (v2, letter(lam), v0))
    return StandardKGraph(1, 2), [x, y]


@SETTINGS
@given(graph_and(2), st.sampled_from(("int", "zmod:5")))
@example(_reentry_case(), "int")
@example(_reentry_case(), "zmod:5")
def test_normalize_rewrites_in_max_scan_order(case, ring_spec):
    """The heap pops words in the order of a max scan, also when a word
    cancels in pending and enters it again."""
    graph, (x, y) = case
    ring = ring_from_spec(ring_spec)
    x = x.convert(ring) - y.convert(ring)
    trace = []
    got = normalize(graph, x, trace=trace.append)
    assert (got, trace) == reference_normalize(graph, x)


# --------------------------------------------------------------------------
# Tuple-backed paths and letters
# --------------------------------------------------------------------------

@st.composite
def paths(draw, graph, r=None, s=None, lo_norm=0):
    """A path of degree lo_norm <= |n| <= 3; its range is r, or s + n, or a
    point of the box -2..2."""
    n = draw(st.sampled_from(degrees_upto(graph.k, 3, lo_norm)))
    if r is None:
        r = draw(coords(graph.k, -2, 2)) if s is None else vadd(s, n)
    return Path(r, vsub(r, n), draw(level_vectors(graph, norm(n))))


def level_vectors(graph, size):
    return st.lists(st.integers(1, graph.level), min_size=size,
                    max_size=size).map(tuple)


@SETTINGS
@given(st.builds(StandardKGraph, st.integers(1, 3), st.integers(1, 3)),
       st.data())
def test_unvalidated_builders_make_valid_paths_and_letters(graph, data):
    """vertex, compose, factorize, paths, all_ones_path, s_set, _s_set and
    s_of build paths without the validator, and letter and pair_word
    build letters without it; Path(*p) and Letter(*x) run it on
    each output.  canonical.representative, which validates, is checked
    too."""
    draw = data.draw
    lam = draw(paths(graph))
    built = [compose(lam, draw(paths(graph, r=lam.source)))]
    m = tuple(draw(st.integers(0, d)) for d in lam.degree)
    built += factorize(lam, m, vsub(lam.degree, m))
    n = draw(st.sampled_from(degrees_upto(graph.k, 2)))
    built += graph.paths(lam.range, n)
    built.append(graph.all_ones_path(lam.range, n))
    m, n = (draw(st.sampled_from(degrees_upto(graph.k, 3))) for _ in "mn")
    shared = draw(st.integers(0, min(norm(m), norm(n), 2)))
    shape = (lam.range, draw(coords(graph.k, -2, 2)), m, n,
             draw(level_vectors(graph, norm(m) - shared)),
             draw(level_vectors(graph, norm(n) - shared)))
    # _s_set is s_set without the argument checks
    assert graph._s_set(*shape) == graph.s_set(*shape)
    built += [p for pair in graph._s_set(*shape) for p in pair]
    # s_of is empty unless the level vectors agree at the top, so mu copies
    # lam's top entries
    lam, mu = (draw(paths(graph, r=lam.range, lo_norm=1)) for _ in "lm")
    j = min(len(lam.levels), len(mu.levels))
    mu = Path(mu.range, mu.source, lam.levels[:j] + mu.levels[j:])
    built += [p for pair in graph.s_of(lam, mu) for p in pair]
    src = draw(coords(graph.k, -2, 2))
    built.append(vertex(src))
    a, b = (draw(paths(graph, s=src, lo_norm=1)) for _ in "ab")
    if canonical.in_A(a, b):
        built += canonical.representative(canonical.class_key(a, b))
    for p in built:
        assert type(p) is Path and Path(*p) == p
    letters = [letter(p, ghost) for p in built for ghost in (False, True)]
    letters += pair_word(lam, mu) + pair_word(vertex(src), a)
    for x in letters:
        assert type(x) is Letter and type(x.path) is Path and Letter(*x) == x


@contextmanager
def checking_produced_words():
    """Check every word that a rewrite step adds to normalize's pending sum."""
    real = rewrite.apply_rule

    def spy(*args, **kwargs):
        piece = real(*args, **kwargs)
        assert_exact_words(piece)
        return piece

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "apply_rule", spy)
        yield


def assert_exact_normalize_and_parse(graph, x):
    with checking_produced_words():
        nf = normalize(graph, x)
    assert_exact_words(nf)
    for y in (x, nf):
        assert_exact_words(parse_element(format_element(y), graph, x.ring))
    return nf


@SETTINGS
@given(graph_and(1))
def test_words_are_exact_letter_tuples(case):
    graph, (x,) = case
    assert_exact_normalize_and_parse(graph, x)


def test_words_are_exact_on_the_ladder_kp4_and_the_basis():
    d, g22 = 8, StandardKGraph(2, 2)
    ladder = Element.from_word(ZZ, (
        letter(Path((d, d), (0, d), (1,) * d), ghost=True),
        letter(Path((d, d), (d, 0), (1,) * d))))
    assert len(assert_exact_normalize_and_parse(g22, ladder).terms) == 2 ** d
    g23, v = StandardKGraph(2, 3), (0, 0)
    lams = g23.paths(v, (2, 2))
    kp4 = Element.from_word(ZZ, (letter(vertex(v)),)) - Element.from_terms(
        ZZ, [((letter(p), letter(p, ghost=True)), 1) for p in lams])
    assert not assert_exact_normalize_and_parse(g23, kp4)
    # each λλ* alone has a nonzero normal form, so its words get checked
    for p in lams[:3]:
        assert_exact_normalize_and_parse(
            g23, Element.from_word(ZZ, (letter(p), letter(p, ghost=True))))
    for graph in (g22, StandardKGraph(1, 3)):
        basis = enumerate_basis(graph, uniform_window(graph.k, -1, 1, 2))
        assert_exact_words(Element.from_terms(ZZ, [(w, 1) for w in basis]))
        assert_exact_words(parse_element(
            " + ".join(format_element(Element.from_word(ZZ, w))
                       for w in basis), graph, ZZ))
