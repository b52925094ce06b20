"""Properties of the normal form that the engine relies on, checked on
random free-algebra elements: translation equivariance, reduction from Z
to Z/n, the star anti-involution in the quotient, linearity, and the
scheduler's rewrite order."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kumjian_pask.algebra import kp_mul, kp_star
from kumjian_pask.freealg import (Element, IntegerRing, ModularRing, letter,
                                 ring_from_spec, word_key)
from kumjian_pask.kgraph import (Path, StandardKGraph, compose, degrees_upto,
                                 norm, vadd, vertex, vsub)
from kumjian_pask.rewrite import (TraceStep, apply_rule, find_redex,
                                  normalize, word_measure)

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
def graph_and(draw, count):
    """A graph and count elements over it."""
    graph = draw(st.sampled_from(GRAPHS))
    return graph, [draw(elements(graph)) for _ in range(count)]


def translate(x: Element, t) -> Element:
    return Element.from_terms(x.ring, [
        (tuple(letter(Path(vadd(y.path.range, t), vadd(y.path.source, t),
                           y.path.levels), y.ghost) for y in w), c)
        for w, c in x.terms.items()])


@SETTINGS
@given(graph_and(1), st.data())
def test_normal_form_is_translation_equivariant(case, data):
    graph, (x,) = case
    t = data.draw(coords(graph.k, -3, 3))
    assert normalize(graph, translate(x, t)) == translate(normalize(graph, x),
                                                          t)


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
    assert kp_star(graph, kp_star(graph, x)) == normalize(graph, x)


@SETTINGS
@given(graph_and(2))
def test_star_reverses_products(case):
    graph, (x, y) = case
    assert (kp_star(graph, kp_mul(graph, x, y))
            == kp_mul(graph, kp_star(graph, y), kp_star(graph, x)))


@SETTINGS
@given(graph_and(2), st.sampled_from(("int", "zmod:5")))
def test_normal_form_is_linear(case, ring_spec):
    """NF(x - y) = NF(x) - NF(y): a relation lhs - rhs normalizes to 0
    exactly when both sides have the same normal form."""
    graph, (x, y) = case
    ring = ring_from_spec(ring_spec)
    x, y = x.convert(ring), y.convert(ring)
    assert normalize(graph, x - y) == normalize(graph, x) - normalize(graph, y)


def max_scan_normalize(graph, elem):
    """The normal form and trace of a scheduler that rescans pending for the
    word of largest (measure, word order) at every step."""
    ring, pending, done, trace = elem.ring, dict(elem.terms), {}, []
    while pending:
        w = max(pending, key=lambda u: (word_measure(u), word_key(u)))
        c = pending.pop(w)
        m = find_redex(w)
        if m is None:
            ring.add_into(done, w, c)
            continue
        piece = apply_rule(graph, ring, w, m)
        trace.append(TraceStep(m.rule, m.pos, word_measure(w),
                               tuple(word_measure(u) for u in piece.terms)))
        for u, cu in piece.terms.items():
            ring.add_into(pending, u, c * cu)
    return Element(ring, done), trace


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
    assert (got, trace) == max_scan_normalize(graph, x)
