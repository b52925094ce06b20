"""Element grammar: canonical printing and round-tripping parsing."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kumjian_pask import syntax
from kumjian_pask.algebra import enumerate_basis, uniform_window
from kumjian_pask.freealg import Element, IntegerRing, ModularRing, letter
from kumjian_pask.kgraph import Path, StandardKGraph, vertex
from kumjian_pask.syntax import (ElementSyntaxError, format_element,
                                 format_path, format_word, parse_element)
from reference import assert_exact_words

ZZ = IntegerRing()
G22 = StandardKGraph(2, 2)
G12 = StandardKGraph(1, 2)
G13 = StandardKGraph(1, 3)
G23 = StandardKGraph(2, 3)


def test_format_examples():
    assert format_element(Element(ZZ)) == "0"
    v = Element.from_word(ZZ, (letter(vertex((0, 0))),))
    assert format_element(v) == "1 * v(0,0)"
    lam = Path((1, 1), (1, 0), (2,))
    pair = Element.from_word(ZZ, (letter(lam), letter(lam, ghost=True)))
    assert format_element(pair) == "1 * p[(1,1)->(1,0);2] . p[(1,1)->(1,0);2]*"
    assert format_path(vertex((2, -1))) == "v(2,-1)"
    assert format_path(Path((1, 1), (0, 0), (2, 1))) == "p[(1,1)->(0,0);2,1]"


def test_format_order_and_sign():
    lam = Path((1, 0), (1, -1), (2,))
    x = (Element.from_word(ZZ, (letter(lam), letter(lam, ghost=True)), -1)
         + Element.from_word(ZZ, (letter(vertex((1, 0))),)))
    assert format_element(x) == ("1 * v(1,0) + "
                                 "-1 * p[(1,0)->(1,-1);2] . p[(1,0)->(1,-1);2]*")


def test_parse_examples():
    got = parse_element("v(0,0)", G22, ZZ)
    assert got == Element.from_word(ZZ, (letter(vertex((0, 0))),))
    got = parse_element("1 * p[(1,1)->(1,0);2] . p[(1,1)->(1,0);2]*", G22, ZZ)
    lam = Path((1, 1), (1, 0), (2,))
    assert got == Element.from_word(ZZ, (letter(lam), letter(lam, ghost=True)))
    with pytest.raises(ElementSyntaxError) as err:
        parse_element("p[(1,1)->(0,0);3,1]", G22, ZZ)
    assert "level entry 3" in str(err.value)


def test_parse_sign_handling():
    lam_txt = "p[(1,1)->(1,0);2]"
    a = parse_element(f"{lam_txt} - {lam_txt}", G22, ZZ)
    assert not a
    b = parse_element(f"-2 * {lam_txt} + 3 * {lam_txt}", G22, ZZ)
    lam = Path((1, 1), (1, 0), (2,))
    assert b == Element.from_word(ZZ, (letter(lam),))
    c = parse_element(f"- {lam_txt}", G22, ZZ)
    assert c == Element.from_word(ZZ, (letter(lam),), -1)


def test_parse_zero_and_zero_coefficient():
    assert not parse_element("0", G22, ZZ)
    assert not parse_element("  0  ", G22, ZZ)
    assert not parse_element("0 * v(0,0)", G22, ZZ)


def test_parse_vertex_star_is_vertex():
    assert parse_element("v(0,0)*", G22, ZZ) == parse_element("v(0,0)", G22, ZZ)


def test_parse_errors_carry_positions():
    for text in ("", "v(0)", "v(0,0) .", "p[(1,1)->(1,0);2", "2 v(0,0)",
                 "v(0,0) v(0,0)", "q(0,0)", "1 *", "p[(1,1)->(2,2);1]",
                 "p[(0,0)->(0,0);]"):
        with pytest.raises(ElementSyntaxError) as err:
            parse_element(text, G22, ZZ)
        assert "at position" in str(err.value)


# Each accepted text with its formatted value (k = 1, level 2).
ACCEPTED = {
    # whitespace may separate any two tokens, the arrow's '-' and '>' too
    " p [ ( 1 ) - > ( 0 ) ; 2 ] * ": "1 * p[(1)->(0);2]*",
    "\u00a0v(0)\t.\nv(0)": "1 * v(0) . v(0)",
    "2*v(0).v(0)": "2 * v(0) . v(0)",
    # U+001C..U+001F are whitespace to \s, though int() does not strip them
    "p[(2)->(0);1\x1c,\x1f+2]": "1 * p[(2)->(0);1,2]",
    # int() drops the other space itself; a list with U+001C..U+001F is
    # stripped entry by entry, the other lists of its path are not
    "p[(\t2\n)->(\n0\t);1,\t2]": "1 * p[(2)->(0);1,2]",
    "p[(1)->(0);\u00a02\u3000]": "1 * p[(1)->(0);2]",
    "p[(\x1e2)->( 0 );\t1, 2\n]": "1 * p[(2)->(0);1,2]",
    # integers carry an optional sign, written with no space after it
    "v( +1 )": "1 * v(1)",
    "v(-0)": "1 * v(0)",
    "- -2 * v(0)": "2 * v(0)",
    "+2 * v(0)": "2 * v(0)",
    "- 2 * v(0)": "-2 * v(0)",
    "-v(0)": "-1 * v(0)",
    "v(0) - -2 * v(0)": "3 * v(0)",
    "007 * v(0)": "7 * v(0)",
    # '0' is the zero element only as the whole input
    " 0 ": "0",
    "0 * v(0)": "0",
    "0 * v(0) + v(1)": "1 * v(1)",
    # a vertex's star is ignored
    "v(0) *": "1 * v(0)",
    "v(0)* . p[(0)->(-1);1]*": "1 * v(0) . p[(0)->(-1);1]*",
}

# Each rejected text with the position of the generator, coefficient or
# operator that fails; semantic errors name the generator as before.
REJECTED = {
    "+v(0)": 0,
    "2 v(0)": 0,
    "v(0) v(0)": 5,
    "v(- 1)": 0,
    "v(²)": 0,
    "v(٣)": 0,
    "+٣ * v(0)": 0,
    "1_0 * v(0)": 0,
    "- - v(0)": 2,
    "v(0) ++ v(0)": 6,
    "v(0) + 0": 7,
    "0 + v(0)": 0,
    "-0": 1,
    "00": 0,
    "2 * * v(0)": 4,
    "v(0) . ": 7,
    "p[(1)->(0);1,2]": 0,
    "v(0) + p[(1)->(0);3]": 7,
    "v(0,0)": 0,
    "p[(0)->(1);1]": 0,
    "p[(0)->(0);1]": 0,
}


@pytest.mark.parametrize("text", ACCEPTED)
def test_grammar_accepts(text):
    assert format_element(parse_element(text, G12, ZZ)) == ACCEPTED[text]


@pytest.mark.parametrize("text", REJECTED)
def test_grammar_rejects(text):
    with pytest.raises(ElementSyntaxError) as err:
        parse_element(text, G12, ZZ)
    assert err.value.pos == REJECTED[text]


TOKENS = ["v", "p", "[", "]", "(", ")", "->", "-", ">", ";", ",", ".", "*",
          "+", "0", "1", "-1", "2", " ", "²", "٣", "\u00a0"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(st.text(alphabet="".join(TOKENS), max_size=30),
                 st.lists(st.sampled_from(TOKENS), max_size=20).map("".join)))
@example("v(²)")
@example("v(" + "9" * 5000 + ")")
@example("9" * 5000 + " * v(0)")
def test_parse_returns_element_or_positioned_error(text):
    try:
        assert isinstance(parse_element(text, G12, ZZ), Element)
    except ElementSyntaxError as err:
        assert 0 <= err.pos <= len(text)


def test_parse_word_rejects_trailing():
    x = parse_element("v(0,0) . p[(0,0)->(-1,0);1]", G22, ZZ)
    assert [len(w) for w in x.terms] == [2]
    with pytest.raises(ElementSyntaxError):
        parse_element("v(0,0) extra", G22, ZZ)


def test_modular_coefficients_print_as_residues():
    z5 = ModularRing(5)
    lam = Path((1, 1), (1, 0), (2,))
    x = Element.from_word(z5, (letter(lam),), z5.from_int(-2))
    assert format_element(x) == "3 * p[(1,1)->(1,0);2]"
    assert parse_element("-2 * p[(1,1)->(1,0);2]", G22, z5) == x


def _rand_element(rng, graph, ring):
    terms = []
    for _ in range(rng.randint(0, 3)):
        letters = []
        for _ in range(rng.randint(1, 3)):
            k = graph.k
            n = tuple(rng.randint(0, 2) for _ in range(k))
            r = tuple(rng.randint(-9, 9) for _ in range(k))
            p = Path(r, tuple(a - b for a, b in zip(r, n)),
                     tuple(rng.randint(1, graph.level) for _ in range(sum(n))))
            letters.append(letter(p, ghost=rng.random() < 0.5))
        terms.append((tuple(letters), ring.from_int(rng.randint(-9, 9))))
    return Element.from_terms(ring, terms)


def test_round_trip_random_elements():
    rng = random.Random("roundtrip")
    for _ in range(400):
        graph = StandardKGraph(rng.choice((1, 2)), rng.choice((1, 2, 3)))
        ring = rng.choice((ZZ, ModularRing(5)))
        x = _rand_element(rng, graph, ring)
        text = format_element(x)
        assert parse_element(text, graph, ring) == x
        assert format_element(parse_element(text, graph, ring)) == text


def _syntax_error(text, graph):
    with pytest.raises(ElementSyntaxError) as err:
        parse_element(text, graph, ZZ)
    return err.value


def test_memo_keys_on_the_graph():
    # a path read at one (k, level) is checked again at another
    assert parse_element("p[(1)->(0);3]", G13, ZZ)
    err = _syntax_error("p[(1)->(0);3]", G12)
    assert err.pos == 0 and "level entry 3 out of range 1..2" in str(err)
    assert parse_element("v(1,2)", G22, ZZ)
    err = _syntax_error("v(1,2)", G12)
    assert err.pos == 0 and "expected 1 coordinates, got 2" in str(err)


def test_memo_keeps_no_fault():
    for _ in range(2):
        assert _syntax_error("v(0) + p[(1)->(0);3]", G12).pos == 7
    lam = Path((1,), (0,), (2,))
    assert parse_element("v(0) + p[(1)->(0);2]", G12, ZZ) == (
        Element.from_word(ZZ, (letter(vertex((0,))),))
        + Element.from_word(ZZ, (letter(lam),)))


def test_path_and_ghost_share_a_memo_entry():
    (w, c), = parse_element("p[(1)->(0);1] . p[(1)->(0);1]*",
                            G12, ZZ).terms.items()
    lam = Path((1,), (0,), (1,))
    assert c == 1 and w == (letter(lam), letter(lam, ghost=True))


def _counting(monkeypatch, fn, calls, name):
    """Replace fn by a counting wrapper wherever the package binds it by
    name, as the benchmark tracer does."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("kumjian_pask"):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)


def test_cold_and_warm_memos_agree(monkeypatch):
    words = enumerate_basis(G23, uniform_window(2, -3, 3, 2))
    assert len(words) == 20983
    syntax._read_path.cache_clear()
    syntax.format_path.cache_clear()
    calls = Counter()
    _counting(monkeypatch, syntax.format_path, calls, "format_path")
    _counting(monkeypatch, syntax.letter, calls, "letter")

    def one_pass():
        calls.clear()
        lines = [format_word(w) for w in words]
        parsed = [parse_element(line, G23, ZZ) for line in lines]
        again = [format_element(x) for x in parsed]
        return lines, parsed, again, dict(calls)

    cold = one_pass()
    warm = one_pass()
    assert cold == warm
    lines, parsed, again, counts = cold
    assert [list(x.terms) for x in parsed] == [[w] for w in words]
    assert again == [f"1 * {line}" for line in lines]
    for x in parsed:
        assert_exact_words(x)
    letters = sum(map(len, words))
    assert counts == {"format_path": 2 * letters, "letter": letters}
