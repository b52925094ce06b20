"""Coefficient rings, letters, words, and free-algebra elements."""

import random

import pytest

from kumjian_pask.freealg import (Element, IntegerRing, Letter, ModularRing,
                                  RingMismatchError, letter, letter_key,
                                  ring_from_spec, word_key)
from kumjian_pask.kgraph import Path, vertex

ZZ = IntegerRing()


def _rings():
    return [IntegerRing(), ModularRing(2), ModularRing(5), ModularRing(6)]


def test_ring_axioms_fuzz():
    """from_int is a ring homomorphism from Z, which add_into relies on:
    reducing the operands first, or not, gives the same sum, product and
    negation, and a reduced value reduces to itself."""
    rng = random.Random("ring-axioms")
    for ring in _rings():
        for _ in range(1000):
            a, b = (rng.randint(-10**6, 10**6) for _ in range(2))
            ra, rb = ring.from_int(a), ring.from_int(b)
            assert ring.from_int(a + b) == ring.from_int(ra + rb)
            assert ring.from_int(a * b) == ring.from_int(ra * rb)
            assert ring.from_int(-a) == ring.from_int(-ra)
            assert ring.from_int(ra) == ra


def test_ring_equality_and_spec():
    assert IntegerRing() == IntegerRing()
    assert ModularRing(5) == ModularRing(5)
    assert ModularRing(5) != ModularRing(7)
    assert ring_from_spec("int") == IntegerRing()
    assert ring_from_spec("zmod:5") == ModularRing(5)
    assert len({IntegerRing(), IntegerRing(), ModularRing(5),
                ring_from_spec("zmod:5")}) == 2
    with pytest.raises(ValueError):
        ring_from_spec("zmod:x")
    with pytest.raises(ValueError):
        ring_from_spec("real")
    with pytest.raises(ValueError):
        ModularRing(1)


def _letters():
    v = vertex((0, 0))
    lam = Path((1, 1), (1, 0), (2,))
    mu = Path((1, 0), (0, 0), (1,))
    return v, lam, mu


def test_letter_canonicalization():
    v, lam, _ = _letters()
    assert letter(v, ghost=True) == letter(v)
    assert letter(lam, ghost=True).ghost
    with pytest.raises(ValueError):
        Letter(v, ghost=True)


def test_letter_order_tags():
    v, lam, _ = _letters()
    kv, kp, kg = (letter_key(x) for x in
                  (letter(v), letter(lam), letter(lam, ghost=True)))
    assert kv < kp < kg


def test_element_add_examples():
    v, lam, _ = _letters()
    x = Element.from_word(ZZ, (letter(lam),), 1)
    assert x + Element(ZZ) == x
    assert not (x + -x)
    assert not Element(ZZ) and bool(x)
    # the zero element is not the integer 0: == defers to the other side
    assert Element(ZZ) != 0
    assert Element(ZZ).__eq__(0) is NotImplemented
    z2 = ModularRing(2)
    y = Element.from_word(z2, (letter(lam),), 1)
    assert not (y + y)


def test_element_mul_examples():
    v, lam, mu = _letters()
    two_v = Element.from_word(ZZ, (letter(v),), 2)
    three_lam = Element.from_word(ZZ, (letter(lam),), 3)
    prod = two_v * three_lam
    assert prod.terms == {(letter(v), letter(lam)): 6}
    assert not (three_lam * Element(ZZ))
    lam_e = Element.from_word(ZZ, (letter(lam),))
    mu_e = Element.from_word(ZZ, (letter(mu),))
    nu_e = Element.from_word(ZZ, (letter(v),))
    assert (lam_e + mu_e) * nu_e == lam_e * nu_e + mu_e * nu_e


def test_element_ring_mismatch():
    lam = _letters()[1]
    x = Element.from_word(ZZ, (letter(lam),))
    y = Element.from_word(ModularRing(5), (letter(lam),))
    with pytest.raises(RingMismatchError):
        x + y
    with pytest.raises(RingMismatchError):
        x * y


def test_star_examples():
    v, lam, mu = _letters()
    w = (letter(lam), letter(mu, ghost=True))
    assert (Element.from_word(ZZ, w).star()
            == Element.from_word(ZZ, (letter(mu), letter(lam, ghost=True))))
    assert (Element.from_word(ZZ, (letter(v),)).star()
            == Element.from_word(ZZ, (letter(v),)))
    x = Element.from_terms(ZZ, [(w, 2), ((letter(v),), -1)])
    assert x.star().star() == x


def _rand_element(rng, ring, max_terms=3):
    verts = [vertex((a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    paths = [Path((1, 1), (1, 0), (lv,)) for lv in (1, 2)]
    paths += [Path((0, 0), (-1, 0), (lv,)) for lv in (1, 2)]
    pool = ([letter(v) for v in verts] + [letter(p) for p in paths]
            + [letter(p, ghost=True) for p in paths])
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        w = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        terms.append((w, ring.from_int(rng.choice((-2, -1, 1, 2)))))
    return Element.from_terms(ring, terms)


def test_element_algebra_fuzz():
    rng = random.Random("element-fuzz")
    for _ in range(1000):
        ring = rng.choice(_rings())
        x, y, z = (_rand_element(rng, ring) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert (x * y).star() == y.star() * x.star()


def test_canonical_term_order_is_total():
    rng = random.Random("word-order")
    for _ in range(300):
        x = _rand_element(rng, ZZ, 4)
        words = [w for w, _ in x.sorted_terms()]
        assert words == sorted(words, key=word_key)
        keys = [word_key(w) for w in words]
        assert len(set(keys)) == len(keys)


def test_from_terms_merges_and_drops_zero():
    lam = _letters()[1]
    w = (letter(lam),)
    x = Element.from_terms(ZZ, [(w, 2), (w, -2)])
    assert not x
    with pytest.raises(ValueError):
        Element.from_terms(ZZ, [((), 1)])


def test_convert_reduces_coefficients():
    lam = _letters()[1]
    x = Element.from_terms(ZZ, [((letter(lam),), 5), ((letter(lam), letter(lam)), 3)])
    y = x.convert(ModularRing(5))
    assert y.terms == {(letter(lam), letter(lam)): 3}
