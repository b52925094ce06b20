"""Free associative algebra on vertex, path, and ghost-path letters.

Generators are the vertices, the nonzero-degree paths, and a formal ghost
(adjoint) letter for each nonzero-degree path; vertices are self-adjoint.
Words are nonempty tuples of letters and elements are finite sums
coefficient * word over a commutative coefficient ring.  The algebra is
non-unital: there is no empty word, because the vertex set is infinite.

Coefficients are plain Python ints interpreted by a Ring instance, so all
arithmetic is exact.  Letters are tuples (path, ghost), validated only by
their public constructor Letter(...); letter and pair_word make valid
letters by construction and skip the check.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .kgraph import Coords, Path, _path, ascii_int, vadd


class RingMismatchError(ValueError):
    """Operands belong to different coefficient rings."""


class Ring:
    """Commutative ring with 1 on int values: the integers when modulus is 0,
    the integers mod modulus otherwise.  Every operation is the plain integer
    one followed by from_int, a ring homomorphism from Z."""

    modulus = 0

    def from_int(self, n: int) -> int:
        return n % self.modulus if self.modulus else n

    def add_into(self, acc: dict, key, c: int) -> None:
        """acc[key] += c, reduced; the entry is dropped when it becomes zero.
        c may be any int (an unreduced product, say)."""
        c = self.from_int(acc.get(key, 0) + c)
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)

    def __eq__(self, other):
        return type(other) is type(self) and other.modulus == self.modulus

    def __hash__(self):
        return hash((type(self), self.modulus))


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers."""

    name = "int"

    def __repr__(self):
        return "IntegerRing()"


class ModularRing(Ring):
    """Integers modulo n (n >= 2); values are residues in 0..n-1."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus

    @property
    def name(self) -> str:
        return f"zmod:{self.modulus}"

    def __repr__(self):
        return f"ModularRing({self.modulus})"


def ring_from_spec(spec: str) -> Ring:
    """Build a ring from a selector string: "int" or "zmod:N"."""
    if spec == "int":
        return IntegerRing()
    if spec.startswith("zmod:"):
        try:
            n = ascii_int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad modulus in ring selector {spec!r}") from None
        return ModularRing(n)
    raise ValueError(f"unknown ring selector {spec!r}")


# --------------------------------------------------------------------------
# Letters and words
# --------------------------------------------------------------------------

class Letter(namedtuple("Letter", "path ghost")):
    """A generator: a path, optionally marked as its ghost.

    Vertices are never ghosts (v* = v); ghost vertices are rejected so that
    letter equality is canonical.
    """

    __slots__ = ()

    def __new__(cls, path: Path, ghost: bool = False) -> Letter:
        if ghost and path.is_vertex:
            raise ValueError("vertices are self-adjoint; use ghost=False")
        return tuple.__new__(cls, (path, ghost))


def letter(path: Path, ghost: bool = False) -> Letter:
    """Letter factory that silently drops the ghost mark on vertices."""
    return tuple.__new__(Letter, (path, ghost and not path.is_vertex))


def letter_key(x: Letter) -> tuple:
    # tag order: vertex < path < ghost
    (r, s, levels), ghost = x
    return (0 if r == s else (2 if ghost else 1), r, s, levels)


Word = tuple[Letter, ...]


def pair_word(lam: Path, mu: Path) -> Word:
    """The two-letter word lam . mu* (letters canonicalize vertices)."""
    return (tuple.__new__(Letter, (lam, False)),
            tuple.__new__(Letter, (mu, not mu.is_vertex)))


def word_key(w: Word) -> tuple:
    """Total order key for words: length first, then letterwise."""
    return (len(w), tuple(letter_key(x) for x in w))


# --------------------------------------------------------------------------
# Elements
# --------------------------------------------------------------------------

class Element:
    """A finite sum of words with nonzero ring coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[Word, int] | None = None):
        self.ring = ring
        self.terms: dict[Word, int] = terms if terms is not None else {}

    @classmethod
    def from_terms(cls, ring: Ring,
                   items: Iterable[tuple[Word, int]]) -> "Element":
        """The sum of c * w; any int c is reduced into the ring."""
        acc: dict[Word, int] = {}
        for w, c in items:
            if not w:
                raise ValueError("words must be nonempty")
            ring.add_into(acc, w, c)
        return cls(ring, acc)

    @classmethod
    def from_word(cls, ring: Ring, w: Word, coeff: int = 1) -> "Element":
        return cls.from_terms(ring, [(w, coeff)])

    def _require_ring(self, other: "Element") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Element") -> "Element":
        self._require_ring(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            self.ring.add_into(acc, w, c)
        return Element(self.ring, acc)

    def __neg__(self) -> "Element":
        ring = self.ring
        return Element(ring,
                       {w: ring.from_int(-c) for w, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other: "Element") -> "Element":
        """Free product: bilinear extension of word concatenation."""
        self._require_ring(other)
        ring = self.ring
        acc: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                ring.add_into(acc, w1 + w2, c1 * c2)
        return Element(ring, acc)

    def star(self) -> "Element":
        """The anti-involution: reverse words, swap path/ghost tags."""
        return Element(self.ring, {
            tuple(letter(path, not ghost) for path, ghost in reversed(w)): c
            for w, c in self.terms.items()})

    def translated(self, t: Coords) -> "Element":
        """Every vertex of every letter moved by t.  A translate of a path
        is a path, and translation is injective on words, so nothing is
        checked or merged."""
        def move(x: Letter) -> Letter:
            r, s, lv = x.path
            return tuple.__new__(Letter, (_path(vadd(r, t), vadd(s, t), lv),
                                          x.ghost))
        return Element(self.ring, {tuple(map(move, w)): c
                                   for w, c in self.terms.items()})

    def convert(self, ring: Ring) -> "Element":
        """Reinterpret the coefficients in another ring via from_int."""
        return Element.from_terms(ring, self.terms.items())

    def sorted_terms(self) -> list[tuple[Word, int]]:
        return sorted(self.terms.items(), key=lambda item: word_key(item[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Element({self.ring!r}, {len(self.terms)} terms)"
