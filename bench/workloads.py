"""Seeded inputs and known answers for the three benchmark workloads.

Every input is an argv list for ``kpalg``, built from ``--seed`` alone.
Every answer is derived here, from the algebra's definitions and from
window arithmetic, without calling the program: a relation instance
multiplied on both sides lies in the ideal, so its normal form is ``0``;
a ghost/path ladder has the closed-form S-set sum; a case count or a
basis count follows from the window and the degree bound.

An op is one ``kpalg`` invocation.  ``finish`` (if set) runs inside the
timed region on the captured stdout; ``check`` compares the result with
the known answer and returns ``None`` or a one-line failure detail.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("quotient_ops", "check_all", "basis_roundtrip")


@dataclass
class Op:
    argv: list[str]
    group: str
    cases: int
    check: Callable[[int, str, object], Optional[str]]
    finish: Optional[Callable[[str], object]] = None


# --------------------------------------------------------------------------
# A text model of paths and words, independent of the package
# --------------------------------------------------------------------------

def _coords(c) -> str:
    return "(" + ",".join(str(x) for x in c) + ")"


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class _Letter:
    """A path from ``rng`` down to ``src`` with level vector ``lv``; a ghost
    when ``ghost`` is set.  An empty level vector is the vertex ``rng``."""

    rng: tuple
    src: tuple
    lv: tuple
    ghost: bool = False

    def text(self) -> str:
        if not self.lv:
            return "v" + _coords(self.rng)
        return (f"p[{_coords(self.rng)}->{_coords(self.src)};"
                f"{','.join(str(e) for e in self.lv)}]"
                + ("*" if self.ghost else ""))

    @property
    def outer(self):
        """The vertex presented to a left neighbour."""
        return self.src if self.ghost else self.rng

    @property
    def inner(self):
        """The vertex presented to a right neighbour."""
        return self.rng if self.ghost else self.src


def _vertex(v) -> _Letter:
    return _Letter(v, v, ())


def _path(r, n, lv, ghost=False) -> _Letter:
    return _Letter(r, _sub(r, n), tuple(lv), ghost and bool(lv))


def _word_text(word) -> str:
    return " . ".join(x.text() for x in word)


def _element_text(terms) -> str:
    """Input text of a sum of (coefficient, word) terms, coefficients +-1."""
    out = []
    for i, (c, word) in enumerate(terms):
        if i == 0:
            out.append(("-" if c < 0 else "") + _word_text(word))
        else:
            out.append((" - " if c < 0 else " + ") + _word_text(word))
    return "".join(out)


def _degrees(k: int, lo: int, hi: int) -> list[tuple]:
    """All n in N^k with lo <= |n| <= hi."""
    return [n for n in itertools.product(range(hi + 1), repeat=k)
            if lo <= sum(n) <= hi]


def _levels(level: int, count: int):
    return itertools.product(range(1, level + 1), repeat=count)


def _rand_path(rnd, k, level, r, lo=1, hi=2, ghost=False) -> _Letter:
    n = rnd.choice(_degrees(k, lo, hi))
    return _path(r, n, [rnd.randint(1, level) for _ in range(sum(n))], ghost)


# --------------------------------------------------------------------------
# quotient_ops
# --------------------------------------------------------------------------

BODY_GRAPHS = ((1, 2), (2, 2), (1, 3), (2, 3))
# (d, copies) for ladders and ((k, level, n), copies) for KP4 expansions:
# 26 of 120 ops.  Twelve ops of about 70 ms (d=8 ladders and (2,3,(2,3))
# expansions) fill latency ranks 5-16 from the top, so p90 (ranks 12-13)
# lands inside that cluster rather than on the tail's boundary.
TAIL_LADDERS = ((10, 1), (9, 2), (8, 6), (7, 2), (6, 2))
TAIL_KP4 = (((2, 3, (3, 3)), 1), ((2, 3, (2, 3)), 6), ((2, 2, (3, 3)), 2),
            ((1, 3, (4,)), 2), ((2, 3, (2, 2)), 1), ((1, 2, (5,)), 1))
BODY_OPS = 94
KINDS = ("normalize", "star", "mul")
RINGS = ("int", "zmod:5")


def _relation(rnd, k, level, v):
    """A seeded KP1-KP4 or Lemma 3 instance near v as (terms, left, right):
    a sum of words that is zero in the algebra, with the vertex its words
    present on the left and on the right."""
    kind = rnd.choice(("KP1", "KP2", "KP2", "KP2", "KP3", "KP4", "LEMMA3"))
    if kind == "KP1":
        w = v if rnd.random() < 0.5 else _add(v, rnd.choice(_degrees(k, 1, 1)))
        terms = [(1, [_vertex(v), _vertex(w)])]
        if w == v:
            terms.append((-1, [_vertex(v)]))
        return terms, v, w
    if kind == "KP2":
        lam = _rand_path(rnd, k, level, v)
        r, s = _vertex(lam.rng), _vertex(lam.src)
        g = _Letter(lam.rng, lam.src, lam.lv, True)
        form = rnd.randrange(6)
        if form == 0:
            return [(1, [r, lam]), (-1, [lam])], lam.rng, lam.src
        if form == 1:
            return [(1, [lam, s]), (-1, [lam])], lam.rng, lam.src
        if form == 2:
            return [(1, [s, g]), (-1, [g])], lam.src, lam.rng
        if form == 3:
            return [(1, [g, r]), (-1, [g])], lam.src, lam.rng
        mu = _rand_path(rnd, k, level, lam.src)
        comp = _Letter(lam.rng, mu.src, lam.lv + mu.lv)
        if form == 4:
            return [(1, [lam, mu]), (-1, [comp])], lam.rng, mu.src
        mg = _Letter(mu.rng, mu.src, mu.lv, True)
        return ([(1, [mg, g]), (-1, [_Letter(comp.rng, comp.src, comp.lv, True)])],
                mu.src, lam.rng)
    if kind == "KP3":
        n = rnd.choice(_degrees(k, 1, 2))
        lam = _path(v, n, [rnd.randint(1, level) for _ in range(sum(n))], True)
        mu = (_path(v, n, lam.lv) if rnd.random() < 0.5 else
              _path(v, n, [rnd.randint(1, level) for _ in range(sum(n))]))
        terms = [(1, [lam, mu])]
        if lam.lv == mu.lv:
            terms.append((-1, [_vertex(lam.src)]))
        return terms, lam.src, mu.src
    if kind == "KP4":
        return _kp4_terms(v, rnd.choice(_degrees(k, 1, 2)), level), v, v
    # Lemma 3: lam* mu is the sum of alpha beta* over the common extensions
    # lam alpha = mu beta of any degree q >= d(lam) join d(mu).
    lam = _rand_path(rnd, k, level, v, ghost=True)
    mu = _rand_path(rnd, k, level, v)
    dl, dm = _sub(lam.rng, lam.src), _sub(mu.rng, mu.src)
    q = _add(tuple(max(a, b) for a, b in zip(dl, dm)),
             rnd.choice(_degrees(k, 0, 1)))
    na, nb = _sub(q, dl), _sub(q, dm)
    terms = [(1, [lam, mu])]
    for a in _levels(level, sum(na)):
        for b in _levels(level, sum(nb)):
            if lam.lv + a == mu.lv + b:
                terms.append((-1, [_path(lam.src, na, a),
                                   _path(mu.src, nb, b, ghost=True)]))
    return terms, lam.src, mu.src


def _kp4_terms(v, n, level):
    """v - sum of lam lam* over every degree-n path lam at v."""
    terms = [(1, [_vertex(v)])]
    for lv in _levels(level, sum(n)):
        lam = _path(v, n, lv)
        terms.append((-1, [lam, _Letter(lam.rng, lam.src, lam.lv, True)]))
    return terms


def _chain_left(rnd, k, level, end, length):
    """A word of `length` letters whose rightmost letter presents `end`."""
    word = []
    for _ in range(length):
        if rnd.random() < 0.5:
            x = _rand_path(rnd, k, level, end, ghost=True)   # range == end
        else:
            n = rnd.choice(_degrees(k, 1, 2))
            x = _path(_add(end, n), n,
                      [rnd.randint(1, level) for _ in range(sum(n))])
        word.insert(0, x)
        end = x.outer
    return word


def _chain_right(rnd, k, level, start, length):
    """A word of `length` letters whose leftmost letter presents `start`."""
    word = []
    for _ in range(length):
        if rnd.random() < 0.5:
            x = _rand_path(rnd, k, level, start)             # range == start
        else:
            n = rnd.choice(_degrees(k, 1, 2))
            x = _path(_add(start, n), n,
                      [rnd.randint(1, level) for _ in range(sum(n))], True)
        word.append(x)
        start = x.inner
    return word


def _expect_zero(rc, out, _):
    if rc != 0:
        return f"exit status {rc}"
    if out.strip() != "0":
        return f"expected 0, got {out.strip()[:80]!r}"
    return None


def _expect_terms(expected: frozenset):
    def check(rc, out, _):
        if rc != 0:
            return f"exit status {rc}"
        got = out.strip().split(" + ")
        if len(got) != len(expected) or set(got) != expected:
            return (f"expected {len(expected)} terms, got {len(got)} "
                    f"({len(set(got) - expected)} unexpected)")
        return None
    return check


def _quotient_argv(kind, k, level, ring, text, left=None):
    """normalize / star take one element; mul takes (left, text)."""
    common = ["--k", str(k), "--level", str(level), "--ring", ring]
    if kind == "mul":
        return ["mul", *common, left, text]
    return [kind, *common, text]


def _body_op(rnd) -> Op:
    k, level = rnd.choice(BODY_GRAPHS)
    v = tuple(rnd.randint(-3, 3) for _ in range(k))
    terms, left, right = _relation(rnd, k, level, v)
    x = _chain_left(rnd, k, level, left, rnd.randint(1, 2))
    y = _chain_right(rnd, k, level, right, rnd.randint(1, 2))
    kind = rnd.choice(("normalize", "mul", "star"))
    if kind == "mul":
        text = _element_text([(c, w + y) for c, w in terms])
        argv = _quotient_argv(kind, k, level, "int", text, _word_text(x))
    else:
        text = _element_text([(c, x + w + y) for c, w in terms])
        argv = _quotient_argv(kind, k, level, "int", text)
    return Op(argv, "body", 1, _expect_zero)


def _ladder_op(rnd, d, ring, kind) -> Op:
    """lam* . mu for the all-ones paths lam of degree (d,0) and mu of degree
    (0,d) from a common range: the answer is the sum of alpha . beta* over
    every shared level vector r of length d, level**d terms."""
    x, y = (rnd.randint(-9, 9) for _ in range(2))
    top = (x + d, y + d)
    lam = _path(top, (d, 0), (1,) * d)
    mu = _path(top, (0, d), (1,) * d)
    lg = _Letter(lam.rng, lam.src, lam.lv, True)
    mg = _Letter(mu.rng, mu.src, mu.lv, True)
    expected = frozenset(
        "1 * " + _word_text([_path(lam.src, (0, d), r),
                             _path(mu.src, (d, 0), r, ghost=True)])
        for r in _levels(2, d))
    if kind == "mul":
        argv = _quotient_argv(kind, 2, 2, ring, mu.text(), lg.text())
    elif kind == "star":
        argv = _quotient_argv(kind, 2, 2, ring, _word_text([mg, lam]))
    else:
        argv = _quotient_argv(kind, 2, 2, ring, _word_text([lg, mu]))
    return Op(argv, "tail", 1, _expect_terms(expected))


def _kp4_op(rnd, k, level, n, ring, kind) -> Op:
    v = tuple(rnd.randint(-9, 9) for _ in range(k))
    argv = _quotient_argv(kind, k, level, ring,
                          _element_text(_kp4_terms(v, n, level)))
    return Op(argv, "tail", 1, _expect_zero)


def quotient_ops(seed: int) -> list[Op]:
    rnd = random.Random(f"quotient_ops:{seed}")
    ops = [_body_op(rnd) for _ in range(BODY_OPS)]
    # The tail's kinds and rings follow the copy index, not the seed:
    # `mul v KP4` costs several times `normalize KP4`, and a seeded choice
    # would make the pass time depend on the seed.
    for d, copies in TAIL_LADDERS:
        for i in range(copies):
            ops.append(_ladder_op(rnd, d, RINGS[i % 2], KINDS[i % 3]))
    for (k, level, n), copies in TAIL_KP4:
        for i in range(copies):
            ops.append(_kp4_op(rnd, k, level, n, RINGS[i % 2],
                               ("normalize", "star")[i // 2 % 2]))
    rnd.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# check_all
# --------------------------------------------------------------------------

# Two `check all` runs per graph at different seeds, plus `check kp`: seven
# ops, so the median latency falls inside the (2,2) pair, not between
# two unlike ops.
CHECK_GRAPHS = ((1, 2), (2, 2), (2, 3))
CHECK_RUNS = 2
CHECK_CASES = 40
CHECK_SPAN = 2          # `check all` window: SPAN+1 points per coordinate
KP_SPAN = 6             # `check kp --k 2 --level 2` window: 7x7
SAMPLERS = ("lemma3", "lemma8", "lemma12", "lemma13", "confluence")
DEGREE_BOUND = 3


def _box(lo, hi):
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def kp_case_count(k: int, level: int, lo, hi, degree_bound: int) -> int:
    """Instances `check kp` runs over the box [lo, hi] with paths of degree
    1 <= |n| <= min(degree_bound, 2) whose endpoints stay in the box:
    KP1 on every vertex pair, four unit laws per path, two compositions
    per composable pair, KP3 on same-degree pairs at each range, and KP4
    at every vertex and degree."""
    def inside(v):
        return all(a <= x <= b for a, x, b in zip(lo, v, hi))

    degs = _degrees(k, 1, min(degree_bound, 2))
    verts = _box(lo, hi)
    out_count = {v: sum(level ** sum(n) for n in degs if inside(_sub(v, n)))
                 for v in verts}
    in_count = {v: sum(level ** sum(n) for n in degs if inside(_add(v, n)))
                for v in verts}
    kp1 = len(verts) ** 2
    unit = 4 * sum(out_count.values())
    compose = 2 * sum(in_count[v] * out_count[v] for v in verts)
    kp3 = sum(level ** (2 * sum(n)) for v in verts for n in degs
              if inside(_sub(v, n)))
    kp4 = len(verts) * len(degs)
    return kp1 + unit + compose + kp3 + kp4


def _expect_reports(expected: list[tuple[str, int]]):
    def check(rc, out, _):
        if rc != 0:
            return f"exit status {rc}"
        try:
            reports = json.loads(out)["reports"]
        except (ValueError, KeyError, TypeError):
            return "output is not a reports document"
        got = [(r.get("name"), r.get("cases")) for r in reports]
        if got != expected:
            return f"expected {expected}, got {got}"
        failed = [r["name"] for r in reports if r.get("failures")]
        if failed:
            return f"failing checks {failed}"
        return None
    return check


def _window_flag(lo, hi) -> str:
    return ",".join(f"{a}..{b}" for a, b in zip(lo, hi))


def check_all(seed: int) -> list[Op]:
    rnd = random.Random(f"check_all:{seed}")
    ops = []
    for k, level in [g for g in CHECK_GRAPHS for _ in range(CHECK_RUNS)]:
        lo = tuple(rnd.randint(-5, 5) for _ in range(k))
        hi = tuple(a + CHECK_SPAN for a in lo)
        argv = ["check", "all", "--k", str(k), "--level", str(level),
                "--seed", str(rnd.randrange(10 ** 6)),
                "--cases", str(CHECK_CASES), "--window", _window_flag(lo, hi),
                "--degree-bound", str(DEGREE_BOUND), "--format", "structured"]
        expected = [(name, CHECK_CASES) for name in SAMPLERS]
        expected.append(("kp", kp_case_count(k, level, lo, hi, DEGREE_BOUND)))
        ops.append(Op(argv, f"all-k{k}l{level}", sum(c for _, c in expected),
                      _expect_reports(expected)))
    lo = tuple(rnd.randint(-5, 5) for _ in range(2))
    hi = tuple(a + KP_SPAN for a in lo)
    count = kp_case_count(2, 2, lo, hi, DEGREE_BOUND)
    ops.append(Op(["check", "kp", "--k", "2", "--level", "2",
                   "--window", _window_flag(lo, hi),
                   "--degree-bound", str(DEGREE_BOUND),
                   "--format", "structured"],
                  "kp-k2l2", count, _expect_reports([("kp", count)])))
    rnd.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# basis_roundtrip
# --------------------------------------------------------------------------

# (k, level, span, degree bound, format): the window is span+1 points per
# coordinate at a seeded anchor.
# An odd number of sizes keeps the median latency inside one op's samples.
BASIS_SIZES = ((2, 2, 3, 3, "text"), (2, 3, 4, 2, "structured"),
               (1, 2, 6, 5, "text"), (2, 2, 6, 2, "text"),
               (1, 3, 6, 3, "structured"), (2, 3, 2, 2, "text"),
               (2, 3, 3, 2, "text"))


def basis_counts(k: int, level: int, lo, hi, degree_bound: int) -> dict:
    """Basis words per shape in the box [lo, hi]: vertices, paths and
    ghosts with both endpoints inside, and one path.ghost word per class
    key (ranges rl, rr and level vectors of lengths a, b >= 1) whose
    representative source, the meet of the ranges lowered on its last
    coordinate by the deficit, lies in the box.  A key with a positive
    deficit and both level vectors ending in 1 has no reduced member."""
    verts = _box(lo, hi)
    paths = sum(level ** sum(n)
                for n in _degrees(k, 1, degree_bound)
                for v in verts
                if all(x - m >= a for x, m, a in zip(v, n, lo)))
    pairs = 0
    for rl in verts:
        for rr in verts:
            meet = tuple(min(a, b) for a, b in zip(rl, rr))
            for a in range(1, degree_bound + 1):
                b = a + sum(rr) - sum(rl)
                if not 1 <= b <= degree_bound:
                    continue
                deficit = sum(meet) - (sum(rl) - a)
                if deficit < 0 or meet[-1] - deficit < lo[-1]:
                    continue
                keys = level ** (a + b)
                if deficit > 0:
                    keys -= level ** (a + b - 2)
                pairs += keys
    return {"vertex": len(verts), "path": paths, "ghost": paths,
            "pair": pairs}


def _shape(line: str) -> str:
    if " . " in line:
        return "pair"
    if line.startswith("v"):
        return "vertex"
    return "ghost" if line.endswith("*") else "path"


def _roundtrip(syntax, graph, ring, fmt):
    """Parse every printed word back and format it again (timed)."""
    def finish(out: str):
        lines = (json.loads(out)["words"] if fmt == "structured"
                 else out.splitlines())
        again = []
        for line in lines:
            (word, _), = syntax.parse_element(line, graph, ring).terms.items()
            again.append(syntax.format_word(word))
        return lines, again
    return finish


def _expect_basis(expected: dict):
    def check(rc, out, result):
        if rc != 0:
            return f"exit status {rc}"
        lines, again = result
        if again != lines:
            bad = next(i for i, (a, b) in enumerate(zip(lines, again)) if a != b)
            return f"line {bad} does not round-trip: {lines[bad]!r}"
        if len(set(lines)) != len(lines):
            return "duplicate words"
        got = dict.fromkeys(expected, 0)
        for line in lines:
            got[_shape(line)] += 1
        if got != expected:
            return f"counts {got}, expected {expected}"
        return None
    return check


def basis_roundtrip(seed: int, package) -> list[Op]:
    rnd = random.Random(f"basis_roundtrip:{seed}")
    ops = []
    for k, level, span, degree_bound, fmt in BASIS_SIZES:
        lo = tuple(rnd.randint(-5, 5) for _ in range(k))
        hi = tuple(a + span for a in lo)
        counts = basis_counts(k, level, lo, hi, degree_bound)
        argv = ["basis", "--k", str(k), "--level", str(level),
                "--window", _window_flag(lo, hi),
                "--degree-bound", str(degree_bound), "--format", fmt]
        finish = _roundtrip(package.syntax,
                            package.StandardKGraph(k, level),
                            package.IntegerRing(), fmt)
        ops.append(Op(argv, f"basis-k{k}l{level}", sum(counts.values()),
                      _expect_basis(counts), finish))
    rnd.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, package) -> list[Op]:
    if workload == "quotient_ops":
        return quotient_ops(seed)
    if workload == "check_all":
        return check_all(seed)
    return basis_roundtrip(seed, package)
