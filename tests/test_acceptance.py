"""Acceptance suite: one test per criterion, exact tolerances, one PASS
line each (visible with pytest -s; the test names mirror the criteria).

The random corpus shared by criteria 2, 3, and 4 is generated once per
module from a fixed seed: 5000 elements of at most 4 letters per word with
path degrees |d| <= 3, spread over the four (k, level) configurations in
{1,2} x {1,2}.
"""

import itertools
import random
from collections import defaultdict
from pathlib import Path as FilePath

import pytest

from kumjian_pask.algebra import basis_shape, enumerate_basis, uniform_window
from kumjian_pask.canonical import class_key, in_A, member_sources
from kumjian_pask.cli import main as cli_main
from kumjian_pask.freealg import Element, IntegerRing, ModularRing
from kumjian_pask.kgraph import (StandardKGraph, compose, degrees_upto, leq,
                                 meet, norm, vadd)
from kumjian_pask.rewrite import normalize
from kumjian_pask.verify import (check_confluence, check_kp_relations,
                                 check_lemma3, check_lemma8, check_lemma12,
                                 check_lemma13)
from reference import rand_element, reference_normalize

SEED = 1405
CONFIGS = ((1, 1), (1, 2), (2, 1), (2, 2))
GRAPHS = {cfg: StandardKGraph(*cfg) for cfg in CONFIGS}
ZZ = IntegerRing()


def _corpus_case(index):
    rng = random.Random(f"{SEED}:corpus:{index}")
    graph = GRAPHS[CONFIGS[rng.randrange(4)]]
    return graph, rand_element(rng, graph)


@pytest.fixture(scope="module")
def corpus():
    cases = []
    violations = 0
    for i in range(5000):
        graph, element = _corpus_case(i)
        steps = []
        normal_form = normalize(graph, element, trace=steps.append)
        for step in steps:
            for produced in step.produced:
                if not produced < step.measure:
                    violations += 1
        cases.append((graph, element, normal_form))
    return {"cases": cases, "violations": violations}


def test_criterion_1_kp_relation_soundness():
    for cfg, graph in GRAPHS.items():
        window = uniform_window(graph.k, -2, 2, 2)
        report = check_kp_relations(graph, window)
        assert report.passed, report.text_lines()
        assert report.cases > 0
    print("criterion 1 (KP relation soundness): PASS")


def test_criterion_2_normal_form_shape(corpus):
    assert len(corpus["cases"]) == 5000
    for graph, element, normal_form in corpus["cases"]:
        for word in normal_form.terms:
            assert basis_shape(word) is not None
    print("criterion 2 (normal-form shape on 5000 elements): PASS")


def test_criterion_3_termination_monotonicity(corpus):
    assert corpus["violations"] == 0
    print("criterion 3 (strict measure decrease, zero violations): PASS")


def test_criterion_4_empirical_confluence(corpus):
    for cfg, graph in GRAPHS.items():
        report = check_confluence(graph, SEED, 500)
        assert report.passed, report.text_lines()
        assert report.cases == 500
    mismatches = 0
    for i, (graph, element, normal_form) in enumerate(corpus["cases"]):
        randomized, _ = reference_normalize(
            graph, element, random.Random(f"{SEED}:strategy:{i}"))
        if randomized != normal_form:
            mismatches += 1
    assert mismatches == 0
    print("criterion 4 (2000 ambiguities + strategy agreement): PASS")


def test_criterion_5_lemma_oracles():
    graph = GRAPHS[(2, 2)]
    for check in (check_lemma3, check_lemma8, check_lemma12, check_lemma13):
        report = check(graph, SEED, 500)
        assert report.passed, report.text_lines()
        assert report.cases == 500
    print("criterion 5 (lemma oracles, 500 cases each): PASS")


def _window_pairs(graph, lo, hi, max_deg):
    """Every pair with a common source and both ranges inside [lo, hi]^k."""
    pairs = []
    for src in itertools.product(*[range(lo, hi + 1)] * graph.k):
        ups = []
        for n in degrees_upto(graph.k, max_deg, 1):
            r = vadd(src, n)
            if all(lo <= x <= hi for x in r):
                ups.extend(graph.paths(r, n))
        pairs.extend((lam, mu) for lam in ups for mu in ups)
    return pairs


def test_criterion_6_reduced_pair_oracle_equivalence():
    for cfg, graph in GRAPHS.items():
        pairs = _window_pairs(graph, -2, 2, 2)
        # Membership: no common trailing all-ones factor, by direct search
        for lam, mu in pairs:
            cap = meet(lam.degree, mu.degree)
            witness = False
            for n in degrees_upto(graph.k, norm(cap), 1):
                if not leq(n, cap):
                    continue
                j = norm(n)
                if (all(e == 1 for e in lam.levels[len(lam.levels) - j:])
                        and all(e == 1 for e in mu.levels[len(mu.levels) - j:])):
                    witness = True
                    break
            assert in_A(lam, mu) == (not witness)
        # Equivalence: the witness relation (extensions by all-ones paths of
        # degree |m| <= 3, via an inverted index) must equal key equality
        apairs = [p for p in pairs if in_A(*p)]
        index = defaultdict(set)
        extensions = []
        for idx, (lam, mu) in enumerate(apairs):
            values = set()
            for m in degrees_upto(graph.k, 3, 1):
                ones = graph.all_ones_path(lam.source, m)
                values.add((compose(lam, ones), compose(mu, ones)))
            extensions.append(values)
            for value in values:
                index[value].add(idx)
        by_key = defaultdict(set)
        for idx, pair in enumerate(apairs):
            by_key[class_key(*pair)].add(idx)
        for idx, pair in enumerate(apairs):
            witnesses = set()
            for value in extensions[idx]:
                witnesses |= index[value]
            assert witnesses == by_key[class_key(*pair)]
    print("criterion 6 (membership and equivalence oracles, exhaustive): PASS")


def test_criterion_7_pair_class_count():
    graph = GRAPHS[(1, 2)]
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            lams = graph.paths((0,), (a,))
            mus = graph.paths((b - a,), (b,))
            keys = set()
            for lam in lams:
                for mu in mus:
                    assert lam.source == mu.source
                    if in_A(lam, mu):
                        key = class_key(lam, mu)
                        assert member_sources(key) == [(-a,)]
                        keys.add(key)
            assert len(keys) == 3 * 2 ** (a + b - 2)
    print("criterion 7 (pair class count 3*2^(a+b-2)): PASS")


def test_criterion_8_quotient_algebra_laws():
    from kumjian_pask.algebra import kp_mul, kp_star
    z5 = ModularRing(5)
    pools = {cfg: enumerate_basis(graph, uniform_window(graph.k, -2, 2, 2))
             for cfg, graph in GRAPHS.items()}
    for i in range(2000):
        rng = random.Random(f"{SEED}:laws:{i}")
        cfg = CONFIGS[rng.randrange(4)]
        graph, pool = GRAPHS[cfg], pools[cfg]
        x, y, z = (Element.from_word(ZZ, rng.choice(pool),
                                     rng.choice((-2, -1, 1, 2)))
                   for _ in range(3))
        xy = kp_mul(graph, x, y)
        assert kp_mul(graph, xy, z) == kp_mul(graph, x, kp_mul(graph, y, z))
        assert kp_star(graph, xy) == kp_mul(graph, kp_star(graph, y),
                                            kp_star(graph, x))
        # identical over Z and Z/5 after coefficient reduction
        x5, y5, z5e = (e.convert(z5) for e in (x, y, z))
        xy5 = kp_mul(graph, x5, y5)
        assert xy5 == xy.convert(z5)
        assert kp_mul(graph, xy5, z5e) == kp_mul(graph, xy, z).convert(z5)
        assert kp_star(graph, xy5) == kp_star(graph, xy).convert(z5)
    print("criterion 8 (associativity and star law, Z and Z/5): PASS")


GOLDEN_DIR = FilePath(__file__).parent / "golden"

GOLDEN_INVOCATIONS = [
    ("01_normalize_representative",
     ["normalize", "--k", "2", "--level", "2",
      "p[(1,1)->(0,1);2] . p[(1,1)->(0,1);2]*"]),
    ("02_normalize_expand_trace",
     ["normalize", "--k", "2", "--level", "2", "--trace",
      "p[(1,0)->(0,0);1] . p[(1,0)->(0,0);1]*"]),
    ("03_normalize_vertex_resolution",
     ["normalize", "--k", "1", "--level", "2",
      "v(0) - 1 * p[(0)->(-1);1] . p[(0)->(-1);1]* - 1 * p[(0)->(-1);2] . p[(0)->(-1);2]*"]),
    ("04_normalize_zmod",
     ["normalize", "--k", "1", "--level", "2", "--ring", "zmod:3",
      "2 * p[(1)->(0);2] + 2 * p[(1)->(0);2]"]),
    ("05_normalize_ghost_product",
     ["normalize", "--k", "2", "--level", "2",
      "p[(1,1)->(0,1);2]* . p[(1,1)->(1,0);2]"]),
    ("06_normalize_structured",
     ["normalize", "--k", "2", "--level", "2", "--format", "structured",
      "p[(1,1)->(0,1);2] . p[(1,1)->(0,1);2]*"]),
    ("07_mul_ghost_path",
     ["mul", "--k", "2", "--level", "2",
      "p[(1,1)->(1,0);2]*", "p[(1,1)->(1,0);2]"]),
    ("08_mul_orthogonal_vertices",
     ["mul", "--k", "1", "--level", "1", "v(0)", "v(1)"]),
    ("09_mul_multiterm",
     ["mul", "--k", "1", "--level", "2",
      "p[(1)->(0);1] + p[(1)->(0);2]", "p[(1)->(0);1]* + p[(1)->(0);2]*"]),
    ("10_star_pair",
     ["star", "--k", "2", "--level", "2",
      "p[(1,1)->(1,0);2] . p[(1,1)->(1,0);1]*"]),
    ("11_star_structured",
     ["star", "--k", "1", "--level", "2", "--format", "structured",
      "p[(2)->(0);2,1]"]),
    ("12_basis_pair_filtered",
     ["basis", "--k", "1", "--level", "2", "--window", "-2..2",
      "--degree-bound", "1", "--shape", "pair",
      "--range-left", "0", "--range-right", "0"]),
    ("13_basis_small_all",
     ["basis", "--k", "1", "--level", "1", "--window", "-1..1",
      "--degree-bound", "1"]),
    ("14_basis_structured_pairs",
     ["basis", "--k", "2", "--level", "2", "--window", "0..1",
      "--degree-bound", "1", "--shape", "pair", "--format", "structured"]),
    ("15_basis_per_coordinate_window",
     ["basis", "--k", "2", "--level", "1", "--window", "0..1,-1..0",
      "--degree-bound", "0"]),
    ("16_check_lemma3",
     ["check", "lemma3", "--k", "2", "--level", "2",
      "--seed", "42", "--cases", "10"]),
    ("17_check_lemma8_structured",
     ["check", "lemma8", "--k", "2", "--level", "2",
      "--seed", "42", "--cases", "10", "--format", "structured"]),
    ("18_check_lemma12_lemma13",
     ["check", "lemma12", "--k", "1", "--level", "2",
      "--seed", "7", "--cases", "10"]),
    ("19_check_confluence",
     ["check", "confluence", "--k", "2", "--level", "2",
      "--seed", "42", "--cases", "25"]),
    ("20_check_all_structured",
     ["check", "all", "--k", "1", "--level", "2", "--seed", "3",
      "--cases", "5", "--window", "-2..2", "--degree-bound", "2",
      "--format", "structured"]),
]


def test_criterion_9_cli_determinism_golden(capsys, request):
    regen = request.config.getoption("--regen-golden")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_INVOCATIONS:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, f"{name}: exit {code}, stderr: {captured.err}"
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], f"{name}: output not reproducible"
        path = GOLDEN_DIR / f"{name}.out"
        if regen:
            path.write_text(outputs[0], encoding="utf-8")
        else:
            expected = path.read_text(encoding="utf-8")
            assert outputs[0] == expected, f"{name}: differs from golden file"
    assert len(GOLDEN_INVOCATIONS) == 20
    print("criterion 9 (20 byte-reproducible golden invocations): PASS")
