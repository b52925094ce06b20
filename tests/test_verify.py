"""The verification suites themselves: pass on defaults, reproduce from
seeds, and report failures faithfully."""

from functools import partial

import pytest
from reference import reference_kp_instances

from kumjian_pask.algebra import Window, uniform_window
from kumjian_pask.freealg import Element, IntegerRing, ModularRing
from kumjian_pask.kgraph import StandardKGraph
from kumjian_pask.verify import (CHECKS, CheckReport, _run_cases,
                                 check_confluence, check_kp_relations,
                                 check_lemma3, check_lemma8, check_lemma13,
                                 run_all)

GRAPHS = [StandardKGraph(k, level) for k in (1, 2) for level in (1, 2)]


@pytest.mark.parametrize("check", list(CHECKS.values()),
                         ids=list(CHECKS.keys()))
def test_randomized_checks_pass_everywhere(check):
    for graph in GRAPHS:
        report = check(graph, seed=11, cases=40)
        assert report.passed, report.text_lines()
        # with k = level = 1 there is no reduced pair for lemma8 to sample;
        # at level 1 both of lemma13's sums are empty
        no_cases = ((check is check_lemma8 and graph.k == graph.level == 1)
                    or (check is check_lemma13 and graph.level == 1))
        assert report.cases == (0 if no_cases else 40)


def test_kp_relations_pass_everywhere():
    for graph in GRAPHS:
        window = uniform_window(graph.k, -1, 1, 2)
        report = check_kp_relations(graph, window)
        assert report.passed, report.text_lines()
        assert report.cases > 0


def test_checks_pass_over_modular_ring():
    graph = StandardKGraph(2, 2)
    for check in (check_lemma3, check_lemma8, check_confluence):
        report = check(graph, seed=3, cases=25, ring=ModularRing(5))
        assert report.passed


def test_reports_reproducible_from_seed():
    graph = StandardKGraph(2, 2)
    one = check_confluence(graph, seed=99, cases=30)
    two = check_confluence(graph, seed=99, cases=30)
    assert one.as_dict() == two.as_dict()
    assert one.elapsed >= 0


def test_case_index_runs_single_case():
    graph = StandardKGraph(2, 2)
    report = check_lemma13(graph, seed=5, cases=500, case_index=17)
    assert report.cases == 1 and report.passed


def test_sampled_rerun_costs_the_same_at_any_index(monkeypatch):
    """A sampled check is one unit, so a rerun reaches its case by
    arithmetic: the last of ten million cases draws only its own RNG and
    reruns in well under a second."""
    from kumjian_pask import verify

    real, drawn = verify._case_rng, []

    def spy(seed, name, index):
        drawn.append(index)
        return real(seed, name, index)

    monkeypatch.setattr(verify, "_case_rng", spy)
    report = check_lemma3(StandardKGraph(2, 2), seed=0, cases=10**7,
                          case_index=10**7 - 1)
    assert report.cases == 1 and report.passed
    assert drawn == [10**7 - 1]
    assert report.elapsed < 1.0


def test_negative_case_counts_are_refused():
    """A check reports the cases it ran, so cases=-1 is an error, also
    where there is nothing to sample; cases=0 passes with no cases."""
    graph, empty = StandardKGraph(1, 2), StandardKGraph(1, 1)
    calls = [(name, partial(check, graph)) for name, check in CHECKS.items()]
    calls += [("lemma8", partial(check_lemma8, empty)),
              ("lemma3", partial(run_all, graph))]
    for name, call in calls:
        with pytest.raises(ValueError,
                           match=f"^{name} cases must be >= 0, got -1$"):
            call(seed=0, cases=-1)
    reports = [call(seed=0, cases=0) for _, call in calls[:-1]]
    reports += run_all(graph, seed=0, cases=0)[:-1]
    for report in reports:
        assert report.cases == 0 and report.passed, report.text_lines()


@pytest.mark.parametrize("graph, window", [
    (StandardKGraph(2, 2), uniform_window(1, -1, 1, 2)),
    (StandardKGraph(1, 2), uniform_window(2, -1, 1, 2)),
], ids=["k2-window1", "k1-window2"])
def test_a_window_of_the_wrong_rank_is_refused_at_entry(graph, window):
    from kumjian_pask.kgraph import KGraphError

    message = "^window dimension differs from graph rank$"
    for check in CHECKS.values():
        with pytest.raises(KGraphError, match=message):
            check(graph, 7, 10, window)
    with pytest.raises(KGraphError, match=message):
        check_kp_relations(graph, window)
    with pytest.raises(KGraphError, match=message):
        run_all(graph, 7, 10, window)


def test_run_all_order_and_names():
    graph = StandardKGraph(1, 2)
    reports = run_all(graph, seed=1, cases=10)
    assert [r.name for r in reports] == ["lemma3", "lemma8", "lemma12",
                                         "lemma13", "confluence", "kp"]
    assert all(r.passed for r in reports)


def test_failure_plumbing_records_seed_and_input():
    from kumjian_pask.freealg import Element, letter
    from kumjian_pask.verify import _case_rng

    graph = StandardKGraph(1, 1)

    def body(rng, graph, window, ring):
        # an odd value gives the relation 1 * v(value), which is not 0
        value = rng.randint(0, 9)
        word = (letter(graph.vertex((value,))),)
        return [(f"value={value}", Element.from_word(ring, word, value % 2))]

    report = _run_cases("synthetic", graph, 31, 20, None, IntegerRing(),
                        None, body)
    assert report.cases == 20
    assert not report.passed
    for f in report.failures:
        assert f.seed == f"31:synthetic:{f.index}"
        value = _case_rng(31, "synthetic", f.index).randint(0, 9)
        assert f.input == f"1 * v({value})"
        assert f.detail == f"value={value} normal form 1 * v({value}) is not 0"
    lines = report.text_lines()
    assert lines[0] == (f"name=synthetic cases=20 "
                        f"failures={len(report.failures)} seed=31")
    assert len(lines) == 1 + len(report.failures)
    assert report.as_dict() == {
        "name": "synthetic", "cases": 20, "seed": 31,
        "failures": [{"index": f.index, "seed": f.seed, "input": f.input,
                      "detail": f.detail} for f in report.failures]}


def test_report_passed_iff_no_failures():
    report = CheckReport(name="x", cases=1, seed=0)
    assert report.passed
    report.failures.append(object())
    assert not report.passed


def test_confluence_44_unit_instances_by_hand():
    # a pair word with trailing all-ones in both coordinates admits both
    # unit-vector expansion degrees; the two routes must converge
    from kumjian_pask.freealg import Element, IntegerRing, letter
    from kumjian_pask.kgraph import Path, compose
    from kumjian_pask.rewrite import (RedexMatch, RuleId, apply_rule,
                                      normalize, valid_expansions)

    graph = StandardKGraph(2, 2)
    ring = IntegerRing()
    ones = graph.all_ones_path((0, 0), (1, 1))
    lam = compose(Path((1, 0), (0, 0), (2,)), ones)
    mu = compose(Path((0, 1), (0, 0), (2,)), ones)
    word = (letter(lam), letter(mu, ghost=True))
    exps = valid_expansions(lam, mu)
    assert (1, 0) in exps and (0, 1) in exps
    routes = []
    for n in ((1, 0), (0, 1)):
        piece = apply_rule(graph, ring, word,
                           RedexMatch(RuleId.R4_EXPAND, 0, expand_degree=n))
        routes.append(normalize(graph, piece))
    assert routes[0] == routes[1]
    assert routes[0] == normalize(graph, Element.from_word(ring, word))


def test_local_confluence_exhaustive_small():
    """Every multi-redex word of up to 3 letters over a small closed letter
    pool resolves: each one-step branch normalizes to the direct normal
    form.  This covers every overlap family (including all tag variants and
    competing expansion degrees) exhaustively at this scale."""
    import itertools

    from kumjian_pask.freealg import Element, IntegerRing, letter
    from kumjian_pask.kgraph import degrees_upto, vadd
    from kumjian_pask.rewrite import all_redexes, apply_rule, normalize

    ring = IntegerRing()
    for k, level, lo, hi, max_deg in ((1, 2, -2, 1, 2), (2, 2, -1, 0, 1)):
        graph = StandardKGraph(k, level)
        pool = []
        for src in itertools.product(*[range(lo, hi + 1)] * k):
            pool.append(letter(graph.vertex(src)))
            for n in degrees_upto(k, max_deg, 1):
                r = vadd(src, n)
                if all(lo <= x <= hi for x in r):
                    for p in graph.paths(r, n):
                        if p.source == src:
                            pool.append(letter(p))
                            pool.append(letter(p, ghost=True))
        checked = 0
        for length in (2, 3):
            for combo in itertools.product(pool, repeat=length):
                word = tuple(combo)
                matches = all_redexes(word)
                if len(matches) < 2:
                    continue
                checked += 1
                direct = normalize(graph, Element.from_word(ring, word))
                for m in matches:
                    assert normalize(graph, apply_rule(graph, ring, word, m)) == direct
        assert checked > 1000


def test_confluence_sampler_covers_every_rule_pair_family():
    """500 sampler draws at the acceptance seed hit every rule-pair family
    that can occur on the graph.  R5 needs a class with two members, which
    k = 1 or level = 1 rules out."""
    import itertools

    from kumjian_pask.rewrite import all_redexes
    from kumjian_pask.verify import _case_rng, _default_window, _overlap_word

    every = {"11", "12", "13", "14", "15", "22", "23", "24", "25", "34",
             "35", "44"}
    for k, level in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3)):
        graph = StandardKGraph(k, level)
        window = _default_window(graph, None)
        seen = set()
        for i in range(500):
            word = _overlap_word(_case_rng(1405, "confluence", i), graph,
                                 window)
            matches = all_redexes(word)
            assert len(matches) >= 2
            seen.update("".join(sorted(a.rule.value[1] + b.rule.value[1]))
                        for a, b in itertools.combinations(matches, 2))
        no_r5 = {"15", "25", "35"} if k == 1 or level == 1 else set()
        expected = every - no_r5
        assert seen == expected, (k, level, sorted(expected - seen))


def test_kp_failure_names_element_and_family(monkeypatch):
    from kumjian_pask import verify

    graph = StandardKGraph(1, 2)
    window = uniform_window(1, -1, 1, 2)
    # an engine that reduces nothing: every relation instance fails
    monkeypatch.setattr(verify, "normalize", lambda graph, elem: elem)
    full = check_kp_relations(graph, window)
    assert full.cases == len(full.failures) == 79
    assert [f.index for f in full.failures] == list(range(79))
    # numbered family by family: KP1, then KP2, KP3 and KP4
    families = [f.detail.split()[0] for f in full.failures]
    assert families == sorted(families)
    assert set(families) == {"KP1", "KP2", "KP3", "KP4"}
    third = full.failures[3]
    assert third.input == "-1 * v(-1) + 1 * v(-1) . v(-1)"
    assert third.detail == ("KP1 normal form -1 * v(-1) + 1 * v(-1) . v(-1) "
                            "is not 0")
    one = check_kp_relations(graph, window, case_index=3)
    assert one.cases == 1 and one.failures == [third]


def test_lemma13_paths_respect_degree_bound(monkeypatch, capsys):
    from kumjian_pask import verify
    from kumjian_pask.cli import main
    from kumjian_pask.kgraph import norm

    # every lemma13 case draws lam and mu; record both and require their
    # degrees to stay within min(--degree-bound, 2).  Below bound 2 there
    # is no |n| >= 2 to sample, so nothing is drawn and no case runs.
    real, drawn = verify._rand_path, []

    def recording(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(verify, "_rand_path", recording)
    for bound, cases in ((1, 0), (2, 50), (3, 50)):
        drawn.clear()
        assert main(["check", "lemma13", "--k", "2", "--level", "2",
                     "--degree-bound", str(bound), "--cases", "50"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"name=lemma13 cases={cases} failures=0")
        assert len(drawn) == 2 * cases
        assert all(norm(p.degree) <= min(bound, 2) for p in drawn)


def test_kp_family_counts_match_closed_forms():
    from collections import Counter

    from kumjian_pask.algebra import Window
    from kumjian_pask.kgraph import norm, vadd, vsub

    for graph, window in ((StandardKGraph(1, 2), uniform_window(1, -1, 1, 2)),
                          (StandardKGraph(2, 2), uniform_window(2, -2, 2, 3)),
                          (StandardKGraph(2, 3), Window((0, -1), (2, 1), 2))):
        capped = Window(window.lo, window.hi, min(window.degree_bound, 2))
        verts, degs = capped.vertices(), capped.degrees()

        def count(v, step):
            """Window paths with range v (step vsub) or source v (vadd)."""
            return sum(graph.level ** norm(n) for n in degs
                       if window.contains(step(v, n)))

        n_paths = sum(count(v, vsub) for v in verts)
        got = Counter(family for family, _ in
                      reference_kp_instances(graph, window, IntegerRing()))
        assert got == {
            "KP1": len(verts) ** 2,
            "KP2": 4 * n_paths + 2 * sum(count(v, vadd) * count(v, vsub)
                                         for v in verts),
            "KP3": sum(graph.level ** (2 * norm(n)) for v in verts
                       for n in degs if window.contains(vsub(v, n))),
            "KP4": len(verts) * len(degs),
        }, (graph, window)


@pytest.mark.parametrize("name", list(CHECKS.keys()))
def test_sampled_relations_are_never_zero(monkeypatch, name):
    """No sampled case hands normalize a relation that is 0 before
    rewriting: such a case would check nothing.  lemma8 on k = 1 or level 1
    is the one exemption: every class there has a single member.  A lemma
    case is one relation, so it makes exactly one normalize call."""
    from kumjian_pask import verify

    real, handed = verify.normalize, []

    def spy(graph, elem, **kwargs):
        handed.append(elem)
        return real(graph, elem, **kwargs)

    monkeypatch.setattr(verify, "normalize", spy)
    for k in (1, 2, 3):
        for level in (1, 2, 3):
            graph = StandardKGraph(k, level)
            for bound in (1, 2, 3):
                handed.clear()
                report = CHECKS[name](graph, seed=1405, cases=200,
                                      window=uniform_window(k, -3, 3, bound))
                assert report.passed, report.text_lines()
                if name == "confluence":
                    assert len(handed) >= 2 * report.cases
                else:
                    assert len(handed) == report.cases
                if name == "lemma8" and (k == 1 or level == 1):
                    continue
                zero = sum(1 for elem in handed if not elem)
                assert zero == 0, (k, level, bound, zero)


def test_lemma12_relations_are_not_decided_by_r2_alone(monkeypatch):
    """w is chained to v, so the S-set pairs share their sources and no
    lemma12 relation is settled by orthogonality (R2) steps alone."""
    from kumjian_pask import verify
    from kumjian_pask.rewrite import RuleId

    real, rules = verify.normalize, []

    def spy(graph, elem, **kwargs):
        steps = set()
        result = real(graph, elem, trace=lambda step: steps.add(step.rule))
        rules.append(steps)
        return result

    monkeypatch.setattr(verify, "normalize", spy)
    for k, level in ((1, 2), (2, 2), (2, 3)):
        rules.clear()
        report = verify.check_lemma12(StandardKGraph(k, level), seed=42,
                                      cases=500)
        assert report.passed and len(rules) == report.cases == 500
        r2_only = sum(1 for steps in rules if steps <= {RuleId.R2_ORTHO})
        assert r2_only == 0, (k, level, r2_only)


def test_lemma12_offers_every_nhat_below_the_meet(monkeypatch):
    """n-hat ranges over all nonzero degrees below meet(m, n), so a meet of
    (1,1) can be shrunk by (1,1) itself.  Each case calls s_set twice: on
    (m, n) and on (m - n-hat, n - n-hat); the rewriter's calls are not
    counted."""
    import sys

    from kumjian_pask.kgraph import leq, meet, vsub
    from kumjian_pask.verify import check_lemma12

    real, degrees = StandardKGraph.s_set, []

    def spy(self, v, w, dm, dn, p, q):
        if sys._getframe(1).f_globals["__name__"] == "kumjian_pask.verify":
            degrees.append((dm, dn))
        return real(self, v, w, dm, dn, p, q)

    monkeypatch.setattr(StandardKGraph, "s_set", spy)
    report = check_lemma12(StandardKGraph(2, 2), seed=1405, cases=500)
    assert report.passed and report.cases == 500
    assert len(degrees) == 2 * report.cases
    drawn = [(meet(m, n), vsub(m, m2))
             for (m, n), (m2, _) in zip(degrees[::2], degrees[1::2])]
    assert all(leq(nhat, cap) and any(nhat) for cap, nhat in drawn)
    assert ((1, 1), (1, 1)) in drawn


@pytest.mark.parametrize("k,level,window", [
    (1, 1, uniform_window(1, -2, 2, 2)),
    (1, 2, uniform_window(1, -2, 2, 2)),
    (2, 1, uniform_window(2, -2, 2, 2)),
    (2, 2, uniform_window(2, -2, 2, 2)),
    (2, 3, Window((0, -1), (2, 1), 2)),
], ids=["1-1", "1-2", "2-1", "2-2", "2-3"])
def test_kp_memo_agrees_with_direct_normalization(k, level, window):
    """The reference: every kp relation instance, normalized directly, is
    0, and the report, which normalizes one relation per shape, passes
    over the same number of cases."""
    from kumjian_pask.rewrite import normalize

    graph = StandardKGraph(k, level)
    instances = list(reference_kp_instances(graph, window, IntegerRing()))
    nonzero = [(family, rel) for family, rel in instances
               if normalize(graph, rel)]
    assert nonzero == []
    report = check_kp_relations(graph, window)
    assert report.passed and report.cases == len(instances)


def test_kp_normalizes_one_relation_per_translation_class(monkeypatch):
    """At (2,2) on -3..3 with bound 3, the 20,630 instances fall into 806
    translation classes; nothing normalized is kept between runs, so a
    second run in the same process makes as many normalize calls as the
    first."""
    from kumjian_pask import verify

    real, calls = verify.normalize, []

    def spy(graph, elem, **kwargs):
        calls.append(elem)
        return real(graph, elem, **kwargs)

    monkeypatch.setattr(verify, "normalize", spy)
    graph, window = StandardKGraph(2, 2), uniform_window(2, -3, 3, 3)
    counts = []
    for _ in range(2):
        calls.clear()
        report = check_kp_relations(graph, window)
        assert report.passed and report.cases == 20630
        counts.append(len(calls))
    assert counts[0] == counts[1] <= report.cases // 20


def _translation_class(relation):
    """The relation moved so that the least vertex it names is the origin:
    two relations get one class exactly when one is a translate of the
    other."""
    from kumjian_pask.freealg import letter
    from kumjian_pask.kgraph import Path, vsub

    t = min(v for w in relation.terms for x in w
            for v in (x.path.range, x.path.source))
    return frozenset(
        (tuple(letter(Path(vsub(x.path.range, t), vsub(x.path.source, t),
                           x.path.levels), x.ghost) for x in w), c)
        for w, c in relation.terms.items())


@pytest.mark.parametrize("k,level,window,classes", [
    (1, 2, uniform_window(1, -1, 1, 3), 59),
    (2, 2, uniform_window(2, -3, 3, 3), 806),
    (2, 3, Window((0, -1), (2, 1), 3), 1413),
    (2, 2, Window((0, 0), (0, 4), 3), 130),
], ids=["1-2", "2-2", "2-3-box", "2-2-thin"])
def test_kp_normalizes_each_translation_class_once(monkeypatch, k, level,
                                                   window, classes):
    """A passing run makes one normalize call per translation class of the
    instances, and builds no translate."""
    from kumjian_pask import verify

    graph = StandardKGraph(k, level)
    instances = list(reference_kp_instances(graph, window, IntegerRing()))
    assert len({_translation_class(rel) for _, rel in instances}) == classes
    real_normalize, real_translated = verify.normalize, Element.translated
    calls, translated = [], []

    def spy(graph, elem, **kwargs):
        calls.append(elem)
        return real_normalize(graph, elem, **kwargs)

    def translating(self, t):
        translated.append(t)
        return real_translated(self, t)

    monkeypatch.setattr(verify, "normalize", spy)
    monkeypatch.setattr(Element, "translated", translating)
    report = check_kp_relations(graph, window)
    assert report.passed and report.cases == len(instances)
    assert len(calls) == classes and translated == []


@pytest.mark.parametrize("k,level,window", [
    (1, 2, uniform_window(1, -1, 1, 2)),
    (2, 2, uniform_window(2, -2, 2, 2)),
    (2, 3, Window((0, -1), (2, 1), 3)),
    (3, 2, uniform_window(3, -1, 1, 2)),
    (2, 1, Window((0, 0), (0, 4), 3)),
    (1, 3, Window((-4,), (2,), 3)),
    (3, 1, uniform_window(3, -1, 1, 2)),
    (1, 1, uniform_window(1, -2, 2, 2)),
], ids=["1-2", "2-2", "2-3-box", "3-2", "2-1-thin", "1-3", "3-1", "1-1"])
def test_kp_shape_translates_are_the_reference_instances(k, level, window):
    """Per family, the translates of the shapes are the reference
    instances, each exactly once, and a shape's translate count is the
    length of its product of ranges.  The reference lists the unit laws
    path by path, so the KP2 compositions with a vertex are exactly the
    unit laws."""
    from collections import Counter

    from kumjian_pask.verify import _kp_shapes

    def instances(pairs):
        return Counter((family, frozenset(relation.terms.items()))
                       for family, relation in pairs)

    graph, ring = StandardKGraph(k, level), IntegerRing()
    units = list(_kp_shapes(graph, window, ring))
    translates = instances(pair for count, shared, case in units
                           for j in range(count)
                           for pair in case(shared(), j)[1])
    reference = instances(reference_kp_instances(graph, window, ring))
    assert translates == reference
    assert max(reference.values()) == 1
    assert check_kp_relations(graph, window).cases == sum(
        count for count, _, _ in units) == sum(reference.values())


def test_kp_memo_never_hides_a_failing_instance(monkeypatch):
    """With an engine that leaves every relation with a level-2 entry
    unreduced, exactly those instances fail, though each has translates
    and same-shape relations of other levels that pass.  The first, the
    last and every 10th failure's index reruns that failure alone (each
    rerun walks the shapes before its own again, but builds only its
    own)."""
    from collections import Counter

    from kumjian_pask import verify
    from kumjian_pask.syntax import format_element

    graph, window = StandardKGraph(2, 2), uniform_window(2, -2, 2, 2)

    def has_level_2(elem):
        return any(2 in x.path.levels for w in elem.terms for x in w)

    real = verify.normalize
    monkeypatch.setattr(verify, "normalize", lambda graph, elem: (
        elem if has_level_2(elem) else real(graph, elem)))
    expected = Counter(format_element(rel) for _, rel in reference_kp_instances(
        graph, window, IntegerRing()) if has_level_2(rel))
    report = check_kp_relations(graph, window)
    assert 0 < len(report.failures) < report.cases
    assert Counter(f.input for f in report.failures) == expected
    for f in report.failures[::10] + report.failures[-1:]:
        assert check_kp_relations(graph, window,
                                  case_index=f.index).failures == [f]


@pytest.mark.parametrize("name", [*CHECKS, "kp"])
def test_every_failure_reruns_alone(monkeypatch, name):
    """With an engine that leaves a relation unreduced by a coin flip
    seeded with its text, some cases of every check fail and others pass.
    Each failure's index reruns that failure alone."""
    import random

    from kumjian_pask import verify
    from kumjian_pask.syntax import format_element

    real = verify.normalize
    monkeypatch.setattr(verify, "normalize", lambda graph, elem: (
        elem if random.Random(format_element(elem)).random() < 0.5
        else real(graph, elem)))
    graph = StandardKGraph(2, 2)
    if name == "kp":
        window = uniform_window(2, -1, 1, 2)
        check = partial(check_kp_relations, graph, window)
    else:
        check = partial(CHECKS[name], graph, 7, 40)
    report = check()
    assert 0 < len(report.failures) < report.cases
    for f in report.failures:
        assert check(case_index=f.index).failures == [f]
