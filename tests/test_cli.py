"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kumjian_pask import verify
from kumjian_pask.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_representative_example(capsys):
    code, out, err = run_cli(capsys, "normalize", "--k", "2", "--level", "2",
                             "p[(1,1)->(0,1);2] . p[(1,1)->(0,1);2]*")
    assert code == 0 and err == ""
    assert out == "1 * p[(1,1)->(1,0);2] . p[(1,1)->(1,0);2]*\n"


def test_normalize_trace_measures_decrease(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--k", "2", "--level", "2",
                           "--trace", "p[(1,0)->(0,0);1] . p[(1,0)->(0,0);1]*")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "1 * v(1,0) + -1 * p[(1,0)->(1,-1);2] . p[(1,0)->(1,-1);2]*"
    measures = []
    for line in lines[:-1]:
        assert line.startswith("rule=") and " pos=" in line and " measure=(" in line
        measures.append(tuple(
            int(x) for x in line.split("measure=(")[1].rstrip(")").split(",")))
    assert measures == sorted(measures, reverse=True)
    assert len(set(measures)) == len(measures)


def test_mul_and_star(capsys):
    code, out, _ = run_cli(capsys, "mul", "--k", "2", "--level", "2",
                           "p[(1,1)->(1,0);2]*", "p[(1,1)->(1,0);2]")
    assert code == 0 and out == "1 * v(1,0)\n"
    code, out, _ = run_cli(capsys, "star", "--k", "2", "--level", "2",
                           "p[(1,1)->(1,0);2]")
    assert code == 0 and out == "1 * p[(1,1)->(1,0);2]*\n"


def test_mul_orthogonal_vertices(capsys):
    code, out, _ = run_cli(capsys, "mul", "--k", "1", "--level", "2",
                           "v(0)", "v(1)")
    assert code == 0 and out == "0\n"


def test_basis_pair_filter(capsys):
    code, out, _ = run_cli(capsys, "basis", "--k", "1", "--level", "2",
                           "--window", "-2..2", "--degree-bound", "1",
                           "--shape", "pair", "--range-left", "0",
                           "--range-right", "0")
    assert code == 0
    assert out.splitlines() == [
        "p[(0)->(-1);1] . p[(0)->(-1);2]*",
        "p[(0)->(-1);2] . p[(0)->(-1);1]*",
        "p[(0)->(-1);2] . p[(0)->(-1);2]*",
    ]


def test_basis_structured(capsys):
    code, out, _ = run_cli(capsys, "basis", "--k", "1", "--level", "2",
                           "--window", "-1..1", "--degree-bound", "0",
                           "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"words": ["v(-1)", "v(0)", "v(1)"]}


def test_normalize_structured(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--k", "1", "--level", "1",
                           "--format", "structured",
                           "p[(1)->(0);1] . p[(1)->(0);1]*")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"element": {"ring": "int",
                                   "terms": [{"coeff": "1", "word": ["v(1)"]}]}}


def test_ring_flag(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--k", "1", "--level", "2",
                           "--ring", "zmod:2",
                           "p[(1)->(0);1] + p[(1)->(0);1]")
    assert code == 0 and out == "0\n"


def test_check_command_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "lemma8", "--k", "2", "--level", "2",
                           "--seed", "5", "--cases", "20")
    assert code == 0
    assert out == "name=lemma8 cases=20 failures=0 seed=5\n"


def test_check_all_structured(capsys):
    code, out, _ = run_cli(capsys, "check", "all", "--k", "1", "--level", "2",
                           "--seed", "3", "--cases", "5",
                           "--window", "-1..1", "--degree-bound", "2",
                           "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    names = [r["name"] for r in payload["reports"]]
    assert names == ["lemma3", "lemma8", "lemma12", "lemma13",
                     "confluence", "kp"]
    assert all(r["failures"] == [] for r in payload["reports"])


def test_per_coordinate_window(capsys):
    code, out, _ = run_cli(capsys, "basis", "--k", "2", "--level", "1",
                           "--window", "0..1,-1..0", "--degree-bound", "0")
    assert code == 0
    assert out.splitlines() == ["v(0,-1)", "v(0,0)", "v(1,-1)", "v(1,0)"]
    # a bound reads like an integer flag: a sign, and spaces around it
    signed, plain = (run_cli(capsys, "basis", "--k", "2", "--level", "2",
                             "--window", window, "--degree-bound", "1")
                     for window in ("+0..1, -1..0", "0..1,-1..0"))
    assert signed == plain and plain[0] == 0 and plain[1]



def test_window_range_count_message(capsys):
    code, out, err = run_cli(capsys, "basis", "--k", "1", "--level", "2",
                             "--window", "0..0,0..0")
    assert (code, out) == (2, "")
    assert err == "error: window needs 1 range, got 2\n"
    code, out, err = run_cli(capsys, "basis", "--k", "2", "--level", "2",
                             "--window", "0..0,0..0,0..0")
    assert (code, out) == (2, "")
    assert err == "error: window needs 1 or 2 ranges, got 3\n"

def test_element_from_file(tmp_path, capsys):
    path = tmp_path / "element.txt"
    path.write_text("p[(1,1)->(0,1);2] . p[(1,1)->(0,1);2]*\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "normalize", "--k", "2", "--level", "2",
                           f"@{path}")
    assert code == 0
    assert out == "1 * p[(1,1)->(1,0);2] . p[(1,1)->(1,0);2]*\n"


def test_element_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "element.txt"
    path.write_bytes(b"\xff\xfe v(0)")
    code, out, err = run_cli(capsys, "normalize", "--k", "1", "--level", "2",
                             f"@{path}")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read element file: ")


def test_elements_with_a_leading_minus_follow_the_separator(capsys):
    """argparse takes '-v(0)' for an option; after '--' it is an element."""
    code, out, err = run_cli(capsys, "normalize", "--k", "1", "--level", "2",
                             "--", "-v(0)")
    assert (code, out, err) == (0, "-1 * v(0)\n", "")
    code, out, err = run_cli(capsys, "normalize", "--k", "1", "--level", "2",
                             "--", "-2*v(0)")
    assert (code, out, err) == (0, "-2 * v(0)\n", "")
    code, out, err = run_cli(capsys, "mul", "--k", "1", "--level", "2",
                             "v(0)", "--", "-v(0)")
    assert (code, out, err) == (0, "-1 * v(0)\n", "")


def test_usage_errors_exit_two(capsys):
    # malformed element
    code, _, err = run_cli(capsys, "normalize", "--k", "2", "--level", "2",
                           "p[(1,1)->(0,0);3,1]")
    assert code == 2 and "level entry" in err
    # wrong dimension
    code, _, err = run_cli(capsys, "normalize", "--k", "2", "--level", "2",
                           "v(0)")
    assert code == 2
    # missing required flags
    code, _, _ = run_cli(capsys, "normalize", "v(0)")
    assert code == 2
    # bad window
    code, _, err = run_cli(capsys, "basis", "--k", "2", "--level", "2",
                           "--window", "2..-2")
    assert code == 2
    # bad ring
    code, _, err = run_cli(capsys, "normalize", "--k", "1", "--level", "1",
                           "--ring", "float", "v(0)")
    assert code == 2
    # missing element file
    code, _, err = run_cli(capsys, "normalize", "--k", "1", "--level", "1",
                           "@/nonexistent/element.txt")
    assert code == 2
    # negative case count
    code, out, err = run_cli(capsys, "check", "all", "--k", "1", "--level",
                             "2", "--cases", "-5")
    assert code == 2 and out == "" and "--cases" in err
    # negative degree bound
    code, out, _ = run_cli(capsys, "check", "lemma3", "--k", "1", "--level",
                           "2", "--degree-bound", "-1")
    assert code == 2 and out == ""
    # malformed window ranges, and a bound past int()'s digit limit
    for window in ("1..2..3", "..2", "1..", "+-1..2", "0.." + "1" * 5000):
        code, out, err = run_cli(capsys, "basis", "--k", "1", "--level", "2",
                                 "--window", window)
        assert code == 2 and out == "" and "bad window range" in err, window
    # a range filter with the wrong number of coordinates
    for flag, value, count in (("--range-left", "0", 1),
                               ("--range-right", "0,1,2", 3)):
        code, out, err = run_cli(capsys, "basis", "--k", "2", "--level", "2",
                                 flag, value)
        assert code == 2 and out == ""
        assert f"{flag} needs 2 coordinates, got {count}" in err


def test_byte_reproducibility(capsys):
    args = ("check", "confluence", "--k", "2", "--level", "2",
            "--seed", "12", "--cases", "15", "--format", "structured")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_check_failure_exits_one(capsys, monkeypatch):
    def broken_check(graph, seed, cases, window=None, ring=None,
                     case_index=None):
        report = verify.CheckReport(name="lemma8", cases=cases, seed=seed)
        report.failures.append(verify.CaseFailure(
            index=0, seed=f"{seed}:lemma8:0",
            input="1 * v(0,0)", detail="synthetic failure"))
        return report

    monkeypatch.setitem(verify.CHECKS, "lemma8", broken_check)
    code, out, _ = run_cli(capsys, "check", "lemma8", "--k", "2",
                           "--level", "2", "--seed", "9", "--cases", "4")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "name=lemma8 cases=4 failures=1 seed=9"
    assert lines[1].startswith("failure index=0 seed=9:lemma8:0")
    assert lines[2] == ("repro: kpalg check lemma8 --k 2 --level 2 --ring int "
                        "--seed 9 --cases 4 --case-index 0 --window -3..3 "
                        "--degree-bound 3")

    # a check's own bug is not turned into a usage error
    def crashing_check(*args):
        raise IndexError("bug in a check")

    monkeypatch.setitem(verify.CHECKS, "lemma8", crashing_check)
    with pytest.raises(IndexError):
        main(["check", "lemma8", "--k", "2", "--level", "2"])


def test_repro_line_reruns_the_failure(capsys, monkeypatch):
    """Split as a shell splits it, each repro: line reruns its failure over
    the same ring and window: some coefficients are residues mod 5 that
    differ over int, and a window typed with a space stays one word."""
    import shlex

    monkeypatch.setattr(verify, "normalize", lambda graph, elem: elem)
    code, out, _ = run_cli(capsys, "check", "lemma3", "--k", "2", "--level",
                           "2", "--ring", "zmod:5", "--window", "-2..2, -1..3",
                           "--cases", "3")
    assert code == 1
    lines = out.splitlines()
    failures = [line for line in lines if line.startswith("failure ")]
    repros = [line for line in lines if line.startswith("repro: ")]
    assert len(failures) == len(repros) == 3
    assert any("=4 * " in line for line in failures)
    for failure, repro in zip(failures, repros):
        argv = shlex.split(repro)
        assert argv[:3] == ["repro:", "kpalg", "check"]
        code, rerun, _ = run_cli(capsys, *argv[2:])
        assert code == 1
        assert rerun.splitlines()[1] == failure


def test_case_index_runs_one_kp_case(capsys):
    window = ("--window", "-1..1", "--degree-bound", "2")
    code, out, _ = run_cli(capsys, "check", "kp", "--k", "1", "--level", "2",
                           *window, "--case-index", "3")
    assert code == 0 and out == "name=kp cases=1 failures=0 seed=0\n"
    code, out, _ = run_cli(capsys, "check", "all", "--k", "1", "--level", "2",
                           *window, "--case-index", "0",
                           "--format", "structured")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [(r["name"], r["cases"]) for r in reports] == [
        (name, 1) for name in ("lemma3", "lemma8", "lemma12", "lemma13",
                               "confluence", "kp")]
    code, out, err = run_cli(capsys, "check", "kp", "--k", "1", "--level",
                             "2", "--case-index", "-1")
    assert code == 2 and out == "" and "--case-index" in err
    # the index must name a case of the run: kp has 79 instances here
    code, out, _ = run_cli(capsys, "check", "kp", "--k", "1", "--level", "2",
                           *window, "--case-index", "78")
    assert code == 0 and out == "name=kp cases=1 failures=0 seed=0\n"
    # a check with nothing to sample has no case 0: lemma8 at k = level =
    # 1, lemma12 at degree bound 0 and lemma13 at level 1
    k1l2 = ("--k", "1", "--level", "2")
    for argv in (("kp", *k1l2, *window, "--case-index", "79"),
                 ("lemma3", *k1l2, "--cases", "5", "--case-index", "17"),
                 ("lemma8", "--k", "1", "--level", "1", "--case-index", "0"),
                 ("lemma12", "--k", "2", "--level", "2",
                  "--degree-bound", "0", "--case-index", "0"),
                 ("lemma13", "--k", "2", "--level", "1",
                  "--case-index", "0")):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 2 and out == "" and argv[0] in err
        assert "names no case" in err
    # under all, every check must have the index
    code, out, err = run_cli(capsys, "check", "all", "--k", "2", "--level",
                             "1", "--case-index", "0")
    assert code == 2 and out == "" and "lemma13 run" in err


def test_check_all_degree_bound_zero(capsys):
    # no degree n >= 1 to sample: lemma8, lemma12 and lemma13 report no
    # cases
    code, out, _ = run_cli(capsys, "check", "all", "--k", "2", "--level", "2",
                           "--degree-bound", "0")
    assert code == 0
    lines = out.splitlines()
    assert "name=lemma8 cases=0 failures=0 seed=0" in lines
    assert "name=lemma12 cases=0 failures=0 seed=0" in lines
    assert "name=lemma13 cases=0 failures=0 seed=0" in lines


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    common = ("--k", "1", "--level", "2")
    main(["normalize", *common, "v(0)"])
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (("normalize", *common, "v(1)"),
                 ("mul", *common, "v(0)", "v(0)"),
                 ("star", *common, "v(0)"),
                 ("basis", *common, "--degree-bound", "0"),
                 ("check", "lemma8", *common, "--cases", "2")):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []
    monkeypatch.undo()

    # each flag or error of one call is gone in the next: the calls run on
    # the shared parser give what a freshly built parser gives
    element = "p[(1)->(0);1] . p[(1)->(0);1]*"
    basis = ("basis", *common, "--degree-bound", "1", "--shape", "pair")
    sequence = (("normalize", *common, "--trace", element),
                ("normalize", *common, element),
                (*basis, "--range-left", "0"),
                basis,
                ("normalize", "--k", "1", element),
                ("normalize", *common, element))
    shared = [run_cli(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert shared[0] != shared[1] and shared[2] != shared[3]
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]


def test_normalize_structured_trace_is_one_document(capsys):
    element = "p[(1,0)->(0,0);1] . p[(1,0)->(0,0);1]*"
    common = ("normalize", "--k", "2", "--level", "2", "--trace")
    code, text, _ = run_cli(capsys, *common, element)
    assert code == 0
    code, out, _ = run_cli(capsys, *common, "--format", "structured", element)
    assert code == 0
    payload = json.loads(out)
    text_steps = text.splitlines()[:-1]
    assert len(payload["trace"]) == len(text_steps) > 0
    for step, line in zip(payload["trace"], text_steps):
        measure = ",".join(map(str, step["measure"]))
        assert line == (f"rule={step['rule']} pos={step['pos']} "
                        f"measure=({measure})")
    code, plain, _ = run_cli(capsys, *common[:-1], "--format", "structured",
                             element)
    assert code == 0 and json.loads(plain) == {"element": payload["element"]}


def test_non_ascii_digits_are_usage_errors(capsys):
    for element in ("v(²)", "v(٣)", "+٣ * v(0)"):
        code, out, err = run_cli(capsys, "normalize", "--k", "1", "--level",
                                 "2", element)
        assert code == 2 and out == "" and "bad element" in err
    # int() also reads non-ASCII digits and '_' separators; no integer flag
    # does
    common = ("--k", "1", "--level", "2")
    for command, flag, value in (
            (("normalize", "v(0)", "--level", "2"), "--k", "١"),
            (("normalize", "v(0)", "--k", "1"), "--level", "٢"),
            (("check", "lemma3", *common), "--seed", "٧"),
            (("check", "lemma3", *common), "--cases", "1_000"),
            (("check", "lemma3", *common), "--cases", "٣"),
            (("check", "lemma3", *common), "--degree-bound", "٢"),
            (("check", "lemma3", *common), "--case-index", "٠"),
            (("basis", *common), "--degree-bound", "1_0"),
            (("basis", *common), "--window", "٠..١"),
            (("check", "kp", *common), "--window", "-1..1_0"),
            (("basis", *common), "--range-left", "١"),
            (("basis", *common), "--range-right", "1_0")):
        code, out, err = run_cli(capsys, *command, flag, value)
        assert code == 2 and out == "", (flag, value)
        assert flag in err or "bad window range" in err, err
    # the --ring modulus reads integers the same way
    for spec in ("zmod:٥", "zmod:1_0"):
        code, out, err = run_cli(capsys, "normalize", *common, "--ring", spec,
                                 "v(0)")
        assert code == 2 and out == "" and "bad modulus" in err, spec


def test_huge_coefficients_print_exactly(capsys):
    from kumjian_pask.freealg import Element, IntegerRing, letter
    from kumjian_pask.kgraph import StandardKGraph
    from kumjian_pask.syntax import format_element, parse_element

    # (10^3000 - 1)^2 has 6,000 digits, past str()'s default limit of 4,300
    factor = "9" * 3000 + " * v(0)"
    digits = "9" * 2999 + "8" + "0" * 2999 + "1"
    common = ("mul", "--k", "1", "--level", "2", factor, factor)
    code, out, err = run_cli(capsys, *common)
    assert code == 0 and err == ""
    assert out == f"{digits} * v(0)\n"
    graph, ring = StandardKGraph(1, 2), IntegerRing()
    square = Element.from_word(ring, (letter(graph.vertex((0,))),),
                               (10 ** 3000 - 1) ** 2)
    assert parse_element(out, graph, ring) == square
    assert format_element(square) == out.rstrip("\n")
    code, out, _ = run_cli(capsys, *common, "--format", "structured")
    assert code == 0
    assert json.loads(out)["element"]["terms"] == [
        {"coeff": digits, "word": ["v(0)"]}]


_LADDER_ONES = ",".join(["1"] * 12)


@pytest.mark.parametrize("argv,head", [
    (["normalize", "--k", "2", "--level", "2",
      f"p[(12,12)->(0,12);{_LADDER_ONES}]* . "
      f"p[(12,12)->(12,0);{_LADDER_ONES}]"], b"1 * p[(0,1"),
    (["basis", "--k", "2", "--level", "3", "--window", "-3..3",
      "--degree-bound", "2"], b"v(-3,-3)\nv"),
], ids=["normalize", "basis"])
def test_closed_stdout_exits_141_quietly(argv, head):
    """A reader that stops early (kpalg ... | head -c 10) gets exit status
    141 and no traceback.  The d = 12 ladder prints about 370 kB and the
    20,983-word basis listing about 900 kB, far more than a pipe buffers,
    so the write after the close always fails."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "kumjian_pask", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(10) == head
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


# Flag text for the fuzz test below: spaces int() and str.strip() drop,
# signs (doubled or spaced too), and digits that are not ASCII, have a '_'
# separator or exceed int()'s 4,300-digit limit.
_PADS = st.sampled_from(["", " ", "\t", "\u00a0"])
_SIGNS = st.sampled_from(["", "+", "-", "+-", "- "])
_DIGITS = st.one_of(st.integers(0, 3).map(str),
                    st.sampled_from(["", "٣", "²", "1_0", "9" * 4301]))
_INTEGER = st.builds("".join, st.tuples(_PADS, _SIGNS, _DIGITS, _PADS))
_MODULUS = st.one_of(_INTEGER, st.integers(-10**6, 10**6).map(str),
                     st.just("1" + "0" * 4299))
_RINGS = st.one_of(st.builds("zmod:{}".format, _MODULUS),
                   st.sampled_from(["int", "zmod", "zmod :5", "Zmod:5", ""]))
_RANGES = st.one_of(st.builds("{}..{}".format, _INTEGER, _INTEGER),
                    st.sampled_from(["1..2..3", "..", "1", ""]))
_WINDOWS = st.lists(_RANGES, min_size=1, max_size=3).map(",".join)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_ok_or_one_line_error(argv):
    code, out, err = _run_quietly(argv)
    if code == 0:
        assert out and err == "", (argv, err)
    else:
        assert code == 2 and out == "", (argv, code)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_RINGS)
@example("zmod:")
@example("zmod:0")
@example("zmod:1")
@example("zmod:-5")
@example("zmod: 5 ")
@example("zmod:٥")
@example("zmod:" + "9" * 4301)
def test_ring_flag_fuzz_exits_zero_or_two(spec):
    _assert_ok_or_one_line_error(["normalize", "--k", "1", "--level", "2",
                                  "--ring", spec, "2 * v(0) - v(1)"])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_WINDOWS)
@example("3..-3")
@example("+1..2, -1..0")
@example(" -1 .. 1 ")
@example("0..1,0..1,0..1")
@example("-1..1,")
def test_window_flag_fuzz_exits_zero_or_two(window):
    _assert_ok_or_one_line_error(["basis", "--k", "2", "--level", "2",
                                  "--degree-bound", "1", "--window", window])
