"""The benchmark's hooks into the package stay valid: every function the
tracer wraps still exists under its name and is put back afterwards, and
the closed-form kp case count the benchmark checks against still holds."""

import importlib.util
import sys
from pathlib import Path

from reference import reference_kp_instances

import kumjian_pask.cli  # noqa: F401  (with the package, every module the tracer wraps)
from kumjian_pask.algebra import Window
from kumjian_pask.freealg import IntegerRing
from kumjian_pask.kgraph import StandardKGraph
from kumjian_pask.verify import check_kp_relations

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def package_bindings(package):
    """(namespace, key, value) for every binding the tracer may replace:
    module globals, entries of module-level dicts and class attributes.
    The namespaces are live views, so ns[key] reads the current value."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for key, value in vars(mod).items():
            out.append((vars(mod), key, value))
            if isinstance(value, dict) and not key.startswith("__"):
                out.extend((value, dkey, dval) for dkey, dval in value.items())
            if isinstance(value, type):
                out.extend((vars(value), attr, raw)
                           for attr, raw in vars(value).items())
    return out


def test_tracer_wraps_every_target_and_restores(monkeypatch):
    tracer = load_bench_module(monkeypatch, "tracer")
    package = tracer.PACKAGE
    before = package_bindings(package)
    t = tracer.Tracer()
    try:
        t.install()
        for target in tracer.TARGETS:
            mod_name, _, cls_name = target.owner.partition(".")
            home = sys.modules[f"{package}.{mod_name}"]
            if cls_name:
                bound = vars(getattr(home, cls_name))[target.attr]
                bound = getattr(bound, "__func__", bound)
            else:
                bound = getattr(home, target.attr)
            assert hasattr(bound, "__wrapped__"), target.name
    finally:
        t.restore()
    assert [key for ns, key, value in before if ns[key] is not value] == []


def test_kp_case_count_matches_benchmark_oracle(monkeypatch):
    """The cases of a passing kp run, summed from shape translates, equal
    the instances reference_kp_instances lists and the benchmark's closed
    form, on uniform, per-coordinate and thin boxes.  A 0..0 side is
    thinner than every path's span, so some shapes have no translate."""
    workloads = load_bench_module(monkeypatch, "workloads")
    boxes = {1: [((-1,), (1,)), ((0,), (0,)), ((0,), (4,))],
             2: [((-1, -1), (1, 1)), ((0, -1), (2, 1)), ((0, 0), (0, 4))],
             3: [((0, -1, 0), (2, 1, 1)), ((0, 0, 0), (0, 4, 1))]}
    runs = [(1, 2, (-1,), (1,), 2), (2, 2, (0, -1), (2, 1), 3),
            (2, 3, (0, 0), (1, 2), 1), (2, 2, (0, 0), (1, 1), 0)]
    runs += [(k, level, lo, hi, bound)
             for k, level in ((1, 3), (2, 2), (3, 2))
             for lo, hi in boxes[k] for bound in (0, 1, 3)]
    for k, level, lo, hi, bound in runs:
        graph, window = StandardKGraph(k, level), Window(lo, hi, bound)
        report = check_kp_relations(graph, window)
        instances = sum(1 for _ in reference_kp_instances(graph, window,
                                                          IntegerRing()))
        assert report.passed, (k, level, lo, hi, bound)
        assert report.cases == instances == workloads.kp_case_count(
            k, level, lo, hi, bound), (k, level, lo, hi, bound)
