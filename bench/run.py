"""Benchmark of the ``kpalg`` engine: one workload per process.

    python3 bench/run.py --workload quotient_ops --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A single closed-loop client calls ``kumjian_pask.cli.main`` in-process with
stdout captured, one op after another, in whole passes over the seeded op
list until ``--seconds`` have elapsed.  Every output is checked against a
known answer computed without the rewriter (see workloads.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run also makes one traced pass, whose per-layer
counts and times (see tracer.py, metrics.py) replace them.  Lines before
the last one are a readable report and the run environment; the same data
goes to ``bench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import metrics
import workloads
from tracer import PACKAGE, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_WARMUP = 2
SETUP_REPEATS = 11
OP_TIMEOUT_S = 60
MAX_FAILURE_LINES = 10


class OpTimeout(BaseException):
    """Raised by the alarm when one op exceeds OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_package():
    """Import the package afresh from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was not imported from {SRC}")
    return package


def setup(workload: str, seed: int):
    """Import plus input generation; returns (package, ops, seconds)."""
    t0 = time.perf_counter()
    package = load_package()
    ops = workloads.make_ops(workload, seed, package)
    return package, ops, time.perf_counter() - t0


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_pass(cli, ops, tracer=None):
    """One pass over the ops; returns (wall seconds, [(op, seconds,
    failure detail or None)])."""
    records = []
    start = time.perf_counter()
    for op in ops:
        root = tracer.root(op.group) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            with root:
                rc, out = invoke(cli, op.argv)
                result = op.finish(out) if op.finish and rc == 0 else None
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            detail = op.check(rc, out, result)
        except OpTimeout:
            dt, detail = OP_TIMEOUT_S, f"timeout after {OP_TIMEOUT_S} s"
        except Exception as exc:  # the op failed; record it and go on
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt, detail = time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        records.append((op, dt, detail))
    return time.perf_counter() - start, records


def measure(workload: str, seed: int, seconds: float):
    """Whole passes until `seconds` have elapsed (at least one).  Set-up is
    timed SETUP_REPEATS times: the first repeats may also compile bytecode,
    and the rest run before the early passes, so that their samples span
    much of the interval the passes do.  Their number is fixed because each
    fresh import leaves some memory behind, and peak_rss_mb must not depend
    on how many passes fit."""
    setup_times, walls, records = [], [], []
    for _ in range(SETUP_WARMUP):
        package, ops, dt = setup(workload, seed)
        setup_times.append(dt)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if len(setup_times) < SETUP_REPEATS:
            package, ops, dt = setup(workload, seed)
            setup_times.append(dt)
        gc.collect()
        wall, recs = run_pass(package.cli, ops)
        walls.append(wall)
        records.extend(recs)
    while len(setup_times) < SETUP_REPEATS:
        package, ops, dt = setup(workload, seed)
        setup_times.append(dt)
    return package, ops, setup_times, walls, records


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops, walls, records, setup_times) -> dict:
    lat_ms = [dt * 1000 for _, dt, _ in records]
    wall = statistics.median(walls)
    failed = sum(1 for *_, d in records if d is not None)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "cases_per_s": sum(op.cases for op in ops) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_ratio": 1 - failed / len(records),
    }


def group_latencies(records) -> dict:
    groups: dict[str, list[float]] = {}
    for op, dt, _ in records:
        groups.setdefault(op.group, []).append(dt * 1000)
    return {g: {"ops": len(v), "p50_ms": percentile(v, 50),
                "max_ms": max(v)}
            for g, v in sorted(groups.items())}


def _commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def traced_pass(cli, ops):
    with Tracer() as tracer:
        wall, records = run_pass(cli, ops, tracer)
    return wall, records, tracer.summary()


def report_failures(records) -> None:
    failures = [(op, d) for op, _, d in records if d is not None]
    for op, detail in failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {op.group}: {detail} :: kpalg {' '.join(op.argv)[:200]}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    package, ops, setup_times, walls, records = measure(
        args.workload, args.seed, args.seconds)
    e2e = end_to_end(ops, walls, records, setup_times)
    result = {"env": env, "passes": len(walls), "ops_per_pass": len(ops),
              "samples": len(records), "pass_walls_s": walls,
              "setup_repeats_s": setup_times, "end_to_end": e2e,
              "failed_ops_ratio": 1 - e2e["ok_ops_ratio"],
              "groups": group_latencies(records)}

    shown = {name: (e2e[name], unit) for name, unit, *_ in metrics.END_TO_END}
    if args.trace:
        wall, traced, summary = traced_pass(package.cli, ops)
        records += traced
        layer = metrics.per_layer_values(summary, wall / e2e["wall_s"])
        result.update(traced_wall_s=wall, per_layer=layer,
                      spans=summary["spans"], trace_table=summary["table"])
        shown = {name: (layer[name], unit)
                 for name, unit, *_ in metrics.PER_LAYER}

    failed = sum(1 for *_, d in records if d is not None)
    report_failures(records)
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"env": env}, sort_keys=True))
    print(f"{args.workload}: {len(walls)} passes x {len(ops)} ops, "
          f"{len(result['groups'])} op groups, {len(records)} ops checked, "
          f"failed_ops_ratio {failed / len(records):.6f}")
    for group, row in result["groups"].items():
        print(f"  group {group}: {row}")
    for name, unit, _, meaning in metrics.END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}  ({meaning})")
    if args.trace:
        print(f"  traced pass: {summary['spans']} spans, {wall:.3f} s")
        for name, unit, _, moves in metrics.PER_LAYER:
            print(f"  {name} = {layer[name]:.6g} {unit}  -> {moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
