"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that every oracle accepts the program's real output and rejects a
deliberately corrupted one, that the runner counts a corrupted output and
a timeout as failed ops, that two traced passes give identical counts and
leave every wrapped function restored, that the traced layers separate as
the workloads intend, and that BENCHMARK.json matches metrics.py.  Exits 1
if any check fails.
"""

from __future__ import annotations

import json
import sys
import types

import metrics
import run
import workloads
from tracer import PACKAGE, TARGETS

SEED = 3
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def verdict(op, rc, out) -> str | None:
    """The runner's verdict on one output: finish, then check."""
    try:
        result = op.finish(out) if op.finish and rc == 0 else None
        return op.check(rc, out, result)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def first(ops, pred):
    return next(op for op in ops if pred(op))


def oracle_cases(ops_by_workload):
    """(label, op, corruptions) per oracle; a corruption maps the real
    output to a wrong one."""
    qo = ops_by_workload["quotient_ops"]
    ca = ops_by_workload["check_all"]
    br = ops_by_workload["basis_roundtrip"]
    body = first(qo, lambda op: op.group == "body")
    ladder = first(qo, lambda op: op.group == "tail" and "v(" not in op.argv[-1])
    kp4 = first(qo, lambda op: op.group == "tail" and "v(" in op.argv[-1])
    sampled = first(ca, lambda op: op.group.startswith("all-"))
    kp = first(ca, lambda op: op.group.startswith("kp-"))
    text_basis = first(br, lambda op: "text" in op.argv)
    json_basis = first(br, lambda op: "structured" in op.argv)

    def reports(edit):
        def corrupt(out):
            doc = json.loads(out)
            edit(doc["reports"])
            return json.dumps(doc)
        return corrupt

    def bump_cases(reps):
        reps[-1]["cases"] += 1

    def add_failure(reps):
        reps[0]["failures"].append({"index": 0, "seed": "x", "input": "x",
                                    "detail": "x"})

    def drop_report(reps):
        reps.pop(0)

    def lines(edit):
        def corrupt(out):
            ls = out.splitlines()
            edit(ls)
            return "\n".join(ls) + "\n"
        return corrupt

    def flip_last_level(ls):
        i = next(i for i, line in enumerate(ls) if line.startswith("p["))
        line = ls[i]
        j = line.rindex("]") - 1
        ls[i] = line[:j] + ("2" if line[j] == "1" else "1") + line[j + 1:]

    def words(edit):
        def corrupt(out):
            doc = json.loads(out)
            edit(doc["words"])
            return json.dumps(doc)
        return corrupt

    return [
        ("x.R.y ideal membership", body, {
            "nonzero": lambda out: "1 * v(0)\n",
            "empty": lambda out: "",
        }),
        ("ladder s_of closed form", ladder, {
            "term dropped": lambda out: " + ".join(out.split(" + ")[1:]),
            "coefficient 2": lambda out: out.replace("1 * ", "2 * ", 1),
            "zero": lambda out: "0\n",
        }),
        ("KP4 expansion is 0", kp4, {
            "nonzero": lambda out: "1 * v(0,0)\n",
        }),
        ("check all closed-form counts", sampled, {
            "kp count +1": reports(bump_cases),
            "failure listed": reports(add_failure),
            "report missing": reports(drop_report),
        }),
        ("check kp window count", kp, {
            "count +1": reports(bump_cases),
            "failure listed": reports(add_failure),
        }),
        ("basis round trip and counts (text)", text_basis, {
            "word dropped": lines(lambda ls: ls.pop()),
            "word duplicated": lines(lambda ls: ls.append(ls[-1])),
            "level changed": lines(flip_last_level),
            "not canonical": lambda out: out.replace(" . ", " .  ", 1),
        }),
        ("basis round trip and counts (structured)", json_basis, {
            "word dropped": words(lambda ws: ws.pop()),
            "vertex renamed": words(
                lambda ws: ws.__setitem__(0, ws[0].replace("v(", "v( ", 1))),
        }),
    ]


def check_oracles(cli, ops_by_workload) -> None:
    for label, op, corruptions in oracle_cases(ops_by_workload):
        rc, out = run.invoke(cli, op.argv)
        expect(verdict(op, rc, out) is None, f"{label}: real output accepted")
        for name, corrupt in corruptions.items():
            bad = verdict(op, rc, corrupt(out))
            expect(bad is not None, f"{label}: rejects {name} ({bad})")
        expect(verdict(op, 1, out) is not None,
               f"{label}: rejects exit status 1")


def check_runner_counts_failures(cli, ops) -> None:
    def corrupted_main(argv):
        rc = cli.main(argv)
        print("1 * v(0)")
        return rc

    fake = types.SimpleNamespace(main=corrupted_main)
    body = [op for op in ops if op.group == "body"][:5]
    _, records = run.run_pass(fake, body)
    e2e = run.end_to_end(body, [1.0], records, [0.0])
    expect(e2e["ok_ops_ratio"] == 0.0,
           f"runner: corrupted outputs give failed_ops_ratio "
           f"{1 - e2e['ok_ops_ratio']:.2f}")

    slow = [op for op in ops if op.group == "tail" and "1,1,1,1,1,1,1,1,1]" in
            op.argv[-1]][:1]
    saved = run.OP_TIMEOUT_S
    run.OP_TIMEOUT_S = 0.01
    try:
        _, records = run.run_pass(cli, slow)
    finally:
        run.OP_TIMEOUT_S = saved
    expect(len(records) == 1 and (records[0][2] or "").startswith("timeout"),
           f"runner: a timeout is recorded as a failed op ({records[0][2]})")


def _counts(summary) -> dict:
    return {"calls": {n: r["calls"] for n, r in summary["table"].items()},
            "steps": summary["steps"],
            "checks": {c: (r["cases"], r["normalize"])
                       for c, r in summary["checks"].items()}}


def _bindings() -> dict:
    """Every package-level binding and method the tracer may replace."""
    out = {}
    for name, mod in sys.modules.items():
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for key, value in vars(mod).items():
                if callable(value) or isinstance(value, dict):
                    out[(name, key)] = (value, dict(value)
                                        if isinstance(value, dict) else None)
    pkg = sys.modules[PACKAGE]
    for t in TARGETS:
        if "." in t.owner:
            cls = getattr(pkg, t.owner.split(".")[1])
            out[(t.owner, t.attr)] = (cls.__dict__[t.attr], None)
    return out


def check_trace(cli, ops_by_workload) -> None:
    before = _bindings()
    for workload, ops in ops_by_workload.items():
        if workload == "quotient_ops":
            ops = [op for op in ops if op.group == "body"][:30] + [
                op for op in ops if op.group == "tail"
                and "1,1,1,1,1,1,1,1,1" not in op.argv[-1]][:6]
        else:
            ops = sorted(ops, key=lambda op: op.cases)[:2]
        summaries = [run.traced_pass(cli, ops)[2] for _ in range(2)]
        a, b = (_counts(s) for s in summaries)
        expect(a == b, f"trace {workload}: two traced passes, identical "
                       f"counts ({summaries[0]['spans']} spans)")
        expect(len(summaries[0]["table"]) > 10,
               f"trace {workload}: {len(summaries[0]['table'])} span names")
    after = _bindings()
    same = all(after[k][0] is v[0] and after[k][1] == v[1]
               for k, v in before.items())
    expect(same and after.keys() == before.keys(),
           "trace: every wrapped function restored")


def check_layer_separation(cli, ops_by_workload) -> None:
    tail = [op for op in ops_by_workload["quotient_ops"] if op.group == "tail"]
    summary = run.traced_pass(cli, tail)[2]
    table = summary["table"]
    top = sorted((n for n in table if n != "op"),
                 key=lambda n: -table[n]["self_s"])[:3]
    expect(top[0] == "rewrite.normalize",
           "layers: quotient_ops tail led by self time of "
           + ", ".join(f"{n} {table[n]['self_s']:.3f} s" for n in top))

    basis = sorted(ops_by_workload["basis_roundtrip"], key=lambda op: op.cases)
    summary = run.traced_pass(cli, basis[:3])[2]
    values = metrics.per_layer_values(summary, 1.0)
    by_layer = sorted(((values[f"layer.{name}.self_s"], name)
                       for name in ("cli", "syntax", "rewrite", "kgraph",
                                    "canonical", "freealg", "algebra")),
                      reverse=True)
    expect(values["rewrite.normalize.calls"] == 0
           and values["layer.rewrite.self_s"] == 0
           and by_layer[0][1] == "syntax",
           "layers: basis_roundtrip makes no rewrite call and is led by "
           + ", ".join(f"{name} {t:.3f} s" for t, name in by_layer[:4]))


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json: workloads match workloads.py")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
           == [m[:3] for m in metrics.END_TO_END],
           "BENCHMARK.json: end_to_end matches metrics.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
           == [m[:3] for m in metrics.PER_LAYER],
           "BENCHMARK.json: per_layer matches metrics.PER_LAYER")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    package = run.load_package()
    cli = package.cli
    ops = {w: workloads.make_ops(w, SEED, package) for w in workloads.WORKLOADS}
    check_benchmark_json()
    check_oracles(cli, ops)
    check_runner_counts_failures(cli, ops["quotient_ops"])
    check_trace(cli, ops)
    check_layer_separation(cli, ops)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
