"""The benchmark's metric catalogue.

END_TO_END metrics are what a ``kpalg`` user sees; every workload reports
all of them from an untraced run.  PER_LAYER metrics come from the traced
run; each names the end-to-end metric and workload it is expected to move,
so that a change to one layer can state its prediction in these terms.
BENCHMARK.json lists the same names, units and directions.
"""

from __future__ import annotations

from tracer import CHECK_NAMES, LAYERS, RULES

# (name, unit, better, meaning)
END_TO_END = (
    ("setup_s", "s", "lower",
     "median over repeats of package import plus seeded input generation"),
    ("wall_s", "s", "lower",
     "median wall time of one pass over the workload's ops"),
    ("ops_per_s", "1/s", "higher",
     "kpalg invocations per second (ops per pass / wall_s)"),
    ("op_p50_ms", "ms", "lower", "median latency of one invocation"),
    ("op_p90_ms", "ms", "lower", "90th-percentile latency of one invocation"),
    ("cases_per_s", "1/s", "higher",
     "known-answer cases per second: one per op on quotient_ops, one per "
     "verifier case on check_all, one per round-tripped word on "
     "basis_roundtrip"),
    ("peak_rss_mb", "MB", "lower", "peak resident set of the run's process"),
    ("ok_ops_ratio", "ratio", "higher",
     "1 - failed_ops_ratio: ops whose output matched the known answer, "
     "out of all attempted (mismatch, exception and timeout all fail)"),
)

_QO_TAIL = "op_p90_ms and wall_s on quotient_ops (the tail)"
_QO_P50 = "op_p50_ms on quotient_ops"
_CA = "cases_per_s on check_all"
_BR = "cases_per_s on basis_roundtrip (words per second)"

# (name, unit, better, expected to move)
PER_LAYER = (
    ("rewrite.normalize.calls", "count", "lower",
     f"{_QO_TAIL}; a little {_CA}; zero on basis_roundtrip"),
    ("rewrite.normalize.self_s", "s", "lower",
     f"scheduler and bookkeeping: {_QO_TAIL}; a little {_CA}; "
     "zero on basis_roundtrip"),
    ("rewrite.apply_rule.calls", "count", "lower", "wall_s on quotient_ops"),
    ("rewrite.apply_rule.self_s", "s", "lower", "wall_s on quotient_ops"),
    *((f"rewrite.steps.{rule}", "count", "lower", "wall_s on quotient_ops")
      for rule in RULES),
    ("rewrite.find_redex.calls", "count", "lower", f"{_CA}; {_QO_P50}"),
    ("rewrite.find_redex.self_s", "s", "lower", f"{_CA}; {_QO_P50}"),
    ("rewrite.match_at.calls", "count", "lower", f"{_CA}; {_QO_P50}"),
    ("rewrite.word_measure.calls", "count", "lower", f"{_CA}; {_QO_P50}"),
    ("rewrite.word_measure.total_s", "s", "lower", f"{_CA}; {_QO_P50}"),
    ("rewrite.word_key.calls", "count", "lower",
     f"scheduler sort keys: {_QO_TAIL}"),
    ("rewrite.measures_per_step", "ratio", "lower",
     f"word_measure calls per apply_rule: {_CA}; {_QO_P50}"),
    ("kgraph.StandardKGraph.paths.calls", "count", "lower", _QO_TAIL),
    ("kgraph.StandardKGraph.paths.total_s", "s", "lower", _QO_TAIL),
    ("kgraph.StandardKGraph.s_of.calls", "count", "lower", _QO_TAIL),
    ("kgraph.StandardKGraph.s_of.total_s", "s", "lower", _QO_TAIL),
    ("kgraph.compose.calls", "count", "lower", "wall_s on quotient_ops"),
    ("kgraph.factorize.calls", "count", "lower", "wall_s on quotient_ops"),
    ("kgraph.Path.init.calls", "count", "lower", f"{_BR}; {_CA}"),
    ("kgraph.Path.init.total_s", "s", "lower", f"{_BR}; {_CA}"),
    *((f"canonical.{fn}.calls", "count", "lower", f"{_BR}; {_CA}")
      for fn in ("in_A", "in_R", "rep_source", "member_sources",
                 "representative")),
    ("canonical.rep_source.total_s", "s", "lower", f"{_BR}; {_CA}"),
    ("freealg.Element.from_terms.calls", "count", "lower", _CA),
    ("freealg.Element.from_terms.total_s", "s", "lower", _CA),
    ("freealg.letter.calls", "count", "lower", _CA),
    ("freealg.word_key.calls", "count", "lower",
     "output sorting: op_p50_ms on quotient_ops"),
    ("syntax.parse_element.calls", "count", "lower", f"{_BR}; {_QO_P50}"),
    ("syntax.parse_element.total_s", "s", "lower", f"{_BR}; {_QO_P50}"),
    ("syntax.format_element.calls", "count", "lower", f"{_CA}; {_QO_P50}"),
    ("syntax.format_element.total_s", "s", "lower", f"{_CA}; {_QO_P50}"),
    ("syntax.format_word.calls", "count", "lower", f"{_CA}; {_BR}"),
    ("syntax.format_word.total_s", "s", "lower", f"{_CA}; {_BR}"),
    ("syntax.format_path.calls", "count", "lower", f"{_CA}; {_BR}"),
    ("algebra.enumerate_basis.total_s", "s", "lower", _BR),
    ("cli.main.calls", "count", "lower", "argparse and dispatch: ops_per_s"),
    ("cli.main.self_s", "s", "lower",
     f"argparse, dispatch and output: {_QO_P50}"),
    *(m for check in CHECK_NAMES.values() for m in (
        (f"verify.{check}.total_s", "s", "lower", _CA),
        (f"verify.{check}.cases", "count", "higher", _CA),
        (f"verify.{check}.normalize_per_case", "ratio", "higher",
         f"useful work per case (a skipped case normalizes nothing): {_CA}"),
    )),
    *((f"layer.{layer}.self_s", "s", "lower",
       "self time of every traced span of the module")
      for layer in LAYERS),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced pass wall time / untraced wall_s"),
)


def per_layer_values(summary: dict, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric from a Tracer summary; absent spans are 0."""
    table = summary["table"]

    def stat(name: str, field: str):
        row = table.get(name)
        return row[field] if row else 0

    # Span statistics first; the derived metrics below overwrite the
    # verify.* and layer.* names they share a suffix with.
    values = {}
    for metric, *_ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "total_s"):
            values[metric] = stat(head, field)
    for rule in RULES:
        values[f"rewrite.steps.{rule}"] = summary["steps"].get(rule, 0)
    steps = stat("rewrite.apply_rule", "calls")
    values["rewrite.measures_per_step"] = (
        stat("rewrite.word_measure", "calls") / steps if steps else 0.0)
    for check, row in summary["checks"].items():
        values[f"verify.{check}.total_s"] = row["total_s"]
        values[f"verify.{check}.cases"] = row["cases"]
        values[f"verify.{check}.normalize_per_case"] = (
            row["normalize"] / row["cases"] if row["cases"] else 0.0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items()
            if name.split(".", 1)[0] == layer)
    values["trace.overhead_ratio"] = overhead_ratio
    return values
