"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``kumjian_pask`` with wrappers that
record a span (name, parent span, start, end) per call.  A function is
replaced wherever its name is bound: in its own module, in every module that
imported it by name, in module-level tables such as ``verify.CHECKS``, and
on the class for methods.  ``restore`` puts every original back.  Spans are
kept in flat arrays and summarised after the run; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import bisect
import contextlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

PACKAGE = "kumjian_pask"
LAYERS = ("cli", "syntax", "rewrite", "kgraph", "canonical", "freealg",
          "algebra", "verify")
RULES = ("R1_COMPOSE", "R2_ORTHO", "R3_GHOST_PATH", "R4_EXPAND",
         "R5_REPRESENTATIVE")
CHECK_NAMES = {"check_lemma3": "lemma3", "check_lemma8": "lemma8",
               "check_lemma12": "lemma12", "check_lemma13": "lemma13",
               "check_confluence": "confluence", "check_kp_relations": "kp"}


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner`` is a module name under the package, or
    ``module.Class`` for a method.  With ``per_site`` the span is named after
    the module the name was looked up in instead of ``name``."""

    name: str
    owner: str
    attr: str
    per_site: bool = False


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("syntax.parse_element", "syntax", "parse_element"),
    Target("syntax.format_element", "syntax", "format_element"),
    Target("syntax.format_word", "syntax", "format_word"),
    Target("syntax.format_path", "syntax", "format_path"),
    Target("rewrite.normalize", "rewrite", "normalize"),
    Target("rewrite.apply_rule", "rewrite", "apply_rule"),
    Target("rewrite.find_redex", "rewrite", "find_redex"),
    Target("rewrite.match_at", "rewrite", "match_at"),
    Target("rewrite.word_measure", "rewrite", "word_measure"),
    # The scheduler's sort key is looked up in rewrite; Element.sorted_terms
    # looks it up in freealg.  Naming each site keeps the two apart.
    Target("freealg.word_key", "freealg", "word_key", per_site=True),
    Target("kgraph.StandardKGraph.paths", "kgraph.StandardKGraph", "paths"),
    Target("kgraph.StandardKGraph.s_of", "kgraph.StandardKGraph", "s_of"),
    Target("kgraph.compose", "kgraph", "compose"),
    Target("kgraph.factorize", "kgraph", "factorize"),
    Target("kgraph.Path.init", "kgraph.Path", "__post_init__"),
    Target("canonical.in_A", "canonical", "in_A"),
    Target("canonical.in_R", "canonical", "in_R"),
    Target("canonical.rep_source", "canonical", "rep_source"),
    Target("canonical.member_sources", "canonical", "member_sources"),
    Target("canonical.representative", "canonical", "representative"),
    Target("freealg.Element.from_terms", "freealg.Element", "from_terms"),
    Target("freealg.letter", "freealg", "letter"),
    Target("algebra.enumerate_basis", "algebra", "enumerate_basis"),
    *(Target(f"verify.{short}", "verify", attr)
      for attr, short in CHECK_NAMES.items()),
)

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.roots: list[int] = []
        self.root_group: list[str] = []
        self.steps: Counter = Counter()
        self.cases: dict[int, int] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        hook = self._hook_for(name)

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(sid, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_for(self, name: str):
        if name == "rewrite.apply_rule":
            def count_step(sid, args, result):
                self.steps[args[3].rule.value] += 1
            return count_step
        if name.startswith("verify."):
            def count_cases(sid, args, result):
                self.cases[sid] = result.cases
            return count_cases
        return None

    @contextlib.contextmanager
    def root(self, group: str):
        """The span of one benchmark op; its descendants form the op."""
        sid = len(self.span_start)
        self.roots.append(sid)
        self.root_group.append(group)
        self.span_name.append(self._name_id(ROOT))
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[sid] = time.perf_counter()
            self._stack.pop()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for target in TARGETS:
            mod_name, _, cls_name = target.owner.partition(".")
            home = modules[f"{PACKAGE}.{mod_name}"]
            if cls_name:
                self._install_method(getattr(home, cls_name), target)
            else:
                self._install_function(modules, getattr(home, target.attr),
                                       target)

    def _install_method(self, cls, target: Target) -> None:
        raw = cls.__dict__[target.attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, target.name))
        else:
            new = self._wrap(raw, target.name)
        setattr(cls, target.attr, new)
        self._undo.append(lambda: setattr(cls, target.attr, raw))

    def _install_function(self, modules, fn, target: Target) -> None:
        wrappers: dict[str, object] = {}

        def wrapper_for(site: str):
            short = site.rpartition(".")[2]
            name = (f"{short}.{target.attr}"
                    if target.per_site and site != PACKAGE else target.name)
            if name not in wrappers:
                wrappers[name] = self._wrap(fn, name)
            return wrappers[name]

        for site, mod in modules.items():
            space = vars(mod)
            for key, value in list(space.items()):
                if value is fn:
                    space[key] = wrapper_for(site)
                    self._undo.append(
                        lambda s=space, k=key: s.__setitem__(k, fn))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        if dval is fn:
                            value[dkey] = wrapper_for(site)
                            self._undo.append(
                                lambda d=value, k=dkey: d.__setitem__(k, fn))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- summarising -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s, overall and per op
        group, plus rule steps and per-check cases."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        groups = sorted(set(self.root_group))
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "groups": {g: [0, 0.0, 0.0] for g in groups}}
                 for name in self.names}
        roots = self.roots
        for i in range(n):
            dur = ends[i] - starts[i]
            own = dur - child[i]
            row = table[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
            r = bisect.bisect_right(roots, i) - 1
            if r >= 0:
                g = row["groups"][self.root_group[r]]
                g[0] += 1
                g[1] += dur
                g[2] += own
        return {"spans": n, "table": table, "steps": dict(self.steps),
                "checks": self._check_summary()}

    def _check_summary(self) -> dict:
        """Cases, time and normalize calls per verify check; a normalize
        call belongs to its nearest enclosing check span."""
        verify_ids = {self._ids[f"verify.{s}"]: s for s in CHECK_NAMES.values()
                      if f"verify.{s}" in self._ids}
        out = {s: {"cases": 0, "total_s": 0.0, "normalize": 0}
               for s in CHECK_NAMES.values()}
        for sid, cases in self.cases.items():
            row = out[verify_ids[self.span_name[sid]]]
            row["cases"] += cases
            row["total_s"] += self.span_end[sid] - self.span_start[sid]
        norm_id = self._ids.get("rewrite.normalize")
        if norm_id is None or not verify_ids:
            return out
        for i in range(len(self.span_name)):
            if self.span_name[i] != norm_id:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in verify_ids:
                p = self.span_parent[p]
            if p >= 0:
                out[verify_ids[self.span_name[p]]]["normalize"] += 1
        return out

