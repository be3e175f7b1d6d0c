"""Outside-in tracing for the benchmark's traced run.

`Tracer.install` wraps public functions of the esmtangle modules, and methods
of the store and of terms, so that every call records a span: name, start,
end and the span that was open when it began.  Spans are kept in memory in
flat arrays and turned into per-layer metrics when the traced pass ends.  A
target that no longer exists, or that nothing calls any more, reports zero.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from functools import wraps

# (span name, module, attribute[, method]).  Module-level functions are
# rebound in every esmtangle module that imported them, so internal calls are
# traced too.
TARGETS = (
    ("cli.load", "esmtangle.cli", "load_program"),
    ("syntax.parse", "esmtangle.syntax", "parse_program_file"),
    ("syntax.parse", "esmtangle.syntax", "parse_program"),
    ("syntax.validate", "esmtangle.syntax", "validate_program"),
    ("syntax.critical_terms", "esmtangle.syntax", "critical_terms"),
    ("engine.plan", "esmtangle.engine", "build_plan"),
    ("engine.step", "esmtangle.engine", "step_critical"),
    ("engine.ref_step", "esmtangle.engine", "step_ref"),
    ("engine.compare", "esmtangle.engine", "compare_engines"),
    ("tangle.intern", "esmtangle.tangle", "Tangle", "intern"),
    ("tangle.extract", "esmtangle.tangle", "Tangle", "extract_term"),
    ("tangle.import", "esmtangle.tangle", "Tangle", "import_term"),
    ("terms.eq", "esmtangle.terms", "Term", "__eq__"),
    ("cost.checks", "esmtangle.cost", "run_all_checks"),
    ("cost.report", "esmtangle.cost", "emit_report"),
)
# Every initialization (run, init_critical, init_ref, oracle calls) goes
# through the engine's shared initializer; without one, the public inits.
INIT_TARGETS = (("_init_state",), ("init_critical", "init_ref"))

_OUTER_ENGINE = ("engine.step", "engine.ref_step", "engine.init")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.allocs = 0  # intern calls that allocated a vertex
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _counting_allocs(self, intern):
        @wraps(intern)
        def counted(store, *args, **kwargs):
            before = len(store)
            nid = intern(store, *args, **kwargs)
            if len(store) != before:
                self.allocs += 1
            return nid

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        engine = sys.modules.get("esmtangle.engine")
        init_attrs = next((a for a in INIT_TARGETS if all(hasattr(engine, n) for n in a)), ())
        targets = TARGETS + tuple(("engine.init", "esmtangle.engine", a) for a in init_attrs)
        for name, module, attr, *method in targets:
            owner = getattr(sys.modules.get(module), attr, None)
            if owner is None:
                continue
            if method:
                fn = vars(owner).get(method[0])
                if fn is None:
                    continue
                wrapped = self._span(name, fn)
                if name == "tangle.intern":
                    wrapped = self._counting_allocs(wrapped)
                self._set(owner, method[0], wrapped)
                continue
            wrapped = self._span(name, owner)
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] != "esmtangle":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._set(mod, key, wrapped)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layers(self) -> dict[str, float]:
        """Per-layer times and counts from the recorded spans.

        A layer's time sums its outermost spans, so recursion and wrapper
        chains are counted once.  Self time is a span's duration minus the
        durations of its direct children.  A step span opened inside another
        step or an initialization belongs to an oracle call.
        """
        n = len(self.start)
        ids = {name: i for i, name in enumerate(self.names)}
        bit = {name: 1 << i for name, i in ids.items()}
        engine_mask = sum(bit.get(name, 0) for name in _OUTER_ENGINE)
        step_id = ids.get("engine.step", -1)
        ref_id = ids.get("engine.ref_step", -1)
        compare_id = ids.get("engine.compare", -1)

        name, parent, start, end = self.name, self.parent, self.start, self.end
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        above = [0] * n      # names of all enclosing spans, as a bit mask
        oracle = [False] * n  # inside an oracle step span, or one itself
        total = dict.fromkeys(self.names, 0.0)
        top_calls = dict.fromkeys(self.names, 0)
        calls = dict.fromkeys(self.names, 0)
        step_self, ref_self = [], []
        oracle_s, oracle_steps, compare_self = 0.0, 0, 0.0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | (1 << name[p])
                oracle[i] = oracle[p]
            k = name[i]
            calls[self.names[k]] += 1
            if not above[i] >> k & 1:
                total[self.names[k]] += dur[i]
                top_calls[self.names[k]] += 1
            if k == step_id and above[i] & engine_mask:
                oracle_steps += 1
                if not oracle[i]:
                    oracle_s += dur[i]
                oracle[i] = True
        # Self times need every child's duration, hence a second sweep.
        for i in range(n):
            k = name[i]
            if k == step_id and not above[i] & engine_mask:
                step_self.append(dur[i] - child[i])
            elif k == ref_id and not above[i] & engine_mask:
                ref_self.append(dur[i] - child[i])
            elif k == compare_id:
                compare_self += dur[i] - child[i]

        def seconds(layer):
            return total.get(layer, 0.0)

        intern_calls = calls.get("tangle.intern", 0)
        return {
            "engine.step_self_us_p50": _quantile(step_self, 0.50) * 1e6,
            "engine.step_self_us_p99": _quantile(step_self, 0.99) * 1e6,
            "engine.steps": len(step_self),
            "engine.oracle_s": oracle_s,
            "engine.oracle_steps": oracle_steps,
            "engine.init_s": seconds("engine.init"),
            "engine.init_calls": calls.get("engine.init", 0),
            "engine.ref_step_self_us_p50": _quantile(ref_self, 0.50) * 1e6,
            "engine.compare_self_s": compare_self,
            "engine.plan_s": seconds("engine.plan"),
            "engine.plan_calls": top_calls.get("engine.plan", 0),
            "syntax.parse_s": seconds("syntax.parse"),
            "syntax.validate_s": seconds("syntax.validate"),
            "syntax.critical_terms_s": seconds("syntax.critical_terms"),
            "terms.eq_calls": calls.get("terms.eq", 0),
            "terms.eq_s": seconds("terms.eq"),
            "tangle.intern_calls": intern_calls,
            "tangle.intern_s": seconds("tangle.intern"),
            "tangle.allocs": self.allocs,
            "tangle.intern_hit_ratio": 1 - self.allocs / intern_calls if intern_calls else 0.0,
            "tangle.extract_calls": calls.get("tangle.extract", 0),
            "tangle.extract_s": seconds("tangle.extract"),
            "tangle.import_s": seconds("tangle.import"),
            "cost.checks_s": seconds("cost.checks"),
            "cost.report_s": seconds("cost.report"),
            "cli.load_s": seconds("cli.load"),
        }


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
