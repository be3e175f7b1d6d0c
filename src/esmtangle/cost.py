"""RAM-operation metering and verification of the engine's complexity bounds.

The cost model charges one operation per lookup-structure probe, per vertex
allocation, per child-id read, per id comparison, and per table write; the
menu below declares once, as an `Ops` record, what each metered event
charges, and every charge reads it.  A run's word size is the bit width that
addresses every vertex of its store at its end; the store only grows, so no
id it used is wider.  Hash probes are counted as one operation each (their
expected cost); pathological chaining would show up as wall-clock skew, not
as hidden ops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from io import BytesIO
from itertools import chain, islice
from typing import NamedTuple, Sequence


class Ops(NamedTuple):
    """A charge: operations per category.  Records add, and scale by an int."""

    probe: int = 0
    alloc: int = 0
    read: int = 0
    compare: int = 0
    write: int = 0

    def __add__(self, other: Ops) -> Ops:
        return Ops(*map(int.__add__, self, other))

    def __mul__(self, k: int) -> Ops:
        return Ops(*map(k.__mul__, self))


CATEGORIES = Ops._fields

# --- The menu: what each metered event charges --------------------------------
# The per-arity entries are cached, so a charge builds no record.


@cache
def intern_hit(arity: int) -> Ops:
    """An intern that finds its vertex: a probe and a read per child."""
    return Ops(probe=1, read=arity)


@cache
def intern_miss(arity: int) -> Ops:
    """An intern that allocates: a hit's, an allocation and 1 + arity writes."""
    return Ops(probe=1, alloc=1, read=arity, write=1 + arity)


IMPORT_VISIT = Ops(probe=1)  # `import_term`'s memo probe per subterm visited
ID_COMPARE = Ops(compare=1)  # `Tangle.node_eq`
GUARD_ATOM = Ops(compare=1)  # a guard atom evaluated
ASSIGN_READ = Ops(read=1)  # an enabled assignment reads each argument and its value
LOCATION_PROBE = Ops(probe=1)  # an assignment's defined location, into the update set
UPDATE_ENTRY = Ops(write=1)  # an update-set entry
MAP_WRITE = Ops(write=1)  # an update-set entry written into the location map
READ_UPDATES = Ops(probe=1)  # a dynamic read answered by the update set
READ_MAP = Ops(probe=2)  # a dynamic read the update set misses: it and the map
MEMO_PROBE = Ops(probe=1)  # an oracle application's memo probe
UNIT_CALL = Ops(read=1)  # an oracle call in unit cost mode
SEED_PROBE = Ops(probe=1)  # the dirty seed's probe per update-set key
FLAG_WRITE = Ops(write=1)  # a slot newly flagged dirty
PARENT_READ = Ops(read=1)  # a parent edge read when a slot's value changes
INPUT_WRITE = Ops(write=1)  # an input bound into the location map
INIT_LOCATION = Ops(probe=1, write=1)  # an init-block location: probe and write


class CostMeter:
    """Cumulative per-category operation counts.

    Metering is observational: disabling a meter must never change what the
    metered code computes.
    """

    __slots__ = ("enabled", *CATEGORIES)

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.probe = self.alloc = self.read = self.compare = self.write = 0

    @property
    def ram_ops(self) -> int:
        return self.probe + self.alloc + self.read + self.compare + self.write

    def charge(self, probe: int = 0, alloc: int = 0, read: int = 0, compare: int = 0,
               write: int = 0):
        """Charge operations, a menu record's as `charge(*ops)`."""
        if self.enabled:
            self.probe += probe
            self.alloc += alloc
            self.read += read
            self.compare += compare
            self.write += write

    def categories(self) -> dict[str, int]:
        return {c: getattr(self, c) for c in CATEGORIES}


def word_bits(vertices: int) -> int:
    """Bits needed to address `vertices` distinct ids, ceil(log2), at least 1."""
    return (max(vertices, 2) - 1).bit_length()


class StepCost(NamedTuple):
    """One record of the per-step series.  Record 0 is the initial state."""

    i: int
    ops: int
    vertices: int
    edges: int


@dataclass
class CostReport:
    """Everything a finished run reports about its cost; a run's series is a tuple."""

    n: int
    steps: int
    init_ops: int
    total_ops: int
    word_bits_max: int
    c_program: int
    per_step: Sequence[StepCost] = ()

    def check_additivity(self) -> bool:
        return self.total_ops == sum(rec.ops for rec in self.per_step)


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str = ""

    def __bool__(self):
        return self.passed


@dataclass(frozen=True)
class FrozenBounds:
    """Calibration constants, fitted once on the bundled corpus and frozen.

    Observed maxima on the calibration sweeps (corpus programs, sizes doubling
    4..256, plus 500 random imports up to compact size 10^4): import ratio
    7.94, init ratio 5.5, per-step excess 75 ops at unit slope, total ratio
    38, word-size margin -4 bits.  Each frozen constant keeps roughly 1.5-2x
    headroom over the observed maximum; fresh runs are checked against these.
    """

    import_a: float = 10.0  # import_term ops <= import_a * ||t|| + import_b
    import_b: float = 10.0
    init_a: float = 8.0     # init ops <= init_a * (||I|| + |init| + m) + init_b
    init_b: float = 64.0
    step_a: float = 1.0     # per-step ops <= step_a * (vertices + edges) + step_b
    step_b: float = 160.0
    total_a: float = 48.0   # total ops <= total_a * (n + n*T + T^2) + total_b
    total_b: float = 400.0
    word_k: int = 4         # word_bits_max <= ceil(log2(total_a * (n + T))) + word_k


DEFAULT_BOUNDS = FrozenBounds()


# Integers of smaller magnitude add exactly as floats.
_EXACT = 2**53


def _mean(values: list, n: int) -> float:
    """sum(map(float, values)) / n.  The exact sum stands in for the float
    sum when no partial sum of that can round: no value is negative and the
    total is below 2^53."""
    total = sum(values)
    if total >= _EXACT or min(values) < 0:
        total = sum(map(float, values))
    return total / n


def _fit(xs: list, ys: list) -> tuple[float, float]:
    """fit_affine over the points zip(xs, ys)."""
    n = len(xs)
    if not n:
        return 0.0, 0.0
    mx = _mean(xs, n)
    my = _mean(ys, n)
    denom = num = 0.0
    for x, y in zip(xs, ys):
        dx = x - mx
        denom += dx**2
        num += dx * (y - my)
    a = 0.0 if denom == 0 else max(0.0, num / denom)
    a = round(a, 6)
    b = max(y - a * x for x, y in zip(xs, ys))
    b = math.ceil(max(b, 0.0) * 1e6) / 1e6  # round up so the bound stays valid
    return a, b


def fit_affine(points: list[tuple[int, int]]) -> tuple[float, float]:
    """Fit a minimal-slope affine upper bound ops <= a*x + b over the points.

    Least-squares slope (clipped at zero) plus the maximum residual as the
    intercept: deterministic, three passes (the means, the two sums of the
    slope, the residual), and tight enough for regression use.  Sums are
    taken left to right, so the result is that of plain float arithmetic.
    """
    return _fit([x for x, _ in points], [y for _, y in points])


def _step_checks(
    report: CostReport, bounds: FrozenBounds
) -> tuple[Verdict, Verdict, tuple[float, float]]:
    """check_growth and check_step_linearity from one pass over the steps,
    each with its own first failure, and the fitted (a, b)."""
    series, c = report.per_step, report.c_program
    growth = linear = None  # the first failure of each
    sizes, ops = [], []
    if series:
        base = prev = series[0].vertices
        step_a, step_b = bounds.step_a, bounds.step_b
        for i, o, v, e in islice(series, 1, None):
            if growth is None:
                if v - prev > c:
                    growth = f"step {i}: vertex growth {v - prev} > c(p) = {c}"
                elif v > base + c * i:
                    growth = f"step {i}: {v} vertices > {base} + {c}*{i}"
                prev = v
            size = v + e
            if linear is None and o > step_a * size + step_b:
                linear = f"step {i}: {o} ops > {step_a}*{size} + {step_b}"
            sizes.append(size)
            ops.append(o)
    fitted = _fit(sizes, ops)
    if not series:
        growth_v = Verdict("growth", False, "empty per-step series")
    elif growth is not None:
        growth_v = Verdict("growth", False, growth)
    else:
        growth_v = Verdict("growth", True, f"max per-step vertex growth within c(p) = {c}")
    if not sizes:
        linear_v = Verdict("step_linear", True, "no steps")
    elif linear is not None:
        linear_v = Verdict("step_linear", False, linear)
    else:
        linear_v = Verdict("step_linear", True, f"fitted (a, b) = {fitted}")
    return growth_v, linear_v, fitted


def check_growth(report: CostReport) -> Verdict:
    """Per-record vertex growth stays within the program-derived constant."""
    return _step_checks(report, DEFAULT_BOUNDS)[0]


def check_step_linearity(
    report: CostReport, bounds: FrozenBounds = DEFAULT_BOUNDS
) -> tuple[Verdict, tuple[float, float]]:
    """Each step's ops stay within an affine function of the live store size."""
    _, verdict, fitted = _step_checks(report, bounds)
    return verdict, fitted


def check_total_bound(
    report: CostReport, bounds: FrozenBounds = DEFAULT_BOUNDS
) -> tuple[Verdict, tuple[float, float]]:
    """Whole-run ops and word size stay within the n + nT + T^2 budget."""
    n, t = report.n, report.steps
    budget = n + n * t + t * t
    fitted = fit_affine([(budget, report.total_ops)])
    limit = bounds.total_a * budget + bounds.total_b
    if report.total_ops > limit:
        detail = f"total {report.total_ops} ops > {bounds.total_a}*{budget} + {bounds.total_b}"
        return Verdict("total_bound", False, detail), fitted
    word_limit = math.ceil(math.log2(max(2, bounds.total_a * (n + t)))) + bounds.word_k
    if report.word_bits_max > word_limit:
        detail = f"word size {report.word_bits_max} bits > {word_limit}"
        return Verdict("total_bound", False, detail), fitted
    return Verdict("total_bound", True, f"ops/budget = {report.total_ops}/{budget}"), fitted


def run_all_checks(
    report: CostReport, bounds: FrozenBounds = DEFAULT_BOUNDS
) -> tuple[dict[str, Verdict], dict[str, float]]:
    """All three checks.  `esm verify --report` checks a run and then emits
    its report, which checks it again, so the report keeps the last results
    under all the checks read: a run's series, a tuple, as it is; a list, copied."""
    key = (
        bounds, report.n, report.steps, report.total_ops, report.word_bits_max,
        report.c_program, tuple(report.per_step),
    )
    last = vars(report).get("_checked")
    if last is None or last[0] != key:
        growth, step_v, (a, b) = _step_checks(report, bounds)
        total_v, (a2, b2) = check_total_bound(report, bounds)
        verdicts = {"growth": growth, "step_linear": step_v, "total_bound": total_v}
        fitted = {"a": a, "b": b, "a2": a2, "b2": b2}
        last = report._checked = (key, verdicts, fitted)
    return dict(last[1]), dict(last[2])


# One record as json.dumps(indent=2) writes it in the report's list.  The
# series goes out _CHUNK records at a time, each chunk made by one bytes `%`
# over the template repeated and written once, into the report's buffer.
_STEP_JSON = b'    {\n      "i": %d,\n      "ops": %d,\n      "vertices": %d,\n      "edges": %d\n    }'
_CHUNK = 1024


def emit_report(report: CostReport, format: str = "json") -> bytes:
    """Serialize a report, its verdicts against the frozen bounds included.
    Identical runs serialize byte-identically.  The per-step series, most of
    a report, is formatted in chunks straight to bytes and written once into
    the one buffer that is returned, between a head and a tail (for JSON,
    the halves of json.dumps(indent=2) of the document with no series)."""
    series = report.per_step
    if format == "json":
        verdicts, fitted = run_all_checks(report)
        doc = {"n": report.n, "steps": report.steps, "init_ops": report.init_ops,
               "total_ops": report.total_ops, "word_bits_max": report.word_bits_max,
               "c_program": report.c_program, "per_step": None,
               "verdicts": {name: v.passed for name, v in verdicts.items()}, "fitted": fitted}
        head, tail = json.dumps(doc, indent=2).encode().split(b'"per_step": null')
        opening, closing = (b"[\n", b"\n  ]") if series else (b"[", b"]")
        head, tail = head + b'"per_step": ' + opening, closing + tail + b"\n"
        template, sep = _STEP_JSON, b",\n"
    elif format == "csv":
        # One row per record after the baseline: the i=0 records are JSON-only.
        series = [r for r in series if r.i]
        head, template, sep, tail = b"i,ops,vertices,edges\n", b"%d,%d,%d,%d\n", b"", b""
    else:
        raise ValueError(f"unknown report format {format!r}")
    out = BytesIO()
    out.write(head)
    for start in range(0, len(series), _CHUNK):
        chunk = series[start:start + _CHUNK]
        if start:
            out.write(sep)
        out.write(sep.join([template] * len(chunk)) % tuple(chain.from_iterable(chunk)))
    out.write(tail)
    return out.getvalue()
