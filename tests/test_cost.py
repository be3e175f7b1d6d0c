"""Cost model: meter bookkeeping, bound checkers, report serialization."""

import dataclasses
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    CORPUS, binary_input, corpus_path, load_corpus, small_inputs, write_clashing_host,
)

from esmtangle import codegen, cost
from esmtangle.cost import (
    DEFAULT_BOUNDS,
    CostMeter,
    CostReport,
    Ops,
    StepCost,
    Verdict,
    check_growth,
    check_step_linearity,
    check_total_bound,
    emit_report,
    fit_affine,
    run_all_checks,
)
from esmtangle.engine import CLASH, FUEL_EXHAUSTED, compare_engines, run
from esmtangle.syntax import Cond, GAtom, GNot, parse_program_file
from esmtangle.tangle import new_tangle
from esmtangle.terms import parse_term

DATA = Path(__file__).parent / "data"


def synthetic_report(deltas, ops=None, n=1, c_program=3):
    """Build a report from a vertex-delta series (record 0 is the baseline)."""
    per_step = [StepCost(0, 10, 5, 4)]
    v = 5
    for i, d in enumerate(deltas, start=1):
        v += d
        per_step.append(StepCost(i, ops[i - 1] if ops else 20, v, v - 1))
    total = sum(r.ops for r in per_step)
    return CostReport(
        n=n,
        steps=len(deltas),
        init_ops=10,
        total_ops=total,
        word_bits_max=4,
        c_program=c_program,
        per_step=per_step,
    )


def test_meter_categories_sum():
    m = CostMeter()
    m.charge(probe=2, alloc=1, read=3)
    m.charge(compare=1, write=2)
    assert m.ram_ops == 9
    assert sum(m.categories().values()) == m.ram_ops


def test_a_reused_meter_reports_each_run_its_own_word_size():
    # The word size is the run's store's at its end, not the largest the
    # meter has seen: a run after a larger one on the same meter reports as
    # it does on a fresh meter.
    p = load_corpus("bin_add")
    meter = CostMeter()
    big = run(p, [binary_input(p.vocab, 32)] * 2, meter=meter)
    small = run(p, [binary_input(p.vocab, 1)] * 2, meter=meter)
    fresh = run(p, [binary_input(p.vocab, 1)] * 2)
    assert big.cost.word_bits_max > small.cost.word_bits_max == 5
    assert emit_report(small.cost) == emit_report(fresh.cost)


def test_meter_disabled_charges_nothing():
    m = CostMeter(enabled=False)
    m.charge(probe=5)
    assert m.ram_ops == 0


def test_growth_passes_within_constant():
    rep = synthetic_report([3, 0, 2, 1], c_program=3)
    assert check_growth(rep).passed


def test_growth_fails_on_injected_violation():
    rep = synthetic_report([3, 4, 0], c_program=3)
    verdict = check_growth(rep)
    assert not verdict.passed
    assert "step 2" in verdict.detail


def test_growth_on_real_run():
    p = load_corpus("bin_succ")
    r = run(p, [binary_input(p.vocab, 12)])
    assert check_growth(r.cost).passed


def test_step_linearity_checker_sanity():
    rep = synthetic_report([1, 1, 1], ops=[20, 20, 20])
    verdict, fitted = check_step_linearity(rep)
    assert verdict.passed
    bad = synthetic_report([1, 1, 1], ops=[20, 20, 100000])
    verdict, _ = check_step_linearity(bad)
    assert not verdict.passed


def test_total_bound_checker_sanity():
    rep = synthetic_report([1, 1, 1], ops=[20, 20, 20])
    verdict, fitted = check_total_bound(rep)
    assert verdict.passed
    cubic = synthetic_report([1] * 10, ops=[10] * 10)
    cubic.total_ops = cubic.steps**3 * 1000
    verdict, _ = check_total_bound(cubic)
    assert not verdict.passed


def test_fit_affine_bounds_points():
    points = [(10, 105), (20, 210), (40, 400), (80, 790)]
    a, b = fit_affine(points)
    for x, y in points:
        assert y <= a * x + b + 1e-9
    assert a > 0


def test_fit_affine_degenerate():
    assert fit_affine([]) == (0.0, 0.0)
    a, b = fit_affine([(5, 7), (5, 9)])
    assert a == 0.0 and b == 9.0


def test_additivity_checked():
    rep = synthetic_report([1, 1], ops=[20, 30])
    assert rep.check_additivity()
    rep.total_ops += 1
    assert not rep.check_additivity()


def test_emit_json_schema():
    p = load_corpus("toggle")
    r = run(p)
    doc = json.loads(emit_report(r.cost))
    assert list(doc.keys()) == [
        "n", "steps", "init_ops", "total_ops", "word_bits_max",
        "c_program", "per_step", "verdicts", "fitted",
    ]
    assert list(doc["verdicts"].keys()) == ["growth", "step_linear", "total_bound"]
    assert list(doc["fitted"].keys()) == ["a", "b", "a2", "b2"]
    assert all(list(rec.keys()) == ["i", "ops", "vertices", "edges"] for rec in doc["per_step"])
    assert doc["steps"] == 2
    assert doc["total_ops"] == sum(rec["ops"] for rec in doc["per_step"])


@pytest.mark.parametrize("deltas", [None, [], [1, 0, 2]])
def test_emit_json_is_json_dumps_of_the_report(deltas):
    # The per-step records are formatted by hand; json.dumps of the whole
    # document is the reference, down to the byte.  None: no records at all.
    rep = synthetic_report(deltas or [], ops=[20, 7 * 10**12, 0][: len(deltas or [])])
    if deltas is None:
        rep.per_step = []
    verdicts, fitted = run_all_checks(rep)
    doc = {
        "n": rep.n, "steps": rep.steps, "init_ops": rep.init_ops,
        "total_ops": rep.total_ops, "word_bits_max": rep.word_bits_max,
        "c_program": rep.c_program,
        "per_step": [
            {"i": r.i, "ops": r.ops, "vertices": r.vertices, "edges": r.edges}
            for r in rep.per_step
        ],
        "verdicts": {name: v.passed for name, v in verdicts.items()},
        "fitted": fitted,
    }
    assert emit_report(rep) == (json.dumps(doc, indent=2) + "\n").encode()


def test_emit_csv_rows():
    p = load_corpus("toggle")
    r = run(p)
    lines = emit_report(r.cost, format="csv").decode().splitlines()
    assert lines[0] == "i,ops,vertices,edges"
    assert len(lines) == r.steps + 1


def test_emit_deterministic():
    p = load_corpus("bin_succ")
    a = run(p, [binary_input(p.vocab, 9)])
    b = run(p, [binary_input(p.vocab, 9)])
    assert emit_report(a.cost) == emit_report(b.cost)
    assert emit_report(a.cost, format="csv") == emit_report(b.cost, format="csv")


def test_emit_unknown_format():
    p = load_corpus("toggle")
    r = run(p)
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(r.cost, format="xml")


def test_init_ops_plus_step_ops_is_total():
    # Oracle-free runs: record 0 is the baseline, so the split is exact.
    p = load_corpus("bin_add")
    r = run(p, [binary_input(p.vocab, 3), binary_input(p.vocab, 5)])
    assert r.cost.total_ops == r.cost.init_ops + sum(rec.ops for rec in r.cost.per_step[1:])
    assert r.cost.init_ops == r.cost.per_step[0].ops


def test_zero_step_run_accounting():
    from esmtangle.syntax import parse_program

    p = parse_program(
        """
vocab { constructors { eps/0 } dynamic { z/0 } }
inputs { } output { z }
rules { }
"""
    )
    r = run(p)
    assert r.steps == 0
    assert len(r.cost.per_step) == 1
    assert r.cost.total_ops == r.cost.init_ops == r.cost.per_step[0].ops


def test_inline_oracle_init_ops_is_series_prefix():
    # Oracles with defined arguments run during initialization; init_ops must
    # equal the ops of the series prefix up to the post-init baseline.
    p = load_corpus("bin_mul")
    r = run(p, [binary_input(p.vocab, 3), binary_input(p.vocab, 2)])
    prefix = 0
    prefixes = set()
    for rec in r.cost.per_step:
        prefix += rec.ops
        prefixes.add(prefix)
    assert r.cost.init_ops in prefixes
    assert r.cost.total_ops == prefix


@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("mode", ["unit", "inline"])
def test_a_halt_during_initialization_keeps_the_series_additive(tmp_path, engine, mode):
    # An oracle call of the initialization halts the run: bin_mul runs out
    # of fuel inside `dec`, and the host's oracle body clashes.
    mul = load_corpus("bin_mul")
    host = parse_program_file(write_clashing_host(tmp_path))
    for program, inputs, fuel, outcome in [
        (mul, [binary_input(mul.vocab, 5), binary_input(mul.vocab, 6)], 10, FUEL_EXHAUSTED),
        (host, [], 10**6, CLASH),
    ]:
        r = run(program, inputs, fuel=fuel, engine=engine, oracle_mode=mode)
        assert r.outcome == outcome
        assert r.cost.per_step and r.cost.per_step[0].i == 0
        assert r.cost.check_additivity()
        assert r.cost.total_ops > 0


@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("mode", ["unit", "inline"])
def test_a_halted_initialization_counts_every_op_as_init(tmp_path, engine, mode):
    # A run that halts before its first transition made nothing but its
    # initialization (inline mode reports the nested transitions in it): the
    # baseline record closes the series in both modes.
    mul = load_corpus("bin_mul")
    host = parse_program_file(write_clashing_host(tmp_path))
    for program, inputs, fuel in [
        (mul, [binary_input(mul.vocab, 5), binary_input(mul.vocab, 6)], 10),
        (host, [], 10**6),
    ]:
        r = run(program, inputs, fuel=fuel, engine=engine, oracle_mode=mode)
        assert r.cost.init_ops == r.cost.total_ops > 0
        assert r.cost.check_additivity()
    # The clashing body's own initial point, in inline mode, then the baseline.
    assert len(r.cost.per_step) == (2 if mode == "inline" else 1)


def test_growth_check_catches_cumulative_growth():
    # Each record grows by at most c(p) = 2, but the third, numbered 1 again,
    # is 4 vertices past the baseline.
    series = [StepCost(0, 5, 10, 0), StepCost(1, 5, 12, 2), StepCost(1, 5, 14, 4)]
    report = CostReport(n=1, steps=2, init_ops=5, total_ops=15, word_bits_max=4,
                        c_program=2, per_step=series)
    assert check_growth(report) == Verdict("growth", False, "step 1: 14 vertices > 10 + 2*1")


def test_total_bound_catches_a_word_size_too_wide():
    # n = 1, T = 1: ops are far inside the budget, but 64-bit ids exceed
    # ceil(log2(48 * 2)) + 4 = 11 bits.
    report = CostReport(n=1, steps=1, init_ops=1, total_ops=2, word_bits_max=64,
                        c_program=1, per_step=[StepCost(0, 1, 2, 1), StepCost(1, 1, 2, 1)])
    verdict, _ = check_total_bound(report)
    assert verdict == Verdict("total_bound", False, "word size 64 bits > 11")


class _CountingIndex(dict):
    """A store's intern index that counts the probes that find a vertex."""

    hits = 0

    def get(self, key, default=None):
        found = super().get(key, default)
        self.hits += found is not None
        return found


def _hits_and_ops(program, inputs, engine):
    g = new_tangle(program.vocab)
    g._index = _CountingIndex()
    run(program, inputs, engine=engine, tangle=g)
    return g._index.hits, g.meter.categories()


def test_the_menu_is_the_one_source(monkeypatch):
    # Every intern hit, of the generated code and of `Tangle.intern`, is
    # charged as `cost.intern_hit` says, so changing that one entry changes
    # what each of them charges.
    p = load_corpus("bin_succ")
    inputs = [binary_input(p.vocab, 6)]
    monkeypatch.setattr(codegen, "_compiled", {})
    before = {e: _hits_and_ops(p, inputs, e) for e in ("critical", "reference")}
    monkeypatch.setattr(codegen, "_compiled", {})
    monkeypatch.setattr(cost, "intern_hit", lambda arity: Ops(probe=1, read=arity + 1))
    for engine, (hits, ops) in before.items():
        again, patched = _hits_and_ops(p, inputs, engine)
        assert again == hits > 0
        assert patched == {**ops, "read": ops["read"] + hits}
    assert compare_engines(p, inputs).equivalent
    g = new_tangle(p.vocab)
    eps = g.import_term(parse_term("eps", p.vocab))
    d1 = p.vocab.get("d1")
    g.intern(d1, (eps,))
    ops = g.meter.categories()
    g.intern(d1, (eps,))
    assert g.meter.categories() == {**ops, "probe": ops["probe"] + 1, "read": ops["read"] + 2}


# Unit mode pauses the meter in a nested oracle run, so there bin_mul's first
# run adds edges that no write paid for: it is left out of the relation.
_REUSED = [
    (name, values, mode)
    for name, values in [("bin_succ", (20,)), ("bin_add", (13, 13)), ("bin_mul", (7, 7))]
    for mode in ("inline", "unit")
    if (name, mode) != ("bin_mul", "unit")
]


@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("name, values, mode", _REUSED)
def test_a_second_run_on_a_reused_store_interns_no_miss(name, values, mode, engine):
    # The same run again on the same store finds every vertex the first one
    # allocated: the same steps, probes, reads and compares, no allocation,
    # and fewer writes by exactly what the first run's misses wrote, one per
    # vertex and one per child (`cost.intern_miss`).
    p = load_corpus(name)
    g = new_tangle(p.vocab)
    inputs = [binary_input(p.vocab, v) for v in values]
    runs = []
    for _ in range(2):
        before, edges = g.meter.categories(), g.edges
        steps = run(p, inputs, engine=engine, oracle_mode=mode, tangle=g).steps
        ops = {k: v - before[k] for k, v in g.meter.categories().items()}
        runs.append((steps, ops, g.edges - edges))
    (steps1, first, edges1), (steps2, second, _) = runs
    assert steps2 == steps1 and first["alloc"] > 0 and second["alloc"] == 0
    assert [second[k] for k in ("probe", "read", "compare")] == [
        first[k] for k in ("probe", "read", "compare")]
    assert first["write"] - second["write"] == first["alloc"] + edges1


def _shape(rec: StepCost) -> tuple[int, int, int]:
    return rec.i, rec.vertices, rec.edges


@pytest.mark.parametrize("mode", ["inline", "unit"])
@pytest.mark.parametrize("name", CORPUS)
def test_the_engines_agree_record_by_record(name, mode):
    # The two engines build one store step by step: each record of their
    # series has the same index, vertices and edges.  (Their ops differ: the
    # reference engine recomputes every slot.)
    p = load_corpus(name)
    inputs = small_inputs(p, name)
    fast, ref = (run(p, inputs, engine=e, oracle_mode=mode).cost.per_step
                 for e in ("critical", "reference"))
    assert len(fast) > 1 and list(map(_shape, fast)) == list(map(_shape, ref))


def _first_atom(rules):
    guard = next(s.guard for s in rules if isinstance(s, Cond))
    while not isinstance(guard, GAtom):
        guard = guard.sub if isinstance(guard, GNot) else guard.left
    return guard


@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("mode", ["inline", "unit"])
@pytest.mark.parametrize("name", CORPUS)
def test_a_duplicated_test_charges_one_compare_per_pass_of_the_rules(name, mode, engine):
    # `if A then { }` after the rules, with A their first guard atom, changes
    # no value and no transition: the series keeps its shape, and
    # initialization and the nested oracle runs keep their ops.  Each host
    # transition evaluates it once, and so does the terminal pass folded into
    # the last record: T + 1 compares and nothing else, T the host's steps.
    p = load_corpus(name)
    dup = dataclasses.replace(p, rules=(*p.rules, Cond(_first_atom(p.rules), ())))
    inputs = small_inputs(p, name)
    host_steps = run(p, inputs, engine=engine, oracle_mode="unit").steps
    base_meter, dup_meter = CostMeter(), CostMeter()
    base = run(p, inputs, engine=engine, oracle_mode=mode, meter=base_meter)
    after = run(dup, inputs, engine=engine, oracle_mode=mode, meter=dup_meter)
    assert (after.outcome, after.steps) == (base.outcome, base.steps)
    old, new = base.cost.per_step, after.cost.per_step
    assert list(map(_shape, new)) == list(map(_shape, old))
    assert after.cost.init_ops == base.cost.init_ops
    diffs = [b.ops - a.ops for a, b in zip(old, new)]
    assert diffs[0] == 0 and diffs[-1] == 2 and set(diffs[:-1]) <= {0, 1}
    assert diffs.count(1) == host_steps - 1
    assert dup_meter.categories() == {**base_meter.categories(),
                                      "compare": base_meter.compare + host_steps + 1}


# Fuel bounds nested oracle transitions too, so a run of bin_mul cut by fuel
# stops inside an oracle call (inline mode, at fuel 2) or halts its
# initialization (unit mode, at fuel 0): it is left out of the relation.
@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("mode", ["inline", "unit"])
@pytest.mark.parametrize("name", [n for n in CORPUS if n != "bin_mul"])
def test_a_run_cut_by_fuel_is_a_prefix_of_the_full_run(name, mode, engine):
    # With fuel f below the full run's T steps, a run takes f steps and its
    # series is the full run's first f + 1 records.  Only the last one's ops
    # differ: it also holds the rules that found no fuel left, where the full
    # run's goes on to the next step.
    p = load_corpus(name)
    inputs = small_inputs(p, name)
    full = run(p, inputs, engine=engine, oracle_mode=mode)
    steps = full.steps
    for fuel in sorted({f for f in (0, 1, 2, steps // 2, steps - 1) if 0 <= f < steps}):
        cut = run(p, inputs, fuel=fuel, engine=engine, oracle_mode=mode)
        series = cut.cost.per_step
        assert (cut.outcome, cut.steps, len(series)) == (FUEL_EXHAUSTED, fuel, fuel + 1), fuel
        assert series[:-1] == full.cost.per_step[:fuel], fuel
        assert _shape(series[-1]) == _shape(full.cost.per_step[fuel]), fuel


_WORD = re.compile(r'"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*')  # a quoted path, or a name


def _write_renamed(src: Path, dst: Path):
    """Write the program at `src`, and the oracle bodies it loads, to `dst`
    and beside it under their own paths, with each dynamic and oracle symbol
    renamed to a name unique to its file.  Constructors keep their names,
    since a host and its bodies share them."""
    program = parse_program_file(src)
    symbols = [*program.vocab.dynamics, *(o.symbol for o in program.oracles)]
    names = {s.name: f"{s.name}_{src.stem}" for s in symbols}
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(_WORD.sub(lambda m: names.get(m[0], m[0]), src.read_text()))
    for o in program.oracles:
        _write_renamed(src.parent / o.path, dst.parent / o.path)


@pytest.mark.parametrize("name", [*CORPUS, "shared_name"])
def test_renaming_symbols_changes_no_run(tmp_path, name):
    # A symbol's name means nothing to a run: with every dynamic and oracle
    # symbol renamed, file by file, the outcome, the output, the steps, every
    # record and the report stay, on both engines in both modes.  The
    # shared_name host's `f` and its body's `f` are two oracles; renamed,
    # they are two names.
    src = corpus_path(name) if name in CORPUS else DATA / name / "host.esm"
    _write_renamed(src, tmp_path / src.name)
    p, renamed = parse_program_file(src), parse_program_file(tmp_path / src.name)
    inputs = small_inputs(p, name) if name in CORPUS else []
    for engine in ("critical", "reference"):
        for mode in ("inline", "unit"):
            a, b = (run(q, inputs, engine=engine, oracle_mode=mode) for q in (p, renamed))
            assert (b.outcome, b.output, b.steps) == (a.outcome, a.output, a.steps), (engine, mode)
            assert b.cost.per_step == a.cost.per_step, (engine, mode)
            assert emit_report(b.cost) == emit_report(a.cost), (engine, mode)


def test_run_all_checks_on_real_runs():
    for name, values in [("bin_succ", [9]), ("bin_add", [5, 6])]:
        p = load_corpus(name)
        r = run(p, [binary_input(p.vocab, v) for v in values])
        verdicts, fitted = run_all_checks(r.cost)
        assert all(v.passed for v in verdicts.values()), verdicts
        assert fitted["a"] >= 0 and fitted["a2"] >= 0


def test_the_check_cache_sees_an_edit_to_a_series_given_as_a_list():
    # A hand-made report may keep its series in a list and edit it after a
    # check: the cached verdicts must follow a record replaced in place and a
    # changed total, as a fresh report's check does.
    rep = synthetic_report([1, 1, 1])
    assert all(v.passed for v in run_all_checks(rep)[0].values())
    rep.per_step[2] = rep.per_step[2]._replace(ops=10**6)
    assert run_all_checks(rep) == run_all_checks(dataclasses.replace(rep))
    assert not run_all_checks(rep)[0]["step_linear"].passed
    rep.total_ops = 10**6
    assert run_all_checks(rep) == run_all_checks(dataclasses.replace(rep))
    assert not run_all_checks(rep)[0]["total_bound"].passed


def test_a_repeated_check_of_a_run_copies_nothing():
    # A run's series is a tuple, which the cache keys on as it is: checking
    # the run again copies none of its 1,673 records.
    p = load_corpus("bin_add")
    report = run(p, [binary_input(p.vocab, v) for v in (40, 30)]).cost
    first = run_all_checks(report)
    tracemalloc.start()
    try:
        again = run_all_checks(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 1024, peak


# The checks as they were written before they shared one pass over the steps:
# the reference for the one-pass version, which must agree to the last bit.


def _ref_fit_affine(points):
    if not points:
        return 0.0, 0.0
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(points)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    a = 0.0 if denom == 0 else max(0.0, num / denom)
    a = round(a, 6)
    b = max(y - a * x for x, y in zip(xs, ys))
    b = math.ceil(max(b, 0.0) * 1e6) / 1e6
    return a, b


def _ref_check_growth(report):
    c = report.c_program
    series = report.per_step
    if not series:
        return Verdict("growth", False, "empty per-step series")
    base = prev = series[0].vertices
    for rec in series[1:]:
        delta = rec.vertices - prev
        if delta > c:
            return Verdict("growth", False, f"step {rec.i}: vertex growth {delta} > c(p) = {c}")
        if rec.vertices > base + c * rec.i:
            return Verdict(
                "growth", False, f"step {rec.i}: {rec.vertices} vertices > {base} + {c}*{rec.i}"
            )
        prev = rec.vertices
    return Verdict("growth", True, f"max per-step vertex growth within c(p) = {c}")


def _ref_check_step_linearity(report, bounds):
    points = [(rec.vertices + rec.edges, rec.ops) for rec in report.per_step[1:]]
    fitted = _ref_fit_affine(points)
    if not points:
        return Verdict("step_linear", True, "no steps"), fitted
    for rec in report.per_step[1:]:
        size = rec.vertices + rec.edges
        if rec.ops > bounds.step_a * size + bounds.step_b:
            detail = f"step {rec.i}: {rec.ops} ops > {bounds.step_a}*{size} + {bounds.step_b}"
            return Verdict("step_linear", False, detail), fitted
    return Verdict("step_linear", True, f"fitted (a, b) = {fitted}"), fitted


def _series(rng, length, c):
    """A report of `length` steps whose growth and ops stay near their limits,
    so either check may fail anywhere."""
    per_step = [StepCost(0, rng.randint(0, 50), rng.randint(1, 30), rng.randint(0, 30))]
    v = per_step[0].vertices
    for i in range(1, length + 1):
        v += rng.choice((0, 1, c, c, c + 1)) if rng.random() < 0.2 else rng.randint(0, c)
        e = rng.randint(0, 2 * v)
        limit = DEFAULT_BOUNDS.step_a * (v + e) + DEFAULT_BOUNDS.step_b
        if rng.random() < 0.05:
            ops = int(limit) + rng.choice((1, 0, -1))
        else:
            ops = rng.randint(0, int(limit))
        per_step.append(StepCost(i, ops, v, e))
    return CostReport(1, length, 10, sum(r.ops for r in per_step), 4, c, per_step)


def _edge_reports():
    one = CostReport(1, 0, 10, 10, 4, 3, [StepCost(0, 10, 5, 4)])
    empty = CostReport(1, 0, 0, 0, 4, 3, [])
    flat = synthetic_report([0] * 6)  # every size equal: the slope's denominator is 0
    first_growth = synthetic_report([9, 1, 1])
    last_growth = synthetic_report([1, 1, 9])
    first_linear = synthetic_report([1, 1, 1], ops=[10**6, 20, 20])
    last_linear = synthetic_report([1, 1, 1], ops=[20, 20, 10**6])
    both_last = synthetic_report([1, 1, 9], ops=[20, 20, 10**6])
    return [one, empty, flat, first_growth, last_growth, first_linear, last_linear, both_last]


def test_one_pass_checks_match_the_reference_checks():
    rng = random.Random(1998)
    reports = _edge_reports()
    reports += [_series(rng, rng.randint(0, 80), rng.randint(1, 6)) for _ in range(400)]
    failed = set()
    for rep in reports:
        growth = check_growth(rep)
        linear, fitted = check_step_linearity(rep)
        assert growth == _ref_check_growth(rep)
        ref_linear, ref_fitted = _ref_check_step_linearity(rep, DEFAULT_BOUNDS)
        assert (linear, repr(fitted)) == (ref_linear, repr(ref_fitted))
        verdicts, fit = run_all_checks(rep)
        assert (verdicts["growth"], verdicts["step_linear"]) == (growth, linear)
        assert repr((fit["a"], fit["b"])) == repr(fitted)
        failed.update(name for name, v in verdicts.items() if not v.passed)
    assert {"growth", "step_linear"} <= failed


def test_fit_affine_matches_the_reference_fit():
    rng = random.Random(53)
    cases = [[], [(5, 7)], [(5, 7), (5, 9)], [(0, 0)] * 4, [(2**60, 1), (1, 2**60)],
             [(-3, 4), (7, -2), (2**53, 1)], [(2**53 - 1, 1), (1, 1)],
             # float sums that are not exact, so the exact ones would differ
             [(2**53 + 2, 625007), (2**53, 536340), (2**53 + 2, 651337)],
             [(-(2**53) - 2, 380269), (-(2**53), 894648), (-(2**53) - 2, 257113)]]
    for _ in range(300):
        hi = rng.choice((10, 10**4, 10**12, 2**53))
        lo = rng.choice((0, 0, -hi))
        points = [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(rng.randint(1, 40))]
        cases.append(points)
    for points in cases:
        assert repr(fit_affine(points)) == repr(_ref_fit_affine(points)), points


def _hand_made_report(length: int, container) -> CostReport:
    """`length` records: every third has i == 0, every other one ops at or
    above 2^53, every fifth a negative vertex count, and record 0 all three."""
    records = container(
        StepCost(0 if k % 3 == 0 else k, 2**53 + k if k % 2 == 0 else k,
                 -k - 1 if k % 5 == 0 else 7 * k, 10**18 + k)
        for k in range(length)
    )
    return CostReport(n=3, steps=length, init_ops=0, total_ops=sum(r.ops for r in records),
                      word_bits_max=5, c_program=3, per_step=records)


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("length", [0, 1, cost._CHUNK - 1, cost._CHUNK, cost._CHUNK + 1,
                                    2 * cost._CHUNK + 1])
def test_the_chunked_report_is_exact_at_chunk_boundaries(length, container):
    # emit_report formats the series in chunks of cost._CHUNK records; at and
    # around each boundary both formats equal their one-record-at-a-time text.
    rep = _hand_made_report(length, container)
    verdicts, fitted = run_all_checks(rep)
    doc = {
        "n": rep.n, "steps": rep.steps, "init_ops": rep.init_ops,
        "total_ops": rep.total_ops, "word_bits_max": rep.word_bits_max,
        "c_program": rep.c_program,
        "per_step": [
            {"i": r.i, "ops": r.ops, "vertices": r.vertices, "edges": r.edges}
            for r in rep.per_step
        ],
        "verdicts": {name: v.passed for name, v in verdicts.items()},
        "fitted": fitted,
    }
    assert emit_report(rep) == (json.dumps(doc, indent=2) + "\n").encode()
    rows = ["i,ops,vertices,edges"] + ["%d,%d,%d,%d" % r for r in rep.per_step if r.i]
    assert emit_report(rep, format="csv") == "".join(row + "\n" for row in rows).encode()


def test_the_csv_has_one_row_per_record_after_the_baseline():
    # Inline bin_mul's series also holds its nested runs' records, so its CSV
    # has more rows than the run has steps: 55 rows for 49 steps on (3, 2).
    p = load_corpus("bin_mul")
    r = run(p, [binary_input(p.vocab, 3), binary_input(p.vocab, 2)], oracle_mode="inline")
    rows = emit_report(r.cost, format="csv").decode().splitlines()[1:]
    assert rows == ["%d,%d,%d,%d" % rec for rec in r.cost.per_step if rec.i]
    assert (len(rows), r.steps) == (55, 49)
