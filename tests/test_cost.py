"""Cost model: meter bookkeeping, bound checkers, report serialization."""

import json

import pytest

from conftest import binary_input, load_corpus

from esmtangle.cost import (
    CostMeter,
    CostReport,
    StepCost,
    check_growth,
    check_step_linearity,
    check_total_bound,
    emit_report,
    fit_affine,
    run_all_checks,
)
from esmtangle.engine import run


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
    m.charge_probe(2)
    m.charge_alloc()
    m.charge_read(3)
    m.charge_compare()
    m.charge_write(2)
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
    m.charge_probe(5)
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


def test_run_all_checks_on_real_runs():
    for name, values in [("bin_succ", [9]), ("bin_add", [5, 6])]:
        p = load_corpus(name)
        r = run(p, [binary_input(p.vocab, v) for v in values])
        verdicts, fitted = run_all_checks(r.cost)
        assert all(v.passed for v in verdicts.values()), verdicts
        assert fitted["a"] >= 0 and fitted["a2"] >= 0
