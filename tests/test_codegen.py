"""The functions generated per plan: their cache, their lookups of the store's
`intern`, their life span, their source lines and the branches of `rules`
(see `esmtangle.codegen`)."""

import dataclasses
import gc
import io
import linecache
import weakref
from pathlib import Path
from types import ModuleType

import pytest

from conftest import binary_input, load_corpus, small_inputs

from esmtangle import codegen
from esmtangle.codegen import SLOT_ORACLE
from esmtangle.cost import emit_report
from esmtangle.engine import (
    NEXT,
    RunContext,
    build_plan,
    compare_engines,
    init_critical,
    init_ref,
    run,
    step_critical,
    step_ref,
)
from esmtangle.syntax import parse_program, parse_program_file
from esmtangle.tangle import Tangle, new_tangle
from esmtangle.terms import Term, format_term

DATA = Path(__file__).parent / "data"


def _report(program, inputs):
    trace = io.StringIO()
    r = run(program, inputs, trace=trace)
    return trace.getvalue(), emit_report(r.cost), emit_report(r.cost, format="csv")


def test_a_reparsed_program_compiles_nothing_new(monkeypatch):
    first = load_corpus("bin_mul")  # oracle plans are generated too
    inputs = [binary_input(first.vocab, 3), binary_input(first.vocab, 5)]
    before = _report(first, inputs)

    def no_compile(*args):
        raise AssertionError("a plan of a known structure was compiled again")

    monkeypatch.setattr(codegen, "_compile", no_compile)
    again = load_corpus("bin_mul")
    assert again is not first
    assert _report(again, inputs) == before


def test_a_reparsed_program_gets_back_its_plan():
    # Equal programs share one plan object, and so do their oracle bodies,
    # each of which is also the plan its own body gets on its own.
    plan = build_plan(load_corpus("bin_mul"))
    again = load_corpus("bin_mul")
    assert build_plan(again) is plan
    assert plan.oracle_plans and all(
        build_plan(o.body) is plan.oracle_plans[o.symbol.name] for o in again.oracles
    )


def test_a_changed_program_gets_its_own_plan():
    p = load_corpus("bin_add")
    changed = dataclasses.replace(p, rules=p.rules[1:])
    assert changed != p
    assert build_plan(changed) is not build_plan(p)
    assert build_plan(dataclasses.replace(p, rules=(*p.rules,))) is build_plan(p)


def _nested(rules: str):
    return parse_program(f"""
vocab {{ constructors {{ eps/0 }} dynamic {{ b/0; c/0 }} }}
inputs {{ }} output {{ c }}
rules {{ {rules} }}
""")


def test_block_lengths_tell_a_statement_in_a_branch_from_one_after_it():
    # The two programs list the same statements and guards in the same
    # order; only where the inner `if` ends tells them apart.
    inside = _nested("if c = undef then { if b = undef then { b := eps c := eps } }")
    after = _nested("if c = undef then { if b = undef then { b := eps } c := eps }")
    assert inside != after
    assert build_plan(inside).code != build_plan(after).code


def test_oracle_bodies_are_part_of_the_key(tmp_path):
    # Two hosts of one text, name and oracle path, whose bodies differ.
    host = """
vocab { constructors { zero/0; s/1 } dynamic { y/0 } }
inputs { } output { y }
oracles { f/1 = "body.esm"; }
rules { if y = undef then { y := f(zero) } }
"""
    outputs = []
    for value in ("x", "s(x)"):
        folder = tmp_path / value.replace("(", "_").replace(")", "")
        folder.mkdir()
        (folder / "host.esm").write_text(host)
        (folder / "body.esm").write_text(f"""
vocab {{ constructors {{ zero/0; s/1 }} dynamic {{ x/0; y/0 }} }}
inputs {{ x }} output {{ y }}
rules {{ if y = undef then {{ y := {value} }} }}
""")
        program = parse_program_file(folder / "host.esm")
        outputs.append((build_plan(program), format_term(run(program).output)))
    (first, zero), (second, one) = outputs
    assert first is not second and (zero, one) == ("zero", "s(zero)")


def test_a_symbols_kind_and_arity_are_part_of_the_key():
    # `y` is unused and each pair lists the vocabulary in one order, so only
    # y's kind, then its arity, tells the programs apart.
    def program(vocab):
        return parse_program(f"""
vocab {{ {vocab} }}
inputs {{ }} output {{ x }}
rules {{ if x = undef then {{ x := c }} }}
""")

    for first, second in [("constructors { c/0; y/0 } dynamic { x/0 }",
                           "constructors { c/0 } dynamic { y/0; x/0 }"),
                          ("constructors { c/0; y/0 } dynamic { x/0 }",
                           "constructors { c/0; y/1 } dynamic { x/0 }")]:
        a, b = program(first), program(second)
        assert a != b and build_plan(a) is not build_plan(b)
        assert (build_plan(a).program, build_plan(b).program) == (a, b)


def test_a_hosts_oracle_plans_are_its_bodies_own_plans_after_eviction(monkeypatch):
    # A host's key holds its bodies' plans, so when a body's plan has left
    # the cache, the host parsed again misses too, and takes the body's new
    # plan rather than keep the old one.
    monkeypatch.setattr(codegen, "_compiled", {})
    monkeypatch.setattr(codegen, "_COMPILED_MAX", 4)
    build_plan(load_corpus("bin_mul"))  # its three bodies' plans, then its own
    build_plan(load_corpus("toggle"))  # drops the oldest, a body's plan
    again = load_corpus("bin_mul")
    plan = build_plan(again)
    assert len(again.oracles) == 3
    assert all(plan.oracle_plans[o.symbol.name] is build_plan(o.body) for o in again.oracles)


def test_a_host_and_a_body_that_declare_one_name_get_two_plans():
    plan = build_plan(parse_program_file(DATA / "shared_name" / "host.esm"))
    body = plan.oracle_plans["f"]
    assert body.program.name == "a.esm" and body.oracle_plans["f"].program.name == "b.esm"
    assert len({id(plan), id(body), id(body.oracle_plans["f"])}) == 3


def test_a_full_cache_drops_its_oldest_plan_and_its_source(monkeypatch):
    monkeypatch.setattr(codegen, "_compiled", {})
    monkeypatch.setattr(codegen, "_COMPILED_MAX", 3)
    programs = [_phase_program(2, plain) for plain in range(4)]
    plans = [build_plan(p) for p in programs]
    files = [plan.rules.__code__.co_filename for plan in plans]
    assert list(codegen._compiled.values()) == plans[1:]
    assert files[0] not in linecache.cache and all(f in linecache.cache for f in files[1:])
    assert build_plan(programs[1]) is plans[1]
    assert build_plan(programs[0]) is not plans[0]


def _step_interns(monkeypatch, program, inputs, init, step, wrap_first):
    """The `_intern` calls of the transitions of a run, seen by a wrapper put on
    the class before the run starts (`wrap_first`) or after initialization,
    as (symbol name, whether it allocated), and the vertices the transitions
    added to the store."""
    calls = []
    real = Tangle._intern

    def counted(self, label, children):
        before = len(self)
        nid = real(self, label, children)
        calls.append((label.name, len(self) > before))
        return nid

    if wrap_first:
        monkeypatch.setattr(Tangle, "_intern", counted)
    state = init(program, inputs)
    monkeypatch.setattr(Tangle, "_intern", counted)
    calls.clear()
    start = len(state.ctx.core.tangle)
    while (out := step(program, state)).kind == NEXT:
        state = out.state
    monkeypatch.setattr(Tangle, "_intern", real)
    return calls, len(state.ctx.core.tangle) - start


@pytest.mark.parametrize("init, step", [(init_critical, step_critical), (init_ref, step_ref)])
def test_a_class_level_intern_wrapper_sees_every_call(monkeypatch, init, step):
    # An intern hit is an inline probe of the store's index, so `intern` is
    # called on a miss only, and every call allocates.  The wrapper is put on
    # before any code for the plan is generated, or after the plan and its
    # functions exist: the generated code looks `intern` up on the store at
    # each pass, so both see the same calls, one per vertex allocated.
    p = load_corpus("bin_add")
    inputs = [binary_input(p.vocab, 5), binary_input(p.vocab, 6)]
    monkeypatch.setattr(codegen, "_compiled", {})
    first, allocated = _step_interns(monkeypatch, p, inputs, init, step, wrap_first=True)
    later, _ = _step_interns(monkeypatch, p, inputs, init, step, wrap_first=False)
    assert allocated > 10
    assert first == [(name, True) for name, _ in first] and len(first) == allocated
    assert later == first


def _step_oracle_calls(monkeypatch, program, inputs, mode, wrap_first):
    """The oracle calls of a fast-engine run, seen by a wrapper put on
    `RunContext.invoke` before the run starts (`wrap_first`) or after
    initialization: those of initialization, then per transition its calls
    with the values before and after it.  And the run's plan and memo."""
    calls = []
    real = RunContext.invoke

    def counted(ctx, name, argids):
        calls.append((name, argids))
        return real(ctx, name, argids)

    if wrap_first:
        monkeypatch.setattr(RunContext, "invoke", counted)
    state = init_critical(program, inputs, oracle_mode=mode)
    monkeypatch.setattr(RunContext, "invoke", counted)
    seen_at_init, steps = list(calls), []
    calls.clear()
    while (out := step_critical(program, state)).kind == NEXT:
        steps.append((state.values, out.state.values, list(calls)))
        calls.clear()
        state = out.state
    monkeypatch.setattr(RunContext, "invoke", real)
    return seen_at_init, steps, state.ctx.plan, state.ctx.core.memo


def _changed_oracle_slots(plan, before, after):
    """The calls a fast-engine transition from `before` to `after` makes: one
    per oracle slot, in slot order, whose argument ids changed and are all
    defined."""
    return [
        (sym.name, tuple(after[c] for c in kids))
        for kind, sym, kids in plan.slots
        if kind == SLOT_ORACLE
        and any(before[c] != after[c] for c in kids)
        and all(after[c] is not None for c in kids)
    ]


@pytest.mark.parametrize("mode", ["inline", "unit"])
def test_a_class_level_invoke_wrapper_sees_every_oracle_call(monkeypatch, mode):
    # Every oracle call, nested ones included, goes through the run context's
    # `invoke`, looked up at each call: a wrapper put on before the plan's
    # code is generated and one put on after see the same calls, and each
    # call the memo holds.  An oracle application is recomputed only when an
    # argument changed, so a transition calls exactly those.
    p = load_corpus("bin_mul")
    inputs = [binary_input(p.vocab, 3), binary_input(p.vocab, 5)]
    monkeypatch.setattr(codegen, "_compiled", {})
    at_init, first, plan, memo = _step_oracle_calls(monkeypatch, p, inputs, mode, wrap_first=True)
    _, later, _, _ = _step_oracle_calls(monkeypatch, p, inputs, mode, wrap_first=False)
    assert [calls for _, _, calls in later] == [calls for _, _, calls in first]
    for before, after, calls in first:
        assert calls == _changed_oracle_slots(plan, before, after)
    assert sum(len(calls) for _, _, calls in first) == 7
    seen = at_init + [call for _, _, calls in first for call in calls]
    assert {(plan.oracle_plans[name], args) for name, args in seen} == set(memo)


def test_generated_code_refers_to_no_module():
    plans = [build_plan(load_corpus("bin_mul"))]
    plans += plans[0].oracle_plans.values()
    for plan in plans:
        for fn in (plan.rules, plan.slots_all, plan.critical, plan.reference):
            assert not any(type(v) is ModuleType for v in fn.__globals__.values())


@pytest.mark.parametrize("name", ["bin_mul", "bin_add"])
def test_a_pass_charges_the_sums_it_is_given(monkeypatch, name):
    # `slots_all` starts from the sums its caller has not charged yet and
    # puts them on the meter with its own: bin_mul's before an oracle call,
    # bin_add's at its end.  So given (p, r, c, w) it charges exactly that
    # much more than given zeros, and computes the same values.  Through the
    # loops: a reference step gives it the rules' compares, probes and reads
    # and the update set's writes, so it charges exactly those more; a
    # critical step's dirty pass charges no compare, so the step charges the
    # rules' compares exactly, and on top of their probes and reads and the
    # update set's writes its own.  Both come to the values `slots_all`
    # computes.  Everything runs on the first step's update set, once before
    # it is measured so that its interns and oracle calls hit.
    p = load_corpus(name)
    inputs = [binary_input(p.vocab, 3), binary_input(p.vocab, 5)]
    state = init_critical(p, inputs)
    ctx, plan = state.ctx, state.ctx.plan
    meter = ctx.core.tangle.meter
    _, updates, _, c, probes, reads = plan.rules(state.values)
    store = {k: v for k, v in {**state.store, **updates}.items() if v is not None}

    def charged(call, meter=meter):
        call()
        before = meter.categories()
        out = call()
        return out, {k: v - before[k] for k, v in meter.categories().items()}

    seen = [charged(lambda: plan.slots_all(ctx, state.values, updates, store, *sums))
            for sums in [(0, 0, 0, 0), (1, 2, 3, 4)]]
    (zero, base), (given, sums) = seen
    assert given == zero and sum(base.values()) > 0
    assert {k: sums[k] - base[k] for k in base} == {
        "probe": 1, "alloc": 0, "read": 2, "compare": 3, "write": 4,
    }
    steps = {"probe": probes, "alloc": 0, "read": reads, "compare": c, "write": 2 * len(updates)}
    ref = init_ref(p, inputs)
    ref_meter = ref.ctx.core.tangle.meter
    ref_values, ref_step = charged(lambda: plan.reference(ref.ctx, ref.values, ref.store, 0, 1)[0],
                                   ref_meter)
    ref_base = charged(lambda: plan.slots_all(ref.ctx, ref.values, updates, store, 0, 0, 0, 0),
                       ref_meter)[1]
    assert ref_values == zero and {k: ref_step[k] - ref_base[k] for k in steps} == steps
    values, step = charged(lambda: plan.critical(ctx, state.values[:], dict(state.store), 0, 1)[0])
    assert values == zero and step["compare"] == c
    assert all(step[k] >= steps[k] + len(updates) * (k == "probe") for k in steps)


def test_the_cache_keeps_no_store_alive():
    # The cache keeps the run's plan, and nothing in a plan refers to a
    # store, so the run's store goes with its last state.
    p = load_corpus("bin_succ")
    state = init_critical(p, [binary_input(p.vocab, 5)])
    store = weakref.ref(state.ctx.core.tangle)
    for _ in range(3):
        state = step_critical(p, state).state
    del state
    gc.collect()
    assert store() is None


@pytest.mark.parametrize("name", ["bin_add", "str_reverse"])
def test_generated_source_is_registered_with_linecache(name):
    plan = build_plan(load_corpus(name))
    for fn, head in [
        (plan.rules, "def rules("),
        (plan.slots_all, "def slots_all("),
        (plan.critical, "def critical("),
        (plan.reference, "def reference("),
    ]:
        code = fn.__code__
        assert code.co_filename.startswith(f"<esmtangle plan {name}.esm")
        assert linecache.getline(code.co_filename, code.co_firstlineno).startswith(head)


def _rules_lines(plan) -> list[str]:
    return [line for fn in codegen._rules_source(plan.code, codegen._sure(plan.slots)) for line in fn]


@pytest.mark.parametrize("name", ["toggle", "bin_succ", "bin_add", "bin_mul", "str_reverse", "merge_demo"])
def test_phase_machines_branch_on_their_phase(name):
    # Every bundled program but toggle and merge_demo, and each oracle body,
    # is a phase machine: its `rules` reads `pc` once and runs one branch per
    # phase constant its tests name, or the one for none of them.
    plans = [build_plan(load_corpus(name))]
    plans += plans[0].oracle_plans.values()
    for plan in plans:
        lines = _rules_lines(plan)
        branches = [line.split("values[")[1] for line in lines if line.startswith("    if d == ")]
        if name in ("toggle", "merge_demo"):
            assert branches == [] and not any("d = values[" in line for line in lines)
            continue
        pc = plan.criticals.position[Term(plan.program.vocab.get("pc"))]
        assert f"    d = values[{pc}]" in lines
        phases = [plan.criticals.terms[int(b.rstrip("]:"))].head.name for b in branches]
        assert len(phases) >= 2 and all(p.startswith("ph_") for p in phases)


def _phase_program(phases: int, plain: int):
    """`phases` rules that each test the phase `pc` against their own phase
    constant, and `plain` rules whose tests name no phase."""
    dynamic = ["pc/0", "z/0", *(f"x{j}/0" for j in range(plain))]
    rules = [f"if pc = ph{i} then {{ pc := ph{(i + 1) % phases} }}" for i in range(phases)]
    rules += [f"if x{j} = undef then {{ x{j} := done }}" for j in range(plain)]
    return parse_program(f"""
vocab {{
  constructors {{ {"; ".join(["done/0", *(f"ph{i}/0" for i in range(phases))])} }}
  dynamic {{ {"; ".join(dynamic)} }}
}}
inputs {{ }} output {{ z }}
init {{ pc := ph0; }}
rules {{
  {chr(10).join(rules)}
}}
""")


def test_a_dispatch_is_made_only_while_the_code_stays_small():
    # Each branch repeats the rules that do not test the phase.  With one
    # such rule beside 30 phases, the branches together take 1.6 times the
    # lines of the undispatched code, within _DISPATCH_GROWTH; with 30 they
    # would take 15 times them, so `rules` is generated as one branch, the
    # code folded under no fact.
    assert any("d = values[" in line for line in _rules_lines(build_plan(_phase_program(30, 1))))
    p = _phase_program(30, 30)
    lines = _rules_lines(build_plan(p))
    assert not any("d = values[" in line for line in lines)
    assert sum(" if " in line and " else " in line for line in lines) == 60  # a test per rule
    assert compare_engines(p, fuel=70).equivalent


def _small_runs(name):
    """Output, text trace and JSON report of a small run of a bundled
    program, on each engine in each oracle mode."""
    p = load_corpus(name)
    inputs = small_inputs(p, name)
    out = []
    for engine in ("critical", "reference"):
        for mode in ("inline", "unit"):
            trace = io.StringIO()
            r = run(p, inputs, engine=engine, oracle_mode=mode, trace=trace)
            output = None if r.output is None else format_term(r.output)
            out.append((r.outcome, output, trace.getvalue(), emit_report(r.cost)))
    return out


_CUT = ["toggle", "bin_succ", "bin_add", "bin_mul", "str_reverse"]


@pytest.mark.parametrize("piece, lines", [(1, 1), (4, 8)])
def test_cutting_into_pieces_changes_no_charge(monkeypatch, piece, lines):
    # A function too long for one piece calls its pieces in order, and each
    # takes and returns the locals it changes, the step's sums among them.
    # So the bundled programs, whose functions fit in one piece, run the
    # same when every function is cut into tiny pieces: the same output,
    # trace and report, on both engines and in both oracle modes.
    monkeypatch.setattr(codegen, "_compiled", {})
    whole = {name: _small_runs(name) for name in _CUT}
    monkeypatch.setattr(codegen, "_PIECE", piece)
    monkeypatch.setattr(codegen, "_PIECE_LINES", lines)
    monkeypatch.setattr(codegen, "_compiled", {})
    ns = build_plan(load_corpus("bin_mul")).slots_all.__globals__
    assert {"_rules_1", "_slots_all_1", "_slots_dirty_1"} <= set(ns)
    for name in _CUT:
        assert _small_runs(name) == whole[name], name


@pytest.mark.parametrize("piece, lines", [(1, 1), (4, 8)])
def test_a_loop_that_calls_pieces_charges_the_same(monkeypatch, piece, lines):
    # Under the forced pieces of `test_cutting_into_pieces_changes_no_charge`
    # the critical loop calls its rules and its dirty pass as pieces, which
    # take the dirty flags and return the flag writes with the other sums;
    # it runs as the loop with both inline: the same output, trace and
    # report, on both engines and in both oracle modes.
    def called(plan) -> set[str]:
        return {name.rsplit("_", 1)[0] for name in plan.critical.__code__.co_names
                if name.startswith(("_critical_rules_", "_slots_dirty_"))}

    monkeypatch.setattr(codegen, "_compiled", {})
    whole = _small_runs("bin_add")
    assert called(build_plan(load_corpus("bin_add"))) == set()
    monkeypatch.setattr(codegen, "_PIECE", piece)
    monkeypatch.setattr(codegen, "_PIECE_LINES", lines)
    monkeypatch.setattr(codegen, "_compiled", {})
    assert called(build_plan(load_corpus("bin_add"))) == {"_critical_rules", "_slots_dirty"}
    assert _small_runs("bin_add") == whole


@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("name", ["bin_add", "bin_mul"])
def test_an_intern_wrapper_put_on_before_a_run_sees_every_miss(monkeypatch, name, engine):
    # Each call of a transition loop or a slot pass looks `_intern` up on the
    # store, so a wrapper put on the class before `run` sees every vertex the
    # run allocates, its nested oracle runs' included, in the order of their
    # indices.
    p = load_corpus(name)
    real, misses = Tangle._intern, []

    def counted(self, label, children):
        before = len(self)
        nid = real(self, label, children)
        if len(self) > before:
            misses.append(nid)
        return nid

    tangle = new_tangle(p.vocab)
    monkeypatch.setattr(Tangle, "_intern", counted)
    assert run(p, small_inputs(p, name), engine=engine, tangle=tangle).outcome == "output"
    assert len(misses) > 10 and misses == list(range(1, len(tangle)))


def test_a_long_dirty_pass_calls_no_empty_piece():
    # The 10,000-deep term of `test_run_deep_programs` makes 10,002 slots,
    # so `slots_all` is cut into pieces.  Every slot of the deep term is a
    # constructor term that never changes, so the dirty pass leaves them out
    # and is left with a few lines, inline in the critical loop, which calls
    # no piece.
    n = 10_000
    p = parse_program(f"""
vocab {{ constructors {{ eps/0; d1/1 }} dynamic {{ b/0 }} }}
inputs {{ }}
output {{ b }}
rules {{ if b = undef then {{ b := d1(eps) }}
        if b = eps then {{ b := {"d1(" * n}eps{")" * n} }} }}
""")
    plan = build_plan(p)
    assert len(plan.slots) > n
    assert "_slots_all_1" in plan.slots_all.__globals__
    assert not [k for k in plan.critical.__globals__ if k.startswith("_slots_dirty_")]
