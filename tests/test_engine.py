"""Engine semantics: both interpreters, oracles aside (see test_oracles)."""

import gc
import io
import random
import weakref
from pathlib import Path

import pytest

import esmtangle.engine as engine_mod
import esmtangle.tangle as tangle_mod
from esmtangle import codegen
from conftest import CORPUS, binary_input, load_corpus, small_inputs, string_term, unary_term

from esmtangle.cost import CostMeter
from esmtangle.engine import (
    CLASH,
    FUEL_EXHAUSTED,
    MODE_INLINE,
    MODE_UNIT,
    NEXT,
    OUTPUT,
    TERMINAL,
    UNDEF_OUTPUT,
    build_plan,
    compare_engines,
    init_critical,
    init_ref,
    invoke_oracle,
    run,
    step_critical,
    step_ref,
)
from esmtangle.syntax import parse_program, parse_program_file
from esmtangle.tangle import NodeId, TangleError, new_tangle
from esmtangle.terms import (
    KIND_DYNAMIC,
    Symbol,
    Term,
    Vocabulary,
    compact_size,
    decode_nat_binary,
    encode_nat_binary,
    format_term,
    parse_term,
)

DATA = Path(__file__).parent / "data"


def data_program(name):
    return parse_program_file(DATA / f"{name}.esm")


def valuation(state):
    tangle = state.ctx.core.tangle
    out = {}
    for term, value in zip(state.ctx.plan.criticals.terms, state.values):
        if value is not None:
            value = format_term(tangle.extract_term(NodeId(tangle.tag, value)))
        out[format_term(term)] = value
    return out


# --- Initial states -----------------------------------------------------------


def test_toggle_init_values():
    p = load_corpus("toggle")
    st = init_critical(p)
    vals = valuation(st)
    assert vals["b"] is None
    assert vals["eps"] == "eps"
    assert vals["d1(eps)"] == "d1(eps)"
    assert vals["d0(eps)"] == "d0(eps)"
    # undef plus the three interned constants
    assert st.ctx.core.tangle.stats().vertices == 4


def test_bin_succ_init_tangle_size():
    p = load_corpus("bin_succ")
    x = binary_input(p.vocab, 5)
    st = init_critical(p, [x])
    constants = sum(
        1 for t in st.ctx.plan.criticals.terms if all(
            s.head.kind == "constructor" for s in [t]
        )
    )
    vertices = st.ctx.core.tangle.stats().vertices
    assert vertices <= 1 + compact_size(x) + len(st.ctx.plan.criticals.terms)


def test_no_init_no_inputs_all_dynamic_undef():
    p = parse_program(
        """
vocab { constructors { eps/0; d0/1 } dynamic { x/0; z/0; f/1 } }
inputs { } output { z }
rules { if x = eps then { f(x) := d0(eps) } }
"""
    )
    st = init_critical(p)
    vals = valuation(st)
    assert vals["x"] is None and vals["z"] is None and vals["f(x)"] is None


def test_init_search_finds_declared_location():
    p = data_program("init_search")
    c1 = parse_term("c1", p.vocab)
    r = run(p, [c1])
    assert r.outcome == OUTPUT and format_term(r.output) == "c2"
    r = run(p, [parse_term("c0", p.vocab)])
    assert r.outcome == UNDEF_OUTPUT


def test_init_rejects_wrong_inputs():
    p = load_corpus("bin_succ")
    with pytest.raises(ValueError, match="takes 1 inputs"):
        init_critical(p, [])
    q = load_corpus("toggle")
    bad = Term(p.vocab.get("x"))
    with pytest.raises(ValueError, match="non-constructor"):
        init_critical(p, [bad])


# --- Single steps ---------------------------------------------------------------


def test_toggle_step_sequence():
    p = load_corpus("toggle")
    st = init_critical(p)
    out1 = step_critical(p, st)
    assert out1.kind == "next"
    assert valuation(out1.state)["b"] == "d1(eps)"
    out2 = step_critical(p, out1.state)
    assert valuation(out2.state)["b"] == "d0(eps)"
    out3 = step_critical(p, out2.state)
    assert out3.kind == TERMINAL


def test_clash_on_conflicting_updates():
    p = parse_program(
        """
vocab { constructors { eps/0; d0/1; d1/1 } dynamic { z/0 } }
inputs { } output { z }
rules {
  z := d0(eps)
  z := d1(eps)
}
"""
    )
    st = init_critical(p)
    out = step_critical(p, st)
    assert out.kind == "clash"
    assert str(out.clash) == "z()"
    r = run(p)
    assert r.outcome == CLASH and str(r.clash) == "z()"


@pytest.mark.parametrize("engine", ["critical", "reference"])
def test_a_clash_charges_the_update_set_as_it_stood_at_the_first_clash(engine):
    # `z := d` clashes while the update set holds one entry.  `w := c` still
    # inserts after it, and the clash charges no write for that entry.
    p = parse_program(
        """
vocab { constructors { c/0; d/0 } dynamic { z/0; w/0; x/0 } }
inputs { } output { x }
rules { z := c  z := d  w := c }
"""
    )
    meter = CostMeter()
    r = run(p, engine=engine, meter=meter)
    assert (r.outcome, str(r.clash)) == (CLASH, "z()")
    assert (r.cost.total_ops, meter.categories()["write"]) == (17, 3)


def test_agreeing_duplicate_updates_do_not_clash():
    p = parse_program(
        """
vocab { constructors { eps/0; d0/1 } dynamic { z/0 } }
inputs { } output { z }
rules {
  if z = undef then { z := d0(eps) }
  if z = undef then { z := d0(eps) }
}
"""
    )
    r = run(p)
    assert r.outcome == OUTPUT and format_term(r.output) == "d0(eps)"


def test_fuel_zero_on_nonterminal_state():
    p = load_corpus("toggle")
    r = run(p, fuel=0)
    assert r.outcome == FUEL_EXHAUSTED and r.steps == 0


def test_fuel_zero_on_terminal_state():
    p = parse_program(
        """
vocab { constructors { eps/0 } dynamic { z/0 } }
inputs { } output { z }
rules { }
"""
    )
    r = run(p, fuel=0)
    assert r.outcome == UNDEF_OUTPUT and r.steps == 0


def test_fuel_is_checked_before_the_clash():
    # A transition out of fuel ends before its clash check, whichever engine,
    # and charges only the guard atoms it evaluated: none here, so the run
    # costs what its initialization does.
    p = parse_program(
        """
vocab { constructors { eps/0; d0/1; d1/1 } dynamic { z/0 } }
inputs { } output { z }
rules { z := d0(eps) z := d1(eps) }
"""
    )
    for engine, init in [("critical", init_critical), ("reference", init_ref)]:
        r = run(p, fuel=0, engine=engine)
        assert (r.outcome, r.steps) == (FUEL_EXHAUSTED, 0)
        meter = CostMeter()
        init(p, meter=meter)
        assert r.cost.total_ops == meter.ram_ops
        assert run(p, fuel=1, engine=engine).outcome == CLASH


def test_noop_enabled_state_still_steps():
    p = parse_program(
        """
vocab { constructors { eps/0 } dynamic { x/0 } }
inputs { x } output { x }
rules { if x = eps then { x := eps } }
"""
    )
    r = run(p, [Term(p.vocab.get("eps"))], fuel=5)
    assert r.outcome == FUEL_EXHAUSTED and r.steps == 5


def test_enabled_assignment_with_undef_argument_keeps_run_alive():
    p = parse_program(
        """
vocab { constructors { c0/0; c1/0 } dynamic { q/0; f/1 } }
inputs { } output { q }
rules { f(q) := c1 }
"""
    )
    r = run(p, fuel=3)
    assert r.outcome == FUEL_EXHAUSTED and r.steps == 3


def test_undef_guard_semantics():
    # x = y is strict (false when both undef); x = undef tests definedness.
    p = parse_program(
        """
vocab { constructors { c0/0; c1/0 } dynamic { x/0; y/0; got_eq/0; got_undef/0; pc/0 } }
inputs { } output { got_eq }
init { pc := c0; }
rules {
  if pc = c0 then {
    pc := c1
    x := c1
  }
  if pc = c0 and x = y then { got_eq := c1 }
  if pc = c0 and x = undef then { got_undef := c1 }
  if pc = c1 and x = undef then { got_undef := c0 }
  if pc = c1 and not x = undef then { pc := c0 }
  if pc = c0 and not x = undef then { pc := c1 }
}
"""
    )
    st = init_critical(p)
    out = step_critical(p, st)
    vals = valuation(out.state)
    assert vals["got_eq"] is None       # undef = undef strict: no firing
    assert vals["got_undef"] == "c1"    # literal test saw undef
    out2 = step_critical(p, out.state)
    assert valuation(out2.state)["got_undef"] == "c1"  # x defined now


def test_strictness_of_undef_arguments():
    p = parse_program(
        """
vocab { constructors { c0/0; d/1 } dynamic { x/0; z/0 } }
inputs { } output { z }
rules { if d(x) = undef and z = undef then { z := c0 } }
"""
    )
    # x is undef, so d(x) is undef: the definedness atom fires.
    r = run(p)
    assert r.outcome == OUTPUT and format_term(r.output) == "c0"
    assert r.steps == 1


# --- Dynamic reads: update set, then location map --------------------------------


def test_crossing_registers_resolve_in_window():
    p = data_program("case3_cross")
    r = run(p)
    assert r.outcome == OUTPUT and format_term(r.output) == "c2"
    cmp = compare_engines(p)
    assert cmp.equivalent


def test_write_then_read_same_location_values():
    # Writing f(x) then reading f(y) where x and y hold equal values.
    p = data_program("case3_cross")
    r = run(p, engine="reference")
    assert r.outcome == OUTPUT and format_term(r.output) == "c2"


def test_stale_read_is_exact_on_both_engines():
    # f(p) is written while p = c1, p leaves c1 and comes back, and only then
    # is f(p) read: the read finds the location in the map on both engines.
    p = data_program("stale_read")
    for engine in ("critical", "reference"):
        r = run(p, engine=engine)
        assert r.outcome == OUTPUT and format_term(r.output) == "c2", engine
    cmp = compare_engines(p)
    assert cmp.equivalent and cmp.outcome == TERMINAL and cmp.steps == 4


@pytest.mark.parametrize("name", ["stale_read", "case3_cross", "dirty_seed"])
@pytest.mark.parametrize("engine", ["critical", "reference"])
def test_invariant_checks_hold_the_location_map(name, engine):
    assert run(data_program(name), engine=engine, check_invariants=True).outcome == OUTPUT


@pytest.mark.parametrize("name", ["bin_add", "bin_mul"])
@pytest.mark.parametrize("init, step", [(init_critical, step_critical), (init_ref, step_ref)])
def test_invariant_checks_hold_outside_a_transition(name, init, step):
    # `check_state` speaks the run's int ids wherever it is called from: on a
    # fresh initial state and on its successor, as inside a pass.
    p = load_corpus(name)
    state = init(p, [binary_input(p.vocab, 3), binary_input(p.vocab, 5)])
    state.ctx.check_state(state.values, state.store)
    out = step(p, state)
    assert out.kind == "next"
    out.state.ctx.check_state(out.state.values, out.state.store)


def test_invariant_checks_catch_a_slot_left_stale(monkeypatch):
    # A fast engine that recomputes only oracle slots keeps pc at its old
    # value while the location map moves on.  The seed is generated into each
    # plan's step, so the mutated one is generated afresh.
    p = data_program("stale_read")

    def oracles_only(slots):
        return [f"dirty = {[s.kind == codegen.SLOT_ORACLE for s in slots]!r}"]

    monkeypatch.setattr(codegen, "_dirty_seed", oracles_only)
    monkeypatch.setattr(codegen, "_compiled", {})
    with pytest.raises(AssertionError, match="location map disagrees"):
        run(p, check_invariants=True)


def test_mutated_fast_engine_is_caught(monkeypatch):
    p = load_corpus("toggle")
    plan = build_plan(p)
    real, calls = plan.slots_dirty, []

    def broken(ctx, *args):
        values = real(ctx, *args)
        calls.append(None)
        if len(calls) == 2:  # the fast engine's second transition
            values[0] = None  # corrupt the first tracked value
        return values

    monkeypatch.setattr(plan, "slots_dirty", broken)
    cmp = engine_mod.compare_engines(p)
    assert not cmp.equivalent
    assert cmp.divergence.step == 2


def _end_transition_at(monkeypatch, engine, step, end):
    """Patch `_transition` so that `engine`'s transition from step `step`
    ends with `end`, an outcome it returns or a halt it raises.  The engine's
    other transitions run one at a time through the real one, as many as
    `limit` asks for."""
    real = engine_mod._transition

    def transition(state, limit=1):
        if state.ctx.engine != engine or limit is None:
            return real(state, limit)
        for _ in range(limit):
            if state.step_index == step:
                if isinstance(end, Exception):
                    raise end
                return end
            out = real(state, 1)
            if out.kind != NEXT:
                break
            state = out.state
        return out

    monkeypatch.setattr(engine_mod, "_transition", transition)


def test_compare_reports_an_ending_that_differs(monkeypatch):
    # The reference engine ends one transition early: both hold state 1, then
    # the fast engine steps on where the reference engine has terminated.
    p = load_corpus("toggle")
    _end_transition_at(monkeypatch, "reference", 1, engine_mod.StepOutcome(TERMINAL))
    cmp = compare_engines(p)
    assert (cmp.equivalent, cmp.steps, cmp.outcome) == (False, 1, "diverged")
    assert cmp.divergence == engine_mod.Divergence(2, None, "next", "terminal", "outcome differs")


def test_compare_reports_an_initialization_that_differs(monkeypatch):
    # The reference engine's initialization halts, the fast engine's does not.
    p = load_corpus("toggle")
    real = engine_mod._init_state

    def halts(ctx, *args, **kwargs):
        if ctx.engine == "reference":
            raise engine_mod._Halt(FUEL_EXHAUSTED)
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "_init_state", halts)
    cmp = compare_engines(p)
    assert (cmp.equivalent, cmp.steps, cmp.outcome) == (False, 0, "diverged")
    assert cmp.divergence == engine_mod.Divergence(
        0, None, "next", FUEL_EXHAUSTED, "initialization differs"
    )


def test_compare_reports_two_clashes_at_different_locations(monkeypatch):
    # Both engines clash in their second transition, each at a location of
    # its own: the kinds agree, and only the locations tell the endings apart.
    p = load_corpus("toggle")
    for engine, symbol in (("critical", "a"), ("reference", "b")):
        clash = engine_mod._Halt(CLASH, codegen.ClashInfo(symbol, ()))
        _end_transition_at(monkeypatch, engine, 1, clash)
    cmp = compare_engines(p)
    assert (cmp.equivalent, cmp.steps, cmp.outcome) == (False, 1, "diverged")
    assert cmp.divergence == engine_mod.Divergence(
        2, None, "clash a()", "clash b()", "outcome differs"
    )


def _wrong_at(monkeypatch, plan, at):
    """Make the fast engine's values wrong after its transition `at` only:
    its first defined slot comes out undef, and its next transition reads
    the true values again, so the difference lasts one step."""
    real_rules, real_slots, calls, wrong = plan.rules, plan.slots_dirty, [], []

    def true(values):
        return wrong[1] if wrong and values is wrong[0] else values

    def slots_dirty(ctx, values, *args):
        new = real_slots(ctx, true(values), *args)
        calls.append(None)
        if len(calls) != at:
            return new
        i = next(i for i, v in enumerate(new) if v is not None)
        wrong[:] = new[:i] + [None] + new[i + 1:], new
        return wrong[0]

    monkeypatch.setattr(plan, "rules", lambda values: real_rules(true(values)))
    monkeypatch.setattr(plan, "slots_dirty", slots_dirty)


@pytest.mark.parametrize("at", [2, engine_mod._CHUNK + 3])
def test_compare_reports_a_difference_that_lasts_one_step(monkeypatch, at):
    # The engines agree again after step `at`; a comparison that checked
    # fewer steps than each engine takes would miss the difference.
    p = load_corpus("bin_add")
    inputs = small_inputs(p, "bin_add")
    assert compare_engines(p, inputs).steps > at
    _wrong_at(monkeypatch, build_plan(p), at)
    cmp = compare_engines(p, inputs)
    assert (cmp.equivalent, cmp.steps, cmp.outcome) == (False, at, "diverged")
    div = cmp.divergence
    assert (div.step, div.critical_value, div.reason) == (at, "undef", "definedness differs")


@pytest.mark.parametrize("mode", [MODE_INLINE, MODE_UNIT])
def test_nothing_outlives_a_comparison(monkeypatch, mode):
    # No object of a comparison refers back to its context, so its store goes
    # with the last reference to it, without a cycle collection.
    real, made = engine_mod.new_tangle, []

    def new_tangle(*args):
        tangle = real(*args)
        made.append(weakref.ref(tangle))
        return tangle

    monkeypatch.setattr(engine_mod, "new_tangle", new_tangle)
    p = load_corpus("bin_mul")
    gc.disable()
    try:
        assert compare_engines(p, small_inputs(p, "bin_mul"), oracle_mode=mode).equivalent
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()


def test_invariant_checks_cover_nested_oracle_runs_against_their_own_plans(monkeypatch):
    p = load_corpus("bin_mul")
    plan, checked = build_plan(p), set()
    real = engine_mod.RunContext.check_state

    def check_state(ctx, values, store):
        assert len(values) == len(ctx.plan.slots) and ctx.keep is None
        checked.add(ctx.plan)
        return real(ctx, values, store)

    monkeypatch.setattr(engine_mod.RunContext, "check_state", check_state)
    run(p, small_inputs(p, "bin_mul"), oracle_mode=MODE_INLINE, check_invariants=True)
    assert checked == {plan, *plan.oracle_plans.values()}


_INPUT_AS_INIT_VALUE = """
vocab { constructors { zero/0; s/1 } dynamic { x/0; r/0 } }
inputs { x } output { r }
init { r := x; }
rules { }
"""


def test_the_api_refuses_a_program_that_fails_validation():
    # `init { r := x; }` reads an input where a constructor term must stand.
    # Run, it would output the dynamic symbol `x` itself as a value.
    p = parse_program(_INPUT_AS_INIT_VALUE)
    inputs = [unary_term(p.vocab, 1)]
    calls = [lambda: run(p, inputs), lambda: compare_engines(p, inputs),
             lambda: init_critical(p, inputs), lambda: init_ref(p, inputs)]
    for call in calls:
        with pytest.raises(ValueError, match="^init value 'x' is not a constructor term$"):
            call()


# --- Whole-run properties --------------------------------------------------------


def test_run_outputs_match_reference_on_corpus_samples(corpus):
    cases = {
        "toggle": [()],
        "bin_succ": [(3,), (7,)],
        "bin_add": [(2, 3), (5, 1)],
        "bin_mul": [(2, 3)],
        "str_reverse": [("ab",), ("bab",)],
        "merge_demo": [()],
    }
    for name, arglists in cases.items():
        p = corpus[name]
        for args in arglists:
            inputs = []
            for v in args:
                if isinstance(v, int):
                    inputs.append(binary_input(p.vocab, v))
                else:
                    inputs.append(string_term(p.vocab, v))
            a = run(p, inputs)
            b = run(p, inputs, engine="reference")
            assert a.outcome == b.outcome, name
            assert a.steps == b.steps, name
            if a.outcome == OUTPUT:
                assert format_term(a.output) == format_term(b.output), name


def test_toggle_run_result():
    p = load_corpus("toggle")
    r = run(p)
    assert r.outcome == OUTPUT
    assert format_term(r.output) == "d0(eps)"
    assert r.steps == 2 and r.n == 0


def test_bin_succ_on_one():
    p = load_corpus("bin_succ")
    r = run(p, [binary_input(p.vocab, 1)])
    assert r.outcome == OUTPUT
    assert format_term(r.output) == format_term(encode_nat_binary(2))
    assert r.steps <= 10


def test_bin_succ_semantics_random():
    p = load_corpus("bin_succ")
    rng = random.Random(31)
    for _ in range(12):
        v = rng.randint(1, 24)
        r = run(p, [binary_input(p.vocab, v)])
        assert r.outcome == OUTPUT
        assert decode_nat_binary(r.output) == v + 1


def test_bin_add_semantics_random():
    p = load_corpus("bin_add")
    rng = random.Random(37)
    for _ in range(10):
        x, y = rng.randint(1, 16), rng.randint(1, 16)
        r = run(p, [binary_input(p.vocab, x), binary_input(p.vocab, y)])
        assert r.outcome == OUTPUT
        assert decode_nat_binary(r.output) == x + y


def test_str_reverse_semantics_random():
    p = load_corpus("str_reverse")
    rng = random.Random(41)
    for _ in range(10):
        s = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        r = run(p, [string_term(p.vocab, s)])
        assert r.outcome == OUTPUT
        got = []
        t = r.output
        while t.head.name != "eps":
            got.append(t.head.name)
            t = t.args[0]
        assert "".join(got) == s[::-1]


def test_merge_demo_stats():
    p = load_corpus("merge_demo")
    r = run(p)
    assert r.outcome == OUTPUT and format_term(r.output) == "f(c,c)"
    last = r.cost.per_step[-1]
    assert (last.vertices, last.edges) == (4, 4)


def test_isomorphism_respect_under_interning_order():
    # Warming the store differently permutes node ids but not behavior.
    p = load_corpus("bin_add")
    inputs = [binary_input(p.vocab, 5), binary_input(p.vocab, 3)]
    plain = run(p, inputs)

    warm = new_tangle(p.vocab, CostMeter())
    for text in ["d1(d1(d1(eps)))", "d0(d0(eps))"]:
        warm.import_term(parse_term(text, p.vocab))
    warmed = run(p, inputs, tangle=warm)

    assert plain.outcome == warmed.outcome
    assert plain.steps == warmed.steps
    assert format_term(plain.output) == format_term(warmed.output)


def _store_without(vocab, name, instead=None):
    """A store over `vocab` with the symbol `name` left out, or replaced."""
    symbols = [s for s in vocab if s.name != name] + ([instead] if instead else [])
    return new_tangle(Vocabulary(symbols), CostMeter())


@pytest.mark.parametrize("redefine", [False, True])
def test_a_given_store_must_hold_every_symbol_the_plan_interns(redefine):
    # An intern hit is a probe of the store's index by symbol name, which
    # skips `intern`'s vocabulary check, so a run first checks that every
    # symbol its plan interns is the store's symbol of that name.  bin_succ
    # on input 1 (eps) interns d0 only in its transitions.  The store lacks
    # d0, or has another d0 and a vertex the probe for d0(eps) finds.
    p = load_corpus("bin_succ")
    one = [binary_input(p.vocab, 1)]
    foreign = Symbol("d0", 1, KIND_DYNAMIC)
    store = _store_without(p.vocab, "d0", instead=foreign if redefine else None)
    if redefine:
        store.intern(foreign, [store.intern(p.vocab.get("eps"), [])])
    size = len(store)
    with pytest.raises(TangleError, match=r"symbol d0/1 is not in this tangle's vocabulary"):
        run(p, one, tangle=store)
    assert len(store) == size  # raised before any input was imported


def test_a_given_store_must_hold_every_symbol_an_oracle_plan_interns():
    # Of bin_mul's constructors, only its oracle dec interns ph_check.
    p = load_corpus("bin_mul")
    inputs = [binary_input(p.vocab, 2), binary_input(p.vocab, 3)]
    store = _store_without(p.vocab, "ph_check")
    with pytest.raises(TangleError, match=r"symbol ph_check/0 is not in this tangle's vocabulary"):
        run(p, inputs, tangle=store)
    assert len(store) == 1
    x = store.import_term(inputs[0])
    with pytest.raises(TangleError, match=r"symbol ph_check/0 is not in this tangle's vocabulary"):
        engine_mod.invoke_oracle(p.oracle("dec"), [x], store)


# --- Ids: int indices inside a run, NodeIds at the API ---------------------------


@pytest.mark.parametrize("init, step", [(init_critical, step_critical), (init_ref, step_ref)])
def test_a_run_holds_int_ids_only_and_builds_no_node_id(monkeypatch, init, step):
    # Every value, location, location value and memo entry of a run is an int
    # vertex index (or None for undef), in initialization, in each step and
    # in the oracle calls they make; and neither builds a NodeId.
    built = []
    real = tangle_mod.NodeId

    def counted(*args):
        built.append(args)
        return real(*args)

    for module in (tangle_mod, engine_mod):
        monkeypatch.setattr(module, "NodeId", counted)

    def ints(ids):
        return all(type(i) is int for i in ids)

    p = load_corpus("bin_mul")
    state = init(p, [binary_input(p.vocab, 3), binary_input(p.vocab, 5)])
    while True:
        assert ints(v for v in state.values if v is not None)
        assert all(ints(args) and type(v) is int for (_, args), v in state.store.items())
        out = step(p, state)
        if out.kind != "next":
            break
        state = out.state
    memo = state.ctx.core.memo
    assert len(memo) > 5
    assert all(ints(args) and (v is None or type(v) is int) for (_, args), v in memo.items())
    assert built == []


def test_the_api_gives_node_ids_of_its_store():
    # `intern`, `import_term`, `undef` and `invoke_oracle` give NodeIds that
    # carry their store's tag, also after runs and oracle calls on the store.
    p = load_corpus("bin_mul")
    g = new_tangle(p.vocab)
    x = g.import_term(unary_term(p.vocab, 2))
    run(p, [binary_input(p.vocab, 2), binary_input(p.vocab, 3)], tangle=g)
    value, _ = invoke_oracle(p.oracle("addu"), [x, x], g)
    ids = [x, value, g.undef, g.intern(p.vocab.get("s"), [x]), g.intern(p.vocab.get("eps"), ())]
    for nid in ids:
        assert type(nid) is NodeId and nid.store == g.tag
    assert g.extract_term(value) == unary_term(p.vocab, 4)


def test_determinism_bit_identical():
    from esmtangle.cost import emit_report

    p = load_corpus("bin_succ")

    def one():
        trace = io.StringIO()
        r = run(p, [binary_input(p.vocab, 6)], trace=trace)
        return trace.getvalue(), emit_report(r.cost), emit_report(r.cost, format="csv")

    assert one() == one()


def test_run_with_invariant_checks():
    for name in ["toggle", "bin_succ", "str_reverse"]:
        p = load_corpus(name)
        inputs = []
        if name == "bin_succ":
            inputs = [binary_input(p.vocab, 6)]
        if name == "str_reverse":
            inputs = [string_term(p.vocab, "ab")]
        r = run(p, inputs, check_invariants=True)
        assert r.outcome == OUTPUT


def test_metering_is_observationally_transparent():
    p = load_corpus("bin_add")
    inputs = [binary_input(p.vocab, 4), binary_input(p.vocab, 5)]
    metered = run(p, inputs)

    silent_meter = CostMeter(enabled=False)
    silent = run(p, inputs, tangle=new_tangle(p.vocab, silent_meter))
    assert silent.outcome == metered.outcome
    assert silent.steps == metered.steps
    assert format_term(silent.output) == format_term(metered.output)
    assert silent.cost.total_ops == 0


def test_additivity_of_series():
    p = load_corpus("bin_add")
    r = run(p, [binary_input(p.vocab, 3), binary_input(p.vocab, 4)])
    assert r.cost.check_additivity()


def test_trace_format():
    p = load_corpus("toggle")
    trace = io.StringIO()
    run(p, trace=trace)
    lines = trace.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("i=1 enabled=1 updates=b():")
    assert "vertices=" in lines[0] and "ops=" in lines[0]


def test_growth_bound_on_runs(corpus):
    from esmtangle.cost import check_growth

    for name in ["toggle", "bin_succ", "str_reverse", "merge_demo"]:
        p = corpus[name]
        inputs = []
        if name == "bin_succ":
            inputs = [binary_input(p.vocab, 9)]
        if name == "str_reverse":
            inputs = [string_term(p.vocab, "aba")]
        r = run(p, inputs)
        verdict = check_growth(r.cost)
        assert verdict.passed, verdict.detail


def test_compare_same_clash_with_arguments_is_equivalent():
    # Both engines clash at f(c).  Their clash locations hold node ids of one
    # shared store, so equal locations compare equal.
    p = parse_program(
        """
vocab { constructors { c/0; c1/0; c2/0 } dynamic { f/1; z/0 } }
inputs { } output { z }
rules { f(c) := c1  f(c) := c2 }
"""
    )
    cmp = compare_engines(p)
    assert cmp.equivalent and cmp.outcome == "clash"


def test_dirty_slots_seeded_by_updates_with_arguments():
    # f(c) is updated while its argument keeps its value, so only the update
    # set can mark it dirty; k(f(c)) must follow it.  Then p changes while
    # f(p) keeps its value, so k(f(p)) need not be recomputed.
    p = data_program("dirty_seed")
    fast = run(p, check_invariants=True)
    ref = run(p, engine="reference")
    assert fast.outcome == ref.outcome == OUTPUT
    assert fast.steps == ref.steps == 3
    assert format_term(fast.output) == format_term(ref.output) == "k(e2)"
    cmp = compare_engines(p)
    assert cmp.equivalent and cmp.outcome == TERMINAL


def test_negative_fuel_is_rejected():
    p = load_corpus("bin_succ")
    inputs = [binary_input(p.vocab, 4)]
    for call in (
        lambda: run(p, inputs, fuel=-1),
        lambda: run(p, inputs, fuel=-1, engine="reference"),
        lambda: compare_engines(p, inputs, fuel=-1),
    ):
        with pytest.raises(ValueError, match="fuel must be at least 0, got -1"):
            call()


def test_an_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        run(load_corpus("toggle"), engine="bogus")


_COMPARE_ENDINGS = {
    OUTPUT: ("terminal",),
    UNDEF_OUTPUT: ("terminal",),
    FUEL_EXHAUSTED: ("fuel_limited", "init fuel_exhausted"),
    CLASH: ("clash",),
}


def test_compare_ends_where_run_ends_at_every_fuel():
    # Both step through one loop under one fuel rule: fuel bounds every
    # transition, nested oracle runs included, and an engine out of fuel with
    # nothing enabled has terminated.  In unit mode neither counts nested steps.
    toggle, mul = load_corpus("toggle"), load_corpus("bin_mul")
    xy = [binary_input(mul.vocab, 5), binary_input(mul.vocab, 6)]
    cases = [
        case
        for mode in ("unit", "inline")
        for case in [(toggle, [], fuel, mode) for fuel in range(4)]
        + [(mul, xy, fuel, mode) for fuel in (0, 10, 73, 74, 82, 155, 156, 157)]
    ]
    for p, inputs, fuel, mode in cases:
        r = run(p, inputs, fuel=fuel, oracle_mode=mode)
        cmp = compare_engines(p, inputs, fuel=fuel, oracle_mode=mode)
        case = (p.name, fuel, mode, r.outcome, r.steps, cmp)
        assert r.steps <= fuel, case
        assert cmp.equivalent, case
        assert cmp.outcome in _COMPARE_ENDINGS[r.outcome], case
        if mode == "unit":
            assert cmp.steps == r.steps, case


# --- The run loop and the stepper ------------------------------------------------


def _end_two_ways(p, inputs, engine, mode, fuel):
    """The run driven to its end in one loop, and stepped one transition at
    a time by the public stepper, each from a fresh setup: per way, the last
    state's values and location map (the first state's map for a halt, since
    a fast-engine run writes one map), the halt, the series and the counters."""
    step = step_critical if engine == "critical" else step_ref
    ends = []
    for drive in (True, False):
        ctx = engine_mod._setup(p, engine, oracle_mode=mode, fuel=fuel)
        core, state, halt = ctx.core, None, None
        try:
            state = first = engine_mod._init_state(ctx, inputs)
            if drive:
                state = engine_mod._transition(state, None).state
            else:
                while (out := step(p, state)).kind == NEXT:
                    state = out.state
                if out.kind != TERMINAL:
                    raise engine_mod._Halt(out.kind, out.clash)
        except engine_mod._Halt as stop:
            halt = (stop.outcome, stop.clash)
        if halt is None:
            last = (state.values, state.store, state.step_index)
        else:
            last = None if state is None or engine != "critical" else first.store
        ends.append((last, halt, list(core.series), core.steps_reported, core.fuel_left,
                     core.tangle.meter.ram_ops, len(core.tangle)))
    return ends


@pytest.mark.parametrize("mode", ["unit", "inline"])
@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("name", CORPUS)
def test_the_run_loop_and_the_stepper_agree(name, engine, mode):
    # A run takes every transition in one `_transition` frame and a public
    # step one per call; they must end alike at every fuel, bin_mul's halts
    # inside nested oracle transitions included.
    p = load_corpus(name)
    inputs = small_inputs(p, name)
    full = _end_two_ways(p, inputs, engine, mode, 10**6)
    assert full[0] == full[1]
    spent = 10**6 - full[0][4]
    for fuel in (0, 1, spent // 2):
        drive, states = _end_two_ways(p, inputs, engine, mode, fuel)
        assert drive == states, (fuel, spent)


@pytest.mark.parametrize("engine", ["critical", "reference"])
def test_an_undef_update_takes_its_location_out_of_the_map(engine):
    # `f(x) := undef` and `x := undef` leave the finite support: the keys go,
    # and no map holds None, through the run loop and a public step alike.
    # (The program has a directory of its own, as shared_name does, so the
    # golden parse digest over data/*.esm stays as recorded.)
    p = parse_program_file(DATA / "undef_write" / "undef_write.esm")
    assert run(p, engine=engine).outcome == OUTPUT
    ctx = engine_mod._setup(p, engine, oracle_mode="inline")
    state = engine_mod._init_state(ctx)
    assert {name for name, _ in state.store} == {"pc", "x", "f"}
    ended = engine_mod._transition(state, None).state
    init, step = (init_critical, step_critical) if engine == "critical" else (init_ref, step_ref)
    stepped = step(p, init(p)).state
    for store, names in ((ended.store, {"pc", "z"}), (stepped.store, {"pc"})):
        assert {name for name, _ in store} == names
        assert None not in store.values()


_LATE_CLASH = """
vocab { constructors { c0/0; c1/0; c2/0 } dynamic { pc/0; f/1; z/0 } }
inputs { } output { z }
init { pc := c0; }
rules {
  if pc = c0 then { pc := c1 }
  if pc = c1 then { f(pc) := c0 f(pc) := c2 }
}
"""


@pytest.mark.parametrize("engine", ["critical", "reference"])
def test_the_run_loop_and_the_stepper_agree_on_a_clash(engine):
    p = parse_program(_LATE_CLASH)
    for fuel in (1, 2, 10**6):
        drive, states = _end_two_ways(p, [], engine, "inline", fuel)
        assert drive == states, fuel
    kind, clash = drive[1]
    assert (kind, clash.symbol, drive[3]) == (CLASH, "f", 1)


def test_the_star_import_binds_the_public_names():
    ns = {}
    exec("from esmtangle import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == [
        "Assign", "Cond", "CostMeter", "CostReport", "CriticalTerms", "Divergence",
        "EngineComparison", "EngineState", "FrozenBounds", "NodeId", "OracleDef", "Program",
        "RunResult", "StepCost", "StepOutcome", "Symbol", "Tangle", "TangleStats", "Term",
        "TermSyntaxError", "UndefNodeError", "Verdict", "Vocabulary", "check_growth",
        "check_step_linearity", "check_total_bound", "compact_size", "compare_engines",
        "critical_terms", "decode_nat_binary", "emit_report", "encode_nat_binary",
        "format_program", "format_term", "init_critical", "init_ref", "invoke_oracle",
        "new_tangle", "parse_program", "parse_program_file", "parse_term", "run",
        "step_critical", "step_ref", "symbol_count", "validate_program",
    ]
