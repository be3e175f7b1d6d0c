"""Oracle bootstrapping: nested runs, dual-mode cost accounting, memoization."""

from pathlib import Path

import pytest

from conftest import (
    binary_input, corpus_path, load_corpus, unary_term, unary_value, write_clashing_host,
)

from esmtangle.cost import CostMeter
from esmtangle.engine import (
    CLASH, FUEL_EXHAUSTED, OUTPUT, StepOutcome, compare_engines, init_critical, init_ref,
    invoke_oracle, run, step_critical, step_ref,
)
from esmtangle.syntax import parse_program, parse_program_file
from esmtangle.tangle import NodeId, TangleError, new_tangle
from esmtangle.terms import decode_nat_binary, format_term, parse_term

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def mul():
    return load_corpus("bin_mul")


@pytest.fixture(scope="module")
def addu(mul):
    return mul.oracle("addu")


def test_unit_mode_charges_one_op(mul, addu):
    g = new_tangle(mul.vocab, CostMeter())
    a = g.import_term(unary_term(mul.vocab, 3))
    b = g.import_term(unary_term(mul.vocab, 4))
    value, charged = invoke_oracle(addu, [a, b], g, mode="unit")
    assert charged == 1
    assert unary_value(g.extract_term(value)) == 7


def test_inline_cost_grows_with_input(mul, addu):
    charges = []
    for n in (4, 8, 16, 32):
        g = new_tangle(mul.vocab, CostMeter())
        a = g.import_term(unary_term(mul.vocab, 1))
        b = g.import_term(unary_term(mul.vocab, n))
        value, charged = invoke_oracle(addu, [a, b], g, mode="inline")
        assert unary_value(g.extract_term(value)) == n + 1
        charges.append(charged)
    assert charges == sorted(charges)
    assert charges[-1] > charges[0] * 2


def test_invoke_oracle_raises_when_the_body_halts(tmp_path):
    host = parse_program_file(write_clashing_host(tmp_path))
    g = new_tangle(host.vocab)
    c = g.import_term(parse_term("c", host.vocab))
    for mode in ("unit", "inline"):
        with pytest.raises(RuntimeError, match=r"^oracle f halted: clash z\(\)$"):
            invoke_oracle(host.oracle("f"), [c], g, mode=mode)


def test_public_init_raises_when_an_oracle_call_halts(tmp_path):
    host = parse_program_file(write_clashing_host(tmp_path))
    for init in (init_critical, init_ref):
        for mode in ("unit", "inline"):
            with pytest.raises(RuntimeError, match=r"^initialization halted: clash z\(\)$"):
                init(host, oracle_mode=mode)


# A host whose first transition defines y, so that its pass calls f(y), and
# f's body clashes.
_HALTING_STEP_HOST = """
vocab { constructors { c/0; d/0 } dynamic { y/0; z/0 } }
inputs { }
output { z }
oracles { f/1 = "body.esm"; }
rules { if y = undef then { y := c } else { z := f(y) } }
"""


@pytest.mark.parametrize("mode", ["unit", "inline"])
@pytest.mark.parametrize("init, step", [(init_critical, step_critical), (init_ref, step_ref)])
def test_a_step_whose_oracle_call_halts_returns_the_halt(tmp_path, init, step, mode):
    write_clashing_host(tmp_path)
    (tmp_path / "host.esm").write_text(_HALTING_STEP_HOST)
    host = parse_program_file(tmp_path / "host.esm")
    out = step(host, init(host, oracle_mode=mode))
    assert (out.kind, out.state, str(out.clash)) == (CLASH, None, "z()")
    # With one transition of fuel left, the host's transition commits, and
    # the nested run is out of fuel before its first one, so before its clash.
    state = init(host, oracle_mode=mode)
    state.ctx.core.fuel_left = 1
    assert step(host, state) == StepOutcome(FUEL_EXHAUSTED)
    engine = "critical" if init is init_critical else "reference"
    r = run(host, engine=engine, oracle_mode=mode)
    assert (r.outcome, str(r.clash)) == (CLASH, "z()")


def test_modes_agree_on_value(mul, addu):
    for args in [(0, 1), (2, 5), (6, 6)]:
        g1 = new_tangle(mul.vocab, CostMeter())
        ids1 = [g1.import_term(unary_term(mul.vocab, v)) for v in args]
        v_unit, _ = invoke_oracle(addu, ids1, g1, mode="unit")
        g2 = new_tangle(mul.vocab, CostMeter())
        ids2 = [g2.import_term(unary_term(mul.vocab, v)) for v in args]
        v_inline, _ = invoke_oracle(addu, ids2, g2, mode="inline")
        assert g1.extract_term(v_unit) == g2.extract_term(v_inline)


def test_undef_arguments_rejected(mul, addu):
    g = new_tangle(mul.vocab, CostMeter())
    a = g.import_term(unary_term(mul.vocab, 1))
    with pytest.raises(ValueError, match="must be defined"):
        invoke_oracle(addu, [a, g.undef], g)
    with pytest.raises(ValueError, match="called with"):
        invoke_oracle(addu, [a], g)


@pytest.mark.parametrize("mode", ["unit", "inline"])
@pytest.mark.parametrize("bad", ["from another store", "out of range"])
def test_invoke_oracle_rejects_an_id_that_is_not_of_its_store(mul, addu, bad, mode):
    # The foreign id is in range for this store too; only its tag tells them
    # apart.  The bad id is addu's first argument, which its first transition
    # makes the child of a vertex.
    g = new_tangle(mul.vocab, CostMeter())
    a = g.import_term(unary_term(mul.vocab, 2))
    if bad == "out of range":
        arg = NodeId(g.tag, 10**9)
    else:
        arg = new_tangle(mul.vocab).import_term(unary_term(mul.vocab, 1))
        assert arg.index < len(g)
    with pytest.raises(TangleError):
        invoke_oracle(addu, [arg, a], g, mode=mode)


def test_invoke_oracle_charges_the_store_meter(mul, addu):
    for enabled in (True, False):
        g = new_tangle(mul.vocab, CostMeter(enabled=enabled))
        a = g.import_term(unary_term(mul.vocab, 1))
        for mode in ("unit", "inline"):
            before = g.meter.ram_ops
            value, charged = invoke_oracle(addu, [a, a], g, mode=mode)
            assert unary_value(g.extract_term(value)) == 2
            assert charged == g.meter.ram_ops - before
            assert (charged > 0) == enabled
    with pytest.raises(ValueError, match="unknown oracle cost mode"):
        invoke_oracle(addu, [a, a], g, mode="bogus")


def test_second_run_on_one_store_reports_own_ops():
    p = load_corpus("bin_succ")
    g = new_tangle(p.vocab, CostMeter())
    meter = g.meter
    first = run(p, [binary_input(p.vocab, 6)], tangle=g)
    before = meter.ram_ops
    second = run(p, [binary_input(p.vocab, 6)], tangle=g)
    assert g.meter is meter
    assert second.cost.total_ops == meter.ram_ops - before
    assert second.cost.check_additivity()
    # The second run finds its terms already interned, so it does less work.
    assert (first.cost.total_ops, first.cost.init_ops) == (2181, 79)
    assert (second.cost.total_ops, second.cost.init_ops) == (2103, 55)


def test_given_tangle_runs_on_its_own_meter():
    p = load_corpus("bin_succ")
    g = new_tangle(p.vocab, CostMeter())
    with pytest.raises(ValueError, match="own meter"):
        run(p, [binary_input(p.vocab, 6)], tangle=g, meter=CostMeter())
    assert run(p, [binary_input(p.vocab, 6)], tangle=g, meter=g.meter).outcome == OUTPUT


def test_bin_mul_modes_same_output(mul):
    inputs = [binary_input(mul.vocab, 5), binary_input(mul.vocab, 4)]
    ri = run(mul, inputs, oracle_mode="inline")
    ru = run(mul, inputs, oracle_mode="unit")
    assert ri.outcome == ru.outcome == OUTPUT
    assert format_term(ri.output) == format_term(ru.output)
    assert decode_nat_binary(ri.output) == 20
    assert ri.steps > ru.steps  # inline counts the nested transitions


def test_unit_mode_total_ops_smaller(mul):
    inputs = [binary_input(mul.vocab, 4), binary_input(mul.vocab, 4)]
    ri = run(mul, inputs, oracle_mode="inline")
    ru = run(mul, inputs, oracle_mode="unit")
    assert ru.cost.total_ops < ri.cost.total_ops


def test_nested_fuel_exhaustion_propagates(mul):
    inputs = [binary_input(mul.vocab, 6), binary_input(mul.vocab, 6)]
    r = run(mul, inputs, fuel=20)
    assert r.outcome == FUEL_EXHAUSTED


def test_nested_clash_propagates(tmp_path):
    body = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { q/0; out/0 }
}
inputs { q }
output { out }
rules {
  out := d0(eps)
  out := d1(eps)
}
"""
    (tmp_path / "clashy.esm").write_text(body)
    host = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
oracles { bad/1 = "clashy.esm"; }
rules {
  if z = undef then { z := bad(x) }
}
"""
    (tmp_path / "host.esm").write_text(host)
    p = parse_program_file(tmp_path / "host.esm")
    r = run(p, [binary_input(p.vocab, 1)])
    assert r.outcome == CLASH
    assert str(r.clash) == "out()"


def test_oracle_returning_undef_gives_undef_value(tmp_path):
    body = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { q/0; out/0 }
}
inputs { q }
output { out }
rules { }
"""
    (tmp_path / "noop.esm").write_text(body)
    full_host = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { x/0; z/0; pc/0 }
}
inputs { x }
output { z }
init { pc := eps; }
oracles { nothing/1 = "noop.esm"; }
rules {
  if pc = eps then {
    z := nothing(x)
    pc := d0(eps)
  }
}
"""
    (tmp_path / "host.esm").write_text(full_host)
    p = parse_program_file(tmp_path / "host.esm")
    r = run(p, [binary_input(p.vocab, 1)])
    # The oracle body terminates immediately with its output undefined, so the
    # assigned value is undef and the run's own output stays undefined.
    assert r.outcome == "undef_output"


def test_oracle_in_guard(tmp_path):
    # Oracle symbols may appear in guards; their values are part of the
    # tracked-term valuation like any other program term.
    shared_k = (
        "eps/0; d0/1; d1/1; zero/0; s/1; ph_go/0; ph_loop/0; ph_out/0; "
        "ph_conv/0; ph_step/0; ph_check/0; ph_done/0"
    )
    host = f"""
vocab {{
  constructors {{ {shared_k} }}
  dynamic {{ p/0; q/0; z/0 }}
}}
inputs {{ p, q }}
output {{ z }}
oracles {{ addu/2 = "{corpus_path('add_unary')}"; }}
rules {{
  if addu(p, q) = s(s(zero)) and z = undef then {{ z := d1(eps) }}
  if not addu(p, q) = s(s(zero)) and z = undef then {{ z := d0(eps) }}
}}
"""
    (tmp_path / "host.esm").write_text(host)
    p = parse_program_file(tmp_path / "host.esm")
    one = unary_term(p.vocab, 1)
    two = unary_term(p.vocab, 2)
    r = run(p, [one, one])
    assert r.outcome == OUTPUT and format_term(r.output) == "d1(eps)"
    r = run(p, [one, two])
    assert r.outcome == OUTPUT and format_term(r.output) == "d0(eps)"
    r_ref = run(p, [one, one], engine="reference")
    assert format_term(r_ref.output) == "d1(eps)"


@pytest.mark.parametrize("engine", ["critical", "reference"])
@pytest.mark.parametrize("mode, steps", [("inline", 4), ("unit", 1)])
def test_two_bodies_that_declare_one_name_are_two_oracles(engine, mode, steps):
    # The host's `f` is a.esm, whose own `f` is b.esm, the identity.  The
    # host's f(zero) is s(zero), after a.esm's f(zero), which is zero.  Its
    # f(s(zero)) makes a.esm ask for its f(zero) again: a memo hit that must
    # give b.esm's zero, not the host's s(zero).  So z is s(zero), a.esm's
    # output on s(zero) alone, and the engines agree on it.
    host = parse_program_file(DATA / "shared_name" / "host.esm")
    body = parse_program_file(DATA / "shared_name" / "a.esm")
    r = run(host, engine=engine, oracle_mode=mode)
    alone = run(body, [parse_term("s(zero)", body.vocab)], engine=engine, oracle_mode=mode)
    assert (r.outcome, format_term(r.output), r.steps) == (OUTPUT, "s(zero)", steps)
    assert format_term(alone.output) == "s(zero)"
    assert compare_engines(host, oracle_mode=mode).equivalent


def test_reference_engine_runs_oracles(mul):
    inputs = [binary_input(mul.vocab, 3), binary_input(mul.vocab, 5)]
    rc = run(mul, inputs)
    rr = run(mul, inputs, engine="reference")
    assert rc.outcome == rr.outcome == OUTPUT
    assert format_term(rc.output) == format_term(rr.output)
    assert rc.steps == rr.steps  # nested transitions counted identically


def test_oracle_invocations_run_at_init_for_defined_args(mul):
    # dec(x) and dec(y) have defined arguments from the start; the discovery
    # work lands in initialization, before the first host transition.
    inputs = [binary_input(mul.vocab, 4), binary_input(mul.vocab, 3)]
    r = run(mul, inputs, oracle_mode="inline")
    assert r.cost.init_ops > 1000
    ru = run(mul, inputs, oracle_mode="unit")
    assert ru.cost.init_ops < 1000


@pytest.mark.parametrize("mode", ["inline", "unit"])
def test_trace_has_one_line_per_reported_step(mul, mode):
    # Unit-mode nested steps are neither counted nor traced, so in both modes
    # the trace matches the step count and its op totals never fall back.
    import io

    trace = io.StringIO()
    r = run(mul, [binary_input(mul.vocab, 3), binary_input(mul.vocab, 2)],
            oracle_mode=mode, trace=trace)
    lines = trace.getvalue().splitlines()
    assert len(lines) == r.steps
    ops = [int(line.rsplit("ops=", 1)[1]) for line in lines]
    assert ops == sorted(ops)
    assert ops[-1] <= r.cost.total_ops


def test_unit_mode_engines_agree_on_shared_store(mul):
    # Both engines pause the one shared meter for their own oracle runs.
    import random

    from esmtangle.cli import random_input
    from esmtangle.engine import compare_engines

    rng = random.Random(97)
    for _ in range(4):
        inputs = [random_input(mul.vocab, rng) for _ in mul.inputs]
        res = compare_engines(mul, inputs, oracle_mode="unit")
        assert res.equivalent and res.outcome == "terminal", res


@pytest.mark.parametrize("mode", ["inline", "unit"])
def test_word_bits_cover_the_whole_store(mul, mode):
    # Vertices a paused nested run allocates still count toward the word size.
    from esmtangle.cost import word_bits

    r = run(mul, [binary_input(mul.vocab, 16), binary_input(mul.vocab, 16)],
            oracle_mode=mode)
    assert r.cost.word_bits_max == word_bits(r.cost.per_step[-1].vertices)
