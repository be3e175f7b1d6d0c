"""Property: on random well-formed programs the fast engine agrees with the
reference engine at every step, a comparison ends where a run ends at the
same fuel and as one that steps each engine a transition at a time (on the
bundled programs too), the compiled jumping code enables what a tree walk
over the rules does (on the bundled programs too), and the canonical text
form parses back to the same program.

Programs draw on a small vocabulary (nullary and unary constructors, dynamic
symbols of arity 0 and 1), so that locations written at one step are read
again later under other argument values, and enabled assignments often meet
at one location, agreeing or clashing.  Oracle bodies are files and stay out.

A program is decoded from one drawn byte string, a byte per decision, so a
draw is cheap and Hypothesis shrinks a failure toward zero bytes, which
decode to the first choice everywhere: fewer symbols, atoms, shallow terms.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, PROGRAMS_DIR, load_corpus, small_inputs

import esmtangle.engine as engine_mod
from esmtangle.cli import encode_size, input_codec, random_input
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
    Divergence,
    EngineComparison,
    StepOutcome,
    compare_engines,
    init_critical,
    run,
    step_critical,
    step_ref,
)
from esmtangle.syntax import (
    Assign,
    Cond,
    GAnd,
    GAtom,
    GNot,
    GOr,
    Program,
    format_program,
    parse_program,
    parse_program_file,
    validate_program,
)
from esmtangle.terms import KIND_CONSTRUCTOR, KIND_DYNAMIC, Symbol, Term, Vocabulary, format_term

FUEL = 8  # compare_engines reports fuel_limited, an agreement, beyond this

CONSTRUCTORS = [Symbol("c0", 0), Symbol("c1", 0), Symbol("c2", 0),
                Symbol("u", 1), Symbol("v", 1)]
DYNAMICS = [Symbol(n, 0, KIND_DYNAMIC) for n in ("x", "y", "z")] + \
    [Symbol(n, 1, KIND_DYNAMIC) for n in ("f", "g")]


class _Decisions:
    """Reads decisions from a byte string; past its end every decision is 0."""

    def __init__(self, data: bytes):
        self.data, self.i = data, 0

    def below(self, n: int) -> int:
        byte = self.data[self.i] if self.i < len(self.data) else 0
        self.i += 1
        return byte % n

    def pick(self, choices):
        return choices[self.below(len(choices))]


def _some(d, symbols, unary):
    """A non-empty prefix of the nullary symbols and a prefix of at least
    `unary` of the unary ones."""
    zero = [s for s in symbols if s.arity == 0]
    one = [s for s in symbols if s.arity == 1]
    return zero[: 1 + d.below(len(zero))] + one[: unary + d.below(len(one) + 1 - unary)]


def _term(d, symbols, depth):
    head = d.pick([s for s in symbols if s.arity == 0 or depth > 0])
    return Term(head, [_term(d, symbols, depth - 1) for _ in range(head.arity)])


def _term_or_undef(d, symbols, depth):
    return None if d.below(5) == 4 else _term(d, symbols, depth)


def _guard(d, symbols, depth):
    op = d.pick(["atom", "test", "not", "and", "or"] if depth else ["atom", "test"])
    if op == "test":  # a register test, as in `pc = c0`
        return GAtom(_term(d, symbols, 0), _term(d, symbols, 0))
    if op == "atom":
        return GAtom(_term_or_undef(d, symbols, 1), _term_or_undef(d, symbols, 1))
    if op == "not":
        return GNot(_guard(d, symbols, depth - 1))
    left, right = _guard(d, symbols, depth - 1), _guard(d, symbols, depth - 1)
    return GAnd(left, right) if op == "and" else GOr(left, right)


def _assign(d, heads, arg_symbols, rhs_symbols, undef_rhs):
    head = d.pick(heads)
    args = tuple(_term(d, arg_symbols, 1) for _ in range(head.arity))
    rhs = _term_or_undef(d, rhs_symbols, 1) if undef_rhs else _term(d, rhs_symbols, 1)
    return Assign(head, args, rhs)


def _stmts(d, dynamics, symbols, depth):
    out = []
    for _ in range(1 + d.below(2)):
        if depth and d.below(4):
            then = _stmts(d, dynamics, symbols, depth - 1)
            orelse = _stmts(d, dynamics, symbols, depth - 1) if d.below(2) else ()
            out.append(Cond(_guard(d, symbols, 2), then, orelse))
        else:
            a = _assign(d, dynamics, symbols, symbols, undef_rhs=True)
            out.append(a)
            if d.below(4) == 0:
                out.append(a)  # the same update twice agrees
    return tuple(out)


def _program(data: bytes) -> Program:
    d = _Decisions(data)
    constructors = _some(d, CONSTRUCTORS, unary=0)
    dynamics = _some(d, DYNAMICS, unary=1)  # at least one location with an argument
    symbols = constructors + dynamics
    init = tuple(
        _assign(d, dynamics, constructors, constructors, undef_rhs=False)
        for _ in range(d.below(4))
    )
    output = d.pick([s for s in dynamics if s.arity == 0])
    rules = _stmts(d, dynamics, symbols, 2)
    return Program(vocab=Vocabulary(symbols), inputs=(), output=output, init=init, rules=rules)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=st.binary(min_size=64, max_size=256).map(_program))
def test_engines_agree_on_random_programs(p):
    text = format_program(p)
    assert validate_program(p) == [], text
    assert parse_program(text) == p, text
    cmp = compare_engines(p, fuel=FUEL)
    assert cmp.equivalent, (text, cmp.divergence)
    run(p, fuel=FUEL, check_invariants=True)  # fast-engine slots agree with its map


def _tree_walk(rules, value, out: list) -> int:
    """Append the enabled assignments in program order by walking the rules'
    tree, and return the number of atoms evaluated."""
    atoms = 0

    def holds(g):
        nonlocal atoms
        if isinstance(g, GAtom):
            atoms += 1
            a, b = value(g.lhs), value(g.rhs)
            if g.lhs is None or g.rhs is None:  # a literal undef equals only undef
                return a is None and b is None
            return a is not None and a == b
        if isinstance(g, GNot):
            return not holds(g.sub)
        if isinstance(g, GAnd):
            return holds(g.left) and holds(g.right)
        return holds(g.left) or holds(g.right)

    def walk(stmts):
        for s in stmts:
            if isinstance(s, Assign):
                out.append(s)
            else:
                walk(s.then if holds(s.guard) else s.orelse)

    walk(rules)
    return atoms


def _constant(t: Term) -> bool:
    """Whether a term is built from constructors only, so never undef."""
    return t.head.kind == KIND_CONSTRUCTOR and all(map(_constant, t.args))


def _atoms(stmts):
    """The (lhs, rhs) of every guard atom in the rules."""
    for s in stmts:
        if isinstance(s, Cond):
            guards = [s.guard]
            while guards:
                g = guards.pop()
                if isinstance(g, GAtom):
                    yield g.lhs, g.rhs
                elif isinstance(g, GNot):
                    guards.append(g.sub)
                else:
                    guards += [g.left, g.right]
            yield from _atoms(s.then)
            yield from _atoms(s.orelse)


def _variants(p: Program, pos, values, absent):
    """Copies of `values` with one term that a guard compares with constant
    terms set to the id of each of them, to undef, and to `absent`, an id no
    term holds.  The generated `rules` branches on the value of such a term,
    and a short run reaches few of its branches."""
    partners: dict[Term, dict[Term, None]] = {}
    for a, b in _atoms(p.rules):
        for x, y in ((a, b), (b, a)):
            if x is not None and y is not None and _constant(y) and not _constant(x):
                partners.setdefault(x, {})[y] = None
    for x, ys in partners.items():
        for v in [*(values[pos[y]] for y in ys), None, absent]:
            varied = list(values)
            varied[pos[x]] = v
            yield varied


def _check_jumping_code(p: Program, inputs=(), steps: int = FUEL):
    """In the initial state and after each fast-engine step up to `steps`,
    and in each of their variants, the jumping code enables the tree walk's
    assignments, in its order, at one compare per atom the walk evaluates."""
    state = init_critical(p, inputs)
    plan, tangle = state.ctx.plan, state.ctx.core.tangle
    pos = plan.criticals.position

    def slot(t):
        return -1 if t is None else pos[t]

    for _ in range(steps + 1):
        absent = len(tangle)
        for values in [state.values, *_variants(p, pos, state.values, absent)]:
            walked: list = []
            atoms = _tree_walk(p.rules, lambda t: None if t is None else values[pos[t]], walked)
            enabled, _, _, compares, _, _ = plan.rules(values)
            assert compares == atoms
            assert [(c.sym, c.arg_slots, c.rhs_slot) for c in enabled] == [
                (a.head, tuple(map(slot, a.head_args)), slot(a.rhs)) for a in walked
            ]
        out = step_critical(p, state)
        if out.kind != NEXT:
            return
        state = out.state


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=st.binary(min_size=64, max_size=256).map(_program))
def test_jumping_code_matches_tree_walk(p):
    _check_jumping_code(p)


@pytest.mark.parametrize("path", sorted(PROGRAMS_DIR.glob("*.esm")), ids=lambda path: path.stem)
def test_jumping_code_matches_tree_walk_on_bundled_programs(path):
    # The bundled programs and oracle bodies: all but toggle and merge_demo
    # are phase machines, whose `rules` branches on the phase.
    p = parse_program_file(path)
    codec = input_codec(p.vocab)
    _check_jumping_code(p, [encode_size(p.vocab, codec, 5) for _ in p.inputs], steps=40)


def test_jumping_code_on_empty_branches_and_double_not():
    # Empty then and else branches still evaluate their test; `not not` is free.
    p = parse_program(
        """
vocab { constructors { c0/0 } dynamic { x/0; z/0 } }
inputs { } output { z }
rules {
  if x = undef or not z = undef then { } else { z := x }
  if not not z = undef then { x := c0 } else { }
  if undef = undef then { } else { }
}
"""
    )
    _check_jumping_code(p)
    r = run(p)
    assert (r.outcome, format_term(r.output), r.steps) == ("output", "c0", 2)
    assert compare_engines(p).equivalent


def test_location_written_at_init_is_read_later():
    # f(c1) is named only in the init block; f(x) reaches it once x = c1.
    p = parse_program(
        """
vocab { constructors { c0/0; c1/0 } dynamic { x/0; z/0; f/1 } }
inputs { } output { z }
init { f(c1) := c0; }
rules {
  if x = undef then { x := c1 } else { if z = undef then { z := f(x) } }
}
"""
    )
    for engine in ("critical", "reference"):
        r = run(p, engine=engine, check_invariants=True)
        assert (r.outcome, format_term(r.output), r.steps) == ("output", "c0", 2)
    assert compare_engines(p).equivalent


_COMPARE_ENDING = {OUTPUT: "terminal", UNDEF_OUTPUT: "terminal",
                   FUEL_EXHAUSTED: "fuel_limited", CLASH: "clash"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.binary(min_size=64, max_size=256).map(_program))
def test_compare_ends_where_run_ends(p):
    # With no fuel, and with exactly the fuel the run used, both stop alike.
    for fuel in (0, run(p, fuel=FUEL).steps):
        r = run(p, fuel=fuel)
        cmp = compare_engines(p, fuel=fuel)
        assert (cmp.outcome, cmp.steps) == (_COMPARE_ENDING[r.outcome], r.steps), \
            (format_program(p), fuel)


def _compare_step_by_step(p, inputs=(), fuel=10**6, oracle_mode=MODE_INLINE):
    """`compare_engines` one transition at a time: both engines set up and
    initialized as it does them, then stepped in turn through the public
    steppers, and their values compared after every step."""
    ctx = engine_mod._setup(p, "critical", fuel=fuel, oracle_mode=oracle_mode,
                            meter=CostMeter(enabled=False), record=False)
    ref = engine_mod._setup(p, "reference", fuel=fuel, oracle_mode=oracle_mode,
                            plan=ctx.plan, tangle=ctx.core.tangle, record=False)
    outs = []
    for c in (ctx, ref):
        try:
            outs.append(StepOutcome(NEXT, engine_mod._init_state(c, inputs)))
        except engine_mod._Halt as halt:
            outs.append(StepOutcome(halt.outcome, None, halt.clash))
    (out_c, out_r), index = outs, 0
    while out_c.kind == NEXT == out_r.kind:
        vc, vr = out_c.state.values, out_r.state.values
        if vc != vr:
            div = engine_mod._valuation_divergence(index, ctx, vc, vr)
            return EngineComparison(False, index, "diverged", div)
        out_c, out_r = step_critical(p, out_c.state), step_ref(p, out_r.state)
        index += 1
    end_c, end_r = (str(engine_mod._Halt(o.kind, o.clash)) for o in (out_c, out_r))
    if end_c != end_r:
        reason = "outcome differs" if index else "initialization differs"
        div = Divergence(index, None, end_c, end_r, reason)
        return EngineComparison(False, max(index - 1, 0), "diverged", div)
    if index == 0:
        return EngineComparison(True, 0, f"init {end_c}")
    ending = {TERMINAL: "terminal", FUEL_EXHAUSTED: "fuel_limited"}.get(end_c, CLASH)
    return EngineComparison(True, index - 1, ending)


# Fuels around the chunk `compare_engines` steps each engine by, and the default.
_CHUNK = engine_mod._CHUNK
_FUELS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 10**6)


@pytest.mark.parametrize("mode", [MODE_INLINE, MODE_UNIT])
@pytest.mark.parametrize("name", CORPUS)
def test_chunked_compare_matches_one_step_at_a_time_on_bundled_programs(name, mode):
    p = load_corpus(name)
    rng = random.Random(name)
    draws = [[random_input(p.vocab, rng) for _ in p.inputs] for _ in range(3)]
    for inputs in [small_inputs(p, name), *draws]:
        for fuel in _FUELS:
            assert compare_engines(p, inputs, fuel, mode) == \
                _compare_step_by_step(p, inputs, fuel, mode), (inputs, fuel)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.binary(min_size=64, max_size=256).map(_program))
def test_chunked_compare_matches_one_step_at_a_time_on_random_programs(p):
    for fuel in _FUELS[:-1]:  # a random program often runs until its fuel is spent
        assert compare_engines(p, fuel=fuel) == _compare_step_by_step(p, fuel=fuel), \
            (format_program(p), fuel)
