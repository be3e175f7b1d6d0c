"""Two interpreters for guarded-assignment programs over one term store.

Both engines keep one value per tracked term (the program's terms and their
subterms, ordered small to big) inside a maximally shared graph store, and a
finite location map from (symbol, argument ids) to value ids outside it.
Inside a run an id is an int vertex index of its store (values, locations,
memo keys, a clash's `ClashInfo.args`); `NodeId`s, tagged with the store,
appear only at the API, as `invoke_oracle`'s arguments and result.
They run a plan, which `codegen.build_plan` makes once per program (equal
programs share one plan; the plan cache keeps no store alive): the tracked
terms as slots, the rules as jumping code, and the functions
generated from them for what depends on the program: `rules`, `slots_all`,
which computes every slot starting from the sums its caller has not charged
yet, and each engine's transition loop, `critical` and `reference`.  A
transition runs the rules, which collect the assignments
they pass into an update set, writes the update set into the location map,
and recomputes tracked values in order: constructor applications intern,
oracle applications call, and a dynamic read probes the update set and, on
a miss, the location map.  Strictness makes a term with an undef argument
undef.  An intern hit is one inline probe of the store's index, and only a
miss calls `Tangle._intern`, the store's int form of `intern`, so a wrapper
on it sees the misses only; initialization imports through `Tangle._import`.

The engines differ only in how a transition treats its state.  The reference
engine writes into a copy of the map and recomputes every tracked term, so
its states stay functional; it is the semantic oracle the fast engine is
differentially tested against.  The fast engine writes into its one map in
place, so a fast-engine state can be stepped only once, and recomputes only
its dirty slots: the tracked terms of every assigned dynamic symbol, and
then, in increasing order so children come first, each term with a child
whose value changed.  Any other term keeps its value, since its
recomputation would return it unchanged, an oracle application too: the
run's memo keeps its result per body and argument ids.  Its loop updates
the values in place, on a copy taken per `_transition` call, so an old
state keeps its values.  Initialization recomputes every slot.
`compare_engines` runs both engines over one shared store, `_CHUNK`
transitions at a time, and reports the first step where a tracked term's
value differs, which with maximal sharing is an id comparison.

Every run takes one path.  `_setup` sets up every run (`run`, the public
initializers, `compare_engines`, `invoke_oracle`): it checks the arguments,
takes the plan from `build_plan` and makes the run core, the run's state,
over a given store or a new one of the plan's vocabulary; since an inline
intern hit skips `Tangle._intern`'s vocabulary check, it checks once that
every symbol the plan and its oracle plans intern is in the store's
vocabulary, with the error `intern` raises.  `_init_state` is the one
initializer (nested oracle runs use it too).  `_transition`, the same for
every program, calls the engine's generated loop and is the one place that
decides how a transition ends: with a successor (NEXT) or none enabled
(TERMINAL), which it returns, or by raising the private `_Halt` where an
update clashed (CLASH) or the fuel ran out with one enabled
(FUEL_EXHAUSTED).  A halt in an oracle call passes through every nested run
unchanged.  Fuel is charged when a transition commits, after its clash
check and before its writes and oracle calls.  A run, and each nested
oracle run, takes all its transitions in one call of it, and `step_critical`
and `step_ref` take one.  No public
function lets a halt escape: `run` and `compare_engines` report it as their
outcome, the steppers as their step's kind, and the initializers and
`invoke_oracle` raise RuntimeError.
Every run is metered by its store's meter, which is fixed when the store is
made: a run reports the operations that meter gains during the run, so two
runs on one store each report only their own work.

Oracle symbols are realized by nested runs of their body programs over the
same store and meter, through one call path: the generated code calls
`RunContext.invoke`.  In "unit" cost mode the meter and the per-step series
are paused for the nested run and the call is charged as a unit call, so its
inner transitions are left out of the reported step count and the trace; in
"inline" mode the nested run's full metered cost and transitions are charged.
Every result is kept in the run's memo per (body, argument ids), the body
being the plan its caller declares under the oracle's name (two may share
one), so an oracle application is a function of its children's values, as a
constructor application is; its memo probe is charged in both modes.  Every
charge is an entry of the menu in `cost`, batched by the one rule `codegen`
states: summed in locals, charged at once, never across an oracle call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .codegen import SLOT_CONS, SLOT_DYN, ClashInfo, ExecPlan, build_plan
from . import cost
from .cost import CostMeter, CostReport, StepCost, word_bits
from .syntax import OracleDef, Program
from .tangle import NodeId, Tangle, new_tangle
from .terms import KIND_CONSTRUCTOR, Term, compact_size, distinct_subterms, format_term

# How a transition ends: with a successor, or with none of three kinds.  A
# run ends with a halt's kind, or with OUTPUT or UNDEF_OUTPUT in TERMINAL's
# place.
NEXT = "next"
TERMINAL = "terminal"
CLASH = "clash"
FUEL_EXHAUSTED = "fuel_exhausted"
OUTPUT = "output"
UNDEF_OUTPUT = "undef_output"

# Oracle cost modes.
MODE_UNIT = "unit"
MODE_INLINE = "inline"


# --- Run context --------------------------------------------------------------


class _Halt(Exception):
    """A run stopped early: fuel ran out with assignments still enabled, or an
    update clashed.  `_transition` raises it, and it passes unchanged through
    every nested oracle run to the public function that reports it."""

    def __init__(self, outcome: str, clash: ClashInfo | None = None):
        self.outcome = outcome  # FUEL_EXHAUSTED | CLASH
        self.clash = clash

    def __str__(self):
        return self.outcome if self.clash is None else f"clash {self.clash}"


@dataclass
class _RunCore:
    """State shared by a whole run, nested oracle runs included."""

    tangle: Tangle
    mode: str
    fuel_left: int
    memo: dict = field(default_factory=dict)
    series: list[StepCost] = field(default_factory=list)
    steps_reported: int = 0
    record: bool = True
    trace: object = None
    check: bool = False
    start_ops: int = 0  # the store meter's count when the run began
    last_ops: int = 0

    def record_point(self):
        if self.record:
            tangle = self.tangle
            ops = tangle.meter.ram_ops
            self.series.append(
                StepCost(len(self.series), ops - self.last_ops, len(tangle), tangle.edges)
            )
            self.last_ops = ops

    def trace_line(self, index: int, enabled, updates):
        """The trace line of reported step `index`: its enabled assignments,
        its update set, and the store's size and the operations since the
        run began, read off the step's record."""
        parts = [f"{name}({','.join(map(str, args))}):{'undef' if val is None else val}"
                 for (name, args), val in updates.items()]
        rec = self.series[-1]
        self.trace.write(
            f"i={index} enabled={len(enabled)} updates={';'.join(parts)} "
            f"vertices={rec.vertices} edges={rec.edges} ops={self.last_ops - self.start_ops}\n"
        )


@dataclass
class RunContext:
    core: _RunCore
    plan: ExecPlan
    engine: str  # "critical" | "reference"
    keep: object = None  # takes each committed step's values; a nested run's is None

    def invoke(self, name: str, argids: tuple[int, ...]) -> int | None:
        """An oracle call inside a run: memo probe, then the call on a miss.
        The generated code makes every oracle call through this."""
        core = self.core
        plan = self.plan.oracle_plans[name]
        key = (plan, argids)
        core.tangle.meter.charge(*cost.MEMO_PROBE)
        if key not in core.memo:
            core.memo[key] = _call_oracle(RunContext(core, plan, self.engine), argids)
        return core.memo[key]

    def check_state(self, values, store):
        """Debug assertions (unmetered): strictness, constructor coherence,
        and agreement of every dynamic slot with the location map."""
        tangle = self.core.tangle
        meter = tangle.meter
        saved = meter.enabled
        meter.enabled = False
        try:
            for i, (kind, sym, child_slots) in enumerate(self.plan.slots):
                childvals = tuple(map(values.__getitem__, child_slots))
                if None in childvals:
                    assert values[i] is None, f"strictness violated at slot {i}"
                elif kind == SLOT_CONS:
                    expect = tangle._intern(sym, childvals)
                    assert values[i] == expect, f"constructor coherence violated at slot {i}"
                elif kind == SLOT_DYN:
                    expect = store.get((sym.name, childvals))
                    assert values[i] == expect, f"location map disagrees at slot {i}"
        finally:
            meter.enabled = saved


@dataclass
class EngineState:
    """One value (a vertex index of the run's store, or None for undef) per
    tracked term, and the finite location map they were read from.  A
    reference-engine step copies the map; a fast-engine step updates it in
    place, so a fast-engine state can be stepped only once."""

    ctx: RunContext
    values: list[int | None]
    store: dict[tuple[str, tuple[int, ...]], int]
    step_index: int = 0


class StepOutcome(NamedTuple):
    kind: str  # NEXT | TERMINAL | CLASH | FUEL_EXHAUSTED
    state: EngineState | None = None
    clash: ClashInfo | None = None


@dataclass
class RunResult:
    outcome: str
    output: Term | None
    steps: int
    n: int
    cost: CostReport
    clash: ClashInfo | None = None


# --- Oracle calls -----------------------------------------------------------------


def _call_oracle(ctx: RunContext, argids: tuple[int, ...]) -> int | None:
    """Run an oracle body (the plan of `ctx`) on defined argument ids.

    Inline mode meters, records and traces the nested run like the host's own
    steps.  Unit mode pauses the run's meter and its per-step series for the
    nested run and charges the call as a unit call; the vertices the nested
    run adds still count toward the run's word size, its store's at its end.
    """
    core = ctx.core
    unit = core.mode == MODE_UNIT
    meter = core.tangle.meter
    saved = meter.enabled, core.record
    if unit:
        meter.enabled = core.record = False
    try:
        state = _transition(_init_state(ctx, input_ids=argids), None).state
    finally:
        meter.enabled, core.record = saved
    if unit:
        meter.charge(*cost.UNIT_CALL)
    return state.values[ctx.plan.z_slot]


# --- Setup and initialization ------------------------------------------------------


def _check_inputs(program: Program, inputs: Sequence[Term]):
    if len(inputs) != len(program.inputs):
        raise ValueError(
            f"program {program.name} takes {len(program.inputs)} inputs, "
            f"got {len(inputs)}"
        )
    for sym, t in zip(program.inputs, inputs):
        for sub in distinct_subterms(t):
            if sub.head.kind != KIND_CONSTRUCTOR:
                raise ValueError(
                    f"input {sym.name} = {format_term(t)} uses "
                    f"non-constructor symbol {sub.head.name!r}"
                )


def _setup(
    program: Program,
    engine: str,
    *,
    oracle_mode: str,
    fuel: int = 10**6,
    plan: ExecPlan | None = None,
    tangle: Tangle | None = None,
    meter: CostMeter | None = None,
    record: bool = True,
    trace=None,
    check_invariants: bool = False,
) -> RunContext:
    """The one place a run is set up: check the arguments, take the plan
    (unless one is given) from `build_plan` and make the run context over a
    given store or a new one of the plan's vocabulary, metered by `meter`.  A given store runs on its own meter; naming
    a different meter for it is an error, and so is a negative fuel (fuel 0
    runs no transition).
    """
    if engine not in ("critical", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if oracle_mode not in (MODE_UNIT, MODE_INLINE):
        raise ValueError(f"unknown oracle cost mode {oracle_mode!r}")
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")
    if plan is None:
        plan = build_plan(program)
    if tangle is None:
        tangle = new_tangle(plan.program.vocab, meter)
    elif meter is not None and meter is not tangle.meter:
        raise ValueError("a given tangle runs on its own meter; pass one or the other")
    tangle.check_vocabulary(plan.interned)  # intern hits are probed by name
    ops = tangle.meter.ram_ops
    core = _RunCore(
        tangle=tangle, mode=oracle_mode, fuel_left=fuel, record=record, trace=trace,
        check=check_invariants, start_ops=ops, last_ops=ops,
    )
    return RunContext(core, plan, engine)


def _init_state(
    ctx: RunContext,
    inputs: Sequence[Term] = (),
    *,
    input_ids: Sequence[int] | None = None,
) -> EngineState:
    """The one initializer, for runs and nested oracle runs alike: check and
    bind the input terms (a nested run binds ids), load the init block,
    evaluate the tracked terms small to big against the initial location
    map, and record the initial point of the series.  An oracle call that
    clashes or runs out of fuel raises _Halt."""
    core = ctx.core
    tangle = core.tangle
    meter = tangle.meter
    program = ctx.plan.program

    store: dict[tuple[str, tuple[int, ...]], int] = {}
    if input_ids is None:
        _check_inputs(program, inputs)
        input_ids = [tangle._import(t) for t in inputs]
    for sym, nid in zip(program.inputs, input_ids):
        store[(sym.name, ())] = nid
        meter.charge(*cost.INPUT_WRITE)
    for a in program.init:
        argids = tuple(tangle._import(t) for t in a.head_args)
        assert a.rhs is not None  # validated: init values are constructor terms
        store[(a.head.name, argids)] = tangle._import(a.rhs)
        meter.charge(*cost.INIT_LOCATION)
    values = ctx.plan.slots_all(ctx, None, {}, store, 0, 0, 0, 0)
    if core.check:
        ctx.check_state(values, store)
    core.record_point()
    return EngineState(ctx, values, store)


def _init(program, inputs, engine, meter, oracle_mode) -> EngineState:
    """The public initializers' one body."""
    ctx = _setup(program, engine, meter=meter, oracle_mode=oracle_mode)
    try:
        return _init_state(ctx, inputs)
    except _Halt as halt:
        raise RuntimeError(f"initialization halted: {halt}") from None


def init_critical(
    program: Program,
    inputs: Sequence[Term] = (),
    *,
    meter: CostMeter | None = None,
    oracle_mode: str = MODE_INLINE,
) -> EngineState:
    """Initial fast-engine state for the given input terms.  An oracle call
    that halts initialization raises RuntimeError."""
    return _init(program, inputs, "critical", meter, oracle_mode)


def init_ref(
    program: Program,
    inputs: Sequence[Term] = (),
    *,
    meter: CostMeter | None = None,
    oracle_mode: str = MODE_INLINE,
) -> EngineState:
    """Initial reference-engine state (full location map); see `init_critical`."""
    return _init(program, inputs, "reference", meter, oracle_mode)


# --- Transitions -----------------------------------------------------------------

_CHUNK = 16  # the transitions `compare_engines` runs per engine between two comparisons


def _transition(state: EngineState, limit: int | None = 1) -> StepOutcome:
    """Up to `limit` transitions of the state's engine, or with None all until
    one has no successor, in one call of its loop (`ExecPlan.critical` or
    `.reference`), the fast engine's on a copy of the state's values.  A
    transition with no assignment enabled or no fuel left ends after the
    rules, charging their compares only; a clash charges the sums in its
    record.  It returns NEXT with the last successor, or TERMINAL, with
    `limit` None with the state the run ended in; fuel exhaustion and a
    clash, here or in an oracle call, raise _Halt."""
    ctx, at = state.ctx, state.step_index
    fast = ctx.engine == "critical"
    values = state.values[:] if fast else state.values
    stop = -1 if limit is None else at + limit
    loop = ctx.plan.critical if fast else ctx.plan.reference
    values, store, at, enabled, clash, c = loop(ctx, values, state.store, at, stop)
    if enabled is None:
        return StepOutcome(NEXT, EngineState(ctx, values, store, at))
    meter = ctx.core.tangle.meter
    if not enabled or ctx.core.fuel_left <= 0:
        meter.charge(compare=c)
        if enabled:
            raise _Halt(FUEL_EXHAUSTED)
        return StepOutcome(TERMINAL, EngineState(ctx, values, store, at) if limit is None else None)
    clash, p, r, entries = clash
    meter.charge(probe=p, read=r, compare=c, write=cost.UPDATE_ENTRY.write * entries)
    raise _Halt(CLASH, clash)


def _step(state: EngineState, limit: int = 1) -> StepOutcome:
    """Up to `limit` transitions, with a halt as the outcome's kind: the steppers' one body."""
    try:
        return _transition(state, limit)
    except _Halt as halt:
        return StepOutcome(halt.outcome, None, halt.clash)


def step_critical(program: Program, state: EngineState) -> StepOutcome:
    """One fast-engine transition (`_transition` steps a state by its engine)."""
    return _step(state)


def step_ref(program: Program, state: EngineState) -> StepOutcome:
    """One reference-engine transition, over a copy of the location map."""
    return _step(state)


# --- Whole runs ------------------------------------------------------------------


def run(
    program: Program,
    inputs: Sequence[Term] = (),
    fuel: int = 10**6,
    engine: str = "critical",
    oracle_mode: str = MODE_INLINE,
    *,
    trace=None,
    check_invariants: bool = False,
    tangle: Tangle | None = None,
    meter: CostMeter | None = None,
) -> RunResult:
    """Execute to termination, clash, or fuel exhaustion, and report cost.

    Fuel bounds the total number of transitions executed, nested oracle runs
    included, in both cost modes; the reported step count excludes nested
    transitions in unit mode.
    """
    ctx = _setup(
        program, engine, tangle=tangle, meter=meter, fuel=fuel,
        oracle_mode=oracle_mode, trace=trace, check_invariants=check_invariants,
    )
    core = ctx.core
    meter = core.tangle.meter
    halt = baseline = None  # baseline: the series' length when initialization ended
    try:
        state = _init_state(ctx, inputs)
        baseline = len(core.series)
        state = _transition(state, None).state
    except _Halt as stop:
        halt = stop
        if baseline is None:  # an oracle call halted initialization: all of it is init
            core.record_point()
            baseline = len(core.series)

    # Fold trailing guard-probe ops (terminal detection) into the last record
    # so that total_ops is exactly the sum of the per-step series.  init_ops
    # is everything up to the post-initialization baseline record (for a
    # zero-step run the terminal probe lands there too).
    tail = meter.ram_ops - core.last_ops
    if tail:
        last = core.series[-1]
        core.series[-1] = StepCost(last.i, last.ops + tail, last.vertices, last.edges)
    init_ops = sum(rec.ops for rec in core.series[:baseline])

    outcome, output_term = UNDEF_OUTPUT, None
    if halt is not None:
        outcome = halt.outcome
    else:
        z = state.values[ctx.plan.z_slot]
        if z is not None:
            outcome, output_term = OUTPUT, core.tangle.extract_term(NodeId(core.tangle.tag, z))

    n = sum(compact_size(t) for t in inputs)
    report = CostReport(
        n=n,
        steps=core.steps_reported,
        init_ops=init_ops,
        total_ops=meter.ram_ops - core.start_ops,
        word_bits_max=word_bits(len(core.tangle)),  # the store only grows
        c_program=ctx.plan.c_program,
        per_step=tuple(core.series),
    )
    clash = None if halt is None else halt.clash
    return RunResult(outcome, output_term, core.steps_reported, n, report, clash)


def invoke_oracle(
    odef: OracleDef,
    args: Sequence[NodeId],
    tangle: Tangle,
    mode: str = MODE_INLINE,
) -> tuple[NodeId | None, int]:
    """Run an oracle body on argument ids already in `tangle`.

    Returns the result id (None for undef) and the RAM operations the call
    charged to the store's meter: the nested run's full cost in inline mode,
    exactly one in unit mode, none when that meter is disabled.  An argument
    of another store or out of its range raises TangleError, an undef one
    ValueError.  A body that clashes or runs out of fuel raises RuntimeError.
    """
    if len(args) != odef.symbol.arity:
        raise ValueError(
            f"oracle {odef.symbol.name}/{odef.symbol.arity} called with {len(args)} args"
        )
    ids = tuple(tangle._own(a, "oracle argument") for a in args)
    if 0 in ids:
        raise ValueError("oracle arguments must be defined")
    ctx = _setup(odef.body, "critical", oracle_mode=mode, tangle=tangle, record=False)
    before = tangle.meter.ram_ops
    try:
        value = _call_oracle(ctx, ids)
    except _Halt as halt:
        raise RuntimeError(f"oracle {odef.symbol.name} halted: {halt}") from None
    return None if value is None else NodeId(tangle.tag, value), tangle.meter.ram_ops - before


# --- Differential testing ---------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    step: int
    term: Term | None
    critical_value: str
    reference_value: str
    reason: str


@dataclass
class EngineComparison:
    equivalent: bool
    steps: int
    outcome: str
    divergence: Divergence | None = None


def _valuation_divergence(step, ctx: RunContext, vc: list, vr: list) -> Divergence:
    """The first tracked term whose values differ in two differing value lists."""
    tangle = ctx.core.tangle
    i = next(i for i, (a, b) in enumerate(zip(vc, vr)) if a != b)
    a, b = ("undef" if v is None else format_term(tangle.extract_term(NodeId(tangle.tag, v)))
            for v in (vc[i], vr[i]))
    reason = "definedness differs" if None in (vc[i], vr[i]) else "value differs"
    return Divergence(step, ctx.plan.criticals.terms[i], a, b, reason)


def compare_engines(
    program: Program,
    inputs: Sequence[Term] = (),
    fuel: int = 10**6,
    oracle_mode: str = MODE_INLINE,
) -> EngineComparison:
    """Run both engines side by side; report the first step where they differ.

    The engines share one plan and one store, each with its own fuel and
    oracle memo, so their values are compared as vertex indices.  Each takes
    `_CHUNK` transitions at a time through the run loop, keeping each step's
    values, and the chunks are compared step by step; up to `_CHUNK - 1`
    transitions past the first difference run unreported.  Fuel bounds each
    engine's transitions as it bounds a run's, nested oracle runs included, so
    a comparison ends where `run` at the same fuel ends: "terminal" for an
    output or undef output, "fuel_limited" (or "init fuel_exhausted") for fuel
    exhaustion, "clash" for a clash, and in unit mode after as many steps.
    Nothing reads a comparison's cost: its meter is off and no series is recorded.
    """
    ctx = _setup(
        program, "critical", fuel=fuel, oracle_mode=oracle_mode,
        meter=CostMeter(enabled=False), record=False,
    )
    ref_ctx = _setup(
        program, "reference", fuel=fuel, oracle_mode=oracle_mode,
        plan=ctx.plan, tangle=ctx.core.tangle, record=False,
    )
    outs = []
    for c in (ctx, ref_ctx):
        try:
            outs.append(StepOutcome(NEXT, _init_state(c, inputs)))
        except _Halt as halt:
            outs.append(StepOutcome(halt.outcome, None, halt.clash))
    seen_c, seen_r = ([] if o.state is None else [o.state.values] for o in outs)
    ctx.keep, ref_ctx.keep = seen_c.append, seen_r.append
    (out_c, out_r), index = outs, 0
    while True:
        for vc, vr in zip(seen_c, seen_r):
            if vc != vr:
                return EngineComparison(False, index, "diverged",
                                        _valuation_divergence(index, ctx, vc, vr))
            index += 1
        if out_c.kind != NEXT or out_r.kind != NEXT:
            break
        del seen_c[:], seen_r[:]
        out_c, out_r = _step(out_c.state, _CHUNK), _step(out_r.state, _CHUNK)
    end_c = NEXT if len(seen_c) > len(seen_r) else str(_Halt(out_c.kind, out_c.clash))
    end_r = NEXT if len(seen_r) > len(seen_c) else str(_Halt(out_r.kind, out_r.clash))
    if end_c != end_r:
        reason = "outcome differs" if index else "initialization differs"
        div = Divergence(index, None, end_c, end_r, reason)
        return EngineComparison(False, max(index - 1, 0), "diverged", div)
    if index == 0:
        return EngineComparison(True, 0, f"init {end_c}")
    ending = {TERMINAL: "terminal", FUEL_EXHAUSTED: "fuel_limited"}.get(end_c, CLASH)
    return EngineComparison(True, index - 1, ending)
