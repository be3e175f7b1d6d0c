"""The plan: a program compiled once, and the Python functions generated for it.

`build_plan` is the one place a plan is made.  It lists the program's
critical terms (`syntax.critical_terms`) as `Slot`s, compiles the rules into
jumping code, a tuple of `Test` atoms (an id comparison that jumps to one of
two targets) and `CAssign` assignments (each naming its successor), builds
the oracles' plans, and takes its growth constants from the terms' compact
sizes.  `generate` turns the code and the slots into the four functions
that depend on the program, so a transition runs straight-line code instead
of interpreting the plan's data:

* `rules(values)` runs the jumping code and returns the enabled assignments,
  the update set, the first clash (None, or its `ClashInfo` with the probes,
  reads and update-set size then) and the compares, probes and reads it
  charged.  Every jump goes forward, so the code runs top to bottom over a
  program counter; a run of tests that short-circuits as one `and` or `or`
  chain is one expression, and assignments that follow one another are one
  block with its read and probe counts folded into constants.  A slot that
  holds a constructor term (a sure slot) is never undef, so no test checks
  it for undef, and two sure slots hold two distinct vertices.  So in a
  phase machine, where every rule opens with a test such as `pc = ph_step`,
  `rules` reads one slot, the one that tests compare with the most sure
  slots, and runs one branch per such constant and one for none of them.
  Each branch is the jumping code folded under its fact: a test the fact
  decides is a static jump that still charges its compare, and the
  instructions no path reaches are left out.  So metering does not change,
  since the cost model charges every test of the jumping code.  A plan
  with no such slot, with more than _DISPATCH_MAX constants, or whose
  branches would take more than _DISPATCH_GROWTH times the lines of the
  code folded under no fact, has one branch, that code.
* `slots_all(ctx, values, updates, store, p, r, c, w)` computes every slot
  (initialization and the reference engine) into a new list, starting from
  the step's sums `p`, `r`, `c` and `w` (zeros at initialization), and
  ignores `values`.
* `critical(ctx, values, store, at, stop)` and `reference(...)`, the
  engines' transition loops from one template (`_loop_source`), take a
  run's transitions, or a chunk of them, in one call.  The reference loop
  calls `rules` and `slots_all` and copies the location map.  The critical
  loop holds the lines of `rules`, each assignment followed by its
  symbol's `_seed` (its slots flagged dirty, as constants), then its dirty
  pass: the flagged slots recomputed small to big, in place in `values` (a
  slot, an oracle application too, is flagged when seeded or when a
  child's value changed).

Each slot is an unrolled block: its children, the strictness test, then an
intern, a dynamic read or an oracle call, then, in the dirty pass, the
flagging of its parents.

An intern hit is one inline probe of the store's index; only a miss calls
the store's `_intern`, which allocates and charges itself.  So a wrapper put
on `Tangle._intern` sees the misses only, and since the probe skips its
vocabulary check, the engine checks every symbol a plan interns (`interned`,
its oracle plans' included) against a given store once, when a run is set
up.  The generated code reads the store's index directly; its values are int
vertex indices, the form `_intern` takes and gives.

The functions charge the records of the cost menu (`cost`), written in by
one emitter, `_adds`, under the one batching rule, which the engine's own
routines keep too: a routine adds up its operations in locals and puts them
on the meter at once, and never across an oracle call.  A nested run reads
the meter when it records a point of the series, and unit cost mode
switches the meter off for the call, so a charge carried past it would land
in the wrong record or be dropped.  So `rules` returns its sums, a slot pass
starts from the step's, and it charges what it has summed before every
oracle call and once at its end.  The generated code refers to no module.
It reads the run's state only as `ctx.core.tangle`, but for the loops,
which read `core = ctx.core` and the fields of a transition: the store,
the series, `fuel_left`, `check`, `record`, `steps_reported`, `last_ops`
and `trace`.  The fuel and the switches are read at every step, since
nested runs spend the fuel and unit-mode oracle calls switch the meter and
the record.  The store's `_intern` is looked up once per `_transition`
call (and per `slots_all` call), and the run context's `invoke` (an oracle
call: memo probe, then a nested run) at every call, so wrappers put on them
before a run see every call.

Equal programs share one plan: `build_plan` plans the oracle bodies first,
then looks a program up under a key of its own parts and its bodies' plans
(`_plan_key`), so a program parsed again plans and compiles nothing.  A plan's
functions are bound to its own symbols and assignments, and a run's store
takes the plan's vocabulary, so the store's checks pass them on identity;
the cache keeps no store alive.  Compiling a function costs time and memory
in proportion to its size, so a long one is generated as pieces that its
entry calls in order, each taking and returning the locals it changes, the
sums among them (`_run_pieces`).  No nesting grows with the program, so
Python's limits on indentation and parentheses are never met.  Each plan's
source is registered with `linecache` as `<esmtangle plan NAME>`, so
tracebacks, profilers and debuggers show the generated lines.
"""

from __future__ import annotations

import linecache
import re
from dataclasses import dataclass, field
from itertools import count, filterfalse
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Callable, NamedTuple, Sequence

from . import cost
from .cost import Ops, StepCost
from .syntax import (Assign, Cond, CriticalTerms, GAnd, GAtom, GNot, Program, Stmt, critical_terms,
                     validate_program)
from .terms import KIND_CONSTRUCTOR, KIND_DYNAMIC, KIND_ORACLE, Symbol, Term, compact_size

UNDEF_SLOT = -1

SLOT_CONS = 0
SLOT_DYN = 1
SLOT_ORACLE = 2

class Slot(NamedTuple):
    kind: int
    sym: Symbol
    child_slots: tuple[int, ...]


class Test(NamedTuple):  # a guard atom: jump to `then` if it holds, else `orelse`
    lhs: int
    rhs: int
    then: int
    orelse: int


class CAssign(NamedTuple):  # an assignment, then its successor
    sym: Symbol
    arg_slots: tuple[int, ...]
    rhs_slot: int
    next: int


@dataclass(frozen=True)
class ClashInfo:
    symbol: str
    args: tuple[int, ...]  # vertex indices in the run's store, printed `symbol(i,j)`

    def __str__(self):
        return f"{self.symbol}({','.join(map(str, self.args))})"


@dataclass(eq=False)
class ExecPlan:
    """A program compiled against its ordered tracked-term list; a memo key by identity."""

    program: Program
    criticals: CriticalTerms
    slots: tuple[Slot, ...]
    parents: tuple[tuple[int, ...], ...]  # per slot, the slots taking it as a child
    code: tuple[Test | CAssign, ...]  # the rules as jumping code, entry 0
    z_slot: int
    oracle_plans: dict[str, ExecPlan]
    c_program: int
    init_weight: int  # growth headroom of this plan's own initialization
    interned: tuple[Symbol, ...]  # the constructors it and its oracle plans intern
    # The generated functions: the rules, the slot pass that computes every
    # slot, and each engine's transition loop.
    rules: Callable = field(repr=False, compare=False)
    slots_all: Callable = field(repr=False, compare=False)
    critical: Callable = field(repr=False, compare=False)
    reference: Callable = field(repr=False, compare=False)


# --- The plan ------------------------------------------------------------------


def _compile_rules(rules: Sequence[Stmt], pos) -> tuple[Test | CAssign, ...]:
    """The rules as jumping code, entry at 0 and exit at the end.  It is
    emitted back to front, so every jump target exists when it is needed: a
    label is an index into `out`, -1 is the exit, and reversed, label i lands
    at last - i.  Both branches of an `if` continue at one label, so an empty
    branch emits nothing, though its test still runs.  `guard` loops down the
    left spine of an `and`/`or` chain, so only right operands recurse.  Every
    jump goes forward."""
    out: list = []

    def slot(t: Term | None) -> int:
        return UNDEF_SLOT if t is None else pos[t]

    def guard(g, then: int, orelse: int) -> int:
        while not isinstance(g, GAtom):
            if isinstance(g, GNot):
                g, then, orelse = g.sub, orelse, then
            elif isinstance(g, GAnd):
                g, then = g.left, guard(g.right, then, orelse)
            else:
                g, orelse = g.left, guard(g.right, then, orelse)
        out.append(Test(slot(g.lhs), slot(g.rhs), then, orelse))
        return len(out) - 1

    def stmts(body: Sequence[Stmt], k: int) -> int:
        for s in reversed(body):
            if isinstance(s, Assign):
                out.append(CAssign(s.head, tuple(map(slot, s.head_args)), slot(s.rhs), k))
                k = len(out) - 1
            else:
                orelse = stmts(s.orelse, k)
                k = guard(s.guard, stmts(s.then, k), orelse)
        return k

    stmts(rules, -1)
    last = len(out) - 1
    return tuple(
        Test(i.lhs, i.rhs, last - i.then, last - i.orelse) if type(i) is Test
        else CAssign(i.sym, i.arg_slots, i.rhs_slot, last - i.next)
        for i in reversed(out)
    )


_SLOT_KINDS = {KIND_CONSTRUCTOR: SLOT_CONS, KIND_DYNAMIC: SLOT_DYN, KIND_ORACLE: SLOT_ORACLE}


_SIGNATURE = attrgetter("_sig")  # one tuple per symbol, shared by every key


def _plan_key(p: Program, oracle_plans: dict[str, ExecPlan]) -> tuple:
    """The plan cache's key, as the store keys a vertex by its label and its
    children's vertices: equal for two programs only if they are equal in
    every field but `parsed`, each oracle body given by its plan.  `shape`
    lists the name, field lengths and each oracle's path and plan, then the
    statements and guards in prefix order, each as its class, with an `if`'s
    block lengths and an assignment's argument count.  `syms` and `terms`
    list the symbols and terms named, then each new term's head and
    arguments.  A symbol enters as its signature and a term as the number of
    its first place, by identity, so a lookup compares no term, and two
    equal programs whose terms are shared differently get two plans."""
    shape = [p.name, len(p.vocab), len(p.inputs), len(p.init), len(p.rules), len(p.oracles)]
    syms, terms = [*p.vocab, *p.inputs, p.output], [None]
    for o in p.oracles:
        shape += (o.path, oracle_plans[o.symbol.name])
        syms.append(o.symbol)
    stack = [*reversed(p.rules), *reversed(p.init)]
    while stack:
        node = stack.pop()
        cls = type(node)
        shape.append(cls)
        if cls is GAtom:
            terms += (node.lhs, node.rhs)
        elif cls is Assign:
            shape.append(len(node.head_args))
            syms.append(node.head)
            terms += (*node.head_args, node.rhs)
        elif cls is Cond:
            shape += (len(node.then), len(node.orelse))
            stack += (*reversed(node.orelse), *reversed(node.then), node.guard)
        elif cls is GNot:
            stack.append(node.sub)
        else:
            stack += (node.right, node.left)
    seen = {id(None): None}
    for t in terms:  # grows by the arguments of each term seen first
        if id(t) not in seen:
            seen[id(t)] = t
            syms.append(t.head)
            terms += t.args
    term_no = map(dict(zip(seen, count())).__getitem__, map(id, terms))
    return tuple(shape), tuple(map(_SIGNATURE, syms)), tuple(term_no)


def build_plan(program: Program) -> ExecPlan:
    """The plan of `program`: the cached one of an equal program, else a new
    one; a program that fails validation is a ValueError, one diagnostic a line."""
    oracle_plans = {o.symbol.name: build_plan(o.body) for o in program.oracles}
    key = _plan_key(program, oracle_plans)
    plan = _compiled.get(key)
    if plan is None:
        if diags := validate_program(program):
            raise ValueError("\n".join(diags))
        plan = _new_plan(program, oracle_plans)
        if len(_compiled) >= _COMPILED_MAX:
            linecache.cache.pop(_compiled.pop(next(iter(_compiled))).rules.__code__.co_filename, None)
        _compiled[key] = plan
    return plan


def _new_plan(program: Program, oracle_plans: dict[str, ExecPlan]) -> ExecPlan:
    ct = critical_terms(program)
    pos, sizes = ct.position, ct.sizes

    slots = []
    parents: list[list[int]] = [[] for _ in ct.terms]
    for i, t in enumerate(ct.terms):
        child_slots = tuple(pos[a] for a in t.args)
        slots.append(Slot(_SLOT_KINDS[t.head.kind], t.head, child_slots))
        for c in set(child_slots):
            parents[c].append(i)

    code = _compile_rules(program.rules, pos)

    # Growth constant: the sum of right-hand-side compact sizes bounds what a
    # transition can intern; every assignment appears once in the code.  Each
    # oracle adds the headroom of its own nested initialization and
    # transitions (a per-record bound, hence the max).
    c_program = sum(
        sizes[i.rhs_slot] for i in code if type(i) is CAssign and i.rhs_slot != UNDEF_SLOT
    )
    interned = {s.sym: None for s in slots if s.kind == SLOT_CONS}
    for oplan in oracle_plans.values():
        c_program += max(oplan.c_program, oplan.init_weight)
        interned.update(dict.fromkeys(oplan.interned))

    init_weight = sum(sizes)
    for a in program.init:
        init_weight += sum(compact_size(arg) for arg in a.head_args)
        init_weight += 0 if a.rhs is None else compact_size(a.rhs)

    slots = tuple(slots)
    parents = tuple(tuple(p) for p in parents)
    fns = generate(program.name, code, slots, parents)
    return ExecPlan(
        program=program,
        criticals=ct,
        slots=slots,
        parents=parents,
        code=code,
        z_slot=pos[Term(program.output)],
        oracle_plans=oracle_plans,
        c_program=c_program,
        init_weight=init_weight,
        interned=tuple(interned),
        rules=fns["rules"],
        slots_all=fns["slots_all"],
        critical=fns["critical"],
        reference=fns["reference"],
    )


# --- Generation ------------------------------------------------------------------

# Compiling a function costs time and memory in proportion to its size, so a
# long function is generated as pieces of about _PIECE_LINES lines, which its
# entry calls in order.  A piece of `rules` holds at most _PIECE instructions
# too, since one of its lines holds a whole `and` or `or` chain of tests, which
# only _PIECE cuts.  The bundled programs' functions fit in one piece.
_PIECE = 256
_PIECE_LINES = 400

# Plans by `_plan_key`, which gives each oracle body by its plan: a program
# parsed again, each body too, gets back the plan object that the oracle memo
# keys calls by, and a host whose body's plan has gone is planned again.  No
# store is kept alive; when full, the oldest plan goes with its `linecache` entry.
_compiled: dict[tuple, ExecPlan] = {}
_COMPILED_MAX = 256
_file_serial = count(2)  # tells apart two plans generated for one name


def generate(name: str, code, slots, parents) -> dict[str, Callable]:
    """The functions generated for a plan, by name, bound to the classes
    they make, `ClashInfo` and `StepCost`, and to the plan's constants: its
    assignments as `A<index>` and the symbols of its constructor slots as
    `S<index>`."""
    sure, found = _sure(slots), {}
    for i, s in enumerate(slots):  # per dynamic symbol name, its slots in increasing order
        if s.kind == SLOT_DYN:
            found.setdefault(s.sym.name, []).append(i)
    seeds = {name: _seed(dyn) for name, dyn in found.items()}
    branches = _rules_branches(code, sure, seeds)
    codes = _compile(name, [
        *_rules_source(code, sure, branches),
        *_pass_source(slots, parents, sure),
        *_loop_source("critical", slots, parents, sure, branches),
        *_loop_source("reference", slots, parents, sure),
    ])
    ns = {"ClashInfo": ClashInfo, "StepCost": StepCost, "new_tuple": tuple.__new__}
    ns.update((f"A{k}", ins) for k, ins in enumerate(code) if type(ins) is CAssign)
    ns.update((f"S{i}", s.sym) for i, s in enumerate(slots) if s.kind == SLOT_CONS)
    for c in codes:
        ns[c.co_name] = FunctionType(c, ns)
    return ns


def _compile(name: str, functions: list[list[str]]) -> tuple[CodeType, ...]:
    """Compile each function's source lines on its own, moved to the line
    where it starts in their concatenation, which is registered with
    `linecache` as `<esmtangle plan NAME>`."""
    filename = f"<esmtangle plan {name}>"
    if filename in linecache.cache:
        filename = f"<esmtangle plan {name} #{next(_file_serial)}>"
    codes, text = [], []
    for lines in functions:
        module = compile("\n".join(lines), filename, "exec")
        fn = next(c for c in module.co_consts if type(c) is CodeType)
        codes.append(fn.replace(co_firstlineno=fn.co_firstlineno + len(text)))
        text += map("{}\n".format, lines)
    linecache.cache[filename] = (sum(map(len, text)), None, text, filename)
    return tuple(codes)


def _times(k: int, times: str) -> str:
    """The source of k times the expression `times`."""
    return times if k == 1 else f"{k} * ({times})" if " " in times else f"{k} * {times}"


def _adds(ops: Ops, times: str = "") -> str:
    """The one line that adds a menu record (a sum of them, `times` times if
    given) to the local sums, each named by its category's initial: `p`, `r`,
    `c` and `w`.  No allocation is summed; `Tangle._intern` charges its own."""
    return "; ".join(
        f"{category[0]} += {_times(k, times) if times else k}"
        for category, k in zip(Ops._fields, ops) if k
    ) or "pass"


def _sure(slots) -> list[bool]:
    """Per slot, whether it is a constructor term, so never undef."""
    sure: list[bool] = []
    for kind, _, kids in slots:
        sure.append(kind == SLOT_CONS and all(sure[c] for c in kids))
    return sure


def _defined(slots, sure, on: str = "new") -> str | None:
    """The strictness test on the slots' values in `on`, None if they are
    all sure."""
    unsure = [c for c in dict.fromkeys(slots) if not sure[c]]
    return " and ".join(f"{on}[{c}] is not None" for c in unsure) or None


def _atom(lhs: int, rhs: int, sure) -> str:
    """A guard atom on `values` that `_holds` leaves open: a literal undef
    equals only undef, and two terms are equal only when both are defined
    and have one id.  A sure slot is defined."""
    if lhs == rhs:
        return f"values[{lhs}] is not None"
    if UNDEF_SLOT in (lhs, rhs):
        return f"values[{max(lhs, rhs)}] is None"
    if sure[lhs] or sure[rhs]:
        return f"values[{lhs}] == values[{rhs}]"
    return f"values[{lhs}] == values[{rhs}] is not None"


def _holds(lhs: int, rhs: int, sure) -> bool | None:
    """Whether a test holds wherever it runs, from its slots alone; None if
    that takes their values.  Undef equals undef and a sure slot equals
    itself; a sure slot is never undef, and two sure slots hold two distinct
    critical terms, so two distinct vertices."""
    if lhs == rhs:
        return True if lhs == UNDEF_SLOT or sure[lhs] else None
    if all(s == UNDEF_SLOT or sure[s] for s in (lhs, rhs)):
        return False
    return None


def _dispatch(code, sure) -> tuple[int, list[int]] | None:
    """The slot `rules` branches on, and its constants: the unsure slot that
    tests compare with the most distinct sure slots, at least 2, the lowest
    on a tie.  None if no slot has 2."""
    partners: dict[int, set[int]] = {}
    for ins in code:
        if type(ins) is Test and UNDEF_SLOT not in (ins.lhs, ins.rhs):
            for a, b in ((ins.lhs, ins.rhs), (ins.rhs, ins.lhs)):
                if sure[b] and not sure[a]:
                    partners.setdefault(a, set()).add(b)
    best = max(sorted(partners), key=lambda s: len(partners[s]), default=None)
    if best is None or len(partners[best]) < 2:
        return None
    return best, sorted(partners[best])


def _flow(code, sure, d: int = UNDEF_SLOT, fact: int | tuple[int, ...] = ()):
    """The jumping code under one branch's fact, walked in order over the
    instructions a path from the entry reaches, and no other.  A test the
    fact decides is made a static jump (both targets alike), which still
    charges its compare.  In the branch of a constant (`fact`, a sure slot),
    slot `d` holds that constant's vertex, so its tests read `fact` instead
    and `_holds` decides them: against itself or `fact` they hold, against
    another sure slot or undef they fail.  In the branch of none of them
    (`fact`, the constants), a test of `d` against one of them fails.

    Returns the folded code, which holds each reached instruction once and
    None where no path reaches, and per instruction: whether a jump from a
    reached instruction before it lands past it (it is guarded) and how many
    reached instructions jump to it."""
    n = len(code)
    folded: list = [None] * n
    entries, guarded = [0] * (n + 1), [False] * n
    reach = 0
    for k in range(n):  # jumps go forward, so k's entries are all counted by now
        if k and not entries[k]:
            continue
        ins = code[k]
        if type(ins) is CAssign:
            targets = (ins.next,)
        else:
            lhs, rhs = ins.lhs, ins.rhs
            if type(fact) is int:
                lhs, rhs = (fact if s == d else s for s in (lhs, rhs))
                held = _holds(lhs, rhs, sure)
            else:
                held = False if d in (lhs, rhs) and lhs + rhs - d in fact else _holds(lhs, rhs, sure)
            then, orelse = ins.then, ins.orelse
            if held is not None:
                then = orelse = then if held else orelse
            ins = Test(lhs, rhs, then, orelse)
            targets = (then,) if then == orelse else (then, orelse)
        folded[k] = ins
        guarded[k] = reach > k
        for t in targets:
            entries[t] += 1
        reach = max(reach, *targets)
    return folded, guarded, entries


def _test_run(code, k: int, end: int, entries, sure) -> tuple[int, Ops, list[str]]:
    """The run of tests from k that short-circuits as one `or` (or `and`)
    chain, as one block, with the compares it charges whenever it runs (the
    rest it charges itself).  The run grows while the last test falls
    through to the next one on failure (on success), the next one jumps
    where the run does on success (on failure), and nothing else jumps into
    it.  Each test evaluated charges a guard atom: the block finds the
    position of the first test that holds (fails), which is how many were
    evaluated, and charges them all when there is none.  Values do not
    change while the rules run, so a test that repeats an earlier one of its
    run fails (holds) wherever it is reached and is left out of the search.
    A static jump is never part of a run."""
    first = code[k]
    then, orelse, op = first.then, first.orelse, None
    j = k + 1
    while j < end and entries[j] == 1 and type(code[j]) is Test:
        nxt = code[j]
        if nxt.then == nxt.orelse:
            break
        if op != "and" and orelse == j and nxt.then == then:
            op, orelse = "or", nxt.orelse
        elif op != "or" and then == j and nxt.orelse == orelse:
            op, then = "and", nxt.then
        else:
            break
        j += 1
    if op is None:
        atom = _atom(first.lhs, first.rhs, sure)
        return j, cost.GUARD_ATOM, [f"pc = {then} if {atom} else {orelse}"]
    neg = "not " if op == "and" else ""
    seen, found = set(), []
    for n, t in enumerate(code[k:j], 1):
        if (atom := _atom(t.lhs, t.rhs, sure)) not in seen:
            seen.add(atom)
            found.append(f"{neg}{atom} and {n}")
    exits = (then, orelse) if op == "or" else (orelse, then)
    return j, Ops(), [f"k = {' or '.join(found)}", _adds(cost.GUARD_ATOM, f"k or {j - k}"),
                      "pc = {} if k else {}".format(*exits)]


def _assign_block(code, k: int, end: int, entries, sure, seeds) -> tuple[int, list[str]]:
    """The assignments from k that follow one another with no other way in,
    as one block: they are enabled together and each goes into the update
    set (strictness: an undef argument names no location).  The reads of
    each, and the probes of locations sure to be defined, are charged once
    for the block.  Each insert is checked for a clash, and the first is kept
    as one record: its `ClashInfo`, probes, reads and update-set size then.
    Later assignments may still insert, but a location keeps its first value.
    Each insert is followed by its symbol's line in `seeds` (its `_seed`),
    if it has one, under the same strictness test.  The block ends before
    its jump to the last assignment's successor."""
    j = k + 1
    while j < end and entries[j] == 1 and type(code[j]) is CAssign and code[j - 1].next == j:
        j += 1
    lines = [f"enabled.append(A{k})" if j == k + 1 else
             f"enabled += ({''.join(f'A{i}, ' for i in range(k, j))})"]
    reads = probes = 0  # the block's ASSIGN_READs and constant LOCATION_PROBEs so far
    for i in range(k, j):
        a = code[i]
        name = repr(a.sym.name)
        value = "None" if a.rhs_slot == UNDEF_SLOT else f"values[{a.rhs_slot}]"
        reads += len(a.arg_slots) + 1
        pad, key = "", f"({name}, ())"
        defined = _defined(a.arg_slots, sure, "values")
        if defined:
            lines += [f"if {defined}:", f"    {_adds(cost.LOCATION_PROBE)}"]
            pad = "    "
        else:
            probes += 1
        if a.arg_slots:
            lines.append(f"{pad}key = ({name}, ({''.join(f'values[{s}], ' for s in a.arg_slots)}))")
            key = "key"
        lines += [
            f"{pad}if updates.setdefault({key}, v := {value}) != v and clash is None:",
            f"{pad}    clash = (ClashInfo(*{key}), p + {cost.LOCATION_PROBE.probe * probes},"
            f" r + {cost.ASSIGN_READ.read * reads}, len(updates))",
        ]
        if a.sym.name in seeds:
            lines.append(pad + seeds[a.sym.name])
    return j, [*lines, _adds(cost.ASSIGN_READ * reads),
               *([_adds(cost.LOCATION_PROBE * probes)] if probes else [])]


def _branch_pieces(flow, sure, seeds) -> tuple[int, list[tuple[int, list[str]]]]:
    """One branch of `rules`, from its `_flow`: the compares it charges on
    every path, and its blocks as pieces of bounded size, each with the
    instruction after it.  Each block is a run of tests, a static jump or a
    run of assignments; it runs when `pc` names it, and unguarded when no
    jump passes over it.  An unguarded block's constant compares are
    charged with the branch's, so an unguarded static jump is no line at
    all; and a block does not set `pc` to the next block when that one is
    unguarded, since nothing reads it.  `seeds` goes to `_assign_block`."""
    code, guarded, entries = flow
    n = len(code)
    charge, pieces, k = Ops(), [], 0  # the entry is always reached
    while not pieces or k < n:
        end, body = min(n, k + _PIECE), []
        while k < end and len(body) < _PIECE_LINES:
            ins, goto = code[k], None
            if type(ins) is CAssign:
                j, block = _assign_block(code, k, end, entries, sure, seeds)
                compares, goto = Ops(), code[j - 1].next
            elif ins.then == ins.orelse:
                j, compares, block, goto = k + 1, cost.GUARD_ATOM, [], ins.then
            else:
                j, compares, block = _test_run(code, k, end, entries, sure)
            while j < n and code[j] is None:  # unreached
                j += 1
            if goto is not None and not (goto == j and (j == n or not guarded[j])):
                block.append(f"pc = {goto}")
            if guarded[k]:
                body += [f"if pc == {k}:", *_indent([_adds(compares)] if any(compares) else []),
                         *_indent(block)]
            else:
                charge += compares
                body += block
            k = j
        pieces.append((k, body))
    return charge, pieces


# A dispatch is made over at most _DISPATCH_MAX constants, since each branch
# walks the tests of the rules it does not run; and it is kept only while its
# branches, a dispatch test each, generate at most _DISPATCH_GROWTH times the
# lines of the undispatched code.
_DISPATCH_MAX = 64
_DISPATCH_GROWTH = 2


def _rules_branches(code, sure, seeds) -> tuple[list[str], list]:
    """The branches of `rules`, each as its condition (empty for the last)
    and its `_branch_pieces` with `seeds`: with a dispatch slot, one per
    constant it may hold and one for none of them, each the code folded
    under that fact; without one, or when the branches would grow too big,
    the one branch is the code folded under no fact.  And the line that
    reads the dispatch slot as `d`, none without one."""
    def size(branch) -> int:
        return sum(len(body) for _, body in branch[1][1])

    branches = [("", _branch_pieces(_flow(code, sure), sure, seeds))]
    dispatch = _dispatch(code, sure)
    if dispatch and len(dispatch[1]) <= _DISPATCH_MAX:
        d, consts = dispatch
        found, budget = [], _DISPATCH_GROWTH * size(branches[0])
        for fact in [*consts, tuple(consts)]:
            found.append((f"d == values[{fact}]" if type(fact) is int else "",
                          _branch_pieces(_flow(code, sure, d, fact), sure, seeds)))
            budget -= size(found[-1]) + 1
            if budget < 0:
                break
        else:
            return [f"d = values[{d}]"], found
    return [], branches


def _rules_body(head: list[str], branches, seeded: bool, out: list, end: str = "") -> list[str]:
    """The jumping code as straight-line code over a program counter `pc`,
    leaving in locals the enabled assignments, the update set, the clash
    record or None and the compares, probes and reads (`c`, `p` and `r`,
    and with `seeded` the flag writes `w` of its `_seed`s, else left out):
    the dispatch (`head`), then `_rules_branches` as one `if`/`elif`/`else`,
    or with an `end` line, as a flat run of `if`s, each branch ending with
    that line.  A branch is called as pieces, appended to `out`, when it
    has more than one or the lines before it hold _PIECE_LINES."""
    state = "pc, c, r, p, clash, w" if seeded else "pc, c, r, p, clash"
    params = "values, enabled, updates, dirty" if seeded else "values, enabled, updates"
    name = "_critical_rules" if seeded else "_rules"
    lines = list(head)
    for k, (cond, (charge, pieces)) in enumerate(branches):
        if not seeded:
            pieces = [(stop, [*filterfalse(_SEEDED, body)]) for stop, body in pieces]
        inline = len(pieces) == 1 and len(lines) < _PIECE_LINES
        bodies = [body if inline else [f"if pc >= {stop}:", f"    return {state}", *body]
                  for stop, body in pieces]
        body = [f"c = {charge.compare}", *_run_pieces(name, params, state, bodies, out, inline)]
        if end:
            body.append(end)
        if cond:
            body = [f"elif {cond}:" if k and not end else f"if {cond}:", *_indent(body)]
        elif k and not end:
            body = ["else:", *_indent(body)]
        lines += body
    return lines


def _rules_source(code, sure, branches=None) -> list[list[str]]:
    """`rules(values)`: `_rules_body` unseeded, each branch returning what
    the module docstring says.  `branches` is `_rules_branches`, made with
    no seeds if not given."""
    head, branches = branches or _rules_branches(code, sure, {})
    out: list = []
    body = _rules_body(head, branches, False, out, "return enabled, updates, clash, c, p, r")
    lines = ["enabled = []", "updates = {}", "pc = r = p = 0", "clash = None", *body]
    return [["def rules(values):", *_indent(lines)], *out]


def _run_pieces(name: str, params: str, state: str, pieces, out: list, inline: bool) -> list[str]:
    """The lines that run `pieces` (each the lines of one) in order: the one
    piece itself when `inline`, else a call `STATE = NAME_<i>(PARAMS, STATE)`
    per piece, whose function is appended to `out` as its i-th entry.  So the
    locals a piece changes, the sums among them, pass on as in one body."""
    if inline:
        return pieces[0]
    calls = []
    for body in pieces:
        fn = f"{name}_{len(out)}"
        calls.append(f"{state} = {fn}({params}, {state})")
        out.append([f"def {fn}({params}, {state}):", *_indent([*body, f"return {state}"])])
    return calls


# A pass puts the charges it sums on the meter before every oracle call, after
# which it sums from zero again (a flush), and at its end.  The last charge
# runs once per transition, so it spells out `CostMeter.charge` on the
# meter's counters.
_FLUSH = "meter.charge(probe=p, read=r, compare=c, write=w); p = r = c = w = 0"
_CHARGE = "meter.probe += p; meter.read += r; meter.compare += c; meter.write += w"
_PASS_PARAMS = "ctx, new, updates, store, meter, intern, index"


def _slot_block(i: int, slot: Slot, parents, sure, dirty: bool) -> list[str]:
    """Recompute slot i: its children, the strictness test, then an intern,
    a dynamic read (the update set, else the location map) or an oracle call,
    before which the summed charges are flushed.  An intern hit is one probe
    of the store's index; only a miss calls `intern` (the store's `_intern`),
    which charges itself.  With dirty flags, a changed value reads the slot's
    parent edges and flags its parents."""
    kind, sym, kids = slot
    name = repr(sym.name)
    lines, pad = [], ""
    defined = _defined(kids, sure)
    if defined:
        if dirty:
            lines.append("v = None")
        lines.append(f"if {defined}:")
        pad = "    "
    if kids:
        lines.append(f"{pad}t = ({''.join(f'new[{c}], ' for c in kids)})")
    args = "t" if kids else "()"
    if kind == SLOT_CONS:
        lines += [
            f"{pad}v = index.get(({name}, {args}))",
            f"{pad}if v is None:",
            f"{pad}    v = intern(S{i}, {args})",
            f"{pad}else:",
            f"{pad}    {_adds(cost.intern_hit(len(kids)))}",
        ]
    elif kind == SLOT_ORACLE:
        lines += [f"{pad}{_FLUSH}", f"{pad}v = ctx.invoke({name}, {args})"]
    elif dirty and not kids:
        # Only its assignments flag it, each an update of its one location.
        lines += [f"v = updates[({name}, ())]", _adds(cost.READ_UPDATES)]
    else:
        lines += [
            f"{pad}key = ({name}, {args})",
            f"{pad}if key in updates:",
            f"{pad}    v = updates[key]",
            f"{pad}    {_adds(cost.READ_UPDATES)}",
            f"{pad}else:",
            f"{pad}    v = store.get(key)",
            f"{pad}    {_adds(cost.READ_MAP)}",
        ]
    if not dirty:
        return lines + [f"{pad}new[{i}] = v"]
    above, flag = parents[i], _adds(cost.FLAG_WRITE)
    if not above:
        return [f"if dirty[{i}]:", *_indent(lines), f"    new[{i}] = v"]
    return [
        f"if dirty[{i}]:",
        *_indent(lines),
        f"    if v != new[{i}]:",
        f"        new[{i}] = v",
        f"        {_adds(cost.PARENT_READ * len(above))}",
        *(f"        if not dirty[{q}]: dirty[{q}] = True; {flag}" for q in above),
    ]


def _slot_pieces(slots, parents, sure, dirty: bool) -> list[list[str]]:
    """A slot pass as blocks, small to big, cut into pieces of about
    _PIECE_LINES lines, none empty unless the pass is.  A slot whose subterms
    are all constructors never changes, so the dirty pass leaves it out."""
    pieces: list[list[str]] = [[]]
    for i, slot in enumerate(slots):
        if not (dirty and sure[i]):
            if len(pieces[-1]) >= _PIECE_LINES:
                pieces.append([])
            pieces[-1] += _slot_block(i, slot, parents, sure, dirty)
    return pieces


def _indent(lines, pad: str = "    ") -> list[str]:
    return list(map(pad.__add__, lines))


_SEEDED = re.compile(r" *if not dirty\[").match  # a `_seed` line, at any indentation


def _seed(found: list[int]) -> str:
    """An assignment site's line in the critical loop, after its insert into
    the update set: the first of a transition to a symbol flags the symbol's
    slots `found`, a FLAG_WRITE each, as a SEED_PROBE per update-set key of
    its first slot would (charged with the update set's writes)."""
    return (f"if not dirty[{found[0]}]: {''.join(f'dirty[{i}] = ' for i in found)}True; "
            f"{_adds(cost.FLAG_WRITE * len(found))}")


def _pass_source(slots, parents, sure) -> list[list[str]]:
    """`slots_all` (see the module docstring), every slot small to big.  It
    reads the meter, `_intern` and the index once per call, and a long pass
    hands them to its pieces with the sums."""
    pieces, out = _slot_pieces(slots, parents, sure, False), []
    lines = ["tangle = ctx.core.tangle", "meter = tangle.meter", f"new = [None] * {len(slots)}",
             "intern = tangle._intern", "index = tangle._index",
             *_run_pieces("_slots_all", _PASS_PARAMS, "p, r, c, w", pieces, out, len(pieces) == 1),
             "if meter.enabled:", f"    {_CHARGE}"]
    head = "def slots_all(ctx, values, updates, store, p, r, c, w):"
    return [[head, *_indent([*lines, "return new"])], *out]


def _loop_source(engine: str, slots, parents, sure, rules=None) -> list[list[str]]:
    """ENGINE(ctx, values, store, at, stop): the engine's transitions from
    the state after step `at` (see the module docstring).  One with none
    enabled, no fuel or a clash returns (values, store, at, enabled, clash
    record, compares) for `engine._transition` to charge.  One that commits
    writes the update set into the location map and recomputes the slots
    with the step's sums, then runs the invariant check (off unless asked
    for), `keep` (on a copy of the critical loop's values), the record and
    the trace line; at step `stop` it returns (values, store, at, None,
    None, 0).  The critical loop calls its rules and dirty pass as pieces
    when long, the dirty pass also when the loop would reach _PIECE_LINES."""
    out: list = []
    if engine == "critical":
        step = [f"dirty = [False] * {len(slots)}", "enabled = []", "updates = {}",
                "pc = r = p = w = 0", "clash = None", *_rules_body(*rules, True, out)]
        pieces, rest = _slot_pieces(slots, parents, sure, True), []
        recompute = [
            _adds(cost.UPDATE_ENTRY + cost.MAP_WRITE + cost.SEED_PROBE, "len(updates)"),
            *_run_pieces("_slots_dirty", f"{_PASS_PARAMS}, dirty", "p, r, c, w", pieces, rest,
                         len(pieces) == 1 and len(step) + len(pieces[0]) < _PIECE_LINES),
            "if meter.enabled:", f"    {_CHARGE}",
        ]
        top, kept = ["new = values", "intern = tangle._intern", "index = tangle._index"], "values[:]"
    else:
        step = ["enabled, updates, clash, c, p, r = rules(values)"]
        writes = _times((cost.UPDATE_ENTRY + cost.MAP_WRITE).write, "len(updates)")
        recompute = [f"values = slots_all(ctx, values, updates, store, p, r, c, {writes})"]
        top, kept, rest = [], "values", []
    body = [
        *step,
        "if not enabled or core.fuel_left <= 0 or clash is not None:",
        "    return values, store, at, enabled, clash, c",
        "core.fuel_left -= 1", *(["store = dict(store)"] if engine == "reference" else []),
        "store.update(updates)",
        "if None in updates.values():  # undef: the location leaves the finite support",
        "    for key, v in updates.items():",
        "        if v is None:",
        "            del store[key]",
        *recompute,
        "if core.check:",
        "    ctx.check_state(values, store)",
        "if keep is not None:", f"    keep({kept})",
        "at += 1",
        "if core.record:",
        "    core.steps_reported += 1",
        "    ops = meter.probe + meter.alloc + meter.read + meter.compare + meter.write",
        "    series.append(new_tuple(StepCost, (len(series), ops - core.last_ops, len(nodes),"
        " tangle._edges)))",
        "    core.last_ops = ops",
        "    if core.trace is not None:",
        "        core.trace_line(at, enabled, updates)",
        "if at == stop:", "    return values, store, at, None, None, 0",
    ]
    lines = ["core = ctx.core", "keep = ctx.keep", "tangle = core.tangle", "meter = tangle.meter",
             "series = core.series", "nodes = tangle._nodes", *top, "while True:", *_indent(body)]
    return [[f"def {engine}(ctx, values, store, at, stop):", *_indent(lines)], *out, *rest]
