"""The plan: a program compiled once, and the Python functions generated for it.

`build_plan` is the one place a plan is made.  It lists the program's
critical terms (`syntax.critical_terms`) as `Slot`s, compiles the rules into
jumping code, a tuple of `Test` atoms (an id comparison that jumps to one of
two targets) and `CAssign` assignments (each naming its successor), builds
the oracles' plans, and takes its growth constants from the terms' compact
sizes.  `generate` turns the code and the slots into the three functions
that depend on the program, so a transition runs straight-line code instead
of interpreting the plan's data.  The transition itself, the same for every
program, is the engine's (`engine._transition`), which calls them:

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
  (initialization and the reference engine) and ignores `values`.
* `slots_dirty(ctx, values, updates, store, p, r, c, w)` is the fast
  engine's pass: the dirty seed (the slots of each updated symbol, written
  in as constants), then the dirty slots recomputed (a slot, an oracle
  application too, is recomputed when it is seeded or a child's value
  changed).

The two slot passes are one template, `_pass_source`, with one protocol:
each takes the step's sums `p`, `r`, `c` and `w` (zeros at initialization)
and returns the new values.  Each slot is an unrolled block: its children,
the strictness test, then an intern, a dynamic read or an oracle call, then,
in the dirty pass, the flagging of its parents.

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
oracle call and once at its end.  The generated
code refers to no module and reads the run's state only as `ctx.core.tangle`:
it calls the store's `_intern` and the run context's `invoke` (an oracle
call: memo probe, then a nested run) through their attributes, looked up at
every pass, so wrappers put on them later see every call.

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
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Callable, NamedTuple, Sequence

from . import cost
from .cost import Ops
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
    # slot, and the fast engine's seed and dirty pass.
    rules: Callable = field(repr=False, compare=False)
    slots_all: Callable = field(repr=False, compare=False)
    slots_dirty: Callable = field(repr=False, compare=False)


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


def _dyn_slots(slots) -> dict[str, list[int]]:
    """Per dynamic symbol name, its slots in increasing order."""
    found: dict[str, list[int]] = {}
    for i, s in enumerate(slots):
        if s.kind == SLOT_DYN:
            found.setdefault(s.sym.name, []).append(i)
    return found


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
        slots_dirty=fns["slots_dirty"],
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
    """The functions generated for a plan, by name, bound to the one class
    they make, `ClashInfo`, and to the plan's constants: its assignments as
    `A<index>`, the symbols of its constructor slots as `S<index>` and, as
    SEED, the first slot of each dynamic symbol."""
    sure = _sure(slots)
    codes = _compile(name, [
        *_rules_source(code, sure),
        *_pass_source("slots_all", slots, parents, sure, dirty=False),
        *_pass_source("slots_dirty", slots, parents, sure, dirty=True),
    ])
    ns = {"ClashInfo": ClashInfo}
    ns["SEED"] = {name: found[0] for name, found in _dyn_slots(slots).items()}
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
        text.extend(line + "\n" for line in lines)
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


def _assign_block(code, k: int, end: int, entries, sure) -> tuple[int, list[str]]:
    """The assignments from k that follow one another with no other way in,
    as one block: they are enabled together and each goes into the update
    set (strictness: an undef argument names no location).  The reads of
    each, and the probes of locations sure to be defined, are charged once
    for the block.  Each insert is checked for a clash, and the first is kept
    as one record: its `ClashInfo`, probes, reads and update-set size then.
    Later assignments may still insert, but a location keeps its first value.
    The block ends before its jump to the last assignment's successor."""
    j = k + 1
    while j < end and entries[j] == 1 and type(code[j]) is CAssign and code[j - 1].next == j:
        j += 1
    lines = [f"enabled.append(A{k})" if j == k + 1 else
             f"enabled += ({''.join(f'A{i}, ' for i in range(k, j))})"]
    reads = probes = Ops()  # the block's constant charges so far
    for i in range(k, j):
        a = code[i]
        name = repr(a.sym.name)
        value = "None" if a.rhs_slot == UNDEF_SLOT else f"values[{a.rhs_slot}]"
        reads += cost.ASSIGN_READ * (len(a.arg_slots) + 1)
        pad, key = "", f"({name}, ())"
        defined = _defined(a.arg_slots, sure, "values")
        if defined:
            lines += [f"if {defined}:", f"    {_adds(cost.LOCATION_PROBE)}"]
            pad = "    "
        else:
            probes += cost.LOCATION_PROBE
        if a.arg_slots:
            lines.append(f"{pad}key = ({name}, ({''.join(f'values[{s}], ' for s in a.arg_slots)}))")
            key = "key"
        lines += [
            f"{pad}if updates.setdefault({key}, v := {value}) != v and clash is None:",
            f"{pad}    clash = (ClashInfo(*{key}), p + {probes.probe}, r + {reads.read},"
            " len(updates))",
        ]
    return j, [*lines, _adds(reads), *([_adds(probes)] if any(probes) else [])]


def _branch_pieces(flow, sure) -> tuple[int, list[tuple[int, list[str]]]]:
    """One branch of `rules`, from its `_flow`: the compares it charges on
    every path, and its blocks as pieces of bounded size, each with the
    instruction after it.  Each block is a run of tests, a static jump or a
    run of assignments; it runs when `pc` names it, and unguarded when no
    jump passes over it.  An unguarded block's constant compares are
    charged with the branch's, so an unguarded static jump is no line at
    all; and a block does not set `pc` to the next block when that one is
    unguarded, since nothing reads it."""
    code, guarded, entries = flow
    n = len(code)
    charge, pieces, k = Ops(), [], 0  # the entry is always reached
    while not pieces or k < n:
        end, body = min(n, k + _PIECE), []
        while k < end and len(body) < _PIECE_LINES:
            ins, goto = code[k], None
            if type(ins) is CAssign:
                j, block = _assign_block(code, k, end, entries, sure)
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


def _rules_source(code, sure) -> list[list[str]]:
    """`rules(values)`: the jumping code as straight-line code over a
    program counter `pc`, returning (enabled assignments, update set, clash
    record or None, compares, probes, reads).  With a dispatch slot, it
    reads that slot once and runs one branch per constant it may hold, or
    the branch for none of them, each the code folded under that fact;
    without one, or when the branches would grow too big, the one branch is
    the code folded under no fact.  The dispatch is a flat run of `if`s,
    each branch returning; once the entry function holds _PIECE_LINES
    lines, a branch is called as pieces even if it has one."""
    def size(branch) -> int:
        return sum(len(body) for _, body in branch[1])

    branches = [("", _branch_pieces(_flow(code, sure), sure))]
    dispatch = _dispatch(code, sure)
    if dispatch and len(dispatch[1]) <= _DISPATCH_MAX:
        d, consts = dispatch
        found, budget = [], _DISPATCH_GROWTH * size(branches[0][1])
        for fact in [*consts, tuple(consts)]:
            found.append(_branch_pieces(_flow(code, sure, d, fact), sure))
            budget -= size(found[-1]) + 1
            if budget < 0:
                break
        else:
            branches = [(f"d == values[{c}]", b) for c, b in zip(consts, found)]
            branches.append(("", found[-1]))
    entry = [
        "def rules(values):",
        "    enabled = []",
        "    updates = {}",
        "    pc = r = p = 0",
        "    clash = None",
    ]
    if len(branches) > 1:
        entry.append(f"    d = values[{d}]")
    state, out = "pc, c, r, p, clash", []
    for cond, (charge, pieces) in branches:
        inline = len(pieces) == 1 and len(entry) < _PIECE_LINES
        bodies = [body if inline else [f"if pc >= {end}:", f"    return {state}", *body]
                  for end, body in pieces]
        lines = [f"c = {charge.compare}",
                 *_run_pieces("_rules", "values, enabled, updates", state, bodies, out, inline),
                 "return enabled, updates, clash, c, p, r"]
        entry += [f"    if {cond}:", *_indent(lines, "        ")] if cond else _indent(lines)
    return [entry, *out]


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
# which it sums from zero again (a flush), and at its end.
_FLUSH = "meter.charge(probe=p, read=r, compare=c, write=w); p = r = c = w = 0"


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
        # Only the seed flags it, for an update of its one location.
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
    return [pad + line for line in lines]


def _dirty_seed(slots) -> list[str]:
    """The lines that flag, as `dirty`, the slots a fast-engine transition
    recomputes before propagation: the dynamic slots of every updated
    symbol.  Every other slot, an oracle application included, is flagged
    only by a child whose value changed.  A probe per update-set key in SEED
    (per dynamic symbol name, its first slot) flags that slot; then each
    symbol with more slots flags the rest along with its first, as
    constants.  Before the pass only the seed flags slots, so a first slot
    flagged means its symbol was updated."""
    lines = [f"dirty = [False] * {len(slots)}", _adds(cost.SEED_PROBE, "len(updates)")]
    found = _dyn_slots(slots)
    if found:
        lines += [
            "for name, _ in updates:",
            "    i = SEED.get(name)",
            "    if i is not None and not dirty[i]:",
            "        dirty[i] = True",
            f"        {_adds(cost.FLAG_WRITE)}",
        ]
    for first, *rest in found.values():
        if rest:
            lines += [
                f"if dirty[{first}]:",
                f"    {''.join(f'dirty[{i}] = ' for i in rest)}True",
                f"    {_adds(cost.FLAG_WRITE * len(rest))}",
            ]
    return lines


def _pass_source(name: str, slots, parents, sure, dirty: bool) -> list[list[str]]:
    """The slot pass NAME (see the module docstring): `slots_all` computes
    every slot small to big; `slots_dirty` runs the dirty seed, then
    recomputes each flagged slot small to big, a slot whose value changed
    flagging its parents.  It reads the meter, `_intern` and the index an
    intern hit probes once per pass, so that a wrapper put on `_intern`
    later sees every miss, and a long pass hands them to its pieces with the
    sums.  The last charge runs once per pass, so it spells out
    `CostMeter.charge` on the meter's counters."""
    top = [*_dirty_seed(slots), "new = list(values)"] if dirty else [f"new = [None] * {len(slots)}"]
    params = f"ctx, new, updates, store, {'dirty, ' if dirty else ''}meter, intern, index"
    pieces, out = _slot_pieces(slots, parents, sure, dirty), []
    lines = ["tangle = ctx.core.tangle", "meter = tangle.meter", *top,
             "intern = tangle._intern", "index = tangle._index",
             *_run_pieces(f"_{name}", params, "p, r, c, w", pieces, out, len(pieces) == 1),
             "if meter.enabled:",
             "    meter.probe += p; meter.read += r; meter.compare += c; meter.write += w"]
    head = f"def {name}(ctx, values, updates, store, p, r, c, w):"
    return [[head, *_indent([*lines, "return new"])], *out]
