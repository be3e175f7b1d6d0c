"""The plan: a program compiled once, and the Python functions generated for it.

`build_plan` is the one place a plan is made.  It lists the program's
critical terms (`syntax.critical_terms`) as `Slot`s, compiles the rules into
jumping code, a tuple of `Test` atoms (an id comparison that jumps to one of
two targets) and `CAssign` assignments (each naming its successor), builds
the oracles' plans, and takes its growth constants from the terms' compact
sizes.  `generate` turns the code and the slots into three functions, so a
transition runs straight-line code instead of interpreting the plan's data;
the engine only runs them:

* `rules(values)` runs the jumping code and returns the enabled assignments,
  the update set (or the first clash) and the compares, probes and reads it
  charged.  Every jump goes forward, so the code runs top to bottom over a
  program counter; a run of tests that short-circuits as one `and` or `or`
  chain is one expression, and assignments that follow one another are one
  block with its read and probe counts folded into constants.
* `slots_all(ctx, updates, store)` computes every slot (initialization and
  the reference engine); `slots_dirty(ctx, values, updates, store, dirty)`
  recomputes the flagged ones (the fast engine).  Each slot is an unrolled
  block: its children, the strictness test, then an intern, a dynamic read or
  an oracle call, then, with dirty flags, the flagging of its parents.

They charge the operations of the cost model (see the README) under the one
batching rule, which the engine's own routines keep too: a routine adds up
its operations in locals and puts them on the meter at once, and never across
an oracle call.  A nested run reads the meter when it records a point of the
series, and unit cost mode switches the meter off for the call, so a charge
carried past it would land in the wrong record or be dropped.  So the slot
passes charge what they have summed before every oracle call and at the end
of each piece, and `rules` returns its sums for the step to charge.  The
generated code refers to no module: it calls the store's `intern` and the run
context's `invoke` (an oracle call: memo probe, then a nested run) through
their attributes at every call, so wrappers put on them later see every call.

The code objects are cached by plan structure, the (jumping code, slots,
parents) tuples, so a plan of a structure seen before compiles nothing.  Each
plan binds them to its own symbols and assignments, so the store's
vocabulary check passes them on identity, and the cache keeps no plan,
program or store alive.  A long plan is generated as pieces of bounded size,
called in order, since compiling a function costs time and memory in
proportion to its size; and no nesting grows with the program, so Python's
limits on indentation and parentheses are never met.  Each plan's source is
registered with `linecache` as `<esmtangle plan NAME>`, so tracebacks,
profilers and debuggers show the generated lines.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass, field
from itertools import count
from types import CodeType, FunctionType
from typing import Callable, NamedTuple, Sequence

from .syntax import Assign, CriticalTerms, GAnd, GAtom, GNot, Program, Stmt, critical_terms
from .tangle import NodeId
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


class Code(tuple):
    """Jumping code: a tuple of `Test` and `CAssign`, entry at 0.  `run` is
    the function generated from it (see `_rules_source`)."""

    run: Callable


@dataclass(frozen=True)
class ClashInfo:
    symbol: str
    args: tuple[NodeId, ...]

    def __str__(self):
        inner = ",".join(str(a.index) for a in self.args)
        return f"{self.symbol}({inner})"


@dataclass
class ExecPlan:
    """A program compiled against its ordered tracked-term list."""

    program: Program
    criticals: CriticalTerms
    slots: tuple[Slot, ...]
    parents: tuple[tuple[int, ...], ...]  # per slot, the slots taking it as a child
    dyn_slots: dict[str, tuple[int, ...]]  # per dynamic symbol name, its slots
    oracle_slots: tuple[int, ...]
    code: Code  # the rules as jumping code, entry 0
    z_slot: int
    oracle_plans: dict[str, ExecPlan]
    c_program: int
    init_weight: int  # growth headroom of this plan's own initialization
    # The generated slot passes; `code.run` runs the rules.
    slots_all: Callable = field(repr=False, compare=False)
    slots_dirty: Callable = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.slots)


# --- The plan ------------------------------------------------------------------


def _compile_rules(rules: Sequence[Stmt], pos) -> Code:
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
    return Code(
        Test(i.lhs, i.rhs, last - i.then, last - i.orelse) if type(i) is Test
        else CAssign(i.sym, i.arg_slots, i.rhs_slot, last - i.next)
        for i in reversed(out)
    )


_SLOT_KINDS = {KIND_CONSTRUCTOR: SLOT_CONS, KIND_DYNAMIC: SLOT_DYN, KIND_ORACLE: SLOT_ORACLE}


def build_plan(program: Program) -> ExecPlan:
    ct = critical_terms(program)
    pos, sizes = ct.position, ct.sizes

    slots = []
    parents: list[list[int]] = [[] for _ in ct.terms]
    by_symbol: dict[str, list[int]] = {}
    for i, t in enumerate(ct.terms):
        child_slots = tuple(pos[a] for a in t.args)
        slots.append(Slot(_SLOT_KINDS[t.head.kind], t.head, child_slots))
        for c in set(child_slots):
            parents[c].append(i)
        if t.head.kind == KIND_DYNAMIC:
            by_symbol.setdefault(t.head.name, []).append(i)

    oracle_plans = {o.symbol.name: build_plan(o.body) for o in program.oracles}
    code = _compile_rules(program.rules, pos)

    # Growth constant: the sum of right-hand-side compact sizes bounds what a
    # transition can intern; every assignment appears once in the code.  Each
    # oracle adds the headroom of its own nested initialization and
    # transitions (a per-record bound, hence the max).
    c_program = sum(
        sizes[i.rhs_slot] for i in code if type(i) is CAssign and i.rhs_slot != UNDEF_SLOT
    )
    for oplan in oracle_plans.values():
        c_program += max(oplan.c_program, oplan.init_weight)

    init_weight = sum(sizes)
    for a in program.init:
        init_weight += sum(compact_size(arg) for arg in a.head_args)
        init_weight += 0 if a.rhs is None else compact_size(a.rhs)

    slots = tuple(slots)
    parents = tuple(tuple(p) for p in parents)
    fns = generate(program.name, code, slots, parents)
    code.run = fns["rules"]
    return ExecPlan(
        program=program,
        criticals=ct,
        slots=slots,
        parents=parents,
        dyn_slots={name: tuple(found) for name, found in by_symbol.items()},
        oracle_slots=tuple(i for i, s in enumerate(slots) if s.kind == SLOT_ORACLE),
        code=code,
        z_slot=pos[Term(program.output)],
        oracle_plans=oracle_plans,
        c_program=c_program,
        init_weight=init_weight,
        slots_all=fns["slots_all"],
        slots_dirty=fns["slots_dirty"],
    )


# --- Generation ------------------------------------------------------------------

# Compiling a function costs time and memory in proportion to its size, so a
# plan is generated as pieces of at most _PIECE instructions (or slots) and
# about _PIECE_LINES lines, which one entry function calls in order.
_PIECE = 256
_PIECE_LINES = 200

# (jumping code, slots, parents) -> the code objects generated for them.  Only
# code objects: each plan binds them to its own symbols and assignments, so
# the cache keeps no plan, program or store alive.  The oldest entry goes
# when it is full.
_compiled: dict[tuple, tuple[CodeType, ...]] = {}
_COMPILED_MAX = 256
_file_serial = count(2)  # tells apart two structures generated for one name


def generate(name: str, code: Code, slots, parents) -> dict[str, Callable]:
    """The functions generated for a plan, by name, bound to the clash record
    and to the plan's constants: its assignments as `A<index>`, the symbols of
    its constructor slots as `S<index>`.  Code objects come from the cache
    when a plan of the same structure was generated before."""
    key = (tuple(code), slots, parents)
    codes = _compiled.get(key)
    if codes is None:
        if len(_compiled) >= _COMPILED_MAX:
            linecache.cache.pop(_compiled.pop(next(iter(_compiled)))[0].co_filename, None)
        codes = _compiled[key] = _compile(name, [
            *_rules_source(code),
            *_slots_source(slots, parents, dirty=False),
            *_slots_source(slots, parents, dirty=True),
        ])
    ns = {"ClashInfo": ClashInfo}
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


def _atom(lhs: int, rhs: int) -> str:
    """A guard atom on `values`: a literal undef equals only undef, and two
    terms are equal only when both are defined and have one id."""
    if lhs == rhs:
        return "True" if lhs == UNDEF_SLOT else f"values[{lhs}] is not None"
    if UNDEF_SLOT in (lhs, rhs):
        return f"values[{max(lhs, rhs)}] is None"
    return f"values[{lhs}] == values[{rhs}] is not None"


def _test_run(code, k: int, end: int, entries) -> tuple[int, list[str]]:
    """The run of tests from k that short-circuits as one `or` (or `and`)
    chain, as one block.  The run grows while the last test falls through to
    the next one on failure (on success), the next one jumps where the run
    does on success (on failure), and nothing else jumps into it.  Each test
    evaluated charges one compare: the block finds the position of the first
    test that holds (fails), which is how many were evaluated, and charges
    them all when there is none.  Values do not change while the rules run,
    so a test that repeats an earlier one of its run fails (holds) wherever
    it is reached and is left out of the search."""
    first = code[k]
    then, orelse, op = first.then, first.orelse, None
    j = k + 1
    while j < end and entries[j] == 1 and type(code[j]) is Test:
        nxt = code[j]
        if op != "and" and orelse == j and nxt.then == then:
            op, orelse = "or", nxt.orelse
        elif op != "or" and then == j and nxt.orelse == orelse:
            op, then = "and", nxt.then
        else:
            break
        j += 1
    if op is None:
        return j, ["c += 1", f"pc = {then} if {_atom(first.lhs, first.rhs)} else {orelse}"]
    neg = "not " if op == "and" else ""
    seen, found = set(), []
    for n, t in enumerate(code[k:j], 1):
        if (atom := _atom(t.lhs, t.rhs)) not in seen:
            seen.add(atom)
            found.append(f"{neg}{atom} and {n}")
    exits = (then, orelse) if op == "or" else (orelse, then)
    return j, [f"k = {' or '.join(found)}", f"c += k or {j - k}", "pc = {} if k else {}".format(*exits)]


def _assign_block(code, k: int, end: int, entries, fresh) -> tuple[int, list[str]]:
    """The assignments from k that follow one another with no other way in,
    as one block: they are enabled together and each goes into the update
    set (strictness: an undef argument names no location).  Each reads its
    arguments and its value, charged once for the block, and a defined
    location costs one probe.  A location whose symbol no earlier assignment
    writes (`fresh`) cannot be in the set yet; any other is checked for a
    clash, and the first clash keeps the update set and the charges as they
    stood then.  Later assignments are still enabled and may still insert,
    which nothing reads."""
    j = k + 1
    while j < end and entries[j] == 1 and type(code[j]) is CAssign and code[j - 1].next == j:
        j += 1
    lines = [f"enabled.append(A{k})" if j == k + 1 else
             f"enabled += ({''.join(f'A{i}, ' for i in range(k, j))})"]
    reads = probes = 0  # the block's constant charges so far
    for i in range(k, j):
        a = code[i]
        name = repr(a.sym.name)
        value = "None" if a.rhs_slot == UNDEF_SLOT else f"values[{a.rhs_slot}]"
        reads += len(a.arg_slots) + 1
        pad, key = "", f"({name}, ())"
        if a.arg_slots:
            lines += [f"t = ({''.join(f'values[{s}], ' for s in a.arg_slots)})", "if None not in t:",
                      "    p += 1"]
            pad, key = "    ", f"({name}, t)"
        else:
            probes += 1
        if fresh[i]:
            lines.append(f"{pad}updates[{key}] = {value}")
            continue
        if a.arg_slots:
            lines.append(f"{pad}key = {key}")
            key = "key"
        lines += [
            f"{pad}if updates.setdefault({key}, v := {value}) != v and clash is None:",
            f"{pad}    clash = (ClashInfo(*{key}), p + {probes}, r + {reads}, dict(updates))",
        ]
    lines += [f"r += {reads}"] + ([f"p += {probes}"] if probes else []) + [f"pc = {code[j - 1].next}"]
    return j, lines


def _rules_source(code: Code) -> list[list[str]]:
    """`rules(values)`: the jumping code as straight-line code over a
    program counter `pc`, returning (enabled assignments, update set, clash,
    compares, probes, reads).  Each block is a run of tests or of
    assignments; it runs when `pc` names it, and unguarded when no jump
    passes over it."""
    n = len(code)
    entries = [0] * (n + 1)  # jumps into each instruction
    guarded = []  # per instruction, whether a jump before it lands past it
    fresh = []  # per instruction, an assignment to a symbol no earlier one writes
    written: set[str] = set()
    reach = 0
    for k, ins in enumerate(code):
        guarded.append(reach > k)
        if type(ins) is CAssign:
            fresh.append(ins.sym.name not in written)
            written.add(ins.sym.name)
            targets = (ins.next,)
        else:
            fresh.append(False)
            targets = (ins.then, ins.orelse)
        for t in targets:
            entries[t] += 1
        reach = max(reach, *targets)
    pieces, k = [], 0
    while not pieces or k < n:
        end, body = min(n, k + _PIECE), []
        while k < end and len(body) < _PIECE_LINES:
            if type(code[k]) is CAssign:
                j, block = _assign_block(code, k, end, entries, fresh)
            else:
                j, block = _test_run(code, k, end, entries)
            if guarded[k]:
                body.append(f"    if pc == {k}:")
                body += [f"        {line}" for line in block]
            else:
                body += [f"    {line}" for line in block]
            k = j
        pieces.append((k, body))
    head = [
        "def rules(values):",
        "    enabled = []",
        "    updates = {}",
        "    pc = c = r = p = 0",
        "    clash = None",
    ]
    tail = [
        "    if clash is not None:",
        "        clash, p, r, updates = clash",
        "    return enabled, updates, clash, c, p, r",
    ]
    if len(pieces) == 1:
        return [head + pieces[0][1] + tail]
    state = "pc, c, r, p, clash"
    out = [head + [
        f"    {state} = _rules_{i}(values, enabled, updates, {state})"
        for i in range(len(pieces))
    ] + tail]
    for i, (end, body) in enumerate(pieces):
        out.append([
            f"def _rules_{i}(values, enabled, updates, {state}):",
            f"    if pc >= {end}:",
            f"        return {state}",
            *body,
            f"    return {state}",
        ])
    return out


def _slot_block(i: int, slot: Slot, parents, sure, dirty: bool) -> list[str]:
    """Recompute slot i: its children, the strictness test, then an intern,
    a dynamic read (the update set, else the location map) or an oracle call,
    whose summed charges are put on the meter first.  With dirty flags the
    value goes to `v`, and a changed value flags the slot's parents at one
    read per parent edge and one write per parent newly flagged."""
    kind, sym, kids = slot
    name = repr(sym.name)
    target = "v" if dirty else f"new[{i}]"
    lines, pad = [], ""
    if kids:
        lines.append(f"t = ({''.join(f'new[{c}], ' for c in kids)})")
    if not all(sure[c] for c in kids):
        if dirty:
            lines.append("v = None")
        lines.append("if None not in t:")
        pad = "    "
    args = "t" if kids else "()"
    if kind == SLOT_CONS:
        lines.append(f"{pad}{target} = intern(S{i}, {args})")
    elif kind == SLOT_ORACLE:
        lines += [
            f"{pad}meter.charge(probe=p, read=r, write=w)",
            f"{pad}p = r = w = 0",
            f"{pad}{target} = ctx.invoke({name}, {args})",
        ]
    else:
        lines += [
            f"{pad}key = ({name}, {args})",
            f"{pad}if key in updates:",
            f"{pad}    {target} = updates[key]",
            f"{pad}    p += 1",
            f"{pad}else:",
            f"{pad}    {target} = store.get(key)",
            f"{pad}    p += 2",
        ]
    if not dirty:
        return lines
    above = parents[i]
    if not above:
        return [f"if dirty[{i}]:", *(f"    {line}" for line in lines), f"    new[{i}] = v"]
    return [
        f"if dirty[{i}]:",
        *(f"    {line}" for line in lines),
        f"    if v != new[{i}]:",
        f"        new[{i}] = v",
        f"        r += {len(above)}",
        *(f"        if not dirty[{q}]: dirty[{q}] = True; w += 1" for q in above),
    ]


def _slots_source(slots, parents, dirty: bool) -> list[list[str]]:
    """`slots_all(ctx, updates, store)`, which computes every slot small to
    big, or `slots_dirty(ctx, values, updates, store, dirty)`, which
    recomputes the flagged ones and keeps the rest of `values`; both return
    the new values.  A slot whose subterms are all constructors never
    changes, so the dirty pass leaves it out (it is never flagged).  Charges
    are summed per piece and put on the meter before every oracle call and
    at the end of the piece."""
    sure: list[bool] = []  # the slot is a constructor term, never undef
    for kind, _, kids in slots:
        sure.append(kind == SLOT_CONS and all(sure[c] for c in kids))
    name = "slots_dirty" if dirty else "slots_all"
    pieces, i = [], 0
    while not pieces or i < len(slots):
        end, body = min(len(slots), i + _PIECE), []
        while i < end and len(body) < _PIECE_LINES:
            if not (dirty and sure[i]):
                body += [f"    {line}" for line in _slot_block(i, slots[i], parents, sure, dirty)]
            i += 1
        pieces.append(body)
    if dirty:
        head = [f"def {name}(ctx, values, updates, store, dirty):", "    new = list(values)"]
    else:
        head = [f"def {name}(ctx, updates, store):", f"    new = [None] * {len(slots)}"]
    head += ["    tangle = ctx.core.tangle", "    meter = tangle.meter", "    intern = tangle.intern"]
    flags = "dirty" if dirty else "None"
    start, end = ["    p = r = w = 0"], ["    meter.charge(probe=p, read=r, write=w)"]
    if len(pieces) == 1:
        return [head + start + pieces[0] + end + ["    return new"]]
    out = [head + [
        f"    _{name}_{i}(ctx, new, updates, store, {flags}, intern, meter)"
        for i in range(len(pieces))
    ] + ["    return new"]]
    for i, body in enumerate(pieces):
        out.append([f"def _{name}_{i}(ctx, new, updates, store, dirty, intern, meter):", *start, *body, *end])
    return out
