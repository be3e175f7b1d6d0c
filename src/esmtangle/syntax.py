"""The guarded-assignment program DSL: parsing, validation, critical terms.

Grammar (whitespace and newlines insignificant):

    program := vocab inputs output init? oracles? rules
    vocab   := "vocab" "{" "constructors" "{" sigs "}" "dynamic" "{" sigs "}" "}"
    sigs    := sig (";" sig)*            sig := IDENT "/" NAT
    inputs  := "inputs" "{" (IDENT ("," IDENT)*)? "}"
    output  := "output" "{" IDENT "}"
    init    := "init" "{" (assign ";")* "}"
    oracles := "oracles" "{" (IDENT "/" NAT "=" STRING ";")* "}"
    rules   := "rules" block             block := "{" stmt* "}"
    stmt    := assign | "if" guard "then" block ("else" block)?
    assign  := term ":=" (term | "undef")
    guard   := atom | "not" guard | guard ("and"|"or") guard | "(" guard ")"
    atom    := (term | "undef") "=" (term | "undef")

"not" binds tighter than "and", which binds tighter than "or"; both are
left-associative.  Keywords are reserved and cannot name symbols.  Oracle
bodies are separate program files, located relative to the host program.

One regex scan cuts the text into a flat list of token strings (see
`terms.TokenCursor`); the parser reads that list by index, and each parsing
function returns what it read with the index after it.  Token kinds are
read off a token's first character where the grammar needs them, and an
error's line and column are found by rescanning up to its token, so a
successful parse computes no positions.  The parser recurses on `(` (two
frames each), on `not` and on nested `if` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .terms import (
    END,
    KIND_CONSTRUCTOR,
    KIND_DYNAMIC,
    KIND_ORACLE,
    Symbol,
    Term,
    TokenCursor,
    Tokenizer,
    UNDEF_WORD,
    Vocabulary,
    distinct_subterms,
    format_term,
    is_ident,
    read_term,
    shared_term,
)

KEYWORDS = frozenset(
    [
        "vocab", "constructors", "dynamic", "inputs", "output", "init",
        "oracles", "rules", "if", "then", "else", "not", "and", "or", UNDEF_WORD,
    ]
)


# --- AST -------------------------------------------------------------------
# An rhs (or atom side) of None stands for the literal undef.


@dataclass(frozen=True)
class GAtom:
    lhs: Term | None
    rhs: Term | None


@dataclass(frozen=True)
class GNot:
    sub: "Guard"


@dataclass(frozen=True)
class GAnd:
    left: "Guard"
    right: "Guard"


@dataclass(frozen=True)
class GOr:
    left: "Guard"
    right: "Guard"


Guard = GAtom | GNot | GAnd | GOr


@dataclass(frozen=True)
class Assign:
    head: Symbol
    head_args: tuple[Term, ...]
    rhs: Term | None

    def head_term(self) -> Term:
        return Term(self.head, self.head_args)


@dataclass(frozen=True)
class Cond:
    guard: Guard
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


Stmt = Assign | Cond
Block = tuple[Stmt, ...]


@dataclass(frozen=True)
class OracleDef:
    symbol: Symbol  # kind == oracle
    path: str
    body: "Program"


@dataclass
class Program:
    vocab: Vocabulary
    inputs: tuple[Symbol, ...]
    output: Symbol
    init: tuple[Assign, ...]
    rules: tuple[Stmt, ...]
    oracles: tuple[OracleDef, ...] = ()
    name: str = "<program>"
    # Every term the parser read, one object per distinct term, keyed by head
    # and argument objects (see `TokenCursor.terms`).
    parsed: dict[tuple[Symbol, tuple[Term, ...]], Term] = field(
        default_factory=dict, compare=False, repr=False
    )

    def oracle(self, name: str) -> OracleDef | None:
        for o in self.oracles:
            if o.symbol.name == name:
                return o
        return None


@dataclass(frozen=True)
class CriticalTerms:
    """The program's terms and subterms, ordered small to big, with their
    compact sizes and their positions."""

    terms: tuple[Term, ...]
    sizes: tuple[int, ...] = field(compare=False)
    position: dict[Term, int] = field(compare=False)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


# --- Tokenizer ---------------------------------------------------------------

_TOKENS = Tokenizer(r'[A-Za-z_][A-Za-z0-9_]*|\d+|"[^"\n]*"|:=|[{}(),;/=]')


# --- Parser ------------------------------------------------------------------
# Each function reads the cursor's tokens from index i on and returns what it
# read with the index after it.


def _parse_sig(
    cur: TokenCursor, i: int, kind: str, names: dict[str, Symbol]
) -> tuple[Symbol, int]:
    toks = cur.toks
    name = toks[i]
    if not is_ident(name):
        cur.fail(f"expected a symbol name, found {name!r}", i)
    if name in KEYWORDS:
        cur.err(f"{name!r} is a reserved word", i)
    at = cur.expect(i + 1, "/")
    arity = toks[at]
    if not arity[0].isdecimal():  # \d, as the tokenizer reads it
        cur.fail(f"expected an arity, found {arity!r}", at)
    if name in names:
        cur.err(f"duplicate symbol {name!r}", i)
    sym = Symbol(name, int(arity), kind)
    names[name] = sym
    return sym, at + 1


def _parse_sig_block(cur: TokenCursor, i: int, kind: str, names: dict[str, Symbol]) -> int:
    toks = cur.toks
    i = cur.expect(i, "{")
    if toks[i] != "}":
        _, i = _parse_sig(cur, i, kind, names)
        while toks[i] == ";":
            i += 1
            if toks[i] == "}":
                break
            _, i = _parse_sig(cur, i, kind, names)
    return cur.expect(i, "}")


def _undeclared(cur: TokenCursor, name: str, i: int):
    if name in KEYWORDS:
        cur.err(f"{name!r} is a reserved word, not a term", i)
    cur.err(f"undeclared symbol {name!r}", i)


def _parse_term_or_undef(
    cur: TokenCursor, i: int, symbols: dict[str, Symbol]
) -> tuple[Term | None, int]:
    if cur.toks[i] == UNDEF_WORD:
        return None, i + 1
    return read_term(cur, i, symbols, _undeclared, "a term")


def _parse_atom(cur: TokenCursor, i: int, symbols: dict[str, Symbol]) -> tuple[GAtom, int]:
    lhs, i = _parse_term_or_undef(cur, i, symbols)
    rhs, i = _parse_term_or_undef(cur, cur.expect(i, "="), symbols)
    return GAtom(lhs, rhs), i


def _parse_guard_unit(cur: TokenCursor, i: int, symbols: dict[str, Symbol]) -> tuple[Guard, int]:
    tok = cur.toks[i]
    if tok == "not":
        g, i = _parse_guard_unit(cur, i + 1, symbols)
        return GNot(g), i
    if tok == "(":
        g, i = _parse_guard(cur, i + 1, symbols)
        return g, cur.expect(i, ")")
    return _parse_atom(cur, i, symbols)


def _parse_guard(cur: TokenCursor, i: int, symbols: dict[str, Symbol]) -> tuple[Guard, int]:
    # unit (("and" | "or") unit)* in one loop: `g` is the current `and` chain
    # and `left` the `or` chain before it, so precedence costs no call level.
    toks = cur.toks
    left = None
    g, i = _parse_guard_unit(cur, i, symbols)
    while (op := toks[i]) == "and" or op == "or":
        right, i = _parse_guard_unit(cur, i + 1, symbols)
        if op == "and":
            g = GAnd(g, right)
        else:
            left = g if left is None else GOr(left, g)
            g = right
    return (g if left is None else GOr(left, g)), i


def _parse_assign(cur: TokenCursor, i: int, symbols: dict[str, Symbol]) -> tuple[Assign, int]:
    start = i
    head_term, i = read_term(cur, i, symbols, _undeclared, "a term")
    if head_term.head.kind == KIND_CONSTRUCTOR:
        cur.err(f"cannot assign to constructor {head_term.head.name!r}", start)
    if head_term.head.kind == KIND_ORACLE:
        cur.err(f"cannot assign to oracle {head_term.head.name!r}", start)
    rhs, i = _parse_term_or_undef(cur, cur.expect(i, ":="), symbols)
    return Assign(head_term.head, head_term.args, rhs), i


def _parse_block(cur: TokenCursor, i: int, symbols: dict[str, Symbol]) -> tuple[Block, int]:
    """`{ stmt* }`, read from its `{`: an `if` reads each branch as a block,
    so each level of nesting costs one frame."""
    toks = cur.toks
    i = cur.expect(i, "{")
    block: list[Stmt] = []
    while toks[i] != "}":
        if toks[i] != "if":
            stmt, i = _parse_assign(cur, i, symbols)
        else:
            guard, i = _parse_guard(cur, i + 1, symbols)
            then, i = _parse_block(cur, cur.expect(i, "then"), symbols)
            orelse: Block = ()
            if toks[i] == "else":
                orelse, i = _parse_block(cur, i + 1, symbols)
            stmt = Cond(guard, then, orelse)
        block.append(stmt)
    return tuple(block), i + 1


def parse_program(
    text: str,
    *,
    base_dir: str | Path | None = None,
    name: str = "<program>",
    _stack: tuple[Path, ...] = (),
) -> Program:
    """Parse a program.  Oracle bodies are loaded from files relative to
    base_dir.  `_stack` holds the files being parsed, outermost first: an
    oracle body that resolves to one of them is a cycle."""
    cur = TokenCursor(text, _TOKENS)
    toks = cur.toks
    names: dict[str, Symbol] = {}

    i = cur.expect(cur.expect(cur.expect(0, "vocab"), "{"), "constructors")
    i = _parse_sig_block(cur, i, KIND_CONSTRUCTOR, names)
    i = _parse_sig_block(cur, cur.expect(i, "dynamic"), KIND_DYNAMIC, names)
    i = cur.expect(i, "}")
    vocab = Vocabulary(names.values())

    def lookup_dynamic(i: int, what: str) -> Symbol:
        ident = toks[i]
        if not is_ident(ident):
            cur.fail(f"expected an {what} name, found {ident!r}", i)
        sym = names.get(ident)
        if sym is None:
            cur.err(f"undeclared symbol {ident!r}", i)
        return sym

    i = cur.expect(cur.expect(i, "inputs"), "{")
    inputs: list[Symbol] = []
    if toks[i] != "}":
        inputs.append(lookup_dynamic(i, "input"))
        i += 1
        while toks[i] == ",":
            inputs.append(lookup_dynamic(i + 1, "input"))
            i += 2
    i = cur.expect(i, "}")

    i = cur.expect(cur.expect(i, "output"), "{")
    output = lookup_dynamic(i, "output")
    i = cur.expect(i + 1, "}")

    init: list[Assign] = []
    if toks[i] == "init":
        i = cur.expect(i + 1, "{")
        while toks[i] != "}":
            a, i = _parse_assign(cur, i, names)
            init.append(a)
            i = cur.expect(i, ";")
        i += 1

    oracles: list[OracleDef] = []
    if toks[i] == "oracles":
        # Resolved here, since most programs have no oracles.
        parsing = [str(p.resolve()) for p in _stack]
        i = cur.expect(i + 1, "{")
        while toks[i] != "}":
            sym, i = _parse_sig(cur, i, KIND_ORACLE, names)
            at = cur.expect(i, "=")
            quoted = toks[at]
            if quoted[0] != '"':
                cur.fail(f"expected a quoted path, found {quoted!r}", at)
            i = cur.expect(at + 1, ";")
            path = quoted[1:-1]
            if base_dir is None:
                cur.err(f"cannot load oracle {sym.name!r}: no base directory", at)
            full = Path(base_dir) / path
            if str(full.resolve()) in parsing:
                cur.err(f"oracle cycle through {path!r}", at)
            try:
                body = parse_program(
                    full.read_text(encoding="utf-8"),
                    base_dir=full.parent,
                    name=path,
                    _stack=_stack + (full,),
                )
            except (OSError, ValueError) as exc:  # TermSyntaxError, UnicodeDecodeError
                cur.err(f"cannot load oracle body {path!r}: {exc}", at)
            oracles.append(OracleDef(sym, path, body))
        i += 1

    rules, i = _parse_block(cur, cur.expect(i, "rules"), names)
    if toks[i] is not END:
        cur.err(f"unexpected {toks[i]!r} after rules", i)

    return Program(
        vocab=vocab,
        inputs=tuple(inputs),
        output=output,
        init=tuple(init),
        rules=rules,
        oracles=tuple(oracles),
        name=name,
        parsed=cur.terms,
    )


def parse_program_file(path: str | Path) -> Program:
    path = Path(path)
    return parse_program(
        path.read_text(encoding="utf-8"),
        base_dir=path.parent,
        name=path.name,
        _stack=(path,),
    )


# --- Validation ---------------------------------------------------------------


def _is_constructor_ground(t: Term) -> bool:
    return all(s.head.kind == KIND_CONSTRUCTOR for s in distinct_subterms(t))


def validate_program(p: Program) -> list[str]:
    """Structural diagnostics; an empty list means the program is well-formed."""
    diags: list[str] = []
    constructors = p.vocab.constructors
    if not constructors:
        diags.append("vocabulary has no constructors")
    elif not any(c.arity == 0 for c in constructors):
        diags.append("no nullary constructor: the domain of values is empty")

    for what, sym in [("input", s) for s in p.inputs] + [("output", p.output)]:
        if sym.kind != KIND_DYNAMIC:
            diags.append(f"{what} {sym.name!r} must be a dynamic symbol")
        if sym.arity != 0:
            diags.append(f"{what} {sym.name!r} must be nullary (arity {sym.arity})")
    for sym in dict.fromkeys(s for i, s in enumerate(p.inputs) if s in p.inputs[:i]):
        diags.append(f"duplicate input {sym.name!r}")

    for a in p.init:
        if a.head.kind != KIND_DYNAMIC:
            diags.append(f"init assigns to non-dynamic symbol {a.head.name!r}")
        for arg in a.head_args:
            if not _is_constructor_ground(arg):
                diags.append(
                    f"init location argument {format_term(arg)!r} is not a constructor term"
                )
        if a.rhs is None:
            diags.append(f"init value for {a.head.name!r} cannot be undef")
        elif not _is_constructor_ground(a.rhs):
            diags.append(
                f"init value {format_term(a.rhs)!r} is not a constructor term"
            )

    host_k = {(s.name, s.arity) for s in constructors}
    for o in p.oracles:
        body_k = {(s.name, s.arity) for s in o.body.vocab.constructors}
        if body_k != host_k:
            diags.append(
                f"oracle {o.symbol.name!r}: constructor mismatch with body {o.path!r}"
            )
        if len(o.body.inputs) != o.symbol.arity:
            diags.append(
                f"oracle {o.symbol.name!r}/{o.symbol.arity} body declares "
                f"{len(o.body.inputs)} inputs"
            )
        for d in validate_program(o.body):
            diags.append(f"oracle {o.symbol.name!r}: {d}")
    return diags


# --- Critical terms ------------------------------------------------------------


def program_terms(p: Program) -> list[Term]:
    """Terms of the program in textual order: inputs, output, then rules.

    The inputs, the output and assignment heads are built here; each is the
    parsed object of an equal term when the parser read one, so equal terms
    of a parsed program are one object."""
    shared = dict(p.parsed)  # a copy: the program's own table stays as parsed
    found = [shared_term(shared, sym, ()) for sym in p.inputs]
    found.append(shared_term(shared, p.output, ()))
    stack: list = list(reversed(p.rules))  # statements and guards, next on top
    while stack:
        node = stack.pop()
        if isinstance(node, Assign):
            found.append(shared_term(shared, node.head, node.head_args))
            if node.rhs is not None:
                found.append(node.rhs)
        elif isinstance(node, Cond):
            stack.extend(reversed(node.orelse))
            stack.extend(reversed(node.then))
            stack.append(node.guard)
        elif isinstance(node, GAtom):
            found.extend(t for t in (node.lhs, node.rhs) if t is not None)
        elif isinstance(node, GNot):
            stack.append(node.sub)
        else:
            stack.extend((node.right, node.left))
    return found


def critical_terms(p: Program) -> CriticalTerms:
    """The subterm-closed, deduplicated term list, ordered small to big.

    Order is ascending compact size with ties broken by first textual
    occurrence (subterms count as occurring inside their first host term,
    innermost first).  Proper subterms are strictly smaller, so the order is
    automatically subterm-closed.  A term collected before is skipped, since
    its subterms are in too.  `occurrence` lists children before parents, so
    one pass over it gives every term its distinct subterms, as a bit set
    over their occurrence numbers, and so its compact size.
    """
    occurrence: dict[Term, int] = {}
    for t in program_terms(p):
        if t not in occurrence:
            for sub in distinct_subterms(t):
                occurrence.setdefault(sub, len(occurrence))
    below: dict[Term, int] = {}
    for t, k in occurrence.items():
        bits = 1 << k
        for a in t.args:
            bits |= below[a]
        below[t] = bits
    size = {t: bits.bit_count() for t, bits in below.items()}
    ordered = sorted(occurrence, key=lambda t: (size[t], occurrence[t]))
    return CriticalTerms(
        tuple(ordered), tuple(map(size.__getitem__, ordered)),
        {t: i for i, t in enumerate(ordered)},
    )


# --- Canonical printing ---------------------------------------------------------


# An operand that binds less tightly than its slot needs is parenthesized: the
# operator's own level on the left, one more on the right, `not`'s under `not`.
_BINDS = {GOr: 0, GAnd: 1, GNot: 2, GAtom: 3}


def _format_guard(g: Guard, need: int = 0) -> str:
    binds = _BINDS[type(g)]
    if isinstance(g, GAtom):
        text = " = ".join(UNDEF_WORD if t is None else format_term(t) for t in (g.lhs, g.rhs))
    elif isinstance(g, GNot):
        text = f"not {_format_guard(g.sub, binds)}"
    else:
        op = "and" if binds else "or"
        text = f"{_format_guard(g.left, binds)} {op} {_format_guard(g.right, binds + 1)}"
    return f"({text})" if binds < need else text


def _format_assign(a: Assign) -> str:
    head = format_term(a.head_term())
    rhs = UNDEF_WORD if a.rhs is None else format_term(a.rhs)
    return f"{head} := {rhs}"


def _format_block(block: Block, indent: str) -> list[str]:
    lines = []
    for stmt in block:
        if isinstance(stmt, Assign):
            lines.append(f"{indent}{_format_assign(stmt)}")
            continue
        lines.append(f"{indent}if {_format_guard(stmt.guard)} then {{")
        lines += _format_block(stmt.then, indent + "  ")
        if stmt.orelse:
            lines.append(f"{indent}}} else {{")
            lines += _format_block(stmt.orelse, indent + "  ")
        lines.append(f"{indent}}}")
    return lines


def format_program(p: Program) -> str:
    """Canonical text form; parsing it back yields an equal program."""
    lines = ["vocab {"]
    cons = "; ".join(f"{s.name}/{s.arity}" for s in p.vocab.constructors)
    dyn = "; ".join(f"{s.name}/{s.arity}" for s in p.vocab.dynamics)
    lines.append(f"  constructors {{ {cons} }}")
    lines.append(f"  dynamic {{ {dyn} }}")
    lines.append("}")
    lines.append("inputs { " + ", ".join(s.name for s in p.inputs) + " }")
    lines.append("output { " + p.output.name + " }")
    if p.init:
        lines.append("init {")
        for a in p.init:
            lines.append(f"  {_format_assign(a)};")
        lines.append("}")
    if p.oracles:
        lines.append("oracles {")
        for o in p.oracles:
            lines.append(f'  {o.symbol.name}/{o.symbol.arity} = "{o.path}";')
        lines.append("}")
    lines += ["rules {", *_format_block(p.rules, "  "), "}"]
    return "\n".join(lines) + "\n"
