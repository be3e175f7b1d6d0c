"""Ground terms over a finite vocabulary split into constructors and dynamic symbols.

Terms are immutable trees (possibly with shared sub-objects, which is invisible
to the value semantics).  Every walk over terms is iterative, so chains tens of
thousands of symbols deep are fine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

KIND_CONSTRUCTOR = "constructor"
KIND_DYNAMIC = "dynamic"
KIND_ORACLE = "oracle"

_KINDS = (KIND_CONSTRUCTOR, KIND_DYNAMIC, KIND_ORACLE)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Reserved word denoting the absent value in program rules; never a symbol name.
UNDEF_WORD = "undef"


class TermSyntaxError(ValueError):
    """Raised by parse_term / parse_program with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Symbol:
    """A vocabulary entry: fixed name, fixed arity, fixed kind.  Its hash, the
    hash of (name, arity, kind) as a frozen dataclass has it, is computed once
    and kept, since every `Term` hashes its head."""

    name: str
    arity: int
    kind: str = KIND_CONSTRUCTOR

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid symbol name {self.name!r}")
        if self.name == UNDEF_WORD:
            raise ValueError(f"{UNDEF_WORD!r} is reserved and cannot name a symbol")
        if self.arity < 0:
            raise ValueError(f"symbol {self.name}: negative arity")
        if self.kind not in _KINDS:
            raise ValueError(f"symbol {self.name}: unknown kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.arity, self.kind)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.name}/{self.arity}"


class Vocabulary:
    """A finite set of symbols with unique names.

    The constructor part freely generates the domain of values; dynamic symbols
    carry mutable state.  (Whether the constructor part is non-empty is checked
    by program validation, not here, so diagnostics stay collectable.)
    """

    def __init__(self, symbols: Iterable[Symbol]):
        self._by_name: dict[str, Symbol] = {}
        for sym in symbols:
            if sym.name in self._by_name:
                raise ValueError(f"duplicate symbol name {sym.name!r}")
            self._by_name[sym.name] = sym

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(self._by_name.values())

    @property
    def constructors(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self._by_name.values() if s.kind == KIND_CONSTRUCTOR)

    @property
    def dynamics(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self._by_name.values() if s.kind == KIND_DYNAMIC)

    @property
    def max_arity(self) -> int:
        return max((s.arity for s in self._by_name.values()), default=0)

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def __contains__(self, sym: Symbol) -> bool:
        return self._by_name.get(sym.name) is sym or self._by_name.get(sym.name) == sym

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other):
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._by_name == other._by_name

    def __hash__(self):
        return hash(frozenset(self._by_name.values()))

    def __repr__(self):
        return f"Vocabulary({', '.join(map(repr, self._by_name.values()))})"


_arg_hash = attrgetter("_hash")


class Term:
    """A ground, arity-respecting term.  Structural equality, cached hash.

    Equality and hashing never recurse through Python's call stack, so deep
    chains and heavily shared dags are safe to compare and to store in sets.
    """

    __slots__ = ("head", "args", "_hash")

    def __init__(self, head: Symbol, args: Iterable["Term"] = ()):
        args = tuple(args)
        if len(args) != head.arity:
            raise ValueError(
                f"symbol {head.name}/{head.arity} applied to {len(args)} arguments"
            )
        self.head = head
        self.args = args
        self._hash = hash((head._hash, *map(_arg_hash, args)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        seen: set[tuple[int, int]] = set()
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.head != b.head:
                return False
            key = (id(a), id(b))
            if key in seen:
                continue
            seen.add(key)
            stack.extend(zip(a.args, b.args))
        return True

    def __repr__(self):
        text = format_term(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"Term({text})"


def distinct_subterms(t: Term) -> list[Term]:
    """All distinct subterms of t, children strictly before parents."""
    order: list[Term] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            order.append(node)
        else:
            stack.append((node, True))
            for a in node.args:
                if a not in seen:
                    stack.append((a, False))
    return order


def compact_size(t: Term) -> int:
    """Number of distinct subterms of t (the compact size measure)."""
    return len(distinct_subterms(t))


def symbol_count(t: Term) -> int:
    """Total symbol occurrences in t read as a tree.

    Computed by dynamic programming over distinct subterms, so terms whose
    tree form is exponentially larger than their dag form still count fast.
    """
    counts: dict[Term, int] = {}
    for node in distinct_subterms(t):
        counts[node] = 1 + sum(counts[a] for a in node.args)
    return counts[t]


# ---------------------------------------------------------------------------
# Concrete syntax: term := IDENT | IDENT "(" term ("," term)* ")"


_TERM_TOKEN_RE = re.compile(
    r"\s+|(?P<ID>[A-Za-z_][A-Za-z0-9_]*)|(?P<PUNCT>[(),])|(?P<BAD>[\s\S])"
)


class TokenCursor:
    """A token stream over `text`, cut by `token_re` in one scan, with errors
    placed at a 1-based line and column.  The pattern's unnamed matches, such
    as whitespace, are skipped, and its last alternative, BAD, takes one
    character that no token starts with, which is an error.  `terms` holds
    every term read from it, one object per distinct term, keyed by head and
    argument objects."""

    def __init__(self, text: str, token_re: re.Pattern = _TERM_TOKEN_RE):
        self.text = text
        self.terms: dict[tuple[Symbol, tuple[Term, ...]], Term] = {}
        self.tokens: list[tuple[str, str, int]] = [
            (m.lastgroup, m[0], m.start()) for m in token_re.finditer(text) if m.lastgroup
        ]
        for kind, value, pos in self.tokens:
            if kind == "BAD":
                self.err(f"unexpected character {value!r}", pos)
        self.i = 0

    def pos(self) -> int:
        """Source offset of the next token, or the end of the text."""
        return self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)

    def err(self, msg: str, pos: int | None = None):
        if pos is None:
            pos = self.pos()
        line = self.text.count("\n", 0, pos) + 1
        raise TermSyntaxError(msg, line, pos - self.text.rfind("\n", 0, pos))

    def peek(self) -> str | None:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else None

    def next(self, expect: str | None = None) -> tuple[str, str, int]:
        if self.i >= len(self.tokens):
            self.err("unexpected end of input")
        kind, value, pos = self.tokens[self.i]
        if expect is not None and value != expect:
            self.err(f"expected {expect!r}, found {value!r}", pos)
        self.i += 1
        return kind, value, pos

    def take(self, value: str) -> bool:
        if self.peek() == value:
            self.i += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def ident(self, what: str) -> tuple[str, int]:
        kind, value, pos = self.next()
        if kind != "ID":
            self.err(f"expected {what}, found {value!r}", pos)
        return value, pos


def shared_term(table: dict, head: Symbol, args: tuple[Term, ...]) -> Term:
    """The term head(args) from `table`, which is keyed by head and argument
    objects, made and added when it is missing.  When the arguments come from
    the table too, equal terms are one object."""
    key = (head, args)
    t = table.get(key)
    if t is None:
        t = table[key] = Term(head, args)
    return t


def read_term(cur: TokenCursor, resolve, what: str) -> Term:
    """Read one term from the cursor; `resolve(name, pos)` maps a name to its
    symbol or raises, and `what` names a term in the message for a missing one.

    Iterative shift-reduce over the one-production grammar, so nesting depth
    is not bounded by Python's call stack.  Equal terms read from one cursor
    are one object (see `TokenCursor.terms`), so dictionaries keyed by them
    find each other by identity, without a structural comparison.
    """
    stack: list[tuple[Symbol, int, list[Term]]] = []
    while True:
        name, pos = cur.ident(what)
        sym = resolve(name, pos)
        if cur.take("("):
            stack.append((sym, pos, []))
            continue
        if sym.arity != 0:
            cur.err(f"symbol {sym.name}/{sym.arity} used without arguments", pos)
        node = shared_term(cur.terms, sym, ())
        while True:
            if not stack:
                return node
            head, head_pos, children = stack[-1]
            children.append(node)
            _, value, pos = cur.next()
            if value == ",":
                break
            if value == ")":
                stack.pop()
                if len(children) != head.arity:
                    cur.err(
                        f"symbol {head.name}/{head.arity} applied to "
                        f"{len(children)} arguments",
                        head_pos,
                    )
                node = shared_term(cur.terms, head, tuple(children))
                continue
            cur.err(f"expected ',' or ')', found {value!r}", pos)


def parse_term(text: str, vocab: Vocabulary) -> Term:
    """Parse a term; every symbol must be declared in vocab with matching arity."""
    cur = TokenCursor(text)

    def resolve(name: str, pos: int) -> Symbol:
        if name == UNDEF_WORD:
            cur.err(f"{UNDEF_WORD!r} is not a term", pos)
        sym = vocab.get(name)
        if sym is None:
            cur.err(f"unknown symbol {name!r}", pos)
        return sym

    term = read_term(cur, resolve, "a symbol name")
    if not cur.at_end():
        cur.err(f"unexpected {cur.peek()!r} after term")
    return term


def format_term(t: Term) -> str:
    """Canonical printing: name(args) with commas, no whitespace."""
    out: list[str] = []
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        assert isinstance(item, Term)
        out.append(item.head.name)
        if item.args:
            out.append("(")
            parts: list[object] = []
            for j, a in enumerate(item.args):
                if j:
                    parts.append(",")
                parts.append(a)
            parts.append(")")
            stack.extend(reversed(parts))
    return "".join(out)


# ---------------------------------------------------------------------------
# Binary numeral codec: positive integers over eps/0, d0/1, d1/1.
#
# The represented number is read by prepending the digit 1 to the digit string
# of the term, outermost symbol first.  So eps is 1, d0(eps) is "10" = 2, and
# d0(d1(eps)) is "101" = 5.

EPS = Symbol("eps", 0, KIND_CONSTRUCTOR)
D0 = Symbol("d0", 1, KIND_CONSTRUCTOR)
D1 = Symbol("d1", 1, KIND_CONSTRUCTOR)


def binary_nat_vocabulary() -> Vocabulary:
    """The minimal vocabulary of the binary numeral codec."""
    return Vocabulary([EPS, D0, D1])


def encode_nat_binary(n: int, vocab: Vocabulary | None = None) -> Term:
    """Encode a positive integer as a binary numeral term."""
    if n < 1:
        raise ValueError(f"binary numerals encode positive integers, got {n}")
    if vocab is None:
        eps, d0, d1 = EPS, D0, D1
    else:
        eps, d0, d1 = vocab.get("eps"), vocab.get("d0"), vocab.get("d1")
        if eps != EPS or d0 != D0 or d1 != D1:
            raise ValueError("vocabulary lacks the eps/0, d0/1, d1/1 constructors")
    bits = bin(n)[3:]  # drop '0b' and the leading 1
    t = Term(eps)
    for ch in reversed(bits):
        t = Term(d1 if ch == "1" else d0, (t,))
    return t


def decode_nat_binary(t: Term) -> int:
    """Inverse of encode_nat_binary."""
    bits = ["1"]
    node = t
    while True:
        name, arity = node.head.name, node.head.arity
        if name == "eps" and arity == 0:
            break
        if name == "d0" and arity == 1:
            bits.append("0")
        elif name == "d1" and arity == 1:
            bits.append("1")
        else:
            raise ValueError(f"foreign symbol {node.head!r} in binary numeral")
        node = node.args[0]
    return int("".join(bits), 2)
