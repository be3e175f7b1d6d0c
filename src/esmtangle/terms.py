"""Ground terms over a finite vocabulary split into constructors and dynamic symbols.

Terms are immutable trees (possibly with shared sub-objects, which is invisible
to the value semantics).  Every walk over terms is iterative, so chains tens of
thousands of symbols deep are fine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator

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
    """A vocabulary entry: fixed name, fixed arity, fixed kind.  Its signature
    `_sig`, (name, arity, kind), and its hash are built once and kept, since
    every `Term` hashes its head and every plan key holds the signature."""

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
        object.__setattr__(self, "_sig", (self.name, self.arity, self.kind))
        object.__setattr__(self, "_hash", hash(self._sig))

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


_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

#: The token after the last one of every cursor.  It is whitespace, so it
#: equals no token, and its first character starts none.
END = " "


def is_ident(tok: str) -> bool:
    """Whether a token (or END) is an identifier."""
    return tok[0] in _ID_START


class Tokenizer:
    """The tokens of a language, as an alternation of patterns.  A scan skips
    whitespace, takes the first alternative that matches, and takes a
    character that no token starts with as a token of its own, which is an
    error.  It runs on text without trailing whitespace, which `\\s*` would
    otherwise try from each of its characters."""

    def __init__(self, tokens: str):
        self.token = re.compile(tokens)
        self.scan = re.compile(f"\\s*({tokens}|\\S)")


_TERM_TOKENS = Tokenizer(r"[A-Za-z_][A-Za-z0-9_]*|[(),]")


class TokenCursor:
    """The tokens of `text` as a flat list of strings, `toks`, made by one
    scan and ended by END.  Parsers read it by index and derive a token's
    kind from its first character where the grammar needs one.  Positions
    are not kept: an error at token i rescans the text up to it for its
    1-based line and column, and an error at END is placed at the end of the
    text.  A character that no token starts with is an error wherever it is,
    so it is reported first.  `terms` holds every term read from the cursor,
    one object per distinct term, keyed by head and argument objects."""

    __slots__ = ("text", "toks", "terms", "_scan")

    def __init__(self, text: str, tokenizer: Tokenizer = _TERM_TOKENS):
        self.text = text
        self._scan = tokenizer.scan
        self.toks = toks = tokenizer.scan.findall(text.rstrip())
        self.terms: dict[tuple[Symbol, tuple[Term, ...]], Term] = {}
        bad = [t for t in set(toks) if len(t) == 1 and not tokenizer.token.match(t)]
        if bad:
            i = min(map(toks.index, bad))
            self.err(f"unexpected character {toks[i]!r}", i)
        toks.append(END)

    def err(self, msg: str, i: int):
        """Raise `msg` at the start of token i; at END, at the end of the text."""
        if self.toks[i] is END:
            pos = len(self.text)
        else:
            pos = next(islice(self._scan.finditer(self.text.rstrip()), i, None)).start(1)
        line = self.text.count("\n", 0, pos) + 1
        raise TermSyntaxError(msg, line, pos - self.text.rfind("\n", 0, pos))

    def fail(self, msg: str, i: int):
        """Raise `msg` at token i, a token the grammar does not take there;
        at END, the input ended too soon."""
        self.err("unexpected end of input" if self.toks[i] is END else msg, i)

    def expect(self, i: int, value: str) -> int:
        """The index after token i, which must be `value`."""
        if self.toks[i] != value:
            self.fail(f"expected {value!r}, found {self.toks[i]!r}", i)
        return i + 1


def shared_term(table: dict, head: Symbol, args: tuple[Term, ...]) -> Term:
    """The term head(args) from `table`, which is keyed by head and argument
    objects, made and added when it is missing.  When the arguments come from
    the table too, equal terms are one object."""
    key = (head, args)
    t = table.get(key)
    if t is None:
        t = table[key] = Term(head, args)
    return t


def read_term(
    cur: TokenCursor, i: int, symbols: dict[str, Symbol], missing: Callable, what: str
) -> tuple[Term, int]:
    """Read one term from token i on; return it and the index after it.
    `symbols` maps a name to its symbol, `missing(cur, name, i)` raises for a
    name it lacks, and `what` names a term in the message for a token that
    is no name.

    Iterative shift-reduce over the one-production grammar, so nesting depth
    is not bounded by Python's call stack.  Equal terms read from one cursor
    are one object (see `TokenCursor.terms`), so dictionaries keyed by them
    find each other by identity, without a structural comparison.
    """
    toks, terms = cur.toks, cur.terms
    stack: list[tuple[Symbol, int, list[Term]]] = []
    while True:
        name = toks[i]
        sym = symbols.get(name)
        if sym is None:
            if not is_ident(name):
                cur.fail(f"expected {what}, found {name!r}", i)
            missing(cur, name, i)
        i += 1
        if toks[i] == "(":
            stack.append((sym, i - 1, []))
            i += 1
            continue
        if sym.arity != 0:
            cur.err(f"symbol {sym.name}/{sym.arity} used without arguments", i - 1)
        node = shared_term(terms, sym, ())
        while True:
            if not stack:
                return node, i
            head, head_i, children = stack[-1]
            children.append(node)
            tok = toks[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                cur.fail(f"expected ',' or ')', found {tok!r}", i - 1)
            stack.pop()
            if len(children) != head.arity:
                cur.err(
                    f"symbol {head.name}/{head.arity} applied to "
                    f"{len(children)} arguments",
                    head_i,
                )
            node = shared_term(terms, head, tuple(children))


def _unknown_symbol(cur: TokenCursor, name: str, i: int):
    if name == UNDEF_WORD:
        cur.err(f"{UNDEF_WORD!r} is not a term", i)
    cur.err(f"unknown symbol {name!r}", i)


def parse_term(text: str, vocab: Vocabulary) -> Term:
    """Parse a term; every symbol must be declared in vocab with matching arity."""
    cur = TokenCursor(text)
    term, i = read_term(cur, 0, vocab._by_name, _unknown_symbol, "a symbol name")
    if cur.toks[i] is not END:
        cur.err(f"unexpected {cur.toks[i]!r} after term", i)
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
