"""Append-only term-graph store with maximal sharing (a "tangle").

Every term lives at most once: interning a (label, children) pair returns the
existing vertex when there is one.  Vertices are numbered densely, children
always point at strictly smaller indices, and nothing is ever deleted, so
indices stay stable for the lifetime of the store and equality of represented
terms is a single int comparison.

Each vertex is kept once: its record in the vertex table `_nodes` is the
tuple `(name, children)` that keys it in the index `_index`, and its label
is the vocabulary symbol of that name.  Undef's record is `(None, ())`.

Inside the store and inside a run, ids are plain int vertex indices.  At the
API (`intern`, `import_term`, `extract_term`, `node_eq`, `undef`) they are
`NodeId`s, which also carry the store's tag, so an id of another store is
caught: one conversion, `_own`, checks an incoming id's type, tag and range.
Each method speaks one form.  `_intern` and `_import` are the int forms and
the one implementation of each: the public `intern` and `import_term`
convert, call them and wrap the result, and the engine calls them directly.
Its generated code looks `_intern` up on the store at every pass, so a
class-level wrapper on `_intern` sees every miss.

Vertex 0 is permanently the distinguished undef vertex.  It is a store-level
constant, not a constructor: interning never accepts it as a child, and
callers model strict operations by short-circuiting to undef themselves.

A tangle is single-writer.  Read-only operations may run concurrently with
each other, but not with intern/import_term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import cost
from .cost import CostMeter, word_bits
from .terms import Symbol, Term, Vocabulary


class TangleError(ValueError):
    """Arity mismatch, foreign node id, or cross-tangle id mixing."""


class UndefNodeError(ValueError):
    """The undef vertex has no term form."""


class NodeId(NamedTuple):
    """An API id: its store's tag, so mixing stores is caught, and its vertex index."""

    store: int
    index: int


@dataclass(frozen=True)
class TangleStats:
    vertices: int
    edges: int
    word_bits: int


_store_tags = itertools.count(1)


class Tangle:
    """The store.  Use new_tangle() to create one."""

    def __init__(self, vocab: Vocabulary, meter: CostMeter | None = None):
        self.vocab = vocab
        self.max_arity = vocab.max_arity
        self.meter = meter if meter is not None else CostMeter()
        self.tag = next(_store_tags)
        self._nodes: list[tuple[str | None, tuple[int, ...]]] = [(None, ())]
        self._symbols = vocab._by_name  # the vocabulary's name table: a record's label
        self._index: dict[tuple[str, tuple[int, ...]], int] = {}
        self._edges = 0

    @property
    def undef(self) -> NodeId:
        return NodeId(self.tag, 0)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> int:
        return self._edges

    def _own(self, nid: NodeId, what: str = "node id") -> int:
        """The index of an API id, checked to be a NodeId of this store and in range."""
        if not isinstance(nid, NodeId):
            raise TangleError(f"{what} {nid!r} is not a NodeId")
        if nid.store != self.tag:
            raise TangleError(f"{what} {nid} belongs to a different tangle")
        if not 0 <= nid.index < len(self._nodes):
            raise TangleError(f"{what} {nid} is out of range")
        return nid.index

    def intern(self, label: Symbol, children: Iterable[NodeId]) -> NodeId:
        """Return the unique vertex for (label, children), allocating on a miss."""
        children = tuple(self._own(c, "child id") for c in children)
        return NodeId(self.tag, self._intern(label, children))

    def _intern(self, label: Symbol, children: tuple[int, ...]) -> int:
        """`intern` on int indices.  A vocabulary symbol passes on identity,
        and `check_vocabulary` runs only to raise; the index is keyed by the
        symbol's name, which that check makes unique to `label`.  A hit names
        a vertex, so only a miss checks each child is one other than undef.
        """
        if len(children) != label.arity:
            raise TangleError(
                f"symbol {label.name}/{label.arity} interned with "
                f"{len(children)} children"
            )
        name = label.name
        known = self._symbols.get(name)
        if known is not label and known != label:
            self.check_vocabulary((label,))
        key = (name, children)
        nid = self._index.get(key)
        if nid is None:
            nodes = self._nodes
            nid = len(nodes)
            for c in children:
                if not 0 < c < nid:
                    raise TangleError(f"child id {c} is out of range" if c else
                                      "undef cannot be a child; callers handle strictness")
            nodes.append(key)
            self._edges += len(children)
            self._index[key] = nid
            probe, alloc, read, compare, write = cost.intern_miss(len(children))
        else:
            probe, alloc, read, compare, write = cost.intern_hit(len(children))
        meter = self.meter
        if meter.enabled:  # `CostMeter.charge`, spelled out: no call per intern
            meter.probe += probe
            meter.alloc += alloc
            meter.read += read
            meter.compare += compare
            meter.write += write
        return nid

    def check_vocabulary(self, symbols: Iterable[Symbol]):
        """Raise TangleError unless every symbol is the one of its name in
        this store's vocabulary, which `intern` requires of its label.  Code
        that probes `_index` by name for a symbol checks it here first."""
        for label in symbols:
            if label not in self.vocab:
                raise TangleError(f"symbol {label!r} is not in this tangle's vocabulary")

    def node_eq(self, a: NodeId, b: NodeId) -> bool:
        """Term equality in exactly one comparison, thanks to maximal sharing."""
        a, b = self._own(a), self._own(b)
        self.meter.charge(*cost.ID_COMPARE)
        return a == b

    def import_term(self, t: Term) -> NodeId:
        """Build (or find) the vertex representing t; cost is affine in ||t||."""
        return NodeId(self.tag, self._import(t))

    def _import(self, t: Term) -> int:
        """`import_term` on int indices; its interns go through `_intern`."""
        memo: dict[Term, int] = {}
        stack: list[Term] = [t]
        visits = 0
        while stack:
            cur = stack[-1]
            visits += 1
            if cur in memo:
                stack.pop()
                continue
            pending = [a for a in cur.args if a not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            memo[cur] = self._intern(cur.head, tuple(memo[a] for a in cur.args))
        self.meter.charge(*cost.IMPORT_VISIT * visits)
        return memo[t]

    def extract_term(self, nid: NodeId) -> Term:
        """Read a vertex back as a term.  The undef vertex has no term form."""
        index = self._own(nid)
        if index == 0:
            raise UndefNodeError("the undef vertex has no term form")
        nodes, symbols = self._nodes, self._symbols
        memo: dict[int, Term] = {}
        stack = [index]
        while stack:
            i = stack[-1]
            if i in memo:
                stack.pop()
                continue
            name, children = nodes[i]
            pending = [c for c in children if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            memo[i] = Term(symbols[name], tuple(map(memo.__getitem__, children)))
        return memo[index]

    def stats(self) -> TangleStats:
        return TangleStats(
            vertices=len(self._nodes),
            edges=self._edges,
            word_bits=word_bits(len(self._nodes)),
        )

    def check_invariants(self):
        """Assert minimality (the vertex table and the index agree),
        acyclicity, and the edge bound.  Test hook."""
        nodes, index = self._nodes, self._index
        if len(index) != len(nodes) - 1:
            raise AssertionError(f"{len(index)} index keys for {len(nodes) - 1} vertices")
        edges = 0
        for i, key in enumerate(nodes[1:], 1):
            if index.get(key) != i:
                raise AssertionError(f"vertex {i} {key} is indexed as {index.get(key)}")
            for c in key[1]:
                if c >= i:
                    raise AssertionError(f"node {i} has non-decreasing child {c}")
            edges += len(key[1])
        if edges != self._edges:
            raise AssertionError(f"edge counter {self._edges} != recount {edges}")
        if edges > self.max_arity * len(self._nodes):
            raise AssertionError("edge bound |E| <= max_arity * |V| violated")

    def dump(self) -> str:
        """One line per node: "id<TAB>label<TAB>child ids", ids ascending."""
        lines = []
        for i, (name, children) in enumerate(self._nodes):
            kids = " ".join(map(str, children))
            lines.append(f"{i}\t{'undef' if name is None else name}\t{kids}")
        return "\n".join(lines) + "\n"


def new_tangle(vocab: Vocabulary, meter: CostMeter | None = None) -> Tangle:
    """A fresh store containing exactly the undef vertex."""
    return Tangle(vocab, meter)
