"""Append-only term-graph store with maximal sharing (a "tangle").

Every term lives at most once: interning a (label, children) pair returns the
existing vertex when there is one.  Node ids are dense indices, children always
point at strictly smaller indices, and nothing is ever deleted, so ids stay
stable for the lifetime of the store and equality of represented terms is a
single id comparison.

Node id 0 is permanently the distinguished undef vertex.  It is a store-level
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
    """Handle to a vertex; carries its store's tag so mixing stores is caught."""

    store: int
    index: int


class Node(NamedTuple):
    label: Symbol | None  # None marks the undef vertex
    children: tuple[NodeId, ...]


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
        self._nodes: list[Node] = [Node(None, ())]
        self._symbols = {sym.name: sym for sym in vocab}
        self._index: dict[tuple[str, tuple[NodeId, ...]], NodeId] = {}
        self._edges = 0
        self._extract_cache: dict[int, Term] = {}

    @property
    def undef(self) -> NodeId:
        return NodeId(self.tag, 0)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> int:
        return self._edges

    def _own(self, nid: NodeId, what: str = "node id") -> NodeId:
        if nid.store != self.tag:
            raise TangleError(f"{what} {nid} belongs to a different tangle")
        if not 0 <= nid.index < len(self._nodes):
            raise TangleError(f"{what} {nid} is out of range")
        return nid

    def intern(self, label: Symbol, children: Iterable[NodeId]) -> NodeId:
        """Return the unique vertex for (label, children), allocating on a miss.

        The checks are ordered cheap first: a vocabulary symbol passes on
        identity, and a child passes on one tag and one range comparison;
        `check_vocabulary` and `_own` run only to raise.  The index is keyed
        by the symbol's name, which the vocabulary check makes unique to
        `label`.
        """
        children = tuple(children)
        if len(children) != label.arity:
            raise TangleError(
                f"symbol {label.name}/{label.arity} interned with "
                f"{len(children)} children"
            )
        name = label.name
        known = self._symbols.get(name)
        if known is not label and known != label:
            self.check_vocabulary((label,))
        nodes = self._nodes
        tag, size = self.tag, len(nodes)
        for c in children:
            if c.store != tag or not 0 < c.index < size:
                self._own(c, "child id")
                raise TangleError("undef cannot be a child; callers handle strictness")
        key = (name, children)
        nid = self._index.get(key)
        if nid is None:
            nid = NodeId(tag, size)
            nodes.append(Node(known, children))
            self._edges += len(children)
            self._index[key] = nid
            self.meter.charge(*cost.intern_miss(len(children)))
        else:
            self.meter.charge(*cost.intern_hit(len(children)))
        return nid

    def check_vocabulary(self, symbols: Iterable[Symbol]):
        """Raise TangleError unless every symbol is the one of its name in
        this store's vocabulary, which `intern` requires of its label.  Code
        that probes `_index` by name for a symbol checks it here first."""
        for label in symbols:
            known = self._symbols.get(label.name)
            if known is not label and known != label:
                raise TangleError(f"symbol {label!r} is not in this tangle's vocabulary")

    def node_eq(self, a: NodeId, b: NodeId) -> bool:
        """Term equality in exactly one comparison, thanks to maximal sharing."""
        self._own(a)
        self._own(b)
        self.meter.charge(*cost.ID_COMPARE)
        return a.index == b.index

    def import_term(self, t: Term) -> NodeId:
        """Build (or find) the vertex representing t; cost is affine in ||t||."""
        memo: dict[Term, NodeId] = {}
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
            memo[cur] = self.intern(cur.head, tuple(memo[a] for a in cur.args))
        self.meter.charge(*cost.IMPORT_VISIT * visits)
        return memo[t]

    def extract_term(self, nid: NodeId) -> Term:
        """Read a vertex back as a term.  The undef vertex has no term form."""
        self._own(nid)
        if nid.index == 0:
            raise UndefNodeError("the undef vertex has no term form")
        cache = self._extract_cache
        stack = [nid.index]
        while stack:
            i = stack[-1]
            if i in cache:
                stack.pop()
                continue
            node = self._nodes[i]
            pending = [c.index for c in node.children if c.index not in cache]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            cache[i] = Term(node.label, tuple(cache[c.index] for c in node.children))
        return cache[nid.index]

    def stats(self) -> TangleStats:
        return TangleStats(
            vertices=len(self._nodes),
            edges=self._edges,
            word_bits=word_bits(len(self._nodes)),
        )

    def check_invariants(self):
        """Assert minimality, acyclicity, and the edge bound.  Test hook."""
        seen: dict[tuple[Symbol | None, tuple[NodeId, ...]], int] = {}
        edges = 0
        for i, node in enumerate(self._nodes):
            key = (node.label, node.children)
            if key in seen:
                raise AssertionError(f"duplicate node {key} at {seen[key]} and {i}")
            seen[key] = i
            for c in node.children:
                if c.index >= i:
                    raise AssertionError(f"node {i} has non-decreasing child {c.index}")
            edges += len(node.children)
        if edges != self._edges:
            raise AssertionError(f"edge counter {self._edges} != recount {edges}")
        if edges > self.max_arity * len(self._nodes):
            raise AssertionError("edge bound |E| <= max_arity * |V| violated")

    def dump(self) -> str:
        """One line per node: "id<TAB>label<TAB>child ids", ids ascending."""
        lines = []
        for i, node in enumerate(self._nodes):
            label = "undef" if node.label is None else node.label.name
            kids = " ".join(str(c.index) for c in node.children)
            lines.append(f"{i}\t{label}\t{kids}")
        return "\n".join(lines) + "\n"


def new_tangle(vocab: Vocabulary, meter: CostMeter | None = None) -> Tangle:
    """A fresh store containing exactly the undef vertex."""
    return Tangle(vocab, meter)
