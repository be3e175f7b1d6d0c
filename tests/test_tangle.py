"""Tangle store: interning, sharing, equality, stats, metering."""

import random

import pytest

from esmtangle.cost import CostMeter
from esmtangle.tangle import NodeId, TangleError, UndefNodeError, new_tangle
from esmtangle.terms import (
    KIND_DYNAMIC,
    Symbol,
    Term,
    Vocabulary,
    compact_size,
    parse_term,
    symbol_count,
)


def vocab_fc():
    return Vocabulary(
        [
            Symbol("c", 0),
            Symbol("eps", 0),
            Symbol("d0", 1),
            Symbol("d1", 1),
            Symbol("f", 2),
            Symbol("g", 2),
        ]
    )


def test_fresh_tangle_stats():
    g = new_tangle(vocab_fc())
    st = g.stats()
    assert (st.vertices, st.edges, st.word_bits) == (1, 0, 1)


def test_two_tangles_independent():
    v = vocab_fc()
    a, b = new_tangle(v), new_tangle(v)
    assert a.stats() == b.stats()
    assert a.tag != b.tag


def test_max_arity_recorded():
    g = new_tangle(vocab_fc())
    assert g.max_arity == 2


def test_intern_idempotent():
    g = new_tangle(vocab_fc())
    c = g.vocab.get("c")
    assert g.intern(c, ()) == g.intern(c, ())
    assert g.stats().vertices == 2


def test_merge_example():
    # Importing f(c,c) and g(c,c) into one store: one c vertex, one f, one g,
    # two edges from each binary node down to c.
    v = vocab_fc()
    g = new_tangle(v)
    g.import_term(parse_term("f(c,c)", v))
    g.import_term(parse_term("g(c,c)", v))
    st = g.stats()
    assert st.vertices == 4  # undef + c + f + g
    assert st.edges == 4


def test_intern_reuses_children():
    v = vocab_fc()
    g = new_tangle(v)
    cid = g.import_term(parse_term("c", v))
    before = g.stats().vertices
    g.intern(v.get("f"), (cid, cid))
    assert g.stats().vertices == before + 1


def test_node_eq_reflexive_and_shared():
    v = vocab_fc()
    g = new_tangle(v)
    a = g.import_term(parse_term("f(c,c)", v))
    b = g.import_term(parse_term("f(c,c)", v))
    other = g.import_term(parse_term("g(c,c)", v))
    assert g.node_eq(a, a)
    assert g.node_eq(a, b)
    assert g.extract_term(a) == g.extract_term(b)
    assert not g.node_eq(a, other)


def test_node_eq_rejects_foreign_ids():
    v = vocab_fc()
    g1, g2 = new_tangle(v), new_tangle(v)
    a = g1.import_term(parse_term("c", v))
    b = g2.import_term(parse_term("c", v))
    with pytest.raises(TangleError, match="different tangle"):
        g1.node_eq(a, b)


def test_node_eq_meters_exactly_one_compare():
    v = vocab_fc()
    g = new_tangle(v)
    d0 = v.get("d0")
    t = Term(v.get("eps"))
    for _ in range(10_000):
        t = Term(d0, (t,))
    a = g.import_term(t)
    b = g.import_term(t)
    assert compact_size(t) == 10_001
    before = g.meter.compare, g.meter.ram_ops
    assert g.node_eq(a, b)
    assert g.meter.compare == before[0] + 1
    assert g.meter.ram_ops == before[1] + 1


def test_import_delta_matches_compact_size():
    v = vocab_fc()
    g = new_tangle(v)
    t = parse_term("f(c,c)", v)
    before = g.stats().vertices
    g.import_term(t)
    assert g.stats().vertices == before + compact_size(t)


def test_reimport_is_free():
    v = vocab_fc()
    g = new_tangle(v)
    t = parse_term("g(f(c,c),f(c,c))", v)
    g.import_term(t)
    before = g.stats().vertices
    assert g.import_term(t) == g.import_term(t)
    assert g.stats().vertices == before


def test_intern_rejects_undef_child_and_bad_arity():
    v = vocab_fc()
    g = new_tangle(v)
    cid = g.import_term(parse_term("c", v))
    with pytest.raises(TangleError, match="undef cannot be a child"):
        g.intern(v.get("d0"), (g.undef,))
    with pytest.raises(TangleError, match="interned with"):
        g.intern(v.get("f"), (cid,))
    with pytest.raises(TangleError, match="not in this tangle's vocabulary"):
        g.intern(Symbol("zz", 0), ())
    g2 = new_tangle(v)
    with pytest.raises(TangleError, match="different tangle"):
        g2.intern(v.get("d0"), (cid,))


@pytest.mark.parametrize("form, error", [
    (lambda nid: nid, "belongs to a different tangle"),
    (lambda nid: nid.index, "is not a NodeId"),
    (tuple, "is not a NodeId"),
], ids=["node_id", "int", "tuple"])
def test_intern_rejects_a_child_of_another_store(form, error):
    # The id is in range for this store too; only its tag tells them apart,
    # and a bare int or a plain tuple carries no tag to tell.
    v = vocab_fc()
    g1, g2 = new_tangle(v), new_tangle(v)
    g1.import_term(parse_term("c", v))
    foreign = g2.import_term(parse_term("c", v))
    assert foreign.index < len(g1)
    with pytest.raises(TangleError, match=rf"child id .* {error}"):
        g1.intern(v.get("d0"), (form(foreign),))


@pytest.mark.parametrize("index", [2, 99, -1])
def test_intern_rejects_an_out_of_range_child(index):
    v = vocab_fc()
    g = new_tangle(v)
    g.import_term(parse_term("c", v))
    assert len(g) == 2
    with pytest.raises(TangleError, match=r"child id .* is out of range"):
        g.intern(v.get("d0"), (NodeId(g.tag, index),))


@pytest.mark.parametrize("impostor", [
    Symbol("d0", 2),                    # a vocabulary name with another arity
    Symbol("d0", 1, KIND_DYNAMIC),      # ... or another kind
    Symbol("c", 0, KIND_DYNAMIC),
])
def test_intern_rejects_a_vocabulary_name_with_another_signature(impostor):
    # The index is keyed by symbol name, so this check alone keeps the
    # impostor from finding (or making) a vertex of the vocabulary symbol.
    v = vocab_fc()
    g = new_tangle(v)
    cid = g.import_term(parse_term("c", v))
    g.intern(v.get("d0"), (cid,))
    before = len(g), g.meter.ram_ops
    children = (cid,) * impostor.arity
    with pytest.raises(TangleError, match="not in this tangle's vocabulary"):
        g.intern(impostor, children)
    assert (len(g), g.meter.ram_ops) == before


def test_intern_accepts_an_equal_symbol_object():
    v = vocab_fc()
    g = new_tangle(v)
    cid = g.import_term(parse_term("c", v))
    nid = g.intern(v.get("d0"), (cid,))
    twin = Symbol("d0", 1)
    assert twin == v.get("d0") and twin is not v.get("d0")
    assert g.intern(twin, (cid,)) == nid
    assert g.intern(Symbol("c", 0), ()) == cid
    assert len(g) == 3


def test_extract_undef_is_distinct_error():
    g = new_tangle(vocab_fc())
    with pytest.raises(UndefNodeError):
        g.extract_term(g.undef)


def test_extract_roundtrip():
    v = vocab_fc()
    g = new_tangle(v)
    for text in ["c", "f(c,c)", "g(f(c,c),f(c,c))", "d0(d1(eps))"]:
        t = parse_term(text, v)
        nid = g.import_term(t)
        assert g.extract_term(nid) == t
        assert g.import_term(g.extract_term(nid)) == nid


def test_balanced_sharing_readback():
    # s_0 = c, s_{i+1} = f(s_i, s_i): the store keeps d+2 vertices while the
    # extracted tree has 2^(d+1) - 1 symbol occurrences.
    v = vocab_fc()
    g = new_tangle(v)
    f = v.get("f")
    nid = g.import_term(parse_term("c", v))
    d = 20
    for _ in range(d):
        nid = g.intern(f, (nid, nid))
    t = g.extract_term(nid)
    assert symbol_count(t) == 2 ** (d + 1) - 1
    assert compact_size(t) == d + 1
    assert g.stats().vertices == d + 2


def random_intern_sequence(rng, g, rounds):
    v = g.vocab
    ids = []
    for _ in range(rounds):
        sym = rng.choice(v.symbols)
        if sym.arity == 0:
            ids.append(g.intern(sym, ()))
        elif ids:
            children = tuple(rng.choice(ids) for _ in range(sym.arity))
            if any(c.index == 0 for c in children):
                continue
            ids.append(g.intern(sym, children))
    return ids


def test_minimality_and_edge_bound_random():
    rng = random.Random(42)
    for _ in range(200):
        g = new_tangle(vocab_fc())
        random_intern_sequence(rng, g, rng.randint(1, 60))
        g.check_invariants()
        st = g.stats()
        assert st.edges <= g.max_arity * st.vertices


def test_equality_coherence_all_pairs():
    v = vocab_fc()
    g = new_tangle(v)
    rng = random.Random(5)
    ids = random_intern_sequence(rng, g, 40)
    for a in ids:
        for b in ids:
            eq = g.node_eq(a, b)
            assert eq == (g.extract_term(a) == g.extract_term(b))


def test_determinism_replay():
    v = vocab_fc()
    dumps = []
    meters = []
    for _ in range(2):
        g = new_tangle(v)
        rng = random.Random(99)
        random_intern_sequence(rng, g, 200)
        dumps.append(g.dump())
        meters.append(g.meter.categories())
    assert dumps[0] == dumps[1]
    assert meters[0] == meters[1]


@pytest.mark.parametrize("corrupt", ["remap", "extra key"])
def test_check_invariants_catches_an_index_that_disagrees_with_the_vertices(corrupt):
    # Each vertex record is its own index key: the index must map every
    # record back to its vertex and hold no other key.
    v = vocab_fc()
    g = new_tangle(v)
    g.import_term(parse_term("g(f(c,c),d0(eps))", v))
    g.check_invariants()
    if corrupt == "remap":
        g._index[g._nodes[2]] = 3
    else:
        g._index[("d1", (1,))] = 1
    with pytest.raises(AssertionError):
        g.check_invariants()


@pytest.mark.parametrize("corrupt, message", [
    ("child", "node 2 has non-decreasing child 2"),
    ("counter", "edge counter 3 != recount 2"),
    ("bound", "edge bound |E| <= max_arity * |V| violated"),
])
def test_check_invariants_catches_a_cycle_or_a_wrong_edge_count(corrupt, message):
    # f(c,c) is vertex 2 over vertex 1, with 2 edges.
    v = vocab_fc()
    g = new_tangle(v)
    g.import_term(parse_term("f(c,c)", v))
    g.check_invariants()
    if corrupt == "child":
        del g._index[g._nodes[2]]
        g._nodes[2] = ("f", (2, 1))
        g._index[g._nodes[2]] = 2
    elif corrupt == "counter":
        g._edges += 1
    else:
        g.max_arity = 0
    with pytest.raises(AssertionError) as caught:
        g.check_invariants()
    assert str(caught.value) == message


def test_dump_format():
    v = vocab_fc()
    g = new_tangle(v)
    g.import_term(parse_term("f(c,c)", v))
    lines = g.dump().splitlines()
    assert lines[0] == "0\tundef\t"
    assert lines[1] == "1\tc\t"
    assert lines[2] == "2\tf\t1 1"


def test_import_cost_affine_in_compact_size():
    v = vocab_fc()
    rng = random.Random(3)
    points = []
    for _ in range(120):
        g = new_tangle(v, CostMeter())
        # Mix of chains and shared trees with sizes up to a few thousand.
        t = Term(v.get("c"))
        size = rng.randint(1, 2000)
        for _ in range(size):
            sym = v.get(rng.choice(["d0", "d1", "f"]))
            t = Term(sym, (t,) * sym.arity)
        before = g.meter.ram_ops
        g.import_term(t)
        points.append((compact_size(t), g.meter.ram_ops - before))
    # The declared menu charges at most (3 + 2*arity) ops per distinct node
    # plus one probe per dag edge; a slope of 10 covers vocab arity 2.
    for k, ops in points:
        assert ops <= 10 * k + 10


def test_word_bits_tracks_growth():
    v = vocab_fc()
    g = new_tangle(v)
    d0 = v.get("d0")
    nid = g.intern(v.get("c"), ())
    for _ in range(100):
        nid = g.intern(d0, (nid,))
    st = g.stats()
    assert 2 ** st.word_bits >= st.vertices
