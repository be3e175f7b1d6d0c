"""Term core: parsing, printing, size measures, numeral codec."""

import random

import pytest

from esmtangle.terms import (
    KIND_CONSTRUCTOR,
    Symbol,
    Term,
    TermSyntaxError,
    Vocabulary,
    binary_nat_vocabulary,
    compact_size,
    decode_nat_binary,
    distinct_subterms,
    encode_nat_binary,
    format_term,
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


def brute_subterm_set(t):
    """Independent oracle: collect distinct subterms by naive set recursion."""
    out = set()

    def go(u):
        if u in out:
            return
        out.add(u)
        for a in u.args:
            go(a)

    go(t)
    return out


def brute_symbol_count(t):
    return 1 + sum(brute_symbol_count(a) for a in t.args)


def random_term(rng, vocab, depth):
    sym = rng.choice([s for s in vocab.symbols if depth > 0 or s.arity == 0])
    if depth == 0:
        sym = rng.choice([s for s in vocab.symbols if s.arity == 0])
    return Term(sym, tuple(random_term(rng, vocab, depth - 1) for _ in range(sym.arity)))


def test_parse_nullary():
    v = vocab_fc()
    t = parse_term("eps", v)
    assert t.head.name == "eps" and t.args == ()


def test_parse_fcc():
    v = vocab_fc()
    t = parse_term("f(c,c)", v)
    assert t.head.name == "f"
    assert [a.head.name for a in t.args] == ["c", "c"]


def test_parse_nested_roundtrip():
    v = vocab_fc()
    t = parse_term("d0(d1(eps))", v)
    assert format_term(t) == "d0(d1(eps))"
    assert parse_term(format_term(t), v) == t


def test_parse_whitespace_insignificant():
    v = vocab_fc()
    assert parse_term(" f ( c , c ) ", v) == parse_term("f(c,c)", v)


def test_parse_errors_have_positions():
    v = vocab_fc()
    with pytest.raises(TermSyntaxError, match=r"line 1, col 1: unknown symbol 'nope'"):
        parse_term("nope", v)
    with pytest.raises(TermSyntaxError, match="applied to 1 arguments"):
        parse_term("f(c)", v)
    with pytest.raises(TermSyntaxError, match="expected"):
        parse_term("f(c,", v)
    with pytest.raises(TermSyntaxError, match="not a term"):
        parse_term("undef", v)
    with pytest.raises(TermSyntaxError, match="without arguments"):
        parse_term("f", v)


@pytest.mark.parametrize("text, message", [
    ("f(c,\n  c#)", "line 2, col 4: unexpected character '#'"),
    ("c c", "line 1, col 3: unexpected 'c' after term"),
    ("\n\n 9", "line 3, col 2: unexpected character '9'"),
    ("f(c, é)", "line 1, col 6: unexpected character 'é'"),
])
def test_tokenizer_errors_have_positions(text, message):
    with pytest.raises(TermSyntaxError) as info:
        parse_term(text, vocab_fc())
    assert str(info.value) == message


def test_format_roundtrip_random():
    v = vocab_fc()
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(rng, v, rng.randint(0, 8))
        assert parse_term(format_term(t), v) == t


def test_compact_size_counts_distinct_subterms():
    v = vocab_fc()
    assert compact_size(parse_term("f(c,c)", v)) == 2
    assert symbol_count(parse_term("f(c,c)", v)) == 3


def test_compact_size_single_node():
    v = vocab_fc()
    assert compact_size(parse_term("c", v)) == 1
    assert symbol_count(parse_term("c", v)) == 1


def test_compact_size_g_of_f():
    v = vocab_fc()
    t = parse_term("g(f(c,c),f(c,c))", v)
    assert len(brute_subterm_set(t)) == 3
    assert compact_size(t) == 3
    assert brute_symbol_count(t) == 7
    assert symbol_count(t) == 7


def test_sizes_random_agree_with_brute_force():
    v = vocab_fc()
    rng = random.Random(7)
    for _ in range(200):
        t = random_term(rng, v, rng.randint(0, 6))
        assert compact_size(t) == len(brute_subterm_set(t))
        assert symbol_count(t) == brute_symbol_count(t)
        assert 1 <= compact_size(t) <= symbol_count(t)


def test_size_equality_iff_no_repeats():
    v = vocab_fc()
    rng = random.Random(13)
    for _ in range(200):
        t = random_term(rng, v, rng.randint(0, 5))
        subs = list(brute_subterm_set(t))
        # symbol_count equals the sum over distinct subterms of their occurrence
        # multiplicity; equality with compact_size means every multiplicity is 1.
        has_repeat = symbol_count(t) > compact_size(t)
        occurrences = {}

        def count(u):
            occurrences[u] = occurrences.get(u, 0) + 1
            for a in u.args:
                count(a)

        count(t)
        assert has_repeat == any(k > 1 for k in occurrences.values())
        assert set(occurrences) == set(subs)


def test_compact_size_invariant_under_renaming():
    v = vocab_fc()
    renamed = Vocabulary(
        [
            Symbol("k", 0),
            Symbol("e", 0),
            Symbol("a0", 1),
            Symbol("a1", 1),
            Symbol("p", 2),
            Symbol("q", 2),
        ]
    )
    mapping = dict(zip([s.name for s in v.symbols], renamed.symbols))
    rng = random.Random(17)

    def rename(t):
        return Term(mapping[t.head.name], tuple(rename(a) for a in t.args))

    for _ in range(100):
        t = random_term(rng, v, rng.randint(0, 6))
        assert compact_size(t) == compact_size(rename(t))
        assert symbol_count(t) == symbol_count(rename(t))


def test_deep_chain_operations_are_iterative():
    v = vocab_fc()
    d0 = v.get("d0")
    t = Term(v.get("eps"))
    for _ in range(30000):
        t = Term(d0, (t,))
    assert compact_size(t) == 30001
    assert symbol_count(t) == 30001
    s = format_term(t)
    assert parse_term(s, v) == t


def test_shared_dag_symbol_count_exponential():
    v = vocab_fc()
    f = v.get("f")
    t = Term(v.get("c"))
    d = 40
    for _ in range(d):
        t = Term(f, (t, t))
    assert compact_size(t) == d + 1
    assert symbol_count(t) == 2 ** (d + 1) - 1


def test_encode_examples():
    assert format_term(encode_nat_binary(1)) == "eps"
    assert format_term(encode_nat_binary(2)) == "d0(eps)"
    assert format_term(encode_nat_binary(3)) == "d1(eps)"
    assert format_term(encode_nat_binary(5)) == "d0(d1(eps))"


def test_decode_examples():
    v = binary_nat_vocabulary()
    assert decode_nat_binary(parse_term("eps", v)) == 1
    assert decode_nat_binary(parse_term("d0(d1(eps))", v)) == 5
    assert decode_nat_binary(parse_term("d1(eps)", v)) == 3


def test_codec_rejects_zero_and_foreign_symbols():
    with pytest.raises(ValueError, match="positive"):
        encode_nat_binary(0)
    v = vocab_fc()
    with pytest.raises(ValueError, match="foreign symbol"):
        decode_nat_binary(parse_term("f(c,c)", v))


def test_codec_bijection_exhaustive():
    seen = set()
    for n in range(1, 4097):
        t = encode_nat_binary(n)
        key = format_term(t)
        assert key not in seen
        seen.add(key)
        assert decode_nat_binary(t) == n
        # An independent size check: the digit string after the leading 1.
        assert compact_size(t) == len(bin(n)) - 3 + 1


def test_codec_large_values():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 2**64)
        assert decode_nat_binary(encode_nat_binary(n)) == n


def test_encode_requires_codec_constructors():
    plain = Vocabulary([Symbol("c", 0), Symbol("f", 2)])
    with pytest.raises(ValueError, match="lacks"):
        encode_nat_binary(3, plain)
    assert decode_nat_binary(encode_nat_binary(3, binary_nat_vocabulary())) == 3


def test_symbol_validation():
    with pytest.raises(ValueError, match="reserved"):
        Symbol("undef", 0)
    with pytest.raises(ValueError, match="invalid symbol name"):
        Symbol("9x", 0)
    with pytest.raises(ValueError, match="negative arity"):
        Symbol("x", -1)
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary([Symbol("x", 0), Symbol("x", 1)])


def test_term_arity_enforced():
    c = Symbol("c", 0)
    f = Symbol("f", 2)
    with pytest.raises(ValueError, match="applied to"):
        Term(f, (Term(c),))


def test_distinct_subterms_children_first():
    v = vocab_fc()
    t = parse_term("g(f(c,c),f(c,c))", v)
    order = distinct_subterms(t)
    pos = {u: i for i, u in enumerate(order)}
    for u in order:
        for a in u.args:
            assert pos[a] < pos[u]
