"""Program DSL: parsing, validation, critical-term extraction, round-trip."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, corpus_path, load_corpus
from test_engine_property import _program

from esmtangle.syntax import (
    Assign,
    Cond,
    GAtom,
    GNot,
    GOr,
    critical_terms,
    format_program,
    parse_program,
    parse_program_file,
    program_terms,
    validate_program,
)
from esmtangle.terms import (
    KIND_DYNAMIC,
    Term,
    TermSyntaxError,
    compact_size,
    distinct_subterms,
    format_term,
)


MINI = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
rules {
  if x = eps then { z := d1(eps) }
}
"""


def test_parse_toggle_shape():
    p = load_corpus("toggle")
    assert [s.name for s in p.vocab.dynamics] == ["b"]
    assert len(p.rules) == 2
    assert p.inputs == ()
    assert p.output.name == "b"
    assert all(isinstance(r, Cond) for r in p.rules)


def test_assign_to_constructor_rejected():
    bad = MINI.replace("z := d1(eps)", "eps := d1(eps)")
    with pytest.raises(TermSyntaxError, match="cannot assign to constructor"):
        parse_program(bad)


def test_empty_rules_block_is_valid():
    p = parse_program(MINI.replace("if x = eps then { z := d1(eps) }", ""))
    assert p.rules == ()
    assert validate_program(p) == []


def test_duplicate_symbol_rejected():
    bad = MINI.replace("d0/1; d1/1", "d0/1; d0/1")
    with pytest.raises(TermSyntaxError, match="duplicate symbol"):
        parse_program(bad)


def test_undeclared_symbol_has_position():
    bad = MINI.replace("z := d1(eps)", "z := d9(eps)")
    with pytest.raises(TermSyntaxError, match=r"line \d+, col \d+: undeclared symbol 'd9'"):
        parse_program(bad)


def test_arity_clash_rejected():
    bad = MINI.replace("z := d1(eps)", "z := d1(eps,eps)")
    with pytest.raises(TermSyntaxError, match="applied to 2 arguments"):
        parse_program(bad)


def test_keyword_cannot_name_symbol():
    bad = MINI.replace("d0/1", "rules/1")
    with pytest.raises(TermSyntaxError, match="reserved word"):
        parse_program(bad)


def test_guard_precedence_not_and_or():
    text = MINI.replace(
        "if x = eps then { z := d1(eps) }",
        "if not x = eps and x = eps or x = x then { z := eps }",
    )
    p = parse_program(text)
    guard = p.rules[0].guard
    # Parsed as ((not A) and B) or C.
    assert isinstance(guard, GOr)
    assert isinstance(guard.left.left, GNot)
    assert isinstance(guard.right, GAtom)


@pytest.mark.parametrize("guard", [
    "A or (B or C)", "A and (B and C)", "(A or B) and C", "A and (B or C)",
    "not (A and B)", "not not A", "not A and B or C",
])
def test_guards_roundtrip_through_the_printer(guard):
    # Both operators are left-associative, so a right operand is printed
    # one level tighter than its operator, and a left operand at its level.
    for name, atom in (("A", "x = eps"), ("B", "z = eps"), ("C", "x = z")):
        guard = guard.replace(name, atom)
    p = parse_program(MINI.replace("if x = eps then", f"if {guard} then"))
    assert parse_program(format_program(p)).rules == p.rules


@pytest.mark.parametrize("edits, message", [
    ([("eps/0; d0/1; d1/1", ""), ("if x = eps then { z := d1(eps) }", "")],
     "vocabulary has no constructors"),
    ([("output { z }", "output { eps }")], "output 'eps' must be a dynamic symbol"),
    ([("z/0", "z/1"), ("z := d1(eps)", "z(eps) := d1(eps)")],
     "output 'z' must be nullary (arity 1)"),
    ([("z/0", "z/0; y/1"), ("rules {", "init { y(x) := eps; }\nrules {")],
     "init location argument 'x' is not a constructor term"),
])
def test_validate_diagnostics(edits, message):
    text = MINI
    for old, new in edits:
        text = text.replace(old, new)
    assert message in validate_program(parse_program(text))


def test_validate_nonnullary_input():
    text = MINI.replace("dynamic { x/0; z/0 }", "dynamic { x/1; z/0 }").replace(
        "if x = eps then { z := d1(eps) }", "if x(eps) = eps then { z := d1(eps) }"
    )
    p = parse_program(text)
    assert any("must be nullary" in d for d in validate_program(p))


def test_validate_constructor_input_and_output():
    text = MINI.replace("inputs { x }", "inputs { eps }")
    p = parse_program(text)
    assert any("must be a dynamic symbol" in d for d in validate_program(p))


def test_validate_init_constraints():
    text = MINI.replace(
        "rules {",
        "init { x := undef; }\nrules {",
    )
    p = parse_program(text)
    assert any("cannot be undef" in d for d in validate_program(p))

    text = MINI.replace("rules {", "init { x := z; }\nrules {")
    p = parse_program(text)
    assert any("not a constructor term" in d for d in validate_program(p))


def test_validate_rejects_an_init_that_assigns_to_a_constructor():
    # The parser refuses such an assignment, so the program is built through
    # the API.
    p = parse_program(MINI)
    eps = p.vocab.get("eps")
    bad = dataclasses.replace(p, init=(Assign(eps, (), Term(eps)),))
    assert "init assigns to non-dynamic symbol 'eps'" in validate_program(bad)


def test_validate_no_nullary_constructor():
    text = """
vocab {
  constructors { d0/1 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
rules { }
"""
    p = parse_program(text)
    assert any("no nullary constructor" in d for d in validate_program(p))


def test_oracle_constructor_mismatch(tmp_path):
    body = """
vocab {
  constructors { c/0 }
  dynamic { q/0; out/0 }
}
inputs { q }
output { out }
rules { }
"""
    (tmp_path / "body.esm").write_text(body)
    host = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
oracles { probe/1 = "body.esm"; }
rules {
  if x = eps then { z := probe(x) }
}
"""
    (tmp_path / "host.esm").write_text(host)
    p = parse_program_file(tmp_path / "host.esm")
    assert any("constructor mismatch" in d for d in validate_program(p))


def test_oracle_body_diagnostics_name_the_oracle(tmp_path):
    (tmp_path / "body.esm").write_text(MINI.replace("output { z }", "output { eps }"))
    p = parse_program(HOST, base_dir=tmp_path)
    assert validate_program(p) == ["oracle 'probe': output 'eps' must be a dynamic symbol"]


def test_a_repeated_input_is_a_diagnostic(tmp_path):
    # A diagnostic, not a parse error; in a body it names the oracle.
    twice = MINI.replace("inputs { x }", "inputs { x, x }")
    assert validate_program(parse_program(twice)) == ["duplicate input 'x'"]
    (tmp_path / "body.esm").write_text(twice)
    p = parse_program(HOST.replace("probe/1", "probe/2"), base_dir=tmp_path)
    assert validate_program(p) == ["oracle 'probe': duplicate input 'x'"]


def test_assign_to_oracle_rejected(tmp_path):
    (tmp_path / "body.esm").write_text(MINI)
    with pytest.raises(TermSyntaxError, match="cannot assign to oracle 'probe'"):
        parse_program(HOST.replace("rules { }", "rules { probe(x) := eps }"), base_dir=tmp_path)


def test_oracle_cycle_rejected(tmp_path):
    text = """
vocab {
  constructors { eps/0 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
oracles { loop/1 = "self.esm"; }
rules { }
"""
    (tmp_path / "self.esm").write_text(text)
    with pytest.raises(TermSyntaxError, match="oracle cycle"):
        parse_program_file(tmp_path / "self.esm")


def test_oracle_arity_must_match_body_inputs(tmp_path):
    body = corpus_path("add_unary.esm".removesuffix(".esm")).read_text()
    (tmp_path / "addu.esm").write_text(body)
    host = """
vocab {
  constructors { eps/0; d0/1; d1/1; zero/0; s/1; ph_go/0; ph_loop/0; ph_out/0; ph_conv/0; ph_step/0; ph_check/0; ph_done/0 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
oracles { addu/3 = "addu.esm"; }
rules { }
"""
    (tmp_path / "host.esm").write_text(host)
    p = parse_program_file(tmp_path / "host.esm")
    assert any("declares 2 inputs" in d for d in validate_program(p))


def test_critical_terms_mini():
    p = parse_program(MINI)
    ct = critical_terms(p)
    names = [format_term(t) for t in ct.terms]
    assert set(names) == {"x", "z", "eps", "d1(eps)"}
    assert names.index("eps") < names.index("d1(eps)")
    # Sizes ascend and subterm closure puts children strictly earlier.
    for i, t in enumerate(ct.terms):
        for sub in t.args:
            assert ct.position[sub] < i
    sizes = [compact_size(t) for t in ct.terms]
    assert sizes == sorted(sizes)


def test_critical_terms_toggle_order():
    p = load_corpus("toggle")
    ct = critical_terms(p)
    assert [format_term(t) for t in ct.terms] == ["b", "eps", "d1(eps)", "d0(eps)"]


def test_critical_terms_fcc_order():
    text = """
vocab {
  constructors { c/0; f/2 }
  dynamic { z/0 }
}
inputs { }
output { z }
rules {
  if z = undef then { z := f(c,c) }
}
"""
    p = parse_program(text)
    ct = critical_terms(p)
    names = [format_term(t) for t in ct.terms]
    assert names.index("c") < names.index("f(c,c)")


def test_critical_terms_dedup():
    text = MINI.replace(
        "if x = eps then { z := d1(eps) }",
        "if x = d1(eps) then { z := d1(eps) }\n  if z = d1(eps) then { z := d1(eps) }",
    )
    ct = critical_terms(parse_program(text))
    names = [format_term(t) for t in ct.terms]
    assert names.count("d1(eps)") == 1


def test_critical_terms_stable_under_rule_reordering():
    a = """
vocab { constructors { eps/0; d0/1; d1/1 } dynamic { x/0; z/0 } }
inputs { x } output { z }
rules {
  if x = d0(eps) then { z := d1(eps) }
  if x = d1(eps) then { z := d0(eps) }
}
"""
    b = """
vocab { constructors { eps/0; d0/1; d1/1 } dynamic { x/0; z/0 } }
inputs { x } output { z }
rules {
  if x = d1(eps) then { z := d0(eps) }
  if x = d0(eps) then { z := d1(eps) }
}
"""
    ca = critical_terms(parse_program(a))
    cb = critical_terms(parse_program(b))
    assert set(ca.terms) == set(cb.terms)


def _check_against_definition(p):
    """critical_terms is the distinct subterms of every program term, in
    first-occurrence order, sorted by (compact size, first occurrence), with
    each term's compact size and position."""
    occurrence = {}
    for t in program_terms(p):
        for sub in distinct_subterms(t):
            occurrence.setdefault(sub, len(occurrence))
    want = sorted(occurrence, key=lambda t: (compact_size(t), occurrence[t]))
    ct = critical_terms(p)
    assert ct.terms == tuple(want)
    assert ct.sizes == tuple(compact_size(t) for t in ct.terms)
    assert ct.position == {t: i for i, t in enumerate(ct.terms)}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=st.binary(min_size=64, max_size=256).map(_program))
def test_critical_terms_match_their_definition(p):
    _check_against_definition(p)


def test_critical_terms_of_a_large_term_repeated():
    big = "eps"
    for k in range(300):
        big = f"d{k % 2}({big})"
    rules = "\n".join(f"if x = {big} then {{ z := d1({big}) }}" for _ in range(100))
    p = parse_program(MINI.replace("if x = eps then { z := d1(eps) }", rules))
    _check_against_definition(p)
    assert len(critical_terms(p)) == 304  # x, z, eps, 300 wrappings, d1(big)


def test_inputs_and_output_always_critical():
    p = parse_program(MINI.replace("if x = eps then { z := d1(eps) }", ""))
    names = {format_term(t) for t in critical_terms(p).terms}
    assert {"x", "z"} <= names


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parses_validates_and_roundtrips(name):
    p = load_corpus(name)
    assert validate_program(p) == []
    text = format_program(p)
    q = parse_program(text, base_dir=corpus_path(name).parent)
    assert format_program(q) == text
    assert critical_terms(q).terms == critical_terms(p).terms


def test_undef_usable_only_in_rules():
    p = parse_program(MINI.replace("z := d1(eps)", "z := undef"))
    a = p.rules[0].then[0]
    assert isinstance(a, Assign) and a.rhs is None


HOST = """
vocab {
  constructors { eps/0; d0/1; d1/1 }
  dynamic { x/0; z/0 }
}
inputs { x }
output { z }
oracles { probe/1 = "body.esm"; }
rules { }
"""


@pytest.mark.parametrize("bad, message", [
    ("rules { }\n#", "line 9, col 1: unexpected character '#'"),
    ('oracles { probe/1 = "body.esm }', "line 8, col 21: unexpected character '\"'"),
    ("rules { x := d0(eps) }$", "line 8, col 23: unexpected character '$'"),
])
def test_tokenizer_errors_have_positions(bad, message):
    # The whole text is cut into tokens before it is parsed, so a character
    # no token starts with is reported wherever it is, at its line and column.
    text = HOST.replace('oracles { probe/1 = "body.esm"; }\nrules { }', bad)
    with pytest.raises(TermSyntaxError) as info:
        parse_program(text)
    assert str(info.value) == message


@pytest.mark.parametrize("body, inner", [
    (b"vocab { constructors { c/0 } dynamic { q/0 } } inputs { q } output { w } rules { }",
     "line 1, col 70: undeclared symbol 'w'"),
    (b"\xff\xfe vocab", "'utf-8' codec can't decode byte 0xff"),
])
def test_oracle_body_failure_names_the_body(tmp_path, body, inner):
    # A bad body is reported at the host's declaration, naming the body file.
    (tmp_path / "body.esm").write_bytes(body)
    (tmp_path / "host.esm").write_text(HOST)
    with pytest.raises(TermSyntaxError) as info:
        parse_program_file(tmp_path / "host.esm")
    assert str(info.value).startswith(
        f"line 8, col 21: cannot load oracle body 'body.esm': {inner}"
    )


def test_an_oracle_body_needs_a_base_directory():
    # Program text given as a string has no directory to find a body in.
    with pytest.raises(TermSyntaxError, match="cannot load oracle 'probe': no base directory"):
        parse_program(HOST)


def test_missing_oracle_body_is_reported(tmp_path):
    (tmp_path / "host.esm").write_text(HOST)
    with pytest.raises(TermSyntaxError, match="cannot load oracle body 'body.esm'"):
        parse_program_file(tmp_path / "host.esm")


@pytest.mark.parametrize("decl, message", [
    ("not/1", "'not' is a reserved word"),
    ("x/1", "duplicate symbol 'x'"),
    ("probe/q", "expected an arity, found 'q'"),
])
def test_oracle_declaration_checks(tmp_path, decl, message):
    (tmp_path / "body.esm").write_text(MINI)
    text = HOST.replace("probe/1", decl)
    with pytest.raises(TermSyntaxError, match=message):
        parse_program(text, base_dir=tmp_path)
