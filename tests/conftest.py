"""Shared helpers: corpus loading and input codecs used across the suite."""

from pathlib import Path

import pytest

from esmtangle.cli import encode_size, input_codec
from esmtangle.syntax import Program, parse_program_file, validate_program
from esmtangle.terms import Term, Vocabulary, encode_nat_binary

PROGRAMS_DIR = Path(__file__).resolve().parents[1] / "src" / "esmtangle" / "programs"

CORPUS = ["toggle", "bin_succ", "bin_add", "bin_mul", "str_reverse", "merge_demo"]


def corpus_path(name: str) -> Path:
    return PROGRAMS_DIR / f"{name}.esm"


def load_corpus(name: str) -> Program:
    program = parse_program_file(corpus_path(name))
    diags = validate_program(program)
    assert diags == [], f"{name}: {diags}"
    return program


def unary_term(vocab: Vocabulary, n: int) -> Term:
    t = Term(vocab.get("zero"))
    s = vocab.get("s")
    for _ in range(n):
        t = Term(s, (t,))
    return t


def unary_value(t: Term) -> int:
    n = 0
    while t.head.name == "s":
        n += 1
        t = t.args[0]
    assert t.head.name == "zero"
    return n


def string_term(vocab: Vocabulary, text: str) -> Term:
    t = Term(vocab.get("eps"))
    for ch in reversed(text):
        t = Term(vocab.get(ch), (t,))
    return t


def string_value(t: Term) -> str:
    out = []
    while t.head.name != "eps":
        out.append(t.head.name)
        t = t.args[0]
    return "".join(out)


def binary_input(vocab: Vocabulary, n: int) -> Term:
    return encode_nat_binary(n, vocab)


# Per bundled program, the sizes of small inputs, encoded as `esm --random`
# and `--sweep` encode them (`cli.encode_size`).
SMALL_SIZES = {
    "toggle": (), "bin_succ": (9,), "bin_add": (5, 6), "bin_mul": (3, 4),
    "str_reverse": (3,), "merge_demo": (),
}


def small_inputs(program: Program, name: str) -> list[Term]:
    return [encode_size(program.vocab, input_codec(program.vocab), n) for n in SMALL_SIZES[name]]


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in CORPUS}


# An oracle body whose rules clash on `z`, and a host whose initialization
# calls it: a two-file program that halts during initialization.
CLASHING_BODY = """
vocab { constructors { c/0; d/0 } dynamic { a/0; z/0 } }
inputs { a }
output { z }
rules { z := c z := d }
"""

CLASHING_HOST = """
vocab { constructors { c/0; d/0 } dynamic { z/0 } }
inputs { }
output { z }
oracles { f/1 = "body.esm"; }
rules { z := f(c) }
"""


def write_clashing_host(directory: Path) -> Path:
    """Write the clashing two-file program into `directory`; the host's path."""
    (directory / "body.esm").write_text(CLASHING_BODY)
    host = directory / "host.esm"
    host.write_text(CLASHING_HOST)
    return host
