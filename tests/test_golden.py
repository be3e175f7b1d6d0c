"""Golden digests: traces and cost reports over the corpus stay byte-identical.

Each run is hashed over its text trace, its JSON report and its CSV report.
A change that alters metering on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in CHANGES.md.  A change that must keep every report unchanged
also checks the two digests of the wide corpus sweep,

    PYTHONPATH=src python tests/test_golden.py --sweep --check

which hashes trace + JSON + CSV of every run over bin_add and bin_succ
4..256 and bin_mul 4..64 (sizes doubling, as `esm --sweep` takes them) and
str_reverse of every length 1..6, in both oracle modes, once for each engine:
one digest of the fast-engine runs and one of the reference-engine runs.  It
prints both and exits 1 unless they match data/golden_sweep.sha256 and
data/golden_sweep_ref.sha256.  `--sweep` alone only prints them.  The sweep
takes about a minute, so it is not part of the test suite.  A change to how
plans are built checks that they come out the same with

    PYTHONPATH=src python tests/test_golden.py --plans --check

which hashes the plan of every bundled program and of PLAN_PROGRAMS random
programs decoded as the property test decodes them (a fixed seed): critical
terms, slots, parents, jumping code, dynamic and oracle slots, output slot,
growth constants and oracle plans.  It prints the digest and exits 1 unless
it matches data/golden_plans.sha256; `--plans` alone only prints it.  The
source generated for those plans, their oracle plans' included, as
registered with `linecache`, is hashed by

    PYTHONPATH=src python tests/test_golden.py --source --check

which exits 1 unless it matches data/golden_source.sha256, so a change
meant to leave the generated code alone shows that it did; `--source`
alone only prints it.  A change to the parser checks that it accepts, rejects and reports the same
texts with

    PYTHONPATH=src python tests/test_golden.py --parse --check

which parses seeded token-level mutants (a token dropped, duplicated or
swapped with another, a character inserted, the text cut short; one to
three of them each) of every bundled program and oracle body, of every
program under data/, its subdirectories included, and of input term texts,
and hashes each as its canonical text or as the `type: message` of the
error it raises.  It prints one line per program file, and one for the
input term texts, with two digests, of the first PARSE_SAMPLE mutants of
each text and of all PARSE_MUTANTS, and exits 1 unless they match
data/golden_parse.sha256; `--parse` alone only prints them, in that file's
format.  The suite checks the first digest of every line, so a new program
file needs its own line, and no other line changes.  A change to the
generated code runs all four checks with

    PYTHONPATH=src python tests/test_golden.py --check

which prints every digest and exits 1 if any of them differs.
"""

import hashlib
import io
import json
import linecache
import random
import re
import sys
from pathlib import Path

from conftest import PROGRAMS_DIR, load_corpus
from test_engine_property import _program

from esmtangle import codegen
from esmtangle.cli import encode_size, input_codec, sweep_sizes
from esmtangle.cost import emit_report
from esmtangle.codegen import SLOT_DYN, SLOT_ORACLE, CAssign
from esmtangle.engine import MODE_INLINE, MODE_UNIT, build_plan, run
from esmtangle.syntax import format_program, parse_program, parse_program_file
from esmtangle.terms import format_term, parse_term

GOLDEN = Path(__file__).parent / "data" / "golden.json"
GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.sha256"
GOLDEN_SWEEP_REF = Path(__file__).parent / "data" / "golden_sweep_ref.sha256"
GOLDEN_PLANS = Path(__file__).parent / "data" / "golden_plans.sha256"
GOLDEN_PARSE = Path(__file__).parent / "data" / "golden_parse.sha256"
GOLDEN_SOURCE = Path(__file__).parent / "data" / "golden_source.sha256"
PLAN_PROGRAMS = 3000
PARSE_MUTANTS = 600
PARSE_SAMPLE = 60

# (program, sizes); None means the program takes no inputs.  Sizes are
# numeral values for numeral programs and string lengths for str_reverse.
SWEEPS = [
    ("toggle", [None]),
    ("merge_demo", [None]),
    ("bin_succ", [4, 8, 16, 32]),
    ("bin_add", [4, 8, 16, 32]),
    ("bin_mul", [4, 8]),
    ("str_reverse", [1, 2, 3, 4]),
]


WIDE_SWEEP = [
    ("bin_add", sweep_sizes("4:256")),
    ("bin_succ", sweep_sizes("4:256")),
    ("bin_mul", sweep_sizes("4:64")),
    ("str_reverse", range(1, 7)),
]


def _inputs(program, size):
    if size is None:
        return []
    codec = input_codec(program.vocab)
    return [encode_size(program.vocab, codec, size) for _ in program.inputs]


def _hash_run(h, program, inputs, engine, mode):
    trace = io.StringIO()
    r = run(program, inputs, engine=engine, oracle_mode=mode, trace=trace)
    h.update(trace.getvalue().encode())
    h.update(emit_report(r.cost))
    h.update(emit_report(r.cost, format="csv"))


def digests() -> dict[str, str]:
    out = {}
    for name, sizes in SWEEPS:
        program = load_corpus(name)
        for size in sizes:
            for engine in ("critical", "reference"):
                for mode in (MODE_INLINE, MODE_UNIT):
                    h = hashlib.sha256()
                    _hash_run(h, program, _inputs(program, size), engine, mode)
                    out[f"{name}[{size}] {engine} {mode}"] = h.hexdigest()
    return out


def sweep_digest(engine: str) -> str:
    """The run count and one sha256 over the wide sweep's runs of `engine`,
    as the line of its file in SWEEP_FILES."""
    h, runs = hashlib.sha256(), 0
    for name, sizes in WIDE_SWEEP:
        program = load_corpus(name)
        for size in sizes:
            for mode in (MODE_INLINE, MODE_UNIT):
                _hash_run(h, program, _inputs(program, size), engine, mode)
                runs += 1
    return f"{runs} runs sha256={h.hexdigest()}"


SWEEP_FILES = {"critical": GOLDEN_SWEEP, "reference": GOLDEN_SWEEP_REF}


def _plan_lines(plan):
    """A plan as text lines, its oracle plans after it."""
    yield f"plan {plan.program.name}"
    yield from (format_term(t) for t in plan.criticals.terms)
    for kind, sym, kids in plan.slots:
        yield f"slot {kind} {sym!r} {kids}"
    yield f"parents {plan.parents}"
    for ins in plan.code:
        if type(ins) is CAssign:
            yield f"assign {ins.sym!r} {ins.arg_slots} {ins.rhs_slot} {ins.next}"
        else:
            yield f"test {ins.lhs} {ins.rhs} {ins.then} {ins.orelse}"
    dyn: dict[str, tuple[int, ...]] = {}
    for i, s in enumerate(plan.slots):
        if s.kind == SLOT_DYN:
            dyn[s.sym.name] = dyn.get(s.sym.name, ()) + (i,)
    oracle = tuple(i for i, s in enumerate(plan.slots) if s.kind == SLOT_ORACLE)
    yield f"dyn {list(dyn.items())} oracle {oracle} z {plan.z_slot}"
    yield f"c_program {plan.c_program} init_weight {plan.init_weight}"
    for name, oplan in plan.oracle_plans.items():
        yield f"oracle {name}"
        yield from _plan_lines(oplan)


def _plans():
    """The plan of every bundled program, then of PLAN_PROGRAMS random ones."""
    rng = random.Random(2012)
    programs = [parse_program_file(path) for path in sorted(PROGRAMS_DIR.glob("*.esm"))]
    programs += [_program(rng.randbytes(rng.randint(64, 256))) for _ in range(PLAN_PROGRAMS)]
    return map(build_plan, programs)


def plans_digest() -> str:
    """The plan count and one sha256 over the plans, as the line
    data/golden_plans.sha256 holds."""
    h, plans = hashlib.sha256(), 0
    for plan in _plans():
        for line in _plan_lines(plan):
            h.update(line.encode() + b"\n")
        plans += 1
    return f"{plans} plans sha256={h.hexdigest()}"


def _generated_sources(plan):
    """The source generated for a plan, as registered with `linecache`, and
    then its oracle plans'."""
    yield "".join(linecache.cache[plan.rules.__code__.co_filename][2])
    for oplan in plan.oracle_plans.values():
        yield from _generated_sources(oplan)


def source_digest() -> str:
    """The plan count and one sha256 over the source generated for the plans
    of `--plans`, as the line data/golden_source.sha256 holds."""
    h, plans = hashlib.sha256(), 0
    for plan in _plans():
        for text in _generated_sources(plan):
            h.update(text.encode())
        plans += 1
    return f"{plans} plans source sha256={h.hexdigest()}"


# Tokens as the mutations see them; written out here so that the mutants do
# not depend on the tokenizer under test.
_MUTATION_TOKEN = re.compile(r'[A-Za-z_][A-Za-z0-9_]*|\d+|"[^"\n]*"|:=|\S')
# Inserted characters: ones that no token takes, and Unicode whitespace and
# a Unicode digit, which the tokenizer's \s and \d classes take.
_INSERTED = '#@$!%&*?\\~`\'-+.[]<>|"\x00\u00e9\u00a0\u2028\u0663'

# Weighted so that an inserted character, which is reported before anything
# else, does not hide most of the syntax errors.
_OPS = ("drop", "drop", "duplicate", "duplicate", "swap", "swap", "bad", "truncate")


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        spans = [m.span() for m in _MUTATION_TOKEN.finditer(text)]
        if not spans:
            break
        s, e = rng.choice(spans)
        op = rng.choice(_OPS)
        if op == "drop":
            text = text[:s] + text[e:]
        elif op == "duplicate":
            text = text[:e] + rng.choice(" \n") + text[s:e] + text[e:]
        elif op == "swap":
            s2, e2 = rng.choice(spans)
            if s2 < s:
                s, e, s2, e2 = s2, e2, s, e
            if s2 >= e:
                text = text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]
        elif op == "bad":
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_INSERTED) + text[at:]
        else:
            text = text[: rng.choice((s, e))]
    return text


DATA = Path(__file__).parent / "data"


def _parse_sources():
    """(file, name, text, parse) for each text whose mutants are hashed,
    `file` being the line it is hashed into: a program's path under its
    directory, or "inputs" for an input term text; `parse` returns the
    canonical text of what it parsed."""
    for root in (PROGRAMS_DIR, DATA):
        for path in sorted(root.rglob("*.esm")):
            def parse(text, base=path.parent, name=path.name):
                return format_program(parse_program(text, base_dir=base, name=name))

            name = path.relative_to(root).as_posix()
            yield name, name, path.read_text(encoding="utf-8"), parse
    for name in ("bin_succ", "bin_mul", "str_reverse", "add_unary"):
        vocab = parse_program_file(PROGRAMS_DIR / f"{name}.esm").vocab
        codec = input_codec(vocab)
        for size in (1, 5, 12):
            text = format_term(encode_size(vocab, codec, size))
            spaced = text.replace("(", " (\n ").replace(")", " ) ")
            for k, src in enumerate((text, spaced)):
                def parse(text, vocab=vocab):
                    return format_term(parse_term(text, vocab))

                yield "inputs", f"{name} input {size}/{k}", src, parse


def parse_digests(per_text: int) -> dict[str, str]:
    """Per line of data/golden_parse.sha256, the mutant count and one sha256
    over the first `per_text` mutants of each of its texts."""
    hashes: dict[str, tuple] = {}
    hide = {str(PROGRAMS_DIR.parent): "<dir>", str(DATA): "<data>"}
    for file, name, text, parse in _parse_sources():
        h, mutants = hashes.get(file, (hashlib.sha256(), 0))
        for k in range(per_text):
            mutant = _mutate(text, random.Random(f"{name}/{k}"))
            try:
                out = parse(mutant)
            except Exception as exc:  # every outcome is hashed, errors too
                out = f"{type(exc).__name__}: {exc}"
                for path, label in hide.items():
                    out = out.replace(path, label)
            h.update(f"{name}/{k}\n{out}\n".encode())
        hashes[file] = h, mutants + per_text
    return {file: f"{mutants} mutants sha256={h.hexdigest()}" for file, (h, mutants) in hashes.items()}


def parse_lines() -> list[str]:
    """The lines of data/golden_parse.sha256: per file, its sample and full digests."""
    sample, full = parse_digests(PARSE_SAMPLE), parse_digests(PARSE_MUTANTS)
    return [f"{file} sample {sample[file]} full {full[file]}" for file in sample]


def test_golden_parse_sample():
    recorded = dict(line.split(" full ")[0].split(" sample ") for line in
                    GOLDEN_PARSE.read_text().splitlines())
    assert parse_digests(PARSE_SAMPLE) == recorded


_LOOP_CORE = r"\bcore = ctx\.core\b|\bcore\.(tangle|series|fuel_left|check|record|steps_reported|last_ops|trace|trace_line)\b"


def test_generated_code_reads_the_run_core_only_for_its_store(monkeypatch):
    # Every field of the run core but the store is the engine's: the source
    # generated for each plan of `--plans`, oracle plans included, names the
    # core only in `ctx.core.tangle`, but for the two transition loops, which
    # take it as `core = ctx.core` and read only the fields of a transition:
    # the store, the series, the fuel, the invariant check, the record, the
    # step count and last count of ops, and the trace.  The sources are
    # checked as they reach the compiler, which is skipped for time; with the
    # cache emptied, a plan that compiles nothing shares a checked source.
    stub = compile("def stub(): pass", "<stub>", "exec").co_consts[0]
    checked = []

    def check(name, functions):
        for lines in functions:
            loop = lines[0].startswith(("def critical(", "def reference("))
            text = re.sub(_LOOP_CORE if loop else r"\bctx\.core\.tangle\b", "", "\n".join(lines))
            assert not re.search(r"\bcore\b", text), f"{name}: {lines[0]}"
        checked.append(name)
        return tuple(stub.replace(co_name=lines[0][4:lines[0].index("(")]) for lines in functions)

    monkeypatch.setattr(codegen, "_compiled", {})
    monkeypatch.setattr(codegen, "_compile", check)
    plans = sum(1 for _ in _plans())
    assert plans == PLAN_PROGRAMS + len(list(PROGRAMS_DIR.glob("*.esm")))
    assert len(checked) > PLAN_PROGRAMS // 2


def test_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"trace or report bytes changed for {changed}"


def _sweep_check(check: bool) -> list[str]:
    differ = []
    for engine, path in SWEEP_FILES.items():
        line = sweep_digest(engine)
        print(f"{engine}: {line}")
        if check and line != path.read_text().strip():
            differ.append(f"sweep digest differs from {path}")
    return differ


def _line_check(digest, path: Path, check: bool) -> list[str]:
    line = digest()
    print(line)
    if check and line != path.read_text().strip():
        return [f"digest differs from {path}"]
    return []


def _plans_check(check: bool) -> list[str]:
    return _line_check(plans_digest, GOLDEN_PLANS, check)


def _source_check(check: bool) -> list[str]:
    return _line_check(source_digest, GOLDEN_SOURCE, check)


def _parse_check(check: bool) -> list[str]:
    lines = parse_lines()
    print("\n".join(lines))
    if check and lines != GOLDEN_PARSE.read_text().splitlines():
        return [f"parse digest differs from {GOLDEN_PARSE}"]
    return []


# Each digest kind: print it and, when checking, what differs from its file.
CHECKS = {
    "--sweep": _sweep_check, "--plans": _plans_check, "--source": _source_check,
    "--parse": _parse_check,
}


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
        for engine, path in SWEEP_FILES.items():
            path.write_text(sweep_digest(engine) + "\n")
    elif args == ["--check"]:
        differ = [line for check in CHECKS.values() for line in check(True)]
        sys.exit("\n".join(differ) or None)
    elif args[:1] and args[0] in CHECKS and args[1:] in ([], ["--check"]):
        sys.exit("\n".join(CHECKS[args[0]](bool(args[1:]))) or None)
    else:
        sys.exit("usage: python tests/test_golden.py "
                 "--write | --check | --sweep [--check] | --plans [--check] | --source [--check] "
                 "| --parse [--check]")
