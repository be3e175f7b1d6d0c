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
it matches data/golden_plans.sha256; `--plans` alone only prints it.
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

from conftest import PROGRAMS_DIR, load_corpus
from test_engine_property import _program

from esmtangle.cli import encode_size, input_codec, sweep_sizes
from esmtangle.cost import emit_report
from esmtangle.codegen import CAssign
from esmtangle.engine import MODE_INLINE, MODE_UNIT, build_plan, run
from esmtangle.syntax import parse_program_file
from esmtangle.terms import format_term

GOLDEN = Path(__file__).parent / "data" / "golden.json"
GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.sha256"
GOLDEN_SWEEP_REF = Path(__file__).parent / "data" / "golden_sweep_ref.sha256"
GOLDEN_PLANS = Path(__file__).parent / "data" / "golden_plans.sha256"
PLAN_PROGRAMS = 3000

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
    yield f"dyn {list(plan.dyn_slots.items())} oracle {plan.oracle_slots} z {plan.z_slot}"
    yield f"c_program {plan.c_program} init_weight {plan.init_weight}"
    for name, oplan in plan.oracle_plans.items():
        yield f"oracle {name}"
        yield from _plan_lines(oplan)


def plans_digest() -> str:
    """The plan count and one sha256 over the plans, as the line
    data/golden_plans.sha256 holds."""
    h, plans = hashlib.sha256(), 0
    rng = random.Random(2012)
    programs = [parse_program_file(path) for path in sorted(PROGRAMS_DIR.glob("*.esm"))]
    programs += [_program(rng.randbytes(rng.randint(64, 256))) for _ in range(PLAN_PROGRAMS)]
    for program in programs:
        for line in _plan_lines(build_plan(program)):
            h.update(line.encode() + b"\n")
        plans += 1
    return f"{plans} plans sha256={h.hexdigest()}"


def test_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"trace or report bytes changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
        for engine, path in SWEEP_FILES.items():
            path.write_text(sweep_digest(engine) + "\n")
    elif sys.argv[1:] in (["--sweep"], ["--sweep", "--check"]):
        differ = []
        for engine, path in SWEEP_FILES.items():
            line = sweep_digest(engine)
            print(f"{engine}: {line}")
            if sys.argv[2:] and line != path.read_text().strip():
                differ.append(str(path))
        if differ:
            sys.exit(f"sweep digest differs from {', '.join(differ)}")
    elif sys.argv[1:] in (["--plans"], ["--plans", "--check"]):
        line = plans_digest()
        print(line)
        if sys.argv[2:] and line != GOLDEN_PLANS.read_text().strip():
            sys.exit(f"plan digest differs from {GOLDEN_PLANS}")
    else:
        sys.exit("usage: python tests/test_golden.py "
                 "--write | --sweep [--check] | --plans [--check]")
