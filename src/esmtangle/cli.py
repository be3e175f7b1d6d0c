"""Command-line front end: run programs, compare engines, verify bounds, sweep.

Exit codes: 0 success, 1 usage/parse/validate failure, 2 update clash,
3 fuel exhausted, 4 engine divergence, 5 bound violation.
"""

from __future__ import annotations

import argparse
import random
import sys
from importlib import resources
from pathlib import Path

from .cost import DEFAULT_BOUNDS, emit_report, run_all_checks
from .engine import CLASH, FUEL_EXHAUSTED, OUTPUT, UNDEF_OUTPUT, compare_engines, run
from .syntax import Program, parse_program_file, validate_program
from .terms import (
    Symbol,
    Term,
    Vocabulary,
    decode_nat_binary,
    encode_nat_binary,
    format_term,
    parse_term,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLASH = 2
EXIT_FUEL = 3
EXIT_DIVERGED = 4
EXIT_BOUND = 5

BUNDLED = {
    "toggle": "two-rule flip-flop; terminates with output d0(eps)",
    "bin_succ": "successor on binary numerals (enumerate-and-convert)",
    "bin_add": "addition on binary numerals via unary counting",
    "bin_mul": "multiplication with oracles dec/addu/enc (repeated addition)",
    "str_reverse": "string reversal over the two-letter alphabet a, b",
    "merge_demo": "builds f(c,c) and g(c,c) in one store: 4 vertices, 4 edges",
}


def bundled_dir() -> Path:
    return Path(resources.files("esmtangle") / "programs")


def resolve_program(name: str) -> Path | None:
    path = Path(name)
    if path.is_file():
        return path
    stem = name.removesuffix(".esm")
    if stem in BUNDLED:
        cand = bundled_dir() / f"{stem}.esm"
        if cand.is_file():
            return cand
    return None


def load_program(name: str) -> Program:
    """Parse and validate a program; any failure is a ValueError naming the file."""
    path = resolve_program(name)
    if path is None:
        raise ValueError(f"program not found: {name}")
    try:
        program = parse_program_file(path)
    except (OSError, ValueError) as exc:  # TermSyntaxError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    diags = validate_program(program)
    if diags:
        raise ValueError("\n".join(f"{path}: {d}" for d in diags))
    return program


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


# --- Input codecs -----------------------------------------------------------------
# Inferred from the program's constructor signature: the first codec whose
# constructors it declares wins (bin_* programs also carry the unary counters).

_CODECS = {
    "binary": (Symbol("eps", 0), Symbol("d0", 1), Symbol("d1", 1)),
    "string": (Symbol("eps", 0), Symbol("a", 1), Symbol("b", 1)),
    "unary": (Symbol("zero", 0), Symbol("s", 1)),
}


def input_codec(vocab: Vocabulary) -> str | None:
    for codec, constructors in _CODECS.items():
        if all(vocab.get(c.name) == c for c in constructors):
            return codec
    return None


def _chain(vocab: Vocabulary, base: str, names) -> Term:
    """`base` under the unary constructors `names`, the first innermost."""
    t = Term(vocab.get(base))
    for name in names:
        t = Term(vocab.get(name), (t,))
    return t


def encode_size(vocab: Vocabulary, codec: str, size: int) -> Term:
    if codec == "binary":
        return encode_nat_binary(size, vocab)
    if codec == "unary":
        if size < 0:
            raise ValueError(f"unary numerals encode natural numbers, got {size}")
        return _chain(vocab, "zero", "s" * size)
    if codec == "string":
        return _chain(vocab, "eps", ("a" if i % 2 else "b" for i in range(size)))
    raise ValueError(f"no input codec for {codec!r}")


def decode_nat(t: Term) -> int | None:
    try:
        return decode_nat_binary(t)
    except ValueError:
        pass
    n = 0
    while t.head.name == "s" and t.head.arity == 1:
        n += 1
        t = t.args[0]
    if t.head.name == "zero" and t.head.arity == 0:
        return n
    return None


def random_input(vocab: Vocabulary, rng: random.Random) -> Term:
    codec = input_codec(vocab)
    if codec == "string":
        return _chain(vocab, "eps", [rng.choice("ab") for _ in range(rng.randint(0, 5))])
    if codec is None:
        raise ValueError("program has no input codec; give explicit --input")
    size = rng.randint(1, 16) if codec == "binary" else rng.randint(0, 24)
    return encode_size(vocab, codec, size)


def parse_inputs(program: Program, pairs: list[str], as_nat: bool) -> list[Term]:
    given: dict[str, Term] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--input expects NAME=TERM, got {pair!r}")
        name, _, text = pair.partition("=")
        name = name.strip()
        if not any(s.name == name for s in program.inputs):
            raise ValueError(f"{name!r} is not an input of this program")
        if name in given:
            raise ValueError(f"duplicate --input for {name!r}")
        if as_nat:
            codec = input_codec(program.vocab)
            if codec not in ("binary", "unary"):
                raise ValueError("program has no numeral input codec")
            try:
                size = int(text)
            except ValueError:
                raise ValueError(f"--nat input {name} is not an integer: {text!r}") from None
            given[name] = encode_size(program.vocab, codec, size)
        else:
            given[name] = parse_term(text, program.vocab)
    missing = [s.name for s in program.inputs if s.name not in given]
    if missing:
        raise ValueError(f"missing --input for: {', '.join(missing)}")
    return [given[s.name] for s in program.inputs]


def sweep_sizes(range_text: str) -> list[int]:
    lo, _, hi = range_text.partition(":")
    try:
        lo_v, hi_v = int(lo), int(hi)
    except ValueError:
        lo_v = hi_v = 0
    if lo_v < 1 or hi_v < lo_v:
        raise ValueError(f"bad sweep range {range_text!r}")
    sizes = []
    size = lo_v
    while size <= hi_v:
        sizes.append(size)
        size *= 2
    return sizes


def _trials(program: Program, args) -> list[tuple[int | None, list[Term]]]:
    """The (size, inputs) of every run a subcommand makes: one per --sweep
    size, else the --input bindings, else one per --random trial (one when
    --random is not given).  Naming two input sources is an error, and so is
    a flag the chosen source would ignore, such as one on a program without
    inputs."""
    vocab, inputs = program.vocab, program.inputs
    given, seed = getattr(args, "input", []), getattr(args, "seed", None)
    sweep, count = getattr(args, "sweep", None), getattr(args, "random", None)
    for flag, value in (("--sweep", sweep), ("--random", count), ("--seed", seed)):
        if value is not None and given:
            raise ValueError(f"{flag} and --input are exclusive; give one of them")
        if value is not None and not inputs:
            raise ValueError(f"{flag} applies only to a program with inputs; "
                             f"{program.name} has none")
    if getattr(args, "nat", False) and not given and args.command != "run":
        raise ValueError("--nat applies only to --input values")  # and to run's output
    if count is not None and count < 1:
        raise ValueError(f"--random expects a count of at least 1, got {count}")
    if sweep is not None:
        codec = input_codec(vocab)
        if codec is None:
            raise ValueError("program has no input codec to sweep")
        return [
            (size, [encode_size(vocab, codec, size) for _ in inputs])
            for size in sweep_sizes(sweep)
        ]
    if given or not hasattr(args, "random"):
        return [(None, parse_inputs(program, given, args.nat))]
    rng = random.Random(seed or 0)
    return [(None, [random_input(vocab, rng) for _ in inputs]) for _ in range(count or 1)]


# --- Subcommands --------------------------------------------------------------------


def _write_report(args, report) -> None:
    if args.report:
        Path(args.report).write_bytes(emit_report(report, format=args.format))


def _outcome_exit(result) -> int:
    if result.outcome == CLASH:
        print(f"clash at location {result.clash}", file=sys.stderr)
        return EXIT_CLASH
    if result.outcome == FUEL_EXHAUSTED:
        print("fuel exhausted", file=sys.stderr)
        return EXIT_FUEL
    return EXIT_OK


def cmd_run(args) -> int:
    program = load_program(args.program)
    [(_, inputs)] = _trials(program, args)
    result = run(
        program, inputs, fuel=args.fuel, engine=args.engine,
        oracle_mode=args.oracle_cost,
    )
    if result.outcome == OUTPUT:
        if args.nat:
            value = decode_nat(result.output)
            shown = str(value) if value is not None else format_term(result.output)
        else:
            shown = format_term(result.output)
        print(f"output: {shown}")
    elif result.outcome == UNDEF_OUTPUT:
        print("output undefined")
    print(f"steps: {result.steps}")
    print(f"n: {result.n}")
    print(f"ram_ops: {result.cost.total_ops}")
    last = result.cost.per_step[-1]
    print(f"tangle: vertices={last.vertices} edges={last.edges}")
    _write_report(args, result.cost)
    return _outcome_exit(result)


def cmd_compare(args) -> int:
    program = load_program(args.program)
    trials = _trials(program, args)
    for i, (_, inputs) in enumerate(trials):
        verdict = compare_engines(program, inputs, fuel=args.fuel)
        if not verdict.equivalent:
            d = verdict.divergence
            where = format_term(d.term) if d.term is not None else "run outcome"
            print(
                f"divergence on trial {i}: step {d.step}, {where}: "
                f"critical={d.critical_value} reference={d.reference_value}",
                file=sys.stderr,
            )
            return EXIT_DIVERGED
        if verdict.outcome in ("fuel_limited", f"init {FUEL_EXHAUSTED}"):
            # The engines agreed as far as the fuel took them, which is not
            # equivalence; a clash both engines hit alike still is.
            print("fuel exhausted", file=sys.stderr)
            return EXIT_FUEL
    print(f"equivalent ({len(trials)} trial{'s' if len(trials) != 1 else ''})")
    return EXIT_OK


def cmd_verify(args) -> int:
    program = load_program(args.program)
    worst: dict[str, tuple[bool, str]] = {}
    for _, inputs in _trials(program, args):
        result = run(program, inputs, fuel=args.fuel, oracle_mode=args.oracle_cost)
        code = _outcome_exit(result)
        if code:
            return code
        verdicts, _ = run_all_checks(result.cost, DEFAULT_BOUNDS)
        for name, v in verdicts.items():
            if name not in worst or (worst[name][0] and not v.passed):
                worst[name] = (v.passed, v.detail)
    failed = False
    for name in ("growth", "step_linear", "total_bound"):
        passed, detail = worst[name]
        print(f"{name}: {'PASS' if passed else 'FAIL'}{' - ' + detail if not passed else ''}")
        failed = failed or not passed
    _write_report(args, result.cost)
    return EXIT_BOUND if failed else EXIT_OK


def cmd_bench(args) -> int:
    program = load_program(args.program)
    if args.sweep is None:
        raise ValueError("bench requires --sweep LO:HI")
    rows = ["size,n,steps,init_ops,total_ops,word_bits_max"]
    for size, inputs in _trials(program, args):
        result = run(program, inputs, fuel=args.fuel, oracle_mode=args.oracle_cost)
        code = _outcome_exit(result)
        if code:
            return code
        c = result.cost
        rows.append(
            f"{size},{c.n},{c.steps},{c.init_ops},{c.total_ops},{c.word_bits_max}"
        )
    text = "\n".join(rows) + "\n"
    if args.report:
        Path(args.report).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_examples(args) -> int:
    for name, blurb in BUNDLED.items():
        print(f"{name:12s} {blurb}")
    return EXIT_OK


_FLAGS = {
    "--input": dict(action="append", default=[], metavar="NAME=TERM",
                    help="input binding; repeatable"),
    "--nat": dict(action="store_true",
                  help="treat inputs/outputs as numerals via the program codec"),
    "--fuel": dict(type=int, default=10**6),
    "--engine": dict(choices=["critical", "reference"], default="critical"),
    "--oracle-cost": dict(choices=["unit", "inline"], default="inline"),
    "--report": dict(metavar="PATH"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--seed": dict(type=int, help="random trial seed (default 0)"),
    "--sweep": dict(metavar="LO:HI"),
    "--random": dict(type=int, metavar="COUNT", help="random trials (default 1)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esm",
        description="Run and measure effective state machine programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *names):
        p = sub.add_parser(name, help=help)
        p.add_argument("program", help="program file or bundled example name")
        for flag in names:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)

    # Each subcommand takes exactly the flags it reads.
    command("run", cmd_run, "execute a program",
            "--input", "--nat", "--fuel", "--engine", "--oracle-cost", "--report", "--format")
    command("compare", cmd_compare, "differentially test the two engines",
            "--input", "--nat", "--fuel", "--seed", "--random")
    command("verify", cmd_verify, "check the cost bounds on runs",
            "--input", "--nat", "--fuel", "--oracle-cost", "--report", "--format", "--sweep")
    command("bench", cmd_bench, "sweep input sizes and emit CSV",
            "--fuel", "--oracle-cost", "--report", "--sweep")

    ex_p = sub.add_parser("examples", help="list bundled programs")
    ex_p.set_defaults(fn=cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:  # bad program, input, flag value or sweep range
        return _fail(str(exc))
    except RecursionError:  # the parser on `(`, `not` and nested `if`, and the
        # rule compiler on nested `if`, still recurse (format_program too)
        return _fail(f"{args.program}: program is nested too deeply to process")
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:  # for example an unwritable --report path
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
