"""End-to-end CLI coverage: every subcommand and every exit code."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corpus_path, write_clashing_host

import esmtangle
from esmtangle.cli import encode_size, load_program, main, random_input
from esmtangle.syntax import parse_program
from esmtangle.terms import format_term

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_toggle(capsys):
    code, out, _ = invoke(capsys, "run", "toggle.esm")
    assert code == 0
    assert "output: d0(eps)" in out
    assert "steps: 2" in out


def test_run_bin_succ_nat(capsys):
    code, out, _ = invoke(capsys, "run", "bin_succ.esm", "--input", "x=5", "--nat")
    assert code == 0
    assert "output: 6" in out


def test_run_raw_term_input(capsys):
    code, out, _ = invoke(capsys, "run", "bin_succ", "--input", "x=d0(d1(eps))")
    assert code == 0
    assert "output: d1(d0(eps))" in out  # 5 + 1 = 6, digits "10" after the leading 1


def test_run_missing_file(capsys):
    code, _, err = invoke(capsys, "run", "no_such_program.esm")
    assert code == 1
    assert "not found" in err


def test_run_missing_input(capsys):
    code, _, err = invoke(capsys, "run", "bin_add")
    assert code == 1
    assert "missing --input" in err


def test_run_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.esm"
    bad.write_text("vocab { constructors { c/0 }")
    code, _, err = invoke(capsys, "run", str(bad))
    assert code == 1
    assert "unexpected end of input" in err


def test_run_deep_nesting_exits_one(tmp_path, capsys):
    deep = tmp_path / "deep.esm"
    guard = "(" * 600 + "b = undef" + ")" * 600
    deep.write_text(
        f"""
vocab {{ constructors {{ eps/0; d1/1 }} dynamic {{ b/0 }} }}
inputs {{ }}
output {{ b }}
rules {{ if {guard} then {{ b := d1(eps) }} }}
"""
    )
    code, _, err = invoke(capsys, "run", str(deep))
    assert code == 1
    assert err.strip() == f"{deep}: program is nested too deeply to process"


@pytest.mark.parametrize("op", ["and", "or"])
def test_run_long_guard_chain(tmp_path, capsys, op):
    # A chain is compiled and evaluated by loops, so its length is not a depth.
    long = tmp_path / "long.esm"
    guard = f" {op} ".join(["b = undef"] * 100_000)
    long.write_text(
        f"""
vocab {{ constructors {{ eps/0; d1/1 }} dynamic {{ b/0 }} }}
inputs {{ }}
output {{ b }}
rules {{ if {guard} then {{ b := d1(eps) }} }}
"""
    )
    code, out, err = invoke(capsys, "run", str(long))
    assert (code, err) == (0, "")
    assert out.startswith("output: d1(eps)\nsteps: 1\n")


@pytest.mark.parametrize(
    "rules",
    [
        "if " + "(" * 300 + "b = undef" + ")" * 300 + " then { b := d1(eps) }",
        "if " + "(" * 400 + "b = undef" + ")" * 400 + " then { b := d1(eps) }",
        "if " + "not " * 900 + "b = undef then { b := d1(eps) }",
        "if b = undef then { " * 900 + "b := d1(eps)" + " }" * 900,
        "if b = undef then { b := d1(eps) } "
        "if b = eps then { b := " + "d1(" * 10_000 + "eps" + ")" * 10_000 + " }",
    ],
    ids=["300 parentheses", "400 parentheses", "900 not", "900 if", "10000-deep term"],
)
def test_run_deep_programs(tmp_path, capsys, rules):
    # Nesting that parses runs: the code generated from it is flat, so
    # Python's own limits on nested code do not apply to it, and the compact
    # sizes of a deep term's subterms come from one pass.
    deep = tmp_path / "deep.esm"
    deep.write_text(
        f"""
vocab {{ constructors {{ eps/0; d1/1 }} dynamic {{ b/0 }} }}
inputs {{ }}
output {{ b }}
rules {{ {rules} }}
"""
    )
    code, out, err = invoke(capsys, "run", str(deep))
    assert (code, err) == (0, "")
    assert out.startswith("output: d1(eps)\nsteps: 1\n")
    assert invoke(capsys, "compare", str(deep)) == (0, "equivalent (1 trial)\n", "")


def test_run_validate_failure(tmp_path, capsys):
    bad = tmp_path / "bad.esm"
    bad.write_text(
        """
vocab { constructors { c/0 } dynamic { x/1; z/0 } }
inputs { x }
output { z }
rules { }
"""
    )
    code, _, err = invoke(capsys, "run", str(bad))
    assert code == 1
    assert "must be nullary" in err


def test_a_repeated_input_exits_one(tmp_path, capsys):
    # Neither a host with `inputs { x, x }` nor a body with them under `f/2`
    # runs: the body would drop its first argument.
    (tmp_path / "host.esm").write_text("""
vocab { constructors { c/0; d/0 } dynamic { x/0; z/0 } }
inputs { x, x }
output { z }
rules { if z = undef then { z := x } }
""")
    code, out, err = invoke(capsys, "run", str(tmp_path / "host.esm"), "--input", "x=c")
    assert (code, out) == (1, "") and err.endswith(": duplicate input 'x'\n")
    (tmp_path / "f.esm").write_text((tmp_path / "host.esm").read_text())
    (tmp_path / "host.esm").write_text("""
vocab { constructors { c/0; d/0 } dynamic { z/0 } }
inputs { }
output { z }
oracles { f/2 = "f.esm"; }
rules { if z = undef then { z := f(c, d) } }
""")
    code, out, err = invoke(capsys, "run", str(tmp_path / "host.esm"))
    assert (code, out) == (1, "") and err.endswith(": oracle 'f': duplicate input 'x'\n")


def test_run_clash_exit_code(tmp_path, capsys):
    prog = tmp_path / "clash.esm"
    prog.write_text(
        """
vocab { constructors { c/0; d/1 } dynamic { z/0 } }
inputs { }
output { z }
rules {
  z := c
  z := d(c)
}
"""
    )
    code, _, err = invoke(capsys, "run", str(prog))
    assert code == 2
    assert "clash at location z()" in err


def test_run_fuel_exit_code(capsys):
    code, _, err = invoke(capsys, "run", "bin_succ", "--input", "x=9", "--nat", "--fuel", "5")
    assert code == 3
    assert "fuel exhausted" in err


@pytest.mark.parametrize("argv, exit_code, message", [
    ("run bin_mul --input x=5 --input y=6 --nat --fuel 10 --oracle-cost unit", 3,
     "fuel exhausted"),
    ("run {host} --oracle-cost unit", 2, "clash at location z()"),
])
def test_run_halting_in_a_unit_mode_oracle_during_init(tmp_path, capsys, argv, exit_code,
                                                        message):
    # Unit mode pauses the series for the oracle call, so the halt comes
    # before any point of it; the run still reports its baseline record.
    host = write_clashing_host(tmp_path)
    code, out, err = invoke(capsys, *argv.format(host=host).split())
    assert code == exit_code
    assert "Traceback" not in err
    assert err.splitlines() == [message]
    assert "steps: 0" in out and "tangle: vertices=" in out


def test_run_report_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = invoke(
        capsys, "run", "toggle", "--report", str(report), "--format", "json"
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["steps"] == 2
    assert doc["verdicts"]["growth"] is True


def test_run_report_csv(tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, _, _ = invoke(capsys, "run", "toggle", "--report", str(report), "--format", "csv")
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "i,ops,vertices,edges"
    assert len(lines) == 3  # header + 2 steps


def test_run_undefined_output(tmp_path, capsys):
    prog = tmp_path / "undef.esm"
    prog.write_text(
        """
vocab { constructors { c/0 } dynamic { z/0 } }
inputs { }
output { z }
rules { }
"""
    )
    code, out, _ = invoke(capsys, "run", str(prog))
    assert code == 0
    assert out.startswith("output undefined\nsteps: 0\n")


def test_run_reference_engine(capsys):
    code, out, _ = invoke(capsys, "run", "toggle", "--engine", "reference")
    assert code == 0
    assert "output: d0(eps)" in out


def test_merge_demo_prints_stats(capsys):
    code, out, _ = invoke(capsys, "run", "merge_demo")
    assert code == 0
    assert "tangle: vertices=4 edges=4" in out


def test_compare_random(capsys):
    code, out, _ = invoke(capsys, "compare", "bin_add", "--random", "5", "--seed", "7")
    assert code == 0
    assert "equivalent (5 trials)" in out


def test_compare_divergence_exit(capsys, monkeypatch):
    # A fast engine that corrupts the first tracked value (b) after its second
    # step stands in for an engine bug.
    from conftest import break_fast_engine

    break_fast_engine(monkeypatch, 2, lasting=True)
    code, out, err = invoke(capsys, "compare", "toggle")
    assert (code, out) == (4, "")
    assert err == "divergence on trial 0: step 2, b: critical=undef reference=d0(eps)\n"


def test_compare_stale_read_is_equivalent(capsys):
    code, out, _ = invoke(capsys, "compare", str(DATA / "stale_read.esm"))
    assert code == 0
    assert out == "equivalent (1 trial)\n"


def test_compare_explicit_input(capsys):
    code, out, _ = invoke(capsys, "compare", "bin_succ", "--input", "x=4", "--nat")
    assert code == 0
    assert "equivalent (1 trial)" in out


def test_verify_sweep_passes(capsys):
    code, out, _ = invoke(capsys, "verify", "bin_succ", "--sweep", "4:32")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_single_run(capsys):
    code, out, _ = invoke(capsys, "verify", "toggle")
    assert code == 0
    assert "growth: PASS" in out


def test_verify_bound_violation_exit(capsys, monkeypatch):
    # A hostile bounds set makes every run violate the step budget.
    import esmtangle.cli as cli_mod
    from esmtangle.cost import FrozenBounds

    monkeypatch.setattr(
        cli_mod, "DEFAULT_BOUNDS", FrozenBounds(step_a=0.0, step_b=0.0)
    )
    code, out, _ = invoke(capsys, "verify", "toggle")
    assert code == 5
    assert "step_linear: FAIL" in out


def test_bench_csv(capsys):
    code, out, _ = invoke(capsys, "bench", "bin_succ", "--sweep", "4:16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size,n,steps,init_ops,total_ops,word_bits_max"
    assert len(lines) == 4  # sizes 4, 8, 16
    assert [int(row.split(",")[0]) for row in lines[1:]] == [4, 8, 16]


def test_bench_report_writes_the_csv(tmp_path, capsys):
    _, printed, _ = invoke(capsys, "bench", "bin_succ", "--sweep", "4:16")
    report = tmp_path / "bench.csv"
    argv = ("bench", "bin_succ", "--sweep", "4:16", "--report", str(report))
    assert invoke(capsys, *argv) == (0, "", "")
    assert report.read_text() == printed


def test_bench_requires_sweep(capsys):
    code, _, err = invoke(capsys, "bench", "bin_succ")
    assert code == 1
    assert "requires --sweep" in err


def test_examples_lists_corpus(capsys):
    code, out, _ = invoke(capsys, "examples")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 6
    for name in ["toggle", "bin_succ", "bin_add", "bin_mul", "str_reverse", "merge_demo"]:
        assert any(line.startswith(name) for line in lines)


def test_examples_all_parse_and_validate(capsys):
    # Every bundled program loads cleanly through the CLI loader.
    from esmtangle.cli import BUNDLED, load_program

    for name in BUNDLED:
        program = load_program(name)
        assert program.name.endswith(".esm")


def test_bundled_resolution_prefers_local_file(tmp_path, monkeypatch, capsys):
    local = tmp_path / "toggle.esm"
    local.write_text(corpus_path("toggle").read_text())
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(capsys, "run", "toggle.esm")
    assert code == 0
    assert "output: d0(eps)" in out


@pytest.mark.parametrize("argv", [
    ("run", "toggle", "--bogus"), ("run", "toggle", "--fuel", "x"),
    # Each subcommand rejects the flags it does not read.
    ("compare", "toggle", "--engine", "reference"), ("compare", "toggle", "--report", "x"),
    ("bench", "toggle", "--seed", "1"), ("run", "toggle", "--sweep", "4:8"),
    ("verify", "toggle", "--random", "3"),
])
def test_usage_error_exits_one(capsys, argv):
    # argparse's own exit status 2 would read as "update clash".
    code, _, err = invoke(capsys, *argv)
    assert code == 1
    assert "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "run", "--help")
    assert code == 0
    assert "--oracle-cost" in out


UNARY = """
vocab { constructors { zero/0; s/1 } dynamic { x/0; z/0 } }
inputs { x }
output { z }
rules { if z = undef then { z := s(x) } }
"""

HOST = """
vocab { constructors { eps/0; d0/1; d1/1 } dynamic { b/0 } }
inputs { }
output { b }
oracles { q/1 = "latin.esm"; }
rules { if b = undef then { b := d1(eps) } }
"""


def _fixtures(tmp_path):
    (tmp_path / "un.esm").write_text(UNARY)
    (tmp_path / "nocodec.esm").write_text(UNARY.replace("s/1", "t/1").replace("s(x)", "t(x)"))
    (tmp_path / "latin.esm").write_bytes(b"\xff\xfe vocab")
    (tmp_path / "host.esm").write_text(HOST)


@pytest.mark.parametrize("argv, message", [
    ("run bin_succ --input x=x", "input x = x uses non-constructor symbol 'x'"),
    ("compare bin_succ --input x=x", "input x = x uses non-constructor symbol 'x'"),
    ("bench bin_add --sweep 4:x", "bad sweep range '4:x'"),
    ("bench bin_add --sweep 8:4", "bad sweep range '8:4'"),
    ("run {tmp}/latin.esm", "{tmp}/latin.esm: 'utf-8' codec can't decode byte 0xff"),
    ("run {tmp}/host.esm",
     "{tmp}/host.esm: line 5, col 17: cannot load oracle body 'latin.esm': 'utf-8'"),
    ("run toggle --report {tmp}/missing/x.json", "No such file or directory"),
    ("compare bin_succ --random 0", "--random expects a count of at least 1, got 0"),
    ("compare bin_succ --random -5", "--random expects a count of at least 1, got -5"),
    ("run {tmp}/un.esm --input x=-3 --nat", "unary numerals encode natural numbers, got -3"),
    ("compare bin_succ --fuel -1", "fuel must be at least 0, got -1"),
    ("run bin_succ --input x=4 --nat --fuel -1", "fuel must be at least 0, got -1"),
    ("verify bin_succ --sweep 4:8 --input x=zz --nat", "--sweep and --input are exclusive"),
    ("compare bin_succ --input x=4 --nat --random 3 --seed 5",
     "--random and --input are exclusive"),
    ("compare bin_succ --input x=4 --nat --random 1", "--random and --input are exclusive"),
    ("compare bin_succ --input x=4 --nat --seed 5", "--seed and --input are exclusive"),
    ("verify bin_succ --sweep 4:8 --nat", "--nat applies only to --input values"),
    ("compare bin_succ --random 3 --nat", "--nat applies only to --input values"),
    ("compare toggle --seed 5 --random 3",
     "--random applies only to a program with inputs; toggle.esm has none"),
    ("compare merge_demo --seed 5",
     "--seed applies only to a program with inputs; merge_demo.esm has none"),
    ("verify toggle --sweep 4:16",
     "--sweep applies only to a program with inputs; toggle.esm has none"),
    ("verify {tmp}/nocodec.esm --sweep 4:8", "program has no input codec to sweep"),
    ("run bin_succ --input x4", "--input expects NAME=TERM, got 'x4'"),
    ("run bin_add --input x=4 --input x=5 --nat", "duplicate --input for 'x'"),
    ("run str_reverse --input x=3 --nat", "program has no numeral input codec"),
    ("run bin_succ --nat --input x=abc", "--nat input x is not an integer: 'abc'"),
])
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, argv, message):
    _fixtures(tmp_path)
    code, _, err = invoke(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert message.format(tmp=tmp_path) in err


def test_random_draws_a_unary_input_once(tmp_path, capsys):
    # One `randint(0, 24)` per unary input, so a seed gives the same inputs
    # whichever way they are encoded.
    vocab, rng, twin = parse_program(UNARY).vocab, random.Random(3), random.Random(3)
    for _ in range(30):
        n = twin.randint(0, 24)
        assert format_term(random_input(vocab, rng)) == "s(" * n + "zero" + ")" * n
    _fixtures(tmp_path)
    assert invoke(capsys, "compare", str(tmp_path / "un.esm"), "--random", "3")[0] == 0


def test_encode_size_rejects_an_unknown_codec():
    with pytest.raises(ValueError, match="no input codec for 'octal'"):
        encode_size(load_program("bin_succ").vocab, "octal", 3)


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_an_empty_sweep_is_a_bad_range(capsys, command):
    # The argv is a list: the table above splits on spaces, which drops ''.
    assert invoke(capsys, command, "bin_succ", "--sweep", "") == (1, "", "bad sweep range ''\n")


def test_unary_nat_input(tmp_path, capsys):
    _fixtures(tmp_path)
    code, out, _ = invoke(capsys, "run", str(tmp_path / "un.esm"), "--input", "x=3", "--nat")
    assert code == 0
    assert "output: 4" in out


def test_compare_defaults_to_one_random_trial(capsys):
    code, out, _ = invoke(capsys, "compare", "bin_succ")
    assert code == 0
    assert out == "equivalent (1 trial)\n"


def test_compare_without_inputs_runs_one_trial(capsys):
    code, out, _ = invoke(capsys, "compare", "toggle")
    assert code == 0
    assert out == "equivalent (1 trial)\n"


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_unfinished_run_exits_three_before_any_output(capsys, command):
    # A run that ran out of fuel gets no verdict and no CSV row.
    code, out, err = invoke(capsys, command, "bin_add", "--sweep", "4:8", "--fuel", "10")
    assert (code, out, err) == (3, "", "fuel exhausted\n")


@pytest.mark.parametrize("argv", [
    "compare bin_add --fuel 0",  # fuel_limited before the first transition
    # out of fuel inside initialization's oracle calls: "init fuel_exhausted"
    "compare bin_mul --input x=5 --input y=6 --nat --fuel 10",
])
def test_unfinished_compare_exits_three(capsys, argv):
    code, out, err = invoke(capsys, *argv.split())
    assert (code, out, err) == (3, "", "fuel exhausted\n")


def test_compare_of_a_shared_clash_is_equivalent(tmp_path, capsys):
    # Both engines clash at one location: they agree, so the trial passes.
    prog = tmp_path / "clash.esm"
    prog.write_text(
        """
vocab { constructors { c/0; d/1 } dynamic { z/0 } }
inputs { }
output { z }
rules {
  z := c
  z := d(c)
}
"""
    )
    code, out, err = invoke(capsys, "compare", str(prog))
    assert (code, out, err) == (0, "equivalent (1 trial)\n", "")


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_clashing_run_exits_two_before_any_output(tmp_path, capsys, command):
    prog = tmp_path / "clash.esm"
    prog.write_text(
        """
vocab { constructors { eps/0; d0/1; d1/1 } dynamic { x/0; z/0 } }
inputs { x }
output { z }
rules {
  z := x
  z := d0(x)
}
"""
    )
    code, out, err = invoke(capsys, command, str(prog), "--sweep", "4:8")
    assert code == 2
    assert out == ""
    assert err.startswith("clash at location z()") and err.count("\n") == 1


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Identical invocations are byte-identical across interpreters too: no
    # output may follow the order of a set or dict of hashed strings.
    src = str(Path(esmtangle.__file__).resolve().parents[1])
    commands = [["run", "bin_mul", "--input", "x=3", "--input", "y=2", "--nat",
                 "--report", "REPORT"],
                ["compare", "str_reverse", "--random", "3"],
                ["verify", "bin_succ", "--sweep", "4:16"]]
    seen = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        report = tmp_path / f"report-{seed}.json"
        outputs = []
        for command in commands:
            argv = [str(report) if a == "REPORT" else a for a in command]
            done = subprocess.run([sys.executable, "-m", "esmtangle.cli", *argv], env=env,
                                  capture_output=True, timeout=120)
            outputs.append((command[0], done.returncode, done.stdout, done.stderr))
        outputs.append(("report", report.read_bytes()))
        seen.append(outputs)
    assert seen[0] == seen[1]
    assert [out[1] for out in seen[0][:3]] == [0, 0, 0]
