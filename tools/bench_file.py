#!/usr/bin/env python3
"""Measure one source checkout and record the numbers in a BENCH file.

    python3 tools/bench_file.py CHECKOUT --out BENCH_<n>.json [--label NAME]
    python3 tools/bench_file.py CHECKOUT --check OLD.json

CHECKOUT is the root of a source tree of this repository (this one, or a copy
of another commit).  Everything runs from CHECKOUT's own sources, in child
processes, one at a time:

* `perfbench/run.py --seconds 8 --trace 0` on every workload of its
  `perfbench/jobs.py` at seeds 1 and 2026, keeping the end-to-end metrics
  of the last line;
* bin_add with both inputs 256 (`bin_add[256]`) on the fast and the
  reference engine, 5 runs: steps, total_ops, the median wall seconds, and
  the median, min and max of the seconds scaled to nominal host speed by
  perfbench's `jobs.HostSpeed`, as run.py scales its times, and the median
  us/step.  This figure is not a bar: one process's scaled times spread
  widely, and two generations on one tree have differed by more than a
  change's effect, so a wall-clock claim rests on alternating pairs of
  `perfbench/run.py` runs;
* per bundled program, the CPython bytecodes of two `build_plan` calls,
  each counted in a child process of its own by `sys.settrace` opcode
  events: a cold one, with `codegen._compiled` cleared, and one on the
  program parsed again, which an equal program's plan (or compiled code)
  may serve (`plan_bytecodes`);
* the bytecodes and Python frames (trace call events) per step of a `run`,
  for each run of STEP_RUNS, one child process per run, traced only around
  a `run` whose plan is already cached (`step_counts`), and the same per
  compared step of `compare_engines` on each of COMPARE_RUNS
  (`compare_counts`);
* for the report of a fast-engine bin_add[256] run (`report_counts`): its
  JSON length in bytes, the bytecodes of `run_all_checks` then
  `emit_report` on it, the tracemalloc peaks in bytes of `emit_report`
  (`peak_bytes`) and of a second `run_all_checks` (`hit_bytes`, a cache
  hit, so a copy of the series in the check path shows), each in a child
  process of its own, and the median milliseconds of REPORT_REPEAT
  `emit_report` calls.  Each peak is measured in two child processes and
  kept only if both give the same value, else it is null;
* the tier-1 suite (`pytest -q --continue-on-collection-errors`): its wall
  time and its summary line;
* the line count of `src/esmtangle/*.py`.

The numbers go into FILE under `--label` (default: CHECKOUT's directory
name), next to the labels already there, so two runs, one per checkout, make
a before/after file.  Wall-clock numbers are for the host named in the file.

The counts are recorded with the Python version and, unlike wall time,
repeat exactly from run to run on one version.  `--check OLD.json` counts
CHECKOUT again (the counts only) and compares them with the last label of
OLD.json: it names every count that rose by more than 1% and exits 1 if
one did, or exits 2 if OLD.json's counts were taken on another Python
version.  Since an upgrade moves every count, it is not part of the test
suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SEEDS = (1, 2026)
SECONDS = 8  # run.py's --seconds per workload and seed
REPEAT = 5  # bin_add[256] runs per engine
# (program, size of every input, oracle mode) of each per-step count
STEP_RUNS = [("bin_succ", 64, "inline"), ("bin_add", 64, "inline"), ("bin_mul", 8, "unit"),
             ("bin_mul", 8, "inline"), ("str_reverse", 4, "inline")]
# the same, for each compare_engines count; bin_mul's compared steps include nested runs
COMPARE_RUNS = [("bin_add", 64, "inline"), ("bin_mul", 8, "inline"), ("bin_mul", 8, "unit")]
RISE = 0.01  # the share by which `--check` lets a count rise
REPORT_REPEAT = 15  # timed emit_report calls per report

# Runs in CHECKOUT's sources; prints one JSON line per engine.
_BIN_ADD = """
import json, statistics, sys
sys.path.insert(0, "perfbench")
from jobs import HostSpeed
from esmtangle.cli import load_program
from esmtangle.engine import run
from esmtangle.terms import encode_nat_binary
program = load_program("bin_add")
inputs = [encode_nat_binary(256, program.vocab)] * 2
for engine in ("critical", "reference"):
    wall, scaled = [], []
    for _ in range(int(sys.argv[1])):
        with HostSpeed() as speed:
            start = speed.clock()
            result = run(program, inputs, engine=engine)
            end = speed.clock()
        wall.append(end - start)
        scaled.append((end - start) * speed.scale(start, end))
    run_s = statistics.median(scaled)
    print(json.dumps({"engine": engine, "steps": result.steps,
                      "total_ops": result.cost.total_ops,
                      "wall_s": round(statistics.median(wall), 4), "run_s": round(run_s, 4),
                      "run_s_min": round(min(scaled), 4), "run_s_max": round(max(scaled), 4),
                      "us_per_step": round(run_s / result.steps * 1e6, 3)}))
"""

# Runs in CHECKOUT's sources, ahead of the two scripts below: `counts(call)`
# is the bytecodes and frames of `call()`, as `sys.settrace` opcode and call
# events.
_COUNTS = """
import json, sys

def counts(call):
    bytecodes = frames = 0
    def tracer(frame, event, arg):
        nonlocal bytecodes, frames
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        bytecodes += event == "opcode"
        frames += event == "call"
        return tracer
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return bytecodes, frames
"""

# Prints the bytecodes of a cold `build_plan` of the bundled program argv[1]
# and of one on the program parsed again.
_PLAN_BYTECODES = _COUNTS + """
from esmtangle import codegen
from esmtangle.cli import load_program
codegen._compiled.clear()
program = load_program(sys.argv[1])
cold = counts(lambda: codegen.build_plan(program))[0]
again = load_program(sys.argv[1])
print(json.dumps({"cold": cold, "reparsed": counts(lambda: codegen.build_plan(again))[0]}))
"""

# Prints the bytecodes and frames per step of a `run` (argv[4] "run") or a
# `compare_engines` (argv[4] "compare") of the bundled program argv[1], every
# input of size argv[2], in oracle mode argv[3].
_STEP_COUNTS = _COUNTS + """
from esmtangle.cli import encode_size, input_codec, load_program
from esmtangle.engine import compare_engines, run
name, size, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
call = run if sys.argv[4] == "run" else compare_engines
program = load_program(name)
inputs = [encode_size(program.vocab, input_codec(program.vocab), size)] * len(program.inputs)
call(program, inputs, oracle_mode=mode)  # so the counted call's plan is a cache hit
done = []
bytecodes, frames = counts(lambda: done.append(call(program, inputs, oracle_mode=mode)))
steps = done[0].steps
print(json.dumps({"steps": steps, "bytecodes_per_step": round(bytecodes / steps, 2),
                  "frames_per_step": round(frames / steps, 3)}))
"""

# Prints, for the report of a fast-engine bin_add[256] run, what argv[1]
# names: "bytecodes" (of run_all_checks then emit_report), "peak" (the
# tracemalloc peak of emit_report, the checks already done), "hit" (that of
# run_all_checks, done already) or "time" (the report's length and the
# median ms of argv[2] emit_report calls).
_REPORT_COUNTS = _COUNTS + """
import statistics, time, tracemalloc
from esmtangle.cli import load_program
from esmtangle.cost import emit_report, run_all_checks
from esmtangle.engine import run
from esmtangle.terms import encode_nat_binary
program = load_program("bin_add")
report = run(program, [encode_nat_binary(256, program.vocab)] * 2).cost
what = sys.argv[1]
if what == "bytecodes":
    print(counts(lambda: (run_all_checks(report), emit_report(report)))[0])
    sys.exit()
run_all_checks(report)
if what in ("peak", "hit"):
    tracemalloc.start()
    emit_report(report) if what == "peak" else run_all_checks(report)
    print(tracemalloc.get_traced_memory()[1])
    sys.exit()
seconds = []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    size = len(emit_report(report))
    seconds.append(time.perf_counter() - start)
print(size, round(statistics.median(seconds) * 1e3, 2))
"""


def _python(checkout: Path, args: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(f"{' '.join(args)} in {checkout} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def workloads(checkout: Path) -> dict:
    names = _python(checkout, ["-c", "import sys; sys.path.insert(0, 'perfbench'); "
                               "import jobs; print(' '.join(jobs.WORKLOADS))"]).split()
    out = {}
    for name in names:
        for seed in SEEDS:
            line = _python(checkout, ["perfbench/run.py", "--workload", name, "--seed",
                                      str(seed), "--seconds", str(SECONDS), "--trace", "0"])
            result = json.loads(line.strip().splitlines()[-1])
            out[f"{name}/{seed}"] = {
                "correct": result["correct"], "failed": result["failed"],
                **{k: m["value"] for k, m in result["metrics"].items()},
            }
    return out


def bin_add_256(checkout: Path) -> dict:
    lines = _python(checkout, ["-c", _BIN_ADD, str(REPEAT)]).splitlines()
    return {row.pop("engine"): row for row in map(json.loads, lines)}


def plan_bytecodes(checkout: Path) -> dict:
    version, *names = _python(checkout, ["-c", "import platform; from esmtangle.cli import "
                                         "BUNDLED; print(platform.python_version(), *BUNDLED)"]).split()
    return {"python": version,
            **{name: json.loads(_python(checkout, ["-c", _PLAN_BYTECODES, name])) for name in names}}


def step_counts(checkout: Path, runs=STEP_RUNS, what: str = "run") -> dict:
    # The children run on this interpreter, sys.executable.
    return {"python": platform.python_version(),
            **{f"{name}[{size}] {mode}": json.loads(_python(
                checkout, ["-c", _STEP_COUNTS, name, str(size), mode, what]))
               for name, size, mode in runs}}


def report_counts(checkout: Path) -> dict:
    def child(*args) -> str:
        return _python(checkout, ["-c", _REPORT_COUNTS, *map(str, args)]).strip()

    def peak(what: str) -> int | None:
        peaks = {int(child(what)) for _ in range(2)}
        return peaks.pop() if len(peaks) == 1 else None

    size, ms = child("time", REPORT_REPEAT).split()
    return {"python": platform.python_version(),
            "bin_add[256]": {"report_bytes": int(size), "bytecodes": int(child("bytecodes")),
                             "peak_bytes": peak("peak"), "hit_bytes": peak("hit"),
                             "emit_ms": float(ms)}}


def rises(old: dict, new: dict) -> list[str] | None:
    """Each count of `new` (an entry's `plan_bytecodes`, `step_counts`,
    `compare_counts` and `report_counts`) that rose by more than RISE over
    its value in `old`, as a line; None if a part was counted on two Python
    versions.  A count missing or null on either side, or in a part `old`
    lacks, is not compared."""
    found = []
    for part, fields in (("plan_bytecodes", ("cold", "reparsed")),
                         ("step_counts", ("bytecodes_per_step", "frames_per_step")),
                         ("compare_counts", ("bytecodes_per_step", "frames_per_step")),
                         ("report_counts", ("report_bytes", "bytecodes", "peak_bytes",
                                            "hit_bytes"))):
        was, now = old.get(part, {}), new[part]
        if was and was["python"] != now["python"]:
            return None
        for run, row in now.items():
            if run == "python":
                continue
            for f in fields:
                if None in (row[f], was.get(run, {}).get(f)):
                    continue
                if row[f] > was[run][f] * (1 + RISE):
                    found.append(f"{part} {run} {f}: {was[run][f]} -> {row[f]} "
                                 f"(+{row[f] / was[run][f] - 1:.2%})")
    return found


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    out = _python(checkout, ["-m", "pytest", "-q", "--continue-on-collection-errors",
                             "-p", "no:cacheprovider"])
    return {"wall_s": round(time.perf_counter() - start, 1),
            "summary": out.strip().splitlines()[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", type=Path)
    target.add_argument("--check", type=Path, metavar="OLD.json")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.check:
        old = list(json.loads(args.check.read_text()).values())[-1]
        found = rises(old, {"plan_bytecodes": plan_bytecodes(checkout),
                            "step_counts": step_counts(checkout),
                            "compare_counts": step_counts(checkout, COMPARE_RUNS, "compare"),
                            "report_counts": report_counts(checkout)})
        if found is None:
            print(f"{args.check}: counted on another Python version", file=sys.stderr)
            return 2
        print("\n".join(found) or "no count rose by more than 1%")
        return 1 if found else 0
    entry = {
        "measured": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((checkout / "src" / "esmtangle").glob("*.py"))),
        "workloads": workloads(checkout),
        "bin_add_256": bin_add_256(checkout),
        "plan_bytecodes": plan_bytecodes(checkout),
        "step_counts": step_counts(checkout),
        "compare_counts": step_counts(checkout, COMPARE_RUNS, "compare"),
        "report_counts": report_counts(checkout),
        "tier1": tier1(checkout),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label or checkout.name] = entry
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
