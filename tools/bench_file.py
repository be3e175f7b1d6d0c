#!/usr/bin/env python3
"""Measure one source checkout and record the numbers in a BENCH file.

    python3 tools/bench_file.py CHECKOUT --out BENCH_<n>.json [--label NAME]

CHECKOUT is the root of a source tree of this repository (this one, or a copy
of another commit).  Everything runs from CHECKOUT's own sources, in child
processes, one at a time:

* `perfbench/run.py --seconds 8 --trace 0` on every workload of its
  `perfbench/jobs.py` at seeds 1 and 2026, keeping the end-to-end metrics
  of the last line;
* bin_add with both inputs 256 (`bin_add[256]`) on the fast and the
  reference engine, the median of 5 runs: steps, total_ops, wall seconds,
  and seconds and us/step scaled to nominal host speed by perfbench's
  `jobs.HostSpeed`, as run.py scales its times;
* per bundled program, the CPython bytecodes of two `build_plan` calls,
  each counted in a child process of its own by `sys.settrace` opcode
  events, with the Python version: a cold one, with `codegen._compiled`
  cleared, and one on the program parsed again, which an equal program's
  plan (or compiled code) may serve.  Unlike wall time, the counts repeat
  exactly from run to run on one Python version;
* the tier-1 suite (`pytest -q --continue-on-collection-errors`): its wall
  time and its summary line;
* the line count of `src/esmtangle/*.py`.

The numbers go into FILE under `--label` (default: CHECKOUT's directory
name), next to the labels already there, so two runs, one per checkout, make
a before/after file.  Wall-clock numbers are for the host named in the file.
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
                      "us_per_step": round(run_s / result.steps * 1e6, 3)}))
"""

# Runs in CHECKOUT's sources; prints the bytecodes of a cold `build_plan` of
# the bundled program argv[1] and of one on the program parsed again.
_PLAN_BYTECODES = """
import json, sys
from esmtangle import codegen
from esmtangle.cli import load_program

def bytecodes(call):
    count = 0
    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        count += event == "opcode"
        return tracer
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return count

codegen._compiled.clear()
program = load_program(sys.argv[1])
cold = bytecodes(lambda: codegen.build_plan(program))
again = load_program(sys.argv[1])
print(json.dumps({"cold": cold, "reparsed": bytecodes(lambda: codegen.build_plan(again))}))
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


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    out = _python(checkout, ["-m", "pytest", "-q", "--continue-on-collection-errors",
                             "-p", "no:cacheprovider"])
    return {"wall_s": round(time.perf_counter() - start, 1),
            "summary": out.strip().splitlines()[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    entry = {
        "measured": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((checkout / "src" / "esmtangle").glob("*.py"))),
        "workloads": workloads(checkout),
        "bin_add_256": bin_add_256(checkout),
        "plan_bytecodes": plan_bytecodes(checkout),
        "tier1": tier1(checkout),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label or checkout.name] = entry
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
