#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/smoke.py [--record]

Fails (exit 1) unless BENCHMARK.json lists exactly the workloads and metrics
run.py prints, with the same units; every workload, untraced and traced,
prints every metric with its unit and has error_rate 0; and two runs with one
seed repeat their steps, ram_ops, vertices and output bytes exactly.

It also runs the oracle-nest jobs in unit oracle mode, which must give the
same outputs as inline mode, and reports their ram_ops; and it reruns the
reference counts for bin_add[64] and bin_mul[64].  Counts that differ from
recorded.json are printed as drift, not failed: a change that alters what
gets metered says so.  `--record` stores the tiny counts and unit-mode
ram_ops in recorded.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import run

SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    run.import_library()
    import jobs

    problems, drift = [], []
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(jobs.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from jobs.WORKLOADS")
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in bench[section]} != table:
            problems.append(f"BENCHMARK.json {section} differs from run.py's metric table")

    inline_ram_ops = {}
    for workload in jobs.WORKLOADS:
        key = f"{workload}/{SEED}/tiny"
        seen = []
        for trace in (False, True):
            result = run.measure(workload, SEED, 0.1, trace, tiny=True)
            want = run.PER_LAYER if trace else run.END_TO_END
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want or not all(
                isinstance(m["value"], (int, float)) for m in result["metrics"].values()
            ):
                problems.append(f"{key} trace={int(trace)}: metrics or units missing")
            if result["failed"] or not result["correct"]:
                problems += [f"{key}: {f}" for f in result["failures"]] or [f"{key}: failed"]
            seen.append(result["counts"])
            print(f"{key} trace={int(trace)}: {len(got)} metrics, error_rate "
                  f"{result['failed'] / result['attempted']:g}, counts {result['counts']}")
        inline_ram_ops[workload] = seen[0]["ram_ops"]
        if seen[0] != seen[1]:
            problems.append(f"{key}: counts differ between two runs with one seed")
        drift += run.drift(key, seen[0])
        if args.record:
            run.record(key, seen[0])

    # Unit-mode leg: same bin_mul inputs, single-operation oracle charges.
    inline_jobs = jobs.make_jobs("oracle-nest", SEED, tiny=True)
    unit = jobs.run_pass([dataclasses.replace(j, oracle_mode="unit") for j in inline_jobs])
    problems += [f"unit mode: {f}" for f in unit.failures]
    print(f"oracle-nest/{SEED}/tiny unit mode: ram_ops {unit.ram_ops} "
          f"(inline {inline_ram_ops['oracle-nest']}), outputs as expected: {not unit.failures}")
    drift += run.drift(f"oracle-nest/{SEED}/tiny/unit", {"ram_ops": unit.ram_ops})
    if args.record:
        run.record(f"oracle-nest/{SEED}/tiny/unit", {"ram_ops": unit.ram_ops})

    # Reference counts, both inputs 64 as in `esm bench --sweep 64:64`.
    for name, product in (("bin_add", 128), ("bin_mul", 4096)):
        ref = jobs.run_pass([jobs.Job(name, (64, 64), product)])
        problems += [f"{name}[64]: {f}" for f in ref.failures]
        drift += run.drift(f"reference/{name}[64]", {"steps": ref.steps, "ram_ops": ref.ram_ops})
        print(f"{name}[64]: steps {ref.steps}, ram_ops {ref.ram_ops}")

    for line in drift + [f"FAIL {p}" for p in problems]:
        print(line)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
