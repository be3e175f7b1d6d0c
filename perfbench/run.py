#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for esmtangle.

    python3 perfbench/run.py --workload step-loop --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/`.  One process, one thread, closed loop: a pass runs the workload's
seeded job list once, job after job, through the same public calls the `esm`
CLI makes, and checks every result against a plain-Python answer.  Passes
repeat for `--seconds`, each after one timed set-up of the whole job list.

Times are scaled to a nominal host speed (see jobs.py: a shared host can
change speed by up to 2x for seconds at a time).  `run_s` sums, over the
job list, each job's median time across passes; `steps_per_s` divides the
list's engine transitions by the same sum of median engine-call times;
`setup_s` is the median set-up.  `ram_ops` and `peak_rss_mb` are exact.

With `--trace 0` the last line of output is a JSON object with these
end-to-end metrics.  With `--trace 1` it carries the per-layer metrics
instead, from one extra pass with every layer wrapped in spans (spans.py),
and the tracing overhead against the untraced passes, which then run for
half the time.  The lines before it print every metric with its unit, the
error rate, and any drift of the exact counts from those recorded in
recorded.json; `--record` stores this seed's counts there.  The smoke test
is smoke.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORDED = HERE / "recorded.json"

END_TO_END = {
    "run_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "ram_ops": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.step_self_us_p50": "us",
    "engine.step_self_us_p99": "us",
    "engine.steps": "count",
    "engine.oracle_s": "s",
    "engine.oracle_steps": "count",
    "engine.init_s": "s",
    "engine.init_calls": "count",
    "engine.ref_step_self_us_p50": "us",
    "engine.compare_self_s": "s",
    "engine.plan_s": "s",
    "engine.plan_calls": "count",
    "syntax.parse_s": "s",
    "syntax.validate_s": "s",
    "syntax.critical_terms_s": "s",
    "terms.eq_calls": "count",
    "terms.eq_s": "s",
    "tangle.intern_calls": "count",
    "tangle.intern_s": "s",
    "tangle.allocs": "count",
    "tangle.intern_hit_ratio": "ratio",
    "tangle.vertices": "count",
    "tangle.edges": "count",
    "tangle.extract_calls": "count",
    "tangle.extract_s": "s",
    "tangle.import_s": "s",
    "cost.ops.probe": "count",
    "cost.ops.alloc": "count",
    "cost.ops.read": "count",
    "cost.ops.compare": "count",
    "cost.ops.write": "count",
    "cost.init_ops": "count",
    "cost.ops_per_step": "ops/step",
    "cost.checks_s": "s",
    "cost.report_s": "s",
    "cost.report_bytes": "bytes",
    "cli.load_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
}

# Set-up is timed over the whole job list before every pass, so its median
# spans the run, after untimed rounds that fill the caches.
SETUP_WARMUP = 2


def import_library():
    """Put the checkout's `src/` first on the path; fail if it is missing."""
    if not (SRC / "esmtangle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no esmtangle sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def counts_of(counts, first) -> dict:
    """The exact counts every run with a given seed must repeat."""
    digest = hashlib.sha256("".join(first.digests).encode()).hexdigest()
    return {"steps": first.steps, "ram_ops": counts.ram_ops, "vertices": counts.vertices,
            "output_sha256": digest}


def _medians(passes, field: str) -> list[float]:
    """Per job, the median over passes of its seconds in `field`."""
    return [statistics.median(times) for times in zip(*(getattr(p, field) for p in passes))]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the benchmark for one workload and return its result record."""
    import jobs
    import spans

    job_list = jobs.make_jobs(workload, seed, tiny)
    for _ in range(SETUP_WARMUP):
        jobs.set_up(job_list)
    passes = []
    t0 = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    while not passes or time.perf_counter() - t0 < budget:
        passes.append(jobs.run_pass(job_list, with_set_up=True))
    setup = [p.setup_s for p in passes]
    # Per job, the median over passes; a run sums them over the job list.
    run_s = sum(_medians(passes, "job_s"))
    engine_s = sum(_medians(passes, "engine_s"))
    counts = jobs.compare_counts(job_list) if job_list[0].compare else passes[0]

    checked = list(passes)
    layers = {}
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = jobs.run_pass(job_list, timer=False)
        finally:
            tracer.remove()
        checked.append(traced)
        layers = tracer.layers()
        layers["trace.traced_run_s"] = sum(traced.job_s)
        layers["trace.overhead_s"] = layers["trace.traced_run_s"] - run_s

    # Correctness gate: every job right, and every pass identical to the first.
    bad = {}
    for n, p in enumerate(checked):
        for i, (a, b) in enumerate(zip(p.digests, checked[0].digests)):
            if a != b:
                bad[n, i] = "output differs from pass 0"
        bad.update(((n, i), message) for i, message in p.failures)
    failures = [f"pass {n} job {i}: {message}" for (n, i), message in sorted(bad.items())]

    if trace:
        metrics = dict(layers)
        metrics.update({
            "tangle.vertices": counts.vertices,
            "tangle.edges": counts.edges,
            "cost.init_ops": counts.init_ops,
            "cost.ops_per_step": counts.ram_ops / counts.steps,
            "cost.report_bytes": passes[0].report_bytes,
        })
        metrics.update({f"cost.ops.{name}": ops for name, ops in counts.ops.items()})
        units = PER_LAYER
    else:
        metrics = {
            "run_s": run_s,
            "steps_per_s": passes[0].steps / engine_s,
            "setup_s": statistics.median(setup),
            "ram_ops": counts.ram_ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    attempted = len(job_list) * len(checked)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "failures": failures,
        "passes": len(passes),
        "wall_s": sum(_medians(passes, "wall_s")),
        "counts": counts_of(counts, passes[0]),
    }


def drift(key: str, counts: dict) -> list[str]:
    """Differences between these counts and the ones recorded for `key`."""
    if not RECORDED.is_file():
        return []
    recorded = json.loads(RECORDED.read_text()).get("counts", {}).get(key)
    if recorded is None:
        return []
    return [f"drift: {key} {name} recorded {recorded[name]} now {counts[name]}"
            for name in recorded if recorded[name] != counts.get(name)]


def record(key: str, counts: dict) -> None:
    """Store `counts` as the recorded counts for `key`."""
    doc = json.loads(RECORDED.read_text()) if RECORDED.is_file() else {}
    doc.setdefault("counts", {})[key] = counts
    RECORDED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def report(workload: str, seed: int, result: dict) -> None:
    """Print every metric with its unit, the error rate, then the JSON line."""
    rate = result["failed"] / result["attempted"]
    print(f"workload {workload}, seed {seed}: error_rate {rate:g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(f"  medians of {result['passes']} passes; "
          f"run_s unscaled by host speed {result['wall_s']:.6g} s")
    for line in result["failures"]:
        print(f"FAIL {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["step-loop", "oracle-nest", "compare-lockstep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's exact counts in recorded.json")
    args = parser.parse_args(argv)
    import_library()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    key = f"{args.workload}/{args.seed}"
    for line in drift(key, result["counts"]):
        print(line)
    if args.record:
        record(key, result["counts"])
    report(args.workload, args.seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
