"""Seeded job lists for the benchmark, the calls each job makes, and the
correctness gate.

A job is what one `esm` invocation does: `esm verify --report` (load, run,
run_all_checks, emit_report) for the two run workloads, and `esm compare` for
compare-lockstep.  Inputs are plain Python values drawn from the seed.  The
expected answers are computed in plain Python, and inputs and outputs pass
through the codecs in this file rather than the library's own, so a codec
defect in the library cannot hide a wrong answer.

The draws are stratified so that the work in one job list barely depends on
the seed, which keeps run-to-run spread down to machine noise:

* bin_add steps depend on x + y almost alone, so x + y is fixed and the seed
  chooses the split;
* bin_succ steps grow with x squared, so x comes with lo + hi - x;
* str_reverse steps depend on where the input falls in the program's
  enumeration of strings, so every string comes with its a/b complement,
  which falls at the mirrored place;
* bin_mul keeps x + y fixed and x != y (equal inputs share a memoized dec);
* compare-lockstep draws through `cli.random_input` with a generator whose
  randint deals each value of its range once per round, so each trial keeps
  the `esm compare --random` distribution while a job list covers it evenly.
"""

from __future__ import annotations

import hashlib
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from esmtangle import cli, cost, engine
from esmtangle.terms import Term

WORKLOADS = ("step-loop", "oracle-nest", "compare-lockstep")

# Full sizes follow the ranges the workloads are defined by; tiny sizes are
# for the smoke test.
_SIZES = {
    False: {"add_sum": 160, "succ": (128, 135), "str_lens": (5, 6),
            "mul_sum": 96, "mul_jobs": 4, "cmp_succ": 16, "cmp_add": 8, "cmp_str": 6},
    True: {"add_sum": 12, "succ": (8, 11), "str_lens": (2, 3),
           "mul_sum": 10, "mul_jobs": 2, "cmp_succ": 2, "cmp_add": 1, "cmp_str": 1},
}


@dataclass(frozen=True)
class Job:
    program: str                  # bundled program name
    args: tuple                   # ints for numeral programs, strs for strings
    expected: object = None       # plain-Python answer; None for compare jobs
    compare: bool = False
    oracle_mode: str = "inline"


@dataclass
class PassResult:
    """What one pass over a job list did.  Per job: seconds for the whole job
    and for its engine call, scaled to the nominal host speed; unscaled wall
    seconds; and a digest of its output bytes."""

    job_s: list = field(default_factory=list)
    engine_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    setup_s: float = 0.0
    steps: int = 0
    ram_ops: int = 0
    init_ops: int = 0
    vertices: int = 0
    edges: int = 0
    report_bytes: int = 0
    ops: dict = field(default_factory=lambda: dict.fromkeys(cost.CATEGORIES, 0))
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (job index, message)


class _DealingRandom(random.Random):
    """random.Random whose randint deals every value of its range once per
    round, in seeded order; other draws are unchanged."""

    def randint(self, a, b):
        deck = self.__dict__.setdefault("_decks", {}).setdefault((a, b), [])
        if not deck:
            deck.extend(range(a, b + 1))
            self.shuffle(deck)
        return deck.pop()


def _complement(s: str) -> str:
    return s.translate(str.maketrans("ab", "ba"))


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The job list for one pass; the same seed gives the same list."""
    size = _SIZES[tiny]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "step-loop":
        total = size["add_sum"]
        x = rng.randint(total * 3 // 10, total * 7 // 10)
        lo, hi = size["succ"]
        s = rng.randint(lo, hi)
        jobs = [Job("bin_add", (x, total - x), total),
                Job("bin_succ", (s,), s + 1), Job("bin_succ", (lo + hi - s,), lo + hi - s + 1)]
        for length in size["str_lens"]:
            word = "".join(rng.choice("ab") for _ in range(length))
            for w in (word, _complement(word)):
                jobs.append(Job("str_reverse", (w,), w[::-1]))
        return jobs
    if workload == "oracle-nest":
        total = size["mul_sum"]
        jobs = []
        for _ in range(size["mul_jobs"]):
            x = total // 2
            while 2 * x == total:
                x = rng.randint(total // 3, total * 2 // 3)
            jobs.append(Job("bin_mul", (x, total - x), x * (total - x)))
        return jobs
    if workload == "compare-lockstep":
        deal = _DealingRandom(f"{workload}/{seed}")
        jobs = []
        for name, trials in (("bin_succ", size["cmp_succ"]), ("bin_add", size["cmp_add"])):
            vocab = cli.load_program(name).vocab
            arity = 2 if name == "bin_add" else 1
            for _ in range(trials):
                args = tuple(decode(cli.random_input(vocab, deal), True) for _ in range(arity))
                jobs.append(Job(name, args, compare=True))
        vocab = cli.load_program("str_reverse").vocab
        for _ in range(size["cmp_str"]):
            word = decode(cli.random_input(vocab, deal), False)
            jobs += [Job("str_reverse", (word,), compare=True),
                     Job("str_reverse", (_complement(word),), compare=True)]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# --- Plain-Python codecs ----------------------------------------------------------
# A binary numeral reads its digits outermost first after an implicit leading 1
# (eps is 1, d0(eps) is 2); a string reads its letters outermost first.


def encode(vocab, value) -> Term:
    if isinstance(value, int):
        letters = ["d1" if bit == "1" else "d0" for bit in bin(value)[3:]]
    else:
        letters = list(value)
    t = Term(vocab.get("eps"))
    for name in reversed(letters):
        t = Term(vocab.get(name), (t,))
    return t


def decode(t: Term, numeral: bool):
    letters = []
    while t.args:
        letters.append(t.head.name)
        t = t.args[0]
    if t.head.name != "eps":
        return None
    if numeral:
        if any(n not in ("d0", "d1") for n in letters):
            return None
        return int("1" + "".join(n[1] for n in letters), 2)
    if any(n not in ("a", "b") for n in letters):
        return None
    return "".join(letters)


# --- Host speed -------------------------------------------------------------------
# On a shared host the same work takes up to twice as long for stretches of
# seconds.  So while a pass runs, a fixed pure-Python loop made of the
# engine's staple operations (named-tuple ids, dict probes and inserts on
# nested tuple keys) is timed every SAMPLE_EVERY seconds from a timer signal,
# inside the jobs themselves.  Each job's time is scaled by CALIBRATION_S
# over the loop's median time while that job ran (at least LOCAL_SAMPLES
# samples, the nearest ones for a short job): the time the job takes on a
# host where the loop takes CALIBRATION_S.  On a shared 2-core x86 host this
# loop and per-job scaling tracked the engine's slowdowns best of those
# tried: over ten seeds, the spread of run_s (interquartile range over
# median) fell from 14-36% unscaled to 4-8%.  Unscaled wall time is reported
# beside it.

CALIBRATION_S = 0.0006
SAMPLE_EVERY = 0.025
LOCAL_SAMPLES = 5


class _Id(NamedTuple):
    store: int
    index: int


def _calibration_loop() -> int:
    table: dict = {}
    hits = 0
    for i in range(500):
        nid = _Id(1, i)
        key = ("f", (nid, _Id(1, i >> 1)))
        table[key] = nid
        hits += table.get(key) is nid
    return hits


class HostSpeed:
    """Samples of the calibration loop's time: when the context opens and
    closes, on request, and from a timer signal while it is open.  `clock`
    leaves out the time the samples took, so work timed with it is timed
    without them."""

    def __init__(self, timer: bool = True):
        self._samples: list[tuple[float, float]] = []  # (clock reading, seconds)
        self._spent = 0.0
        self._timer = timer
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        _calibration_loop()
        took = time.perf_counter() - t0
        self._samples.append((t0 - self._spent, took))
        self._spent += took

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def scale(self, start: float, end: float) -> float:
        """Factor to nominal speed for work done between two clock readings."""
        inside = [took for t, took in self._samples if start <= t <= end]
        if len(inside) < LOCAL_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self._samples, key=lambda s: abs(s[0] - middle))
            inside = [took for _, took in nearest[:LOCAL_SAMPLES]]
        return CALIBRATION_S / statistics.median(inside)

    def __enter__(self):
        self.sample()
        if self._timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()


# --- Running a job list -------------------------------------------------------------

SET_UP_SECONDS = 0.2


def _run_job(job: Job, out: PassResult, clock) -> tuple[bool, bytes, float]:
    """One job, through the same public calls as the `esm` CLI.  Returns
    whether its result is correct, the bytes it produced, and the seconds
    spent in the engine call."""
    program = cli.load_program(job.program)
    inputs = [encode(program.vocab, a) for a in job.args]
    if job.compare:
        t0 = clock()
        verdict = engine.compare_engines(program, inputs)
        engine_s = clock() - t0
        out.steps += verdict.steps
        ok = verdict.equivalent and verdict.outcome == "terminal"
        return ok, f"{verdict.equivalent} {verdict.outcome} {verdict.steps}".encode(), engine_s
    meter = cost.CostMeter()
    t0 = clock()
    result = engine.run(program, inputs, oracle_mode=job.oracle_mode, meter=meter)
    engine_s = clock() - t0
    verdicts, _ = cost.run_all_checks(result.cost, cost.DEFAULT_BOUNDS)
    report = cost.emit_report(result.cost, format="json")
    _add_counts(out, result, meter)
    out.report_bytes += len(report)
    answer = None
    if result.outcome == engine.OUTPUT:
        answer = decode(result.output, isinstance(job.expected, int))
    ok = answer == job.expected and all(v.passed for v in verdicts.values())
    return ok, f"{answer!r}\n".encode() + report, engine_s


def _add_counts(out: PassResult, result, meter) -> None:
    out.steps += result.steps
    out.ram_ops += result.cost.total_ops
    out.init_ops += result.cost.init_ops
    last = result.cost.per_step[-1]
    out.vertices += last.vertices
    out.edges += last.edges
    for name, ops in meter.categories().items():
        out.ops[name] += ops


def run_pass(jobs: list[Job], with_set_up: bool = False, timer: bool = True) -> PassResult:
    """Run the job list once, timing every job and checking its result; with
    `with_set_up`, first time set-ups of the list, repeated for at least
    SET_UP_SECONDS so that a quick set-up is timed over many rounds.
    Without `timer` the host's speed is sampled between jobs only, which
    keeps traced spans clean."""
    out = PassResult()
    spans = []  # clock readings around the set-up and each job
    with HostSpeed(timer) as speed:
        if with_set_up:
            t0 = speed.clock()
            set_ups = 0
            while not set_ups or speed.clock() - t0 < SET_UP_SECONDS:
                set_up(jobs)
                set_ups += 1
            spans.append((t0, speed.clock()))
        for i, job in enumerate(jobs):
            t0 = speed.clock()
            ok, produced, engine_s = _run_job(job, out, speed.clock)
            spans.append((t0, speed.clock()))
            out.engine_s.append(engine_s)
            if not timer:
                speed.sample()
            out.digests.append(hashlib.sha256(produced).hexdigest())
            if not ok:
                out.failures.append((i, f"{job.program}{job.args}: wrong output or verdict"))
    scales = [speed.scale(t0, t1) for t0, t1 in spans]
    if with_set_up:
        (t0, t1), *spans = spans
        out.setup_s = (t1 - t0) / set_ups * scales.pop(0)
    out.wall_s = [t1 - t0 for t0, t1 in spans]
    out.job_s = [w * k for w, k in zip(out.wall_s, scales)]
    out.engine_s = [e * k for e, k in zip(out.engine_s, scales)]
    return out


def compare_counts(jobs: list[Job]) -> PassResult:
    """Metered counts for compare jobs, untimed: each trial's two engines run
    separately through `run`, since `compare_engines` returns no meters."""
    out = PassResult()
    for job in jobs:
        program = cli.load_program(job.program)
        inputs = [encode(program.vocab, a) for a in job.args]
        for which in ("critical", "reference"):
            meter = cost.CostMeter()
            result = engine.run(program, inputs, engine=which, meter=meter)
            _add_counts(out, result, meter)
    return out


def set_up(jobs: list[Job]) -> None:
    """From program files to initial states for the whole job list: load
    (parse, validate), then the initial state each job's engines start from
    (build_plan and init, which evaluates oracle terms already defined)."""
    for job in jobs:
        program = cli.load_program(job.program)
        inputs = [encode(program.vocab, a) for a in job.args]
        engine.init_critical(program, inputs, oracle_mode=job.oracle_mode)
        if job.compare:
            engine.init_ref(program, inputs)
