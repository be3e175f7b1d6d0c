"""A mutation campaign: source edits that named tests must kill.

    PYTHONPATH=src python tests/mutants.py --check

first runs every named test against an unmutated copy of src/, which must
pass.  Then, per mutant, it copies src/ to a temporary directory, applies the
mutant's one exact edit (its old text must occur exactly once in its file)
and runs the mutant's tests against the copy, with PYTHONPATH pointing at it.
A mutant is killed when a test fails or its tests time out.  The campaign
exits 1 and names every mutant that survives and every edit that no longer
matches its file.  Without `--check` it lists the mutants.

It takes a few minutes, so it is not part of the test suite.  A change whose
tests were shown to be strong enough by mutating a copy adds the mutant here,
so that a later change cannot weaken those tests unnoticed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600  # seconds per mutant; a mutant whose tests hang is killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/esmtangle
    old: str
    new: str
    tests: tuple[str, ...]  # test ids relative to the repository root


GOLDEN = "tests/test_golden.py::test_golden_digests"
MENU = "tests/test_cost.py::test_the_menu_is_the_one_source"
INIT_HALT = "tests/test_cost.py::test_a_halt_during_initialization_keeps_the_series_additive"

MUTANTS = [
    Mutant("menu: an intern hit reads no child", "cost.py",
           "return Ops(probe=1, read=arity)", "return Ops(probe=1, read=0)", (GOLDEN,)),
    Mutant("menu: a dynamic read from the map probes once", "cost.py",
           "READ_MAP = Ops(probe=2)", "READ_MAP = Ops(probe=1)", (GOLDEN,)),
    Mutant("generated intern hit charges a literal", "codegen.py",
           'f"{pad}    {_adds(cost.intern_hit(len(kids)))}"',
           'f"{pad}    p += 1" + (f"; r += {len(kids)}" if kids else "")', (MENU,)),
    Mutant("Tangle.intern charges a literal hit", "tangle.py",
           "self.meter.charge(*cost.intern_hit(len(children)))",
           "self.meter.charge(probe=1, read=len(children))", (MENU,)),
    Mutant("setup skips check_vocabulary", "engine.py",
           "    tangle.check_vocabulary(plan.interned)  # intern hits are probed by name\n", "",
           ("tests/test_engine.py::test_a_given_store_must_hold_every_symbol_the_plan_interns",)),
    Mutant("`not` stops swapping its targets", "codegen.py",
           "g, then, orelse = g.sub, orelse, then", "g = g.sub",
           ("tests/test_engine_property.py::test_jumping_code_on_empty_branches_and_double_not",
            "tests/test_engine_property.py::test_jumping_code_matches_tree_walk")),
    Mutant("a halt in a unit-mode oracle call during init leaves the series empty",
           "engine.py",
           "        if not core.series:  # a unit-mode oracle call halted initialization\n"
           "            core.record_point()\n", "",
           (INIT_HALT,
            "tests/test_cli.py::test_run_halting_in_a_unit_mode_oracle_during_init")),
    Mutant("invoke_oracle lets the engine's private halt escape", "engine.py",
           "    except _Halt as halt:\n"
           '        raise RuntimeError(f"oracle {odef.symbol.name} halted: {halt}") from None\n',
           "    except _Halt:\n        raise\n",
           ("tests/test_oracles.py::test_invoke_oracle_raises_when_the_body_halts",)),
]


def _pytest(src: Path, tests) -> subprocess.CompletedProcess | None:
    """Run `tests` against the package under `src`; None if they time out."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None


def _copy(tmp: Path, mutant: Mutant | None = None) -> Path | None:
    """src/ copied into `tmp` with the mutant's edit applied; None if the
    edit does not match its file exactly once."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "esmtangle" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return None
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def check() -> list[str]:
    """What is wrong with the campaign: each line a failing baseline, an edit
    that no longer matches, or a mutant that survives."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="esm-mutants-") as tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        base = _pytest(_copy(Path(tmp)), tests)
        if base is None or base.returncode != 0:
            return ["the named tests fail on the unmutated sources"
                    + ("" if base is None else "\n" + base.stdout[-2000:])]
        for m in MUTANTS:
            src = _copy(Path(tmp), m)
            if src is None:
                verdict = "edit no longer matches"
            else:
                result = _pytest(src, m.tests)
                if result is None:
                    verdict = "killed (timeout)"
                elif result.returncode == 1:
                    verdict = "killed"
                elif result.returncode == 0:
                    verdict = "survived"
                else:  # a usage error or no test collected kills nothing
                    verdict = f"pytest exit {result.returncode}"
            print(f"{verdict}: {m.name}", flush=True)
            if not verdict.startswith("killed"):
                problems.append(f"{verdict}: {m.name}")
    return problems


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit("\n".join(check()) or None)
    elif not sys.argv[1:]:
        for m in MUTANTS:
            print(f"{m.name} ({m.file}): killed by {', '.join(m.tests)}")
    else:
        sys.exit("usage: python tests/mutants.py [--check]")
