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
HALTED_INIT = "tests/test_cost.py::test_a_halted_initialization_counts_every_op_as_init"
FUEL_FIRST = "tests/test_engine.py::test_fuel_is_checked_before_the_clash"
STEP_HALT = "tests/test_oracles.py::test_a_step_whose_oracle_call_halts_returns_the_halt"
FOREIGN_ARG = "tests/test_oracles.py::test_invoke_oracle_rejects_an_id_that_is_not_of_its_store"
WALK = "tests/test_engine_property.py::test_jumping_code_matches_tree_walk"
WALK_SMALL = "tests/test_engine_property.py::test_jumping_code_on_empty_branches_and_double_not"
WALK_BUNDLED = "tests/test_engine_property.py::test_jumping_code_matches_tree_walk_on_bundled_programs"
SUMS = "tests/test_codegen.py::test_a_pass_charges_the_sums_it_is_given"
CUT = "tests/test_codegen.py::test_cutting_into_pieces_changes_no_charge"
CHUNKS = "tests/test_cost.py::test_the_chunked_report_is_exact_at_chunk_boundaries"
LIST_EDIT = "tests/test_cost.py::test_the_check_cache_sees_an_edit_to_a_series_given_as_a_list"
NO_COPY = "tests/test_cost.py::test_a_repeated_check_of_a_run_copies_nothing"
CHUNKED = "tests/test_engine_property.py::test_chunked_compare_matches_one_step_at_a_time_on_bundled_programs"

MUTANTS = [
    Mutant("menu: an intern hit reads no child", "cost.py",
           "return Ops(probe=1, read=arity)", "return Ops(probe=1, read=0)", (GOLDEN,)),
    Mutant("menu: a dynamic read from the map probes once", "cost.py",
           "READ_MAP = Ops(probe=2)", "READ_MAP = Ops(probe=1)", (GOLDEN,)),
    Mutant("menu: an intern miss writes no word for its vertex", "cost.py",
           "return Ops(probe=1, alloc=1, read=arity, write=1 + arity)",
           "return Ops(probe=1, alloc=1, read=arity, write=arity)",
           ("tests/test_cost.py::test_a_second_run_on_a_reused_store_interns_no_miss",)),
    Mutant("generated intern hit charges a literal", "codegen.py",
           'f"{pad}    {_adds(cost.intern_hit(len(kids)))}"',
           'f"{pad}    p += 1" + (f"; r += {len(kids)}" if kids else "")', (MENU,)),
    Mutant("Tangle._intern charges a literal hit", "tangle.py",
           "probe, alloc, read, compare, write = cost.intern_hit(len(children))",
           "probe, alloc, read, compare, write = 1, 0, len(children), 0, 0", (MENU,)),
    Mutant("the NodeId-to-int conversion skips the store-tag check", "tangle.py",
           "        if nid.store != self.tag:\n"
           '            raise TangleError(f"{what} {nid} belongs to a different tangle")\n', "",
           ("tests/test_tangle.py::test_intern_rejects_a_child_of_another_store", FOREIGN_ARG)),
    Mutant("the public intern skips `_own`", "tangle.py",
           'children = tuple(self._own(c, "child id") for c in children)',
           "children = tuple(c.index for c in children)",
           ("tests/test_tangle.py::test_intern_rejects_a_child_of_another_store",)),
    Mutant("invoke_oracle converts its arguments without checking them", "engine.py",
           'ids = tuple(tangle._own(a, "oracle argument") for a in args)',
           "ids = tuple(a.index for a in args)", (FOREIGN_ARG,)),
    Mutant("`_setup` skips the oracle-mode check", "engine.py",
           "    if oracle_mode not in (MODE_UNIT, MODE_INLINE):\n"
           '        raise ValueError(f"unknown oracle cost mode {oracle_mode!r}")\n', "",
           ("tests/test_oracles.py::test_invoke_oracle_charges_the_store_meter",)),
    Mutant("setup skips check_vocabulary", "engine.py",
           "    tangle.check_vocabulary(plan.interned)  # intern hits are probed by name\n", "",
           ("tests/test_engine.py::test_a_given_store_must_hold_every_symbol_the_plan_interns",)),
    Mutant("`not` stops swapping its targets", "codegen.py",
           "g, then, orelse = g.sub, orelse, then", "g = g.sub", (WALK_SMALL, WALK)),
    Mutant("a halted initialization records no baseline point", "engine.py",
           "            core.record_point()\n            baseline = len(core.series)\n",
           "            baseline = len(core.series)\n",
           (INIT_HALT, HALTED_INIT,
            "tests/test_cli.py::test_run_halting_in_a_unit_mode_oracle_during_init")),
    Mutant("invoke_oracle lets the engine's private halt escape", "engine.py",
           "    except _Halt as halt:\n"
           '        raise RuntimeError(f"oracle {odef.symbol.name} halted: {halt}") from None\n',
           "    except _Halt:\n        raise\n",
           ("tests/test_oracles.py::test_invoke_oracle_raises_when_the_body_halts",)),
    Mutant("fuel is checked after the clash check", "engine.py",
           "    meter = ctx.core.tangle.meter\n    if not enabled or ctx.core.fuel_left <= 0:\n",
           "    meter = ctx.core.tangle.meter\n"
           "    if clash is not None:\n"
           "        clash, p, r, entries = clash\n"
           "        meter.charge(probe=p, read=r, compare=c, write=cost.UPDATE_ENTRY.write * entries)\n"
           "        raise _Halt(CLASH, clash)\n"
           "    if not enabled or ctx.core.fuel_left <= 0:\n",
           (FUEL_FIRST, STEP_HALT)),
    Mutant("a clash charges the final update set", "codegen.py",
           '"    return values, store, at, enabled, clash, c",',
           '"    return values, store, at, enabled, clash and (*clash[:3], len(updates)), c",',
           ("tests/test_engine.py::test_a_clash_charges_the_update_set_as_it_stood_at_the_first_clash",)),
    Mutant("an out-of-fuel step charges its probes and reads", "codegen.py",
           '"    return values, store, at, enabled, clash, c",',
           '"    return values, store, at, enabled, clash, c + p + r",',
           (FUEL_FIRST,)),
    Mutant("a public step lets the halt escape", "engine.py",
           "    except _Halt as halt:\n        return StepOutcome(halt.outcome, None, halt.clash)\n",
           "    except _Halt:\n        raise\n",
           (STEP_HALT,)),
    Mutant("the run loop keeps undef locations in the map", "codegen.py",
           '        "if None in updates.values():  # undef: the location leaves the finite support",\n'
           '        "    for key, v in updates.items():",\n'
           '        "        if v is None:",\n'
           '        "            del store[key]",\n', "",
           ("tests/test_engine.py::test_an_undef_update_takes_its_location_out_of_the_map",)),
    Mutant("the run loop skips the invariant check", "codegen.py",
           '        "if core.check:",\n        "    ctx.check_state(values, store)",\n', "",
           ("tests/test_engine.py::test_invariant_checks_catch_a_slot_left_stale",)),
    Mutant("the run loop writes no trace line", "codegen.py",
           '        "    if core.trace is not None:",\n'
           '        "        core.trace_line(at, enabled, updates)",\n', "",
           ("tests/test_engine.py::test_trace_format",)),
    Mutant("an `if` with two empty branches compiles to no test", "codegen.py",
           "                k = guard(s.guard, stmts(s.then, k), orelse)\n",
           "                then = stmts(s.then, k)\n"
           "                k = k if then == orelse == k else guard(s.guard, then, orelse)\n",
           ("tests/test_cost.py::test_a_duplicated_test_charges_one_compare_per_pass_of_the_rules",
            WALK_SMALL)),
    Mutant("`or` compiles as `and`", "codegen.py",
           "g, orelse = g.left, guard(g.right, then, orelse)",
           "g, then = g.left, guard(g.right, then, orelse)", (WALK_SMALL, WALK)),
    Mutant("the charges are not flushed before an oracle call", "codegen.py",
           'lines += [f"{pad}{_FLUSH}", f"{pad}v = ctx.invoke({name}, {args})"]',
           'lines += [f"{pad}v = ctx.invoke({name}, {args})"]', (GOLDEN,)),
    Mutant("`slots_all` starts its sums from zero", "codegen.py",
           'f"new = [None] * {len(slots)}",',
           'f"new = [None] * {len(slots)}", "p = r = c = w = 0",', (SUMS, GOLDEN)),
    Mutant("a single-piece pass leaves `c` out of its last charge", "codegen.py",
           "meter.read += r; meter.compare += c; meter.write += w",
           "meter.read += r; meter.write += w",
           (SUMS + "[bin_add]", GOLDEN,
            "tests/test_oracles.py::test_second_run_on_one_store_reports_own_ops")),
    Mutant("a constant branch folds another phase's test as true", "codegen.py",
           "                held = _holds(lhs, rhs, sure)\n",
           "                held = True if d in (ins.lhs, ins.rhs) and UNDEF_SLOT not in (lhs, rhs)"
           " else _holds(lhs, rhs, sure)\n",
           ("tests/test_engine.py::test_undef_guard_semantics", WALK_BUNDLED + "[add_unary]")),
    Mutant("a folded test charges no compare", "codegen.py",
           "j, compares, block, goto = k + 1, cost.GUARD_ATOM, [], ins.then",
           "j, compares, block, goto = k + 1, Ops(), [], ins.then",
           (WALK_SMALL, WALK_BUNDLED + "[bin_succ]")),
    Mutant("a critical transition starts with the oracle slots flagged", "codegen.py",
           'f"dirty = [False] * {len(slots)}"',
           'f"dirty = {[s.kind == SLOT_ORACLE for s in slots]!r}"',
           ("tests/test_codegen.py::test_a_class_level_invoke_wrapper_sees_every_oracle_call",)),
    Mutant("the assignment sites flag the slots of nullary symbols only", "codegen.py",
           "        if s.kind == SLOT_DYN:\n",
           "        if s.kind == SLOT_DYN and not s.child_slots:\n",
           ("tests/test_engine.py::test_dirty_slots_seeded_by_updates_with_arguments",)),
    Mutant("a slot pass drops the sums its pieces return", "codegen.py",
           'calls.append(f"{state} = {fn}({params}, {state})")',
           'calls.append(f"{fn}({params}, {state})" if state == "p, r, c, w"'
           ' else f"{state} = {fn}({params}, {state})")', (CUT,)),
    Mutant("the fast engine keeps a dynamic slot's old value on an update-set miss", "codegen.py",
           'f"{pad}    v = store.get(key)",',
           'f"{pad}    v = " + (f"new[{i}]" if dirty else "store.get(key)"),',
           ("tests/test_engine.py::test_stale_read_is_exact_on_both_engines",
            "tests/test_cli.py::test_compare_stale_read_is_equivalent")),
    Mutant("a changed slot flags only its first parent", "codegen.py",
           'dirty[{q}] = True; {flag}" for q in above)',
           'dirty[{q}] = True; {flag}" for q in above[:1])',
           ("tests/test_cost.py::test_the_engines_agree_record_by_record[bin_succ-inline]",)),
    Mutant("the fuel check lets one more transition run", "codegen.py",
           "if not enabled or core.fuel_left <= 0 or", "if not enabled or core.fuel_left < 0 or",
           ("tests/test_cost.py::test_a_run_cut_by_fuel_is_a_prefix_of_the_full_run",)),
    Mutant("the oracle memo keys a call by its name alone", "engine.py",
           "key = (plan, argids)", "key = (name, argids)",
           ("tests/test_oracles.py::test_two_bodies_that_declare_one_name_are_two_oracles",
            "tests/test_cost.py::test_renaming_symbols_changes_no_run[shared_name]")),
    Mutant("an inline oracle call pauses the meter as a unit call does", "engine.py",
           "    if unit:\n        meter.enabled = core.record = False\n",
           "    meter.enabled = core.record = False\n",
           ("tests/test_oracles.py::test_inline_cost_grows_with_input",)),
    Mutant("the plan key leaves out oracle bodies", "codegen.py",
           "shape += (o.path, oracle_plans[o.symbol.name])", "shape.append(o.path)",
           ("tests/test_codegen.py::test_oracle_bodies_are_part_of_the_key",)),
    Mutant("the plan key gives a symbol by its name alone", "terms.py",
           '"_sig", (self.name, self.arity, self.kind)', '"_sig", (self.name,)',
           ("tests/test_codegen.py::test_a_symbols_kind_and_arity_are_part_of_the_key",)),
    Mutant("the plan key leaves out block lengths", "codegen.py",
           "            shape += (len(node.then), len(node.orelse))\n", "",
           ("tests/test_codegen.py::test_block_lengths_tell_a_statement_in_a_branch_from_one_after_it",)),
    Mutant("the block reader drops an `else` block", "syntax.py",
           "orelse, i = _parse_block(cur, i + 1, symbols)",
           "_, i = _parse_block(cur, i + 1, symbols)",
           ("tests/test_engine_property.py::test_location_written_at_init_is_read_later",)),
    Mutant("the block printer indents a `then` block as its `if`", "syntax.py",
           'lines += _format_block(stmt.then, indent + "  ")',
           "lines += _format_block(stmt.then, indent)",
           ("tests/test_golden.py::test_golden_parse_sample",)),
    Mutant("critical_terms overwrites a first occurrence", "syntax.py",
           "occurrence.setdefault(sub, len(occurrence))",
           "occurrence[sub] = len(occurrence)",
           ("tests/test_syntax.py::test_critical_terms_toggle_order",)),
    Mutant("critical_terms sizes a term one too big", "syntax.py",
           "size = {t: bits.bit_count() for",
           "size = {t: bits.bit_count() + 1 for",
           ("tests/test_syntax.py::test_critical_terms_match_their_definition",)),
    Mutant("the guard loop binds `or` tighter than `and`", "syntax.py",
           'if op == "and":', 'if op == "or":',
           ("tests/test_syntax.py::test_guard_precedence_not_and_or",
            "tests/test_golden.py::test_golden_parse_sample")),
    Mutant("the printer gives a right operand its operator's own level", "syntax.py",
           "_format_guard(g.right, binds + 1)", "_format_guard(g.right, binds)",
           ("tests/test_syntax.py::test_guards_roundtrip_through_the_printer[A or (B or C)]",
            "tests/test_syntax.py::test_guards_roundtrip_through_the_printer[A and (B and C)]")),
    Mutant("the report drops the last partial chunk", "cost.py",
           "for start in range(0, len(series), _CHUNK):",
           "for start in range(0, len(series) // _CHUNK * _CHUNK, _CHUNK):", (CHUNKS,)),
    Mutant("the report joins chunks without `,\\n`", "cost.py",
           "        if start:\n            out.write(sep)\n", "", (CHUNKS,)),
    Mutant("the check cache keys a report by its list object", "cost.py",
           "report.c_program, tuple(report.per_step),", "report.c_program, report.per_step,",
           (LIST_EDIT,)),
    Mutant("compare_engines compares endings by kind alone", "engine.py",
           "else str(_Halt(out_c.kind, out_c.clash))\n"
           "    end_r = NEXT if len(seen_r) > len(seen_c) else str(_Halt(out_r.kind, out_r.clash))\n",
           "else str(_Halt(out_c.kind))\n"
           "    end_r = NEXT if len(seen_r) > len(seen_c) else str(_Halt(out_r.kind))\n",
           ("tests/test_engine.py::test_compare_reports_two_clashes_at_different_locations",)),
    Mutant("compare checks only the last kept state of each chunk", "engine.py",
           "            if vc != vr:\n", "            if vc != vr and vc is seen_c[-1]:\n",
           ("tests/test_engine.py::test_compare_reports_a_difference_that_lasts_one_step",)),
    Mutant("invoke passes `keep` on to nested oracle runs", "engine.py",
           "RunContext(core, plan, self.engine)", "RunContext(core, plan, self.engine, self.keep)",
           (CHUNKED + "[bin_mul-inline]", CHUNKED + "[bin_mul-unit]")),
    Mutant("the longer chunk's engine counts as ended", "engine.py",
           "    end_c = NEXT if len(seen_c) > len(seen_r) else str(",
           "    end_c = str(",
           ("tests/test_engine.py::test_compare_reports_an_ending_that_differs",)),
    Mutant("`keep` gets the list the loop updates in place", "codegen.py",
           '"index = tangle._index"], "values[:]"', '"index = tangle._index"], "values"',
           ("tests/test_engine.py::test_the_fast_engine_keeps_a_copy_of_each_step",)),
    Mutant("`_transition` does not copy `values` on entry", "engine.py",
           "values = state.values[:] if fast else state.values", "values = state.values",
           ("tests/test_engine.py::test_a_fast_step_leaves_the_old_state_as_it_was",)),
    Mutant("an assignment site flags its symbol's first slot only", "codegen.py",
           "for i in found)}True; \"\n            f\"{_adds(cost.FLAG_WRITE * len(found))}\"",
           "for i in found[:1])}True; \"\n            f\"{_adds(cost.FLAG_WRITE)}\"",
           ("tests/test_engine.py::test_an_updated_symbol_flags_each_of_its_slots_once",)),
    Mutant("`run` hands out its series list", "engine.py",
           "per_step=tuple(core.series),", "per_step=core.series,", (NO_COPY,)),
    Mutant("a vertex record drops its name", "tangle.py",
           "nodes.append(key)", "nodes.append((None, children))",
           ("tests/test_tangle.py::test_extract_roundtrip", "tests/test_tangle.py::test_dump_format")),
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
