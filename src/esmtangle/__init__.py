"""esmtangle: an effective-state-machine engine over hash-consed term graphs.

Programs are guarded parallel assignments over a constructor-built domain.
Two interpreters execute them: a fast engine that tracks only the program's
term values inside one maximally shared graph store, and a reference engine
over a full location map that serves as its correctness oracle.  Every step is
metered in abstract RAM operations so the engine's per-step and whole-run cost
bounds can be verified empirically.
"""

from types import ModuleType as _ModuleType

from .cost import (
    CostMeter, CostReport, FrozenBounds, StepCost, Verdict, check_growth, check_step_linearity,
    check_total_bound, emit_report,
)
from .engine import (
    Divergence, EngineComparison, EngineState, RunResult, StepOutcome, compare_engines,
    init_critical, init_ref, invoke_oracle, run, step_critical, step_ref,
)
from .syntax import (
    Assign, Cond, CriticalTerms, OracleDef, Program, critical_terms, format_program,
    parse_program, parse_program_file, validate_program,
)
from .tangle import NodeId, Tangle, TangleStats, UndefNodeError, new_tangle
from .terms import (
    Symbol, Term, TermSyntaxError, Vocabulary, compact_size, decode_nat_binary,
    encode_nat_binary, format_term, parse_term, symbol_count,
)

# Every name imported above, and no submodule that importing them binds.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
