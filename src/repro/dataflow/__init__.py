"""Static program analysis over assembled ISA programs.

``repro.dataflow`` is *program* analysis (lattices, fixpoints, proofs about
a single binary); the similarly named ``repro.analysis`` package is
*campaign* analysis (aggregating detection results across runs).  See
``docs/ANALYSIS.md`` for the split and for the soundness contract every
pass in this package honours: no statically "proven" fact may be violated
by any dynamic trace of the same program.
"""

from repro.dataflow.absint import IntervalAnalysis, analyze_intervals
from repro.dataflow.attackvet import (
    PROVEN_DIVERGENT,
    PROVEN_INVISIBLE,
    UNKNOWN,
    classify_data_only,
    classify_redirect,
    predicted_detection,
)
from repro.dataflow.engine import solve
from repro.dataflow.lattice import Interval, refine_branch
from repro.dataflow.lint import Finding, lint_program, new_findings
from repro.dataflow.liveness import DeadDef, LivenessAnalysis, analyze_liveness
from repro.dataflow.loopbounds import LoopBound, infer_loop_bounds
from repro.dataflow.policy import POLICY_VERSION, LoopPolicy, StaticPolicy
from repro.dataflow.program import ProgramAnalysis, analyze_program
from repro.dataflow.reaching import ReachingDefinitions, analyze_reaching_definitions

__all__ = [
    "Interval",
    "refine_branch",
    "solve",
    "IntervalAnalysis",
    "analyze_intervals",
    "LoopBound",
    "infer_loop_bounds",
    "DeadDef",
    "LivenessAnalysis",
    "analyze_liveness",
    "ReachingDefinitions",
    "analyze_reaching_definitions",
    "LoopPolicy",
    "StaticPolicy",
    "POLICY_VERSION",
    "ProgramAnalysis",
    "analyze_program",
    "Finding",
    "lint_program",
    "new_findings",
    "PROVEN_DIVERGENT",
    "PROVEN_INVISIBLE",
    "UNKNOWN",
    "classify_redirect",
    "classify_data_only",
    "predicted_detection",
]
