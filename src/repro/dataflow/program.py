"""The shared, cached per-program analysis entry point.

Every consumer of static program facts — the verifier's structural checks,
the adversary generator's feasibility vetting, the lint pass and the
``repro analyze`` CLI — goes through :func:`analyze_program`, which caches
one :class:`ProgramAnalysis` per program digest process-wide.  The cheap
structural pieces (CFG, natural loops, path checker, backward-edge targets)
are built eagerly; the dataflow passes (intervals, loop bounds,
liveness, reaching definitions, the StaticPolicy) are computed lazily on
first use and memoised, so a verifier that never installs a policy pays
nothing for the new machinery.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cache import DigestCache
from repro.cfg.builder import ControlFlowGraph, EdgeKind, build_cfg
from repro.cfg.dominators import compute_dominators
from repro.cfg.loops import NaturalLoop, find_natural_loops
from repro.cfg.paths import PathChecker
from repro.dataflow.absint import IntervalAnalysis, analyze_intervals
from repro.dataflow.liveness import LivenessAnalysis, analyze_liveness
from repro.dataflow.loopbounds import LoopBound, infer_loop_bounds
from repro.dataflow.policy import LoopPolicy, StaticPolicy
from repro.dataflow.reaching import ReachingDefinitions, analyze_reaching_definitions
from repro.isa.assembler import Program
from repro.isa.instructions import Instruction


class ProgramAnalysis:
    """Offline analysis of one program: structure eagerly, dataflow lazily."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.cfg: ControlFlowGraph = build_cfg(program)
        self.loops: List[NaturalLoop] = find_natural_loops(self.cfg)
        self.path_checker = PathChecker(self.cfg)

        backward_targets: Set[int] = set()
        for block in self.cfg.blocks:
            terminator = block.terminator
            if terminator.is_conditional_branch or terminator.is_direct_jump:
                target = terminator.address + terminator.imm
                if target <= terminator.address:
                    backward_targets.add(target)
        #: Addresses that are plausible run-time loop entries: targets of
        #: backward CFG edges (the heuristic LO-FAT applies in hardware).
        self.backward_edge_targets: FrozenSet[int] = frozenset(backward_targets)
        #: Every instruction address, precomputed for O(1) metadata checks.
        self.instruction_addresses: FrozenSet[int] = frozenset(
            instr.address for instr in program.instructions
        )
        self._instruction_by_address: Dict[int, Instruction] = {
            instr.address: instr for instr in program.instructions
        }

        self._lock = threading.Lock()
        self._dominators: Optional[Dict[int, Set[int]]] = None
        self._intervals: Optional[IntervalAnalysis] = None
        self._loop_bounds: Optional[Dict[int, LoopBound]] = None
        self._liveness: Optional[LivenessAnalysis] = None
        self._reaching: Optional[ReachingDefinitions] = None
        self._policy: Optional[StaticPolicy] = None
        self._valid_pairs: Optional[FrozenSet[Tuple[int, int]]] = None

    # ------------------------------------------------------------- queries
    def instruction_at(self, address: int) -> Optional[Instruction]:
        return self._instruction_by_address.get(address)

    def first_control_flow_from(self, address: int) -> Optional[int]:
        """First control-flow instruction on the straight-line path from
        ``address``, or None when the scan runs off the program."""
        while address in self._instruction_by_address:
            if self._instruction_by_address[address].is_control_flow:
                return address
            address += 4
        return None

    # ------------------------------------------------------ lazy dataflow
    @property
    def dominators(self) -> Dict[int, Set[int]]:
        if self._dominators is None:
            with self._lock:
                if self._dominators is None:
                    self._dominators = compute_dominators(self.cfg)
        return self._dominators

    @property
    def intervals(self) -> IntervalAnalysis:
        if self._intervals is None:
            with self._lock:
                if self._intervals is None:
                    self._intervals = analyze_intervals(self.program, self.cfg)
        return self._intervals

    @property
    def loop_bounds(self) -> Dict[int, LoopBound]:
        if self._loop_bounds is None:
            intervals = self.intervals
            with self._lock:
                if self._loop_bounds is None:
                    self._loop_bounds = infer_loop_bounds(
                        self.program, self.cfg, self.loops, intervals
                    )
        return self._loop_bounds

    @property
    def liveness(self) -> LivenessAnalysis:
        if self._liveness is None:
            with self._lock:
                if self._liveness is None:
                    self._liveness = analyze_liveness(self.cfg)
        return self._liveness

    @property
    def reaching_definitions(self) -> ReachingDefinitions:
        if self._reaching is None:
            with self._lock:
                if self._reaching is None:
                    self._reaching = analyze_reaching_definitions(self.cfg)
        return self._reaching

    @property
    def unreachable_blocks(self) -> FrozenSet[int]:
        reachable = self.intervals.reachable_blocks
        return frozenset(
            block.start for block in self.cfg.blocks if block.start not in reachable
        )

    @property
    def valid_pairs(self) -> FrozenSet[Tuple[int, int]]:
        """Every instruction-level (src, dest) pair a benign run can emit.

        Derived from the CFG edge set minus branch edges the interval
        fixpoint proves infeasible, minus edges out of unreachable blocks,
        with indirect edges narrowed to the resolved target set.  Pairs use
        the *terminator's* address as source, matching the trace and the
        hardware measurement; fallthroughs of non-control-flow terminators
        emit no pair and are excluded.
        """
        if self._valid_pairs is None:
            intervals = self.intervals
            pairs: Set[Tuple[int, int]] = set()
            for edge in self.cfg.edges:
                block = self.cfg.block_starting_at(edge.src)
                if block is None:
                    continue
                terminator = block.terminator
                if not terminator.is_control_flow:
                    continue
                if edge.src not in intervals.reachable_blocks:
                    continue
                if (edge.src, edge.dst) in intervals.infeasible_edges:
                    continue
                if edge.kind is EdgeKind.INDIRECT:
                    resolution = intervals.indirect_targets.get(terminator.address)
                    if resolution is not None:
                        targets, resolved = resolution
                        if resolved and edge.dst not in targets:
                            continue
                pairs.add((block.terminator_address, edge.dst))
            self._valid_pairs = frozenset(pairs)
        return self._valid_pairs

    @property
    def policy(self) -> StaticPolicy:
        """The StaticPolicy artifact condensing the proven facts."""
        if self._policy is None:
            bounds: List[LoopPolicy] = []
            loop_entries: Set[int] = set()
            for header, bound in sorted(self.loop_bounds.items()):
                loop_entries.add(header)
                if bound.max_back_edges is None:
                    continue
                minimum = 0
                if bound.exact_back_edges is not None:
                    minimum = max(0, bound.exact_back_edges - 1)
                bounds.append(
                    LoopPolicy(header, minimum, bound.max_back_edges)
                )
            # The run-time loop monitor detects loops by the backward-edge
            # heuristic; on an irreducible CFG that can report an entry the
            # natural-loop forest does not contain.  Enforcing the entry set
            # would then reject a benign run, so the check downgrades to
            # advisory unless every backward-edge target is a known header.
            enforce = self.backward_edge_targets <= frozenset(loop_entries)
            self._policy = StaticPolicy(
                program_digest=self.program.digest,
                loop_entries=frozenset(loop_entries),
                loop_bounds=tuple(bounds),
                valid_pairs=self.valid_pairs,
                unreachable_blocks=self.unreachable_blocks,
                enforce_entries=enforce,
            )
        return self._policy


#: Process-wide cache of analyses, keyed by program digest.  Shared by every
#: Verifier instance, campaign worker thread and CLI invocation in the
#: process; entries are immutable once the lazy passes settle.
_ANALYSES = DigestCache(budget=64)


def analyze_program(program: Program) -> ProgramAnalysis:
    """The cached analysis for ``program`` (one instance per digest)."""
    return _ANALYSES.get_or_build(
        program.digest, lambda: ProgramAnalysis(program))
