"""Backward register liveness and dead-definition detection.

Liveness runs over *all* CFG edge kinds, which over-approximates the
possible control flow (INDIRECT edges fan out to every function entry,
RETURN edges to every call continuation); an over-approximation of future
uses is exactly what makes a "this definition is dead" claim sound.  A
definition is reported dead only for side-effect-light instructions (ALU
ops, ``lui``/``auipc`` and loads) — never for linking jumps or ``ecall``,
whose register writes are incidental to their real effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.cfg.builder import ControlFlowGraph
from repro.dataflow import engine
from repro.dataflow.semantics import register_def, register_uses

Registers = FrozenSet[int]


@dataclass(frozen=True)
class DeadDef:
    """A register definition whose value is provably never read."""

    pc: int
    register: int
    mnemonic: str


@dataclass
class LivenessAnalysis:
    live_in: Dict[int, Registers]
    live_out: Dict[int, Registers]
    dead_defs: List[DeadDef]


def _flaggable(instr) -> bool:
    spec = instr.spec
    if spec.is_store or spec.is_branch or spec.is_system or spec.is_jump:
        return False
    return instr.mnemonic != "fence"


def analyze_liveness(cfg: ControlFlowGraph) -> LivenessAnalysis:
    """Solve block-level liveness and collect dead register definitions."""
    starts = [block.start for block in cfg.blocks]
    block_by_start = {block.start: block for block in cfg.blocks}

    def predecessors(start: int):
        return [edge.src for edge in cfg.predecessors(start)]

    def transfer(start: int, live_out: Registers) -> Registers:
        live = set(live_out)
        for instr in reversed(block_by_start[start].instructions):
            defined = register_def(instr)
            if defined is not None:
                live.discard(defined)
            live.update(u for u in register_uses(instr) if u)
        return frozenset(live)

    live_out = engine.solve(
        nodes=starts,
        successors=predecessors,
        transfer=transfer,
        join=lambda a, b: a | b,
        seeds={start: frozenset() for start in starts},
    )

    live_in: Dict[int, Registers] = {}
    dead: List[DeadDef] = []
    for start in starts:
        live = set(live_out.get(start, frozenset()))
        for instr in reversed(block_by_start[start].instructions):
            defined = register_def(instr)
            if defined is not None:
                if defined not in live and _flaggable(instr):
                    dead.append(DeadDef(instr.address, defined, instr.mnemonic))
                live.discard(defined)
            live.update(u for u in register_uses(instr) if u)
        live_in[start] = frozenset(live)
    dead.sort(key=lambda d: d.pc)
    return LivenessAnalysis(live_in=live_in, live_out=dict(live_out), dead_defs=dead)
