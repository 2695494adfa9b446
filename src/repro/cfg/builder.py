"""Control-flow graph construction.

The CFG is the verifier's reference model of legal program behaviour.  Nodes
are basic blocks; edges carry a kind (taken branch, fall-through, call,
return, indirect) so the verifier can reason about which run-time transfers
are statically expected and which require dynamic information (indirect
branches, returns).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.basic_blocks import BasicBlock, split_basic_blocks
from repro.cpu.trace import BranchKind, classify_branch
from repro.isa.assembler import Program


class EdgeKind(enum.Enum):
    """Why an edge exists in the CFG."""

    FALLTHROUGH = "fallthrough"
    BRANCH_TAKEN = "branch_taken"
    JUMP = "jump"
    CALL = "call"
    RETURN = "return"
    INDIRECT = "indirect"


@dataclass(frozen=True)
class CfgEdge:
    """A directed edge between two basic blocks (by block start address)."""

    src: int
    dst: int
    kind: EdgeKind

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.src, self.dst)


class ControlFlowGraph:
    """Basic blocks plus directed edges, with convenience queries."""

    def __init__(self, program: Program, blocks: List[BasicBlock]) -> None:
        self.program = program
        self.blocks = blocks
        self.block_by_start: Dict[int, BasicBlock] = {b.start: b for b in blocks}
        self.edges: List[CfgEdge] = []
        self._successors: Dict[int, List[CfgEdge]] = {}
        self._predecessors: Dict[int, List[CfgEdge]] = {}
        self._address_to_block: Dict[int, BasicBlock] = {}
        for block in blocks:
            for instr in block.instructions:
                self._address_to_block[instr.address] = block

    # ------------------------------------------------------------ mutation
    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        """Add an edge between block start addresses (idempotent)."""
        edge = CfgEdge(src, dst, kind)
        if edge in self._successors.get(src, []):
            return
        self.edges.append(edge)
        self._successors.setdefault(src, []).append(edge)
        self._predecessors.setdefault(dst, []).append(edge)

    # ------------------------------------------------------------- queries
    def block_containing(self, address: int) -> Optional[BasicBlock]:
        """The block whose instruction range covers ``address``."""
        return self._address_to_block.get(address)

    def block_starting_at(self, address: int) -> Optional[BasicBlock]:
        """The block that starts exactly at ``address``."""
        return self.block_by_start.get(address)

    def successors(self, block_start: int) -> List[CfgEdge]:
        """Outgoing edges of the block starting at ``block_start``."""
        return list(self._successors.get(block_start, []))

    def predecessors(self, block_start: int) -> List[CfgEdge]:
        """Incoming edges of the block starting at ``block_start``."""
        return list(self._predecessors.get(block_start, []))

    def successor_starts(self, block_start: int) -> Set[int]:
        """Start addresses of all statically-known successors."""
        return {edge.dst for edge in self._successors.get(block_start, [])}

    @property
    def entry_block(self) -> BasicBlock:
        """The block containing the program entry point."""
        block = self.block_containing(self.program.entry)
        if block is None:
            raise ValueError("entry point has no basic block")
        return block

    @property
    def node_starts(self) -> List[int]:
        """Start addresses of all blocks, in address order."""
        return [block.start for block in self.blocks]

    def function_entries(self) -> Set[int]:
        """Addresses that may be entered as functions.

        Includes the program entry, the target of every direct call edge and
        every target of the (conservative) indirect edges -- i.e. the set the
        builder used as candidate indirect-call targets.
        """
        entries = {self.program.entry}
        for edge in self.edges:
            if edge.kind in (EdgeKind.CALL, EdgeKind.INDIRECT):
                entries.add(edge.dst)
        return entries

    def edge_set(self) -> Set[Tuple[int, int]]:
        """All (src block start, dst block start) pairs."""
        return {edge.pair for edge in self.edges}

    def to_dot(self) -> str:
        """Render the CFG in Graphviz dot format (for reports / debugging)."""
        lines = ["digraph cfg {", "  node [shape=box, fontname=monospace];"]
        for block in self.blocks:
            label = block.label or ("bb_%d" % block.index)
            lines.append(
                '  "%#x" [label="%s\\n%#x..%#x"];' % (block.start, label, block.start, block.end)
            )
        for edge in self.edges:
            lines.append('  "%#x" -> "%#x" [label="%s"];' % (edge.src, edge.dst, edge.kind.value))
        lines.append("}")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Basic statistics used in reports."""
        kind_counts: Dict[str, int] = {}
        for edge in self.edges:
            kind_counts[edge.kind.value] = kind_counts.get(edge.kind.value, 0) + 1
        return {
            "blocks": len(self.blocks),
            "edges": len(self.edges),
            "edges_by_kind": kind_counts,
            "functions": len(self.function_entries()),
        }


def build_cfg(program: Program) -> ControlFlowGraph:
    """Build the control-flow graph of ``program``.

    Direct branches and jumps produce precise edges.  Indirect jumps
    (``jalr``) produce:

    * a RETURN edge to every block following a call of the enclosing function
      when the instruction is a canonical return, and
    * INDIRECT edges to every function entry otherwise (the conservative
      over-approximation a static analyser without pointer analysis uses).
    """
    blocks = split_basic_blocks(program)
    cfg = ControlFlowGraph(program, blocks)
    address_set = {instr.address for instr in program.instructions}

    # First pass: direct edges and call-site bookkeeping.
    call_sites: List[Tuple[BasicBlock, int]] = []  # (caller block, target address)
    for block in blocks:
        terminator = block.terminator
        kind = classify_branch(terminator)
        follower = block.end

        if kind is BranchKind.NOT_CONTROL_FLOW:
            if follower in address_set:
                target_block = cfg.block_containing(follower)
                if target_block is not None:
                    cfg.add_edge(block.start, target_block.start, EdgeKind.FALLTHROUGH)
            continue

        if kind is BranchKind.CONDITIONAL:
            target = terminator.address + terminator.imm
            if target in address_set:
                cfg.add_edge(block.start, cfg.block_containing(target).start,
                             EdgeKind.BRANCH_TAKEN)
            if follower in address_set:
                cfg.add_edge(block.start, cfg.block_containing(follower).start,
                             EdgeKind.FALLTHROUGH)
            continue

        if kind in (BranchKind.DIRECT_JUMP, BranchKind.DIRECT_CALL):
            target = terminator.address + terminator.imm
            if target in address_set:
                edge_kind = EdgeKind.CALL if kind is BranchKind.DIRECT_CALL else EdgeKind.JUMP
                cfg.add_edge(block.start, cfg.block_containing(target).start, edge_kind)
                if kind is BranchKind.DIRECT_CALL:
                    call_sites.append((block, target))
            continue

        # Indirect transfers handled in the second pass.

    # Call continuation map: function entry -> set of return-site block starts.
    continuations: Dict[int, Set[int]] = {}
    for caller_block, target in call_sites:
        return_site = cfg.block_containing(caller_block.end)
        if return_site is not None:
            continuations.setdefault(target, set()).add(return_site.start)

    function_entries = {program.entry}
    for _, target in call_sites:
        block = cfg.block_containing(target)
        if block is not None:
            function_entries.add(block.start)
    # Symbols that look like functions (referenced by address in data, or
    # simply labelled) are also candidate indirect-call targets.
    for name, value in program.symbols.items():
        if value in address_set and not name.startswith("."):
            block = cfg.block_starting_at(value)
            if block is not None and block.label == name:
                function_entries.add(value)

    # Second pass: indirect transfers.
    for block in blocks:
        terminator = block.terminator
        kind = classify_branch(terminator)
        if kind is BranchKind.RETURN:
            # Return edges: to every continuation of every function that could
            # contain this block.  Without interprocedural range analysis we
            # conservatively add edges to all call continuations.
            for sites in continuations.values():
                for site in sites:
                    cfg.add_edge(block.start, site, EdgeKind.RETURN)
        elif kind in (BranchKind.INDIRECT_JUMP, BranchKind.INDIRECT_CALL):
            for entry in sorted(function_entries):
                cfg.add_edge(block.start, entry, EdgeKind.INDIRECT)
            if kind is BranchKind.INDIRECT_CALL:
                return_site = cfg.block_containing(block.end)
                if return_site is not None:
                    for entry in sorted(function_entries):
                        continuations.setdefault(entry, set()).add(return_site.start)

    return cfg
