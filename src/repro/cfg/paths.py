"""Edge and path validity queries used by the attestation verifier.

After receiving the attestation report, the verifier "checks whether the
reported path P resembles a valid path in CFG under input i" (paper §3).
Concretely the verifier needs two capabilities:

* decide whether a single run-time transfer ``(Src, Dest)`` is consistent
  with the statically-computed CFG (a *valid edge*), and
* decide whether a whole sequence of transfers is a connected path through
  the CFG starting from the program entry.

:class:`PathChecker` provides both.  The checker works at instruction-address
granularity (the granularity of LO-FAT's ``(Src, Dest)`` pairs) and maps the
addresses back onto basic blocks internally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.cfg.builder import ControlFlowGraph
from repro.cpu.trace import BranchKind, classify_branch


class EdgeValidity(enum.Enum):
    """Verdict for a single reported (Src, Dest) transfer."""

    VALID = "valid"
    VALID_INDIRECT = "valid_indirect"
    INVALID_SOURCE = "invalid_source"
    INVALID_TARGET = "invalid_target"
    NOT_AN_EDGE = "not_an_edge"

    @property
    def ok(self) -> bool:
        return self in (EdgeValidity.VALID, EdgeValidity.VALID_INDIRECT)


@dataclass
class PathCheckResult:
    """Outcome of checking a full transfer sequence against the CFG."""

    valid: bool
    checked_edges: int
    first_violation: Optional[Tuple[int, int]] = None
    violation_index: Optional[int] = None
    verdicts: Optional[List[EdgeValidity]] = None

    def __bool__(self) -> bool:
        return self.valid


class PathChecker:
    """Validates reported control-flow transfers against a CFG."""

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        self._instruction_addresses: Set[int] = {
            instr.address for instr in cfg.program.instructions
        }
        self._function_entries = cfg.function_entries()
        # Return sites: the instruction following any call.
        self._return_sites: Set[int] = set()
        for block in cfg.blocks:
            terminator = block.terminator
            kind = classify_branch(terminator)
            if kind.is_linking:
                follower = block.end
                if follower in self._instruction_addresses:
                    self._return_sites.add(follower)

    # ----------------------------------------------------------- single edge
    def classify_edge(self, src: int, dst: int) -> EdgeValidity:
        """Check one run-time transfer ``src -> dst`` against the CFG."""
        if src not in self._instruction_addresses:
            return EdgeValidity.INVALID_SOURCE
        if dst not in self._instruction_addresses:
            return EdgeValidity.INVALID_TARGET

        src_block = self.cfg.block_containing(src)
        terminator = src_block.terminator
        if terminator.address != src:
            # A transfer can only originate from a block terminator.
            return EdgeValidity.NOT_AN_EDGE

        kind = classify_branch(terminator)
        if kind is BranchKind.NOT_CONTROL_FLOW:
            return EdgeValidity.NOT_AN_EDGE

        if kind is BranchKind.CONDITIONAL:
            taken_target = terminator.address + terminator.imm
            fallthrough = terminator.address + 4
            if dst in (taken_target, fallthrough):
                return EdgeValidity.VALID
            return EdgeValidity.NOT_AN_EDGE

        if kind in (BranchKind.DIRECT_JUMP, BranchKind.DIRECT_CALL):
            if dst == terminator.address + terminator.imm:
                return EdgeValidity.VALID
            return EdgeValidity.NOT_AN_EDGE

        if kind is BranchKind.RETURN:
            # A return must land on the instruction after some call site.
            if dst in self._return_sites:
                return EdgeValidity.VALID_INDIRECT
            return EdgeValidity.NOT_AN_EDGE

        # Indirect jumps and calls: dst must be a known function entry (the
        # conservative CFI-style policy a static verifier can enforce).
        if dst in self._function_entries:
            return EdgeValidity.VALID_INDIRECT
        return EdgeValidity.NOT_AN_EDGE

    # ------------------------------------------------------------ full path
    def check_path(
        self,
        transfers: Sequence[Tuple[int, int]],
        record_verdicts: bool = False,
    ) -> PathCheckResult:
        """Check a whole sequence of (Src, Dest) transfers.

        Two properties are enforced:

        1. every transfer is a valid CFG edge (per :meth:`classify_edge`), and
        2. consecutive transfers are *connected*: after landing at ``Dest``,
           control must reach the next ``Src`` by falling through straight-line
           code only (no intervening control-flow instruction), which is what
           a complete, unfiltered branch trace guarantees.
        """
        verdicts: List[EdgeValidity] = []
        previous_dst: Optional[int] = None

        for index, (src, dst) in enumerate(transfers):
            verdict = self.classify_edge(src, dst)
            if record_verdicts:
                verdicts.append(verdict)
            if not verdict.ok:
                return PathCheckResult(
                    valid=False,
                    checked_edges=index + 1,
                    first_violation=(src, dst),
                    violation_index=index,
                    verdicts=verdicts if record_verdicts else None,
                )
            if previous_dst is not None and not self._straight_line(previous_dst, src):
                return PathCheckResult(
                    valid=False,
                    checked_edges=index + 1,
                    first_violation=(src, dst),
                    violation_index=index,
                    verdicts=verdicts if record_verdicts else None,
                )
            previous_dst = dst

        return PathCheckResult(
            valid=True,
            checked_edges=len(transfers),
            verdicts=verdicts if record_verdicts else None,
        )

    def _straight_line(self, start: int, end: int) -> bool:
        """True if control can flow from ``start`` to ``end`` without branching.

        ``start`` is the destination of the previous transfer and ``end`` the
        source of the next one, so every instruction in between must be a
        non-control-flow instruction and the addresses must increase by 4.
        """
        if end < start:
            return False
        if (end - start) % 4 != 0:
            return False
        address = start
        while address < end:
            block = self.cfg.block_containing(address)
            if block is None:
                return False
            instr = block.instructions[(address - block.start) // 4]
            if instr.is_control_flow:
                return False
            address += 4
        return True

    # ------------------------------------------------------- loop utilities
    def enumerate_loop_paths(
        self, header: int, body: Set[int], limit: int = 4096
    ) -> List[Tuple[int, ...]]:
        """Enumerate simple block paths header -> ... -> header within a loop.

        Used by the verifier to pre-compute the set of legal loop paths whose
        encodings may appear in the metadata ``L``.  ``limit`` bounds the
        number of enumerated paths to guard against combinatorial explosion on
        synthetic worst-case CFGs.
        """
        paths: List[Tuple[int, ...]] = []
        stack: List[Tuple[int, Tuple[int, ...]]] = [(header, (header,))]
        while stack and len(paths) < limit:
            node, path = stack.pop()
            for edge in self.cfg.successors(node):
                dst = edge.dst
                if dst == header:
                    paths.append(path + (header,))
                    continue
                if dst not in body or dst in path:
                    continue
                stack.append((dst, path + (dst,)))
        return paths
