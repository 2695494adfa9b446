"""Natural-loop detection.

The verifier's offline analysis identifies program loops so it can interpret
the loop metadata ``L`` produced by LO-FAT (path encodings and iteration
counts per loop).  A natural loop is induced by a back edge ``u -> v`` where
``v`` dominates ``u``; its body is every block that can reach ``u`` without
passing through ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.builder import ControlFlowGraph


@dataclass
class NaturalLoop:
    """A natural loop of the CFG.

    Attributes:
        header: block start address of the loop header (entry node).
        back_edges: the (latch, header) edges that close the loop.
        body: block start addresses of every block in the loop (incl. header).
        exits: blocks outside the loop that are successors of loop blocks.
        depth: 1 for outermost loops, increasing with nesting.
        parent: header address of the enclosing loop, if any.
    """

    header: int
    back_edges: List[Tuple[int, int]] = field(default_factory=list)
    body: Set[int] = field(default_factory=set)
    exits: Set[int] = field(default_factory=set)
    depth: int = 1
    parent: Optional[int] = None

    def contains(self, block_start: int) -> bool:
        """True if the block belongs to the loop body."""
        return block_start in self.body

    @property
    def size(self) -> int:
        """Number of blocks in the loop body."""
        return len(self.body)


def _intraprocedural_edges(cfg: ControlFlowGraph) -> Dict[int, Set[int]]:
    """Successor map restricted to intraprocedural control flow.

    Natural loops are an intraprocedural concept: call, return and indirect
    edges are dropped, and every call site gets a pseudo fall-through edge to
    its continuation block (the standard compiler treatment of calls).
    """
    from repro.cfg.builder import EdgeKind

    successors: Dict[int, Set[int]] = {block.start: set() for block in cfg.blocks}
    for edge in cfg.edges:
        if edge.kind in (EdgeKind.FALLTHROUGH, EdgeKind.BRANCH_TAKEN, EdgeKind.JUMP):
            successors[edge.src].add(edge.dst)
        elif edge.kind is EdgeKind.CALL:
            caller = cfg.block_starting_at(edge.src)
            continuation = cfg.block_containing(caller.end) if caller else None
            if continuation is not None:
                successors[edge.src].add(continuation.start)
    return successors


def _intraprocedural_dominators(
    cfg: ControlFlowGraph, successors: Dict[int, Set[int]]
) -> Dict[int, Set[int]]:
    """Dominators over the intraprocedural graph with a virtual multi-root.

    Every function entry (and the program entry) acts as a root so that loops
    inside functions that are only ever called (never jumped to) are analysed
    with their own entry as the dominator-tree root.
    """
    roots = {cfg.program.entry} | cfg.function_entries()
    roots = {root for root in roots if cfg.block_starting_at(root) is not None}

    reachable: Set[int] = set()
    worklist = list(roots)
    while worklist:
        node = worklist.pop()
        if node in reachable:
            continue
        reachable.add(node)
        worklist.extend(successors.get(node, ()))

    predecessors: Dict[int, Set[int]] = {node: set() for node in reachable}
    for src in reachable:
        for dst in successors.get(src, ()):
            if dst in reachable:
                predecessors[dst].add(src)

    dominators: Dict[int, Set[int]] = {node: set(reachable) for node in reachable}
    for root in roots:
        dominators[root] = {root}

    changed = True
    order = sorted(reachable)
    while changed:
        changed = False
        for node in order:
            if node in roots:
                continue
            preds = predecessors[node]
            if not preds:
                new_set = {node}
            else:
                new_set = set(reachable)
                for pred in preds:
                    new_set &= dominators[pred]
                new_set.add(node)
            if new_set != dominators[node]:
                dominators[node] = new_set
                changed = True
    return dominators


def find_natural_loops(cfg: ControlFlowGraph) -> List[NaturalLoop]:
    """Find all natural loops of ``cfg``, with nesting depth information."""
    successors = _intraprocedural_edges(cfg)
    dominators = _intraprocedural_dominators(cfg, successors)
    loops_by_header: Dict[int, NaturalLoop] = {}

    for src, dsts in successors.items():
        for dst in dsts:
            if src not in dominators or dst not in dominators:
                continue  # unreachable
            if dst not in dominators[src]:
                continue  # not a back edge
            loop = loops_by_header.setdefault(dst, NaturalLoop(header=dst))
            loop.back_edges.append((src, dst))
            loop.body |= _natural_loop_body_intraprocedural(successors, src, dst)

    loops = list(loops_by_header.values())

    # Exits: intraprocedural successors of body blocks outside the body.
    for loop in loops:
        for block in loop.body:
            for dst in successors.get(block, ()):
                if dst not in loop.body:
                    loop.exits.add(dst)

    # Nesting: loop A is nested in loop B if A's header is in B's body and
    # A != B.  Depth is the number of enclosing loops plus one.
    for loop in loops:
        enclosing = [
            other for other in loops
            if other is not loop and loop.header in other.body
        ]
        loop.depth = len(enclosing) + 1
        if enclosing:
            # The innermost enclosing loop is the one with the largest depth,
            # equivalently the smallest body among enclosing loops.
            parent = min(enclosing, key=lambda candidate: len(candidate.body))
            loop.parent = parent.header

    loops.sort(key=lambda loop: loop.header)
    return loops


def _natural_loop_body_intraprocedural(
    successors: Dict[int, Set[int]], latch: int, header: int
) -> Set[int]:
    """Blocks of the natural loop defined by back edge ``latch -> header``."""
    predecessors: Dict[int, Set[int]] = {}
    for src, dsts in successors.items():
        for dst in dsts:
            predecessors.setdefault(dst, set()).add(src)

    body = {header, latch}
    worklist = [latch]
    while worklist:
        node = worklist.pop()
        if node == header:
            continue
        for pred in predecessors.get(node, ()):
            if pred not in body:
                body.add(pred)
                worklist.append(pred)
    return body


def max_nesting_depth(loops: List[NaturalLoop]) -> int:
    """The deepest nesting level among ``loops`` (0 when there are none)."""
    return max((loop.depth for loop in loops), default=0)


def loop_for_block(loops: List[NaturalLoop], block_start: int) -> Optional[NaturalLoop]:
    """The innermost loop containing ``block_start``, if any."""
    candidates = [loop for loop in loops if loop.contains(block_start)]
    if not candidates:
        return None
    return max(candidates, key=lambda loop: loop.depth)
