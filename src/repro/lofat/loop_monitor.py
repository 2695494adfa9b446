"""The loop monitor: per-loop path encoding, counting and compression.

"When a branch inside a program loop is encountered, the branch filter
forwards this information to the loop monitor which in turn encodes each path
inside the loop uniquely.  Simultaneously, (Src, Dest) of each branch remains
stored in the branches memory. [...] LO-FAT generates a unique path encoding
for each loop path and associates an on-chip loop counter with it.  The loop
monitor indicates newly observed loop paths to the hash engine controller in
order to hash its corresponding (Src, Dest) from the branches memory.  On the
other hand, once the same loop path executes, LO-FAT only needs to increment
the counter, i.e., not requiring further hash operations." (paper §4)

This module owns the stack of active loops (supporting nesting up to the
configured depth), one :class:`LoopPathEncoder` + :class:`LoopCounterMemory` +
branch buffer per active loop, and produces a :class:`LoopRecord` for the
metadata generator when a loop exits.  A completed path is counted under
its integer path ID, so a repeated path costs one dictionary update; a
:class:`PathEncoding` is built only for a path seen for the first time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cpu.trace import BranchKind, TraceRecord
from repro.lofat.config import LoFatConfig
from repro.lofat.loop_counter_memory import LoopCounterMemory
from repro.lofat.metadata import LoopRecord, PathRecord
from repro.lofat.path_encoder import LoopPathEncoder, PathEncoding

#: Callback used to enable hashing of a buffered pair sequence
#: (the ``new_path ctrl`` towards the hash engine controller).
HashPairsCallback = Callable[[Sequence[Tuple[int, int]], int], None]
#: Callback delivering a finished LoopRecord to the metadata generator.
LoopExitCallback = Callable[[LoopRecord], None]

_CONDITIONAL = BranchKind.CONDITIONAL
_INDIRECT_JUMP = BranchKind.INDIRECT_JUMP
_INDIRECT_CALL = BranchKind.INDIRECT_CALL
_RETURN = BranchKind.RETURN


@dataclass
class ActiveLoop:
    """Run-time state of one currently-executing loop."""

    entry: int
    exit_node: int
    depth: int
    call_depth: int
    encoder: LoopPathEncoder
    counters: LoopCounterMemory
    #: (Src, Dest) pairs of the in-flight iteration ("branches memory").
    pair_buffer: List[Tuple[int, int]] = field(default_factory=list)
    #: Encodings in order of first occurrence, with the pair sequence that was
    #: hashed for them (needed to build the metadata path records).
    first_seen: List[PathEncoding] = field(default_factory=list)
    iterations: int = 0
    entered_at_cycle: int = 0

    def fold(self, record: TraceRecord) -> None:
        """Fold one control-flow event into the in-flight path and buffer."""
        kind = record.kind
        if kind is _CONDITIONAL:
            self.encoder.on_conditional(record.taken)
        elif kind is _INDIRECT_JUMP or kind is _INDIRECT_CALL or kind is _RETURN:
            self.encoder.on_indirect(record.next_pc)
        else:  # direct jumps and direct calls
            self.encoder.on_direct_jump()
        self.pair_buffer.append((record.pc, record.next_pc))


@dataclass
class LoopMonitorStats:
    """Aggregate counters describing loop compression effectiveness."""

    loops_entered: int = 0
    loops_exited: int = 0
    iterations_total: int = 0
    new_paths_hashed: int = 0
    repeated_paths_compressed: int = 0
    pairs_hashed_from_loops: int = 0
    pairs_compressed: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class LoopMonitor:
    """Tracks nested loops, encodes their paths and compresses repetitions."""

    def __init__(
        self,
        config: LoFatConfig,
        hash_pairs: HashPairsCallback,
        on_loop_exit: LoopExitCallback,
    ) -> None:
        self.config = config
        self.hash_pairs = hash_pairs
        self.on_loop_exit = on_loop_exit
        self.stats = LoopMonitorStats()
        self._stack: List[ActiveLoop] = []

    # -------------------------------------------------------------- queries
    @property
    def active_loops(self) -> List[ActiveLoop]:
        """The active loop stack (outermost first)."""
        return self._stack

    @property
    def depth(self) -> int:
        """Current nesting depth of tracked loops."""
        return len(self._stack)

    def find_loop_by_entry(self, entry: int) -> Optional[int]:
        """Stack index of the active loop with entry node ``entry``, if any."""
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index].entry == entry:
                return index
        return None

    # ------------------------------------------------------------ lifecycle
    def enter_loop(self, entry: int, exit_node: int, call_depth: int, cycle: int) -> ActiveLoop:
        """Start tracking a newly detected loop (entry/exit registers latch)."""
        loop = ActiveLoop(
            entry=entry,
            exit_node=exit_node,
            depth=len(self._stack) + 1,
            call_depth=call_depth,
            encoder=LoopPathEncoder(self.config),
            counters=LoopCounterMemory(self.config),
            entered_at_cycle=cycle,
        )
        self._stack.append(loop)
        self.stats.loops_entered += 1
        return loop

    def loop_branch(self, record: TraceRecord) -> None:
        """Fold one control-flow event into the innermost loop's path."""
        if not self._stack:
            raise RuntimeError("loop_branch called with no active loop")
        self._stack[-1].fold(record)

    def iteration_boundary(self, record: TraceRecord) -> None:
        """Close the current iteration of the innermost loop.

        For a back edge that returns control to the loop entry node; the
        back edge itself has already been folded into the path by
        :meth:`loop_branch`.  The branch filter's record loop closes the
        innermost loop's iterations through :meth:`complete_path` directly.
        """
        if not self._stack:
            raise RuntimeError("iteration_boundary called with no active loop")
        loop = self._stack[-1]
        self.complete_path(loop, record.cycle)

    def exit_loop(self, cycle: int) -> LoopRecord:
        """Terminate the innermost loop and emit its metadata record."""
        if not self._stack:
            raise RuntimeError("exit_loop called with no active loop")
        loop = self._stack.pop()
        # A partially executed path (the iteration during which the loop
        # exited, e.g. the failing while-condition or a break) is recorded as
        # a path of its own so the exit route is covered by the measurement.
        if not loop.encoder.is_empty or loop.pair_buffer:
            self.complete_path(loop, cycle)

        # The counter memory lists its paths in first-seen order, as
        # ``first_seen`` does.
        paths = [
            PathRecord(encoding=encoding, iterations=count, first_seen_index=index)
            for index, (encoding, (_, count)) in enumerate(
                zip(loop.first_seen, loop.counters.paths_in_first_seen_order()))
        ]
        record = LoopRecord(
            entry=loop.entry,
            exit_node=loop.exit_node,
            depth=loop.depth,
            iterations=loop.iterations,
            paths=paths,
            indirect_targets=loop.encoder.cam.targets_in_order(),
        )
        self.stats.loops_exited += 1
        self.on_loop_exit(record)
        loop.encoder.reset_loop()
        loop.counters.clear()
        return record

    def complete_path(self, loop: ActiveLoop, cycle: int) -> None:
        """Count ``loop``'s in-flight path by its integer ID; build its
        :class:`PathEncoding` and hash its pairs only if the path is new."""
        encoder = loop.encoder
        # Hand the buffered pairs over without copying: the buffer is re-bound
        # to a fresh list, so the hash engine owns the old one outright.
        pairs = loop.pair_buffer
        loop.pair_buffer = []
        loop.iterations += 1
        stats = self.stats
        stats.iterations_total += 1

        if loop.counters.record_path(encoder.path_id):
            loop.first_seen.append(encoder.finish())
            stats.new_paths_hashed += 1
            stats.pairs_hashed_from_loops += len(pairs)
            if pairs:
                self.hash_pairs(pairs, cycle)
        else:
            encoder.reset_path()
            stats.repeated_paths_compressed += 1
            stats.pairs_compressed += len(pairs)
