"""The branch filter: control-flow extraction and run-time loop detection.

The branch filter is "tightly coupled to the processor, extracts the current
program counter and instruction executed per clock cycle [and] filters in
every branch, jump and return instruction" (paper §4).  On top of the
filtering it performs the run-time loop detection of §5.1:

* **Loop entry**: the target of every *taken, non-linking backward* branch is
  considered a loop entry node.  Linking branches (those writing the link
  register ``ra``/``t0``) are subroutine calls, not loop back edges, and
  function returns are recognised by the canonical ``jalr x0, ra, 0`` idiom.
* **Loop exit**: the basic block following the backward branch is the loop
  exit node; the loop terminates when execution proceeds to or past that
  address (sequentially or via a non-linking branch) while not inside a
  function called from the loop body.

The filter does not keep per-path state itself -- it drives the
:class:`repro.lofat.loop_monitor.LoopMonitor` through the same control
interface the hardware uses (``non_loops ctrl``, ``loops_status ctrl``,
``branch_status ctrl``), here expressed as callbacks.

Per-record, batched and per-block observation all feed one record loop,
:meth:`BranchFilter._observe_records`, with its state in locals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cpu.trace import BranchKind, TraceRecord
from repro.lofat.config import LoFatConfig
from repro.lofat.loop_monitor import LoopMonitor

_NOT_CONTROL_FLOW = BranchKind.NOT_CONTROL_FLOW
_CONDITIONAL = BranchKind.CONDITIONAL
_DIRECT_JUMP = BranchKind.DIRECT_JUMP
_DIRECT_CALL = BranchKind.DIRECT_CALL
_INDIRECT_CALL = BranchKind.INDIRECT_CALL
_RETURN = BranchKind.RETURN


class FilterEventKind(enum.Enum):
    """Events the branch filter reports (for tests and diagnostics)."""

    NON_LOOP_BRANCH = "non_loop_branch"
    LOOP_DISCOVERED = "loop_discovered"
    LOOP_BRANCH = "loop_branch"
    LOOP_ITERATION = "loop_iteration"
    LOOP_EXIT = "loop_exit"


@dataclass
class FilterEvent:
    """One event emitted by the branch filter (diagnostic stream)."""

    kind: FilterEventKind
    cycle: int
    pc: int
    detail: str = ""


@dataclass
class FilterStats:
    """Counters describing what the filter observed."""

    instructions_observed: int = 0
    control_flow_instructions: int = 0
    non_loop_branches: int = 0
    loop_branches: int = 0
    loops_discovered: int = 0
    loop_iterations: int = 0
    loop_exits: int = 0
    loops_beyond_max_depth: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class BranchFilter:
    """Filters the retired-instruction stream and detects loops at run time.

    Parameters:
        config: LO-FAT configuration (nesting depth, latencies, ...).
        loop_monitor: the loop monitor driven by this filter.
        hash_non_loop: callback invoked with (record) for every control-flow
            instruction outside any tracked loop -- the ``non_loops ctrl``
            path that enables direct hashing of the (Src, Dest) pair.
        hash_non_loop_run: batched variant, called with a run of
            consecutive non-loop records (same bytes, same order).
        hash_non_loop_chunk: per-block variant, called with
            ``(chunk, pairs, records)`` whose pair bytes were serialized at
            block-compile time (compiled engine).
        record_events: keep a diagnostic list of :class:`FilterEvent`.
    """

    def __init__(
        self,
        config: LoFatConfig,
        loop_monitor: LoopMonitor,
        hash_non_loop: Callable[[TraceRecord], None],
        hash_non_loop_run: Callable[[Sequence[TraceRecord]], None],
        hash_non_loop_chunk: Callable,
        record_events: bool = False,
    ) -> None:
        self.config = config
        self.loop_monitor = loop_monitor
        #: The monitor's loop stack (it pushes and pops this one list).
        self._loops = loop_monitor.active_loops
        self.hash_non_loop = hash_non_loop
        self.hash_non_loop_run = hash_non_loop_run
        self.hash_non_loop_chunk = hash_non_loop_chunk
        self.stats = FilterStats()
        self.events: List[FilterEvent] = []
        self._record_events = record_events
        self._call_depth = 0
        #: ``next_pc`` of the most recently observed record: the start of the
        #: straight-line run leading to the next observed record.  Batched
        #: (control-flow-only) observation uses it to perform the loop-exit
        #: check over the whole run at once.
        self._linear_start: Optional[int] = None
        #: Cycles of internal latency accumulated (2 per branch event plus 5
        #: per loop exit); these overlap with program execution and do not
        #: stall the core -- they are reported by experiment E2.
        self.internal_latency_cycles = 0

    # ------------------------------------------------------------- helpers
    def _emit(self, kind: FilterEventKind, record_or_cycle, pc: int, detail: str = "") -> None:
        if not self._record_events:
            return
        cycle = record_or_cycle.cycle if isinstance(record_or_cycle, TraceRecord) else record_or_cycle
        self.events.append(FilterEvent(kind, cycle, pc, detail))

    # --------------------------------------------------------------- input
    def observe(self, record: TraceRecord) -> None:
        """Process one retired instruction (the per-cycle pipeline snoop).

        Its loop-exit check covers its own pc only: a pc hook may have
        moved the pc since the previous record."""
        self._linear_start = None
        self._observe_records((record,))

    def observe_batch(self, records: Sequence[TraceRecord]) -> None:
        """Process a batch of retired *control-flow* records.

        The fast execution pipeline only materializes control-flow records;
        every instruction between two observed records is a straight-line run
        from the previous record's ``next_pc`` up to the next record's
        ``pc``.  Because program counters in such a run increase
        monotonically, the per-instruction loop-exit check reduces to one
        range check per observed record (``run_start < entry`` or
        ``pc >= exit_node``), and consecutive non-loop branches are hashed as
        a single run through :attr:`hash_non_loop_run`.

        The pair sequence reaching the hash engine -- hence the measurement
        and the loop metadata -- is identical to per-record observation.
        ``instructions_observed`` is synchronized from the record retirement
        indices, so it excludes any straight-line tail after the last
        control-flow instruction.
        """
        self._observe_records(records)

    def observe_block(self, records: Sequence[TraceRecord], chunk, pairs) -> None:
        """Process one compiled block's control-flow records.

        ``records[:len(pairs)]`` are the block's chain-internal jumps --
        by construction *forward, taken, non-linking direct jumps*, whose
        pre-masked (Src, Dest) pairs and concatenated bytes the block
        compiler produced once at compile time -- and the remainder is the
        block terminator (dynamic outcome, at most one record).

        The internal jumps can take the precomputed-chunk shortcut only
        while no loop is active: a forward direct jump is never a back edge
        and never changes the call depth, so outside loops each one is a
        plain directly-hashed non-loop branch and the whole run absorbs as
        one chunk.  Inside a loop (or when diagnostics record per-event
        streams) the records go through the record loop like a batch,
        preserving the loop-path and loop-exit semantics instruction for
        instruction; so does the terminator.
        """
        n = len(pairs)
        if (
            n
            and len(records) >= n
            and not self._record_events
            and not self._loops
        ):
            internal = records[:n]
            stats = self.stats
            stats.instructions_observed = internal[-1].index + 1
            stats.control_flow_instructions += n
            stats.non_loop_branches += n
            self.internal_latency_cycles += n * self.config.branch_tracking_latency
            self._linear_start = internal[-1].next_pc
            self.hash_non_loop_chunk(chunk, pairs, internal)
            records = records[n:]
        self._observe_records(records)

    def _observe_records(self, records: Sequence[TraceRecord]) -> None:
        """The one record loop behind every ``observe*`` method.

        Call depth, the run start and the loop stack live in locals.  A
        branch folded into the innermost loop and the back edge closing its
        iteration are handled inline; loop discovery, re-entry of an outer
        loop, folding beyond ``max_nested_loops`` and exits go through
        helpers.  Directly hashed branches are absorbed as one run, flushed
        before any loop event so the absorb order is unchanged.
        """
        if not records:
            return
        stack = self._loops
        record_events = self._record_events
        emit = self._emit
        exit_loops_in_range = self._exit_loops_in_range
        complete_path = self.loop_monitor.complete_path
        depth = self._call_depth
        run_start = self._linear_start
        control_flow = loop_branches = non_loop_branches = iterations = 0
        #: Consecutive directly-hashable branches awaiting one absorb call.
        pending: List[TraceRecord] = []
        for record in records:
            pc = record.pc
            # 1. Loop-exit detection over the straight-line run
            #    [run_start, pc].
            if stack:
                exit_loops_in_range(pc if run_start is None else run_start, pc,
                                    record.cycle, depth)
            next_pc = record.next_pc
            run_start = next_pc
            kind = record.kind
            if kind is _NOT_CONTROL_FLOW:
                # Per-record observation sees every instruction; a batch
                # carries control-flow records only.  Neither has a pair.
                continue
            control_flow += 1

            # 2. Call-depth tracking for the exit heuristic.
            if kind is _DIRECT_CALL or kind is _INDIRECT_CALL:
                depth += 1
            elif kind is _RETURN:
                if depth:
                    depth -= 1
                elif stack:
                    # A return at the loop's own call depth leaves the
                    # function containing the loop: every active loop in
                    # this frame exits.
                    self._exit_all_loops(record)

            # 3. A back edge is a taken, non-linking, backward direct
            #    transfer: a conditional branch or a plain ``jal x0``.
            if (kind is _CONDITIONAL or kind is _DIRECT_JUMP) and record.taken \
                    and next_pc <= pc:
                if pending:
                    self.hash_non_loop_run(pending)
                    pending = []
                if stack and stack[-1].entry == next_pc:
                    # Another iteration of the innermost loop.
                    loop = stack[-1]
                    loop.fold(record)
                    complete_path(loop, record.cycle)
                    loop_branches += 1
                    iterations += 1
                    if record_events:
                        emit(FilterEventKind.LOOP_ITERATION, record, pc,
                             "entry=%#x" % next_pc)
                else:
                    self._call_depth = depth
                    self._handle_back_edge(record)

            # 4. Ordinary control flow: inside a loop it contributes to the
            #    innermost loop's path; outside it is hashed directly.
            elif stack:
                stack[-1].fold(record)
                loop_branches += 1
                if record_events:
                    emit(FilterEventKind.LOOP_BRANCH, record, pc)
            else:
                pending.append(record)
                non_loop_branches += 1
                if record_events:
                    emit(FilterEventKind.NON_LOOP_BRANCH, record, pc)
        if pending:
            self.hash_non_loop_run(pending)
        self._call_depth = depth
        self._linear_start = run_start
        stats = self.stats
        stats.instructions_observed = records[-1].index + 1
        stats.control_flow_instructions += control_flow
        stats.loop_branches += loop_branches
        stats.non_loop_branches += non_loop_branches
        stats.loop_iterations += iterations
        self.internal_latency_cycles += control_flow * self.config.branch_tracking_latency

    def sync_straight_line(self, next_pc: int, cycle: int) -> None:
        """Apply loop-exit checks for an unobserved straight-line run.

        Called when batched observation ends mid-run and the run continues
        on the per-record step loop (e.g. a pc hook redirected control
        flow): straight-line execution advanced from the last observed
        record's ``next_pc`` up to -- but not including -- ``next_pc``, and
        produced no records.  This performs the same
        range-based exit check :meth:`observe_batch` would have applied at
        the next control-flow record, so switching to per-record observation
        afterwards starts from the correct loop state.
        """
        run_start = self._linear_start
        # The straight-line continuity is broken after this point.
        self._linear_start = None
        if run_start is None or run_start >= next_pc:
            return  # nothing retired since the last observed record
        self._exit_loops_in_range(run_start, next_pc - 4, cycle, self._call_depth)

    def _exit_loops_in_range(self, run_start: int, last_pc: int, cycle: int,
                             call_depth: int) -> None:
        """Pop active loops exited by the monotone pc run [run_start, last_pc].

        The one loop-exit stack walk behind every observation mode: some pc
        in the run is past the exit node iff the last one is, and some pc
        precedes the loop entry iff the first one does -- so the per-record
        check is simply the degenerate run ``run_start == last_pc``.  Only
        loops entered at ``call_depth`` (the current frame) can exit.
        """
        stack = self._loops
        while stack:
            top = stack[-1]
            if call_depth != top.call_depth:
                return
            if last_pc >= top.exit_node or run_start < top.entry:
                self._exit_top_loop(cycle, last_pc)
                continue
            return

    # ---------------------------------------------------------- back edges
    def _handle_back_edge(self, record: TraceRecord) -> None:
        monitor = self.loop_monitor
        entry = record.next_pc

        # Another iteration of an already-tracked loop?
        depth_index = monitor.find_loop_by_entry(entry)
        if depth_index is not None:
            # Inner loops (if any) implicitly terminate when control jumps
            # back to an outer loop's entry node.
            while monitor.depth - 1 > depth_index:
                self._exit_top_loop(record.cycle, record.pc)
            monitor.loop_branch(record)
            monitor.iteration_boundary(record)
            self.stats.loop_branches += 1
            self.stats.loop_iterations += 1
            self._emit(FilterEventKind.LOOP_ITERATION, record, record.pc,
                       "entry=%#x" % entry)
            return

        # A new loop.  If we are already at the configured nesting depth the
        # loop is not tracked separately; its branches stay part of the
        # innermost tracked loop (coarser granularity, as §5.1 allows).
        if monitor.depth >= self.config.max_nested_loops:
            self.stats.loops_beyond_max_depth += 1
            if monitor.active_loops:
                monitor.loop_branch(record)
                self.stats.loop_branches += 1
            else:
                self.hash_non_loop(record)
                self.stats.non_loop_branches += 1
            return

        # The discovery back edge itself is attributed to the enclosing
        # context (outer loop path or direct hashing): the loop becomes
        # tracked only once its entry and exit registers are latched.
        if monitor.active_loops:
            monitor.loop_branch(record)
            self.stats.loop_branches += 1
        else:
            self.hash_non_loop(record)
            self.stats.non_loop_branches += 1

        exit_node = record.pc + 4
        monitor.enter_loop(
            entry=entry,
            exit_node=exit_node,
            call_depth=self._call_depth,
            cycle=record.cycle,
        )
        self.stats.loops_discovered += 1
        self._emit(FilterEventKind.LOOP_DISCOVERED, record, record.pc,
                   "entry=%#x exit=%#x" % (entry, exit_node))

    # --------------------------------------------------------------- exits
    def _exit_top_loop(self, cycle: int, pc: int) -> None:
        self.loop_monitor.exit_loop(cycle)
        self.stats.loop_exits += 1
        self.internal_latency_cycles += self.config.loop_exit_latency
        self._emit(FilterEventKind.LOOP_EXIT, cycle, pc)

    def _exit_all_loops(self, record: TraceRecord) -> None:
        while self._loops:
            self._exit_top_loop(record.cycle, record.pc)

    def finalize(self, cycle: int) -> None:
        """Close any loops still active when the attested execution ends."""
        while self._loops:
            self._exit_top_loop(cycle, 0)
