"""Retired-instruction trace records.

The LO-FAT branch filter is "tightly coupled to the processor" and observes,
for every clock cycle, the current program counter and the executed
instruction (paper §4/§5.1).  :class:`TraceRecord` is the Python equivalent of
those pipeline signals: one record per retired instruction, carrying the PC,
the raw instruction word, the decoded instruction, the next PC and the branch
outcome.  The records are produced by :class:`repro.cpu.core.Cpu` and consumed
by :class:`repro.lofat.branch_filter.BranchFilter`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional

from repro.isa.instructions import Instruction


class BranchKind(enum.Enum):
    """Classification of a retired control-flow instruction."""

    NOT_CONTROL_FLOW = "none"
    CONDITIONAL = "conditional"
    DIRECT_JUMP = "direct_jump"
    DIRECT_CALL = "direct_call"
    INDIRECT_JUMP = "indirect_jump"
    INDIRECT_CALL = "indirect_call"
    RETURN = "return"

    @property
    def is_control_flow(self) -> bool:
        return self is not BranchKind.NOT_CONTROL_FLOW

    @property
    def is_indirect(self) -> bool:
        return self in (
            BranchKind.INDIRECT_JUMP,
            BranchKind.INDIRECT_CALL,
            BranchKind.RETURN,
        )

    @property
    def is_linking(self) -> bool:
        """True if the transfer writes the link register (a subroutine call)."""
        return self in (BranchKind.DIRECT_CALL, BranchKind.INDIRECT_CALL)


def classify_branch(instruction: Instruction) -> BranchKind:
    """Classify ``instruction`` the way the branch filter does in hardware."""
    if instruction.is_conditional_branch:
        return BranchKind.CONDITIONAL
    if instruction.is_direct_jump:
        if instruction.writes_link_register:
            return BranchKind.DIRECT_CALL
        return BranchKind.DIRECT_JUMP
    if instruction.is_indirect_jump:
        if instruction.is_return:
            return BranchKind.RETURN
        if instruction.writes_link_register:
            return BranchKind.INDIRECT_CALL
        return BranchKind.INDIRECT_JUMP
    return BranchKind.NOT_CONTROL_FLOW


@dataclass
class TraceRecord:
    """One retired instruction as observed on the pipeline interface.

    Attributes:
        index: retirement order (0-based).
        cycle: cycle at which the instruction retired under the cost model.
        pc: address of the instruction (the branch *source*).
        word: raw 32-bit instruction word.
        instruction: decoded instruction.
        next_pc: address of the next retired instruction (the branch *dest*).
        kind: control-flow classification.
        taken: for conditional branches, whether the branch was taken; for
            unconditional transfers always True; for non-control-flow False.
    """

    index: int
    cycle: int
    pc: int
    word: int
    instruction: Instruction
    next_pc: int
    kind: BranchKind
    taken: bool

    @property
    def is_control_flow(self) -> bool:
        """True if this record should reach the branch filter's output."""
        return self.kind.is_control_flow

    @property
    def src_dest(self) -> tuple:
        """The (Src, Dest) address pair hashed by LO-FAT."""
        return (self.pc, self.next_pc)

    @property
    def is_backward(self) -> bool:
        """True for a taken transfer whose destination precedes its source."""
        return self.taken and self.next_pc <= self.pc


@dataclass
class ExecutionTrace:
    """A full retired-instruction trace plus summary statistics."""

    records: List[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def control_flow_records(self) -> List[TraceRecord]:
        """Only the records the branch filter lets through."""
        return [r for r in self.records if r.is_control_flow]

    @property
    def control_flow_events(self) -> int:
        """Number of retired control-flow instructions."""
        return sum(1 for r in self.records if r.is_control_flow)

    @property
    def taken_control_flow_events(self) -> int:
        """Number of control-flow instructions that actually redirected the PC."""
        return sum(1 for r in self.records if r.is_control_flow and r.taken)

    @property
    def executed_edges(self) -> List[tuple]:
        """The sequence of (Src, Dest) pairs of all control-flow instructions."""
        return [r.src_dest for r in self.records if r.is_control_flow]

    @property
    def cycles(self) -> int:
        """Total cycles consumed (cycle of the last retired instruction)."""
        if not self.records:
            return 0
        return self.records[-1].cycle

    def summary(self) -> dict:
        """A small dictionary of trace statistics used in reports."""
        kinds = {}
        for record in self.records:
            if record.is_control_flow:
                kinds[record.kind.value] = kinds.get(record.kind.value, 0) + 1
        return {
            "instructions": len(self.records),
            "cycles": self.cycles,
            "control_flow_events": self.control_flow_events,
            "taken_control_flow_events": self.taken_control_flow_events,
            "by_kind": kinds,
        }


class TraceNotRecordedError(RuntimeError):
    """Raised when per-record trace data is requested from a streaming trace."""


class ControlFlowTrace:
    """Control-flow records plus straight-line run counters (capture format).

    The compact representation behind the capture-once / verify-many
    pipeline: only the control-flow :class:`TraceRecord` objects are kept --
    exactly the stream the fast execution path delivers to batched monitors
    -- together with the summary counters of the straight-line instructions
    between them.  Replaying the records through a scheme session's
    ``observe_batch`` (plus one ``finish_run`` with the stored totals)
    produces the same measurement as live execution, while the stored size
    is O(control-flow events), not O(instructions).

    A :class:`ControlFlowTrace` doubles as a CPU monitor: attach
    :meth:`observe` via :meth:`repro.cpu.core.Cpu.attach_monitor` and the
    fast path feeds it through :meth:`observe_batch`/:meth:`finish_run`,
    while the legacy per-record loop goes through :meth:`observe`.  The
    statistics surface mirrors :class:`ExecutionTrace` (``cycles``,
    ``control_flow_events``, ``summary()``, ``len()``), so cost models work
    on it unchanged; per-instruction record access raises
    :class:`TraceNotRecordedError` like a streaming trace.
    """

    def __init__(
        self,
        records: Optional[List[TraceRecord]] = None,
        instructions: int = 0,
        cycles: int = 0,
        replayable: bool = True,
    ) -> None:
        self._cf_records: List[TraceRecord] = list(records or [])
        self._instructions = instructions
        self._cycles = cycles
        #: False when the capture observed a control-flow redirect without a
        #: record (a pre-hook rewrote the PC): the straight-line continuity
        #: batched replay relies on is broken, so replaying these records
        #: could diverge from the live measurement.
        self._replayable = replayable
        #: ``next_pc`` of the last per-record observation (None before any).
        self._expected_pc: Optional[int] = None

    @classmethod
    def from_trace(cls, trace: "ExecutionTrace") -> "ControlFlowTrace":
        """Compact a full per-instruction trace into its control-flow form
        (replayable only if every record starts at its predecessor's
        ``next_pc``)."""
        records = trace.records
        return cls(
            records=trace.control_flow_records,
            instructions=len(trace),
            cycles=trace.cycles,
            replayable=all(
                before.next_pc == after.pc
                for before, after in zip(records, islice(records, 1, None))
            ),
        )

    # ------------------------------------------------------- capture (input)
    def observe(self, record: TraceRecord) -> None:
        """Per-record capture hook (legacy interpreter loop)."""
        if self._expected_pc is not None and record.pc != self._expected_pc:
            self._replayable = False
        self._expected_pc = record.next_pc
        self._instructions += 1
        if record.cycle > self._cycles:
            self._cycles = record.cycle
        if record.kind.is_control_flow:
            self._cf_records.append(record)

    def observe_batch(self, records) -> None:
        """Batched capture hook (fast path; control-flow records only)."""
        if records:
            self._cf_records.extend(records)
            last_cycle = records[-1].cycle
            if last_cycle > self._cycles:
                self._cycles = last_cycle

    def observe_block(self, records, chunk, pairs) -> None:
        """Per-block capture hook (compiled engine).

        A capture only needs the records themselves; the precomputed hash
        chunk is for measurement sessions, so delegate to the batched hook.
        """
        self.observe_batch(records)

    def finish_run(self, instructions: int, cycle: int) -> None:
        """End-of-run sync from the fast path (totals incl. straight-line tail)."""
        if instructions > self._instructions:
            self._instructions = instructions
        if cycle > self._cycles:
            self._cycles = cycle

    def sync_straight_line(self, next_pc: int, cycle: int) -> None:
        """A pre-hook redirected control flow: mark the capture non-replayable."""
        self._replayable = False

    # ---------------------------------------------------------- statistics
    @property
    def replayable(self) -> bool:
        """True when batched replay of the records reproduces the live run."""
        return self._replayable

    @property
    def control_flow_records(self) -> List[TraceRecord]:
        """The captured control-flow records, in retirement order."""
        return self._cf_records

    @property
    def control_flow_events(self) -> int:
        return len(self._cf_records)

    @property
    def taken_control_flow_events(self) -> int:
        return sum(1 for r in self._cf_records if r.taken)

    @property
    def executed_edges(self) -> List[tuple]:
        return [r.src_dest for r in self._cf_records]

    @property
    def cycles(self) -> int:
        return self._cycles

    @property
    def instructions(self) -> int:
        """Total retired instructions.

        Equals ``len(self)`` for any trace a CPU can produce, but unlike
        ``__len__`` it can carry a full u64 (a deserialised blob may declare
        a count Python's ``__len__`` protocol cannot return).
        """
        return self._instructions

    def __len__(self) -> int:
        return self._instructions

    def __iter__(self) -> Iterator[TraceRecord]:
        raise TraceNotRecordedError(
            "a control-flow trace keeps only control-flow records; iterate "
            "control_flow_records (offline replay must go through a "
            "session's observe_batch, not per-record observe)"
        )

    def __getitem__(self, index):
        raise TraceNotRecordedError(
            "per-instruction records were not kept in a control-flow trace"
        )

    @property
    def records(self) -> List[TraceRecord]:
        raise TraceNotRecordedError(
            "per-instruction records were not kept in a control-flow trace"
        )

    def summary(self) -> dict:
        kinds: Dict[str, int] = {}
        for record in self._cf_records:
            kinds[record.kind.value] = kinds.get(record.kind.value, 0) + 1
        return {
            "instructions": self._instructions,
            "cycles": self._cycles,
            "control_flow_events": len(self._cf_records),
            "taken_control_flow_events": self.taken_control_flow_events,
            "by_kind": kinds,
        }


class StreamingTrace:
    """Trace statistics without record accumulation.

    A drop-in replacement for :class:`ExecutionTrace` on the statistics side
    (``cycles``, ``control_flow_events``, ``summary()``, ``len()``) that keeps
    only running counters: each :class:`TraceRecord` is observed, counted and
    dropped.  This is what the attestation hot path uses -- LO-FAT itself
    consumes the instruction stream as it retires, so neither the verifier's
    golden replay nor the campaign workers need the O(instructions) record
    list in memory.  Accessing per-record data raises
    :class:`TraceNotRecordedError`.
    """

    def __init__(self) -> None:
        self._instructions = 0
        self._cycles = 0
        self._control_flow_events = 0
        self._taken_control_flow_events = 0
        self._by_kind: Dict[str, int] = {}

    def append(self, record: TraceRecord) -> None:
        self._instructions += 1
        self._cycles = record.cycle
        if record.is_control_flow:
            self._control_flow_events += 1
            kind = record.kind.value
            self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
            if record.taken:
                self._taken_control_flow_events += 1

    def absorb_counts(
        self,
        instructions: int,
        cycles: int,
        control_flow_events: int,
        taken_control_flow_events: int,
        by_kind: Dict[str, int],
    ) -> None:
        """Fold the summary counters of a fast-path run into the trace.

        The fused inner loop (:meth:`repro.cpu.core.Cpu.run_fast`) counts
        retirements locally instead of materializing a :class:`TraceRecord`
        per instruction; this absorbs those counters in one call so the
        streaming trace reports the same summary as per-record appends.
        ``cycles`` is the absolute cycle of the last retired instruction.
        """
        self._instructions += instructions
        if cycles > self._cycles:
            self._cycles = cycles
        self._control_flow_events += control_flow_events
        self._taken_control_flow_events += taken_control_flow_events
        for kind, count in by_kind.items():
            self._by_kind[kind] = self._by_kind.get(kind, 0) + count

    def __len__(self) -> int:
        return self._instructions

    def __iter__(self) -> Iterator[TraceRecord]:
        raise TraceNotRecordedError(
            "trace records were not kept (CpuConfig.collect_trace=False); "
            "only summary statistics are available on a streaming trace"
        )

    def __getitem__(self, index):
        raise TraceNotRecordedError(
            "trace records were not kept (CpuConfig.collect_trace=False)"
        )

    @property
    def records(self) -> List[TraceRecord]:
        raise TraceNotRecordedError(
            "trace records were not kept (CpuConfig.collect_trace=False)"
        )

    @property
    def control_flow_records(self) -> List[TraceRecord]:
        raise TraceNotRecordedError(
            "trace records were not kept (CpuConfig.collect_trace=False)"
        )

    @property
    def executed_edges(self) -> List[tuple]:
        raise TraceNotRecordedError(
            "trace records were not kept (CpuConfig.collect_trace=False)"
        )

    @property
    def control_flow_events(self) -> int:
        return self._control_flow_events

    @property
    def taken_control_flow_events(self) -> int:
        return self._taken_control_flow_events

    @property
    def cycles(self) -> int:
        return self._cycles

    def summary(self) -> dict:
        return {
            "instructions": self._instructions,
            "cycles": self._cycles,
            "control_flow_events": self._control_flow_events,
            "taken_control_flow_events": self._taken_control_flow_events,
            "by_kind": dict(self._by_kind),
        }
