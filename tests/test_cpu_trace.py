"""Unit tests for trace records and classification."""

from repro.cpu.core import CpuConfig, run_program
from repro.cpu.trace import BranchKind, ExecutionTrace, TraceRecord, classify_branch
from repro.isa.instructions import Instruction

#: These tests read per-instruction records.
TRACED = CpuConfig(collect_trace=True)


class TestClassifyBranch:
    def test_conditional(self):
        assert classify_branch(Instruction("bne", rs1=1, rs2=2, imm=-8)) is BranchKind.CONDITIONAL

    def test_direct_jump_and_call(self):
        assert classify_branch(Instruction("jal", rd=0, imm=8)) is BranchKind.DIRECT_JUMP
        assert classify_branch(Instruction("jal", rd=1, imm=8)) is BranchKind.DIRECT_CALL

    def test_indirect_jump_call_return(self):
        assert classify_branch(Instruction("jalr", rd=0, rs1=6)) is BranchKind.INDIRECT_JUMP
        assert classify_branch(Instruction("jalr", rd=1, rs1=6)) is BranchKind.INDIRECT_CALL
        assert classify_branch(Instruction("jalr", rd=0, rs1=1)) is BranchKind.RETURN

    def test_non_control_flow(self):
        assert classify_branch(Instruction("add", rd=1, rs1=2, rs2=3)) is BranchKind.NOT_CONTROL_FLOW

    def test_kind_properties(self):
        assert BranchKind.DIRECT_CALL.is_linking
        assert BranchKind.INDIRECT_CALL.is_linking
        assert not BranchKind.DIRECT_JUMP.is_linking
        assert BranchKind.RETURN.is_indirect
        assert not BranchKind.CONDITIONAL.is_indirect
        assert not BranchKind.NOT_CONTROL_FLOW.is_control_flow


class TestTraceRecord:
    def _record(self, **overrides):
        defaults = dict(
            index=0, cycle=1, pc=0x100, word=0,
            instruction=Instruction("beq", rs1=0, rs2=0, imm=-16, address=0x100),
            next_pc=0xF0, kind=BranchKind.CONDITIONAL, taken=True,
        )
        defaults.update(overrides)
        return TraceRecord(**defaults)

    def test_src_dest_pair(self):
        record = self._record()
        assert record.src_dest == (0x100, 0xF0)

    def test_backward_detection(self):
        assert self._record().is_backward
        assert not self._record(next_pc=0x104, taken=True).is_backward
        assert not self._record(taken=False).is_backward

    def test_is_control_flow(self):
        assert self._record().is_control_flow
        plain = self._record(kind=BranchKind.NOT_CONTROL_FLOW, taken=False)
        assert not plain.is_control_flow


class TestExecutionTrace:
    def test_summary_counts(self, simple_loop_program):
        result = run_program(simple_loop_program, config=TRACED)
        summary = result.trace.summary()
        assert summary["instructions"] == result.instructions
        assert summary["cycles"] == result.cycles
        assert summary["control_flow_events"] == result.trace.control_flow_events
        assert summary["by_kind"]["conditional"] == 6

    def test_executed_edges_are_control_flow_only(self, simple_loop_program):
        result = run_program(simple_loop_program, config=TRACED)
        edges = result.trace.executed_edges
        assert len(edges) == result.trace.control_flow_events
        assert all(isinstance(edge, tuple) and len(edge) == 2 for edge in edges)

    def test_taken_events_subset(self, simple_loop_program):
        trace = run_program(simple_loop_program, config=TRACED).trace
        assert trace.taken_control_flow_events <= trace.control_flow_events

    def test_indexing_and_iteration(self, simple_loop_program):
        trace = run_program(simple_loop_program, config=TRACED).trace
        assert trace[0].index == 0
        assert len(list(iter(trace))) == len(trace)

    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.cycles == 0
        assert trace.control_flow_events == 0
        assert trace.summary()["instructions"] == 0
