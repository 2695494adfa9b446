"""Unit tests for the verifier-side path checker."""

import pytest

from repro.cfg.builder import build_cfg
from repro.cfg.loops import find_natural_loops
from repro.cfg.paths import EdgeValidity, PathChecker
from repro.cpu.core import CpuConfig, run_program
from repro.workloads import get_workload


@pytest.fixture
def figure4_setup():
    workload = get_workload("figure4_loop")
    program = workload.build()
    cfg = build_cfg(program)
    return workload, program, cfg, PathChecker(cfg)


class TestEdgeValidity:
    def test_valid_conditional_edges(self, figure4_setup):
        workload, program, cfg, checker = figure4_setup
        result = run_program(program, inputs=list(workload.inputs),
                             config=CpuConfig(collect_trace=True))
        for record in result.trace.control_flow_records:
            verdict = checker.classify_edge(*record.src_dest)
            assert verdict.ok, "benign edge %#x->%#x judged %s" % (
                record.pc, record.next_pc, verdict)

    def test_invalid_target_outside_program(self, figure4_setup):
        _, program, _, checker = figure4_setup
        branch_addr = None
        for instr in program.instructions:
            if instr.is_conditional_branch:
                branch_addr = instr.address
                break
        assert checker.classify_edge(branch_addr, 0xFFFF0000) is EdgeValidity.INVALID_TARGET

    def test_invalid_source_outside_program(self, figure4_setup):
        _, program, _, checker = figure4_setup
        assert checker.classify_edge(0xFFFF0000, program.entry) is EdgeValidity.INVALID_SOURCE

    def test_conditional_to_arbitrary_address_rejected(self, figure4_setup):
        _, program, cfg, checker = figure4_setup
        branch = next(i for i in program.instructions if i.is_conditional_branch)
        # Jumping from a conditional branch to the entry point is not one of
        # its two legal successors.
        bogus_target = program.entry
        if bogus_target in (branch.address + 4, branch.address + branch.imm):
            bogus_target = branch.address + 8
        verdict = checker.classify_edge(branch.address, bogus_target)
        assert verdict is EdgeValidity.NOT_AN_EDGE

    def test_transfer_from_non_terminator_rejected(self, figure4_setup):
        _, program, cfg, checker = figure4_setup
        # Find a non-control-flow instruction that is not a block terminator.
        for block in cfg.blocks:
            if block.size >= 2:
                addr = block.instructions[0].address
                verdict = checker.classify_edge(addr, addr + 4)
                assert verdict is EdgeValidity.NOT_AN_EDGE
                break

    def test_return_to_non_call_site_rejected(self):
        program = get_workload("vulnerable_process").build()
        checker = PathChecker(build_cfg(program))
        # The return inside process(): returning into secret_gadget is illegal.
        ret_addr = None
        for instr in program.instructions:
            if instr.is_return:
                ret_addr = instr.address
        assert ret_addr is not None
        verdict = checker.classify_edge(ret_addr, program.symbols["secret_gadget"])
        assert verdict is EdgeValidity.NOT_AN_EDGE

    def test_indirect_call_to_function_entry_allowed(self):
        program = get_workload("dispatcher").build()
        checker = PathChecker(build_cfg(program))
        call_addr = None
        for instr in program.instructions:
            if instr.is_indirect_jump and instr.writes_link_register:
                call_addr = instr.address
        assert call_addr is not None
        verdict = checker.classify_edge(call_addr, program.symbols["handler_sample"])
        assert verdict is EdgeValidity.VALID_INDIRECT


class TestPathChecking:
    @pytest.mark.parametrize("workload_name", [
        "figure4_loop", "bubble_sort", "syringe_pump", "fibonacci",
        "dispatcher", "crc32", "binary_search",
    ])
    def test_benign_traces_are_valid_paths(self, workload_name):
        workload = get_workload(workload_name)
        program = workload.build()
        checker = PathChecker(build_cfg(program))
        result = run_program(program, inputs=list(workload.inputs),
                             config=CpuConfig(collect_trace=True))
        outcome = checker.check_path(result.trace.executed_edges)
        assert outcome.valid, "violation at %s" % (outcome.first_violation,)

    def test_tampered_trace_is_rejected(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        checker = PathChecker(build_cfg(program))
        result = run_program(program, inputs=list(workload.inputs),
                             config=CpuConfig(collect_trace=True))
        edges = list(result.trace.executed_edges)
        # Redirect one edge to an arbitrary (but in-program) address that is
        # not a successor of its source.
        src, _ = edges[2]
        edges[2] = (src, program.entry + 4)
        outcome = checker.check_path(edges)
        assert not outcome.valid
        assert outcome.violation_index is not None

    def test_disconnected_path_is_rejected(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        checker = PathChecker(build_cfg(program))
        result = run_program(program, inputs=list(workload.inputs),
                             config=CpuConfig(collect_trace=True))
        edges = list(result.trace.executed_edges)
        # Drop an intermediate edge: the resulting sequence "teleports".
        del edges[1]
        outcome = checker.check_path(edges)
        assert not outcome.valid

    def test_verdict_recording(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        checker = PathChecker(build_cfg(program))
        result = run_program(program, inputs=list(workload.inputs),
                             config=CpuConfig(collect_trace=True))
        outcome = checker.check_path(result.trace.executed_edges, record_verdicts=True)
        assert outcome.valid
        assert len(outcome.verdicts) == len(result.trace.executed_edges)
        assert all(verdict.ok for verdict in outcome.verdicts)

    def test_empty_path_is_valid(self, figure4_setup):
        *_, checker = figure4_setup
        assert checker.check_path([]).valid


class TestLoopPathEnumeration:
    def test_figure4_loop_has_two_paths(self, figure4_setup):
        _, program, cfg, checker = figure4_setup
        loops = find_natural_loops(cfg)
        assert len(loops) == 1
        loop = loops[0]
        paths = checker.enumerate_loop_paths(loop.header, loop.body)
        assert len(paths) == 2
        assert all(path[0] == loop.header and path[-1] == loop.header for path in paths)

    def test_enumeration_respects_limit(self, figure4_setup):
        _, _, cfg, checker = figure4_setup
        loop = find_natural_loops(cfg)[0]
        assert len(checker.enumerate_loop_paths(loop.header, loop.body, limit=1)) == 1
