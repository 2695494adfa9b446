"""Unit tests for CFG construction."""

import pytest

from repro.cfg.builder import EdgeKind, build_cfg
from repro.cpu.core import CpuConfig, run_program
from repro.isa.assembler import assemble
from repro.workloads import get_workload


class TestCfgConstruction:
    def test_conditional_branch_has_two_successors(self):
        program = assemble("""
        _start:
            beq a0, a1, yes
            addi a0, a0, 1
            j end
        yes:
            addi a0, a0, 2
        end:
            nop
        """)
        cfg = build_cfg(program)
        entry = cfg.entry_block
        kinds = {edge.kind for edge in cfg.successors(entry.start)}
        assert kinds == {EdgeKind.BRANCH_TAKEN, EdgeKind.FALLTHROUGH}

    def test_fallthrough_edge(self):
        program = assemble("""
        _start:
            addi a0, a0, 1
        next:
            addi a0, a0, 2
        """)
        cfg = build_cfg(program)
        # "next" is a leader because it has a label/symbol.
        edges = cfg.successors(cfg.entry_block.start)
        assert any(edge.kind is EdgeKind.FALLTHROUGH for edge in edges)

    def test_call_edge_and_function_entries(self, call_return_program):
        cfg = build_cfg(call_return_program)
        call_edges = [edge for edge in cfg.edges if edge.kind is EdgeKind.CALL]
        assert len(call_edges) == 1
        assert call_return_program.symbols["double"] in cfg.function_entries()

    def test_return_edges_point_to_call_continuations(self, call_return_program):
        cfg = build_cfg(call_return_program)
        return_edges = [edge for edge in cfg.edges if edge.kind is EdgeKind.RETURN]
        assert return_edges, "expected at least one return edge"
        # The continuation is the instruction after the call site.
        call_edge = next(edge for edge in cfg.edges if edge.kind is EdgeKind.CALL)
        caller_block = cfg.block_starting_at(call_edge.src)
        continuation = cfg.block_containing(caller_block.end)
        assert any(edge.dst == continuation.start for edge in return_edges)

    def test_indirect_call_edges_cover_function_entries(self):
        workload = get_workload("dispatcher")
        program = workload.build()
        cfg = build_cfg(program)
        indirect = [edge for edge in cfg.edges if edge.kind is EdgeKind.INDIRECT]
        assert indirect, "dispatcher must produce indirect edges"
        targets = {edge.dst for edge in indirect}
        assert program.symbols["handler_status"] in targets

    def test_block_containing_lookup(self, simple_loop_program):
        cfg = build_cfg(simple_loop_program)
        for instr in simple_loop_program.instructions:
            block = cfg.block_containing(instr.address)
            assert block is not None
            assert block.contains(instr.address)
        assert cfg.block_containing(0xDEAD0000) is None

    def test_predecessors_are_consistent_with_successors(self, two_path_loop_program):
        cfg = build_cfg(two_path_loop_program)
        for edge in cfg.edges:
            assert edge in cfg.successors(edge.src)
            assert edge in cfg.predecessors(edge.dst)

    def test_edge_deduplication(self, simple_loop_program):
        cfg = build_cfg(simple_loop_program)
        assert len(cfg.edges) == len(set(cfg.edges))

    def test_summary_and_dot_render(self, simple_loop_program):
        cfg = build_cfg(simple_loop_program)
        summary = cfg.summary()
        assert summary["blocks"] == len(cfg.blocks)
        assert summary["edges"] == len(cfg.edges)
        dot = cfg.to_dot()
        assert dot.startswith("digraph") and "->" in dot


class TestCfgCoversExecution:
    """Every executed transfer must be explainable by the static CFG."""

    @pytest.mark.parametrize("workload_name", [
        "figure4_loop", "bubble_sort", "binary_search", "syringe_pump",
        "fibonacci", "dispatcher", "string_ops",
    ])
    def test_executed_block_transitions_are_cfg_edges(self, workload_name):
        workload = get_workload(workload_name)
        program = workload.build()
        cfg = build_cfg(program)
        result = run_program(program, inputs=list(workload.inputs),
                             config=CpuConfig(collect_trace=True))
        edge_set = cfg.edge_set()
        for record in result.trace.control_flow_records:
            if not record.taken:
                continue
            src_block = cfg.block_containing(record.pc)
            dst_block = cfg.block_containing(record.next_pc)
            assert src_block is not None and dst_block is not None
            assert (src_block.start, dst_block.start) in edge_set, (
                "executed edge %#x -> %#x missing from CFG" % (record.pc, record.next_pc)
            )
