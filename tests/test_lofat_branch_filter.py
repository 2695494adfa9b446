"""Unit tests for the branch filter's loop detection heuristics.

The filter is exercised through the LO-FAT engine attached to small, purpose
written programs, mirroring how the hardware block sees the pipeline signals.
"""

from repro.cpu.core import Cpu, CpuConfig
from repro.isa.assembler import assemble
from repro.lofat.branch_filter import FilterEventKind
from repro.lofat.config import LoFatConfig
from repro.lofat.engine import LoFatEngine


def run_engine(source, inputs=None, config=None, record_events=True):
    program = assemble(source)
    cpu = Cpu(program, inputs=list(inputs or []),
              config=CpuConfig(collect_trace=True))
    engine = LoFatEngine(config, record_filter_events=record_events)
    cpu.attach_monitor(engine.observe)
    result = cpu.run()
    measurement = engine.finalize()
    return program, result, engine, measurement


EXIT = "    li a7, 93\n    ecall\n"

STRAIGHT_LINE = """
_start:
    li a0, 1
    beq a0, zero, skip
    addi a0, a0, 1
skip:
""" + EXIT

SIMPLE_LOOP = """
_start:
    li t0, 4
loop:
    addi t0, t0, -1
    bnez t0, loop
""" + EXIT

LOOP_WITH_CALL = """
_start:
    li s0, 3
loop:
    call helper
    addi s0, s0, -1
    bnez s0, loop
""" + EXIT + """
helper:
    addi a0, a0, 1
    ret
"""

LOOP_WITH_BREAK = """
_start:
    li t0, 0
    li t1, 100
loop:
    addi t0, t0, 1
    li t2, 3
    beq t0, t2, escape
    blt t0, t1, loop
escape:
""" + EXIT

NESTED_LOOPS = """
_start:
    li s0, 0
outer:
    li s1, 0
inner:
    addi s1, s1, 1
    li t0, 3
    blt s1, t0, inner
    addi s0, s0, 1
    li t0, 2
    blt s0, t0, outer
""" + EXIT

LOOP_IN_FUNCTION = """
_start:
    call worker
""" + EXIT + """
worker:
    li t0, 3
wloop:
    addi t0, t0, -1
    bnez t0, wloop
    ret
"""


class TestBasicFiltering:
    def test_all_control_flow_observed(self):
        _, result, engine, _ = run_engine(STRAIGHT_LINE)
        stats = engine.branch_filter.stats
        assert stats.instructions_observed == result.instructions
        assert stats.control_flow_instructions == result.trace.control_flow_events

    def test_non_loop_branches_hashed_directly(self):
        _, result, engine, measurement = run_engine(STRAIGHT_LINE)
        stats = engine.branch_filter.stats
        assert stats.loops_discovered == 0
        assert stats.non_loop_branches == result.trace.control_flow_events
        assert measurement.stats["pairs_hashed"] == result.trace.control_flow_events

    def test_not_taken_branches_still_recorded(self):
        _, result, engine, measurement = run_engine(STRAIGHT_LINE)
        # The not-taken beq is a control-flow event and must reach the hash.
        hashed = engine.hash_engine.absorbed_pairs
        not_taken = [r for r in result.trace.control_flow_records if not r.taken]
        assert all(record.src_dest in hashed for record in not_taken)


class TestLoopDetection:
    def test_backward_conditional_discovers_loop(self):
        program, _, engine, measurement = run_engine(SIMPLE_LOOP)
        stats = engine.branch_filter.stats
        assert stats.loops_discovered == 1
        assert len(measurement.metadata) == 1
        assert measurement.metadata.loops[0].entry == program.symbol("loop")

    def test_loop_exit_node_is_block_after_back_edge(self):
        program, _, engine, measurement = run_engine(SIMPLE_LOOP)
        record = measurement.metadata.loops[0]
        # The back edge is the bnez; the exit node is the instruction after it.
        back_edge_addr = None
        for instr in program.instructions:
            if instr.is_conditional_branch and instr.imm < 0:
                back_edge_addr = instr.address
        assert record.exit_node == back_edge_addr + 4

    def test_iteration_count_matches_execution(self):
        _, _, engine, measurement = run_engine(SIMPLE_LOOP)
        record = measurement.metadata.loops[0]
        # t0 = 4: the loop body runs 4 times; the first iteration happens
        # before the loop is discovered, so 3 tracked iterations follow.
        assert record.iterations == 3

    def test_calls_are_not_loop_back_edges(self):
        _, _, engine, _ = run_engine("""
        _start:
            call helper
            call helper
        """ + EXIT + """
        helper:
            ret
        """)
        assert engine.branch_filter.stats.loops_discovered == 0

    def test_forward_jumps_are_not_back_edges(self):
        _, _, engine, _ = run_engine(STRAIGHT_LINE)
        assert engine.branch_filter.stats.loops_discovered == 0

    def test_filter_event_stream(self):
        _, _, engine, _ = run_engine(SIMPLE_LOOP)
        kinds = [event.kind for event in engine.branch_filter.events]
        assert FilterEventKind.LOOP_DISCOVERED in kinds
        assert FilterEventKind.LOOP_ITERATION in kinds
        assert FilterEventKind.LOOP_EXIT in kinds


class TestLoopExit:
    def test_loop_exits_on_fallthrough(self):
        _, _, engine, measurement = run_engine(SIMPLE_LOOP)
        assert engine.branch_filter.stats.loop_exits == 1
        assert engine.loop_monitor.depth == 0

    def test_loop_exits_on_break(self):
        program, _, engine, measurement = run_engine(LOOP_WITH_BREAK)
        assert engine.branch_filter.stats.loops_discovered == 1
        assert engine.branch_filter.stats.loop_exits == 1

    def test_call_inside_loop_does_not_exit_loop(self):
        program, _, engine, measurement = run_engine(LOOP_WITH_CALL)
        # One loop execution with 2 tracked iterations (3 total, first untracked).
        assert engine.branch_filter.stats.loops_discovered == 1
        assert len(measurement.metadata) == 1
        assert measurement.metadata.loops[0].iterations == 2

    def test_return_from_enclosing_function_exits_loop(self):
        program, _, engine, measurement = run_engine(LOOP_IN_FUNCTION)
        assert engine.branch_filter.stats.loops_discovered == 1
        assert engine.branch_filter.stats.loop_exits == 1
        assert engine.loop_monitor.depth == 0

    def test_finalize_closes_open_loops(self):
        # A loop that is still active when the program exits (exit inside it).
        source = """
        _start:
            li t0, 3
        loop:
            addi t0, t0, -1
            beqz t0, quit
            j loop
        quit:
            li a7, 93
            ecall
        """
        _, _, engine, measurement = run_engine(source)
        assert engine.loop_monitor.depth == 0
        assert len(measurement.metadata) >= 1


class TestNestedLoops:
    def test_nested_loops_tracked_at_two_levels(self):
        _, _, engine, measurement = run_engine(NESTED_LOOPS)
        depths = {record.depth for record in measurement.metadata}
        assert 1 in depths and 2 in depths

    def test_nesting_beyond_limit_is_not_tracked_separately(self):
        config = LoFatConfig(max_nested_loops=1)
        _, _, engine, measurement = run_engine(NESTED_LOOPS, config=config)
        assert engine.branch_filter.stats.loops_beyond_max_depth > 0
        assert all(record.depth == 1 for record in measurement.metadata)

    def test_zero_depth_configuration_tracks_no_loops(self):
        config = LoFatConfig(max_nested_loops=0)
        _, result, engine, measurement = run_engine(SIMPLE_LOOP, config=config)
        assert len(measurement.metadata) == 0
        # Without loop tracking every event is hashed directly.
        assert measurement.stats["pairs_hashed"] == result.trace.control_flow_events


class TestLatencyAccounting:
    def test_internal_latency_formula(self):
        config = LoFatConfig()
        _, result, engine, measurement = run_engine(SIMPLE_LOOP, config=config)
        stats = engine.branch_filter.stats
        expected = (config.branch_tracking_latency * stats.control_flow_instructions
                    + config.loop_exit_latency * stats.loop_exits)
        assert engine.branch_filter.internal_latency_cycles == expected
        assert measurement.stats["internal_latency_cycles"] == expected

    def test_processor_never_stalls(self):
        program = assemble(SIMPLE_LOOP)
        plain = Cpu(program).run()
        cpu = Cpu(program)
        engine = LoFatEngine()
        cpu.attach_monitor(engine.observe)
        monitored = cpu.run()
        assert monitored.cycles == plain.cycles
        assert engine.finalize().stats["processor_stall_cycles"] == 0
