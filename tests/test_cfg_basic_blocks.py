"""Unit tests for basic-block partitioning."""

from repro.cfg.basic_blocks import split_basic_blocks
from repro.isa.assembler import assemble


class TestBasicBlocks:
    def test_straight_line_is_one_block(self):
        program = assemble("""
        _start:
            addi a0, zero, 1
            addi a1, zero, 2
            add a2, a0, a1
        """)
        blocks = split_basic_blocks(program)
        assert len(blocks) == 1
        assert blocks[0].size == 3

    def test_branch_splits_blocks(self, simple_loop_program):
        blocks = split_basic_blocks(simple_loop_program)
        # Every control-flow instruction terminates its block.
        for block in blocks:
            non_terminators = block.instructions[:-1]
            assert all(not instr.is_control_flow for instr in non_terminators)

    def test_branch_target_starts_block(self):
        program = assemble("""
        _start:
            beq a0, a1, target
            addi a0, a0, 1
            addi a0, a0, 2
        target:
            addi a1, a1, 1
        """)
        blocks = split_basic_blocks(program)
        starts = {block.start for block in blocks}
        assert program.symbols["target"] in starts

    def test_instruction_after_branch_starts_block(self):
        program = assemble("""
        _start:
            j skip
            addi a0, a0, 1
        skip:
            nop
        """)
        blocks = split_basic_blocks(program)
        starts = {block.start for block in blocks}
        assert 4 in starts  # the instruction after the jump

    def test_blocks_cover_all_instructions_once(self, two_path_loop_program):
        blocks = split_basic_blocks(two_path_loop_program)
        covered = [instr.address for block in blocks for instr in block.instructions]
        expected = [instr.address for instr in two_path_loop_program.instructions]
        assert sorted(covered) == sorted(expected)
        assert len(covered) == len(set(covered))

    def test_blocks_are_contiguous(self, two_path_loop_program):
        for block in split_basic_blocks(two_path_loop_program):
            addresses = [instr.address for instr in block.instructions]
            assert addresses == list(range(block.start, block.end, 4))

    def test_labels_attached(self):
        program = assemble("""
        _start:
            nop
            j helper
        helper:
            nop
        """)
        blocks = split_basic_blocks(program)
        labels = {block.label for block in blocks if block.label}
        assert "helper" in labels
        assert "_start" in labels

    def test_terminator_properties(self, simple_loop_program):
        blocks = split_basic_blocks(simple_loop_program)
        for block in blocks:
            assert block.terminator_address == block.end - 4
            assert block.contains(block.start)
            assert not block.contains(block.end)

    def test_empty_program(self):
        program = assemble("    .data\n    .word 1")
        assert split_basic_blocks(program) == []

    def test_indices_are_dense_and_ordered(self, two_path_loop_program):
        blocks = split_basic_blocks(two_path_loop_program)
        assert [block.index for block in blocks] == list(range(len(blocks)))
        assert all(blocks[i].start < blocks[i + 1].start for i in range(len(blocks) - 1))
