"""Unit tests for dominator analysis."""

from repro.cfg.builder import build_cfg
from repro.cfg.dominators import (
    compute_dominators,
    dominates,
    dominator_tree,
    immediate_dominators,
)
from repro.isa.assembler import assemble

DIAMOND = """
_start:
    beq a0, a1, right
left:
    addi a0, a0, 1
    j join
right:
    addi a0, a0, 2
join:
    nop
    li a7, 93
    ecall
"""


class TestDominators:
    def test_entry_dominates_everything(self, simple_loop_program):
        cfg = build_cfg(simple_loop_program)
        dominators = compute_dominators(cfg)
        entry = cfg.entry_block.start
        for node, dom_set in dominators.items():
            assert entry in dom_set

    def test_every_node_dominates_itself(self, simple_loop_program):
        cfg = build_cfg(simple_loop_program)
        for node, dom_set in compute_dominators(cfg).items():
            assert node in dom_set

    def test_diamond_join_not_dominated_by_branches(self):
        program = assemble(DIAMOND)
        cfg = build_cfg(program)
        dominators = compute_dominators(cfg)
        left = cfg.block_containing(program.symbols["left"]).start
        right = cfg.block_containing(program.symbols["right"]).start
        join = cfg.block_containing(program.symbols["join"]).start
        assert not dominates(dominators, left, join)
        assert not dominates(dominators, right, join)
        assert dominates(dominators, cfg.entry_block.start, join)

    def test_immediate_dominators_diamond(self):
        program = assemble(DIAMOND)
        cfg = build_cfg(program)
        idoms = immediate_dominators(cfg)
        entry = cfg.entry_block.start
        join = cfg.block_containing(program.symbols["join"]).start
        assert idoms[entry] is None
        assert idoms[join] == entry

    def test_dominator_tree_structure(self):
        program = assemble(DIAMOND)
        cfg = build_cfg(program)
        tree = dominator_tree(cfg)
        entry = cfg.entry_block.start
        # The entry's children include both branch arms and the join block.
        assert len(tree[entry]) >= 3

    def test_loop_header_dominates_body(self, simple_loop_program):
        cfg = build_cfg(simple_loop_program)
        dominators = compute_dominators(cfg)
        header = cfg.block_containing(simple_loop_program.symbols["loop"]).start
        # The block containing the backward jump is dominated by the header.
        back_block = None
        for block in cfg.blocks:
            terminator = block.terminator
            if terminator.is_direct_jump and terminator.address + terminator.imm == header:
                back_block = block.start
        assert back_block is not None
        assert dominates(dominators, header, back_block)

    def test_unreachable_blocks_excluded(self):
        program = assemble("""
        _start:
            j end
        orphan:
            addi a0, a0, 1
        end:
            nop
        """)
        cfg = build_cfg(program)
        dominators = compute_dominators(cfg)
        orphan = cfg.block_containing(program.symbols["orphan"]).start
        # "orphan" is only reachable as a fall-through target of nothing: the
        # jump skips it and nothing branches to it, so it must not appear.
        assert orphan not in dominators
