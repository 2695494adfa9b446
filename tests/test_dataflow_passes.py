"""Behavioural tests for the dataflow passes on hand-written assembly."""

import pytest

from repro.cache import clear_caches
from repro.cfg.builder import build_cfg
from repro.dataflow import analyze_program, lint_program, new_findings
from repro.dataflow.liveness import analyze_liveness
from repro.dataflow.reaching import INITIAL_PC, analyze_reaching_definitions
from repro.isa.assembler import assemble


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_caches()
    yield
    clear_caches()


def _analyze(source):
    return analyze_program(assemble(source))


COUNTED_LOOP = """
_start:
    addi t0, x0, 0        # i = 0
    addi t1, x0, 10       # n = 10
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    addi a7, x0, 93
    ecall
"""


class TestIntervalsAndReachability:
    def test_constant_branch_prunes_edge(self):
        analysis = _analyze("""
        _start:
            addi t0, x0, 5
            beq  t0, x0, dead     # 5 == 0 never holds
            addi a0, x0, 1
            j    end
        dead:
            addi a0, x0, 99
        end:
            addi a7, x0, 93
            ecall
        """)
        dead = analysis.program.symbols["dead"]
        assert dead in analysis.unreachable_blocks
        entry = analysis.cfg.entry_block.start
        assert (entry, dead) in analysis.intervals.infeasible_edges

    def test_unreachable_after_unconditional_jump(self):
        analysis = _analyze("""
        _start:
            j    end
        orphan:
            addi a0, x0, 7
        end:
            addi a7, x0, 93
            ecall
        """)
        assert analysis.program.symbols["orphan"] in analysis.unreachable_blocks

    def test_indirect_jump_resolved_to_constant_target(self):
        analysis = _analyze("""
        _start:
            jal  ra, helper
            addi t0, x0, 20       # address of "helper" (code base 0)
            jalr ra, t0, 0        # function-pointer call, provable target
            addi a7, x0, 93
            ecall
        helper:
            jalr x0, ra, 0
        """)
        jump_pc = analysis.program.symbols["_start"] + 8
        targets, resolved = analysis.intervals.indirect_targets[jump_pc]
        assert resolved
        assert targets == frozenset({analysis.program.symbols["helper"]})

    def test_valid_pairs_match_cfg_minus_infeasible(self):
        analysis = _analyze(COUNTED_LOOP)
        loop = analysis.program.symbols["loop"]
        # The back edge (branch at loop+4 -> loop) must be a valid pair;
        # sources are terminator addresses, not block starts.
        assert (loop + 4, loop) in analysis.valid_pairs
        for src, dst in analysis.valid_pairs:
            assert analysis.instruction_at(src) is not None


class TestLoopBounds:
    def test_register_counter_exact_bound(self):
        analysis = _analyze(COUNTED_LOOP)
        loop = analysis.program.symbols["loop"]
        bound = analysis.loop_bounds[loop]
        assert bound.max_back_edges == 9      # i: 1..10, continue while i < 10
        assert bound.exact_back_edges == 9

    def test_data_dependent_loop_unbounded(self):
        analysis = _analyze("""
        _start:
            addi a7, x0, 5        # read n
            ecall
            addi t0, x0, 0
        loop:
            addi t0, t0, 1
            blt  t0, a0, loop
            addi a7, x0, 93
            ecall
        """)
        loop = analysis.program.symbols["loop"]
        assert analysis.loop_bounds[loop].max_back_edges is None

    def test_decrement_loop_bound(self):
        analysis = _analyze("""
        _start:
            addi t0, x0, 8
        loop:
            addi t0, t0, -1
            bne  t0, x0, loop
            addi a7, x0, 93
            ecall
        """)
        loop = analysis.program.symbols["loop"]
        bound = analysis.loop_bounds[loop]
        assert bound.max_back_edges == 7
        assert bound.exact_back_edges == 7


class TestLivenessAndReaching:
    def test_dead_def_detected(self):
        program = assemble("""
        _start:
            addi t0, x0, 42       # overwritten before any use
            addi t0, x0, 7
            addi a0, t0, 0
            addi a7, x0, 93
            ecall
        """)
        liveness = analyze_liveness(build_cfg(program))
        assert any(d.pc == program.code_base and d.register == 5
                   for d in liveness.dead_defs)

    def test_used_def_not_dead(self):
        program = assemble("""
        _start:
            addi t0, x0, 42
            addi a0, t0, 0
            addi a7, x0, 93
            ecall
        """)
        liveness = analyze_liveness(build_cfg(program))
        assert not any(d.pc == program.code_base for d in liveness.dead_defs)

    def test_reaching_definitions_merge_at_join(self):
        program = assemble("""
        _start:
            beq  a0, x0, other
            addi t0, x0, 1
            j    join
        other:
            addi t0, x0, 2
        join:
            addi a0, t0, 0
            addi a7, x0, 93
            ecall
        """)
        reaching = analyze_reaching_definitions(build_cfg(program))
        join = program.symbols["join"]
        t0_defs = {pc for reg, pc in reaching.reach_in[join] if reg == 5}
        assert len(t0_defs) == 2
        assert INITIAL_PC not in t0_defs


class TestLintAndCache:
    def test_lint_reports_dead_block_and_unbounded_loop(self):
        analysis = _analyze("""
        _start:
            addi a7, x0, 5
            ecall
        loop:
            addi a0, a0, -1
            bne  a0, x0, loop
            j    end
        orphan:
            addi a0, x0, 1
        end:
            addi a7, x0, 93
            ecall
        """)
        kinds = {f.kind for f in lint_program(analysis)}
        assert "dead-block" in kinds
        assert "unbounded-loop" in kinds

    def test_new_findings_diff(self):
        analysis = _analyze("""
        _start:
            j    end
        orphan:
            addi a0, x0, 1
        end:
            addi a7, x0, 93
            ecall
        """)
        findings = lint_program(analysis)
        assert findings
        baseline = [f.to_json() for f in findings]
        assert new_findings(findings, baseline) == []
        assert new_findings(findings, baseline[1:]) == [findings[0]]

    def test_analysis_cached_by_digest(self):
        program = assemble(COUNTED_LOOP)
        first = analyze_program(program)
        again = analyze_program(assemble(COUNTED_LOOP))
        assert first is again
        clear_caches()
        assert analyze_program(program) is not first

    def test_policy_roundtrip_through_json(self):
        analysis = _analyze(COUNTED_LOOP)
        policy = analysis.policy
        from repro.dataflow import StaticPolicy
        clone = StaticPolicy.from_json(policy.to_json())
        assert clone == policy
        assert clone.policy_digest() == policy.policy_digest()
