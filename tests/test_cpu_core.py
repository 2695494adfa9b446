"""Unit tests for the CPU core: semantics, cycle model, monitors, hooks."""

import pytest

from repro.cpu.core import Cpu, CpuConfig, run_program
from repro.cpu.exceptions import IllegalInstructionError, MemoryProtectionError, OutOfFuelError
from repro.cpu.trace import BranchKind
from repro.isa.assembler import assemble


def run_source(source, inputs=None, config=None):
    return run_program(assemble(source), inputs=inputs, config=config)


EXIT = """
    li a7, 93
    ecall
"""


class TestArithmetic:
    def test_add_sub(self):
        result = run_source("""
            li a0, 30
            li a1, 12
            add a2, a0, a1
            sub a3, a0, a1
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "4218"

    def test_logic_ops(self):
        result = run_source("""
            li a0, 0xF0
            li a1, 0x3C
            and a2, a0, a1
            or  a3, a0, a1
            xor a4, a0, a1
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
            mv a0, a4
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "%d%d%d" % (0xF0 & 0x3C, 0xF0 | 0x3C, 0xF0 ^ 0x3C)

    def test_shifts(self):
        result = run_source("""
            li a0, -8
            srai a1, a0, 1
            srli a2, a0, 28
            slli a3, a0, 1
            mv a0, a1
            li a7, 1
            ecall
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "%d%d%d" % (-4, (0xFFFFFFF8 >> 28), -16)

    def test_slt_family(self):
        result = run_source("""
            li a0, -5
            li a1, 3
            slt  a2, a0, a1
            sltu a3, a0, a1
            slti a4, a0, 0
            sltiu a5, a1, 10
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
            mv a0, a4
            li a7, 1
            ecall
            mv a0, a5
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "1011"

    def test_lui_auipc(self):
        result = run_source("""
            lui a0, 0x12345
            srli a0, a0, 12
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == str(0x12345)


class TestMulDiv:
    def test_mul(self):
        result = run_source("""
            li a0, -7
            li a1, 6
            mul a2, a0, a1
            mv a0, a2
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "-42"

    def test_mulh_variants(self):
        result = run_source("""
            li a0, 0x40000000
            li a1, 8
            mulh a2, a0, a1
            mulhu a3, a0, a1
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "22"

    def test_div_rem(self):
        result = run_source("""
            li a0, -7
            li a1, 2
            div a2, a0, a1
            rem a3, a0, a1
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
        """ + EXIT)
        # RISC-V division truncates towards zero.
        assert result.output == "-3-1"

    def test_divide_by_zero_semantics(self):
        result = run_source("""
            li a0, 9
            li a1, 0
            div a2, a0, a1
            remu a3, a0, a1
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "-19"

    def test_div_overflow_case(self):
        result = run_source("""
            li a0, 0x80000000
            li a1, -1
            div a2, a0, a1
            rem a3, a0, a1
            mv a0, a2
            li a7, 1
            ecall
            mv a0, a3
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "%d0" % -(1 << 31)


class TestMemoryInstructions:
    def test_store_load_word(self):
        result = run_source("""
            .data
        buf: .space 16
            .text
        _start:
            la t0, buf
            li t1, 0x11223344
            sw t1, 4(t0)
            lw a0, 4(t0)
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == str(0x11223344)

    def test_byte_sign_extension(self):
        result = run_source("""
            .data
        buf: .space 4
            .text
        _start:
            la t0, buf
            li t1, 0xFF
            sb t1, 0(t0)
            lb a0, 0(t0)
            lbu a1, 0(t0)
            li a7, 1
            ecall
            mv a0, a1
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "-1255"

    def test_halfword_access(self):
        result = run_source("""
            .data
        buf: .space 4
            .text
        _start:
            la t0, buf
            li t1, -2
            sh t1, 2(t0)
            lh a0, 2(t0)
            lhu a1, 2(t0)
            li a7, 1
            ecall
            mv a0, a1
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "-2%d" % 0xFFFE

    def test_write_to_code_faults(self):
        program = assemble("""
        _start:
            sw zero, 0(zero)
        """)
        with pytest.raises(MemoryProtectionError):
            Cpu(program).run()


class TestControlFlow:
    def test_taken_and_not_taken_branches(self):
        result = run_source("""
            li a0, 1
            li a1, 2
            blt a0, a1, taken
            li a2, 111
            j out
        taken:
            li a2, 222
        out:
            mv a0, a2
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == "222"

    def test_call_return(self, call_return_program):
        result = run_program(call_return_program)
        assert result.output == "14"

    def test_branch_kinds_in_trace(self, call_return_program):
        result = run_program(call_return_program,
                             config=CpuConfig(collect_trace=True))
        kinds = [r.kind for r in result.trace if r.is_control_flow]
        assert BranchKind.DIRECT_CALL in kinds
        assert BranchKind.RETURN in kinds

    def test_loop_trace_counts(self, simple_loop_program):
        result = run_program(simple_loop_program,
                             config=CpuConfig(collect_trace=True))
        assert result.output == "10"
        # 6 bge evaluations (5 not taken + final taken) and 5 backward jumps.
        conditionals = [r for r in result.trace
                        if r.kind is BranchKind.CONDITIONAL]
        jumps = [r for r in result.trace if r.kind is BranchKind.DIRECT_JUMP]
        assert len(conditionals) == 6
        assert len(jumps) == 5
        assert sum(1 for r in conditionals if r.taken) == 1

    def test_ebreak_halts(self):
        result = run_source("""
            li a0, 5
            ebreak
            li a0, 6
            li a7, 1
            ecall
        """ + EXIT)
        assert result.output == ""

    def test_illegal_instruction_faults(self):
        program = assemble("""
            .text
        _start:
            nop
        """)
        # Overwrite the nop with an undecodable word at load time.
        program = assemble("_start:\n    nop")
        # The step loop fetches from memory; a compiled plan is built from
        # the program image, which the overwrite does not change.
        cpu = Cpu(program, config=CpuConfig(engine="legacy"))
        cpu.memory.load_image(0, b"\xff\xff\xff\xff")
        with pytest.raises(IllegalInstructionError):
            cpu.run()


class TestCycleModel:
    def test_cycle_count_includes_penalties(self):
        config = CpuConfig(taken_branch_penalty=3, load_latency=2)
        result = run_source("""
            li a0, 1
            j skip
        skip:
            li a7, 93
            ecall
        """, config=config)
        # 4 instructions + 3-cycle penalty for the taken jump.
        assert result.instructions == 4
        assert result.cycles == 4 + 3

    def test_load_latency_charged(self):
        config = CpuConfig(load_latency=5)
        result = run_source("""
            .data
        v: .word 3
            .text
        _start:
            la t0, v
            lw t1, 0(t0)
            li a7, 93
            ecall
        """, config=config)
        # la = 2, lw = 1, li = 1, ecall = 1 -> 5 instructions + 5 load latency.
        assert result.instructions == 5
        assert result.cycles == 10

    def test_div_latency_charged(self):
        fast = run_source("li a0, 9\nli a1, 3\ndiv a2, a0, a1\n" + EXIT,
                          config=CpuConfig(div_latency=0))
        slow = run_source("li a0, 9\nli a1, 3\ndiv a2, a0, a1\n" + EXIT,
                          config=CpuConfig(div_latency=32))
        assert slow.cycles - fast.cycles == 32

    def test_out_of_fuel(self):
        program = assemble("""
        spin:
            j spin
        """)
        cpu = Cpu(program, config=CpuConfig(max_instructions=100))
        with pytest.raises(OutOfFuelError):
            cpu.run()


class TestMonitorsAndHooks:
    def test_monitor_sees_every_retired_instruction(self, simple_loop_program):
        seen = []
        cpu = Cpu(simple_loop_program, config=CpuConfig(collect_trace=True))
        cpu.attach_monitor(seen.append)
        result = cpu.run()
        assert len(seen) == result.instructions
        assert [r.pc for r in seen] == [r.pc for r in result.trace]

    def test_monitor_cannot_change_cycles(self, simple_loop_program):
        plain = Cpu(simple_loop_program).run()
        cpu = Cpu(simple_loop_program)
        cpu.attach_monitor(lambda record: None)
        monitored = cpu.run()
        assert monitored.cycles == plain.cycles
        assert monitored.output == plain.output

    def test_pc_hook_can_corrupt_data(self):
        source = """
            .data
        flag: .word 0
            .text
        _start:
            la t0, flag
            lw a0, 0(t0)
            li a7, 1
            ecall
        """ + EXIT
        program = assemble(source)

        def corrupt(cpu):
            cpu.memory.store_word(program.symbol("flag"), 99)

        cpu = Cpu(program)
        cpu.add_pc_hook(program.symbol("_start") + 8, corrupt)  # before the lw
        assert cpu.run().output == "99"
        assert cpu.engine_used == "compiled"

    def test_exit_code_propagated(self):
        result = run_source("""
            li a0, 17
            li a7, 93
            ecall
        """)
        assert result.exit_code == 17

    def test_registers_snapshot_in_result(self):
        result = run_source("li s11, 123\n" + EXIT)
        assert result.registers[27] == 123
