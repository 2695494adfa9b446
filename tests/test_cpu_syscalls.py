"""Unit tests for the syscall environment."""

from repro.cpu.core import run_program
from repro.cpu.memory import Memory, MemoryRegion, Permissions
from repro.cpu.syscalls import SyscallHandler
from repro.isa.assembler import assemble
from repro.isa.registers import RegisterFile


class TestHandlerDirect:
    def _env(self):
        regs = RegisterFile()
        memory = Memory()
        memory.add_region(MemoryRegion("data", 0x0, 0x1000, Permissions.rw()))
        return regs, memory

    def test_exit(self):
        regs, memory = self._env()
        handler = SyscallHandler()
        regs["a7"] = 93
        regs["a0"] = 3
        result = handler.handle(regs, memory)
        assert result.exited and result.exit_code == 3
        assert handler.exit_code == 3

    def test_print_int_signed(self):
        regs, memory = self._env()
        handler = SyscallHandler()
        regs["a7"] = 1
        regs["a0"] = 0xFFFFFFFF
        handler.handle(regs, memory)
        assert handler.output_text == "-1"

    def test_print_char(self):
        regs, memory = self._env()
        handler = SyscallHandler()
        regs["a7"] = 11
        regs["a0"] = ord("x")
        handler.handle(regs, memory)
        assert handler.output_text == "x"

    def test_print_string(self):
        regs, memory = self._env()
        memory.store_bytes(0x100, b"pump\x00", check=False)
        handler = SyscallHandler()
        regs["a7"] = 4
        regs["a0"] = 0x100
        handler.handle(regs, memory)
        assert handler.output_text == "pump"

    def test_read_int_queue(self):
        regs, memory = self._env()
        handler = SyscallHandler(inputs=[5, 6])
        regs["a7"] = 5
        handler.handle(regs, memory)
        assert regs["a0"] == 5
        handler.handle(regs, memory)
        assert regs["a0"] == 6
        handler.handle(regs, memory)
        assert regs["a0"] == 0  # exhausted queue yields zero

    def test_push_input(self):
        regs, memory = self._env()
        handler = SyscallHandler()
        handler.push_input(9)
        regs["a7"] = 5
        handler.handle(regs, memory)
        assert regs["a0"] == 9

    def test_negative_input_wraps_to_unsigned_register(self):
        regs, memory = self._env()
        handler = SyscallHandler(inputs=[-3])
        regs["a7"] = 5
        handler.handle(regs, memory)
        assert regs["a0"] == 0xFFFFFFFD
        assert regs.read_signed(10) == -3

    def test_unknown_syscall_is_noop(self):
        regs, memory = self._env()
        handler = SyscallHandler()
        regs["a7"] = 4242
        result = handler.handle(regs, memory)
        assert not result.exited

    def test_printed_values_helper(self):
        regs, memory = self._env()
        handler = SyscallHandler()
        for value in (3, 7):
            regs["a7"] = 1
            regs["a0"] = value
            handler.handle(regs, memory)
        assert handler.printed_values == [3, 7]


class TestSyscallsFromPrograms:
    def test_program_reads_inputs_in_order(self):
        program = assemble("""
        _start:
            li a7, 5
            ecall
            mv t0, a0
            li a7, 5
            ecall
            add a0, a0, t0
            li a7, 1
            ecall
            li a7, 93
            ecall
        """)
        result = run_program(program, inputs=[30, 12])
        assert result.output == "42"

    def test_program_prints_string(self):
        program = assemble("""
            .data
        msg: .asciiz "hello"
            .text
        _start:
            la a0, msg
            li a7, 4
            ecall
            li a7, 93
            ecall
        """)
        assert run_program(program).output == "hello"
