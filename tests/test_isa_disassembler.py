"""Unit tests for the disassembler."""

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble, disassemble_program, format_instruction
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction


class TestFormatting:
    def test_r_type(self):
        assert format_instruction(Instruction("add", rd=10, rs1=11, rs2=12)) == "add a0, a1, a2"

    def test_i_type_alu(self):
        assert format_instruction(Instruction("addi", rd=1, rs1=2, imm=-5)) == "addi ra, sp, -5"

    def test_load_uses_memory_syntax(self):
        assert format_instruction(Instruction("lw", rd=10, rs1=2, imm=8)) == "lw a0, 8(sp)"

    def test_store_uses_memory_syntax(self):
        assert format_instruction(Instruction("sw", rs1=2, rs2=10, imm=-4)) == "sw a0, -4(sp)"

    def test_branch(self):
        assert format_instruction(Instruction("beq", rs1=5, rs2=6, imm=16)) == "beq t0, t1, 16"

    def test_jal_and_jalr(self):
        assert format_instruction(Instruction("jal", rd=1, imm=-8)) == "jal ra, -8"
        assert format_instruction(Instruction("jalr", rd=0, rs1=1, imm=0)) == "jalr zero, 0(ra)"

    def test_lui(self):
        assert format_instruction(Instruction("lui", rd=10, imm=0x12345)) == "lui a0, 0x12345"

    def test_system_instructions(self):
        assert format_instruction(Instruction("ecall")) == "ecall"
        assert format_instruction(Instruction("ebreak", imm=1)) == "ebreak"
        assert format_instruction(Instruction("fence")) == "fence"


class TestDisassemble:
    def test_disassemble_word(self):
        word = encode(Instruction("xor", rd=3, rs1=4, rs2=5))
        assert disassemble(word) == "xor gp, tp, t0"

    def test_reassembly_roundtrip(self):
        """Disassembled text re-assembles to the same words."""
        source = """
        _start:
            addi a0, zero, 10
            add  a1, a0, a0
            sw   a1, 0(sp)
            lw   a2, 0(sp)
            and  a3, a2, a1
        """
        program = assemble(source)
        listing = [disassemble(program.word_at(instr.address))
                   for instr in program.instructions]
        reassembled = assemble("\n".join(listing))
        assert reassembled.code == program.code

    def test_disassemble_program_listing(self):
        program = assemble("nop\nnop")
        lines = disassemble_program(program.code, base=program.code_base)
        assert len(lines) == 2
        assert lines[0].startswith("00000000:")
        assert "addi" in lines[0]

    def test_disassemble_program_handles_bad_words(self):
        lines = disassemble_program(b"\xff\xff\xff\xff")
        assert ".word" in lines[0]
