"""Instruction-to-text conversion (disassembly).

Used for diagnostics, program listings in the examples, and for the
round-trip property tests (assemble -> encode -> decode -> format ->
re-assemble).
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.encoding import decode
from repro.isa.instructions import Instruction, InstructionFormat
from repro.isa.registers import register_name


def format_instruction(instr: Instruction) -> str:
    """Render ``instr`` as canonical assembly text (no pseudo-instructions)."""
    spec = instr.spec
    mnemonic = instr.mnemonic
    fmt = spec.fmt

    if mnemonic in ("ecall", "ebreak", "fence"):
        return mnemonic

    if fmt is InstructionFormat.R:
        return "%s %s, %s, %s" % (
            mnemonic,
            register_name(instr.rd),
            register_name(instr.rs1),
            register_name(instr.rs2),
        )
    if fmt is InstructionFormat.U:
        return "%s %s, %#x" % (mnemonic, register_name(instr.rd), instr.imm)
    if fmt is InstructionFormat.J:
        return "%s %s, %d" % (mnemonic, register_name(instr.rd), instr.imm)
    if fmt is InstructionFormat.B:
        return "%s %s, %s, %d" % (
            mnemonic,
            register_name(instr.rs1),
            register_name(instr.rs2),
            instr.imm,
        )
    if fmt is InstructionFormat.S:
        return "%s %s, %d(%s)" % (
            mnemonic,
            register_name(instr.rs2),
            instr.imm,
            register_name(instr.rs1),
        )
    # I-format
    if spec.is_load or mnemonic == "jalr":
        return "%s %s, %d(%s)" % (
            mnemonic,
            register_name(instr.rd),
            instr.imm,
            register_name(instr.rs1),
        )
    return "%s %s, %s, %d" % (
        mnemonic,
        register_name(instr.rd),
        register_name(instr.rs1),
        instr.imm,
    )


def disassemble(word: int, address: Optional[int] = None) -> str:
    """Decode a 32-bit instruction ``word`` and render it as text."""
    return format_instruction(decode(word, address))


def disassemble_program(code: bytes, base: int = 0) -> List[str]:
    """Disassemble an entire code section into a listing with addresses."""
    lines: List[str] = []
    for offset in range(0, len(code) - len(code) % 4, 4):
        word = int.from_bytes(code[offset:offset + 4], "little")
        address = base + offset
        try:
            text = disassemble(word, address)
        except Exception:
            text = ".word %#010x" % word
        lines.append("%08x:  %08x  %s" % (address, word, text))
    return lines
