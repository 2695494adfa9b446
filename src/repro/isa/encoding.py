"""Binary encoding and decoding of RV32IM instruction words.

The encoder produces the standard 32-bit little-endian instruction words used
by real RISC-V toolchains, and the decoder inverts it exactly.  Keeping the
encodings faithful matters for the reproduction: the attested program image is
a binary the verifier also holds, and the LO-FAT branch filter classifies
instructions by inspecting the retired instruction word.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.instructions import (
    Instruction,
    InstructionFormat,
    OPCODE_BRANCH,
    OPCODE_JAL,
    OPCODE_JALR,
    OPCODE_LOAD,
    OPCODE_LUI,
    OPCODE_AUIPC,
    OPCODE_MISC_MEM,
    OPCODE_OP,
    OPCODE_OP_IMM,
    OPCODE_STORE,
    OPCODE_SYSTEM,
    SPECS,
)


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or a word decoded."""


def _check_register(value: int, name: str) -> None:
    if not 0 <= value < 32:
        raise EncodingError("%s out of range: %d" % (name, value))


def _check_signed_range(value: int, bits: int, what: str) -> None:
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    if not low <= value <= high:
        raise EncodingError(
            "%s immediate %d does not fit in %d signed bits" % (what, value, bits)
        )


def _sign_extend(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def encode(instr: Instruction) -> int:
    """Encode ``instr`` into its 32-bit instruction word."""
    spec = instr.spec
    fmt = spec.fmt
    _check_register(instr.rd, "rd")
    _check_register(instr.rs1, "rs1")
    _check_register(instr.rs2, "rs2")

    if fmt is InstructionFormat.R:
        return (
            (spec.funct7 << 25)
            | (instr.rs2 << 20)
            | (instr.rs1 << 15)
            | (spec.funct3 << 12)
            | (instr.rd << 7)
            | spec.opcode
        )

    if fmt is InstructionFormat.I:
        if spec.mnemonic in ("slli", "srli", "srai"):
            if not 0 <= instr.imm < 32:
                raise EncodingError("shift amount out of range: %d" % instr.imm)
            imm_field = (spec.funct7 << 5) | instr.imm
        elif spec.mnemonic == "ecall":
            imm_field = 0
        elif spec.mnemonic == "ebreak":
            imm_field = 1
        else:
            _check_signed_range(instr.imm, 12, spec.mnemonic)
            imm_field = instr.imm & 0xFFF
        return (
            (imm_field << 20)
            | (instr.rs1 << 15)
            | (spec.funct3 << 12)
            | (instr.rd << 7)
            | spec.opcode
        )

    if fmt is InstructionFormat.S:
        _check_signed_range(instr.imm, 12, spec.mnemonic)
        imm = instr.imm & 0xFFF
        imm_11_5 = (imm >> 5) & 0x7F
        imm_4_0 = imm & 0x1F
        return (
            (imm_11_5 << 25)
            | (instr.rs2 << 20)
            | (instr.rs1 << 15)
            | (spec.funct3 << 12)
            | (imm_4_0 << 7)
            | spec.opcode
        )

    if fmt is InstructionFormat.B:
        _check_signed_range(instr.imm, 13, spec.mnemonic)
        if instr.imm % 2 != 0:
            raise EncodingError("branch offset must be even: %d" % instr.imm)
        imm = instr.imm & 0x1FFF
        bit12 = (imm >> 12) & 0x1
        bits10_5 = (imm >> 5) & 0x3F
        bits4_1 = (imm >> 1) & 0xF
        bit11 = (imm >> 11) & 0x1
        return (
            (bit12 << 31)
            | (bits10_5 << 25)
            | (instr.rs2 << 20)
            | (instr.rs1 << 15)
            | (spec.funct3 << 12)
            | (bits4_1 << 8)
            | (bit11 << 7)
            | spec.opcode
        )

    if fmt is InstructionFormat.U:
        if not 0 <= instr.imm < (1 << 20):
            raise EncodingError("U-type immediate out of range: %d" % instr.imm)
        return (instr.imm << 12) | (instr.rd << 7) | spec.opcode

    if fmt is InstructionFormat.J:
        _check_signed_range(instr.imm, 21, spec.mnemonic)
        if instr.imm % 2 != 0:
            raise EncodingError("jump offset must be even: %d" % instr.imm)
        imm = instr.imm & 0x1FFFFF
        bit20 = (imm >> 20) & 0x1
        bits10_1 = (imm >> 1) & 0x3FF
        bit11 = (imm >> 11) & 0x1
        bits19_12 = (imm >> 12) & 0xFF
        return (
            (bit20 << 31)
            | (bits10_1 << 21)
            | (bit11 << 20)
            | (bits19_12 << 12)
            | (instr.rd << 7)
            | spec.opcode
        )

    raise EncodingError("unsupported format: %s" % fmt)  # pragma: no cover


# Lookup tables for decoding.
_R_BY_FUNCT: Dict[Tuple[int, int], str] = {}
_I_BY_OPCODE_FUNCT: Dict[Tuple[int, int], str] = {}
_B_BY_FUNCT: Dict[int, str] = {}
_S_BY_FUNCT: Dict[int, str] = {}
for _spec in SPECS.values():
    if _spec.fmt is InstructionFormat.R:
        _R_BY_FUNCT[(_spec.funct3, _spec.funct7)] = _spec.mnemonic
    elif _spec.fmt is InstructionFormat.B:
        _B_BY_FUNCT[_spec.funct3] = _spec.mnemonic
    elif _spec.fmt is InstructionFormat.S:
        _S_BY_FUNCT[_spec.funct3] = _spec.mnemonic
    elif _spec.fmt is InstructionFormat.I and _spec.mnemonic not in (
        "slli", "srli", "srai", "ecall", "ebreak",
    ):
        _I_BY_OPCODE_FUNCT[(_spec.opcode, _spec.funct3)] = _spec.mnemonic


def decode(word: int, address: Optional[int] = None) -> Instruction:
    """Decode a 32-bit instruction ``word`` into an :class:`Instruction`.

    ``address`` (if given) is attached to the decoded instruction so that
    downstream consumers (the CPU trace, the branch filter) know the source PC.
    Raises :class:`EncodingError` for words that are not valid RV32IM
    instructions in the supported subset.
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise EncodingError("instruction word out of range: %#x" % word)

    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    if opcode == OPCODE_LUI:
        return Instruction("lui", rd=rd, imm=(word >> 12) & 0xFFFFF, address=address)
    if opcode == OPCODE_AUIPC:
        return Instruction("auipc", rd=rd, imm=(word >> 12) & 0xFFFFF, address=address)

    if opcode == OPCODE_JAL:
        imm = (
            (((word >> 31) & 0x1) << 20)
            | (((word >> 21) & 0x3FF) << 1)
            | (((word >> 20) & 0x1) << 11)
            | (((word >> 12) & 0xFF) << 12)
        )
        return Instruction("jal", rd=rd, imm=_sign_extend(imm, 21), address=address)

    if opcode == OPCODE_JALR:
        if funct3 != 0:
            raise EncodingError("invalid jalr funct3: %d" % funct3)
        imm = _sign_extend(word >> 20, 12)
        return Instruction("jalr", rd=rd, rs1=rs1, imm=imm, address=address)

    if opcode == OPCODE_BRANCH:
        if funct3 not in _B_BY_FUNCT:
            raise EncodingError("invalid branch funct3: %d" % funct3)
        imm = (
            (((word >> 31) & 0x1) << 12)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1)
            | (((word >> 7) & 0x1) << 11)
        )
        return Instruction(
            _B_BY_FUNCT[funct3], rs1=rs1, rs2=rs2,
            imm=_sign_extend(imm, 13), address=address,
        )

    if opcode == OPCODE_STORE:
        if funct3 not in _S_BY_FUNCT:
            raise EncodingError("invalid store funct3: %d" % funct3)
        imm = ((word >> 25) << 5) | ((word >> 7) & 0x1F)
        return Instruction(
            _S_BY_FUNCT[funct3], rs1=rs1, rs2=rs2,
            imm=_sign_extend(imm, 12), address=address,
        )

    if opcode in (OPCODE_LOAD, OPCODE_OP_IMM, OPCODE_MISC_MEM):
        if opcode == OPCODE_OP_IMM and funct3 == 0b001:
            if funct7 != 0:
                raise EncodingError("invalid slli funct7: %d" % funct7)
            return Instruction("slli", rd=rd, rs1=rs1, imm=rs2, address=address)
        if opcode == OPCODE_OP_IMM and funct3 == 0b101:
            if funct7 == 0b0000000:
                return Instruction("srli", rd=rd, rs1=rs1, imm=rs2, address=address)
            if funct7 == 0b0100000:
                return Instruction("srai", rd=rd, rs1=rs1, imm=rs2, address=address)
            raise EncodingError("invalid shift funct7: %d" % funct7)
        key = (opcode, funct3)
        if key not in _I_BY_OPCODE_FUNCT:
            raise EncodingError(
                "invalid I-type opcode/funct3: %#x/%d" % (opcode, funct3)
            )
        imm = _sign_extend(word >> 20, 12)
        return Instruction(
            _I_BY_OPCODE_FUNCT[key], rd=rd, rs1=rs1, imm=imm, address=address,
        )

    if opcode == OPCODE_OP:
        key = (funct3, funct7)
        if key not in _R_BY_FUNCT:
            raise EncodingError(
                "invalid R-type funct3/funct7: %d/%d" % (funct3, funct7)
            )
        return Instruction(
            _R_BY_FUNCT[key], rd=rd, rs1=rs1, rs2=rs2, address=address,
        )

    if opcode == OPCODE_SYSTEM:
        imm_field = word >> 20
        if imm_field == 0 and rd == 0 and rs1 == 0 and funct3 == 0:
            return Instruction("ecall", address=address)
        if imm_field == 1 and rd == 0 and rs1 == 0 and funct3 == 0:
            return Instruction("ebreak", imm=1, address=address)
        raise EncodingError("unsupported SYSTEM instruction: %#x" % word)

    raise EncodingError("unsupported opcode: %#x (word %#010x)" % (opcode, word))
