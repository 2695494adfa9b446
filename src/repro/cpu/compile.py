"""Superblock-to-Python compilation: the backend of ``Cpu.run_compiled``.

An interpreter pays one round of Python dispatch per retired instruction
(:meth:`repro.cpu.core.Cpu.step`, kept as the oracle).  This module
removes that cost for straight-line code: every basic block of a program --
extended into superblock chains across fall-throughs and forward ``jal x0``
jumps (:mod:`repro.cfg.superblocks`) -- is translated once into a single
generated Python function, ``compile()``d and cached per program digest.
Executing a block is then one function call operating directly on the
register list, with immediates, masks and cycle costs baked in as
constants; the inter-block trampoline
(:meth:`repro.cpu.core.Cpu.run_compiled`) only runs once per *block*, not
once per instruction.

The compiled-function contract (generated signature
``fn(cpu, x, rf, load, store, buf, mv2, mv4)`` with ``x`` the raw register
list, ``load``/``store`` the bound memory accessors and ``buf``/``mv2``/
``mv4`` the data region's live bytearray plus its halfword/word memoryview
casts -- the baked fast path for in-region aligned accesses)::

    next_pc, retired, cycle_delta, taken, cf_seen = fn(...)

* ``retired``/``cycle_delta`` are the instructions retired and cycles
  consumed by this execution of the block (cycle costs are static per
  instruction, so both are compile-time constants per exit path);
* ``taken`` is the terminator's branch outcome (False for fall-through and
  early ``ecall``/``ebreak`` halts);
* ``cf_seen`` counts how many of the block's control-flow templates fired,
  in order: ``cf_seen == cf_total`` means the terminator was reached, any
  smaller value means the block halted early at an ``ecall``/``ebreak``.

Because each block knows its chain-internal jumps at compile time, it also
carries their (Src, Dest) pairs as one precomputed, pre-masked byte chunk
(:attr:`CompiledBlock.static_chunk`): the trampoline hands the chunk to
monitors implementing ``observe_block``, which absorb it with a single
sponge update instead of rebuilding the bytes per edge.  Trace records are
still materialized per edge with exact indices/cycles, so captured traces,
TraceStore signatures and replayed reports stay byte-identical to the
``Cpu.step`` oracle.

Every program compiles.  Indirect jumps and returns end their block; the
trampoline looks up each runtime target in the plan, or compiles the
straight line from a stray entry point on first use
(:meth:`CompiledProgram.compile_block_at`).  A target that is not an
instruction address hands the rest of the run to ``Cpu.step``, which
raises the same fetch fault.

A run with pc hooks (:meth:`repro.cpu.core.Cpu.add_pc_hook`) executes a
per-run view of the shared plan (:meth:`CompiledProgram.hooked_blocks`):
only the blocks that hold a hook pc past their head are recompiled, split
just before it, so every hook pc heads a block and the trampoline can fire
its hooks between blocks.
"""

from __future__ import annotations

import sys
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.cache import DigestCache
from repro.cfg.basic_blocks import split_basic_blocks
from repro.cfg.superblocks import form_superblocks
from repro.cpu.core import _div_value, _rem_value
from repro.cpu.trace import BranchKind, classify_branch
from repro.isa.assembler import Program
from repro.isa.instructions import Instruction

_M = 0xFFFFFFFF

#: ``memoryview.cast`` reads and writes in *native* byte order, so the
#: baked data-region fast path (direct ``mv2``/``mv4`` element access) is
#: only correct -- and only emitted -- on little-endian hosts; elsewhere
#: every memory access goes through the checked accessors.
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Configuration baked into generated code, in cache-key order:
#: (taken_branch_penalty, load_latency, mul_latency, div_latency,
#: data_region_size).  The data-region size participates because generated
#: load/store guards compare offsets against it as literal constants.
CostKey = Tuple[int, int, int, int, int]


def _fast_data_enabled(data_size: int) -> bool:
    """Whether generated code may access the data-region buffer directly."""
    return _LITTLE_ENDIAN and data_size >= 4 and data_size % 4 == 0

#: One chain-internal control-flow template: (retire_offset, cycle_offset,
#: pc, word, instruction, next_pc, kind).  All fields are static; at run
#: time the trampoline adds the block-entry retirement index and cycle.
InternalTemplate = Tuple[int, int, int, int, Instruction, int, BranchKind]

#: The terminator's static record fields: (pc, word, instruction, kind).
TerminatorTemplate = Tuple[int, int, Instruction, BranchKind]

#: A superblock chain: its member basic blocks' instruction runs, in order.
Chain = Tuple[Tuple[Instruction, ...], ...]


class CompiledBlock:
    """One superblock compiled to a step function plus its CF templates."""

    __slots__ = (
        "head", "members", "fn", "size", "templates", "n_internal",
        "term_cf", "term_template", "cf_total", "static_chunk",
        "static_pairs", "packed",
    )

    def __init__(
        self,
        head: int,
        members: Chain,
        fn: Callable,
        size: int,
        templates: Tuple[InternalTemplate, ...],
        term_cf: bool,
        term_template: Optional[TerminatorTemplate],
    ) -> None:
        self.head = head
        #: The chain's member instruction runs, kept to split the block
        #: at a hook pc.
        self.members = members
        self.fn = fn
        #: Maximum instructions one execution of this block can retire
        #: (the trampoline's conservative fuel check).
        self.size = size
        self.templates = templates
        self.n_internal = len(templates)
        self.term_cf = term_cf
        self.term_template = term_template
        self.cf_total = self.n_internal + (1 if term_cf else 0)
        #: Pre-masked (src, dest) pairs of the internal jumps and their
        #: concatenated little-endian bytes -- the per-block absorb chunk.
        pairs = tuple(
            (template[2] & _M, template[5] & _M) for template in templates
        )
        self.static_pairs = pairs
        self.static_chunk = b"".join(
            src.to_bytes(4, "little") + dest.to_bytes(4, "little")
            for src, dest in pairs
        )
        #: Hot-path view for the trampoline: every per-step field in one
        #: tuple, fetched with a single attribute access per block step.
        self.packed = (
            fn, size, self.templates, self.n_internal, self.term_cf,
            self.term_template, self.cf_total, self.static_chunk,
            self.static_pairs,
        )


class CompiledProgram:
    """Every superblock of one program compiled under one cost model."""

    def __init__(self, program: Program, costs: CostKey) -> None:
        self.program = program
        self.costs = costs
        #: Data-region bounds the generated guards were baked against, and
        #: whether the generated code expects the live buffer views at all.
        #: The trampoline validates the CPU's actual data region against
        #: these before running (they always match by construction: the
        #: digest covers ``data_base``, the cost key ``data_region_size``).
        self.data_base = program.data_base
        self.data_size = costs[4]
        self.uses_data_buffer = _fast_data_enabled(costs[4])
        #: head pc -> CompiledBlock; populated eagerly for every block
        #: leader, lazily for stray entry points (indirect targets that are
        #: not leaders).
        self.blocks: Dict[int, CompiledBlock] = {}
        self._instruction_by_address: Dict[int, Instruction] = {
            instr.address: instr for instr in program.instructions
        }

    def compile_block_at(self, pc: int) -> Optional[CompiledBlock]:
        """Lazily compile a single block starting at a stray ``pc``.

        An indirect transfer normally lands on a block leader, but nothing
        forces it to: scan the straight line from ``pc`` to the
        first control-flow instruction and compile that suffix as a
        one-member chain.  Returns None when ``pc`` is not an instruction
        address or the scan runs off the program -- the trampoline then
        hands the run to ``Cpu.step``, which raises the fetch fault.
        """
        by_address = self._instruction_by_address
        if pc not in by_address:
            return None
        member: List[Instruction] = []
        address = pc
        while True:
            instruction = by_address.get(address)
            if instruction is None:
                return None
            member.append(instruction)
            if instruction.is_control_flow:
                break
            address += 4
        entry = _compile_chain(self.program, pc, (tuple(member),), self.costs)
        # Idempotent insert (dict assignment is atomic under the GIL); two
        # threads compiling the same stray pc produce equivalent entries.
        self.blocks[pc] = entry
        return entry

    def hooked_blocks(
        self, hook_pcs: Collection[int]
    ) -> Dict[int, CompiledBlock]:
        """A per-run view of :attr:`blocks` in which every pc of
        ``hook_pcs`` heads a block and sits inside no other one.

        The view shares every block that holds no hook pc past its head;
        only the others are split (:meth:`split_block`).  Blocks the run
        compiles later at stray targets are split as they appear.
        """
        view = dict(self.blocks)
        for block in list(view.values()):
            self.split_block(block, hook_pcs, view)
        return view

    def split_block(
        self,
        block: CompiledBlock,
        hook_pcs: Collection[int],
        view: Dict[int, CompiledBlock],
    ) -> CompiledBlock:
        """Cut ``block`` just before each hook pc it holds past its head.

        The pieces go into ``view``: the first replaces ``block`` at its
        head, each later one heads at its hook pc unless ``view`` already
        has a block there.  Returns the block ``view`` now holds at
        ``block.head``.  The pieces are compiled afresh for each run.
        """
        head = block.head
        cuts = {
            instr.address for member in block.members for instr in member
            if instr.address in hook_pcs and instr.address != head
        }
        if not cuts:
            view[head] = block
            return block
        chains: List[List[Tuple[Instruction, ...]]] = [[]]
        for member in block.members:
            run: List[Instruction] = []
            for instr in member:
                if instr.address in cuts:
                    if run:
                        chains[-1].append(tuple(run))
                        run = []
                    chains.append([])
                run.append(instr)
            chains[-1].append(tuple(run))
        pieces = [
            _compile_chain(self.program, chain[0][0].address, tuple(chain),
                           self.costs)
            for chain in chains
        ]
        view[head] = pieces[0]
        for piece in pieces[1:]:
            view.setdefault(piece.head, piece)
        return pieces[0]


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------
# One statement (or none) per straight-line instruction, operating directly
# on the register list ``x``.  Every emitted expression must preserve the
# RegisterFile invariant -- stored values are unsigned 32-bit ints -- and the
# exact semantics of the interpreter executors in repro.cpu.core; the
# differential against the Cpu.step oracle in
# tests/test_fastpath_equivalence.py pins this.


def _reg(number: int) -> str:
    return "0" if number == 0 else "x[%d]" % number


def _signed(number: int) -> str:
    """Signed 32-bit view of a register, inlined (no helper call)."""
    if number == 0:
        return "0"
    r = "x[%d]" % number
    return "(%s - 0x100000000 if %s > 0x7FFFFFFF else %s)" % (r, r, r)


def _address_expr(rs1: int, imm: int) -> str:
    if rs1 == 0:
        return "%d" % (imm & _M)
    if imm == 0:
        return "x[%d]" % rs1
    return "(x[%d] + %d) & 0xFFFFFFFF" % (rs1, imm)


def _branch_condition(instr: Instruction) -> str:
    a, b = _reg(instr.rs1), _reg(instr.rs2)
    sa, sb = _signed(instr.rs1), _signed(instr.rs2)
    return {
        "beq": "%s == %s" % (a, b),
        "bne": "%s != %s" % (a, b),
        "blt": "%s < %s" % (sa, sb),
        "bge": "%s >= %s" % (sa, sb),
        "bltu": "%s < %s" % (a, b),
        "bgeu": "%s >= %s" % (a, b),
    }[instr.mnemonic]


#: Loads: mnemonic -> (size, signed).
_LOADS = {
    "lb": (1, True), "lbu": (1, False),
    "lh": (2, True), "lhu": (2, False),
    "lw": (4, False),
}
_STORES = {"sb": 1, "sh": 2, "sw": 4}


def _alu_value_expr(instr: Instruction) -> Optional[str]:
    """The unsigned 32-bit result expression for an ALU instruction."""
    m = instr.mnemonic
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    a, b = _reg(rs1), _reg(rs2)
    sa, sb = _signed(rs1), _signed(rs2)
    if m == "lui":
        return "%d" % ((imm << 12) & _M)
    if m == "auipc":
        return "%d" % (((instr.address or 0) + (imm << 12)) & _M)
    if m == "addi":
        if rs1 == 0:
            return "%d" % (imm & _M)
        if imm == 0:
            return a
        return "(%s + %d) & 0xFFFFFFFF" % (a, imm)
    if m == "slti":
        return "1 if %s < %d else 0" % (sa, imm)
    if m == "sltiu":
        return "1 if %s < %d else 0" % (a, imm & _M)
    if m == "xori":
        return "%s ^ %d" % (a, imm & _M)
    if m == "ori":
        return "%s | %d" % (a, imm & _M)
    if m == "andi":
        return "%s & %d" % (a, imm & _M)
    if m == "slli":
        return "(%s << %d) & 0xFFFFFFFF" % (a, imm & 0x1F)
    if m == "srli":
        return "%s >> %d" % (a, imm & 0x1F)
    if m == "srai":
        return "(%s >> %d) & 0xFFFFFFFF" % (sa, imm & 0x1F)
    if m == "add":
        return "(%s + %s) & 0xFFFFFFFF" % (a, b)
    if m == "sub":
        return "(%s - %s) & 0xFFFFFFFF" % (a, b)
    if m == "sll":
        return "(%s << (%s & 0x1F)) & 0xFFFFFFFF" % (a, b)
    if m == "slt":
        return "1 if %s < %s else 0" % (sa, sb)
    if m == "sltu":
        return "1 if %s < %s else 0" % (a, b)
    if m == "xor":
        return "%s ^ %s" % (a, b)
    if m == "srl":
        return "%s >> (%s & 0x1F)" % (a, b)
    if m == "sra":
        return "(%s >> (%s & 0x1F)) & 0xFFFFFFFF" % (sa, b)
    if m == "or":
        return "%s | %s" % (a, b)
    if m == "and":
        return "%s & %s" % (a, b)
    if m == "mul":
        return "(%s * %s) & 0xFFFFFFFF" % (sa, sb)
    if m == "mulh":
        return "((%s * %s) >> 32) & 0xFFFFFFFF" % (sa, sb)
    if m == "mulhu":
        return "(%s * %s) >> 32" % (a, b)
    if m == "mulhsu":
        return "((%s * %s) >> 32) & 0xFFFFFFFF" % (sa, b)
    if m == "div":
        return "_div_value(%s, %s) & 0xFFFFFFFF" % (sa, sb)
    if m == "divu":
        return "0xFFFFFFFF if %s == 0 else %s // %s" % (b, a, b)
    if m == "rem":
        return "_rem_value(%s, %s) & 0xFFFFFFFF" % (sa, sb)
    if m == "remu":
        return "%s if %s == 0 else %s %% %s" % (a, b, a, b)
    return None


def _rebase_line(addr: str, data_base: int) -> str:
    """Assign the data-region offset of ``addr`` to the temp ``_o``."""
    if data_base:
        return "    _o = (%s) - %d" % (addr, data_base)
    return "    _o = %s" % addr


def _emit_straight(
    instr: Instruction,
    load_latency: int,
    mul_latency: int,
    div_latency: int,
    data_base: int,
    data_size: int,
) -> Tuple[List[str], int]:
    """Emit one straight-line instruction; return (lines, extra_cycles).

    With a non-zero ``data_size``, loads and stores get an inlined
    data-region fast path: the effective address is rebased against the
    compile-time-constant data region and, when in range and naturally
    aligned, served directly from the region's buffer views
    (``buf``/``mv2``/``mv4``) -- the common case for stack and heap
    traffic.  Out-of-range, misaligned or code-region accesses fall back
    to the checked ``load``/``store`` accessors, which raise exactly the
    faults the interpreter would.
    """
    m = instr.mnemonic
    if m in _LOADS:
        size, signed = _LOADS[m]
        addr = _address_expr(instr.rs1, instr.imm)
        rd = instr.rd
        if rd == 0:
            # The load still executes for its fault and latency semantics;
            # only the register write is discarded.
            line = "    load(%s, %d%s)" % (addr, size, ", True" if signed else "")
            return [line], load_latency
        if not data_size:
            if signed:
                line = "    x[%d] = load(%s, %d, True) & 0xFFFFFFFF" % (
                    rd, addr, size)
            else:
                line = "    x[%d] = load(%s, %d)" % (rd, addr, size)
            return [line], load_latency
        lines = [_rebase_line(addr, data_base)]
        if size == 4:
            lines.append(
                "    x[%d] = mv4[_o >> 2] if 0 <= _o <= %d and not _o & 3"
                " else load(%s, 4)" % (rd, data_size - 4, addr))
        elif size == 2 and not signed:
            lines.append(
                "    x[%d] = mv2[_o >> 1] if 0 <= _o <= %d and not _o & 1"
                " else load(%s, 2)" % (rd, data_size - 2, addr))
        elif size == 2:
            lines.append("    if 0 <= _o <= %d and not _o & 1:" % (data_size - 2))
            lines.append("        _v = mv2[_o >> 1]")
            lines.append(
                "        x[%d] = _v | 0xFFFF0000 if _v & 0x8000 else _v" % rd)
            lines.append("    else:")
            lines.append(
                "        x[%d] = load(%s, 2, True) & 0xFFFFFFFF" % (rd, addr))
        elif signed:  # lb
            lines.append("    if 0 <= _o < %d:" % data_size)
            lines.append("        _v = buf[_o]")
            lines.append(
                "        x[%d] = _v | 0xFFFFFF00 if _v & 0x80 else _v" % rd)
            lines.append("    else:")
            lines.append(
                "        x[%d] = load(%s, 1, True) & 0xFFFFFFFF" % (rd, addr))
        else:  # lbu
            lines.append(
                "    x[%d] = buf[_o] if 0 <= _o < %d else load(%s, 1)" % (
                    rd, data_size, addr))
        return lines, load_latency
    if m in _STORES:
        size = _STORES[m]
        addr = _address_expr(instr.rs1, instr.imm)
        value = _reg(instr.rs2)
        if not data_size:
            return ["    store(%s, %s, %d)" % (addr, value, size)], 0
        lines = [_rebase_line(addr, data_base)]
        if size == 4:
            # Register values are unsigned 32-bit by invariant: storable
            # into the 'I'-cast view unmasked.
            lines.append("    if 0 <= _o <= %d and not _o & 3:" % (data_size - 4))
            lines.append("        mv4[_o >> 2] = %s" % value)
        elif size == 2:
            masked = "0" if instr.rs2 == 0 else "%s & 0xFFFF" % value
            lines.append("    if 0 <= _o <= %d and not _o & 1:" % (data_size - 2))
            lines.append("        mv2[_o >> 1] = %s" % masked)
        else:
            masked = "0" if instr.rs2 == 0 else "%s & 0xFF" % value
            lines.append("    if 0 <= _o < %d:" % data_size)
            lines.append("        buf[_o] = %s" % masked)
        lines.append("    else:")
        lines.append("        store(%s, %s, %d)" % (addr, value, size))
        return lines, 0
    if m == "fence":
        return [], 0
    value = _alu_value_expr(instr)
    if value is None:  # pragma: no cover - decoder only emits known ops
        raise ValueError("unsupported mnemonic in block compiler: %r" % m)
    extra = 0
    if instr.spec.is_mul_div:
        extra = div_latency if m in ("div", "divu", "rem", "remu") else mul_latency
    if instr.rd == 0:
        # x0 is hard-wired to zero and ALU expressions cannot fault: the
        # whole instruction reduces to its cycle cost.
        return [], extra
    return ["    x[%d] = %s" % (instr.rd, value)], extra


def _word_at(program: Program, address: int) -> int:
    offset = address - program.code_base
    return int.from_bytes(program.code[offset:offset + 4], "little")


def _compile_chain(
    program: Program,
    head: int,
    members: Chain,
    costs: CostKey,
) -> CompiledBlock:
    """Generate, compile and wrap the step function for one chain."""
    taken_penalty, load_latency, mul_latency, div_latency, data_size = costs
    if not _fast_data_enabled(data_size):
        data_size = 0
    data_base = program.data_base
    name = "_sb_%x" % head
    lines: List[str] = []
    templates: List[InternalTemplate] = []
    cycle = 0
    ridx = 0
    dead = False
    terminated = False
    term_cf = False
    term_template: Optional[TerminatorTemplate] = None
    last_address = head

    n_members = len(members)
    for member_index, member in enumerate(members):
        if dead:
            break
        final_member = member_index == n_members - 1
        n_instrs = len(member)
        for instr_index, instr in enumerate(member):
            last_address = instr.address or 0
            if instr.is_control_flow:
                pcv = instr.address or 0
                word = _word_at(program, pcv)
                if not (final_member and instr_index == n_instrs - 1):
                    # Chain-internal transfer: by construction a forward
                    # jal x0 -- fully static, no code, just cycle cost and
                    # a trace-record template.
                    cycle += 1 + taken_penalty
                    ridx += 1
                    templates.append((
                        ridx - 1, cycle, pcv, word, instr,
                        pcv + instr.imm, BranchKind.DIRECT_JUMP,
                    ))
                    continue
                # The chain terminator.
                kind = classify_branch(instr)
                cf_n = len(templates) + 1
                if instr.is_conditional_branch:
                    target = (pcv + instr.imm) & _M
                    lines.append("    if %s:" % _branch_condition(instr))
                    lines.append("        return %d, %d, %d, True, %d" % (
                        target, ridx + 1, cycle + 1 + taken_penalty, cf_n))
                    lines.append("    return %d, %d, %d, False, %d" % (
                        pcv + 4, ridx + 1, cycle + 1, cf_n))
                elif instr.is_direct_jump:
                    target = (pcv + instr.imm) & _M
                    if instr.rd:
                        lines.append("    x[%d] = %d" % (instr.rd, (pcv + 4) & _M))
                    lines.append("    return %d, %d, %d, True, %d" % (
                        target, ridx + 1, cycle + 1 + taken_penalty, cf_n))
                else:  # jalr: target computed before the link write
                    if instr.rs1:
                        lines.append("    _t = (x[%d] + %d) & 0xFFFFFFFE" % (
                            instr.rs1, instr.imm))
                    else:
                        lines.append("    _t = %d" % (instr.imm & _M & ~1))
                    if instr.rd:
                        lines.append("    x[%d] = %d" % (instr.rd, (pcv + 4) & _M))
                    lines.append("    return _t, %d, %d, True, %d" % (
                        ridx + 1, cycle + 1 + taken_penalty, cf_n))
                ridx += 1
                term_cf = True
                term_template = (pcv, word, instr, kind)
                terminated = True
                dead = True
                continue
            if instr.mnemonic == "ecall":
                cycle += 1
                ridx += 1
                lines.append("    if cpu.syscalls.handle(rf, cpu.memory).exited:")
                lines.append("        cpu.halted = True")
                lines.append("        return %d, %d, %d, False, %d" % (
                    (instr.address or 0) + 4, ridx, cycle, len(templates)))
                continue
            if instr.mnemonic == "ebreak":
                cycle += 1
                ridx += 1
                lines.append("    cpu.halted = True")
                lines.append("    return %d, %d, %d, False, %d" % (
                    (instr.address or 0) + 4, ridx, cycle, len(templates)))
                # Everything after an unconditional ebreak is unreachable
                # from this chain entry.
                terminated = True
                dead = True
                continue
            emitted, extra = _emit_straight(
                instr, load_latency, mul_latency, div_latency,
                data_base, data_size)
            lines.extend(emitted)
            cycle += 1 + extra
            ridx += 1

    if not terminated:
        # The final member ends in a non-control-flow instruction: static
        # fall-through out of the chain (the next leader starts a new one).
        lines.append("    return %d, %d, %d, False, %d" % (
            last_address + 4, ridx, cycle, len(templates)))

    header = "def %s(cpu, x, rf, load, store, buf, mv2, mv4):" % name
    source = "\n".join([header] + lines)
    filename = "<repro-compiled:%s:%#x>" % (program.digest[:12], head)
    namespace: Dict[str, object] = {
        "_div_value": _div_value,
        "_rem_value": _rem_value,
    }
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return CompiledBlock(
        head=head,
        members=members,
        fn=namespace[name],  # type: ignore[arg-type]
        size=ridx,
        templates=tuple(templates),
        term_cf=term_cf,
        term_template=term_template,
    )


# ---------------------------------------------------------------------------
# Plan construction and the process-wide compiled-program cache
# ---------------------------------------------------------------------------


def _build_plan(program: Program, costs: CostKey) -> CompiledProgram:
    """Compile every superblock of ``program``."""
    plan = CompiledProgram(program, costs)
    for superblock in form_superblocks(split_basic_blocks(program)):
        plan.blocks[superblock.head] = _compile_chain(
            program,
            superblock.head,
            tuple(tuple(block.instructions) for block in superblock.blocks),
            costs,
        )
    return plan


class CompiledProgramCache(DigestCache):
    """The process-wide compiled-program store.

    Keyed by (program digest, cost key): generated code bakes the cycle
    costs in as constants, so two cost models never share a plan.  Builds
    are single-flighted by :class:`repro.cache.DigestCache`, so a campaign
    fanning N worker threads over one digest compiles once, not N times.
    """

    @staticmethod
    def cost_key(config) -> CostKey:
        return (
            config.taken_branch_penalty,
            config.load_latency,
            config.mul_latency,
            config.div_latency,
            config.data_region_size,
        )

    def plan_for(self, program: Program, config) -> CompiledProgram:
        """The compiled plan for ``program`` under ``config``."""
        costs = self.cost_key(config)
        return self.get_or_build(
            (program.digest, costs), lambda: _build_plan(program, costs))

    @property
    def compiles(self) -> int:
        """Number of plan builds performed (tests assert single-flight)."""
        return self.builds


#: The shared compiled-program cache (one per process; forked campaign
#: workers each build their own copy-on-write instance).
COMPILE_CACHE = CompiledProgramCache(budget=64)
