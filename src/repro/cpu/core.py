"""Functional RV32IM interpreter with a Pulpino-style cycle-cost model.

The LO-FAT prototype attaches to Pulpino, a single 32-bit 4-stage in-order
RISC-V core.  For the reproduction we do not need register-transfer-level
fidelity -- LO-FAT only observes the *retired instruction stream* -- so the
core here executes instructions functionally and charges cycles according to
a simple in-order pipeline cost model:

* 1 cycle per retired instruction,
* +1 cycle for every taken control-flow transfer (fetch redirect in a short
  in-order pipeline),
* +1 cycle per load (load-use bubble, charged pessimistically),
* +4 cycles for multiplications and +32 for divisions/remainders (iterative
  multiplier/divider typical of small cores).

The absolute numbers are configurable; the experiments only rely on the fact
that the *same* cost model is used with and without attestation, so that the
LO-FAT-vs-C-FLAT overhead comparison is apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cache import DigestCache
from repro.cpu.exceptions import IllegalInstructionError, OutOfFuelError
from repro.cpu.memory import Memory, MemoryRegion, Permissions
from repro.cpu.syscalls import SyscallHandler
from repro.cpu.trace import (
    BranchKind,
    ExecutionTrace,
    StreamingTrace,
    TraceRecord,
    classify_branch,
)
from repro.isa.assembler import Program
from repro.isa.encoding import EncodingError, decode
from repro.isa.instructions import Instruction
from repro.isa.registers import RegisterFile, to_unsigned

#: Type of the per-retired-instruction monitor callbacks (e.g. LO-FAT).
Monitor = Callable[[TraceRecord], None]

#: Type of the pc-keyed hooks used by the attack injectors: called with the
#: CPU just before the instruction at the hook's pc executes.
PcHook = Callable[["Cpu"], None]

#: Number of control-flow records buffered before a batch is flushed to the
#: attached monitors (compiled engine).  Batching only changes delivery
#: granularity, never a measurement.
MONITOR_BATCH_SIZE = 256


@dataclass
class CpuConfig:
    """Cycle-cost and environment parameters of the core model."""

    #: Extra cycles charged when a control-flow transfer is taken.
    taken_branch_penalty: int = 1
    #: Extra cycles charged per memory load.
    load_latency: int = 1
    #: Extra cycles charged per multiplication.
    mul_latency: int = 4
    #: Extra cycles charged per division / remainder.
    div_latency: int = 32
    #: Size of the read-write data + stack region in bytes.
    data_region_size: int = 0x2_0000
    #: Maximum number of retired instructions before aborting.
    max_instructions: int = 2_000_000
    #: Keep the full per-instruction record list on :attr:`Cpu.trace`.  The
    #: attestation hot paths (verifier replay, campaign workers) disable this
    #: and stream records straight to the monitors, keeping only summary
    #: counters in memory.
    #: A collected trace needs every retired instruction as a record, so
    #: such runs execute on the :meth:`Cpu.step` loop.
    collect_trace: bool = False
    #: Execution engine: ``"compiled"`` (superblock trace compilation,
    #: :meth:`Cpu.run_compiled`) or ``"legacy"`` (the per-instruction
    #: :meth:`Cpu.step` loop, kept as the test oracle and for cycle-model
    #: fidelity).  Both are architecturally identical.  A compiled run that
    #: needs per-instruction delivery (collected traces, plain-callable
    #: monitors) runs on ``Cpu.step``, and one that cannot finish compiled
    #: hands the rest of the run to it -- see docs/EXECUTION.md.
    engine: str = "compiled"
    #: Clock frequency of the core in MHz (Pulpino/LO-FAT run at 80 MHz on
    #: the Zedboard prototype); used only to convert cycles to wall time in
    #: reports.
    clock_mhz: float = 80.0

    def __post_init__(self) -> None:
        if self.engine not in ("legacy", "compiled"):
            raise ValueError(
                "unknown execution engine %r (expected legacy or compiled)"
                % (self.engine,)
            )


@dataclass
class ExecutionResult:
    """Everything produced by one program run."""

    trace: ExecutionTrace
    exit_code: int
    output: str
    instructions: int
    cycles: int
    registers: List[int] = field(default_factory=list)


class Cpu:
    """The embedded core: fetch/decode/execute loop plus the cost model.

    Monitors attached via :meth:`attach_monitor` receive every retired
    instruction as a :class:`TraceRecord`; this is the interface the LO-FAT
    engine uses, mirroring the hardware's parallel observation of the pipeline
    (the monitors cannot slow the core down -- they are invoked after the
    instruction has retired and cannot alter architectural state).
    """

    def __init__(
        self,
        program: Program,
        inputs: Optional[List[int]] = None,
        config: Optional[CpuConfig] = None,
    ) -> None:
        self.program = program
        self.config = config or CpuConfig()
        self.registers = RegisterFile()
        self.memory = Memory()
        self.syscalls = SyscallHandler(inputs)
        self.trace = ExecutionTrace() if self.config.collect_trace else StreamingTrace()
        self._decode_cache = DECODE_CACHE.get_or_build(program.digest, dict)
        self.pc = program.entry
        self.cycle = 0
        self.retired = 0
        self.halted = False
        #: The engine that actually ran (set by :meth:`run`): "legacy" or
        #: "compiled".  A compiled run that hands its tail to ``Cpu.step``
        #: still reports "compiled".
        self.engine_used: Optional[str] = None
        self._monitors: List[Monitor] = []
        #: Batched observers resolved from the attached monitors (None for a
        #: monitor that only supports per-record delivery).
        self._batch_monitors: List[Optional[Callable]] = []
        #: Per-block observers (``observe_block(records, chunk, pairs)``)
        #: used by the compiled engine to absorb a block's precomputed
        #: hash chunk in one sponge update.
        self._block_monitors: List[Optional[Callable]] = []
        #: End-of-run hooks (``finish_run(instructions, cycle)``) used by the
        #: compiled engine to sync final counters to batch monitors.
        self._finish_monitors: List[Callable] = []
        #: Straight-line sync hooks (``sync_straight_line(next_pc, cycle)``)
        #: used when a hand-off to ``Cpu.step`` ends batched observation.
        self._linear_sync_monitors: List[Callable] = []
        #: pc -> hooks fired just before the instruction at pc executes.
        self._pc_hooks: Dict[int, List[PcHook]] = {}
        self._setup_memory()
        #: Code memory as loaded from the program image: a later
        #: ``load_image`` into code makes :meth:`run` take ``Cpu.step``,
        #: which decodes what memory holds, not the compiled plan.
        self._image_generation = self.memory.code_generation
        self._setup_registers()

    # ----------------------------------------------------------- plumbing
    def _setup_memory(self) -> None:
        program = self.program
        code_size = max(len(program.code), 4)
        # Round the code region up to a word boundary.
        code_size = (code_size + 3) & ~3
        self.memory.add_region(
            MemoryRegion("code", program.code_base, code_size, Permissions.rx())
        )
        data_size = self.config.data_region_size
        self.memory.add_region(
            MemoryRegion("data", program.data_base, data_size, Permissions.rw())
        )
        self.memory.load_image(program.code_base, program.code)
        if program.data:
            self.memory.load_image(program.data_base, program.data)

    def _setup_registers(self) -> None:
        stack_top = self.program.data_base + self.config.data_region_size
        self.registers["sp"] = stack_top
        self.registers["gp"] = self.program.data_base

    def attach_monitor(self, monitor: Monitor) -> None:
        """Attach a retired-instruction observer (e.g. the LO-FAT engine).

        Monitors whose owner exposes ``observe_batch`` (every first-class
        :class:`repro.schemes.base.MeasurementSession` and the LO-FAT engine)
        can consume batches of control-flow records on the compiled engine;
        plain callables force the per-record :meth:`step` loop so they keep
        seeing every retired instruction.
        """
        self._monitors.append(monitor)
        # A monitor is usually a bound ``observe`` method: resolve the batch
        # entry point on the owning object, falling back to the callable
        # itself (the LO-FAT engine is directly callable).
        owner = getattr(monitor, "__self__", monitor)
        self._batch_monitors.append(getattr(owner, "observe_batch", None))
        self._block_monitors.append(getattr(owner, "observe_block", None))
        finish = getattr(owner, "finish_run", None)
        if finish is not None:
            self._finish_monitors.append(finish)
        sync = getattr(owner, "sync_straight_line", None)
        if sync is not None:
            self._linear_sync_monitors.append(sync)

    def add_pc_hook(self, pc: int, hook: PcHook) -> None:
        """Call ``hook(cpu)`` each time the instruction at ``pc`` is about to
        execute.

        Hooks may modify data memory or registers, or move ``cpu.pc`` to
        redirect control flow; the attack injectors use this to model
        exploits triggered at a particular execution point.  The hooks of
        one pc run in the order they were added, and the first one that
        moves ``cpu.pc`` ends the round: the instruction at the new pc then
        executes without firing its own hooks.
        """
        self._pc_hooks.setdefault(pc, []).append(hook)

    def _fire_pc_hooks(self, hooks: List[PcHook]) -> bool:
        """Run one pc's hooks; True if one of them moved ``self.pc``."""
        pc = self.pc
        for hook in hooks:
            hook(self)
            if self.pc != pc:
                return True
        return False

    # ----------------------------------------------------------- execution
    def run(self) -> ExecutionResult:
        """Run the program to completion and return the execution result.

        Dispatches by :attr:`CpuConfig.engine`: the compiled engine
        (:meth:`run_compiled`) when every attached monitor supports batched
        observation, no full trace is collected and code memory still holds
        the program image, else the per-instruction :meth:`step` loop.
        Both are architecturally identical.
        """
        if (
            self.config.engine == "compiled"
            and not self.config.collect_trace
            and all(self._batch_monitors)
            and self.memory.code_generation == self._image_generation
        ):
            # Lazy import: repro.cpu.compile imports this module.
            from repro.cpu.compile import COMPILE_CACHE

            self.engine_used = "compiled"
            return self.run_compiled(
                COMPILE_CACHE.plan_for(self.program, self.config))
        self.engine_used = "legacy"
        while not self.halted:
            self.step()
        return self._result()

    def run_compiled(self, plan) -> ExecutionResult:
        """Inter-block trampoline over compiled superblock step functions.

        The production engine (see :mod:`repro.cpu.compile`): each iteration
        looks up the compiled block headed at ``pc`` and executes the whole
        block with a single call -- no per-instruction dispatch.  Cycle and
        retirement deltas come back as compile-time constants; control-flow
        trace records are materialized per edge from the block's static
        templates so downstream traces and measurements stay byte-identical
        to the :meth:`step` oracle.  Monitors exposing ``observe_block``
        absorb each block's chain-internal jumps from one precomputed chunk;
        the block terminator (and everything for batch-only monitors) is
        delivered in ``observe_batch`` batches.

        pc hooks (:meth:`add_pc_hook`) run on a per-run view of the plan in
        which every hook pc heads a block, so the trampoline fires them
        just before entering that block.

        A run the trampoline cannot finish hands the rest of the run to the
        :meth:`step` loop with identical semantics: a transfer to an address
        that is not an instruction, a block whose worst-case retirement
        would cross the fuel limit, a data region the plan was not built
        for, or a hook that moves ``cpu.pc``.
        """
        config = self.config
        hooks = self._pc_hooks
        if hooks:
            blocks = plan.hooked_blocks(hooks)
        else:
            blocks = plan.blocks
        blocks_get = blocks.get
        compile_block_at = plan.compile_block_at
        batch_monitors = self._batch_monitors
        block_monitors = self._block_monitors
        use_blocks = bool(block_monitors) and all(block_monitors)
        fuel = config.max_instructions
        flush_at = MONITOR_BATCH_SIZE
        make_record = TraceRecord

        pc = self.pc
        cycle = self.cycle
        retired = self.retired
        start_retired = retired
        cf_events = 0
        taken_cf_events = 0
        by_kind: Dict[str, int] = {}
        batch: List[TraceRecord] = []
        x = self.registers._regs
        rf = self.registers
        load = self.memory.load
        store = self.memory.store
        direct_jump_kind = BranchKind.DIRECT_JUMP.value
        buf = mv2 = mv4 = None
        if plan.uses_data_buffer:
            region = self.memory.region_buffer("data")
            if (region is None or region[0] != plan.data_base
                    or region[1] != plan.data_size):
                # Defensive: the generated guards bake the data-region
                # bounds in; without a matching live buffer the plan
                # cannot run (unreachable for CPUs built the normal way).
                return self._finish_on_step(pc, redirected=False)
            buf = region[2]
            view = memoryview(buf)
            mv2 = view.cast("H")
            mv4 = view.cast("I")
        #: Set when the rest of the run goes to the step loop; ``sync_pc``
        #: is where batched observation ended, and ``redirected`` marks a
        #: hook that moved the pc (its target executes without hooks).
        handoff = redirected = False
        sync_pc = pc
        try:
            while not self.halted:
                entry = blocks_get(pc)
                if entry is None:
                    entry = compile_block_at(pc)
                    if entry is None:
                        # Not an instruction: Cpu.step raises the fault.
                        sync_pc = pc
                        handoff = True
                        break
                    if hooks:
                        entry = plan.split_block(entry, hooks, blocks)
                (fn, size, templates, n_internal, term_cf, term_template,
                 cf_total, static_chunk, static_pairs,
                 kind_items) = entry.packed
                if retired + size > fuel:
                    # A whole-block step could cross the fuel limit;
                    # Cpu.step raises OutOfFuelError at the exact
                    # instruction.
                    sync_pc = pc
                    handoff = True
                    break
                if hooks and pc in hooks:
                    self.pc = pc
                    self.cycle = cycle
                    self.retired = retired
                    if self._fire_pc_hooks(hooks[pc]):
                        sync_pc = pc
                        pc = self.pc
                        handoff = redirected = True
                        break
                next_pc, rdelta, cdelta, taken, cf_seen = fn(
                    self, x, rf, load, store, buf, mv2, mv4)
                base_retired = retired
                base_cycle = cycle
                cycle += cdelta
                retired += rdelta
                # Streaming summary counters (the compiled engine never
                # runs with a collected trace), then record delivery.
                if cf_seen:
                    if cf_seen == cf_total:
                        cf_events += cf_total
                        taken_cf_events += n_internal + (
                            1 if term_cf and taken else 0)
                        for kind_name, count in kind_items:
                            by_kind[kind_name] = by_kind.get(kind_name, 0) + count
                        if not batch_monitors:
                            pc = next_pc
                            continue
                        if n_internal:
                            records = [
                                make_record(
                                    base_retired + roff, base_cycle + coff,
                                    tpc, word, instruction, tnext, kind, True,
                                )
                                for roff, coff, tpc, word, instruction,
                                tnext, kind in templates
                            ]
                            if term_cf:
                                tpc, word, instruction, kind = term_template
                                records.append(make_record(
                                    retired - 1, cycle, tpc, word,
                                    instruction, next_pc, kind, taken,
                                ))
                            if use_blocks:
                                # Per-block absorb: flush any pending batch
                                # first so the monitors see records in
                                # stream order, then hand over the
                                # precomputed chunk.
                                if batch:
                                    flush = batch
                                    batch = []
                                    for deliver in batch_monitors:
                                        deliver(flush)
                                for observe_block in block_monitors:
                                    observe_block(
                                        records, static_chunk, static_pairs)
                            else:
                                batch.extend(records)
                                if len(batch) >= flush_at:
                                    flush = batch
                                    batch = []
                                    for deliver in batch_monitors:
                                        deliver(flush)
                        elif term_cf:
                            tpc, word, instruction, kind = term_template
                            batch.append(make_record(
                                retired - 1, cycle, tpc, word, instruction,
                                next_pc, kind, taken,
                            ))
                            if len(batch) >= flush_at:
                                # Re-bind before delivering: if a monitor
                                # raises mid-flush, the finally block must
                                # not re-deliver these records.
                                flush = batch
                                batch = []
                                for deliver in batch_monitors:
                                    deliver(flush)
                    else:
                        # Early ecall/ebreak halt: only the first cf_seen
                        # internal jumps fired, all taken direct jumps.
                        cf_events += cf_seen
                        taken_cf_events += cf_seen
                        by_kind[direct_jump_kind] = by_kind.get(
                            direct_jump_kind, 0) + cf_seen
                        if batch_monitors:
                            batch.extend(
                                make_record(
                                    base_retired + roff, base_cycle + coff,
                                    tpc, word, instruction, tnext, kind, True,
                                )
                                for roff, coff, tpc, word, instruction,
                                tnext, kind in templates[:cf_seen]
                            )
                            if len(batch) >= flush_at:
                                flush = batch
                                batch = []
                                for deliver in batch_monitors:
                                    deliver(flush)
                pc = next_pc
        finally:
            self.pc = pc
            self.cycle = cycle
            self.retired = retired
            if batch:
                flush = batch
                batch = []
                for deliver in batch_monitors:
                    deliver(flush)
            # Batched delivery only carries control-flow records: sync the
            # retirement count and cycle so monitor statistics cover the
            # straight-line tail of the compiled portion as well.
            for finish in self._finish_monitors:
                finish(retired, cycle)
            self.trace.absorb_counts(
                instructions=retired - start_retired,
                cycles=cycle,
                control_flow_events=cf_events,
                taken_control_flow_events=taken_cf_events,
                by_kind=by_kind,
            )
        if handoff:
            return self._finish_on_step(sync_pc, redirected)
        return self._result()

    def _finish_on_step(self, sync_pc: int, redirected: bool) -> ExecutionResult:
        """Finish a compiled run on the per-instruction :meth:`step` loop.

        The straight-line instructions retired since the last control-flow
        record produced no records; their pc range (up to ``sync_pc``) goes
        to the monitors' loop-exit checks before observation resumes per
        record.  After a hook redirect the target executes without
        re-firing hooks: this retirement's hooks already ran.
        """
        for sync in self._linear_sync_monitors:
            sync(sync_pc, self.cycle)
        if redirected:
            self.step(_skip_hooks=True)
        while not self.halted:
            self.step()
        return self._result()

    def _result(self) -> ExecutionResult:
        return ExecutionResult(
            trace=self.trace,
            exit_code=self.syscalls.exit_code or 0,
            output=self.syscalls.output_text,
            instructions=self.retired,
            cycles=self.cycle,
            registers=self.registers.snapshot(),
        )

    def step(self, _skip_hooks: bool = False) -> Optional[TraceRecord]:
        """Fetch, decode and execute a single instruction."""
        if self.halted:
            return None
        if self.retired >= self.config.max_instructions:
            raise OutOfFuelError(self.config.max_instructions)

        if self._pc_hooks and not _skip_hooks:
            hooks = self._pc_hooks.get(self.pc)
            if hooks:
                self._fire_pc_hooks(hooks)

        pc = self.pc
        word = self.memory.fetch_word(pc)
        entry = self._decode_cache.get(pc)
        if entry is not None and entry[0] == word:
            instruction = entry[1]
        else:
            instruction = self._decode(pc, word)
            self._decode_cache[pc] = (word, instruction)

        next_pc, taken, extra_cycles = self._execute(instruction, pc)
        kind = classify_branch(instruction)

        self.cycle += 1 + extra_cycles
        if kind.is_control_flow and taken:
            self.cycle += self.config.taken_branch_penalty

        record = TraceRecord(
            index=self.retired,
            cycle=self.cycle,
            pc=pc,
            word=word,
            instruction=instruction,
            next_pc=next_pc,
            kind=kind,
            taken=taken if kind.is_control_flow else False,
        )
        self.trace.append(record)
        self.retired += 1
        self.pc = next_pc

        for monitor in self._monitors:
            monitor(record)
        return record

    # ------------------------------------------------------------ semantics
    def _decode(self, pc: int, word: int) -> Instruction:
        """Decode ``word`` fetched from ``pc`` (uncached path)."""
        try:
            return decode(word, address=pc)
        except EncodingError:
            raise IllegalInstructionError(pc, word) from None

    def _execute(self, instr: Instruction, pc: int) -> tuple:
        """Execute ``instr``; return (next_pc, taken, extra_cycles)."""
        executor = _EXECUTORS.get(instr.mnemonic)
        if executor is None:  # pragma: no cover - decoder only emits known ops
            raise IllegalInstructionError(instr.address or 0, 0)
        return executor(self, instr, pc)


# ---------------------------------------------------------------------------
# Instruction dispatch table
# ---------------------------------------------------------------------------
# One executor per mnemonic, resolved with a single dictionary lookup per
# retired instruction.  Every executor returns (next_pc, taken, extra_cycles)
# and must preserve exact architectural semantics: the regression suite
# asserts byte-identical traces and measurements across all seed workloads.


def _exec_lui(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    cpu.registers.write(instr.rd, instr.imm << 12)
    return pc + 4, False, 0


def _exec_auipc(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    cpu.registers.write(instr.rd, pc + (instr.imm << 12))
    return pc + 4, False, 0


def _exec_jal(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    cpu.registers.write(instr.rd, pc + 4)
    return to_unsigned(pc + instr.imm), True, 0


def _exec_jalr(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    regs = cpu.registers
    target = to_unsigned(regs.read(instr.rs1) + instr.imm) & ~1
    regs.write(instr.rd, pc + 4)
    return target, True, 0


def _exec_ecall(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    result = cpu.syscalls.handle(cpu.registers, cpu.memory)
    if result.exited:
        cpu.halted = True
    return pc + 4, False, 0


def _exec_ebreak(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    cpu.halted = True
    return pc + 4, False, 0


def _exec_fence(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
    return pc + 4, False, 0


def _branch(condition):
    """Conditional-branch executor from condition(registers, instr) -> bool."""
    def _exec(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
        if condition(cpu.registers, instr):
            return to_unsigned(pc + instr.imm), True, 0
        return pc + 4, False, 0
    return _exec


def _load(size: int, signed: bool):
    def _exec(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
        regs = cpu.registers
        address = to_unsigned(regs.read(instr.rs1) + instr.imm)
        regs.write(instr.rd, cpu.memory.load(address, size, signed=signed))
        return pc + 4, False, cpu.config.load_latency
    return _exec


def _store(size: int):
    def _exec(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
        regs = cpu.registers
        address = to_unsigned(regs.read(instr.rs1) + instr.imm)
        cpu.memory.store(address, regs.read(instr.rs2), size)
        return pc + 4, False, 0
    return _exec


def _alu(value_fn, latency_attr: Optional[str] = None):
    """ALU executor from value_fn(registers, instr) -> value.

    ``latency_attr`` names the :class:`CpuConfig` field charged as extra
    cycles (multiplications and divisions on the iterative functional units).
    """
    if latency_attr is None:
        def _exec(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
            regs = cpu.registers
            regs.write(instr.rd, value_fn(regs, instr))
            return pc + 4, False, 0
    else:
        def _exec(cpu: "Cpu", instr: Instruction, pc: int) -> tuple:
            regs = cpu.registers
            regs.write(instr.rd, value_fn(regs, instr))
            return pc + 4, False, getattr(cpu.config, latency_attr)
    return _exec


def _div_value(rs1_s: int, rs2_s: int) -> int:
    """RV32M ``div``: signed division truncating toward zero.

    Division by zero returns -1 (all ones) and the signed-overflow case
    ``INT_MIN / -1`` returns ``INT_MIN``, per the RISC-V M specification.
    Computed in exact integer arithmetic (``//`` on magnitudes) rather than
    via float division, which cannot represent every 32-bit quotient.
    """
    if rs2_s == 0:
        return -1
    if rs1_s == -(1 << 31) and rs2_s == -1:
        return rs1_s
    quotient = abs(rs1_s) // abs(rs2_s)
    return -quotient if (rs1_s < 0) != (rs2_s < 0) else quotient


def _rem_value(rs1_s: int, rs2_s: int) -> int:
    """RV32M ``rem``: remainder of truncating division (sign of dividend).

    Remainder by zero returns the dividend and ``INT_MIN rem -1`` returns 0,
    per the RISC-V M specification.
    """
    if rs2_s == 0:
        return rs1_s
    if rs1_s == -(1 << 31) and rs2_s == -1:
        return 0
    return rs1_s - _div_value(rs1_s, rs2_s) * rs2_s


_EXECUTORS: Dict[str, Callable] = {
    "lui": _exec_lui,
    "auipc": _exec_auipc,
    "jal": _exec_jal,
    "jalr": _exec_jalr,
    "ecall": _exec_ecall,
    "ebreak": _exec_ebreak,
    "fence": _exec_fence,
    # Conditional branches.
    "beq": _branch(lambda r, i: r.read(i.rs1) == r.read(i.rs2)),
    "bne": _branch(lambda r, i: r.read(i.rs1) != r.read(i.rs2)),
    "blt": _branch(lambda r, i: r.read_signed(i.rs1) < r.read_signed(i.rs2)),
    "bge": _branch(lambda r, i: r.read_signed(i.rs1) >= r.read_signed(i.rs2)),
    "bltu": _branch(lambda r, i: r.read(i.rs1) < r.read(i.rs2)),
    "bgeu": _branch(lambda r, i: r.read(i.rs1) >= r.read(i.rs2)),
    # Loads and stores.
    "lb": _load(1, True),
    "lbu": _load(1, False),
    "lh": _load(2, True),
    "lhu": _load(2, False),
    "lw": _load(4, False),
    "sb": _store(1),
    "sh": _store(2),
    "sw": _store(4),
    # ALU with immediate operand.
    "addi": _alu(lambda r, i: r.read(i.rs1) + i.imm),
    "slti": _alu(lambda r, i: 1 if r.read_signed(i.rs1) < i.imm else 0),
    "sltiu": _alu(lambda r, i: 1 if r.read(i.rs1) < to_unsigned(i.imm) else 0),
    "xori": _alu(lambda r, i: r.read(i.rs1) ^ to_unsigned(i.imm)),
    "ori": _alu(lambda r, i: r.read(i.rs1) | to_unsigned(i.imm)),
    "andi": _alu(lambda r, i: r.read(i.rs1) & to_unsigned(i.imm)),
    "slli": _alu(lambda r, i: r.read(i.rs1) << (i.imm & 0x1F)),
    "srli": _alu(lambda r, i: r.read(i.rs1) >> (i.imm & 0x1F)),
    "srai": _alu(lambda r, i: r.read_signed(i.rs1) >> (i.imm & 0x1F)),
    # Register-register ALU.
    "add": _alu(lambda r, i: r.read(i.rs1) + r.read(i.rs2)),
    "sub": _alu(lambda r, i: r.read(i.rs1) - r.read(i.rs2)),
    "sll": _alu(lambda r, i: r.read(i.rs1) << (r.read(i.rs2) & 0x1F)),
    "slt": _alu(lambda r, i: 1 if r.read_signed(i.rs1) < r.read_signed(i.rs2) else 0),
    "sltu": _alu(lambda r, i: 1 if r.read(i.rs1) < r.read(i.rs2) else 0),
    "xor": _alu(lambda r, i: r.read(i.rs1) ^ r.read(i.rs2)),
    "srl": _alu(lambda r, i: r.read(i.rs1) >> (r.read(i.rs2) & 0x1F)),
    "sra": _alu(lambda r, i: r.read_signed(i.rs1) >> (r.read(i.rs2) & 0x1F)),
    "or": _alu(lambda r, i: r.read(i.rs1) | r.read(i.rs2)),
    "and": _alu(lambda r, i: r.read(i.rs1) & r.read(i.rs2)),
    # M extension (iterative multiplier/divider latencies).
    "mul": _alu(lambda r, i: r.read_signed(i.rs1) * r.read_signed(i.rs2),
                "mul_latency"),
    "mulh": _alu(lambda r, i: (r.read_signed(i.rs1) * r.read_signed(i.rs2)) >> 32,
                 "mul_latency"),
    "mulhu": _alu(lambda r, i: (r.read(i.rs1) * r.read(i.rs2)) >> 32,
                  "mul_latency"),
    "mulhsu": _alu(lambda r, i: (r.read_signed(i.rs1) * r.read(i.rs2)) >> 32,
                   "mul_latency"),
    "div": _alu(lambda r, i: _div_value(r.read_signed(i.rs1), r.read_signed(i.rs2)),
                "div_latency"),
    "divu": _alu(lambda r, i: (0xFFFFFFFF if r.read(i.rs2) == 0
                               else r.read(i.rs1) // r.read(i.rs2)),
                 "div_latency"),
    "rem": _alu(lambda r, i: _rem_value(r.read_signed(i.rs1), r.read_signed(i.rs2)),
                "div_latency"),
    "remu": _alu(lambda r, i: (r.read(i.rs1) if r.read(i.rs2) == 0
                               else r.read(i.rs1) % r.read(i.rs2)),
                 "div_latency"),
}


#: The shared decoded-instruction store: program digest -> a lazily filled
#: pc -> (word, instruction) table.  Code memory is mapped read-execute, so
#: within one program image the pc -> word mapping is immutable and sharing
#: decoded :class:`Instruction` objects across runs is safe (executors never
#: mutate them); entries also remember the raw word, so a mismatch falls
#: back to a fresh decode.  One table per program counts as one entry.
DECODE_CACHE = DigestCache(budget=64)


def run_program(
    program: Program,
    inputs: Optional[List[int]] = None,
    config: Optional[CpuConfig] = None,
    monitors: Optional[List[Monitor]] = None,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`Cpu`, attach monitors, run."""
    cpu = Cpu(program, inputs=inputs, config=config)
    for monitor in monitors or []:
        cpu.attach_monitor(monitor)
    return cpu.run()
