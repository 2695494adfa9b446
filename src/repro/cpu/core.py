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

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.isa.registers import RegisterFile, to_signed, to_unsigned

#: Type of the per-retired-instruction monitor callbacks (e.g. LO-FAT).
Monitor = Callable[[TraceRecord], None]

#: Type of the pre-execution hooks used by the attack injectors.
PreInstructionHook = Callable[["Cpu", int, int], None]

#: Number of control-flow records buffered before a batch is flushed to the
#: attached monitors (fast and compiled engines).  Batching only changes
#: delivery granularity, never a measurement.
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
    #: Reuse decoded instructions across runs of the same program image (the
    #: code region is read-execute, so the pc -> word mapping is immutable).
    decoded_instruction_cache: bool = True
    #: Keep the full per-instruction record list on :attr:`Cpu.trace`.  The
    #: attestation hot paths (verifier replay, campaign workers) disable this
    #: and stream records straight to the monitors, keeping only summary
    #: counters in memory.
    collect_trace: bool = True
    #: Execution engine: ``"compiled"`` (superblock trace compilation,
    #: :meth:`Cpu.run_compiled`), ``"fast"`` (fused interpreter,
    #: :meth:`Cpu.run_fast`) or ``"legacy"`` (per-instruction
    #: :meth:`Cpu.step` loop, kept as the test oracle and for cycle-model
    #: fidelity).  All three are architecturally identical.  A compiled run
    #: delegates to ``run_fast`` when the run shape needs per-instruction
    #: delivery (collected traces, pre-hooks) -- see docs/EXECUTION.md.
    engine: str = "compiled"
    #: Clock frequency of the core in MHz (Pulpino/LO-FAT run at 80 MHz on
    #: the Zedboard prototype); used only to convert cycles to wall time in
    #: reports.
    clock_mhz: float = 80.0

    def __post_init__(self) -> None:
        if self.engine not in ("legacy", "fast", "compiled"):
            raise ValueError(
                "unknown execution engine %r (expected legacy, fast or"
                " compiled)" % (self.engine,)
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
        self._decode_cache = (
            DECODE_CACHE.table_for(program)
            if self.config.decoded_instruction_cache
            else None
        )
        # The fast-path dispatch table (pc -> (executor, instruction, word,
        # kind, is_control_flow)) is shared across runs of the same program
        # image exactly like the decode cache; without the shared cache each
        # Cpu keeps a private table.
        self._fast_table: Dict[int, tuple] = (
            DECODE_CACHE.fast_table_for(program)
            if self.config.decoded_instruction_cache
            else {}
        )
        self.pc = program.entry
        self.cycle = 0
        self.retired = 0
        self.halted = False
        #: The engine that actually ran (set by :meth:`run`): "legacy",
        #: "fast" or "compiled".  A compiled run that delegates its tail to
        #: ``run_fast`` still reports "compiled".
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
        #: fast path to sync final counters to batch monitors.
        self._finish_monitors: List[Callable] = []
        #: Straight-line sync hooks (``sync_straight_line(next_pc, cycle)``)
        #: used when a pre-hook redirect ends batched observation mid-run.
        self._linear_sync_monitors: List[Callable] = []
        self._pre_hooks: List[PreInstructionHook] = []
        self._setup_memory()
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
        can consume batches of control-flow records on the fast path; plain
        callables force the legacy per-record loop so they keep seeing every
        retired instruction.
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

    def add_pre_instruction_hook(self, hook: PreInstructionHook) -> None:
        """Attach a hook invoked before each instruction executes.

        Hooks receive ``(cpu, pc, retired_count)`` and may modify data memory;
        the attack injectors use this to model memory-corruption exploits
        triggered at a particular execution point.
        """
        self._pre_hooks.append(hook)

    # ----------------------------------------------------------- execution
    def run(self) -> ExecutionResult:
        """Run the program to completion and return the execution result.

        Dispatches by :attr:`CpuConfig.engine`: the compiled engine
        (:meth:`run_compiled`) unless the run needs per-instruction
        delivery (a collected trace or pre-hooks), else the fused fast path
        (:meth:`run_fast`) when every attached monitor supports batched
        observation, else the legacy per-instruction :meth:`step` loop.
        All paths are architecturally identical.
        """
        engine = self.config.engine
        if engine != "legacy" and all(self._batch_monitors):
            if (
                engine == "compiled"
                and not self._pre_hooks
                and not self.config.collect_trace
            ):
                # Lazy import: repro.cpu.compile imports this module.
                from repro.cpu.compile import COMPILE_CACHE

                self.engine_used = "compiled"
                return self.run_compiled(
                    COMPILE_CACHE.plan_for(self.program, self.config))
            self.engine_used = "fast"
            return self.run_fast()
        self.engine_used = "legacy"
        while not self.halted:
            self.step()
        return self._result()

    def run_fast(self) -> ExecutionResult:
        """Fused fetch/decode/dispatch inner loop.

        The hot-path variant of :meth:`run`: attribute lookups are hoisted
        out of the loop, fetch+decode+classify happen once per program
        counter through the shared per-program dispatch table, and
        :class:`TraceRecord` objects are only materialized for control-flow
        instructions (when monitors are attached) or when the configuration
        asks for a full trace.  Control-flow records are delivered to the
        monitors in batches via their ``observe_batch`` hook; because
        monitors observe retired instructions and can never influence
        architectural state, the deferred delivery is unobservable outside
        cycle-model statistics.
        """
        config = self.config
        table = self._fast_table
        table_get = table.get
        build_entry = self._build_fast_entry
        pre_hooks = self._pre_hooks
        batch_monitors = self._batch_monitors
        collect = config.collect_trace
        streaming = not collect
        append_record = self.trace.append if collect else None
        fuel = config.max_instructions
        taken_penalty = config.taken_branch_penalty
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
        #: Set when a pre-hook redirects control flow: such a transfer has no
        #: trace record, so batched observers could not reconstruct the
        #: straight-line runs around it -- the rest of the execution then
        #: finishes on the legacy per-record loop (identical semantics).
        hook_redirected = False
        redirect_from = 0
        try:
            while not self.halted:
                if retired >= fuel:
                    raise OutOfFuelError(fuel)
                if pre_hooks:
                    self.pc = pc
                    self.cycle = cycle
                    self.retired = retired
                    for hook in pre_hooks:
                        # self.pc, not the local: a hook that redirects
                        # control flow is visible to the hooks after it,
                        # exactly as on the legacy loop.
                        hook(self, self.pc, retired)
                    if self.pc != pc:
                        redirect_from = pc
                        pc = self.pc
                        hook_redirected = True
                        break

                entry = table_get(pc)
                if entry is None:
                    entry = build_entry(pc)
                executor, instruction, word, kind, is_control_flow = entry

                next_pc, taken, extra_cycles = executor(self, instruction, pc)
                cycle += 1 + extra_cycles
                if is_control_flow:
                    if taken:
                        cycle += taken_penalty
                    if streaming:
                        # Summary counters for the streaming trace; with a
                        # collected trace they would be recomputed from the
                        # records, so skip the bookkeeping entirely.
                        cf_events += 1
                        if taken:
                            taken_cf_events += 1
                        kind_name = kind.value
                        by_kind[kind_name] = by_kind.get(kind_name, 0) + 1
                    if batch_monitors or collect:
                        record = make_record(
                            retired, cycle, pc, word, instruction,
                            next_pc, kind, taken,
                        )
                        if collect:
                            append_record(record)
                        if batch_monitors:
                            batch.append(record)
                            if len(batch) >= flush_at:
                                # Re-bind before delivering: if a monitor
                                # raises mid-flush, the finally block must
                                # not re-deliver these records.
                                flush = batch
                                batch = []
                                for deliver in batch_monitors:
                                    deliver(flush)
                elif collect:
                    append_record(make_record(
                        retired, cycle, pc, word, instruction,
                        next_pc, kind, False,
                    ))
                retired += 1
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
            # final retirement count and cycle so monitor statistics cover
            # the straight-line tail of the run as well.
            for finish in self._finish_monitors:
                finish(retired, cycle)
            if not collect:
                self.trace.absorb_counts(
                    instructions=retired - start_retired,
                    cycles=cycle,
                    control_flow_events=cf_events,
                    taken_control_flow_events=taken_cf_events,
                    by_kind=by_kind,
                )
        if hook_redirected:
            # The straight-line instructions retired since the last
            # control-flow record produced no records; hand their pc range
            # to the monitors (loop-exit checks) before observation resumes
            # per record.
            for sync in self._linear_sync_monitors:
                sync(redirect_from, cycle)
            # The hooks for this retirement already ran (and redirected):
            # execute the redirect target without re-firing them, then
            # finish the run per record -- exactly the legacy behaviour.
            self.step(_skip_hooks=True)
            while not self.halted:
                self.step()
        return self._result()

    def run_compiled(self, plan) -> ExecutionResult:
        """Inter-block trampoline over compiled superblock step functions.

        The third engine (see :mod:`repro.cpu.compile`): each iteration
        looks up the compiled block headed at ``pc`` and executes the whole
        block with a single call -- no per-instruction dispatch.  Cycle and
        retirement deltas come back as compile-time constants; control-flow
        trace records are materialized per edge from the block's static
        templates so downstream traces and measurements stay byte-identical
        to the other engines.  Monitors exposing ``observe_block`` absorb
        each block's chain-internal jumps from one precomputed chunk; the
        block terminator (and everything for batch-only monitors) flows
        through the same ``observe_batch`` batching as :meth:`run_fast`.

        Runs that the trampoline cannot finish -- a transfer to an address
        that is not an instruction, or a block whose worst-case retirement
        would cross the fuel limit -- delegate the remainder of the run to
        :meth:`run_fast` with identical semantics.
        """
        config = self.config
        blocks_get = plan.blocks.get
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
                self.engine_used = "fast"
                return self.run_fast()
            buf = region[2]
            view = memoryview(buf)
            mv2 = view.cast("H")
            mv4 = view.cast("I")
        #: Set when the remainder of the run must finish on ``run_fast``
        #: (pc that is not an instruction, or fuel check too close to the limit
        #: for a whole-block step).
        delegated = False
        try:
            while not self.halted:
                entry = blocks_get(pc)
                if entry is None:
                    entry = compile_block_at(pc)
                    if entry is None:
                        delegated = True
                        break
                (fn, size, templates, n_internal, term_cf, term_template,
                 cf_total, static_chunk, static_pairs,
                 kind_items) = entry.packed
                if retired + size > fuel:
                    # A whole-block step could cross the fuel limit;
                    # run_fast raises OutOfFuelError at the exact
                    # instruction, identically to the legacy loop.
                    delegated = True
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
            if not delegated:
                if batch:
                    flush = batch
                    batch = []
                    for deliver in batch_monitors:
                        deliver(flush)
                for finish in self._finish_monitors:
                    finish(retired, cycle)
                self.trace.absorb_counts(
                    instructions=retired - start_retired,
                    cycles=cycle,
                    control_flow_events=cf_events,
                    taken_control_flow_events=taken_cf_events,
                    by_kind=by_kind,
                )
        if delegated:
            # Flush what the compiled portion produced, account for it, and
            # finish the run on the fused interpreter (which calls the
            # finish monitors and absorbs its own portion of the counters).
            if batch:
                flush = batch
                batch = []
                for deliver in batch_monitors:
                    deliver(flush)
            self.trace.absorb_counts(
                instructions=retired - start_retired,
                cycles=cycle,
                control_flow_events=cf_events,
                taken_control_flow_events=taken_cf_events,
                by_kind=by_kind,
            )
            return self.run_fast()
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

    def _build_fast_entry(self, pc: int) -> tuple:
        """Fetch, decode and classify the instruction at ``pc`` once.

        Code memory is read-execute, so the pc -> word mapping is immutable
        within one program image and the resulting dispatch entry can be
        reused for every subsequent visit (and, through the shared cache,
        every subsequent run of the same program).
        """
        word = self.memory.fetch_word(pc)
        instruction = self._decode(pc, word)
        executor = _EXECUTORS.get(instruction.mnemonic)
        if executor is None:  # pragma: no cover - decoder only emits known ops
            raise IllegalInstructionError(pc, word)
        kind = classify_branch(instruction)
        entry = (executor, instruction, word, kind, kind.is_control_flow)
        self._fast_table[pc] = entry
        # Keep the legacy decode cache coherent so mixed step()/run() use of
        # the same program image never decodes twice.
        if self._decode_cache is not None:
            self._decode_cache[pc] = (word, instruction)
        return entry

    def step(self, _skip_hooks: bool = False) -> Optional[TraceRecord]:
        """Fetch, decode and execute a single instruction."""
        if self.halted:
            return None
        if self.retired >= self.config.max_instructions:
            raise OutOfFuelError(self.config.max_instructions)

        if not _skip_hooks:
            for hook in self._pre_hooks:
                hook(self, self.pc, self.retired)

        pc = self.pc
        word = self.memory.fetch_word(pc)
        cache = self._decode_cache
        if cache is not None:
            entry = cache.get(pc)
            if entry is not None and entry[0] == word:
                instruction = entry[1]
            else:
                instruction = self._decode(pc, word)
                cache[pc] = (word, instruction)
        else:
            instruction = self._decode(pc, word)

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


# ---------------------------------------------------------------------------
# Decoded-instruction cache
# ---------------------------------------------------------------------------


class DecodedInstructionCache:
    """Process-wide decoded-instruction store shared by all Cpu instances.

    Keyed by program digest then PC; entries also remember the raw word so a
    mismatch falls back to a fresh decode.  Code memory is mapped
    read-execute, so within one program image the pc -> word mapping is
    immutable and sharing decoded :class:`Instruction` objects across runs is
    safe (executors never mutate them).  Repeat verifications of the same
    program -- the campaign service's common case -- skip the decoder
    entirely after the first run.
    """

    def __init__(self, max_programs: int = 64) -> None:
        self.max_programs = max_programs
        self._tables: Dict[str, Dict[int, Tuple[int, Instruction]]] = {}
        #: Fast-path dispatch tables, keyed like :attr:`_tables`: pc ->
        #: (executor, instruction, word, kind, is_control_flow).
        self._fast_tables: Dict[str, Dict[int, tuple]] = {}
        # Guards the evict-then-insert sequences below.  Table *contents*
        # stay lock-free (per-pc inserts are idempotent and dict ops are
        # atomic under the GIL); the lock only keeps one thread's eviction
        # from dropping a table another thread just registered -- the
        # attestation server computes cold references on executor threads,
        # so this process-wide cache is reachable concurrently.
        self._lock = threading.Lock()

    def table_for(self, program: Program) -> Dict[int, Tuple[int, Instruction]]:
        """The (lazily filled) pc -> (word, instruction) table for ``program``."""
        digest = program.digest
        table = self._tables.get(digest)
        if table is None:
            with self._lock:
                table = self._tables.get(digest)
                if table is None:
                    if len(self._tables) >= self.max_programs:
                        self._tables.clear()
                        self._fast_tables.clear()
                    table = {}
                    self._tables[digest] = table
        return table

    def fast_table_for(self, program: Program) -> Dict[int, tuple]:
        """The (lazily filled) fast-path dispatch table for ``program``."""
        digest = program.digest
        table = self._fast_tables.get(digest)
        if table is None:
            with self._lock:
                table = self._fast_tables.get(digest)
                if table is None:
                    if len(self._fast_tables) >= self.max_programs:
                        self._tables.clear()
                        self._fast_tables.clear()
                    table = {}
                    self._fast_tables[digest] = table
        return table

    @property
    def cached_programs(self) -> int:
        return len(self._tables)

    @property
    def cached_instructions(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def clear(self) -> None:
        self._tables.clear()
        self._fast_tables.clear()


#: The shared decode cache (one per process; workers each build their own).
DECODE_CACHE = DecodedInstructionCache()


def run_program(
    program: Program,
    inputs: Optional[List[int]] = None,
    config: Optional[CpuConfig] = None,
    monitors: Optional[List[Monitor]] = None,
    pre_hooks: Optional[List[PreInstructionHook]] = None,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`Cpu`, attach monitors, run."""
    cpu = Cpu(program, inputs=inputs, config=config)
    for monitor in monitors or []:
        cpu.attach_monitor(monitor)
    for hook in pre_hooks or []:
        cpu.add_pre_instruction_hook(hook)
    return cpu.run()
