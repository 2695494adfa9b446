"""Execution-engine equivalence: the compiled engine must change nothing.

The superblock trace compiler (:meth:`repro.cpu.core.Cpu.run_compiled` over
:mod:`repro.cpu.compile` plans) and the batched observation path through
the measurement sessions are pure performance work.  These tests pin down,
across every attestation scheme and a spread of workloads (including the
loop-heavy ones, where the batched absorb and the range-based loop-exit
check actually diverge in code path), that the compiled engine produces
byte-identical measurements, metadata, architectural results and verifier
verdicts to the per-instruction :meth:`Cpu.step` oracle -- with and without
pc hooks -- and that runs the trampoline cannot finish hand off to the step
loop cleanly.
"""

import pytest

from repro.attacks.injector import ControlFlowRedirect, MemoryCorruption
from repro.attestation import Prover, Verifier
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.isa.assembler import assemble
from repro.schemes import get_scheme, scheme_names
from repro.workloads import get_workload

from adversary_suites import adversary_suites

#: At least five workloads, biased toward loop-heavy/nested control flow.
WORKLOAD_NAMES = [
    "figure4_loop",   # the paper's data-dependent loop
    "syringe_pump",   # nested loops + calls (paper workload)
    "matmul",         # deep nesting
    "quicksort",      # recursion + loops
    "crc32",          # nested data-dependent loops
    "dispatcher",     # indirect control flow
    "fibonacci",      # recursion
]

SCHEMES = scheme_names()

ENGINES = ("legacy", "compiled")


def _fingerprint(scheme_name, program, inputs, engine):
    """Everything an engine is allowed to influence exactly nothing of."""
    scheme = get_scheme(scheme_name)
    config = CpuConfig(engine=engine)
    result, measured = scheme.measure_execution(
        program, list(inputs), cpu_config=config)
    return (measured.measurement, measured.metadata.to_bytes(),
            result.output, result.exit_code, result.instructions,
            result.cycles, result.registers)


def _measure(scheme_name, workload, engine, collect=False):
    scheme = get_scheme(scheme_name)
    config = CpuConfig(engine=engine, collect_trace=collect)
    result, measured = scheme.measure_execution(
        workload.build(), list(workload.inputs), cpu_config=config)
    return result, measured


class TestMeasurementEquivalence:
    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_batched_equals_per_pair(self, scheme_name, workload_name):
        """Compiled (batched) and oracle (per-pair) measurements are
        identical."""
        workload = get_workload(workload_name)
        legacy_result, legacy = _measure(scheme_name, workload, "legacy")
        compiled_result, compiled = _measure(scheme_name, workload, "compiled")

        assert compiled.measurement == legacy.measurement
        assert compiled.metadata.to_bytes() == legacy.metadata.to_bytes()
        assert compiled_result.output == legacy_result.output
        assert compiled_result.exit_code == legacy_result.exit_code
        assert compiled_result.instructions == legacy_result.instructions
        assert compiled_result.cycles == legacy_result.cycles
        assert compiled_result.registers == legacy_result.registers

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_collected_trace_matches_compiled_stream(self, scheme_name):
        """A collected trace runs on the step loop and measures exactly
        what the compiled stream measures."""
        workload = get_workload("figure4_loop")
        _, streamed = _measure(scheme_name, workload, "compiled")
        collected_result, collected = _measure(
            scheme_name, workload, "compiled", collect=True)
        assert collected.measurement == streamed.measurement
        assert collected.metadata.to_bytes() == streamed.metadata.to_bytes()
        legacy_result, _ = _measure(
            scheme_name, workload, "legacy", collect=True)
        assert len(collected_result.trace) == len(legacy_result.trace)
        for lhs, rhs in zip(collected_result.trace, legacy_result.trace):
            assert (lhs.pc, lhs.next_pc, lhs.cycle, lhs.kind, lhs.taken) == \
                   (rhs.pc, rhs.next_pc, rhs.cycle, rhs.kind, rhs.taken)

    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    def test_lofat_compression_stats_identical(self, workload_name):
        """Loop compression behaves identically under batched observation."""
        workload = get_workload(workload_name)
        _, legacy = _measure("lofat", workload, "legacy")
        _, compiled = _measure("lofat", workload, "compiled")
        for key in ("pairs_hashed", "control_flow_events", "pairs_compressed",
                    "compression_ratio"):
            assert compiled.stats[key] == legacy.stats[key], key
        assert compiled.stats["loops"] == legacy.stats["loops"]


class TestStepFallback:
    def test_plain_monitor_forces_step_loop(self):
        """A monitor without observe_batch keeps seeing every instruction."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        seen = []
        cpu = Cpu(program, inputs=list(workload.inputs))
        cpu.attach_monitor(seen.append)
        result = cpu.run()
        assert cpu.engine_used == "legacy"
        assert len(seen) == result.instructions  # every retirement observed

    def test_observe_only_monitor_forces_step_loop(self):
        """A monitor object without ``observe_batch`` runs on Cpu.step even
        when it has a block hook, and it is the run's only observer: the
        CPU keeps no trace of its own."""

        class ObserveOnly:
            def __init__(self):
                self.records = []

            def observe(self, record):
                self.records.append(record)

            def observe_block(self, records, chunk, pairs):
                raise AssertionError("block delivery without observe_batch")

        workload = get_workload("figure4_loop")
        monitor = ObserveOnly()
        cpu = Cpu(workload.build(), inputs=list(workload.inputs))
        cpu.attach_monitor(monitor.observe)
        result = cpu.run()
        assert cpu.engine_used == "legacy"
        assert len(monitor.records) == result.instructions
        assert result.trace is None

    def test_legacy_engine_matches_default(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(engine="legacy"))
        legacy = cpu.run()
        default = Cpu(program, inputs=list(workload.inputs)).run()
        assert legacy.cycles == default.cycles
        assert legacy.output == default.output

    def test_raising_batch_monitor_does_not_duplicate_delivery(
            self, monkeypatch):
        """If a monitor raises mid-flush, earlier monitors in the same
        flush must not receive the batch a second time from cleanup."""
        monkeypatch.setattr("repro.cpu.core.MONITOR_BATCH_SIZE", 4)

        class Recorder:
            def __init__(self, explode=False):
                self.records = []
                self.explode = explode

            def observe(self, record):
                pass

            def observe_batch(self, records):
                if self.explode:
                    raise RuntimeError("monitor failure")
                self.records.extend(records)

        workload = get_workload("figure4_loop")
        good, bad = Recorder(), Recorder(explode=True)
        cpu = Cpu(workload.build(), inputs=list(workload.inputs))
        cpu.attach_monitor(good.observe)
        cpu.attach_monitor(bad.observe)
        with pytest.raises(RuntimeError, match="monitor failure"):
            cpu.run()
        indices = [record.index for record in good.records]
        assert indices == sorted(set(indices))  # delivered at most once


class TestCompiledEquivalence:
    """compiled == the Cpu.step oracle, byte for byte, across program
    sources.

    The lofat *internal* cycle-model stats (``last_absorb_cycle``) are not
    compared against the oracle: batched observation's cycle bookkeeping is
    documented to be coarser than the per-pair path (see
    ``LoFatEngine.observe_batch``).  They are compared against a batched
    replay of the same run instead.
    """

    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_registry_matches_oracle(self, scheme_name, workload_name):
        workload = get_workload(workload_name)
        program = workload.build()
        prints = {engine: _fingerprint(scheme_name, program,
                                       workload.inputs, engine)
                  for engine in ENGINES}
        assert prints["compiled"] == prints["legacy"]

    def test_lang_corpus_matches_oracle(self):
        """Every golden lang-corpus program measures identically."""
        from repro.lang.corpus import build_corpus

        checked = 0
        for entry in build_corpus():
            program = assemble(entry.assembly)
            prints = {engine: _fingerprint("lofat", program,
                                           entry.inputs, engine)
                      for engine in ENGINES}
            assert prints["compiled"] == prints["legacy"], entry.name
            checked += 1
        assert checked >= 5

    def test_family_matrix_matches_oracle(self):
        """Every seeded compiled-family member measures identically."""
        from repro.lang.families import family_names, generate_family

        checked = 0
        for family in family_names():
            for workload in generate_family(family, seed=20260808):
                program = workload.build()
                prints = {engine: _fingerprint("lofat", program,
                                               workload.inputs, engine)
                          for engine in ENGINES}
                assert prints["compiled"] == prints["legacy"], workload.name
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    def test_lofat_stats_identical_to_batched_replay(self, workload_name):
        """Per-block delivery matches plain ``observe_batch`` delivery on
        *every* stat, including the cycle-model bookkeeping excluded from
        the oracle comparison."""
        workload = get_workload(workload_name)
        program = workload.build()
        scheme = get_scheme("lofat")
        _, live = scheme.measure_execution(program, list(workload.inputs))
        capture = ControlFlowTrace()
        cpu = Cpu(program, inputs=list(workload.inputs))
        cpu.attach_monitor(capture.observe)
        cpu.run()
        replayed = scheme.replay_measurement(program, capture)
        assert live.stats == replayed.stats
        assert live.measurement == replayed.measurement

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_compiled_prover_accepted_by_legacy_verifier(self, scheme_name):
        """Reports measured on the compiled engine verify against a legacy
        replay and vice versa: the wire format is engine-agnostic."""
        workload = get_workload("syringe_pump")
        program = workload.build()
        for prover_engine, verifier_engine in (("compiled", "legacy"),
                                               ("legacy", "compiled")):
            prover = Prover(
                {workload.name: program},
                cpu_config=CpuConfig(engine=prover_engine),
            )
            verifier = Verifier(cpu_config=CpuConfig(engine=verifier_engine))
            verifier.register_program(workload.name, program)
            verifier.register_device_key(
                "prover-0", prover.keystore.export_for_verifier())
            challenge = verifier.challenge(
                workload.name, list(workload.inputs), scheme=scheme_name)
            report = prover.attest(challenge)
            verdict = verifier.verify(report)
            assert verdict.accepted, (
                scheme_name, prover_engine, verdict.reason)


class TestCompiledRunShapes:
    """Which runs execute compiled, and which run on the step loop."""

    def test_eligible_workload_actually_compiles(self):
        workload = get_workload("figure4_loop")
        cpu = Cpu(workload.build(), inputs=list(workload.inputs))
        cpu.run()
        assert cpu.engine_used == "compiled"

    @pytest.mark.parametrize("workload_name", ["dispatcher", "state_machine"])
    def test_unresolved_indirect_runs_compiled(self, workload_name):
        """An input-dependent jalr no longer declines the program: the
        trampoline resolves each runtime target, and the run stays
        byte-identical to the oracle under every scheme."""
        workload = get_workload(workload_name)
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs))
        cpu.run()
        assert cpu.engine_used == "compiled"
        for scheme_name in SCHEMES:
            assert (_fingerprint(scheme_name, program, workload.inputs,
                                 "compiled")
                    == _fingerprint(scheme_name, program, workload.inputs,
                                    "legacy")), scheme_name

    def test_pc_hook_runs_compiled(self):
        """A hooked run stays on the compiled engine and splits blocks in
        its own view only: the shared plan is untouched."""
        from repro.cpu.compile import COMPILE_CACHE

        workload = get_workload("syringe_pump")
        program = workload.build()
        plan = COMPILE_CACHE.plan_for(program, CpuConfig())
        blocks_before = dict(plan.blocks)
        largest = max(plan.blocks.values(), key=lambda block: block.size)
        inner = [instr.address for member in largest.members
                 for instr in member][1:]
        inside = inner[len(inner) // 2]
        cpu = Cpu(program, inputs=list(workload.inputs))
        cpu.add_pc_hook(inside, lambda c: None)
        cpu.add_pc_hook(program.code_base + len(program.code) + 64,
                        lambda c: None)
        cpu.run()
        assert cpu.engine_used == "compiled"
        assert plan.blocks == blocks_before

    def test_collect_trace_runs_on_step_loop(self):
        """Trace collection needs per-record delivery, so it runs on the
        step loop and the collected trace is the oracle's."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(collect_trace=True))
        result = cpu.run()
        assert cpu.engine_used == "legacy"
        legacy = Cpu(program, inputs=list(workload.inputs),
                     config=CpuConfig(engine="legacy",
                                      collect_trace=True)).run()
        assert len(result.trace) == len(legacy.trace)
        for lhs, rhs in zip(result.trace, legacy.trace):
            assert (lhs.pc, lhs.next_pc, lhs.cycle, lhs.kind, lhs.taken) == \
                   (rhs.pc, rhs.next_pc, rhs.cycle, rhs.kind, rhs.taken)

    @pytest.mark.parametrize("engine", ["turbo", "fast"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown execution engine"):
            CpuConfig(engine=engine)

    def test_engine_default_resolution(self):
        assert CpuConfig().engine == "compiled"
        assert CpuConfig().collect_trace is False
        assert CpuConfig(engine="legacy").engine == "legacy"


#: Hand-assembled trampoline probe: each input is a byte offset from
#: ``anchor`` for the input-dependent ``jr`` (negative ends the run).  The
#: interval analysis cannot resolve the jump, so every target below is
#: found by the trampoline at run time.
TRAMPOLINE_SOURCE = """
_start:
    li   s0, 1
loop:
    li   a7, 5
    ecall
    blt  a0, zero, finish
    la   t1, anchor
    add  t1, t1, a0
    jr   t1
anchor:
    addi s0, s0, 2
    addi s0, s0, 3
    j    mid
mid:
    addi s0, s0, 5
    slli s0, s0, 1
    j    loop
finish:
    mv   a0, s0
    li   a7, 1
    ecall
    li   a0, 0
    li   a7, 93
    ecall
"""

#: Offsets from ``anchor``: the block leader itself, the pc just after the
#: chain-internal ``j mid`` (mid-superblock in ``anchor``'s chain), and a
#: mid-block pc that is no leader at all (compiled on first use).
LEADER, AFTER_INTERNAL_JAL, MID_BLOCK = 0, 12, 4


def _probe_run(scheme_name, inputs, engine, max_instructions=2_000_000):
    """Run the probe under ``engine``; the fingerprint or the exception."""
    program = assemble(TRAMPOLINE_SOURCE)
    cpu = Cpu(program, inputs=list(inputs),
              config=CpuConfig(engine=engine,
                               max_instructions=max_instructions))
    session = get_scheme(scheme_name).open_session(program)
    cpu.attach_monitor(session.observe)
    capture = ControlFlowTrace()
    cpu.attach_monitor(capture.observe)
    try:
        result = cpu.run()
    except Exception as error:  # compared against the oracle's exception
        return cpu.engine_used, (type(error), str(error))
    measured = session.finalize()
    return cpu.engine_used, (
        result.registers, result.cycles, result.output,
        capture.summary(), measured.measurement,
        measured.metadata.to_bytes())


class TestTrampolineIndirectTargets:
    """The compiled trampoline against the step oracle on unresolved
    indirect targets: leaders, mid-superblock pcs and non-instructions."""

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("inputs", [
        [LEADER, -1],
        [AFTER_INTERNAL_JAL, -1],
        [MID_BLOCK, -1],
        [LEADER, AFTER_INTERNAL_JAL, MID_BLOCK, LEADER, AFTER_INTERNAL_JAL,
         -1],
    ], ids=["leader", "after-internal-jal", "mid-block", "mixed"])
    def test_target_matches_oracle(self, scheme_name, inputs):
        engine_used, compiled = _probe_run(scheme_name, inputs, "compiled")
        _, legacy = _probe_run(scheme_name, inputs, "legacy")
        assert engine_used == "compiled"
        assert compiled == legacy

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("offset", [2, 4096],
                             ids=["misaligned", "data-region"])
    def test_non_instruction_target_raises_like_oracle(self, scheme_name,
                                                       offset):
        """A target that is not an instruction hands off to Cpu.step, which
        raises the oracle's fetch fault, type and message alike."""
        inputs = [LEADER, offset, -1]
        _, compiled = _probe_run(scheme_name, inputs, "compiled")
        _, legacy = _probe_run(scheme_name, inputs, "legacy")
        assert isinstance(legacy[0], type) and issubclass(
            legacy[0], Exception)
        assert compiled == legacy

    def test_fuel_tail_raises_like_oracle(self):
        """A block that could cross the fuel limit finishes on Cpu.step,
        which stops at the exact instruction the oracle stops at."""
        inputs = [LEADER, AFTER_INTERNAL_JAL, MID_BLOCK] * 4 + [-1]
        _, compiled = _probe_run("lofat", inputs, "compiled",
                                 max_instructions=50)
        _, legacy = _probe_run("lofat", inputs, "legacy",
                               max_instructions=50)
        assert compiled[0].__name__ == "OutOfFuelError"
        assert compiled == legacy


# ---------------------------------------------------------------------------
# The hooked differential: pc hooks on the compiled engine vs the oracle
# ---------------------------------------------------------------------------


class RegisterBump:
    """A pc hook that adds to a register (an effect the output shows)."""

    def __init__(self, trigger_pc, register="s0", amount=100):
        self.trigger_pc = trigger_pc
        self.register = register
        self.amount = amount
        self.fired = 0

    def install(self, cpu):
        cpu.add_pc_hook(self.trigger_pc, self._hook)

    def _hook(self, cpu):
        cpu.registers[self.register] = (
            cpu.registers[self.register] + self.amount)
        self.fired += 1


def _hooked_run(program, inputs, make_hooks, engine,
                max_instructions=2_000_000):
    """One run with fresh hooks from ``make_hooks()`` and a session of every
    scheme attached: the engine used and everything the engine may not
    change -- per-scheme ``(A, L)`` and hook ``fired`` counts included --
    or the exception the run raised."""
    cpu = Cpu(program, inputs=list(inputs),
              config=CpuConfig(engine=engine,
                               max_instructions=max_instructions))
    sessions = [get_scheme(name).open_session(program) for name in SCHEMES]
    for session in sessions:
        cpu.attach_monitor(session.observe)
    capture = ControlFlowTrace()
    cpu.attach_monitor(capture.observe)
    hooks = make_hooks()
    for hook in hooks:
        hook.install(cpu)
    try:
        result = cpu.run()
    except Exception as error:  # compared against the oracle's exception
        return cpu.engine_used, ((type(error), str(error)),
                                 [hook.fired for hook in hooks])
    measurements = [session.finalize() for session in sessions]
    return cpu.engine_used, (
        [(measured.measurement, measured.metadata.to_bytes())
         for measured in measurements],
        result.output, result.exit_code, result.instructions, result.cycles,
        result.registers, capture.summary(),
        [hook.fired for hook in hooks])


def _assert_matches_oracle(program, inputs, make_hooks, **kwargs):
    """compiled == oracle under every scheme; returns the oracle's print
    (its last item is the hooks' ``fired`` counts)."""
    engine_used, compiled = _hooked_run(
        program, inputs, make_hooks, "compiled", **kwargs)
    _, legacy = _hooked_run(program, inputs, make_hooks, "legacy", **kwargs)
    assert engine_used == "compiled"
    assert compiled == legacy
    return legacy


class TestHookedDifferential:
    """Hooked compiled runs against the Cpu.step oracle: identical
    ``(A, L)``, output, instructions, cycles and ``fired`` counts under
    every scheme."""

    def test_every_generated_adversary_scenario(self):
        checked = 0
        for workload_name, suite in adversary_suites().items():
            program = get_workload(workload_name).build()
            for scenario in suite.attacks:
                inputs = (list(scenario.challenge_inputs)
                          + list(scenario.malicious_inputs))
                _assert_matches_oracle(
                    program, inputs,
                    lambda: scenario.build_corruptions(program))
                checked += 1
        assert checked >= 50

    def test_hook_inside_superblock_chain(self):
        """Hooks at a pc inside ``anchor``'s first member and at the head of
        its second member (the target of the chain-internal ``j mid``)."""
        program = assemble(TRAMPOLINE_SOURCE)
        anchor, mid = program.symbol("anchor"), program.symbol("mid")
        prints = _assert_matches_oracle(
            program, [LEADER, LEADER, -1],
            lambda: [RegisterBump(anchor + 4), RegisterBump(mid, amount=7)])
        assert prints[-1] == [2, 2]

    def test_hook_inside_stray_block(self):
        """A stray indirect target compiles a block on first use; a hook pc
        inside it must still fire before its instruction."""
        program = assemble(TRAMPOLINE_SOURCE)
        anchor = program.symbol("anchor")
        prints = _assert_matches_oracle(
            program, [MID_BLOCK, MID_BLOCK, LEADER, -1],
            lambda: [RegisterBump(anchor + 8)])
        assert prints[-1] == [3]

    def test_hook_at_stray_target_and_on_entry(self):
        program = assemble(TRAMPOLINE_SOURCE)
        anchor = program.symbol("anchor")
        prints = _assert_matches_oracle(
            program, [MID_BLOCK, AFTER_INTERNAL_JAL, -1],
            lambda: [RegisterBump(program.entry, amount=1),
                     RegisterBump(anchor + MID_BLOCK),
                     RegisterBump(anchor + AFTER_INTERNAL_JAL, amount=3)])
        # ``mid`` runs after both jumps: anchor + 4 falls through to it.
        assert prints[-1] == [1, 1, 2]

    def test_hook_on_entry_redirects(self):
        """A redirect before the very first instruction retires."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        second = program.entry + 4
        prints = _assert_matches_oracle(
            program, workload.inputs,
            lambda: [ControlFlowRedirect(trigger_pc=program.entry,
                                         target=second)])
        assert prints[-1] == [1]

    def test_hook_outside_code(self):
        """A hook pc no instruction holds never fires and keeps the run
        compiled; a redirect there hands off and faults like the oracle."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        outside = program.code_base + len(program.code) + 64
        prints = _assert_matches_oracle(
            program, workload.inputs,
            lambda: [RegisterBump(outside, register="t6")])
        assert prints[-1] == [0]

        prints = _assert_matches_oracle(
            program, workload.inputs,
            lambda: [ControlFlowRedirect(trigger_pc=program.entry + 8,
                                         target=outside),
                     RegisterBump(outside, register="t6")])
        assert prints[0][0].__name__ == "MemoryProtectionError"

    def test_hook_outside_code_redirects_back(self):
        """A non-instruction indirect target whose hook redirects back into
        the code: the step loop fires the hook, then runs to the end."""
        program = assemble(TRAMPOLINE_SOURCE)
        anchor, finish = program.symbol("anchor"), program.symbol("finish")
        prints = _assert_matches_oracle(
            program, [LEADER, 4096, -1],
            lambda: [ControlFlowRedirect(trigger_pc=anchor + 4096,
                                         target=finish)])
        assert prints[-1] == [1]

    @pytest.mark.parametrize("occurrence,repeat", [(3, False), (2, True)])
    def test_occurrence_and_repeat(self, occurrence, repeat):
        workload = get_workload("figure4_loop")
        program = workload.build()
        reference = Cpu(program, inputs=list(workload.inputs),
                        config=CpuConfig(collect_trace=True)).run()
        loop_branch = next(record.pc for record in reference.trace
                           if record.kind.value == "conditional")
        data = program.data_base
        prints = _assert_matches_oracle(
            program, workload.inputs,
            lambda: [MemoryCorruption(trigger_pc=loop_branch, address=data,
                                      value=lambda cpu: cpu.cycle,
                                      occurrence=occurrence, repeat=repeat),
                     RegisterBump(loop_branch, register="t6",
                                  amount=1)])
        corruption_fired, bump_fired = prints[-1]
        assert bump_fired > occurrence
        assert corruption_fired == (
            bump_fired - occurrence + 1 if repeat else 1)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_hooks_of_one_pc_run_in_order_until_one_redirects(self,
                                                              position):
        """Three hooks share the loop branch's pc; the redirect among them
        fires on the second visit and ends that round, so only the hooks
        added before it see the visit."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        reference = Cpu(program, inputs=list(workload.inputs),
                        config=CpuConfig(collect_trace=True)).run()
        loop_branch = next(record.pc for record in reference.trace
                           if record.kind.value == "conditional")

        redirects = []

        def make_hooks():
            hooks = [RegisterBump(loop_branch, register="t6", amount=1)
                     for _ in range(2)]
            redirects.append(ControlFlowRedirect(
                trigger_pc=loop_branch, target=loop_branch + 4,
                occurrence=2))
            hooks.insert(position, redirects[-1])
            return hooks

        fired = _assert_matches_oracle(program, workload.inputs,
                                       make_hooks)[-1]
        # The redirect runs on every visit; it moves the pc on one of them.
        visits = redirects[-1]._seen
        assert visits > 2
        assert fired[position] == 1
        assert fired[:position] + fired[position + 1:] == (
            [visits] * position + [visits - 1] * (2 - position))

    def test_skip_one_instruction_mid_loop(self):
        """A hook that redirects (no trace record exists for the transfer)
        hands the rest of the run to the step loop without breaking the
        oracle identity."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        reference = Cpu(program, inputs=list(workload.inputs),
                        config=CpuConfig(collect_trace=True)).run()
        trigger = reference.trace[30].pc
        prints = _assert_matches_oracle(
            program, workload.inputs,
            lambda: [ControlFlowRedirect(trigger_pc=trigger,
                                         target=trigger + 4)])
        assert prints[-1] == [1]

    def test_redirect_into_active_loop_region(self):
        """Nastier redirect: execution falls through past a loop's exit node
        (straight-line, so the compiled engine has no records for it yet)
        and a hook then redirects back into the loop body.  The oracle
        exits the loop at the fall-through; the compiled engine must
        reconstruct that from the unobserved straight-line run before
        handing off to the step loop, or the loop wrongly stays active and
        the metadata diverges."""
        from repro.cpu.trace import BranchKind

        source = """
        _start:
            li t1, 2
        loop:
            addi t1, t1, -1
            bne t1, zero, loop
            addi t2, t2, 0
            addi t2, t2, 0
            addi t2, t2, 0
            li a0, 0
            li a7, 93
            ecall
        """
        program = assemble(source)
        reference = Cpu(program, config=CpuConfig(
            engine="legacy", collect_trace=True)).run()
        branch_pc = next(r.pc for r in reference.trace
                         if r.kind is BranchKind.CONDITIONAL)
        trigger_pc = branch_pc + 12  # third straight-line addi past the exit
        prints = _assert_matches_oracle(
            program, [],
            lambda: [ControlFlowRedirect(trigger_pc=trigger_pc,
                                         target=branch_pc)])
        assert prints[-1] == [1]

    def test_fuel_runs_out_on_hooked_run(self):
        program = assemble(TRAMPOLINE_SOURCE)
        anchor = program.symbol("anchor")
        inputs = [LEADER, AFTER_INTERNAL_JAL, MID_BLOCK] * 4 + [-1]
        prints = _assert_matches_oracle(
            program, inputs,
            lambda: [RegisterBump(anchor + 4), RegisterBump(anchor + 12)],
            max_instructions=50)
        assert prints[0][0].__name__ == "OutOfFuelError"


def test_every_generated_attack_job_runs_compiled(monkeypatch):
    """Every attack job of the generated adversary campaign (the suites of
    ``repro campaign --experiment adversary``, every scheme) executes on
    the compiled engine, hooks and all."""
    from repro.attacks import register_scenario, unregister_attack
    from repro.cpu import core
    from repro.service.campaign import CampaignSpec, WorkloadSelection
    from repro.service.worker import execute_prover_job

    engines = []
    real_run = core.Cpu.run

    def recording_run(cpu):
        try:
            return real_run(cpu)
        finally:
            engines.append(cpu.engine_used)

    suites = adversary_suites()
    names = [register_scenario(scenario, replace=True)
             for suite in suites.values() for scenario in suite.attacks]
    try:
        spec = CampaignSpec(
            name="adversary", schemes=list(SCHEMES), attacks=sorted(names),
            workloads=[WorkloadSelection(name) for name in suites])
        attack_jobs = [job for job in spec.expand() if job.attack is not None]
        assert len(attack_jobs) == len(names) * len(SCHEMES) >= 150
        monkeypatch.setattr(core.Cpu, "run", recording_run)
        for job in attack_jobs:
            execute_prover_job((job, b"\x00" * 16))
    finally:
        for name in names:
            unregister_attack(name)
    assert len(engines) == len(attack_jobs)
    assert set(engines) == {"compiled"}
