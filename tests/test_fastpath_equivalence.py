"""Execution-engine equivalence: fast and compiled must change nothing.

The fused fetch/decode/dispatch interpreter (:meth:`repro.cpu.core.Cpu.run_fast`),
the superblock trace compiler (:meth:`repro.cpu.core.Cpu.run_compiled` over
:mod:`repro.cpu.compile` plans) and the batched observation path through the
LO-FAT engine are pure performance work.  These tests pin down, across every
attestation scheme and a spread of workloads (including the loop-heavy ones,
where the batched absorb and the range-based loop-exit check actually
diverge in code path), that both accelerated engines produce byte-identical
measurements, metadata, architectural results and verifier verdicts -- and
that runs the compiled engine cannot take delegate cleanly to
:meth:`run_fast`.
"""

import pytest

from repro.attestation import Prover, Verifier
from repro.cpu.core import Cpu, CpuConfig
from repro.schemes import get_scheme, scheme_names
from repro.workloads import get_workload

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

ENGINES = ("legacy", "fast", "compiled")


def _fingerprint(scheme_name, program, inputs, engine):
    """Everything an engine is allowed to influence exactly nothing of."""
    scheme = get_scheme(scheme_name)
    config = CpuConfig(engine=engine, collect_trace=False)
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
        """Fast (batched) and legacy (per-pair) measurements are identical."""
        workload = get_workload(workload_name)
        legacy_result, legacy = _measure(scheme_name, workload, "legacy")
        fast_result, fast = _measure(scheme_name, workload, "fast")

        assert fast.measurement == legacy.measurement
        assert fast.metadata.to_bytes() == legacy.metadata.to_bytes()
        assert fast_result.output == legacy_result.output
        assert fast_result.exit_code == legacy_result.exit_code
        assert fast_result.instructions == legacy_result.instructions
        assert fast_result.cycles == legacy_result.cycles
        assert fast_result.registers == legacy_result.registers

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_fast_engine_with_collected_trace(self, scheme_name):
        """Trace collection does not perturb the batched measurement."""
        workload = get_workload("figure4_loop")
        _, streamed = _measure(scheme_name, workload, "fast", collect=False)
        collected_result, collected = _measure(
            scheme_name, workload, "fast", collect=True)
        assert collected.measurement == streamed.measurement
        assert collected.metadata.to_bytes() == streamed.metadata.to_bytes()
        # The collected trace itself matches a legacy-engine trace.
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
        _, fast = _measure("lofat", workload, "fast")
        for key in ("pairs_hashed", "control_flow_events", "pairs_compressed",
                    "compression_ratio"):
            assert fast.stats[key] == legacy.stats[key], key
        assert fast.stats["loops"] == legacy.stats["loops"]


class TestVerifierEquivalence:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_fast_prover_accepted_by_legacy_verifier(self, scheme_name):
        """Reports measured on the fast path verify against a legacy replay
        (and vice versa): the wire format is pipeline-agnostic."""
        workload = get_workload("syringe_pump")
        program = workload.build()
        for prover_engine, verifier_engine in (("fast", "legacy"),
                                               ("legacy", "fast")):
            prover = Prover(
                {workload.name: program},
                cpu_config=CpuConfig(engine=prover_engine,
                                     collect_trace=False),
            )
            verifier = Verifier(
                cpu_config=CpuConfig(engine=verifier_engine,
                                     collect_trace=False),
            )
            verifier.register_program(workload.name, program)
            verifier.register_device_key(
                "prover-0", prover.keystore.export_for_verifier())
            challenge = verifier.challenge(
                workload.name, list(workload.inputs), scheme=scheme_name)
            report = prover.attest(challenge)
            verdict = verifier.verify(report)
            assert verdict.accepted, (
                scheme_name, prover_engine, verdict.reason)


class TestFastPathFallback:
    def test_plain_monitor_forces_legacy_engine(self):
        """A monitor without observe_batch keeps seeing every instruction."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        seen = []
        cpu = Cpu(program, inputs=list(workload.inputs))
        cpu.attach_monitor(seen.append)
        result = cpu.run()
        assert len(seen) == result.instructions  # every retirement observed

    def test_legacy_engine_matches_default(self):
        workload = get_workload("figure4_loop")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(engine="legacy"))
        legacy = cpu.run()
        default = Cpu(program, inputs=list(workload.inputs)).run()
        assert legacy.cycles == default.cycles
        assert legacy.output == default.output

    def test_raising_batch_monitor_does_not_duplicate_delivery(self):
        """If a monitor raises mid-flush, earlier monitors in the same
        flush must not receive the batch a second time from cleanup."""
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
        cpu = Cpu(workload.build(), inputs=list(workload.inputs),
                  config=CpuConfig(collect_trace=False, monitor_batch_size=4))
        cpu.attach_monitor(good.observe)
        cpu.attach_monitor(bad.observe)
        with pytest.raises(RuntimeError, match="monitor failure"):
            cpu.run()
        indices = [record.index for record in good.records]
        assert indices == sorted(set(indices))  # delivered at most once

    def test_redirecting_pre_hook_preserves_equivalence(self):
        """A hook that redirects control flow (no trace record exists for
        the transfer) must not break fast/legacy measurement identity: the
        fast path detects the redirect and finishes per record."""
        from repro.lofat.engine import LoFatEngine

        workload = get_workload("figure4_loop")
        program = workload.build()

        def make_hook():
            state = {"fired": False}

            def hook(cpu, pc, retired):
                # Skip one instruction mid-loop, once.
                if retired == 30 and not state["fired"]:
                    state["fired"] = True
                    cpu.pc = pc + 4
            return hook

        results = {}
        for engine_name in ("legacy", "fast"):
            cpu = Cpu(program, inputs=list(workload.inputs),
                      config=CpuConfig(engine=engine_name,
                                       collect_trace=False))
            engine = LoFatEngine()
            cpu.attach_monitor(engine.observe)
            cpu.add_pre_instruction_hook(make_hook())
            result = cpu.run()
            measurement = engine.finalize()
            results[engine_name] = (
                measurement.measurement,
                measurement.metadata.to_bytes(),
                result.instructions,
                result.cycles,
                result.output,
            )
        assert results["fast"] == results["legacy"]

    def test_redirect_into_active_loop_region_preserves_equivalence(self):
        """Nastier redirect: execution falls through past a loop's exit node
        (straight-line, so the fast path has no records for it yet) and a
        hook then redirects back into the loop body.  The legacy loop exits
        the loop at the fall-through; the fast path must reconstruct that
        from the unobserved straight-line run before switching to per-record
        observation, or the loop wrongly stays active and the metadata
        diverges."""
        from repro.cpu.trace import BranchKind
        from repro.isa.assembler import assemble
        from repro.lofat.engine import LoFatEngine

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
        reference = Cpu(program, config=CpuConfig(engine="legacy")).run()
        branch_pc = next(r.pc for r in reference.trace
                         if r.kind is BranchKind.CONDITIONAL)
        trigger_pc = branch_pc + 12  # third straight-line addi past the exit

        def make_hook():
            state = {"fired": False}

            def hook(cpu, pc, retired):
                if pc == trigger_pc and not state["fired"]:
                    state["fired"] = True
                    cpu.pc = branch_pc  # back into [entry, exit_node)
            return hook

        results = {}
        for engine_name in ("legacy", "fast"):
            cpu = Cpu(program, config=CpuConfig(engine=engine_name,
                                                collect_trace=False))
            engine = LoFatEngine()
            cpu.attach_monitor(engine.observe)
            cpu.add_pre_instruction_hook(make_hook())
            result = cpu.run()
            measurement = engine.finalize()
            results[engine_name] = (
                measurement.measurement,
                measurement.metadata.to_bytes(),
                result.instructions,
                result.cycles,
            )
        assert results["fast"] == results["legacy"]

    def test_pre_hooks_run_on_fast_engine(self):
        """Attack-style pre-instruction hooks fire on the fused loop too."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        fired = []
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(collect_trace=False))
        cpu.add_pre_instruction_hook(
            lambda c, pc, retired: fired.append((pc, retired)))
        result = cpu.run()
        assert len(fired) == result.instructions
        assert fired[0] == (program.entry, 0)


class TestCompiledEquivalence:
    """legacy == fast == compiled, byte for byte, across program sources.

    The lofat *internal* cycle-model stats (``last_absorb_cycle``) are
    compared fast-vs-compiled only: batched observation's cycle bookkeeping
    is documented to be coarser than the legacy per-pair path (see
    ``LoFatEngine.observe_batch``), and the compiled engine must match the
    fast path it is replacing, not re-litigate that known coarseness.
    """

    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_registry_three_way(self, scheme_name, workload_name):
        workload = get_workload(workload_name)
        program = workload.build()
        prints = {engine: _fingerprint(scheme_name, program,
                                       workload.inputs, engine)
                  for engine in ENGINES}
        assert prints["compiled"] == prints["fast"] == prints["legacy"]

    def test_lang_corpus_three_way(self):
        """Every golden lang-corpus program measures identically."""
        from repro.isa.assembler import assemble
        from repro.lang.corpus import build_corpus

        checked = 0
        for entry in build_corpus():
            program = assemble(entry.assembly)
            prints = {engine: _fingerprint("lofat", program,
                                           entry.inputs, engine)
                      for engine in ENGINES}
            assert (prints["compiled"] == prints["fast"]
                    == prints["legacy"]), entry.name
            checked += 1
        assert checked >= 5

    def test_family_matrix_three_way(self):
        """Every seeded compiled-family member measures identically."""
        from repro.lang.families import family_names, generate_family

        checked = 0
        for family in family_names():
            for workload in generate_family(family, seed=20260808):
                program = workload.build()
                prints = {engine: _fingerprint("lofat", program,
                                               workload.inputs, engine)
                          for engine in ENGINES}
                assert (prints["compiled"] == prints["fast"]
                        == prints["legacy"]), workload.name
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    def test_lofat_stats_identical_fast_vs_compiled(self, workload_name):
        """The compiled engine matches run_fast on *every* stat, including
        the cycle-model bookkeeping excluded from the legacy comparison."""
        workload = get_workload(workload_name)
        program = workload.build()
        scheme = get_scheme("lofat")
        stats = {}
        for engine in ("fast", "compiled"):
            _, measured = scheme.measure_execution(
                program, list(workload.inputs),
                cpu_config=CpuConfig(engine=engine, collect_trace=False))
            stats[engine] = measured.stats
        assert stats["compiled"] == stats["fast"]

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
                cpu_config=CpuConfig(engine=prover_engine,
                                     collect_trace=False),
            )
            verifier = Verifier(
                cpu_config=CpuConfig(engine=verifier_engine,
                                     collect_trace=False),
            )
            verifier.register_program(workload.name, program)
            verifier.register_device_key(
                "prover-0", prover.keystore.export_for_verifier())
            challenge = verifier.challenge(
                workload.name, list(workload.inputs), scheme=scheme_name)
            report = prover.attest(challenge)
            verdict = verifier.verify(report)
            assert verdict.accepted, (
                scheme_name, prover_engine, verdict.reason)


class TestCompiledFallback:
    """Run shapes the compiled engine cannot take delegate to run_fast."""

    def test_eligible_workload_actually_compiles(self):
        workload = get_workload("figure4_loop")
        cpu = Cpu(workload.build(), inputs=list(workload.inputs),
                  config=CpuConfig(engine="compiled", collect_trace=False))
        cpu.run()
        assert cpu.engine_used == "compiled"

    @pytest.mark.parametrize("workload_name", ["dispatcher", "state_machine"])
    def test_unresolved_indirect_runs_compiled(self, workload_name):
        """An input-dependent jalr no longer declines the program: the
        trampoline resolves each runtime target, and the run stays
        byte-identical to the legacy oracle under every scheme."""
        workload = get_workload(workload_name)
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(engine="compiled", collect_trace=False))
        cpu.run()
        assert cpu.engine_used == "compiled"
        for scheme_name in SCHEMES:
            assert (_fingerprint(scheme_name, program, workload.inputs,
                                 "compiled")
                    == _fingerprint(scheme_name, program, workload.inputs,
                                    "legacy")), scheme_name

    def test_pre_hook_forces_per_record_engine(self):
        """Attack-style hooks must observe every instruction: a pre-hook
        keeps the compiled engine off even when explicitly requested."""
        workload = get_workload("figure4_loop")
        cpu = Cpu(workload.build(), inputs=list(workload.inputs),
                  config=CpuConfig(engine="compiled", collect_trace=False))
        cpu.add_pre_instruction_hook(lambda c, pc, retired: None)
        cpu.run()
        assert cpu.engine_used == "fast"

    def test_collect_trace_forces_per_record_engine(self):
        """Trace collection needs per-record delivery, so the compiled
        engine declines and the collected trace stays legacy-identical."""
        workload = get_workload("figure4_loop")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(engine="compiled", collect_trace=True))
        result = cpu.run()
        assert cpu.engine_used == "fast"
        legacy = Cpu(program, inputs=list(workload.inputs),
                     config=CpuConfig(engine="legacy",
                                      collect_trace=True)).run()
        assert len(result.trace) == len(legacy.trace)
        for lhs, rhs in zip(result.trace, legacy.trace):
            assert (lhs.pc, lhs.next_pc, lhs.cycle, lhs.kind, lhs.taken) == \
                   (rhs.pc, rhs.next_pc, rhs.cycle, rhs.kind, rhs.taken)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            CpuConfig(engine="turbo")

    def test_engine_default_resolution(self):
        assert CpuConfig().engine == "compiled"
        assert CpuConfig(engine="legacy").engine == "legacy"
        assert CpuConfig(engine="fast").engine == "fast"


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
    from repro.isa.assembler import assemble

    program = assemble(TRAMPOLINE_SOURCE)
    cpu = Cpu(program, inputs=list(inputs),
              config=CpuConfig(engine=engine, collect_trace=False,
                               max_instructions=max_instructions))
    session = get_scheme(scheme_name).open_session(program)
    cpu.attach_monitor(session.observe)
    try:
        result = cpu.run()
    except Exception as error:  # compared against the oracle's exception
        return cpu.engine_used, (type(error), str(error))
    measured = session.finalize()
    return cpu.engine_used, (
        result.registers, result.cycles, result.output,
        result.trace.summary(), measured.measurement,
        measured.metadata.to_bytes())


class TestTrampolineIndirectTargets:
    """The compiled trampoline against the legacy oracle on unresolved
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
        """A target that is not an instruction delegates to run_fast, which
        raises the legacy loop's fetch fault, type and message alike."""
        inputs = [LEADER, offset, -1]
        _, compiled = _probe_run(scheme_name, inputs, "compiled")
        _, legacy = _probe_run(scheme_name, inputs, "legacy")
        assert isinstance(legacy[0], type) and issubclass(
            legacy[0], Exception)
        assert compiled == legacy

    def test_fuel_tail_raises_like_oracle(self):
        """A block that could cross the fuel limit finishes on run_fast,
        which stops at the exact instruction the legacy loop stops at."""
        inputs = [LEADER, AFTER_INTERNAL_JAL, MID_BLOCK] * 4 + [-1]
        _, compiled = _probe_run("lofat", inputs, "compiled",
                                 max_instructions=50)
        _, legacy = _probe_run("lofat", inputs, "legacy",
                               max_instructions=50)
        assert compiled[0].__name__ == "OutOfFuelError"
        assert compiled == legacy
