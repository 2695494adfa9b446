"""Unit tests for the C-FLAT and static-attestation baseline models.

The model classes live in :mod:`repro.schemes`; the historical
``repro.baselines`` package (a deprecation shim after the models moved) has
been removed, and :class:`TestBaselinesShimRemoved` pins its absence.
"""

import pytest

from repro.schemes.cflat import CFlatAttestation, CFlatCostModel
from repro.schemes.static import StaticAttestation
from repro.cpu.core import Cpu, CpuConfig
from repro.isa.assembler import assemble
from repro.workloads import get_workload


class TestBaselinesShimRemoved:
    def test_shim_package_is_gone(self):
        with pytest.raises(ImportError):
            import repro.baselines  # noqa: F401


class TestCFlatCostModel:
    def test_per_event_cycles(self):
        model = CFlatCostModel(trampoline_cycles=10, world_switch_cycles=20,
                               hash_update_cycles=30)
        assert model.per_event_cycles == 60
        assert model.overhead_cycles(5) == 300

    def test_loop_discount(self):
        model = CFlatCostModel(trampoline_cycles=10, world_switch_cycles=0,
                               hash_update_cycles=90, loop_event_discount=1.0)
        # All 10 events are loop events whose hash update is skipped.
        assert model.overhead_cycles(10, loop_events=10) == 10 * 10

    def test_loop_events_clamped(self):
        model = CFlatCostModel(loop_event_discount=0.5)
        assert model.overhead_cycles(4, loop_events=100) <= model.overhead_cycles(4)


class TestCFlatAttestation:
    def test_overhead_linear_in_events(self):
        """The paper's comparison point: C-FLAT cost grows with event count."""
        cflat = CFlatAttestation()
        few = get_workload("figure4_loop").with_inputs([2])
        many = get_workload("figure4_loop").with_inputs([40])
        _, result_few = cflat.attest_program(few.build(), inputs=few.inputs)
        _, result_many = cflat.attest_program(many.build(), inputs=many.inputs)
        assert result_many.control_flow_events > result_few.control_flow_events
        assert result_many.overhead_cycles > result_few.overhead_cycles
        per_event_few = result_few.overhead_cycles / result_few.control_flow_events
        per_event_many = result_many.overhead_cycles / result_many.control_flow_events
        assert per_event_few == pytest.approx(per_event_many)

    def test_overhead_is_positive_and_nonzero(self):
        workload = get_workload("crc32")
        cflat = CFlatAttestation()
        _, outcome = cflat.attest_program(workload.build(), inputs=workload.inputs)
        assert outcome.overhead_cycles > 0
        assert outcome.overhead_ratio > 0.0

    def test_measurement_matches_trace_pairs(self):
        workload = get_workload("auth_check")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(collect_trace=True))
        result = cpu.run()
        cflat = CFlatAttestation()
        outcome = cflat.attest(program, result)
        assert outcome.measurement == cflat.measure_trace(result.trace)
        assert len(outcome.measurement) == 64

    def test_measurement_detects_divergent_paths(self):
        workload = get_workload("auth_check")
        program = workload.build()
        cflat = CFlatAttestation()
        traced = CpuConfig(collect_trace=True)
        good = Cpu(program, inputs=[4242], config=traced).run()
        bad = Cpu(program, inputs=[1], config=traced).run()
        assert cflat.measure_trace(good.trace) != cflat.measure_trace(bad.trace)

    def test_instrumented_instruction_count(self):
        program = assemble("""
        _start:
            beq a0, a1, out
            addi a0, a0, 1
        out:
            jal zero, out
        """)
        assert CFlatAttestation().instrumented_instruction_count(program) == 2

    def test_zero_baseline_cycles_overhead_ratio(self):
        from repro.schemes.cflat import CFlatResult
        result = CFlatResult(baseline_cycles=0, attested_cycles=0,
                             control_flow_events=0, measurement=b"",
                             instrumented_instructions=0)
        assert result.overhead_ratio == 0.0


class TestStaticAttestation:
    def test_measurement_is_stable(self):
        program = get_workload("syringe_pump").build()
        static = StaticAttestation()
        assert static.measure(program).digest == static.measure(program).digest

    def test_measurement_changes_with_binary(self):
        static = StaticAttestation()
        a = static.measure(assemble("nop"))
        b = static.measure(assemble("addi a0, a0, 1"))
        assert a.digest != b.digest

    def test_verify_accepts_genuine_image(self):
        program = get_workload("auth_check").build()
        static = StaticAttestation()
        assert static.verify(program, static.measure(program))

    def test_verify_rejects_other_image(self):
        static = StaticAttestation()
        a = get_workload("auth_check").build()
        b = get_workload("dispatcher").build()
        assert not static.verify(b, static.measure(a))

    def test_static_attestation_misses_runtime_attacks(self):
        """The motivating gap: run-time attacks leave the image unchanged."""
        workload = get_workload("auth_check")
        program = workload.build()
        static = StaticAttestation()
        benign = Cpu(program, inputs=[4242]).run()
        attacked = Cpu(program, inputs=[1]).run()
        assert static.detects_runtime_attack(benign, attacked, program) is False

    def test_measurement_includes_data_section(self):
        static = StaticAttestation()
        a = static.measure(assemble(".data\n.word 1\n.text\nnop"))
        b = static.measure(assemble(".data\n.word 2\n.text\nnop"))
        assert a.digest != b.digest
        assert a.data_bytes == 4
