"""Unit tests for the C-FLAT and static-attestation baselines.

Both baselines are :class:`repro.schemes.AttestationScheme` backends and are
measured here through the one run-and-measure sequence,
:meth:`~repro.schemes.AttestationScheme.measure_execution`.  The historical
``repro.baselines`` package (a deprecation shim after the models moved) has
been removed, and :class:`TestBaselinesShimRemoved` pins its absence.
"""

import pytest

from repro.attacks import get_attack
from repro.cpu.core import CpuConfig
from repro.isa.assembler import assemble
from repro.schemes import SchemeCost, get_scheme
from repro.schemes.cflat import CFlatCostModel, measure_trace
from repro.workloads import get_workload


def measure(scheme, workload_name, inputs=None, **kwargs):
    workload = get_workload(workload_name)
    program = workload.build()
    return get_scheme(scheme).measure_execution(
        program, workload.inputs if inputs is None else inputs, **kwargs)


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


class TestCFlatScheme:
    def test_overhead_linear_in_events(self):
        """The paper's comparison point: C-FLAT cost grows with event count."""
        _, few = measure("cflat", "figure4_loop", inputs=[2])
        _, many = measure("cflat", "figure4_loop", inputs=[40])
        few, many = few.stats, many.stats
        assert many["control_flow_events"] > few["control_flow_events"]
        assert many["overhead_cycles"] > few["overhead_cycles"]
        per_event_few = few["overhead_cycles"] / few["control_flow_events"]
        per_event_many = many["overhead_cycles"] / many["control_flow_events"]
        assert per_event_few == pytest.approx(per_event_many)
        assert per_event_few == CFlatCostModel().per_event_cycles

    def test_overhead_is_positive_and_nonzero(self):
        result, measured = measure("cflat", "crc32")
        assert measured.stats["overhead_cycles"] > 0
        assert measured.stats["attested_cycles"] == \
            result.cycles + measured.stats["overhead_cycles"]
        assert get_scheme("cflat").cost_model(result.trace).overhead_ratio > 0.0

    def test_measurement_matches_trace_pairs(self):
        result, measured = measure("cflat", "auth_check",
                                   cpu_config=CpuConfig(collect_trace=True))
        assert measured.measurement == measure_trace(result.trace)
        assert len(measured.measurement) == 64

    def test_measurement_detects_divergent_paths(self):
        _, good = measure("cflat", "auth_check", inputs=[4242])
        _, bad = measure("cflat", "auth_check", inputs=[1])
        assert good.measurement != bad.measurement

    def test_attack_changes_measurement(self):
        scenario = get_attack("auth_flag_flip")
        program = get_workload(scenario.workload_name).build()
        cflat = get_scheme("cflat")
        benign_result, benign = cflat.measure_execution(
            program, scenario.challenge_inputs)
        attacked_result, attacked = cflat.measure_execution(
            program, scenario.challenge_inputs,
            hooks=[scenario.prover_hook(program)])
        assert attacked_result.output != benign_result.output
        assert attacked.measurement != benign.measurement

    def test_zero_baseline_cycles_overhead_ratio(self):
        cost = SchemeCost(scheme="cflat", baseline_cycles=0, attested_cycles=0)
        assert cost.overhead_ratio == 0.0


def image_hash(program):
    return get_scheme("static").open_session(program).finalize()


class TestStaticScheme:
    def test_measurement_is_stable(self):
        program = get_workload("syringe_pump").build()
        assert image_hash(program).measurement == image_hash(program).measurement

    def test_measurement_changes_with_binary(self):
        a = image_hash(assemble("nop"))
        b = image_hash(assemble("addi a0, a0, 1"))
        assert a.measurement != b.measurement

    def test_verify_accepts_genuine_image(self):
        program = get_workload("auth_check").build()
        static = get_scheme("static")
        _, measured = static.measure_execution(program, [4242])
        reference = static.reference_measurement(program, [4242])
        assert static.verify(
            measured, (reference.measurement, reference.metadata_bytes))

    def test_verify_rejects_other_image(self):
        static = get_scheme("static")
        a = image_hash(get_workload("auth_check").build())
        b = image_hash(get_workload("dispatcher").build())
        assert not static.verify(b, (a.measurement, a.metadata_bytes))

    def test_static_attestation_misses_runtime_attacks(self):
        """The motivating gap: run-time attacks leave the image unchanged."""
        scenario = get_attack("auth_flag_flip")
        program = get_workload(scenario.workload_name).build()
        static = get_scheme("static")
        benign_result, benign = static.measure_execution(
            program, scenario.challenge_inputs)
        attacked_result, attacked = static.measure_execution(
            program, scenario.challenge_inputs,
            hooks=[scenario.prover_hook(program)])
        assert attacked_result.output != benign_result.output
        assert attacked.measurement == benign.measurement

    def test_measurement_includes_data_section(self):
        a = image_hash(assemble(".data\n.word 1\n.text\nnop"))
        b = image_hash(assemble(".data\n.word 2\n.text\nnop"))
        assert a.measurement != b.measurement
        assert a.stats["data_bytes"] == 4
