"""Integration-level tests of the full LO-FAT engine."""

import pytest

from repro.attestation import Prover, Verifier
from repro.cpu.core import Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.isa.assembler import assemble
from repro.lofat.engine import LoFatEngine
from repro.lofat.metadata import LoopMetadata
from repro.schemes import get_scheme
from repro.workloads import get_workload


def attest(workload_name, inputs=None, config=None, hooks=()):
    workload = get_workload(workload_name)
    return get_scheme("lofat").measure_execution(
        workload.build(),
        workload.inputs if inputs is None else inputs,
        config=config,
        hooks=hooks,
    )


class TestFigure4:
    """Experiment E4 at unit-test granularity."""

    def test_loop_paths_match_paper_encodings(self):
        result, measurement = attest("figure4_loop")
        assert len(measurement.metadata) == 1
        loop = measurement.metadata.loops[0]
        encodings = {path.encoding.bits for path in loop.paths}
        # The two valid loop paths of Figure 4 plus the loop-exit path.
        assert "011" in encodings
        assert "0011" in encodings

    def test_iteration_counts_split_between_paths(self):
        result, measurement = attest("figure4_loop", inputs=[6])
        loop = measurement.metadata.loops[0]
        counts = {path.encoding.bits: path.iterations for path in loop.paths}
        # 6 iterations alternate between the two paths; the first iteration is
        # untracked (loop discovery) and the final failing check is the exit path.
        assert counts["011"] + counts["0011"] == 5
        assert loop.iterations == 6

    def test_more_iterations_do_not_add_hash_work(self):
        _, few = attest("figure4_loop", inputs=[4])
        _, many = attest("figure4_loop", inputs=[40])
        assert many.stats["pairs_hashed"] == few.stats["pairs_hashed"]
        assert many.stats["pairs_compressed"] > few.stats["pairs_compressed"]


class TestMeasurementProperties:
    def test_deterministic_measurement(self):
        _, first = attest("bubble_sort")
        _, second = attest("bubble_sort")
        assert first.measurement == second.measurement
        assert first.metadata.to_bytes() == second.metadata.to_bytes()

    def test_different_inputs_change_measurement(self):
        _, a = attest("figure4_loop", inputs=[3])
        _, b = attest("figure4_loop", inputs=[4])
        assert (a.measurement != b.measurement
                or a.metadata.to_bytes() != b.metadata.to_bytes())

    def test_same_path_different_iteration_count_differs_via_metadata(self):
        """crc32 of different data with identical CFG paths still yields a
        different (A, L): the loop iteration counts and path mix differ."""
        _, a = attest("crc32", inputs=[1, 0])
        _, b = attest("crc32", inputs=[1, 0xFFFFFFFF])
        assert (a.measurement, a.metadata.to_bytes()) != (b.measurement, b.metadata.to_bytes())

    def test_report_payload_concatenates_a_and_l(self):
        _, measurement = attest("figure4_loop")
        assert measurement.report_payload == (
            measurement.measurement + measurement.metadata.to_bytes()
        )

    def test_measurement_hex(self):
        _, measurement = attest("auth_check")
        assert len(measurement.measurement_hex) == 128


class TestEngineInvariants:
    @pytest.mark.parametrize("workload_name", [
        "figure4_loop", "bubble_sort", "crc32", "syringe_pump", "dispatcher",
        "fibonacci", "matmul", "binary_search", "string_ops", "fir_filter",
    ])
    def test_every_event_hashed_or_compressed(self, workload_name):
        capture = ControlFlowTrace()
        _, measurement = attest(
            workload_name,
            hooks=[lambda cpu: cpu.attach_monitor(capture.observe)])
        stats = measurement.stats
        assert (stats["pairs_hashed"] + stats["pairs_compressed"]
                == stats["control_flow_events"])
        assert stats["control_flow_events"] == capture.control_flow_events

    @pytest.mark.parametrize("workload_name", [
        "figure4_loop", "bubble_sort", "crc32", "syringe_pump", "dispatcher",
    ])
    def test_metadata_iteration_counts_consistent(self, workload_name):
        _, measurement = attest(workload_name)
        for loop in measurement.metadata:
            assert sum(path.iterations for path in loop.paths) == loop.iterations

    @pytest.mark.parametrize("workload_name", [
        "figure4_loop", "bubble_sort", "crc32", "syringe_pump", "dispatcher",
        "matmul", "fir_filter",
    ])
    def test_no_dropped_pairs_with_default_buffer(self, workload_name):
        _, measurement = attest(workload_name)
        assert measurement.stats["hash_engine"]["dropped_pairs"] == 0

    def test_compression_reduces_hash_work_on_loopy_code(self):
        _, measurement = attest("crc32")
        stats = measurement.stats
        assert stats["pairs_hashed"] < stats["control_flow_events"] / 2

    def test_zero_processor_overhead(self):
        workload = get_workload("matmul")
        program = workload.build()
        plain = Cpu(program, inputs=list(workload.inputs)).run()
        cpu = Cpu(program, inputs=list(workload.inputs))
        engine = LoFatEngine()
        cpu.attach_monitor(engine.observe)
        attested = cpu.run()
        assert attested.cycles == plain.cycles
        assert attested.output == plain.output


class TestEngineLifecycle:
    def test_finalize_idempotent(self):
        workload = get_workload("auth_check")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs))
        engine = LoFatEngine()
        cpu.attach_monitor(engine.observe)
        cpu.run()
        first = engine.finalize()
        second = engine.finalize()
        assert first is second

    def test_observe_after_finalize_rejected(self):
        workload = get_workload("auth_check")
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(collect_trace=True))
        engine = LoFatEngine()
        cpu.attach_monitor(engine.observe)
        result = cpu.run()
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.observe(result.trace[0])

    def test_statistics_structure(self):
        _, measurement = attest("figure4_loop")
        stats = measurement.stats
        for key in ("control_flow_events", "pairs_hashed", "pairs_compressed",
                    "compression_ratio", "internal_latency_cycles",
                    "processor_stall_cycles", "filter", "loops", "hash_engine"):
            assert key in stats


#: Four nested loops; the outer three iterate twice and the innermost calls a
#: function 300 times (30 iterations of 10 calls, so no path counter
#: saturates).  With the default nesting depth of 3 the innermost loop is
#: folded into the depth-3 path, so one path carries 300 returns.
DEEP_NEST_MANY_RETURNS = """
_start:
    li s0, 0
l1:
    li s1, 0
l2:
    li s2, 0
l3:
    li s3, 0
l4:
""" + "    call helper\n" * 10 + """
    addi s3, s3, 1
    li t0, 30
    blt s3, t0, l4
    addi s2, s2, 1
    li t0, 2
    blt s2, t0, l3
    addi s1, s1, 1
    li t0, 2
    blt s1, t0, l2
    addi s0, s0, 1
    li t0, 2
    blt s0, t0, l1
    li a7, 93
    ecall
helper:
    addi a0, a0, 1
    ret
"""


class TestLongIndirectPaths:
    """A path with more indirect transfers than L's one-byte code count."""

    def test_metadata_serialises_and_report_verifies(self):
        program = assemble(DEEP_NEST_MANY_RETURNS)
        _, measurement = get_scheme("lofat").measure_execution(program, [])
        assert measurement.stats["filter"]["loops_beyond_max_depth"] > 0
        longest = max((path.encoding for loop in measurement.metadata for path in loop.paths),
                      key=lambda encoding: len(encoding.indirect_codes))
        assert len(longest.indirect_codes) == 255
        assert longest.truncated
        blob = measurement.metadata.to_bytes()
        assert LoopMetadata.from_bytes(blob).to_bytes() == blob

        prover = Prover({"deep_nest": program}, device_id="device-1")
        verifier = Verifier()
        verifier.register_program("deep_nest", program)
        verifier.register_device_key("device-1", prover.keystore.export_for_verifier())
        report = prover.attest(verifier.challenge("deep_nest", []))
        assert verifier.verify(report, device_id="device-1").accepted
