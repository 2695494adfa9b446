"""Tests for the workload suite: functional correctness and structure."""

import pytest

from repro.cpu.core import Cpu, run_program
from repro.cpu.trace import ControlFlowTrace
from repro.workloads import all_workloads, get_workload, WORKLOAD_REGISTRY
from repro.workloads.crc import reference_crc
from repro.workloads.generator import SyntheticWorkloadGenerator, density_sweep
from repro.workloads.matrix import reference_output as matmul_reference
from repro.workloads.recursion import reference_fib
from repro.workloads.search import TABLE
from repro.workloads.sorting import reference_output as sort_reference
from repro.workloads.syringe_pump import reference_output as pump_reference

ALL_NAMES = sorted(WORKLOAD_REGISTRY)


class TestRegistry:
    def test_expected_workloads_present(self):
        expected = {
            "syringe_pump", "bubble_sort", "crc32", "matmul", "binary_search",
            "fir_filter", "fibonacci", "dispatcher", "auth_check", "string_ops",
            "vulnerable_process", "figure4_loop",
        }
        assert expected <= set(ALL_NAMES)

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("not-a-workload")

    def test_all_workloads_instantiates_everything(self):
        workloads = all_workloads()
        assert len(workloads) == len(ALL_NAMES)
        assert [w.name for w in workloads] == ALL_NAMES

    def test_with_inputs_copy(self):
        workload = get_workload("figure4_loop")
        other = workload.with_inputs([9])
        assert other.inputs == [9]
        assert workload.inputs != [9] or workload.inputs == [9]
        assert other.source == workload.source


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_workload_produces_expected_output(self, name):
        workload = get_workload(name)
        result = run_program(workload.build(), inputs=list(workload.inputs))
        assert result.exit_code == 0
        if workload.expected_output is not None:
            assert result.output == workload.expected_output

    def test_bubble_sort_various_inputs(self):
        workload = get_workload("bubble_sort")
        for values in ([3, 1, 2], [5, 5, 5], [9, 8, 7, 6, 5, 4]):
            inputs = [len(values)] + values
            result = run_program(workload.build(), inputs=inputs)
            assert result.output == sort_reference(inputs)

    def test_syringe_pump_command_sequences(self):
        workload = get_workload("syringe_pump")
        for inputs in ([1, 3, 0], [2, 4, 0], [1, 2, 2, 1, 1, 6, 0], [5, 0]):
            result = run_program(workload.build(), inputs=inputs)
            assert result.output == pump_reference(inputs)

    def test_crc32_reference_model(self):
        workload = get_workload("crc32")
        inputs = [2, 0x01020304, 0xAABBCCDD]
        result = run_program(workload.build(), inputs=inputs)
        expected = reference_crc(inputs[1:])
        signed = expected - 0x100000000 if expected >= 0x80000000 else expected
        assert result.output == str(signed)

    def test_fibonacci_values(self):
        workload = get_workload("fibonacci")
        for n in (0, 1, 2, 7, 12):
            result = run_program(workload.build(), inputs=[n])
            assert result.output == str(reference_fib(n))

    def test_binary_search_miss_and_hit(self):
        workload = get_workload("binary_search")
        inputs = [3, TABLE[0], TABLE[-1], 1000]
        result = run_program(workload.build(), inputs=inputs)
        assert result.output == "0 %d -1 " % (len(TABLE) - 1)

    def test_matmul_matches_reference(self):
        workload = get_workload("matmul")
        result = run_program(workload.build())
        assert result.output == matmul_reference()

    def test_dispatcher_ignores_invalid_commands(self):
        workload = get_workload("dispatcher")
        result = run_program(workload.build(), inputs=[9, 7, 1, 0])
        assert result.output == "10"

    def test_auth_check_accepts_correct_password(self):
        workload = get_workload("auth_check")
        result = run_program(workload.build(), inputs=[4242])
        assert result.output == "777"

    def test_workloads_have_descriptions_and_tags(self):
        for workload in all_workloads():
            assert workload.description
            assert workload.tags


class TestSyntheticGenerator:
    def test_generated_program_matches_reference(self):
        generator = SyntheticWorkloadGenerator(branches_per_iteration=6,
                                               filler_per_branch=1, iterations=15)
        workload = generator.workload()
        result = run_program(workload.build())
        assert result.output == workload.expected_output

    def test_nested_variant(self):
        generator = SyntheticWorkloadGenerator(iterations=5, nested=True)
        workload = generator.workload()
        result = run_program(workload.build())
        assert result.output == workload.expected_output

    def test_seed_changes_behaviour(self):
        a = SyntheticWorkloadGenerator(seed=1, iterations=10).workload()
        b = SyntheticWorkloadGenerator(seed=2, iterations=10).workload()
        assert a.expected_output != b.expected_output

    def test_branch_density_scales_with_filler(self):
        dense_wl = SyntheticWorkloadGenerator(filler_per_branch=0, iterations=10).workload()
        sparse_wl = SyntheticWorkloadGenerator(filler_per_branch=8, iterations=10).workload()
        def density(workload):
            cpu = Cpu(workload.build())
            capture = ControlFlowTrace()
            cpu.attach_monitor(capture.observe)
            result = cpu.run()
            return capture.control_flow_events / result.instructions

        assert density(dense_wl) > density(sparse_wl)

    def test_density_sweep_helper(self):
        workloads = density_sweep([0, 4], iterations=5)
        assert len(workloads) == 2
        assert workloads[0].name != workloads[1].name
        for workload in workloads:
            result = run_program(workload.build())
            assert result.output == workload.expected_output

    def test_generator_name_encodes_parameters(self):
        generator = SyntheticWorkloadGenerator(branches_per_iteration=3,
                                               filler_per_branch=2, iterations=7,
                                               nested=True)
        assert generator.name == "synthetic_b3_f2_i7_nested"
