"""Tests for the attack injectors and their end-to-end detection.

These are the test-suite version of experiment E5: every attack scenario must
(1) actually change the program's behaviour, (2) leave the program binary
untouched (so static attestation misses it), and (3) be detected by LO-FAT's
attestation protocol.
"""

import pytest

from repro.attacks import all_attacks, get_attack
from repro.attacks.injector import MemoryCorruption
from repro.attestation import Prover, Verifier
from repro.schemes import get_scheme
from repro.cpu.core import Cpu
from repro.isa.assembler import assemble
from repro.workloads import get_workload

ALL_SCENARIOS = [scenario.name for scenario in all_attacks()]


class TestMemoryCorruption:
    def test_fires_at_trigger_pc(self):
        program = assemble("""
            .data
        var: .word 5
            .text
        _start:
            la t0, var
            lw a0, 0(t0)
            li a7, 1
            ecall
            li a7, 93
            ecall
        """)
        corruption = MemoryCorruption(
            trigger_pc=program.symbol("_start") + 8,
            address=program.symbol("var"),
            value=42,
        )
        cpu = Cpu(program)
        corruption.install(cpu)
        assert cpu.run().output == "42"
        assert corruption.fired == 1

    def test_occurrence_selection(self):
        program = assemble("""
            .data
        var: .word 0
            .text
        _start:
            li s0, 0
        loop:
            la t0, var
            lw t1, 0(t0)
            add s0, s0, t1
            addi s1, s1, 1
            li t2, 3
            blt s1, t2, loop
            mv a0, s0
            li a7, 1
            ecall
            li a7, 93
            ecall
        """)
        corruption = MemoryCorruption(
            trigger_pc=program.symbol("loop"),
            address=program.symbol("var"),
            value=10,
            occurrence=2,
        )
        cpu = Cpu(program)
        corruption.install(cpu)
        # Iterations read 0, 10, 10 -> 20.
        assert cpu.run().output == "20"

    def test_repeat_mode(self):
        program = assemble("""
            .data
        var: .word 1
            .text
        _start:
            li s0, 0
            li s1, 0
        loop:
            la t0, var
            lw t1, 0(t0)
            sw zero, 0(t0)
            add s0, s0, t1
            addi s1, s1, 1
            li t2, 3
            blt s1, t2, loop
            mv a0, s0
            li a7, 1
            ecall
            li a7, 93
            ecall
        """)
        corruption = MemoryCorruption(
            trigger_pc=program.symbol("loop"),
            address=program.symbol("var"),
            value=5,
            repeat=True,
        )
        cpu = Cpu(program)
        corruption.install(cpu)
        # Every iteration sees 5 despite the program zeroing the variable.
        assert cpu.run().output == "15"
        assert corruption.fired == 3

    def test_callable_address_and_value(self):
        program = assemble("""
            .data
        var: .word 7
            .text
        _start:
            la t0, var
            lw a0, 0(t0)
            li a7, 1
            ecall
            li a7, 93
            ecall
        """)
        corruption = MemoryCorruption(
            trigger_pc=program.symbol("_start") + 8,
            address=lambda cpu: program.symbol("var"),
            value=lambda cpu: cpu.registers["t0"],  # write the pointer value
        )
        cpu = Cpu(program)
        corruption.install(cpu)
        assert cpu.run().output == str(program.symbol("var"))


class TestRegistry:
    def test_all_three_attack_classes_covered(self):
        classes = {scenario.attack_class for scenario in all_attacks()}
        assert classes == {1, 2, 3}

    def test_get_attack_unknown(self):
        with pytest.raises(KeyError):
            get_attack("nonexistent")

    def test_scenarios_reference_registered_workloads(self):
        for scenario in all_attacks():
            assert get_workload(scenario.workload_name) is not None


class TestAttackEffects:
    @pytest.mark.parametrize("scenario_name", ALL_SCENARIOS)
    def test_attack_changes_observable_behaviour(self, scenario_name):
        scenario = get_attack(scenario_name)
        workload = get_workload(scenario.workload_name)
        program = workload.build()

        benign = Cpu(program, inputs=list(scenario.challenge_inputs)).run()
        attacked_cpu = Cpu(program, inputs=list(scenario.challenge_inputs))
        corruptions = scenario.install_on(attacked_cpu, program)
        attacked = attacked_cpu.run()

        assert any(corruption.fired for corruption in corruptions), (
            "the corruption never triggered")
        if scenario.changes_output:
            assert attacked.output != benign.output

    @pytest.mark.parametrize("scenario_name", ALL_SCENARIOS)
    def test_attack_does_not_modify_code(self, scenario_name):
        scenario = get_attack(scenario_name)
        workload = get_workload(scenario.workload_name)
        program = workload.build()
        static = get_scheme("static")
        cpus = []
        _, attacked = static.measure_execution(
            program, scenario.challenge_inputs,
            hooks=[cpus.append, scenario.prover_hook(program)])

        code_bytes = cpus[0].memory.load_bytes(
            program.code_base, len(program.code), check=False)
        assert code_bytes == program.code
        assert attacked.measurement == static.reference_measurement(
            program, scenario.challenge_inputs).measurement


class TestEndToEndDetection:
    @pytest.mark.parametrize("scenario_name", ALL_SCENARIOS)
    def test_lofat_detects_attack(self, scenario_name):
        scenario = get_attack(scenario_name)
        workload = get_workload(scenario.workload_name)
        program = workload.build()

        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

        benign_challenge = verifier.challenge(workload.name, scenario.challenge_inputs)
        assert verifier.verify(prover.attest(benign_challenge)).accepted

        prover.install_attack(scenario.prover_hook(program))
        attack_challenge = verifier.challenge(workload.name, scenario.challenge_inputs)
        attacked_report = prover.attest(attack_challenge)
        verdict = verifier.verify(attacked_report)
        assert not verdict.accepted, (
            "attack %s was not detected (%s)" % (scenario_name, verdict.reason))

    def test_loop_counter_attack_visible_in_metadata(self):
        """The syringe overdose shows up as extra iterations in L."""
        scenario = get_attack("syringe_overdose")
        workload = get_workload(scenario.workload_name)
        program = workload.build()

        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

        benign = prover.attest(verifier.challenge(workload.name, scenario.challenge_inputs))
        prover.install_attack(scenario.prover_hook(program))
        attacked = prover.attest(verifier.challenge(workload.name, scenario.challenge_inputs))

        entry = program.symbol("dispense_loop")
        benign_iters = sum(r.iterations for r in benign.metadata.loops_at_entry(entry))
        attacked_iters = sum(r.iterations for r in attacked.metadata.loops_at_entry(entry))
        assert attacked_iters > benign_iters

    def test_clear_attacks_restores_benign_behaviour(self):
        scenario = get_attack("auth_flag_flip")
        workload = get_workload(scenario.workload_name)
        program = workload.build()
        prover = Prover({workload.name: program})
        verifier = Verifier()
        verifier.register_program(workload.name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())

        prover.install_attack(scenario.prover_hook(program))
        assert not verifier.verify(
            prover.attest(verifier.challenge(workload.name, scenario.challenge_inputs))
        ).accepted

        prover.clear_attacks()
        assert verifier.verify(
            prover.attest(verifier.challenge(workload.name, scenario.challenge_inputs))
        ).accepted
