"""Cross-module integration tests: the whole pipeline on every workload."""

import pytest

from repro import attest_workload
from repro.attestation import Prover, Verifier
from repro.cfg.builder import build_cfg
from repro.cfg.loops import find_natural_loops
from repro.cfg.paths import PathChecker
from repro.cpu.core import Cpu, CpuConfig
from repro.lofat.engine import LoFatEngine
from repro.workloads import all_workloads, get_workload

ALL_NAMES = [workload.name for workload in all_workloads()]


class TestFullProtocolAcrossWorkloads:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_benign_attestation_accepted(self, name):
        workload = get_workload(name)
        program = workload.build()
        prover = Prover({name: program})
        verifier = Verifier()
        verifier.register_program(name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
        challenge = verifier.challenge(name, workload.inputs)
        report = prover.attest(challenge)
        assert verifier.verify(report).accepted

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_prover_measurement_matches_direct_engine_run(self, name):
        """The prover's report equals a stand-alone attested execution."""
        workload = get_workload(name)
        program = workload.build()
        _, direct = attest_workload(name)
        prover = Prover({name: program})
        verifier = Verifier()
        verifier.register_program(name, program)
        verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
        report = prover.attest(verifier.challenge(name, workload.inputs))
        assert report.measurement == direct.measurement
        assert report.metadata.to_bytes() == direct.metadata.to_bytes()


class TestRuntimeLoopsVsStaticAnalysis:
    @pytest.mark.parametrize("name", [
        "figure4_loop", "bubble_sort", "crc32", "binary_search", "matmul",
        "fir_filter", "string_ops",
    ])
    def test_runtime_loop_entries_are_static_loop_headers(self, name):
        """Every loop the hardware heuristic reports corresponds to a natural
        loop header found by the verifier's offline analysis."""
        workload = get_workload(name)
        program = workload.build()
        cfg = build_cfg(program)
        headers = {loop.header for loop in find_natural_loops(cfg)}
        _, measurement = attest_workload(name)
        for record in measurement.metadata:
            entry_block = cfg.block_containing(record.entry)
            assert entry_block is not None
            assert entry_block.start in headers, (
                "runtime loop entry %#x is not a static loop header" % record.entry)

    @pytest.mark.parametrize("name", ["figure4_loop", "crc32", "bubble_sort"])
    def test_runtime_loop_paths_within_static_bodies(self, name):
        """For *innermost* loops, the distinct path count reported at run time
        never exceeds the number of simple paths through the static loop body
        (+1 for the loop-exit iteration).  Outer loops of a nest are excluded:
        their first iteration absorbs the not-yet-discovered inner loop's
        branches, which legitimately creates extra encodings."""
        workload = get_workload(name)
        program = workload.build()
        cfg = build_cfg(program)
        checker = PathChecker(cfg)
        loops = {loop.header: loop for loop in find_natural_loops(cfg)}
        innermost = {
            header for header, loop in loops.items()
            if not any(other.header != header and other.header in loop.body
                       for other in loops.values())
        }
        _, measurement = attest_workload(name)
        checked = 0
        for record in measurement.metadata:
            header = cfg.block_containing(record.entry).start
            if header not in innermost:
                continue
            static_loop = loops[header]
            static_paths = checker.enumerate_loop_paths(header, static_loop.body)
            # +1 because the exit iteration is recorded as a path as well.
            assert record.distinct_paths <= len(static_paths) + 1
            checked += 1
        assert checked > 0


class TestTraceConsistency:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_hashed_pairs_are_a_subsequence_of_the_trace(self, name):
        """Everything the hash engine absorbed really was executed."""
        workload = get_workload(name)
        program = workload.build()
        cpu = Cpu(program, inputs=list(workload.inputs),
                  config=CpuConfig(collect_trace=True))
        engine = LoFatEngine()
        cpu.attach_monitor(engine.observe)
        result = cpu.run()
        engine.finalize()
        executed = result.trace.executed_edges
        executed_multiset = {}
        for edge in executed:
            executed_multiset[edge] = executed_multiset.get(edge, 0) + 1
        for pair in engine.hash_engine.absorbed_pairs:
            assert executed_multiset.get(pair, 0) > 0, (
                "hashed pair %s never executed" % (pair,))
            executed_multiset[pair] -= 1

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_attested_run_behaviour_is_unchanged(self, name):
        workload = get_workload(name)
        program = workload.build()
        plain = Cpu(program, inputs=list(workload.inputs)).run()
        attested_cpu = Cpu(program, inputs=list(workload.inputs))
        attested_cpu.attach_monitor(LoFatEngine().observe)
        attested = attested_cpu.run()
        assert attested.output == plain.output
        assert attested.cycles == plain.cycles
        assert attested.exit_code == plain.exit_code
