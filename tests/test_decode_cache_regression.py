"""Regression tests for the CPU hot-path optimisations.

The decoded-instruction cache, the executor dispatch table and streaming
records to the monitors without collecting a trace are pure performance
work: they must not change a single observable bit.  These tests pin that
down by comparing, for every seed workload, a run on a cold decode cache
against a warm rerun, and the streamed execution against the collected one
-- trace records, cycle accounting, outputs, and the attestation
measurement ``(A, L)``.
"""

import pytest

from repro.cache import DigestCache
from repro.cpu.core import DECODE_CACHE, Cpu, CpuConfig
from repro.cpu.trace import ControlFlowTrace
from repro.schemes import get_scheme
from repro.workloads import all_workloads

WORKLOAD_NAMES = [workload.name for workload in all_workloads()]


def _attest(program, inputs, collect_trace, hooks=()):
    """One LO-FAT-attested run, its trace collected or streamed."""
    return get_scheme("lofat").measure_execution(
        program, inputs, cpu_config=CpuConfig(collect_trace=collect_trace),
        hooks=hooks)


def _run(program, inputs):
    """A traced run: the per-instruction step loop is what decodes."""
    cpu = Cpu(program, inputs=list(inputs),
              config=CpuConfig(collect_trace=True))
    return cpu.run()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_decode_cache_produces_identical_traces(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.build()
    DECODE_CACHE.clear()
    cold = _run(program, workload.inputs)
    warm = _run(program, workload.inputs)

    assert cold.output == warm.output
    assert cold.exit_code == warm.exit_code
    assert cold.instructions == warm.instructions
    assert cold.cycles == warm.cycles
    assert cold.registers == warm.registers
    assert len(cold.trace) == len(warm.trace)
    for lhs, rhs in zip(cold.trace, warm.trace):
        assert (lhs.pc, lhs.word, lhs.next_pc, lhs.cycle, lhs.kind, lhs.taken) \
            == (rhs.pc, rhs.word, rhs.next_pc, rhs.cycle, rhs.kind, rhs.taken)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_measurements_identical_cold_and_warm(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.build()
    DECODE_CACHE.clear()
    _, cold = _attest(program, workload.inputs, collect_trace=True)
    _, warm = _attest(program, workload.inputs, collect_trace=True)
    assert cold.measurement == warm.measurement
    assert cold.metadata.to_bytes() == warm.metadata.to_bytes()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_streaming_trace_measurement_identical(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.build()
    collected_result, collected = _attest(program, workload.inputs, collect_trace=True)
    capture = ControlFlowTrace()
    streamed_result, streamed = _attest(
        program, workload.inputs, collect_trace=False,
        hooks=[lambda cpu: cpu.attach_monitor(capture.observe)])

    assert streamed.measurement == collected.measurement
    assert streamed.metadata.to_bytes() == collected.metadata.to_bytes()
    # An attached capture counts what the collected trace counts.
    assert capture.summary() == collected_result.trace.summary()
    assert streamed_result.cycles == collected_result.cycles


@pytest.mark.parametrize("engine", ["legacy", "compiled"])
def test_run_without_collect_trace_keeps_no_trace(engine):
    """Without ``collect_trace`` the CPU keeps no trace of its own: the
    records go only to the attached monitors."""
    workload = all_workloads()[0]
    cpu = Cpu(workload.build(), inputs=list(workload.inputs),
              config=CpuConfig(engine=engine))
    result = cpu.run()
    assert cpu.trace is None
    assert result.trace is None
    attested, _ = _attest(workload.build(), workload.inputs,
                          collect_trace=False)
    assert attested.trace is None


def _decoded(program):
    return len(DECODE_CACHE.get_or_build(program.digest, dict))


def test_decode_cache_is_shared_across_runs():
    workload = all_workloads()[0]
    program = workload.build()
    DECODE_CACHE.clear()
    _run(program, workload.inputs)
    decoded_once = _decoded(program)
    assert decoded_once > 0
    _run(program, workload.inputs)
    # The second run decoded nothing new.
    assert _decoded(program) == decoded_once
    assert len(DECODE_CACHE) == 1


def test_decode_cache_bounded():
    small = DigestCache(budget=2)
    programs = [w.build() for w in all_workloads()[:3]]
    for program in programs:
        table = small.get_or_build(program.digest, dict)
        table[0] = (0, None)
    assert len(small) == 2
    assert programs[0].digest not in small
