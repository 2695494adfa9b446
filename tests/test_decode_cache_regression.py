"""Regression tests for the CPU hot-path optimisations.

The decoded-instruction cache, the executor dispatch table and the streaming
trace mode are pure performance work: they must not change a single observable
bit.  These tests pin that down by comparing, for every seed workload, a run
on a cold decode cache against a warm rerun, and the streamed execution
against the collected one -- trace records, cycle accounting, outputs, and
the attestation measurement ``(A, L)``.
"""

import pytest

from repro.cache import DigestCache
from repro.cpu.core import DECODE_CACHE, Cpu, CpuConfig
from repro.cpu.trace import StreamingTrace, TraceNotRecordedError
from repro.lofat.engine import attest_execution
from repro.workloads import all_workloads

WORKLOAD_NAMES = [workload.name for workload in all_workloads()]


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
    _, cold = attest_execution(
        program, inputs=list(workload.inputs), collect_trace=True)
    _, warm = attest_execution(
        program, inputs=list(workload.inputs), collect_trace=True)
    assert cold.measurement == warm.measurement
    assert cold.metadata.to_bytes() == warm.metadata.to_bytes()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_streaming_trace_measurement_identical(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.build()
    collected_result, collected = attest_execution(
        program, inputs=list(workload.inputs), collect_trace=True)
    streamed_result, streamed = attest_execution(
        program, inputs=list(workload.inputs), collect_trace=False)

    assert streamed.measurement == collected.measurement
    assert streamed.metadata.to_bytes() == collected.metadata.to_bytes()
    # Summary statistics survive streaming; the record list does not.
    assert isinstance(streamed_result.trace, StreamingTrace)
    assert streamed_result.trace.summary() == collected_result.trace.summary()
    assert streamed_result.cycles == collected_result.cycles


def test_streaming_trace_refuses_record_access():
    workload = all_workloads()[0]
    result, _ = attest_execution(
        workload.build(), inputs=list(workload.inputs), collect_trace=False)
    with pytest.raises(TraceNotRecordedError):
        list(result.trace)
    with pytest.raises(TraceNotRecordedError):
        result.trace.records
    with pytest.raises(TraceNotRecordedError):
        result.trace.executed_edges


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
