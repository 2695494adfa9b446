"""Regression tests for the CPU hot-path optimisations.

The decoded-instruction cache, the executor dispatch table and the streaming
trace mode are pure performance work: they must not change a single observable
bit.  These tests pin that down by comparing, for every seed workload, the
cached/streamed execution against the uncached reference -- trace records,
cycle accounting, outputs, and the attestation measurement ``(A, L)``.
"""

import pytest

from repro.cpu.core import DECODE_CACHE, Cpu, CpuConfig
from repro.cpu.trace import StreamingTrace, TraceNotRecordedError
from repro.lofat.engine import attest_execution
from repro.workloads import all_workloads

WORKLOAD_NAMES = [workload.name for workload in all_workloads()]


def _run(program, inputs, **config_overrides):
    """A traced run: the per-instruction step loop is what decodes."""
    cpu = Cpu(program, inputs=list(inputs),
              config=CpuConfig(collect_trace=True, **config_overrides))
    return cpu.run()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_decode_cache_produces_identical_traces(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.build()
    cached = _run(program, workload.inputs, decoded_instruction_cache=True)
    uncached = _run(program, workload.inputs, decoded_instruction_cache=False)

    assert cached.output == uncached.output
    assert cached.exit_code == uncached.exit_code
    assert cached.instructions == uncached.instructions
    assert cached.cycles == uncached.cycles
    assert cached.registers == uncached.registers
    assert len(cached.trace) == len(uncached.trace)
    for lhs, rhs in zip(cached.trace, uncached.trace):
        assert (lhs.pc, lhs.word, lhs.next_pc, lhs.cycle, lhs.kind, lhs.taken) \
            == (rhs.pc, rhs.word, rhs.next_pc, rhs.cycle, rhs.kind, rhs.taken)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_measurements_identical_with_and_without_cache(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.build()
    _, cached = attest_execution(
        program, inputs=list(workload.inputs),
        cpu_config=CpuConfig(decoded_instruction_cache=True))
    _, uncached = attest_execution(
        program, inputs=list(workload.inputs),
        cpu_config=CpuConfig(decoded_instruction_cache=False))
    assert cached.measurement == uncached.measurement
    assert cached.metadata.to_bytes() == uncached.metadata.to_bytes()


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


def test_decode_cache_is_shared_across_runs():
    workload = all_workloads()[0]
    program = workload.build()
    DECODE_CACHE.clear()
    _run(program, workload.inputs)
    decoded_once = DECODE_CACHE.cached_instructions
    assert decoded_once > 0
    _run(program, workload.inputs)
    # The second run decoded nothing new.
    assert DECODE_CACHE.cached_instructions == decoded_once
    assert DECODE_CACHE.cached_programs == 1


def test_decode_cache_bounded():
    cache_type = type(DECODE_CACHE)
    small = cache_type(max_programs=2)
    programs = [w.build() for w in all_workloads()[:3]]
    for program in programs:
        table = small.table_for(program)
        table[0] = (0, None)
    assert small.cached_programs <= 2
