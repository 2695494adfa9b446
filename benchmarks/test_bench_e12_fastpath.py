"""E12 -- Production execution pipeline speedup over the step oracle.

The compiled engine (``engine="compiled"``,
:meth:`repro.cpu.core.Cpu.run_compiled`) plus batched hash absorption must
make the simulate->measure hot path at least 2x faster in instructions/sec
than the per-instruction :meth:`repro.cpu.core.Cpu.step` oracle
(``engine="legacy"``) on the E1 overhead workloads -- while staying
byte-identical: same measurement ``A``, same metadata ``L``, same verifier
verdict, for every attestation scheme.  This experiment records both the
per-workload and the per-scheme aggregate speedups.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.attestation import Prover, Verifier
from repro.cpu.core import CpuConfig
from repro.schemes import get_scheme, scheme_names
from repro.workloads import all_workloads, get_workload

#: Timing repetitions per (scheme, workload, pipeline) point; best-of-N
#: filters scheduler noise out of the CI run.
REPEATS = 3


def _timed_measurement(scheme, program, inputs, engine):
    config = CpuConfig(engine=engine)
    best = None
    result = measured = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result, measured = scheme.measure_execution(
            program, inputs, cpu_config=config)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, measured, best


def _protocol_verdict(scheme_name, workload, engine):
    """One full challenge-response round on the given engine."""
    program = workload.build()
    cpu_config = CpuConfig(engine=engine)
    prover = Prover({workload.name: program}, cpu_config=cpu_config)
    verifier = Verifier(cpu_config=cpu_config)
    verifier.register_program(workload.name, program)
    verifier.register_device_key(
        "prover-0", prover.keystore.export_for_verifier())
    challenge = verifier.challenge(
        workload.name, list(workload.inputs), scheme=scheme_name)
    return verifier.verify(prover.attest(challenge))


def test_e12_fastpath_speedup(benchmark, report_writer):
    # Timed kernel: one compiled LO-FAT measurement of the syringe pump.
    pump = get_workload("syringe_pump")
    pump_program = pump.build()
    lofat = get_scheme("lofat")
    benchmark(lambda: lofat.measure_execution(
        pump_program, list(pump.inputs), cpu_config=CpuConfig()))

    workloads = all_workloads()  # the E1 overhead workload suite
    rows = []
    aggregate_rows = []
    for scheme_name in scheme_names():
        scheme = get_scheme(scheme_name)
        total_legacy = 0.0
        total_compiled = 0.0
        total_instructions = 0
        for workload in workloads:
            program = workload.build()
            inputs = list(workload.inputs)
            legacy_result, legacy, legacy_s = _timed_measurement(
                scheme, program, inputs, "legacy")
            compiled_result, compiled, compiled_s = _timed_measurement(
                scheme, program, inputs, "compiled")

            # Correctness oracle: the engine changes no observable bit.
            assert compiled.measurement == legacy.measurement, \
                (scheme_name, workload.name)
            assert compiled.metadata.to_bytes() == \
                legacy.metadata.to_bytes(), (scheme_name, workload.name)
            assert compiled_result.cycles == legacy_result.cycles
            assert compiled_result.instructions == legacy_result.instructions

            total_legacy += legacy_s
            total_compiled += compiled_s
            total_instructions += compiled_result.instructions
            rows.append({
                "scheme": scheme_name,
                "workload": workload.name,
                "instructions": compiled_result.instructions,
                "legacy_i/s": round(compiled_result.instructions / legacy_s),
                "compiled_i/s": round(
                    compiled_result.instructions / compiled_s),
                "speedup": round(legacy_s / compiled_s, 2),
            })

        # Verifier verdicts are engine-independent: a compiled report
        # verifies, and so does a legacy one, under the same scheme.
        assert _protocol_verdict(scheme_name, pump, "compiled").accepted
        assert _protocol_verdict(scheme_name, pump, "legacy").accepted

        aggregate_speedup = total_legacy / total_compiled
        aggregate_rows.append({
            "scheme": scheme_name,
            "workloads": len(workloads),
            "instructions": total_instructions,
            "legacy_i/s": round(total_instructions / total_legacy),
            "compiled_i/s": round(total_instructions / total_compiled),
            "speedup": round(aggregate_speedup, 2),
        })

    table = format_table(
        rows,
        columns=["scheme", "workload", "instructions", "legacy_i/s",
                 "compiled_i/s", "speedup"],
        title="E12: compiled engine vs the Cpu.step oracle, per workload",
    )
    table += "\n\n" + format_table(
        aggregate_rows,
        columns=["scheme", "workloads", "instructions", "legacy_i/s",
                 "compiled_i/s", "speedup"],
        title="E12: aggregate instructions/sec over the E1 workload suite",
    )
    report_writer(
        "e12_fastpath", table,
        metrics={
            "speedup_%s" % row["scheme"]: row["speedup"]
            for row in aggregate_rows
        },
    )

    # The acceptance bar: >= 2x instructions/sec per scheme over the suite.
    for row in aggregate_rows:
        assert row["speedup"] >= 2.0, row


def test_e12_compiled_is_default(report_writer):
    """A default CpuConfig runs the compiled engine timed above."""
    assert CpuConfig().engine == "compiled"
