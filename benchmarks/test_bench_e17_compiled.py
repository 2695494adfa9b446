"""E17 -- Superblock trace compilation speedup over the step oracle.

The compiled engine (:meth:`repro.cpu.core.Cpu.run_compiled` over
:mod:`repro.cpu.compile` plans) replaces per-instruction dispatch with one
generated step function per superblock and one hash absorption per block.
The acceptance bar is on the engine itself: with a warm plan cache,
``Cpu.run()`` under ``engine="compiled"`` must reach a >= 4x
geometric-mean wall-time speedup over the per-instruction
:meth:`repro.cpu.core.Cpu.step` loop (``engine="legacy"``) across the E12
workload matrix.  The table also records the cold run (first execution,
plan compilation included), how many runs the compile cost takes to
amortize against the per-run saving, and -- informationally -- the
end-to-end LO-FAT measurement speedup, where the sponge absorptions
dilute the dispatch win.

Every matrix workload runs compiled, ``dispatcher``'s unresolved indirect
jump included (the trampoline resolves its targets at run time).
Byte-identity of the engines is asserted here per workload and pinned
exhaustively in ``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import math
import time

from repro.analysis.report import format_table
from repro.cpu.compile import COMPILE_CACHE
from repro.cpu.core import Cpu, CpuConfig
from repro.schemes import get_scheme
from repro.workloads import get_workload

#: The E12 acceptance matrix: loop-heavy, recursive and indirect shapes.
MATRIX = [
    "figure4_loop",
    "syringe_pump",
    "matmul",
    "quicksort",
    "crc32",
    "dispatcher",
    "fibonacci",
]

#: Timing repetitions per (workload, engine) point; best-of-N filters
#: scheduler noise out of the CI run.
REPEATS = 7


def _best_run(program, inputs, engine):
    """Best-of-N wall time of ``Cpu.run()`` alone (construction excluded)."""
    config = CpuConfig(engine=engine)
    best = None
    result = None
    for _ in range(REPEATS):
        cpu = Cpu(program, inputs=list(inputs), config=config)
        started = time.perf_counter()
        result = cpu.run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _best_measure(scheme, program, inputs, engine):
    """Best-of-N wall time of a full scheme measurement (end to end)."""
    config = CpuConfig(engine=engine)
    best = None
    result = measured = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result, measured = scheme.measure_execution(
            program, list(inputs), cpu_config=config)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, measured, best


def test_e17_compiled_speedup(benchmark, report_writer):
    lofat = get_scheme("lofat")
    compiled_config = CpuConfig(engine="compiled")

    # Timed kernel: one warm compiled LO-FAT measurement of the pump.
    pump = get_workload("syringe_pump")
    pump_program = pump.build()
    lofat.measure_execution(pump_program, list(pump.inputs),
                            cpu_config=compiled_config)  # warm the plan
    benchmark(lambda: lofat.measure_execution(
        pump_program, list(pump.inputs), cpu_config=compiled_config))

    rows = []
    speedups = []
    for name in MATRIX:
        workload = get_workload(name)
        program = workload.build()
        inputs = list(workload.inputs)

        # Cold: drop every plan, time the run that has to compile first.
        COMPILE_CACHE.clear()
        cpu = Cpu(program, inputs=list(inputs), config=compiled_config)
        started = time.perf_counter()
        cpu.run()
        cold_s = time.perf_counter() - started
        assert cpu.engine_used == "compiled", name

        step_result, step_s = _best_run(program, inputs, "legacy")
        comp_result, comp_s = _best_run(program, inputs, "compiled")

        # Correctness oracle: the engine changes no observable bit, through
        # the full attestation pipeline included (untimed for the bar).
        assert comp_result.cycles == step_result.cycles, name
        assert comp_result.instructions == step_result.instructions, name
        assert comp_result.registers == step_result.registers, name
        m_step_result, m_step, mstep_s = _best_measure(
            lofat, program, inputs, "legacy")
        m_comp_result, m_comp, mcomp_s = _best_measure(
            lofat, program, inputs, "compiled")
        assert m_comp.measurement == m_step.measurement, name
        assert m_comp.metadata.to_bytes() == m_step.metadata.to_bytes(), name
        assert m_comp_result.cycles == m_step_result.cycles, name

        speedup = step_s / comp_s
        speedups.append(speedup)
        saving = step_s - comp_s
        compile_cost = cold_s - comp_s
        amortize = (str(max(1, math.ceil(compile_cost / saving)))
                    if saving > 0 else "n/a")
        rows.append({
            "workload": name,
            "instructions": comp_result.instructions,
            "step_i/s": round(comp_result.instructions / step_s),
            "compiled_i/s": round(comp_result.instructions / comp_s),
            "speedup": round(speedup, 2),
            "cold_ms": round(cold_s * 1e3, 3),
            "warm_ms": round(comp_s * 1e3, 3),
            "amortize_runs": amortize,
            "e2e_speedup": round(mstep_s / mcomp_s, 2),
        })

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    rows.append({
        "workload": "geomean",
        "instructions": "",
        "step_i/s": "",
        "compiled_i/s": "",
        "speedup": round(geomean, 2),
        "cold_ms": "",
        "warm_ms": "",
        "amortize_runs": "",
        "e2e_speedup": "",
    })

    table = format_table(
        rows,
        columns=["workload", "instructions", "step_i/s",
                 "compiled_i/s", "speedup", "cold_ms", "warm_ms",
                 "amortize_runs", "e2e_speedup"],
        title="E17: compiled superblock engine vs the Cpu.step oracle "
              "(Cpu.run wall time, warm cache, best of %d; e2e_speedup = "
              "full lofat measurement)" % REPEATS,
    )
    report_writer("e17_compiled", table,
                  metrics={"geomean_speedup": geomean})

    # The acceptance bar: >= 4x geometric-mean engine speedup over the
    # matrix with a warm plan cache.
    assert geomean >= 4.0, (geomean, rows)


def test_e17_compiled_is_cached_across_runs(report_writer):
    """Back-to-back runs on one digest compile once: the second run is
    plan-lookup only."""
    workload = get_workload("figure4_loop")
    program = workload.build()
    config = CpuConfig(engine="compiled")
    lofat = get_scheme("lofat")
    COMPILE_CACHE.clear()
    before = COMPILE_CACHE.compiles
    lofat.measure_execution(program, list(workload.inputs), cpu_config=config)
    lofat.measure_execution(program, list(workload.inputs), cpu_config=config)
    assert COMPILE_CACHE.compiles == before + 1
