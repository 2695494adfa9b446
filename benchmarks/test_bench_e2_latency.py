"""E2 -- LO-FAT internal latency and stall-freedom (paper §6.1).

The paper reports that LO-FAT internally needs 2 cycles per branch for
branch/loop-status tracking and 5 cycles at loop exit for path-ID generation
and counter-memory update, while never stalling the processor or dropping a
(Src, Dest) pair.  This bench regenerates those per-workload latency numbers
and verifies the no-stall / no-drop property.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cpu.core import Cpu, CpuConfig
from repro.lofat.config import LoFatConfig
from repro.lofat.engine import LoFatEngine
from repro.workloads import all_workloads, get_workload


#: This experiment is about the engine's *cycle model*: observe per record
#: (legacy loop) so pair arrival times match the hardware's per-cycle snoop
#: exactly.  The batched fast path is digest-identical but coarsens arrival
#: timing, which would inflate the transient buffer-occupancy numbers.
_CYCLE_FIDELITY = CpuConfig(engine="legacy")


def _attest(workload, config=None):
    program = workload.build()
    plain = Cpu(program, inputs=list(workload.inputs)).run()
    cpu = Cpu(program, inputs=list(workload.inputs), config=_CYCLE_FIDELITY)
    engine = LoFatEngine(config)
    cpu.attach_monitor(engine.observe)
    attested = cpu.run()
    measurement = engine.finalize()
    return plain, attested, engine, measurement


def test_e2_internal_latency_and_no_stalls(benchmark, report_writer):
    config = LoFatConfig()
    workload = get_workload("bubble_sort")
    benchmark(lambda: _attest(workload, config))

    rows = []
    for workload in all_workloads():
        plain, attested, engine, measurement = _attest(workload, config)
        stats = engine.branch_filter.stats
        hash_stats = measurement.stats["hash_engine"]
        rows.append({
            "workload": workload.name,
            "cycles": plain.cycles,
            "cf_events": stats.control_flow_instructions,
            "loop_exits": stats.loop_exits,
            "internal_latency": engine.branch_filter.internal_latency_cycles,
            "branch_lat_cycles": config.branch_tracking_latency * stats.control_flow_instructions,
            "exit_lat_cycles": config.loop_exit_latency * stats.loop_exits,
            "stall_cycles": attested.cycles - plain.cycles,
            "dropped_pairs": hash_stats["dropped_pairs"],
            "max_buffer": hash_stats["max_buffer_occupancy"],
        })
    table = format_table(
        rows,
        title=("E2: internal LO-FAT latency (2 cycles/branch, 5 cycles/loop exit), "
               "processor stalls and dropped pairs"),
    )
    report_writer("e2_latency", table)

    for row in rows:
        # The latency decomposition is exactly 2/branch + 5/loop-exit.
        assert row["internal_latency"] == row["branch_lat_cycles"] + row["exit_lat_cycles"]
        # The processor never stalls and no pair is ever dropped.
        assert row["stall_cycles"] == 0
        assert row["dropped_pairs"] == 0
