"""Per-workload performance accounting: LO-FAT vs C-FLAT vs no attestation.

This module implements the measurement behind the paper's central performance
claim (§6.1): "Since LO-FAT extracts and filters control-flow events in
parallel with the processor, it does not incur any performance overhead for
the attested software, as opposed to C-FLAT which incurs attestation overhead
that is linearly dependent on the number of control-flow events."

For every workload we run the *same* execution three ways:

1. uninstrumented, no attestation (the baseline cycle count);
2. with the LO-FAT engine attached as a parallel monitor (the cycle count is
   identical by construction -- the comparison verifies that);
3. with the C-FLAT software cost model applied (baseline + per-event cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.schemes import get_scheme
from repro.schemes.cflat import CFlatCostModel
from repro.cpu.core import Cpu, CpuConfig
from repro.lofat.config import LoFatConfig
from repro.lofat.engine import LoFatEngine
from repro.workloads.common import Workload


@dataclass
class WorkloadComparison:
    """All measured quantities for one workload (one row of experiment E1)."""

    name: str
    instructions: int
    baseline_cycles: int
    control_flow_events: int
    lofat_cycles: int
    cflat_cycles: int
    lofat_internal_latency: int
    pairs_hashed: int
    pairs_compressed: int
    metadata_bytes: int
    loop_executions: int

    @property
    def lofat_overhead(self) -> float:
        """Relative processor overhead of LO-FAT (zero by construction)."""
        if self.baseline_cycles == 0:
            return 0.0
        return (self.lofat_cycles - self.baseline_cycles) / self.baseline_cycles

    @property
    def cflat_overhead(self) -> float:
        """Relative processor overhead of the C-FLAT cost model."""
        if self.baseline_cycles == 0:
            return 0.0
        return (self.cflat_cycles - self.baseline_cycles) / self.baseline_cycles

    @property
    def event_density(self) -> float:
        """Control-flow events per retired instruction."""
        if self.instructions == 0:
            return 0.0
        return self.control_flow_events / self.instructions

    @property
    def compression_ratio(self) -> float:
        """Hashed pairs / total control-flow events (lower = more compression)."""
        if self.control_flow_events == 0:
            return 1.0
        return self.pairs_hashed / self.control_flow_events

    def as_row(self) -> Dict[str, object]:
        """Row dictionary for :func:`repro.analysis.report.format_table`."""
        return {
            "workload": self.name,
            "instructions": self.instructions,
            "cycles": self.baseline_cycles,
            "cf_events": self.control_flow_events,
            "lofat_overhead_%": 100.0 * self.lofat_overhead,
            "cflat_overhead_%": 100.0 * self.cflat_overhead,
            "hashed_pairs": self.pairs_hashed,
            "compression": self.compression_ratio,
            "metadata_B": self.metadata_bytes,
        }


def compare_workload(
    workload: Workload,
    lofat_config: Optional[LoFatConfig] = None,
    cflat_cost: Optional[CFlatCostModel] = None,
    cpu_config: Optional[CpuConfig] = None,
) -> WorkloadComparison:
    """Measure one workload under no attestation, LO-FAT and C-FLAT."""
    program = workload.build()

    # 1. Baseline: no attestation attached.
    baseline_cpu = Cpu(program, inputs=list(workload.inputs), config=cpu_config)
    baseline = baseline_cpu.run()

    # 2. LO-FAT: same execution with the hardware monitor attached.
    lofat_cpu = Cpu(program, inputs=list(workload.inputs), config=cpu_config)
    engine = LoFatEngine(lofat_config)
    lofat_cpu.attach_monitor(engine.observe)
    lofat_result = lofat_cpu.run()
    measurement = engine.finalize()

    # 3. C-FLAT: software attestation cost model over the same trace.
    cflat = get_scheme("cflat").cost_model(baseline.trace, cflat_cost)

    stats = measurement.stats
    return WorkloadComparison(
        name=workload.name,
        instructions=baseline.instructions,
        baseline_cycles=baseline.cycles,
        control_flow_events=baseline.trace.control_flow_events,
        lofat_cycles=lofat_result.cycles,
        cflat_cycles=baseline.cycles + cflat.overhead_cycles,
        lofat_internal_latency=stats["internal_latency_cycles"],
        pairs_hashed=stats["pairs_hashed"],
        pairs_compressed=stats["pairs_compressed"],
        metadata_bytes=measurement.metadata.size_bytes,
        loop_executions=len(measurement.metadata),
    )


def compare_all_workloads(
    workloads: Sequence[Workload],
    lofat_config: Optional[LoFatConfig] = None,
    cflat_cost: Optional[CFlatCostModel] = None,
    cpu_config: Optional[CpuConfig] = None,
) -> List[WorkloadComparison]:
    """Run :func:`compare_workload` over a workload suite."""
    return [
        compare_workload(workload, lofat_config, cflat_cost, cpu_config)
        for workload in workloads
    ]
