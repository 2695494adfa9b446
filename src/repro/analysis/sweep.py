"""Parameter sweeps over the LO-FAT configuration space.

These drivers back the area experiment (E3), the hash-engine buffering
experiment (E6) and the granularity ablation (E8).  Each returns a list of
row dictionaries ready for :func:`repro.analysis.report.format_table`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cpu.core import CpuConfig
from repro.lofat.area_model import AreaModel, FpgaDevice, VIRTEX7_XC7Z020
from repro.lofat.config import LoFatConfig
from repro.schemes import get_scheme
from repro.workloads.common import Workload


def area_sweep(
    nesting_depths: Sequence[int] = (1, 2, 3, 4),
    path_bits: Sequence[int] = (8, 12, 16, 20),
    device: FpgaDevice = VIRTEX7_XC7Z020,
) -> List[Dict[str, object]]:
    """Resource estimates across nesting depth and path-ID width (E3/E8).

    The paper's configuration point is depth=3, l=16 (49 BRAMs); the sweep
    shows how "configuring these parameters to lower numbers reduces the
    memory requirements significantly" (§6.2).
    """
    rows: List[Dict[str, object]] = []
    for depth in nesting_depths:
        for bits in path_bits:
            config = LoFatConfig(
                max_nested_loops=depth,
                max_branches_per_path=bits,
                # Keep the indirect-branch budget feasible for narrow path IDs.
                max_indirect_branches_per_path=max(1, min(4, bits // 4)),
            )
            estimate = AreaModel(config).estimate()
            utilization = estimate.utilization(device)
            rows.append({
                "nested_loops": depth,
                "path_bits": bits,
                "bram36": estimate.bram36,
                "loop_mem_kbits": config.total_loop_memory_bits // 1024,
                "luts": estimate.luts,
                "registers": estimate.registers,
                "lut_util_%": 100.0 * utilization["luts"],
                "reg_util_%": 100.0 * utilization["registers"],
                "logic_overhead_%": 100.0 * estimate.logic_overhead_vs_pulpino(),
            })
    return rows


def buffer_depth_sweep(
    workloads: Sequence[Workload],
    buffer_depths: Sequence[int] = (1, 2, 4, 8, 16),
    cpu_config: Optional[CpuConfig] = None,
) -> List[Dict[str, object]]:
    """Hash-input buffer occupancy and drops per workload and depth (E6)."""
    if cpu_config is None:
        # Cycle-model experiment: observe per record so pair arrival times
        # match the hardware's per-cycle snoop (the batched compiled engine is
        # digest-identical but coarsens the transient occupancy numbers).
        cpu_config = CpuConfig(engine="legacy")
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        program = workload.build()
        for depth in buffer_depths:
            _, measurement = get_scheme("lofat").measure_execution(
                program, workload.inputs,
                config=LoFatConfig(hash_input_buffer_depth=depth),
                cpu_config=cpu_config)
            hash_stats = measurement.stats["hash_engine"]
            rows.append({
                "workload": workload.name,
                "buffer_depth": depth,
                "pairs": hash_stats["pairs_absorbed"],
                "max_occupancy": hash_stats["max_buffer_occupancy"],
                "pad_stalls": hash_stats["pad_stalls"],
                "dropped_pairs": hash_stats["dropped_pairs"],
            })
    return rows


def granularity_sweep(
    workload: Workload,
    indirect_bits: Sequence[int] = (2, 3, 4, 6),
    max_branches: Sequence[int] = (8, 16, 24),
    cpu_config: Optional[CpuConfig] = None,
) -> List[Dict[str, object]]:
    """Trade-off between tracking granularity and memory (E8).

    Reports, per configuration: loop memory bits, how many loop paths were
    truncated (path longer than ``l`` bits) and how many indirect targets
    overflowed the CAM (reported as the all-zero code).
    """
    rows: List[Dict[str, object]] = []
    program = workload.build()
    for bits in indirect_bits:
        for branches in max_branches:
            config = LoFatConfig(
                indirect_target_bits=bits,
                max_branches_per_path=branches,
                max_indirect_branches_per_path=min(
                    2, branches // max(bits, 1)
                ) or 1,
            )
            _, measurement = get_scheme("lofat").measure_execution(
                program, workload.inputs, config=config, cpu_config=cpu_config)
            truncated = sum(
                1
                for loop in measurement.metadata
                for path in loop.paths
                if path.encoding.truncated
            )
            distinct = measurement.metadata.total_distinct_paths
            rows.append({
                "indirect_bits": bits,
                "path_bits": branches,
                "loop_mem_kbits": config.total_loop_memory_bits // 1024,
                "distinct_paths": distinct,
                "truncated_paths": truncated,
                "metadata_B": measurement.metadata.size_bytes,
            })
    return rows


def hash_density_sweep(
    workloads: Sequence[Workload],
    cpu_config: Optional[CpuConfig] = None,
    config: Optional[LoFatConfig] = None,
) -> List[Dict[str, object]]:
    """Hash-engine utilisation vs branch density (E6).

    For each workload: control-flow event density, pairs absorbed, the hash
    engine's busy fraction relative to the program run time, and the buffer
    high-water mark.
    """
    if cpu_config is None:
        # Cycle-model experiment: per-record observation for exact arrival
        # timing (see buffer_depth_sweep).
        cpu_config = CpuConfig(engine="legacy")
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        result, measurement = get_scheme("lofat").measure_execution(
            workload.build(), workload.inputs, config=config,
            cpu_config=cpu_config)
        hash_stats = measurement.stats["hash_engine"]
        events = result.trace.control_flow_events
        rows.append({
            "workload": workload.name,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "cf_events": events,
            "density": events / max(result.instructions, 1),
            "pairs_absorbed": hash_stats["pairs_absorbed"],
            "engine_busy_%": 100.0 * hash_stats["pairs_absorbed"] / max(result.cycles, 1),
            "max_buffer": hash_stats["max_buffer_occupancy"],
            "dropped": hash_stats["dropped_pairs"],
        })
    return rows
