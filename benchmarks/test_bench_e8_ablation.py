"""E8 -- Granularity ablation (paper §5.2 / §6.2).

LO-FAT's tracking granularity is configurable: the number of bits used to
re-encode indirect-branch targets (n), the number of branches per loop path
(l) and the nesting depth all trade on-chip memory against the precision of
the loop metadata.  This bench sweeps those knobs on the indirect-call-heavy
dispatcher workload and on the area model, reproducing the trade-off the
paper describes ("configuring these parameters to lower numbers reduces the
memory requirements significantly at the expense of coarser granularity").
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweep import granularity_sweep
from repro.lofat.area_model import AreaModel
from repro.lofat.config import LoFatConfig
from repro.schemes import get_scheme
from repro.workloads import get_workload


def test_e8_granularity_tradeoff(benchmark, report_writer):
    workload = get_workload("dispatcher")
    # Stress the dispatcher with a longer command sequence so truncation and
    # CAM pressure become visible at coarse configurations.
    stressed = workload.with_inputs([1, 2, 3, 1, 2, 3, 2, 1, 3, 3, 2, 1, 0])

    program = stressed.build()
    benchmark(lambda: get_scheme("lofat").measure_execution(
        program, stressed.inputs))

    rows = granularity_sweep(stressed, indirect_bits=(2, 3, 4, 6),
                             max_branches=(8, 16, 24))
    table = format_table(
        rows,
        columns=["indirect_bits", "path_bits", "loop_mem_kbits", "distinct_paths",
                 "truncated_paths", "metadata_B"],
        title="E8: tracking granularity vs memory (dispatcher workload)",
    )
    report_writer("e8_granularity", table)

    # Memory cost is monotone in the path-ID width ...
    for bits in (2, 3, 4, 6):
        subset = [row for row in rows if row["indirect_bits"] == bits]
        memories = [row["loop_mem_kbits"] for row in sorted(subset, key=lambda r: r["path_bits"])]
        assert memories == sorted(memories)
    # ... and coarse path IDs truncate more paths than generous ones.
    coarse = sum(row["truncated_paths"] for row in rows if row["path_bits"] == 8)
    fine = sum(row["truncated_paths"] for row in rows if row["path_bits"] == 24)
    assert coarse >= fine


def test_e8_counter_width_ablation(benchmark, report_writer):
    """Design-choice ablation: the per-path iteration counter width."""
    workload = get_workload("crc32")
    program = workload.build()

    def run(width):
        config = LoFatConfig(counter_width_bits=width)
        _, measurement = get_scheme("lofat").measure_execution(
            program, workload.inputs, config=config)
        area = AreaModel(config).estimate()
        saturated = 0
        for loop in measurement.metadata:
            for path in loop.paths:
                if path.iterations >= (1 << width) - 1:
                    saturated += 1
        return config, measurement, area, saturated

    benchmark(lambda: run(8))

    rows = []
    for width in (2, 4, 8, 16):
        config, measurement, area, saturated = run(width)
        rows.append({
            "counter_bits": width,
            "loop_mem_kbits": config.total_loop_memory_bits // 1024,
            "bram36": area.bram36,
            "saturated_paths": saturated,
            "metadata_B": measurement.metadata.size_bytes,
        })
    table = format_table(
        rows,
        title="E8b: iteration-counter width vs memory and saturation (crc32)",
    )
    report_writer("e8b_counter_width", table)

    # Wider counters stop saturating; memory grows linearly with the width.
    assert rows[0]["saturated_paths"] >= rows[-1]["saturated_paths"]
    assert rows[-1]["saturated_paths"] == 0
    memories = [row["loop_mem_kbits"] for row in rows]
    assert memories == sorted(memories)
