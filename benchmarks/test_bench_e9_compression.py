"""E9 -- Loop-compression ablation (paper §4: "An integrated optimization for
eliminating redundant attestation computation").

The paper's second listed contribution is the loop-compression optimisation:
hashing each distinct loop path once and counting repetitions, instead of
hashing every iteration (which both inflates the hash workload and explodes
the set of valid measurements the verifier must recognise).  This ablation
disables loop tracking (nesting depth 0) and compares the hash workload and
metadata against the default configuration, per workload and as a function of
loop iteration count.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.lofat.config import LoFatConfig
from repro.schemes import get_scheme
from repro.workloads import all_workloads, get_workload

#: Loop tracking disabled: every control-flow event is hashed directly.
NO_COMPRESSION = LoFatConfig(max_nested_loops=0)


def _attest_with(workload, config, inputs=None):
    return get_scheme("lofat").measure_execution(
        workload.build(), workload.inputs if inputs is None else inputs,
        config=config)


def test_e9_compression_ablation_per_workload(benchmark, report_writer):
    workload = get_workload("crc32")
    benchmark(lambda: _attest_with(workload, LoFatConfig()))

    rows = []
    for workload in all_workloads():
        _, with_loops = _attest_with(workload, LoFatConfig())
        _, without_loops = _attest_with(workload, NO_COMPRESSION)
        events = with_loops.stats["control_flow_events"]
        rows.append({
            "workload": workload.name,
            "cf_events": events,
            "hashed_with_compression": with_loops.stats["pairs_hashed"],
            "hashed_without": without_loops.stats["pairs_hashed"],
            "hash_reduction_%": (
                100.0 * (1 - with_loops.stats["pairs_hashed"]
                         / max(without_loops.stats["pairs_hashed"], 1))
            ),
            "metadata_B": with_loops.metadata.size_bytes,
        })
    table = format_table(
        rows,
        title="E9: hash workload with and without loop compression",
    )
    report_writer("e9_compression", table)

    # Without loop tracking every event is hashed.
    assert all(row["hashed_without"] == row["cf_events"] for row in rows)
    # Compression never hashes more than the uncompressed baseline, and on
    # loop-dominated workloads it removes the majority of the hash work.
    assert all(row["hashed_with_compression"] <= row["hashed_without"] for row in rows)
    crc_row = next(row for row in rows if row["workload"] == "crc32")
    assert crc_row["hash_reduction_%"] > 50.0


def test_e9_hash_work_vs_iteration_count(benchmark, report_writer):
    """With compression the hash work is flat in the iteration count; without
    it, the work grows linearly -- the verifier-side valid-measurement space
    grows the same way, which is the combinatorial explosion §4 warns about."""
    workload = get_workload("figure4_loop")
    benchmark(lambda: _attest_with(workload, LoFatConfig(), inputs=[16]))

    rows = []
    for iterations in (4, 8, 16, 32, 64):
        _, compressed = _attest_with(workload, LoFatConfig(), inputs=[iterations])
        _, uncompressed = _attest_with(workload, NO_COMPRESSION, inputs=[iterations])
        rows.append({
            "loop_iterations": iterations,
            "hashed_with_compression": compressed.stats["pairs_hashed"],
            "hashed_without": uncompressed.stats["pairs_hashed"],
            "metadata_B": compressed.metadata.size_bytes,
        })
    table = format_table(
        rows,
        title="E9b: hash work vs loop iteration count (figure4 loop)",
    )
    report_writer("e9b_compression_scaling", table)

    compressed_counts = [row["hashed_with_compression"] for row in rows]
    uncompressed_counts = [row["hashed_without"] for row in rows]
    # Flat vs strictly growing.
    assert len(set(compressed_counts)) == 1
    assert uncompressed_counts == sorted(uncompressed_counts)
    assert uncompressed_counts[-1] > uncompressed_counts[0]
